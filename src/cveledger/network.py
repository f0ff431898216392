"""In-process simulation of the peer network and ordering service.

N organization peers endorse transactions by dry-running them against their
local state; the orderer serializes endorsed transactions FIFO (arrival
sequence, ties by tx id), cuts blocks, and every peer applies the same
blocks to its own replica. A logical clock scripted by the caller drives
block timestamps, so entire runs are a pure function of (script, config,
key seed).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

from .canonical import to_canonical_json, typed
from .chaincode import (
    ChainClock,
    OP_CHECK_EMBARGO,
    OP_ONBOARD,
    OP_REVOKE,
    OP_SUBMIT,
    OP_UPDATE_STATUS,
    WorldState,
    execute_transaction,
)
from .corrections import OP_DISPUTE, OP_MERGE, OP_PARTIAL_DUP, OP_REJECT, OP_SPLIT
from .errors import BadCertificate, ClockRegression, LedgerError, Revoked, UnauthorizedCaller
from .identity import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    ROLE_CNA,
    ROLE_GOVERNANCE,
    ROLE_READER,
    derive_keypair,
    sign_payload,
    verify_certificate,  # noqa: F401  (the benchmark's span tracer patches it here)
    verify_payload,
)
# apply_block is looked up here by the benchmark's span tracer
from .ledger import (
    Block,
    EndorsementPolicy,
    Transaction,
    TrustAnchors,
    append_block,
    apply_block,
    commit_block,
    make_genesis_block,
    replay,
    state_hash,
)

DEFAULT_GOVERNANCE = "gov.root"


@dataclass(frozen=True)
class OrdererConfig:
    max_block_txs: int = 100
    tick_seconds: int = 1

    def to_dict(self) -> dict:
        return {"maxBlockTxs": self.max_block_txs, "tickSeconds": self.tick_seconds}

    @classmethod
    def from_dict(cls, obj: dict) -> "OrdererConfig":
        return cls(
            max_block_txs=typed(obj.get("maxBlockTxs", 100), int, "maxBlockTxs"),
            tick_seconds=typed(obj.get("tickSeconds", 1), int, "tickSeconds"),
        )


@dataclass(frozen=True)
class Refusal:
    peer_id: str
    error: LedgerError  # raised to the caller when it is the first refusal

    @property
    def code(self) -> str:
        return self.error.code


class Peer:
    """One organization's node: its own copy of the state the network rebuilt
    once, plus the tip hash against which the next block's link is checked."""

    def __init__(self, peer_id: str, org: str, key: KeyPair, state: WorldState, tip_hash: str):
        self.peer_id = peer_id
        self.org = org
        self.key = key
        self.state = state
        self.tip_hash = tip_hash

    def endorse(self, tx: Transaction, crl):
        """Signature over the payload iff the caller has a certificate in the
        state, the payload signature holds, a dry run of the chaincode passes
        every guard, and neither the caller's certificate nor the one an
        onboarding carries is revoked. Otherwise a Refusal naming the failed
        guard. The CA signature is not checked again: genesis and
        onboarding, the only ways into `state.certificates`, checked it."""
        payload = tx.payload
        caller = payload["caller"]
        cert = self.state.certificates.get(caller)
        if cert is None:
            return Refusal(self.peer_id, BadCertificate(f"no certificate for {caller}"))
        if cert.role == ROLE_READER:
            return Refusal(self.peer_id, UnauthorizedCaller("readers cannot sign"))
        if not tx.caller_signature or not verify_payload(
            cert.public_key, tx.payload_bytes(), bytes.fromhex(tx.caller_signature)
        ):
            return Refusal(self.peer_id, BadCertificate("payload signature invalid"))
        try:
            execute_transaction(
                self.state, payload, ChainClock(payload["clockNow"]), check_only=True
            )
        except LedgerError as exc:
            return Refusal(self.peer_id, exc.with_traceback(None))  # keeps no frame of the dry run
        serials = [cert.serial]
        if payload["op"] == OP_ONBOARD:  # the dry run has decoded its certificate
            serials.append(Certificate.from_dict(payload["args"]["certificate"]).serial)
        for serial in serials:
            if serial in crl.revoked_serials:
                return Refusal(self.peer_id, Revoked(f"certificate serial {serial} revoked"))
        return self.peer_id, sign_payload(self.key, tx.payload_bytes()).hex()

    def commit_block(self, block: Block) -> None:
        self.tip_hash = commit_block(self.state, self.tip_hash, block)

    def state_hash(self) -> str:
        return state_hash(self.state)


@dataclass
class SubmitResult:
    tx: Transaction
    accepted: bool
    refusals: list[Refusal] = field(default_factory=list)


def build_consortium(
    new_key: Callable[[str], KeyPair],
    *,
    n_peers: int,
    policy: EndorsementPolicy,
    genesis_time: int,
    governance_id: str,
) -> tuple[CertificateAuthority, dict[str, KeyPair], Certificate, Block]:
    """The genesis of a consortium: a CA, the governance member and its
    certificate, peers `peer<i>.org<i>` of orgs `org<i>`, and the genesis
    block that anchors them. `new_key(label)` supplies each key, labelled
    "ca", the governance id or the peer id. Returns (ca, keys, governance
    certificate, genesis), where `keys` holds the governance and peer keys."""
    ca = CertificateAuthority(new_key("ca"))
    keys = {governance_id: new_key(governance_id)}
    gov_cert = ca.issue_certificate(
        governance_id, ROLE_GOVERNANCE, keys[governance_id].public_hex, issued_at=genesis_time
    )
    peers_cfg = {}
    for i in range(n_peers):
        pid = f"peer{i}.org{i}"
        keys[pid] = new_key(pid)
        peers_cfg[pid] = {"org": f"org{i}", "publicKey": keys[pid].public_hex}
    genesis = make_genesis_block(ca.public_key, {governance_id: gov_cert}, peers_cfg, policy, genesis_time)
    return ca, keys, gov_cert, genesis


class SimulatedNetwork:
    """Consortium in one process: CA, governance identity, N peers, orderer.

    `keys` holds the signing keys of the participants that may call; the
    peers keep their own. A network built here from `seed` starts with only
    the governance key in `keys` (`issue_identity` adds CNAs), so a peer id
    named as caller fails with `BadCertificate`."""

    def __init__(
        self,
        *,
        n_peers: int = 3,
        policy: EndorsementPolicy | None = None,
        seed: bytes = b"cveledger-dev",
        genesis_time: int = 0,
        orderer: OrdererConfig | None = None,
        governance_id: str = DEFAULT_GOVERNANCE,
    ):
        ca, keys, gov_cert, genesis = build_consortium(
            lambda label: derive_keypair(seed, label),
            n_peers=n_peers,
            policy=policy or EndorsementPolicy(rule="ANY_N", n=1),
            genesis_time=genesis_time,
            governance_id=governance_id,
        )
        self._attach(
            ca=ca, keys={governance_id: keys[governance_id]}, peer_keys=keys, certs={governance_id: gov_cert},
            chain=[genesis], orderer=orderer or OrdererConfig(), governance_id=governance_id, seed=seed,
        )

    @classmethod
    def from_materials(
        cls,
        *,
        ca: CertificateAuthority,
        keys: dict[str, KeyPair],
        certs: dict[str, Certificate],
        chain: Sequence[Block],
        orderer: OrdererConfig,
        governance_id: str = DEFAULT_GOVERNANCE,
        state: WorldState | None = None,
    ) -> "SimulatedNetwork":
        """Rebuild a running network around an existing chain: `state` is the
        state after it (the chain is replayed once when none is given), each
        peer starts from its own copy of that state, and the orderer resumes
        at the tip's clock. Without a seed, `issue_identity` refuses.

        `keys` must hold every genesis peer's key, and it becomes the
        network's `keys` as given, so any participant in it may call, the
        peers included (a data dir keeps all of its keys together)."""
        if not chain:
            raise ValueError("a genesis block is required")
        net = cls.__new__(cls)
        net._attach(
            ca=ca, keys=keys, peer_keys=keys, certs=certs, chain=chain, orderer=orderer,
            governance_id=governance_id, seed=None, state=state,
        )
        return net

    def _attach(
        self,
        *,
        ca: CertificateAuthority,
        keys: dict[str, KeyPair],
        peer_keys: dict[str, KeyPair],
        certs: dict[str, Certificate],
        chain: Sequence[Block],
        orderer: OrdererConfig,
        governance_id: str,
        seed: bytes | None,
        state: WorldState | None = None,
    ) -> None:
        """Set every field: the trust anchors and peers come from the genesis
        block; `chain` is replayed once unless its `state` is given, and each
        peer gets a `WorldState.copy()` and the tip. The network keeps
        `chain` itself, which `append_block` never mutates."""
        self.orderer = orderer
        self.seed = seed
        self.ca = ca
        self.keys = dict(keys)
        self.certs = dict(certs)
        self.governance_id = governance_id
        self.trust = TrustAnchors.from_genesis(chain[0])
        self.policy = self.trust.policy
        pids = sorted(self.trust.peer_keys)
        for pid in pids:
            if pid not in peer_keys:
                raise BadCertificate(f"missing signing key for peer {pid}")
        if state is None:
            state = replay(chain)
        tip = chain[-1]
        self.peers = [
            Peer(pid, self.trust.peer_orgs[pid], peer_keys[pid], state.copy(), tip.block_hash) for pid in pids
        ]
        self.chain = chain
        self.clock = tip.block_time
        self.pending: list[tuple[int, Transaction]] = []
        self._arrival_seq = 0

    # -- identities ---------------------------------------------------------

    def issue_identity(self, participant: str, role: str = ROLE_CNA) -> Certificate:
        if self.seed is None:  # a key derived from no seed is one anyone can recompute
            raise BadCertificate("network has no key seed; issue identities through the node")
        key = derive_keypair(self.seed, participant)
        cert = self.ca.issue_certificate(participant, role, key.public_hex, issued_at=self.clock)
        self.keys[participant] = key
        self.certs[participant] = cert
        return cert

    def revoke_identity(self, participant: str) -> None:
        cert = self.certs.get(participant)
        if cert is not None:
            self.ca.revoke(cert.serial)

    @property
    def crl(self):
        return self.ca.crl

    # -- transaction flow ----------------------------------------------------

    def build_tx(self, op: str, args: dict, caller: str) -> Transaction:
        key = self.keys.get(caller)
        if key is None:
            raise BadCertificate(f"no signing key for {caller}")
        return Transaction.build(op, args, caller, self.clock, key=key)

    def submit_tx(self, tx: Transaction) -> SubmitResult:
        """Gather endorsements (peers asked in id order until the policy is
        satisfied); accepted transactions queue for the next block cut."""
        endorsements: list[tuple[str, str]] = []
        refusals: list[Refusal] = []
        orgs: set[str] = set()
        for peer in self.peers:
            outcome = peer.endorse(tx, self.crl)
            if isinstance(outcome, Refusal):
                refusals.append(outcome)
                continue
            endorsements.append(outcome)
            orgs.add(peer.org)
            if self.policy.satisfied(orgs, len(endorsements)):
                break
        endorsed = tx.with_endorsements(endorsements)
        if not endorsements or not self.policy.satisfied(orgs, len(endorsements)):
            return SubmitResult(tx=endorsed, accepted=False, refusals=refusals)
        self.pending.append((self._arrival_seq, endorsed))
        self._arrival_seq += 1
        return SubmitResult(tx=endorsed, accepted=True, refusals=refusals)

    def invoke(self, op: str, args: dict, caller: str) -> SubmitResult:
        return self.submit_tx(self.build_tx(op, args, caller))

    def onboard(self, cna: str, cert: Certificate, caller: str) -> SubmitResult:
        """OnboardCNA of `cna` with its certificate."""
        return self.invoke(
            OP_ONBOARD, {"cnaID": cna, "certHash": cert.cert_hash(), "certificate": cert.to_dict()}, caller
        )

    def revoke(self, cna: str, caller: str) -> SubmitResult:
        """RevokeCNA of `cna`; once it is endorsed, the CA also revokes the
        CNA's certificate."""
        result = self.invoke(OP_REVOKE, {"cnaID": cna}, caller)
        if result.accepted:
            self.revoke_identity(cna)
        return result

    def submit(self, record: dict, salt: str | None = None, caller: str | None = None) -> SubmitResult:
        """SubmitCVE of `record`, with `salt` when one is given, signed by the
        record's `submitterCNA` (by `caller` when the record names none)."""
        args: dict = {"record": record}
        if salt is not None:
            args["salt"] = salt
        return self.invoke(OP_SUBMIT, args, record.get("submitterCNA", caller))

    def advance_clock(self, now: int) -> None:
        if now < self.clock:
            raise ClockRegression(f"clock to {now} behind {self.clock}")
        self.clock = int(now)

    def tick(self, now: int | None = None) -> list[Block]:
        """Advance the logical clock and cut pending transactions into
        blocks (max_block_txs per block); all peers commit each block."""
        new_now = self.clock + self.orderer.tick_seconds if now is None else int(now)
        if new_now < self.clock:
            raise ClockRegression(f"tick to {new_now} behind clock {self.clock}")
        self.clock = new_now
        queue = sorted(self.pending, key=lambda item: (item[0], item[1].tx_id))
        self.pending = []
        cut: list[Block] = []
        for start in range(0, len(queue), self.orderer.max_block_txs):
            batch = [tx for _, tx in queue[start : start + self.orderer.max_block_txs]]
            self.chain = append_block(self.chain, batch, self.clock, self.trust)
            block = self.chain[-1]
            for peer in self.peers:
                peer.commit_block(block)
            cut.append(block)
        return cut

    def state_hashes(self) -> dict[str, str]:
        return {peer.peer_id: peer.state_hash() for peer in self.peers}

    def consistent(self) -> bool:
        return len(set(self.state_hashes().values())) == 1


# -- scenario driver ----------------------------------------------------------

_ACTION_OPS = {
    "status": OP_UPDATE_STATUS,
    "reject": OP_REJECT,
    "dispute": OP_DISPUTE,
    "merge": OP_MERGE,
    "split": OP_SPLIT,
    "partialdup": OP_PARTIAL_DUP,
}


def _scenario_salt(seed: bytes, index: int) -> str:
    return hashlib.sha256(seed + b"/salt/" + str(index).encode()).hexdigest()[:32]


def drive_scenario(script: dict | list) -> tuple[SimulatedNetwork, list[dict], list[dict]]:
    """Execute a timed action script; returns the driven network plus the
    per-action and per-block logs.

    A bare JSON list of {atTick, action, args} is accepted as shorthand for
    {"actions": [...]} with default network settings."""
    net, action_log, block_log, _ = _drive(script)
    return net, action_log, block_log


def _drive(script: dict | list) -> tuple[SimulatedNetwork, list[dict], list[dict], list[int]]:
    """`drive_scenario`, plus the commit latency in ticks of each committed
    transaction id, sorted."""
    if isinstance(script, list):
        script = {"actions": script}
    seed = bytes.fromhex(script["seed"]) if "seed" in script else b"cveledger-scenario"
    genesis_time = int(script.get("genesisTime", 0))
    tick_seconds = int(script.get("tickSeconds", 1))
    net = SimulatedNetwork(
        n_peers=int(script.get("peers", 3)),
        policy=EndorsementPolicy.from_dict(script["policy"]) if "policy" in script else None,
        seed=seed,
        genesis_time=genesis_time,
        orderer=OrdererConfig(
            max_block_txs=int(script.get("maxBlockTxs", 100)), tick_seconds=tick_seconds
        ),
    )
    gov = net.governance_id
    actions = list(script.get("actions", ()))
    max_tick = max((int(a.get("atTick", 0)) for a in actions), default=-1)

    action_log: list[dict] = []
    block_log: list[dict] = []
    # tick of the last acceptance and of the last commit, per tx id
    submit_tick: dict[str, int] = {}
    commit_tick: dict[str, int] = {}
    salt_counter = 0

    def perform(entry: dict) -> dict:
        nonlocal salt_counter
        kind = entry["action"]
        args = dict(entry.get("args", {}))
        caller = args.pop("caller", gov)
        out: dict = {"atTick": int(entry.get("atTick", 0)), "action": kind}
        if kind == "onboard":
            cna = args["cna"]
            cert = net.certs.get(cna)
            if cert is None or cert.serial in net.crl.revoked_serials:  # a revoked one cannot onboard
                cert = net.issue_identity(cna, ROLE_CNA)
            result = net.onboard(cna, cert, caller)
        elif kind == "revoke":
            result = net.revoke(args["cna"], caller)
        elif kind == "submit":
            record = dict(args["record"])
            if "embargoTicks" in args:
                record["embargoUntil"] = genesis_time + int(args["embargoTicks"]) * tick_seconds
            salt = args.get("salt")
            if salt is None and record.get("embargoUntil") is not None:
                salt = _scenario_salt(seed, salt_counter)
                salt_counter += 1
            result = net.submit(record, salt, caller)
        elif kind == "embargo-tick":
            result = net.invoke(OP_CHECK_EMBARGO, {}, caller)
        elif kind in _ACTION_OPS:
            result = net.invoke(_ACTION_OPS[kind], args, caller)
        else:
            raise ValueError(f"unknown scenario action {kind!r}")
        out["ok"] = result.accepted
        out["txId"] = result.tx.tx_id
        if result.refusals:
            out["refusals"] = [
                {"peer": r.peer_id, "code": r.code} for r in result.refusals
            ]
        return out

    for tick_no in range(max_tick + 1):
        now = genesis_time + tick_no * tick_seconds
        net.advance_clock(now)
        for entry in actions:
            if int(entry.get("atTick", 0)) == tick_no:
                out = perform(entry)
                action_log.append(out)
                if out["ok"]:
                    submit_tick[out["txId"]] = tick_no
        for block in net.tick(now):
            for tx in block.txs:
                commit_tick[tx.tx_id] = tick_no
            hashes = net.state_hashes()
            block_log.append(
                {
                    "height": block.height,
                    "blockHash": block.block_hash,
                    "blockTime": block.block_time,
                    "txCount": len(block.txs),
                    "stateHashes": hashes,
                    "consistent": len(set(hashes.values())) == 1,
                }
            )
    latencies = sorted(commit_tick[tid] - submit_tick[tid] for tid in commit_tick)
    return net, action_log, block_log, latencies


def run_scenario(script: dict | list) -> dict:
    """Execute a timed action script and return a fully deterministic trace:
    per-action outcomes, per-block state hashes across peers, the event
    log, and simulated-time throughput/latency statistics."""
    if isinstance(script, list):
        script = {"actions": script}
    genesis_time = int(script.get("genesisTime", 0))
    net, action_log, block_log, committed = _drive(script)

    def pct(p: float) -> int:
        if not committed:
            return 0
        return committed[min(len(committed) - 1, int(p * len(committed)))]

    reference = net.peers[0].state
    simulated = max(net.clock - genesis_time, 0)
    trace = {
        "actions": action_log,
        "blocks": block_log,
        "events": [e.to_dict() for e in reference.event_log],
        "failedTxs": list(reference.failed_txs),
        "finalStateHash": state_hash(reference),
        "stats": {
            "committedTxs": len(committed),
            "pendingTxs": len(net.pending),
            "simulatedSeconds": simulated,
            "txPerSimulatedSecond": (
                round(len(committed) / simulated, 6) if simulated else 0.0
            ),
            "latencyTicks": {"p50": pct(0.50), "p95": pct(0.95), "max": committed[-1] if committed else 0},
        },
    }
    return trace


def trace_json(trace: dict) -> str:
    return to_canonical_json(trace)
