"""Operator node: durable storage wiring around the simulated network.

One writer process per data dir (advisory lock). The ledger file is the
only source of truth: opening a node replays it once and copies the state
to each peer, every mutation runs the full endorse -> order -> commit
pipeline, and each committed block is in the file before the call returns.
"""

from __future__ import annotations

import json
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import errors
from .canonical import to_canonical_json, typed
from .chaincode import OP_CHECK_EMBARGO, OP_UPDATE_STATUS
from .corrections import OP_DISPUTE, OP_MERGE, OP_PARTIAL_DUP, OP_REJECT, OP_SPLIT
from .errors import LedgerError
from .identity import Certificate, CertificateAuthority, KeyPair, RevocationList, derive_keypair
from .ledger import Block, EndorsementPolicy, state_hash
from .network import DEFAULT_GOVERNANCE, OrdererConfig, SimulatedNetwork, SubmitResult, build_consortium
from .records import parse_cve_id
# audit_file is looked up here by the benchmark's span tracer
from .storage import DataDirLock, append_block_file, audit_file, read_chain

LEDGER_FILE = "ledger.jsonl"
CONFIG_FILE = "config.json"
CRL_FILE = "crl.json"
KEYS_DIR = "keys"
CERTS_DIR = "certs"


@dataclass(frozen=True)
class NodeConfig:
    orderer: OrdererConfig = field(default_factory=OrdererConfig)
    policy: EndorsementPolicy = field(default_factory=EndorsementPolicy)
    ca_key_path: str = f"{KEYS_DIR}/ca.json"
    identity_key_path: str = f"{KEYS_DIR}/{DEFAULT_GOVERNANCE}.json"
    listen_port: int = 8440
    governance_id: str = DEFAULT_GOVERNANCE
    peer_count: int = 3

    def to_dict(self) -> dict:
        return {
            "ordererConfig": self.orderer.to_dict(),
            "endorsementPolicy": self.policy.to_dict(),
            "caKeyPath": self.ca_key_path,
            "identityKeyPath": self.identity_key_path,
            "listenPort": self.listen_port,
            "governanceId": self.governance_id,
            "peerCount": self.peer_count,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NodeConfig":
        policy = typed(obj.get("endorsementPolicy", {}), dict, "endorsementPolicy")
        return cls(
            orderer=OrdererConfig.from_dict(typed(obj.get("ordererConfig", {}), dict, "ordererConfig")),
            policy=EndorsementPolicy.from_dict(policy),
            ca_key_path=typed(obj.get("caKeyPath", f"{KEYS_DIR}/ca.json"), str, "caKeyPath"),
            identity_key_path=typed(
                obj.get("identityKeyPath", f"{KEYS_DIR}/{DEFAULT_GOVERNANCE}.json"), str, "identityKeyPath"
            ),
            listen_port=typed(obj.get("listenPort", 8440), int, "listenPort"),
            governance_id=typed(obj.get("governanceId", DEFAULT_GOVERNANCE), str, "governanceId"),
            peer_count=typed(obj.get("peerCount", 3), int, "peerCount"),
        )


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(to_canonical_json(obj) + "\n", encoding="utf-8")


def read_json_file(path: str | Path, kind: type = dict, parse=None):
    """The JSON value of type `kind` in `path`, passed through `parse` when
    one is given. A missing file, bad JSON, another type, or a value that
    `parse` cannot take raises a LedgerError naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, kind):
            raise TypeError(f"expected a JSON {kind.__name__}, got {type(obj).__name__}")
        return obj if parse is None else parse(obj)
    except FileNotFoundError:
        raise LedgerError(f"file not found: {path}") from None
    except (AttributeError, KeyError, TypeError, ValueError, LedgerError) as exc:
        raise LedgerError(f"malformed {path}: {exc!r}") from None


def _key_pair(obj: dict) -> KeyPair:
    return KeyPair.from_seed_hex(typed(obj["seedHex"], str, "seedHex"))


def load_data_dir(data_dir: Path, lock: DataDirLock | None = None) -> tuple[NodeConfig, list[Block]]:
    """The config and chain of an initialized data dir, loaded the same way
    for `Node` and the CLI's readers. A crash tail is dropped; given the
    writer's `lock` (taken only once the dir is known to be initialized),
    it is also repaired in the file."""
    config_path = data_dir / CONFIG_FILE
    if not config_path.exists():
        raise LedgerError(f"not an initialized data dir: {data_dir}")
    if lock is not None:
        lock.acquire()
    config = read_json_file(config_path, parse=NodeConfig.from_dict)
    chain = read_chain(data_dir / LEDGER_FILE, recover=True, repair=lock is not None)
    if not chain:
        raise LedgerError(f"ledger file has no genesis block: {data_dir}")
    return config, chain


def _refusal_error(result: SubmitResult) -> LedgerError:
    if result.refusals:
        first = result.refusals[0]
        exc_type = getattr(errors, first.code, LedgerError)
        if isinstance(exc_type, type) and issubclass(exc_type, LedgerError) and exc_type is not errors.SchemaViolation:
            return exc_type(first.message)
        return LedgerError(f"{first.code}: {first.message}")
    return errors.PolicyUnsatisfied("endorsement policy not satisfied")


class Node:
    """A data-dir-backed consortium node driving the in-process network."""

    def __init__(self, data_dir: Path, config: NodeConfig, net: SimulatedNetwork, lock: DataDirLock):
        self.data_dir = Path(data_dir)
        self.config = config
        self.net = net
        self._lock = lock

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def init(
        cls,
        data_dir: str | Path,
        *,
        genesis_time: int | None = None,
        peer_count: int = 3,
        policy: EndorsementPolicy | None = None,
        listen_port: int = 8440,
        seed: bytes | None = None,
    ) -> "Node":
        """Create the CA, bootstrap governance, peer identities, and the
        genesis block. Keys come from `seed` when one is given, else are
        random. Every key is written to `keys/` and held in `net.keys`, so
        governance and the peers can sign; `issue` adds the others."""
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        if (data_dir / LEDGER_FILE).exists():
            raise LedgerError(f"data dir already initialized: {data_dir}")
        (data_dir / KEYS_DIR).mkdir(exist_ok=True)
        (data_dir / CERTS_DIR).mkdir(exist_ok=True)
        lock = DataDirLock(data_dir).acquire()
        try:
            genesis_time = int(time.time()) if genesis_time is None else int(genesis_time)
            policy = policy or EndorsementPolicy(rule="ANY_N", n=1)
            config = NodeConfig(
                policy=policy,
                listen_port=listen_port,
                peer_count=peer_count,
            )

            def new_key(label: str) -> KeyPair:
                return KeyPair.generate() if seed is None else derive_keypair(seed, label)

            gov_id = config.governance_id
            ca, keys, gov_cert, genesis = build_consortium(
                new_key, n_peers=peer_count, policy=policy, genesis_time=genesis_time, governance_id=gov_id
            )
            append_block_file(data_dir / LEDGER_FILE, genesis)
            _write_json(data_dir / CONFIG_FILE, config.to_dict())
            _write_json(data_dir / CRL_FILE, RevocationList().to_dict())
            cls._persist_ca(data_dir, config, ca)
            for name, key in keys.items():
                key_file = {"seedHex": key.seed_hex, "publicKey": key.public_hex}
                _write_json(data_dir / KEYS_DIR / f"{name}.json", key_file)
            _write_json(data_dir / CERTS_DIR / f"{gov_id}.json", gov_cert.to_dict())

            net = SimulatedNetwork.from_materials(
                ca=ca,
                keys=keys,
                certs={gov_id: gov_cert},
                chain=[genesis],
                orderer=config.orderer,
                governance_id=gov_id,
            )
        except BaseException:
            lock.release()
            raise
        return cls(data_dir, config, net, lock)

    @classmethod
    def open(cls, data_dir: str | Path) -> "Node":
        """Load config, keys, certificates, and the ledger (recovering a
        truncated tail if a previous append was interrupted). `net.keys`
        holds every key in `keys/` but the CA's."""
        data_dir = Path(data_dir)
        lock = DataDirLock(data_dir)
        try:
            config, chain = load_data_dir(data_dir, lock)
            crl = read_json_file(data_dir / CRL_FILE, parse=RevocationList.from_dict)
            keys = {
                path.stem: read_json_file(path, parse=_key_pair)
                for path in sorted((data_dir / KEYS_DIR).glob("*.json"))
                if path.name != "ca.json"
            }
            certs = {
                path.stem: read_json_file(path, parse=Certificate.from_dict)
                for path in sorted((data_dir / CERTS_DIR).glob("*.json"))
            }
            live = {name: cert for name, cert in certs.items() if cert.serial not in crl.revoked_serials}
            ca_key, next_serial = read_json_file(
                data_dir / config.ca_key_path,
                parse=lambda o: (_key_pair(o), typed(o.get("nextSerial", 1), int, "nextSerial")),
            )
            net = SimulatedNetwork.from_materials(
                ca=CertificateAuthority(ca_key, next_serial=next_serial, live=live, crl=crl),
                keys=keys,
                certs=certs,
                chain=chain,
                orderer=config.orderer,
                governance_id=config.governance_id,
            )
        except BaseException:
            lock.release()
            raise
        return cls(data_dir, config, net, lock)

    @classmethod
    def _persist_ca(cls, data_dir: Path, config: NodeConfig, ca: CertificateAuthority) -> None:
        _write_json(
            data_dir / config.ca_key_path,
            {"seedHex": ca.key.seed_hex, "publicKey": ca.public_key, "nextSerial": ca.next_serial},
        )

    def close(self) -> None:
        self._lock.release()

    def __enter__(self) -> "Node":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- identity management ----------------------------------------------------

    def issue(self, participant: str, role: str, issued_at: int | None = None) -> Certificate:
        key = KeyPair.generate()
        cert = self.net.ca.issue_certificate(
            participant, role, key.public_hex, issued_at=self.net.clock if issued_at is None else issued_at
        )
        self.net.keys[participant] = key
        self.net.certs[participant] = cert
        _write_json(
            self.data_dir / KEYS_DIR / f"{participant}.json",
            {"seedHex": key.seed_hex, "publicKey": key.public_hex},
        )
        _write_json(self.data_dir / CERTS_DIR / f"{participant}.json", cert.to_dict())
        self._persist_ca(self.data_dir, self.config, self.net.ca)
        return cert

    # -- mutations ---------------------------------------------------------------

    def _commit(self, op: str, args: dict, caller: str | None = None) -> dict:
        """`op` signed by `caller`, or by governance when none is given."""
        return self._append(self.net.invoke(op, args, caller or self.config.governance_id))

    def _append(self, result: SubmitResult) -> dict:
        """One CLI mutation == one transaction == one block."""
        if not result.accepted:
            raise _refusal_error(result)
        blocks = self.net.tick(self.net.clock)
        for block in blocks:
            append_block_file(self.data_dir / LEDGER_FILE, block)
        return {
            "txId": result.tx.tx_id,
            "blocks": [b.block_hash for b in blocks],
            "height": self.net.chain[-1].height,
        }

    def onboard(self, cna: str, cert_path: str | Path) -> dict:
        """Onboard `cna` with the certificate in `cert_path`. The certificate
        is kept (in `certs/` and `net.certs`) only once its block commits,
        so a refused onboarding leaves the data dir as it was."""
        cert = read_json_file(cert_path, parse=Certificate.from_dict)
        out = self._append(self.net.onboard(cna, cert, self.config.governance_id))
        _write_json(self.data_dir / CERTS_DIR / f"{cert.subject}.json", cert.to_dict())
        self.net.certs[cert.subject] = cert
        return out

    def revoke(self, cna: str) -> dict:
        before = self.net.crl.version
        out = self._append(self.net.revoke(cna, self.config.governance_id))
        if cna in self.net.certs:
            if self.net.crl.version == before:
                out["notice"] = "AlreadyRevoked"
            _write_json(self.data_dir / CRL_FILE, self.net.crl.to_dict())
        out["crlVersion"] = self.net.crl.version
        return out

    def submit(self, record: dict, embargo: int | None = None, salt: str | None = None) -> dict:
        record = dict(record)
        if embargo is not None:
            record["embargoUntil"] = int(embargo)
        caller = record.get("submitterCNA", "")
        if not isinstance(caller, str) or caller not in self.net.keys:
            raise errors.BadCertificate(f"no local signing key for {caller!r}; run issue first")
        embargoed = record.get("embargoUntil") is not None
        out = self._append(self.net.submit(record, (salt or secrets.token_hex(16)) if embargoed else None))
        out["cveID"] = record.get("cveID")
        stored = self.state.cve_registry.get(parse_cve_id(record["cveID"]))
        if stored is not None:
            out["status"] = stored.status.value
        return out

    def update_status(self, cve_id: str, new_status: str, caller: str | None = None) -> dict:
        return self._commit(OP_UPDATE_STATUS, {"cveID": cve_id, "newStatus": new_status}, caller)

    def reject(self, cve_id: str, reason: str, caller: str | None = None) -> dict:
        return self._commit(OP_REJECT, {"cveID": cve_id, "reason": reason}, caller)

    def dispute(self, cve_id: str, note: str, external_ref: str | None = None, caller: str | None = None) -> dict:
        args = {"cveID": cve_id, "note": note}
        if external_ref:
            args["externalRef"] = external_ref
        return self._commit(OP_DISPUTE, args, caller)

    def merge(self, candidates: list[dict], caller: str | None = None) -> dict:
        return self._commit(OP_MERGE, {"candidates": candidates}, caller)

    def split(self, cve_id: str, candidates: list[dict], caller: str | None = None) -> dict:
        return self._commit(OP_SPLIT, {"cveID": cve_id, "candidates": candidates}, caller)

    def partial_duplicate(self, keep: str, revise: str, caller: str | None = None) -> dict:
        return self._commit(OP_PARTIAL_DUP, {"keepID": keep, "reviseID": revise}, caller)

    def tick(self, now: int | None = None) -> dict:
        """Advance the chain clock and run the embargo sweep."""
        if now is not None:
            self.net.advance_clock(int(now))
        else:
            self.net.advance_clock(self.net.clock + self.config.orderer.tick_seconds)
        out = self._commit(OP_CHECK_EMBARGO, {})
        out["clockNow"] = self.net.clock
        released = [
            e.payload["cveID"]
            for e in self.net.peers[0].state.event_log
            if e.kind == "EmbargoReleased" and e.block_height == self.net.chain[-1].height
        ]
        out["released"] = released
        return out

    # -- reads --------------------------------------------------------------------

    @property
    def state(self):
        return self.net.peers[0].state

    def replay_hash(self) -> str:
        from .ledger import replay

        return state_hash(replay(load_data_dir(self.data_dir)[1]))

    def memory_state_hash(self) -> str:
        return state_hash(self.state)
