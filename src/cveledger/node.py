"""Operator node: durable storage wiring around the simulated network.

One writer process per data dir (advisory lock). The ledger file is the
only source of truth: opening a node loads it once (from the state
checkpoint on, when a valid one covers a prefix) and copies the state to
each peer, every mutation runs the full endorse -> order -> commit
pipeline, and each committed block is in the file before the call returns,
followed by a new checkpoint.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import errors
from .canonical import to_canonical_json, typed
from .chaincode import OP_CHECK_EMBARGO, OP_UPDATE_STATUS, WorldState
from .corrections import OP_DISPUTE, OP_MERGE, OP_PARTIAL_DUP, OP_REJECT, OP_SPLIT
from .errors import LedgerError
from .identity import ROLE_CNA, Certificate, CertificateAuthority, KeyPair, RevocationList, derive_keypair
from .ledger import Block, EndorsementPolicy, state_hash
from .network import DEFAULT_GOVERNANCE, OrdererConfig, SimulatedNetwork, SubmitResult, build_consortium
from .records import parse_cve_id
# audit_file and read_chain are looked up here by the benchmark's span tracer
from .storage import (  # noqa: F401
    DataDirLock,
    LedgerDigest,
    append_block_file,
    audit_file,
    load_ledger,
    read_chain,
    write_checkpoint,
)

LEDGER_FILE = "ledger.jsonl"
CONFIG_FILE = "config.json"
CRL_FILE = "crl.json"
KEYS_DIR = "keys"
CERTS_DIR = "certs"


@dataclass(frozen=True)
class NodeConfig:
    """The `config.json` settings, each read by the node. The endorsement
    policy and the peer set live in the genesis block; older keys are ignored."""

    orderer: OrdererConfig = field(default_factory=OrdererConfig)
    ca_key_path: str = f"{KEYS_DIR}/ca.json"
    listen_port: int = 8440
    governance_id: str = DEFAULT_GOVERNANCE

    def to_dict(self) -> dict:
        return {
            "ordererConfig": self.orderer.to_dict(),
            "caKeyPath": self.ca_key_path,
            "listenPort": self.listen_port,
            "governanceId": self.governance_id,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NodeConfig":
        return cls(
            orderer=OrdererConfig.from_dict(typed(obj.get("ordererConfig", {}), dict, "ordererConfig")),
            ca_key_path=typed(obj.get("caKeyPath", f"{KEYS_DIR}/ca.json"), str, "caKeyPath"),
            listen_port=typed(obj.get("listenPort", 8440), int, "listenPort"),
            governance_id=typed(obj.get("governanceId", DEFAULT_GOVERNANCE), str, "governanceId"),
        )


def _write_json(path: Path, obj: dict) -> None:
    """Replace `path` with `obj` so a crash leaves the old file or the new
    one: write a temp file in the same dir, fsync it, rename it over `path`.
    The temp file is created mode 0600 whatever the umask, since some of
    these files are signing keys."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "w", encoding="utf-8") as fh:
            fh.write(to_canonical_json(obj) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _key_file(key: KeyPair) -> dict:
    return {"seedHex": key.seed_hex, "publicKey": key.public_hex}


def read_json_file(path: str | Path, kind: type = dict, parse=None):
    """The JSON value of type `kind` in `path`, passed through `parse` when
    one is given. A missing file, bad JSON (nesting too deep included),
    another type, or a value that `parse` cannot take raises a LedgerError
    naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, kind):
            raise TypeError(f"expected a JSON {kind.__name__}, got {type(obj).__name__}")
        return obj if parse is None else parse(obj)
    except FileNotFoundError:
        raise LedgerError(f"file not found: {path}") from None
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError, LedgerError) as exc:
        raise LedgerError(f"malformed {path}: {exc!r}") from None


def _key_pair(obj: dict) -> KeyPair:
    return KeyPair.from_seed_hex(typed(obj["seedHex"], str, "seedHex"))


def initialized(data_dir: Path, name: str) -> Path:
    """The file `name` of `data_dir`, which `init` writes; LedgerError if it is missing."""
    if not (data_dir / name).exists():
        raise LedgerError(f"not an initialized data dir: {data_dir}")
    return data_dir / name


def load_data_dir(
    data_dir: Path, lock: DataDirLock | None = None, *, checkpoint: bool = True
) -> tuple[NodeConfig, Sequence[Block], WorldState, LedgerDigest]:
    """The config of an initialized data dir, and its ledger as
    `storage.load_ledger` loads it (with the state checkpoint when
    `checkpoint`), the same way for `Node` and the CLI's readers. A crash
    tail is dropped; given the writer's `lock` (taken only once the dir is
    known to be initialized), it is also repaired in the file."""
    config_path, ledger_path = initialized(data_dir, CONFIG_FILE), initialized(data_dir, LEDGER_FILE)
    if lock is not None:
        lock.acquire()
    config = read_json_file(config_path, parse=NodeConfig.from_dict)
    chain, state, digest = load_ledger(ledger_path, repair=lock is not None, checkpoint=checkpoint)
    if not chain:
        raise LedgerError(f"ledger file has no genesis block: {data_dir}")
    return config, chain, state, digest


def _refusal_error(result: SubmitResult) -> LedgerError:
    """The first peer's refusal; PolicyUnsatisfied when no peer refused."""
    if result.refusals:
        return result.refusals[0].error
    return errors.PolicyUnsatisfied("endorsement policy not satisfied")


class Node:
    """A data-dir-backed consortium node driving the in-process network."""

    def __init__(
        self, data_dir: Path, config: NodeConfig, net: SimulatedNetwork, lock: DataDirLock, digest: LedgerDigest
    ):
        self.data_dir = Path(data_dir)
        self.config = config
        self.net = net
        self._lock = lock
        self._digest = digest  # of the ledger file's bytes, for the next checkpoint

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
        genesis block, then open the data dir like any other. `policy` and
        `peer_count` go into the genesis block only, which is where `open`
        finds them. Keys come from `seed` when one is given, else are
        random. Every key is written to `keys/` once, and `open` puts all
        but the CA's in `net.keys`, so governance and the peers can sign;
        `issue` adds the others. The dir is written under the writer lock;
        a writer that takes the lock before `open` makes init fail."""
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        if (data_dir / LEDGER_FILE).exists():
            raise LedgerError(f"data dir already initialized: {data_dir}")
        (data_dir / KEYS_DIR).mkdir(exist_ok=True)
        (data_dir / CERTS_DIR).mkdir(exist_ok=True)
        with DataDirLock(data_dir):
            genesis_time = int(time.time()) if genesis_time is None else int(genesis_time)
            policy = policy or EndorsementPolicy(rule="ANY_N", n=1)
            config = NodeConfig(listen_port=listen_port)

            def new_key(label: str) -> KeyPair:
                return KeyPair.generate() if seed is None else derive_keypair(seed, label)

            gov_id = config.governance_id
            ca, keys, gov_cert, genesis = build_consortium(
                new_key, n_peers=peer_count, policy=policy, genesis_time=genesis_time, governance_id=gov_id
            )
            append_block_file(data_dir / LEDGER_FILE, genesis)
            _write_json(data_dir / CONFIG_FILE, config.to_dict())
            _write_json(data_dir / CRL_FILE, RevocationList().to_dict())
            _write_json(data_dir / config.ca_key_path, _key_file(ca.key))
            for name, key in keys.items():
                _write_json(data_dir / KEYS_DIR / f"{name}.json", _key_file(key))
            _write_json(data_dir / CERTS_DIR / f"{gov_id}.json", gov_cert.to_dict())
        return cls.open(data_dir)

    @classmethod
    def open(cls, data_dir: str | Path) -> "Node":
        """Load config, keys, certificates, and the ledger (recovering a
        truncated tail if a previous append was interrupted). The ledger is
        loaded by `storage.load_ledger`: from the state checkpoint that the
        last write left, when it still matches the file, so only the blocks
        appended after it are decoded, checked and replayed; from genesis
        otherwise. Either way every decoded line passes
        `ledger.checked_block`, and a bad one refuses the open with
        LedgerCorrupt at its height. `net.keys` holds every key in `keys/`
        but the CA's. Nothing else is stored twice: the CA's next serial is
        one above the highest in `certs/` and the CRL (`issue` writes each
        certificate before it returns), and the CRL is joined with the
        chain's revocations, revoking the certificate of each CNA the
        loaded state holds but no longer authorizes."""
        data_dir = Path(data_dir)
        lock = DataDirLock(data_dir)
        try:
            config, chain, loaded, digest = load_data_dir(data_dir, lock)
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
            ca_key = read_json_file(data_dir / config.ca_key_path, parse=_key_pair)
            next_serial = 1 + max({cert.serial for cert in certs.values()} | crl.revoked_serials, default=0)
            ca = CertificateAuthority(ca_key, next_serial=next_serial, live=certs, crl=crl)
            net = SimulatedNetwork.from_materials(
                ca=ca,
                keys=keys,
                certs=certs,
                chain=chain,
                orderer=config.orderer,
                governance_id=config.governance_id,
                state=loaded,
            )
            state = net.peers[0].state
            for cert in state.certificates.values():
                if cert.role == ROLE_CNA and cert.subject not in state.authorized_cnas:
                    ca.revoke(cert.serial)
        except BaseException:
            lock.release()
            raise
        return cls(data_dir, config, net, lock, digest)

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
        _write_json(self.data_dir / KEYS_DIR / f"{participant}.json", _key_file(key))
        _write_json(self.data_dir / CERTS_DIR / f"{participant}.json", cert.to_dict())
        return cert

    # -- mutations ---------------------------------------------------------------

    def _commit(self, op: str, args: dict, caller: str | None = None) -> dict:
        """`op` signed by `caller`, or by governance when none is given."""
        return self._append(self.net.invoke(op, args, caller or self.config.governance_id))

    def _append(self, result: SubmitResult) -> dict:
        """One CLI mutation == one transaction == one block. Once the block
        is in the file, the state after it is left as the checkpoint the
        next open starts from."""
        if not result.accepted:
            raise _refusal_error(result)
        blocks = self.net.tick(self.net.clock)
        path = self.data_dir / LEDGER_FILE
        for block in blocks:
            self._digest.update(append_block_file(path, block))
        write_checkpoint(path, self._digest, blocks[-1], self.state)
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
        """Advance the chain clock and run the embargo sweep. The ids it
        released are read off the events the sweep's block appended to the
        log, so no event before them is read."""
        if now is not None:
            self.net.advance_clock(int(now))
        else:
            self.net.advance_clock(self.net.clock + self.config.orderer.tick_seconds)
        log = self.state.event_log
        before = len(log)
        out = self._commit(OP_CHECK_EMBARGO, {})
        out["clockNow"] = self.net.clock
        tip = self.net.chain[-1].height
        out["released"] = [
            e.payload["cveID"] for e in log[before:] if e.kind == "EmbargoReleased" and e.block_height == tip
        ]
        return out

    # -- reads --------------------------------------------------------------------

    @property
    def state(self):
        return self.net.peers[0].state

    def replay_hash(self) -> str:
        """The state hash that `cveledger replay` prints: that of the ledger
        file loaded from genesis, every line checked, the oracle that the
        state loaded from a checkpoint is checked against."""
        return state_hash(load_ledger(self.data_dir / LEDGER_FILE, checkpoint=False)[1])

    def memory_state_hash(self) -> str:
        return state_hash(self.state)
