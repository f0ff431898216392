"""A decoded JSON field is well-typed or refused, never coerced.

Every decoder reads its int, str, list and dict fields through
`canonical.typed`. Each boundary answers a field of the wrong type with its
own refusal: `BAD_ARGS` for transaction args (the state hash unchanged
after the dry run and the apply), `LedgerCorrupt` at the block's height for
a ledger line (and `HASH_MISMATCH` there from the auditor), and a
`LedgerError` naming the file for a data-dir file. A value of the right
type is decoded exactly as written.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.canonical import typed
from cveledger.chaincode import ChainClock, execute_transaction, submit_cve
from cveledger.cli import main
from cveledger.errors import LedgerCorrupt, LedgerError, SchemaViolation
from cveledger.identity import CertificateAuthority, derive_keypair
from cveledger.ledger import state_hash
from cveledger.node import CONFIG_FILE, CRL_FILE, LEDGER_FILE, Node
from cveledger.records import Annotation, parse_cve_id, record_to_dict
from cveledger.storage import ChainAuditor, DataDirLock, read_chain

from conftest import CNA, GOV, TEST_SEED, make_record, make_state

NOW = 1_700_000_000
CA_FILE = "keys/ca.json"

# what a field of the wrong type looks like after json.loads (1e400 is inf)
REPLACEMENTS = [True, 1.0, float("inf"), "5", [5], "123"]
NULLABLE_STR, NULLABLE_INT = (str, type(None)), (int, type(None))


def _same(a, b) -> bool:
    """Equal value and equal JSON type: 1, 1.0 and true all differ."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _fits(value, kind) -> bool:
    try:
        typed(value, kind, "field")
        return True
    except ValueError:
        return False


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _put(obj, path, value):
    _get(obj, path[:-1])[path[-1]] = value


class TestTyped:
    @pytest.mark.parametrize(
        "value, kind", [(5, int), ("5", str), ([5], list), ({}, dict), (None, NULLABLE_INT)]
    )
    def test_returns_a_value_of_the_kind(self, value, kind):
        assert typed(value, kind, "field") is value

    @pytest.mark.parametrize(
        "value, kind",
        [(True, int), (False, NULLABLE_INT), (1.0, int), ("5", int), ([5], int), (5, str), ((5,), list)],
    )
    def test_refuses_anything_else_with_a_value_error_naming_the_field(self, value, kind):
        with pytest.raises(ValueError, match="clockNow"):
            typed(value, kind, "clockNow")


# -- transaction args -----------------------------------------------------------

CID, OTHER, NEW = "CVE-2025-0001", "CVE-2025-0002", "CVE-2025-0003"


def _submit_args() -> dict:
    record = make_record(
        NEW,
        embargo_until=NOW + 60,
        references=(CID,),
        annotations=(Annotation("DISPUTE_NOTE", "note", ref="https://example.org/1"),),
    )
    return {"record": record_to_dict(record), "salt": "aa"}


def _dispute_args() -> dict:
    return {"cveID": CID, "note": "contested", "externalRef": "https://example.org/2"}


def _merge_args() -> dict:
    def candidate(cid, count):
        return {"cveID": cid, "referenceCount": count, "authority": "VENDOR", "publicizedAt": 5}

    return {"candidates": [candidate(CID, 2), candidate(OTHER, 1)]}


def _split_args() -> dict:
    def candidate(descriptor, order):
        return {
            "descriptor": descriptor,
            "associationFrequency": 3 - order,
            "severity": {"label": "HIGH", "cvssScore": 7.5},
            "versionBreadth": 1,
            "mentionOrder": order,
        }

    return {"cveID": CID, "candidates": [candidate("first part", 1), candidate("second part", 2)]}


def _stored(cid, *path):
    return lambda state: _get(record_to_dict(state.cve_registry[parse_cve_id(cid)], internal=True), path)


def _record_field(kind, *path, kept=True):
    """A SubmitCVE record field; once committed it is read back from the stored record
    (not `createdAt`/`updatedAt`, which the block clock sets)."""
    return ("SubmitCVE", CNA, _submit_args, ("record", *path), kind, _stored(NEW, *path) if kept else None)


# (op, caller, args builder, path into args, kind, reader of the decoded value once committed or None)
OP_CASES = [
    _record_field(int, "version", 0, "lo", 1),
    _record_field(int, "version", 0, "hi", 0),
    _record_field(list, "version", 0, "lo"),
    _record_field(list, "version"),
    _record_field(NULLABLE_INT, "embargoUntil"),
    _record_field(int, "createdAt", kept=False),
    _record_field(int, "updatedAt", kept=False),
    _record_field((int, float, type(None)), "severity", "cvssScore"),
    _record_field(list, "annotations"),
    _record_field(str, "annotations", 0, "text"),
    _record_field(NULLABLE_STR, "annotations", 0, "ref"),
    _record_field(list, "references"),
    ("SubmitCVE", CNA, _submit_args, ("salt",), NULLABLE_STR, _stored(NEW, "embargoSalt")),
    ("RevokeCNA", GOV, lambda: {"cnaID": CNA}, ("cnaID",), str, None),
    (
        "DisputeCVE", CNA, _dispute_args, ("externalRef",), NULLABLE_STR,
        _stored(CID, "annotations", -1, "ref"),
    ),
    ("MergeCVEs", CNA, _merge_args, ("candidates",), list, None),
    ("MergeCVEs", CNA, _merge_args, ("candidates", 0, "referenceCount"), int, None),
    ("MergeCVEs", CNA, _merge_args, ("candidates", 1, "publicizedAt"), int, None),
    ("SplitCVE", CNA, _split_args, ("candidates",), list, None),
    ("SplitCVE", CNA, _split_args, ("candidates", 0, "descriptor"), str, _stored(CID, "description")),
    ("SplitCVE", CNA, _split_args, ("candidates", 0, "associationFrequency"), int, None),
    ("SplitCVE", CNA, _split_args, ("candidates", 1, "versionBreadth"), int, None),
    ("SplitCVE", CNA, _split_args, ("candidates", 0, "mentionOrder"), int, None),
]


@pytest.fixture(scope="module")
def op_state():
    state = make_state(CertificateAuthority(derive_keypair(TEST_SEED, "ca")))
    state.begin_block(1, NOW)
    for cid in (CID, OTHER):
        submit_cve(state, make_record(cid), CNA, ChainClock(NOW))
    return state


def _check_op_case(base_state, case, value) -> None:
    op, caller, build, path, kind, read = case
    args = build()
    _put(args, path, value)
    payload = {"op": op, "args": args, "caller": caller, "clockNow": NOW}
    state = base_state.copy()
    before = state_hash(state)
    codes = []
    for check_only in (True, False):
        try:
            execute_transaction(state, payload, ChainClock(NOW), check_only=check_only)
        except LedgerError as exc:
            codes.append({v.code for v in exc.violations} if isinstance(exc, SchemaViolation) else exc.code)
            assert state_hash(state) == before, (op, path, value)
    if not _fits(value, kind):
        assert codes == [{"BAD_ARGS"}, {"BAD_ARGS"}], (op, path, value, codes)
    elif codes:
        assert codes[0] == codes[-1] and len(codes) == 2, (op, path, value, codes)
    elif read is not None:
        assert _same(read(state), value), (op, path, value, read(state))


# -- ledger lines and genesis trust anchors ------------------------------------------

# (height, path into the block line, kind)
LINE_CASES = [
    (1, ("height",), int),
    (1, ("blockTime",), int),
    (1, ("txs",), list),
    (1, ("txs", 0), dict),
    (1, ("txs", 0, "payload"), dict),
    (1, ("txs", 0, "payload", "clockNow"), int),
    (1, ("txs", 0, "payload", "caller"), str),
    (1, ("txs", 0, "payload", "op"), str),
    (1, ("txs", 0, "payload", "args"), dict),
    (1, ("txs", 0, "callerSignature"), str),
    (1, ("txs", 0, "endorsements"), list),
    (1, ("txs", 0, "endorsements", 0), list),
    (1, ("txs", 0, "endorsements", 0, 0), str),
    (0, ("txs", 0, "payload", "clockNow"), int),
]

ARGS = ("txs", 0, "payload", "args")
# (path into the genesis block line, kind, reader of the decoded anchor)
ANCHOR_CASES = [
    (ARGS + ("peers",), dict, None),
    (ARGS + ("peers", "peer0.org0", "org"), str, lambda node: node.net.trust.peer_orgs["peer0.org0"]),
    (ARGS + ("peers", "peer1.org1", "publicKey"), str, lambda node: node.net.trust.peer_keys["peer1.org1"]),
    (ARGS + ("policy",), dict, None),
    (ARGS + ("policy", "n"), int, lambda node: node.net.trust.policy.n),
    (ARGS + ("policy", "orgs"), list, None),
    (ARGS + ("governance",), dict, None),
]


def _line(block: dict) -> bytes:
    return json.dumps(block, sort_keys=True, separators=(",", ":")).encode()  # writes inf as Infinity


def _check_line_case(data_dir, case, value, scratch) -> None:
    height, path, kind = case
    lines = (data_dir / LEDGER_FILE).read_bytes().split(b"\n")
    block = json.loads(lines[height])
    _put(block, path, value)
    lines[height] = _line(block)
    data = b"\n".join(lines)
    ledger = scratch / LEDGER_FILE
    ledger.write_bytes(data)
    report = ChainAuditor().audit_bytes(data)
    try:
        chain = read_chain(ledger)
    except LedgerCorrupt as exc:
        assert exc.height == height, (path, value, exc)
        assert (report.first_bad_height, report.reason) == (height, "HASH_MISMATCH"), (path, value, report)
        return
    assert _fits(value, kind), (path, value)
    assert _same(_get(chain[height].to_dict(), path), value), (path, value)


def _fresh_copy(data_dir, scratch) -> Path:
    copy = scratch / "node"
    shutil.copytree(data_dir, copy)
    return copy


def _check_anchor_case(data_dir, case, value, scratch) -> None:
    path, kind, read = case
    copy = _fresh_copy(data_dir, scratch)
    lines = (copy / LEDGER_FILE).read_bytes().split(b"\n")
    genesis = json.loads(lines[0])
    _put(genesis, path, value)
    lines[0] = _line(genesis)
    (copy / LEDGER_FILE).write_bytes(b"\n".join(lines))
    try:
        node = Node.open(copy)
    except LedgerCorrupt as exc:
        assert exc.height == 0, (path, value, exc)
        DataDirLock(copy).acquire().release()
        return
    with node:
        assert _fits(value, kind), (path, value)
        if read is not None:
            assert _same(read(node), value), (path, value)


# -- data-dir files --------------------------------------------------------------------

# (file, path into its JSON object, kind, reader of the decoded value)
FILE_CASES = [
    (CONFIG_FILE, ("ordererConfig",), dict, None),
    (CONFIG_FILE, ("ordererConfig", "maxBlockTxs"), int, lambda node: node.config.orderer.max_block_txs),
    (CONFIG_FILE, ("ordererConfig", "tickSeconds"), int, lambda node: node.config.orderer.tick_seconds),
    (CONFIG_FILE, ("listenPort",), int, lambda node: node.config.listen_port),
    (CONFIG_FILE, ("caKeyPath",), str, None),
    (CONFIG_FILE, ("governanceId",), str, lambda node: node.config.governance_id),
    (CRL_FILE, ("version",), int, lambda node: node.net.crl.version),
    (CRL_FILE, ("revokedSerials",), list, lambda node: node.net.crl.to_dict()["revokedSerials"]),
    (CRL_FILE, ("revokedSerials", 0), int, lambda node: node.net.crl.to_dict()["revokedSerials"][0]),
]


def _check_file_case(data_dir, case, value, scratch) -> None:
    name, path, kind, read = case
    copy = _fresh_copy(data_dir, scratch)
    obj = json.loads((copy / name).read_text())
    if name == CRL_FILE:
        obj["revokedSerials"] = [99]  # a serial for the ("revokedSerials", 0) case to replace
    _put(obj, path, value)
    (copy / name).write_text(json.dumps(obj))
    try:
        node = Node.open(copy)
    except LedgerError as exc:
        assert _fits(value, kind) or Path(name).name in str(exc), (name, path, value, exc)
        DataDirLock(copy).acquire().release()
        return
    with node:
        assert _fits(value, kind), (name, path, value)
        if read is not None:
            assert _same(read(node), value), (name, path, value)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """An initialized data dir with `cna.redhat` issued and onboarded (block 1)."""
    base = tmp_path_factory.mktemp("strict")
    d = base / "node"
    with Node.init(d, genesis_time=1000, seed=b"strict-decode") as node:
        cert = node.issue("cna.redhat", "CNA")
        cert_file = base / "redhat.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.redhat", cert_file)
    return d


CASES = (
    [("op", c) for c in OP_CASES]
    + [("line", c) for c in LINE_CASES]
    + [("anchor", c) for c in ANCHOR_CASES]
    + [("file", c) for c in FILE_CASES]
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(REPLACEMENTS))
def test_a_field_of_the_wrong_type_is_refused_and_one_of_the_right_type_kept_exactly(
    op_state, data_dir, case, value
):
    boundary, spec = case
    if boundary == "op":
        _check_op_case(op_state, spec, value)
        return
    with tempfile.TemporaryDirectory() as scratch:
        check = {"line": _check_line_case, "anchor": _check_anchor_case, "file": _check_file_case}[boundary]
        check(data_dir, spec, value, Path(scratch))


# -- regressions: values the decoders used to coerce -----------------------------------


@pytest.fixture
def node_dir(data_dir, tmp_path):
    return _fresh_copy(data_dir, tmp_path)


def _run(capsys, data_dir, *argv) -> tuple[int, str, list[str]]:
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), *argv])
    out, err = capsys.readouterr()
    return code, out, err.strip().splitlines()


@pytest.mark.parametrize(
    "version",
    [{"lo": "123", "hi": "456"}, {"lo": [1.9, True, "3"], "hi": [2, 0, 0]}],
    ids=["digit-strings", "float-bool-string-parts"],
)
def test_submit_refuses_a_version_range_that_is_not_lists_of_ints(op_state, node_dir, capsys, version):
    # these once committed as 1.2.3-4.5.6 and [1, 1, 3]
    args = {"record": {**record_to_dict(make_record(NEW)), "version": [version]}}
    payload = {"op": "SubmitCVE", "args": args, "caller": CNA, "clockNow": NOW}
    state = op_state.copy()
    before = state_hash(state)
    for check_only in (True, False):
        with pytest.raises(SchemaViolation) as info:
            execute_transaction(state, payload, ChainClock(NOW), check_only=check_only)
        assert {v.code for v in info.value.violations} == {"BAD_ARGS"}
        assert state_hash(state) == before

    record_file = node_dir.parent / "record.json"
    record_file.write_text(json.dumps(args["record"]))
    ledger = (node_dir / LEDGER_FILE).read_bytes()
    code, _, err = _run(capsys, node_dir, "submit", str(record_file))
    assert code == 1 and len(err) == 1 and "BAD_ARGS" in json.loads(err[0])["message"], err
    assert (node_dir / LEDGER_FILE).read_bytes() == ledger


def _write_with(path: Path, field_path, literal: str) -> None:
    """Set the field to a JSON literal written as is (so 1e400 stays 1e400)."""
    obj = json.loads(path.read_text())
    _put(obj, field_path, "@@literal@@")
    path.write_text(json.dumps(obj).replace('"@@literal@@"', literal))


@pytest.mark.parametrize(
    "name, field_path, literal",
    [
        (CONFIG_FILE, ("ordererConfig", "tickSeconds"), "1e400"),
        (CONFIG_FILE, ("ordererConfig", "maxBlockTxs"), '"100"'),
        (CONFIG_FILE, ("listenPort",), "true"),
        (CRL_FILE, ("version",), "1e400"),
        (CA_FILE, ("seedHex",), "1e400"),
    ],
)
def test_tick_refuses_a_data_dir_file_with_a_mistyped_number(node_dir, capsys, name, field_path, literal):
    _write_with(node_dir / name, field_path, literal)
    ledger = (node_dir / LEDGER_FILE).read_bytes()
    code, _, err = _run(capsys, node_dir, "tick")
    assert code == 1 and len(err) == 1, err
    line = json.loads(err[0])
    assert line["error"] == "LedgerError" and Path(name).name in line["message"], line
    assert (node_dir / LEDGER_FILE).read_bytes() == ledger
    DataDirLock(node_dir).acquire().release()


@pytest.mark.parametrize(
    "field_path, value",
    [
        (("txs", 0, "payload", "clockNow"), "5"),
        (("txs", 0, "payload", "clockNow"), True),
        (("txs", 0, "payload", "clockNow"), 1.5),
        (("height",), 1.0),
        (("blockTime",), "1000"),
    ],
)
def test_every_reader_refuses_a_mistyped_ledger_line_at_its_height(node_dir, capsys, field_path, value):
    # a TypeError here would escape the readers, which catch ValueError
    ledger = node_dir / LEDGER_FILE
    lines = ledger.read_bytes().split(b"\n")
    block = json.loads(lines[1])
    _put(block, field_path, value)
    lines[1] = _line(block)
    ledger.write_bytes(b"\n".join(lines))
    for argv in (["replay"], ["tick"]):
        code, _, err = _run(capsys, node_dir, *argv)
        assert code == 1 and len(err) == 1, (argv, err)
        line = json.loads(err[0])
        assert line["error"] == "LedgerCorrupt" and "height 1" in line["message"], (argv, line)
    code, out, _ = _run(capsys, node_dir, "audit")
    assert code == 1
    assert json.loads(out) == {"valid": False, "firstBadHeight": 1, "reason": "HASH_MISMATCH"}
