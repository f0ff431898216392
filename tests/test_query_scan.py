"""A filtered query on a checkpoint-loaded state scans the entry lines.

`SnapshotRegistry.scan` picks the candidates of a `query_public` filter by
byte scans of the held entry lines: for each filtered field, a line is
taken if it holds the needle (the filtered value as a writer spells it),
lacks the field's literal key, or holds an escape in that field's value.
The property here keeps the raw-field reader the scan replaced as an
oracle: every line it filed under `(field, value)`, or left to a decode,
must be a scan candidate for that value, and for all its values at once.
An escape elsewhere on the line, say a quote in the description, makes no
candidate. The counting test needs each filter of a one-shot `cveledger
query` to decode only the drafts and the lines the scan passes, whatever
the size of the registry, with a quote and a newline in every description.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger
from cveledger.chaincode import OP_SUBMIT, OP_UPDATE_STATUS, index_keys
from cveledger.canonical import to_canonical_bytes
from cveledger.ledger import (
    SnapshotRegistry,
    _CheckpointLines,
    _registry_entry_bytes,
    query_public,
    record_view_bytes,
    replay,
)
from cveledger.node import LEDGER_FILE, Node
from cveledger.records import CveId, CveStatus, parse_cve_id, record_from_dict
from cveledger.storage import write_chain_file

from test_lazy_state import _count_decodes, _loaded, _op
from test_open_once import GOV, _record, perform, seeded_network
from test_state_checkpoint import run

# -- the raw-field reader the scan replaced, kept as the oracle -------------------------------

_STATUSES = {status.value: status for status in CveStatus}


def _line_string(line: bytes, key: bytes) -> str | None:
    start = line.find(key)
    if start < 0:
        return None
    start += len(key)
    end = line.find(b'"', start)
    value = line[start:end]
    if end < 0 or b"\\" in value:
        return None
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _line_index_keys(cid: CveId, line: bytes) -> tuple | None:
    status = _STATUSES.get(_line_string(line, b'"status":"'))
    submitter = _line_string(line, b'"submitterCNA":"')
    product = _line_string(line, b'"product":"')
    if status is None or submitter is None or product is None:
        return None
    return (("status", status), ("submitter", submitter), ("product", product), ("year", cid.year))


def oracle_keys(cid: CveId, line: bytes) -> tuple:
    """The keys the old index filed `line` under: read off the line, or
    else those of the record it decodes to (none if it does not decode)."""
    keys = _line_index_keys(cid, line)
    if keys is not None:
        return keys
    try:
        return index_keys(record_from_dict(json.loads(b"{%s}" % line)[str(cid)]))
    except (KeyError, TypeError, ValueError, AttributeError, ledger.LedgerError):
        return ()


# -- entry lines: writer-made, and forged ------------------------------------------------------

_names = st.text(max_size=8) | st.sampled_from(["widget", 'wid"get', "back\\slash", "tab\tbed", "ünïcode"])

writer_lines = st.builds(
    lambda year, seq, product, submitter, status, description: _registry_entry_bytes(
        record_from_dict(
            {
                **_record(seq, submitter, None, 0),
                "cveID": f"CVE-{year}-{seq:04d}",
                "description": description,
                "product": product,
                "status": status.value,
            }
        )
    ),
    st.sampled_from([2024, 2025]),
    st.integers(1, 30),
    _names,
    _names,
    st.sampled_from(CveStatus),
    st.text(max_size=10) | st.just('a "quoted"\nflaw'),
)


def _escaped(text: str) -> str:
    """`text` as a JSON string with every character spelled as an escape."""
    return '"%s"' % "".join(f"\\u{ord(c):04x}" if ord(c) < 0x10000 else json.dumps(c)[1:-1] for c in text)


def _respell(line: bytes, key: str, spell) -> bytes:
    """`line` with the value of its record's `key` spelled `spell(value)`."""
    value = json.loads(b"{%s}" % line).popitem()[1][key]
    canonical = b'"%s":%s' % (key.encode(), json.dumps(value, ensure_ascii=False).encode())
    assert canonical in line
    return line.replace(canonical, b'"%s":%s' % (key.encode(), spell(value).encode()), 1)


def _edit(line: bytes, change) -> bytes:
    key, body = line.split(b":", 1)
    obj = json.loads(body)
    change(obj)
    return key + b":" + json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


FORGERIES = {
    "lone surrogate": lambda line, key: line.replace(b'"description":"', b'"description":"\\ud800', 1),
    "escaped value": lambda line, key: _respell(line, key, _escaped),
    "space after a colon": lambda line, key: line.replace(b'"%s":' % key.encode(), b'"%s": ' % key.encode(), 1),
    "missing key": lambda line, key: _edit(line, lambda obj: obj.pop(key)),
    "unknown nested key": lambda line, key: _edit(line, lambda obj: obj["severity"].update(zzz={key: "other"})),
}

forged_lines = st.builds(
    lambda line, forgery, key: FORGERIES[forgery](line, key),
    writer_lines,
    st.sampled_from(sorted(FORGERIES)),
    st.sampled_from(["product", "status", "submitterCNA"]),
)


def scans(line: bytes, *keys) -> bool:
    """Whether `scan(keys)` takes `line` as a candidate."""
    text = line[1 : line.index(b'"', 1)].decode()
    registry = SnapshotRegistry(_CheckpointLines("ledger.jsonl.state", {text: line}, []))
    return registry.scan(keys) == [parse_cve_id(text)]


@settings(max_examples=300, deadline=None)
@given(writer_lines | forged_lines)
def test_every_line_the_old_index_filed_under_a_value_is_a_scan_candidate_for_it(line):
    cid = parse_cve_id(line[1 : line.index(b'"', 1)].decode())
    keys = oracle_keys(cid, line)
    for key in keys:
        assert scans(line, key), (key, line)
    assert scans(line, *keys), (keys, line)


@settings(max_examples=100, deadline=None)
@given(writer_lines, st.sampled_from(["product", "submitter"]), _names)
def test_a_writer_made_line_is_taken_for_its_own_value_and_an_escape_in_it_only(line, field, value):
    record = record_from_dict(json.loads(b"{%s}" % line).popitem()[1])
    own = record.product if field == "product" else record.submitter
    assert scans(line, (field, own))
    if value != own and b"\\" not in to_canonical_bytes(own):
        assert not scans(line, (field, value))


def test_a_writer_made_line_is_taken_for_its_own_status_and_year_only():
    line = _registry_entry_bytes(record_from_dict({**_record(7, "cna.alpha", None, 0), "status": "ARCHIVED"}))
    assert [status for status in CveStatus if scans(line, ("status", status))] == [CveStatus.ARCHIVED]
    assert [year for year in (2024, 2025, 202, 20251) if scans(line, ("year", year))] == [2025]
    own = [("status", CveStatus.ARCHIVED), ("year", 2025), ("product", "widget-1"), ("submitter", "cna.alpha")]
    assert scans(line, *own)
    for at, (field, _) in enumerate(own):
        other = {"status": CveStatus.PUBLISHED, "year": 2024, "product": "widget-0", "submitter": "cna.beta"}
        assert not scans(line, *own[:at], (field, other[field]), *own[at + 1 :]), field


def test_records_stored_since_the_load_are_candidates_of_every_filter():
    net = seeded_network()
    for seq in (1, 2, 3):
        assert net.submit(_record(seq, "cna.alpha", None, net.clock), None).accepted
    perform(net, ("tick", 1))
    chain = list(net.chain)
    states = [_loaded(chain), replay(chain)]
    assert isinstance(states[0].cve_registry, SnapshotRegistry)
    new = {**_record(8, "cna.beta", None, 0), "product": "new"}
    ops = [
        {"op": OP_UPDATE_STATUS, "args": {"cveID": "CVE-2025-0002", "newStatus": "ARCHIVED"}, "caller": GOV},
        {"op": OP_SUBMIT, "args": {"record": new}, "caller": "cna.beta"},
    ]
    for payload in ops:
        outcomes = [_op(state, payload, 5) for state in states]
        assert outcomes[0] == outcomes[1] and isinstance(outcomes[0], list), outcomes
    filters = [
        {"status": CveStatus.ARCHIVED}, {"product": "new"}, {"product": "widget-0"}, {"submitter": "cna.beta"},
        {"year": 2025}, {"status": CveStatus.PUBLISHED, "submitter": "cna.alpha"},
    ]
    for query in filters:
        loaded, replayed = (query_public(state, view=record_view_bytes, **query) for state in states)
        assert loaded == replayed and loaded, query
    assert states[0]._index is None


# -- a one-shot query decodes the drafts and what the scan passes ------------------------------

DRAFTS = 2


def _dir(path: Path, bulk: int) -> None:
    """A checkpointed data dir: `bulk` published records of cna.alpha, each
    of its own product, plus a fixed few that the queries below ask for
    (two by cna.beta of product `rare` in 2024, one archived) and drafts.
    Every description holds a quote and a newline, which the line spells
    as escapes."""
    with Node.init(path, genesis_time=1000, seed=b"query-scan") as node:
        for cna in ("cna.alpha", "cna.beta"):
            cert_file = path / f"{cna}.cert.json"
            cert_file.write_text(json.dumps(node.issue(cna, "CNA").to_dict()))
            node.onboard(cna, cert_file)
        net = node.net
        records = [dict(_record(seq, "cna.alpha", None, 0), product=f"p-{seq}") for seq in range(1, bulk + 1)]
        records += [
            dict(_record(seq, "cna.beta", None, 0), cveID=f"CVE-2024-{seq:04d}", product="rare") for seq in (1, 2)
        ]
        records += [_record(seq, "cna.alpha", 10**6 - net.clock, net.clock) for seq in range(900, 900 + DRAFTS)]
        for record in records:
            record["description"] = f'a "quoted" flaw\nin {record["cveID"]}'
            assert net.submit(record, "5a" * 16).accepted
            net.tick(net.clock)
        chain = net.chain
    write_chain_file(path / LEDGER_FILE, chain)
    assert run(path, "status", "CVE-2025-0003", "ARCHIVED")[0] == 0  # leaves the checkpoint


QUERIES = {
    "product": (["--product", "rare"], ["CVE-2024-0001", "CVE-2024-0002"]),
    "submitter": (["--submitter", "cna.beta"], ["CVE-2024-0001", "CVE-2024-0002"]),
    "status": (["--status", "ARCHIVED"], ["CVE-2025-0003"]),
    "year": (["--year", "2024"], ["CVE-2024-0001", "CVE-2024-0002"]),
    "status and year": (["--status", "PUBLISHED", "--year", "2024"], ["CVE-2024-0001", "CVE-2024-0002"]),
    "submitter and product": (["--submitter", "cna.alpha", "--product", "p-3"], ["CVE-2025-0003"]),
}


def test_each_filter_decodes_the_drafts_and_the_lines_its_scan_passes(tmp_path, monkeypatch):
    counts = {}
    for bulk in (10, 40):
        data_dir = tmp_path / f"registry-{bulk}"
        _dir(data_dir, bulk)
        for name, (argv, expected) in QUERIES.items():
            passed = []
            scan = SnapshotRegistry.scan
            monkeypatch.setattr(SnapshotRegistry, "scan", lambda self, keys: passed.extend(scan(self, keys)) or passed)
            calls = _count_decodes(monkeypatch)
            code, out, _ = run(data_dir, "query", *argv)
            monkeypatch.undo()
            assert code == 0 and [row["cveID"] for row in json.loads(out)] == expected, (name, out)
            assert len(calls) <= DRAFTS + len(passed), (name, calls, passed)
            counts.setdefault(name, []).append(len(calls))
    assert all(small == large for small, large in counts.values()), counts
