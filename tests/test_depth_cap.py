"""A writer commits only what every reader reads: lists and objects nest at
most `MAX_DEPTH` deep in what it commits or reads from a file.

Endorsers refuse args nested past the cap with `BAD_ARGS`, and an input
file nested past it is one `LedgerError` line naming the file, so a depth
that a shallow writer encodes but a deeper reader cannot decode never
reaches the ledger. Args at the cap commit and read back through every
reader. Apply and replay are unchanged: the cap is checked only where a
transaction is endorsed and where a file is read.
"""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import errors
from cveledger.canonical import MAX_DEPTH, nesting
from cveledger.errors import LedgerError
from cveledger.node import LEDGER_FILE, Node, read_json_file
from cveledger.storage import audit_file, checkpoint_path, load_ledger

from test_malformed_ledger import _http_audit, _run, onboarded_dir  # noqa: F401  (a fixture)

RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "Stack smash in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "HIGH", "cvssScore": 7.5},
    "submitterCNA": "cna.redhat",
}


def _depth(value) -> int:
    """The recursive depth that `nesting` counts without recursion."""
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_depth, value), default=0)
    return 0


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def _record(zzz_depth: int) -> dict:
    """The record with a key `"zzz"` holding `zzz_depth` nested lists."""
    return {**RECORD, "zzz": _nested(zzz_depth)}


_LEAF = st.none() | st.booleans() | st.integers() | st.text(max_size=3)
_SHALLOW = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


_LEVEL = st.tuples(st.sampled_from([list, tuple, dict]), st.lists(_SHALLOW, max_size=1), st.booleans())


@st.composite
def _trees(draw):
    """A tree whose deepest path runs through up to about 100 levels of
    lists, tuples and objects, each level with shallow siblings before or
    after it."""
    tree = draw(_SHALLOW)
    levels = draw(st.integers(0, 100))
    for kind, siblings, first in draw(st.lists(_LEVEL, min_size=levels, max_size=levels)):
        items = [tree, *siblings] if first else [*siblings, tree]
        tree = {f"k{i}": item for i, item in enumerate(items)} if kind is dict else kind(items)
    return tree


@settings(max_examples=60, deadline=None)
@given(_trees())
def test_the_level_walk_counts_the_recursive_depth_up_to_one_past_the_cap(tree):
    assert nesting(tree) == min(_depth(tree), MAX_DEPTH + 1)


def test_the_level_walk_stops_one_past_the_cap_at_any_depth():
    assert [nesting(v) for v in (5, "x", [], {}, [[]], {"a": [1]})] == [0, 0, 1, 1, 2, 2]
    assert nesting(_nested(100_000)) == MAX_DEPTH + 1


def _error_codes() -> set[str]:
    return {
        name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, LedgerError)
    }


# ROADMAP's depth scan: a signed submit between 979 and 984 committed a block
# that audit and replay then refused; 975 and 990 bracket that window.
SCAN = [975, *range(979, 985), 990]


@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH, *SCAN])
def test_a_submit_nested_past_the_cap_is_one_ledger_error_line_and_leaves_the_ledger(
    onboarded_dir, tmp_path, capsys, depth
):
    ledger = onboarded_dir / LEDGER_FILE
    files = [ledger, checkpoint_path(ledger)]
    before = [path.read_bytes() for path in files]
    record = tmp_path / "record.json"
    nested = b"[" * depth + b"]" * depth  # too deep for this stack to encode
    record.write_bytes(json.dumps(RECORD).encode()[:-1] + b', "zzz": ' + nested + b"}")
    code, out, err = _run(capsys, onboarded_dir, "submit", str(record))
    assert code == 1 and out == "" and len(err) == 1, (depth, err)
    line = json.loads(err[0])
    assert line["error"] in _error_codes(), line
    if depth >= MAX_DEPTH:  # the file itself nests past the cap
        assert line["error"] == "LedgerError" and str(record) in line["message"], line
    else:  # the file is at the cap; the args hold it one level deeper
        assert line["error"] == "SchemaViolation" and "BAD_ARGS" in line["message"], line
    assert [path.read_bytes() for path in files] == before
    assert _run(capsys, onboarded_dir, "audit")[0] == 0


def test_a_file_at_the_cap_is_read_and_one_past_it_is_refused_by_name(tmp_path):
    at, past = tmp_path / "at.json", tmp_path / "past.json"
    at.write_text(json.dumps({"a": _nested(MAX_DEPTH - 1)}))
    past.write_text(json.dumps({"a": _nested(MAX_DEPTH)}))
    assert nesting(read_json_file(at)) == MAX_DEPTH
    with pytest.raises(LedgerError, match=f"past.json.*deeper than {MAX_DEPTH}"):
        read_json_file(past)


def test_args_past_the_cap_are_refused_by_every_peer_and_leave_nothing_pending(onboarded_dir):
    with Node.open(onboarded_dir) as node:
        net = node.net
        before = net.state_hashes()
        result = net.submit(_record(MAX_DEPTH - 1))
        assert nesting(result.tx.payload["args"]) == MAX_DEPTH + 1
        assert not result.accepted and net.pending == []
        assert [r.peer_id for r in result.refusals] == [peer.peer_id for peer in net.peers]
        for refusal in result.refusals:
            assert refusal.code == "SchemaViolation"
            assert [v.code for v in refusal.error.violations] == ["BAD_ARGS"]
        assert net.state_hashes() == before


def test_args_at_the_cap_commit_and_every_reader_accepts_the_ledger(onboarded_dir, tmp_path, capsys):
    with Node.open(onboarded_dir) as node:
        node.submit(_record(MAX_DEPTH - 2))
        [tx] = node.net.chain[-1].txs
        assert nesting(tx.payload["args"]) == MAX_DEPTH
        tip = node.net.chain[-1].height
    assert tip == 2
    ledger = onboarded_dir / LEDGER_FILE
    chain, state, _ = load_ledger(ledger, checkpoint=False)
    assert chain[-1].height == tip and state.cve_registry
    report = audit_file(ledger)
    assert report.valid, report
    for argv in (["replay"], ["audit"], ["query", "--id", "CVE-2025-0001"]):
        code, _, err = _run(capsys, onboarded_dir, *argv)
        assert code == 0 and err == [], (argv, err)
    copy = tmp_path / "copy"
    shutil.copytree(onboarded_dir, copy)
    (copy / f"{LEDGER_FILE}.audit").unlink(missing_ok=True)  # audited from genesis on a handler thread
    assert _http_audit(copy / LEDGER_FILE) == {"valid": True, "firstBadHeight": None, "reason": None}
