"""A state loaded from a checkpoint decodes only what is read of it.

`ledger.state_from_snapshot` keeps each registry entry and event line of
the checkpoint undecoded (`SnapshotRegistry`, `SnapshotLog`) until its
record or event is first read; the drafts alone are decoded on load, for
the embargo heap. The access-order property reads such a state in a random
order, through every container operation, copies and mutations, and needs
each answer to be the one a replay from genesis gives. The counting tests
need an open plus one write to decode the drafts and the touched record
only, whatever the size of the registry. A checkpoint whose state hash
was recomputed over a line that does not decode, or is not the exact
encoding of what it decodes to, is trusted, so that line is refused with
`LedgerCorrupt`, naming the file to delete, when it is read. `replay`
refuses a trusted checkpoint whose state the ledger from genesis does not
reach at its height, at the tip or below it, the same way.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger
from cveledger.canonical import to_canonical_json
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_SUBMIT, OP_UPDATE_STATUS, ChainClock, execute_transaction
from cveledger.corrections import OP_DISPUTE, OP_REJECT
from cveledger.errors import LedgerCorrupt, LedgerError
from cveledger.ledger import (
    SnapshotLog,
    SnapshotRegistry,
    query_public,
    record_view_bytes,
    replay,
    snapshot_hash,
    snapshot_lines,
    state_hash,
)
from cveledger.node import LEDGER_FILE, Node
from cveledger.records import CveId, CveStatus
from cveledger.storage import checkpoint_path, load_ledger, write_chain_file, write_checkpoint

from test_open_once import CNAS, GOV, IDS, _record, perform, seeded_network, steps
from test_state_checkpoint import _grow, checkpoint_warnings, run, write_checkpoint_at

# -- the access-order property ------------------------------------------------------------

ids = st.sampled_from([*IDS, 9, 21]).map(lambda seq: CveId(2025, seq))
# products whose entry lines spell them with an escape, or with non-ASCII bytes
PRODUCTS = ["widget-0", "widget-1", 'wid"get', "back\\slash", "tab\tbed", "\u00fcn\u00efcode"]

_payloads = st.one_of(
    st.builds(
        lambda seq, status, caller: {
            "op": OP_UPDATE_STATUS, "args": {"cveID": f"CVE-2025-{seq:04d}", "newStatus": status}, "caller": caller,
        },
        st.sampled_from([*IDS, 9]), st.sampled_from(["PUBLISHED", "ARCHIVED", "DRAFT"]), st.sampled_from([GOV, *CNAS]),
    ),
    st.builds(lambda seq: {"op": OP_REJECT, "args": {"cveID": f"CVE-2025-{seq:04d}", "reason": "dup"}, "caller": GOV},
              st.sampled_from(IDS)),
    st.builds(lambda seq: {"op": OP_DISPUTE, "args": {"cveID": f"CVE-2025-{seq:04d}", "note": "no"}, "caller": GOV},
              st.sampled_from(IDS)),
    st.just({"op": OP_CHECK_EMBARGO, "args": {}, "caller": GOV}),
    st.builds(
        lambda seq, cna, embargo: {
            "op": OP_SUBMIT, "args": {"record": _record(seq, cna, embargo, 0), "salt": "5a"}, "caller": cna,
        },
        st.sampled_from([*IDS, 6, 7]), st.sampled_from(CNAS), st.none() | st.integers(1500, 3000),
    ),
)

_filters = st.fixed_dictionaries(
    {},
    optional={
        "cve_id": ids,
        "status": st.sampled_from(CveStatus),
        "product": st.sampled_from(PRODUCTS),
        "year": st.sampled_from([2024, 2025]),
        "submitter": st.sampled_from(CNAS),
    },
)

accesses = st.one_of(
    st.tuples(st.sampled_from(["get", "in", "item", "view"]), ids),
    st.tuples(st.sampled_from(["iter", "len", "items", "index", "snapshot", "hash", "events"])),
    st.tuples(st.just("event"), st.integers(-40, 40)),
    st.tuples(st.just("query"), _filters),
    st.tuples(st.just("op"), _payloads, st.integers(0, 400)),
    st.tuples(st.just("copy"), _payloads, st.integers(0, 400), st.booleans()),
)


def _op(state, payload, advance: int):
    """Run `payload` in a new block `advance` seconds on: its events, or its refusal code."""
    now = state.clock_now + advance
    state.begin_block(state._height + 1, now)
    try:
        return [event.to_dict() for event in execute_transaction(state, dict(payload, clockNow=now), ChainClock(now))]
    except LedgerError as exc:
        return exc.code


def access(state, action):
    """What `action` reads off `state`; `op` and `copy` also change it."""
    kind, *args = action
    registry = state.cve_registry
    if kind == "get":
        record = registry.get(args[0])
        return None if record is None else ledger.record_to_dict(record, internal=True)
    if kind == "in":
        return args[0] in registry
    if kind == "item":
        try:
            return ledger.record_to_dict(registry[args[0]], internal=True)
        except KeyError:
            return "KeyError"
    if kind == "view":
        return record_view_bytes(registry[args[0]], state.clock_now) if args[0] in registry else None
    if kind == "iter":
        return sorted(registry)
    if kind == "len":
        return len(registry), len(state.event_log)
    if kind == "items":
        return sorted((cid, ledger.record_to_dict(record, internal=True)) for cid, record in registry.items())
    if kind == "index":
        return {key: ids for key, ids in state.query_index().items() if ids}
    if kind == "snapshot":
        return snapshot_lines(state)
    if kind == "hash":
        return state_hash(state)
    if kind == "events":
        return [event.to_dict() for event in state.event_log]
    if kind == "event":
        try:
            return state.event_log[args[0]].to_dict()
        except IndexError:
            return "IndexError"
    if kind == "query":
        return query_public(state, view=record_view_bytes, **args[0])
    if kind == "op":
        return _op(state, *args)
    payload, advance, on_copy = args
    copy = state.copy()
    before = state_hash(copy)
    outcome = _op(copy if on_copy else state, payload, advance)
    untouched = state if on_copy else copy
    return outcome, state_hash(untouched) == before, state_hash(copy), state_hash(state)


def _loaded(chain):
    """The state `load_ledger` loads from a checkpoint at the tip of `chain`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        write_checkpoint_at(path, chain, len(chain) - 1)
        write_chain_file(path, chain)
        return load_ledger(path)[1]


@settings(max_examples=80, deadline=None)
@given(st.lists(steps, max_size=20), st.lists(st.sampled_from(PRODUCTS), max_size=3), st.lists(accesses, max_size=25))
def test_any_access_order_on_a_loaded_state_answers_as_a_replay_does(ops, products, reads):
    net = seeded_network()
    for step in ops:
        perform(net, step)
    for seq, product in enumerate(products, 20):
        net.submit(dict(_record(seq, "cna.alpha", None, net.clock), product=product), None)
    perform(net, ("tick", 1))
    chain = list(net.chain)
    loaded, replayed = _loaded(chain), replay(chain)
    assert isinstance(loaded.cve_registry, SnapshotRegistry) and isinstance(loaded.event_log, SnapshotLog)
    for action in reads:
        assert access(loaded, action) == access(replayed, action), action
    assert access(loaded, ("len",)) == access(replayed, ("len",))
    assert state_hash(loaded) == state_hash(replayed)
    assert loaded.to_dict() == replayed.to_dict()


# -- decodes do not grow with the registry -------------------------------------------------


def _registry_dir(path: Path, published: int, drafts: int) -> None:
    """A checkpointed data dir of `published` records and `drafts` drafts."""
    with Node.init(path, genesis_time=1000, seed=b"lazy-state") as node:
        cert = node.issue("cna.alpha", "CNA")
        cert_file = path / "alpha.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
        net = node.net
        for seq in range(1, published + drafts + 1):
            embargo = 10**6 if seq <= drafts else None
            assert net.submit(_record(seq, "cna.alpha", embargo, net.clock), f"{seq:032x}").accepted
            net.tick(net.clock)
        chain = net.chain
    write_chain_file(path / LEDGER_FILE, chain)
    assert run(path, "tick")[0] == 0  # leaves the checkpoint


def _count_decodes(monkeypatch) -> list:
    calls = []
    decode = ledger.record_from_dict

    def counting(obj):
        calls.append(obj.get("cveID"))
        return decode(obj)

    monkeypatch.setattr(ledger, "record_from_dict", counting)
    return calls


def test_an_open_and_a_write_decode_the_drafts_and_the_touched_record_only(tmp_path, monkeypatch):
    drafts = 3
    counts = []
    for published in (20, 80):
        data_dir = tmp_path / f"registry-{published}"
        _registry_dir(data_dir, published, drafts)
        calls = _count_decodes(monkeypatch)
        with Node.open(data_dir) as node:
            assert len(node.state.cve_registry) == published + drafts
            node.update_status(f"CVE-2025-{drafts + 1:04d}", "ARCHIVED")
            assert node.memory_state_hash() == node.replay_hash()
        monkeypatch.undo()
        assert len(calls) <= drafts + 1, calls
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_query_by_id_decodes_one_record(tmp_path, monkeypatch):
    data_dir = tmp_path / "node"
    _registry_dir(data_dir, 30, 0)
    calls = _count_decodes(monkeypatch)
    code, out, _ = run(data_dir, "query", "--id", "CVE-2025-0007")
    assert code == 0 and [row["cveID"] for row in json.loads(out)] == ["CVE-2025-0007"]
    assert calls == ["CVE-2025-0007"]


def test_a_tick_releasing_several_drafts_prints_what_a_full_load_prints(tmp_path):
    data_dir = tmp_path / "node"
    _grow(data_dir, b"lazy-tick", 12)  # every third of ten submissions embargoed for 5 s
    without = tmp_path / "without"
    shutil.copytree(data_dir, without)
    checkpoint_path(without / LEDGER_FILE).unlink()
    outs = [run(copy, "tick", "--now", "5000") for copy in (data_dir, without)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["released"] == ["CVE-2025-0003", "CVE-2025-0006", "CVE-2025-0009"]


# -- a trusted checkpoint line that does not decode is refused ------------------------------


def _forge(path: Path, edit) -> None:
    """Apply `edit` to the checkpoint's (summary, entries, events) and
    recompute its `stateHash`, as a writer with access to the data dir could."""
    header_line, *snapshot, _ = path.read_bytes().split(b"\n")
    header = json.loads(header_line)
    records = header["records"]
    summary, entries, events = edit(header["summary"], snapshot[:records], snapshot[records:])
    header.update(summary=summary, records=len(entries), stateHash=snapshot_hash(summary, entries, events))
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"\n".join([head, *entries, *events]) + b"\n")


def _entry(cid: str, edit):
    def forge(summary, entries, events):
        [at] = [i for i, line in enumerate(entries) if line.startswith(b'"%s":' % cid.encode())]
        entries = list(entries)
        entries[at] = edit(entries[at])
        return summary, entries, events

    return forge


def _with_record(change):
    def edit(line):
        key, body = line.split(b":", 1)
        obj = json.loads(body)
        change(obj)
        return key + b":" + json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

    return edit


FORGED_ENTRIES = {
    "no cveID (KeyError)": _with_record(lambda obj: obj.pop("cveID")),
    "unknown status (ValueError)": _with_record(lambda obj: obj.update(status="LOST")),
    "annotation not an object (AttributeError)": _with_record(lambda obj: obj.update(annotations=[5])),
    "another id": _with_record(lambda obj: obj.update(cveID="CVE-2025-0004")),
    "not an object": lambda line: line.split(b":", 1)[0] + b":[1,2]",
    "not JSON": lambda line: line[:-1],
    "NaN": lambda line: line.replace(b'"cvssScore":7.5', b'"cvssScore":NaN'),
    "1e400": lambda line: line.replace(b'"cvssScore":7.5', b'"cvssScore":1e400'),
    "Infinity": lambda line: line.replace(b'"cvssScore":7.5', b'"cvssScore":Infinity'),
    "too deep (RecursionError)": lambda line: line[:-1] + b',"zz":' + b"[" * 100000 + b"]" * 100000 + b"}",
    # lines that decode but are not their record's exact encoding
    "lone surrogate": lambda line: line.replace(b"flaw number", b"flaw \\ud800 number"),
    "escaped product": lambda line: line.replace(b'"product":"widget-0"', b'"product":"\\u0077idget-0"'),
    "space after a colon": lambda line: line.replace(b'"product":"', b'"product": "'),
    "missing key (a default)": _with_record(lambda obj: obj.pop("references")),
    "unknown nested key": _with_record(lambda obj: obj["severity"].update(zzz=1)),
}


@pytest.fixture(scope="module")
def grown(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("lazy") / "node"
    _grow(data_dir, b"lazy-forged", 6)
    return data_dir


def _refused(result, what: str) -> None:
    code, out, err = result
    assert code == 1 and out == "" and len(err) == 1, (what, result)
    line = json.loads(err[0])
    assert line["error"] == "LedgerCorrupt", (what, line)
    assert "ledger.jsonl.state" in line["message"] and "delete" in line["message"], (what, line)


@pytest.mark.parametrize("forgery", sorted(FORGED_ENTRIES))
def test_a_trusted_record_line_that_does_not_decode_is_refused_when_read(grown, tmp_path, forgery):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    mark = checkpoint_path(copy / LEDGER_FILE)
    _forge(mark, _entry("CVE-2025-0002", FORGED_ENTRIES[forgery]))
    files = {path: path.read_bytes() for path in (copy / LEDGER_FILE, mark)}
    # other records are served; the forged one is refused by a read and by a write
    assert run(copy, "query", "--id", "CVE-2025-0001")[0] == 0
    reads = (["query", "--id", "CVE-2025-0002"], ["query", "--product", "widget-0"])
    for argv in (*reads, ["status", "CVE-2025-0002", "ARCHIVED"]):
        _refused(run(copy, *argv), forgery)
    assert {path: path.read_bytes() for path in files} == files
    mark.unlink()
    assert run(copy, "query", "--id", "CVE-2025-0002")[0] == 0


def test_a_forged_value_behind_a_nested_key_of_its_name_is_left_unread_by_a_query_of_it(grown, tmp_path):
    # the first `"product":"` of the line is the nested one, so the scan for
    # `widget-0` passes it over, as the raw-field reader it replaced did
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    respelled = _with_record(lambda obj: obj["severity"].update(product="x"))
    _forge(
        checkpoint_path(copy / LEDGER_FILE),
        _entry("CVE-2025-0002", lambda line: respelled(line).replace(b'"product":"', b'"product": "', 1)),
    )
    code, out, _ = run(copy, "query", "--product", "widget-0")
    assert code == 0 and "CVE-2025-0002" not in out
    for argv in (["query", "--id", "CVE-2025-0002"], ["query", "--product", "x"]):
        _refused(run(copy, *argv), "nested")
    checkpoint_path(copy / LEDGER_FILE).unlink()
    rows = json.loads(run(copy, "query", "--product", "widget-0")[1])
    assert [row for row in rows if row["cveID"] != "CVE-2025-0002"] == json.loads(out) != rows


def test_a_trusted_draft_summary_or_registry_that_does_not_decode_is_refused_on_open(grown, tmp_path):
    def draft(summary, entries, events):  # CVE-2025-0003 is embargoed until the sweep
        return _entry("CVE-2025-0003", _with_record(lambda obj: obj.update(embargoUntil="soon")))(
            summary, entries, events
        )

    forgeries = {
        "draft": draft,
        "summary": lambda summary, entries, events: ({**summary, "idCounters": {"x": 1}}, entries, events),
        "order": lambda summary, entries, events: (summary, entries[::-1], events),
        "duplicate": lambda summary, entries, events: (summary, [entries[0], *entries], events),
        "unkeyed": lambda summary, entries, events: (summary, [b"garbage", *entries[1:]], events),
    }
    for name, forge in forgeries.items():
        copy = tmp_path / name
        shutil.copytree(grown, copy)
        _forge(checkpoint_path(copy / LEDGER_FILE), forge)
        before = (copy / LEDGER_FILE).read_bytes()
        for argv in (["query", "--id", "CVE-2025-0001"], ["tick"]):
            _refused(run(copy, *argv), name)
        assert (copy / LEDGER_FILE).read_bytes() == before


def test_a_trusted_event_line_that_does_not_decode_is_refused_when_indexed(grown, tmp_path):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    _forge(
        checkpoint_path(copy / LEDGER_FILE),
        lambda summary, entries, events: (summary, entries, [events[0][:-1], *events[1:]]),
    )
    _, state, _ = load_ledger(copy / LEDGER_FILE)
    replayed = load_ledger(copy / LEDGER_FILE, checkpoint=False)[1]
    assert [event.to_dict() for event in state.event_log[1:]] == [event.to_dict() for event in replayed.event_log[1:]]
    with pytest.raises(LedgerCorrupt, match="event 0 in the state checkpoint .*ledger.jsonl.state"):
        state.event_log[0]
    # a tick reads only the events its own block appends
    assert run(copy, "tick")[0] == 0


FORGED_EVENTS = {
    "space after a colon": lambda line: line.replace(b'"kind":', b'"kind": '),
    "lone surrogate": lambda line: line.replace(b'"payload":{', b'"payload":{"a":"\\ud800",'),
    "NaN": lambda line: line.replace(b'"payload":{', b'"payload":{"a":NaN,'),
}


@pytest.mark.parametrize("forgery", sorted(FORGED_EVENTS))
def test_a_trusted_event_line_that_is_not_its_exact_encoding_is_refused_when_indexed(grown, tmp_path, forgery):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    edit = FORGED_EVENTS[forgery]
    _forge(
        checkpoint_path(copy / LEDGER_FILE),
        lambda summary, entries, events: (summary, entries, [edit(events[0]), *events[1:]]),
    )
    with pytest.raises(LedgerCorrupt, match="event 0 in the state checkpoint .*ledger.jsonl.state.* delete "):
        load_ledger(copy / LEDGER_FILE)[1].event_log[0]


def test_writing_a_checkpoint_decodes_nothing(grown, tmp_path, monkeypatch):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    chain, state, digest = load_ledger(copy / LEDGER_FILE)
    decoded = (dict(state.cve_registry._lines.records), list(state.event_log._lines.decoded_events))
    mark = checkpoint_path(copy / LEDGER_FILE)
    before = mark.read_bytes()
    write_checkpoint(copy / LEDGER_FILE, digest, chain[-1], state)
    assert mark.read_bytes() == before
    assert (state.cve_registry._lines.records, state.event_log._lines.decoded_events) == decoded


# -- replay checks a trusted checkpoint against the ledger from genesis -------------------


def _replayed(copy: Path) -> tuple[int, str, list[str]]:
    """What `replay` prints when no checkpoint is checked: the height and
    state hash of the ledger loaded from genesis."""
    chain, state, _ = load_ledger(copy / LEDGER_FILE, checkpoint=False)
    return 0, to_canonical_json({"height": len(chain) - 1, "stateHash": state_hash(state)}) + "\n", []


def test_replay_refuses_a_trusted_checkpoint_with_a_forged_description(grown, tmp_path):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    mark = checkpoint_path(copy / LEDGER_FILE)
    # the record's exact encoding with another description, and stateHash recomputed
    _forge(mark, _entry("CVE-2025-0002", _with_record(lambda obj: obj.update(description="forged text"))))
    code, out, _ = run(copy, "query", "--id", "CVE-2025-0002")
    assert code == 0 and json.loads(out)[0]["description"] == "forged text"  # the loader trusts it
    before = mark.read_bytes()
    result = run(copy, "replay")
    _refused(result, "forged description")
    assert "height 5" in result[2][0]
    assert mark.read_bytes() == before
    mark.unlink()
    assert run(copy, "replay") == _replayed(copy)


def test_replay_of_an_unforged_checkpoint_prints_what_it_prints_without_one(grown, tmp_path):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    with checkpoint_warnings() as warnings:
        assert run(copy, "replay") == _replayed(copy)
    assert warnings == []


@pytest.mark.parametrize("height", range(5))
def test_replay_checks_a_checkpoint_below_the_tip_against_a_fold_through_its_height(grown, tmp_path, height):
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    path = copy / LEDGER_FILE
    # a crash between an append and the checkpoint's write leaves one below the tip
    write_checkpoint_at(path, list(load_ledger(path, checkpoint=False)[0]), height)
    with checkpoint_warnings() as warnings:
        assert run(copy, "replay") == _replayed(copy)
    assert warnings == []
    _forge(checkpoint_path(path), lambda summary, entries, events: ({**summary, "clockNow": 1}, entries, events))
    result = run(copy, "replay")
    _refused(result, f"height {height}")
    assert f"height {height};" in result[2][0]


def test_a_checkpoint_past_the_loaded_tip_is_not_compared(grown, tmp_path):
    # a writer appended and left its checkpoint after `replay` read the ledger
    copy = tmp_path / "node"
    shutil.copytree(grown, copy)
    path = copy / LEDGER_FILE
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])
    checked = load_ledger(path, checkpoint=False, check=True)[1]
    assert state_hash(checked) == state_hash(load_ledger(path, checkpoint=False)[1])
