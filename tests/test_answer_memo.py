"""The query service builds each list and event answer once per snapshot.

`ledger.query_public` keeps the row bytes of a one-filter list whose key the
query index holds (`WorldState.query_answers`), and `/v1/events` encodes
each event's view once (`QueryService.event_view`). The property serves one
state while submissions (some embargoed), status changes, corrections and
clock moves change it, and needs every list body to be the one a `copy()`
of the state, which holds no memo, computes, every events body to be the
walk of the whole log, and no body to carry withheld content. A list asks
one filter or two, before and after each of its filters alone, and the
CLI's dict views of each in process, which are never kept. The other
tests pin that a repeated list reads no record, that unknown filter values
are not kept, and that a clock move alone drops the answers.
"""

from __future__ import annotations

import http.client
import random
import sys
import threading
import urllib.parse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cveledger import httpapi, ledger
from cveledger.canonical import to_canonical_bytes
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_SUBMIT, OP_UPDATE_STATUS, is_content_withheld
from cveledger.corrections import OP_DISPUTE, OP_REJECT
from cveledger.httpapi import QueryService, serve_in_thread
from cveledger.ledger import query_public, record_view_bytes, replay
from cveledger.records import CveStatus

from test_lazy_state import _op
from test_open_once import CNAS, GOV, _record, seeded_network

SEQS = range(1, 9)
SECRET = "secret flaw"
PRODUCTS = [f"secret-{seq}" for seq in SEQS]  # an embargoed submission's own product


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A query server, the chain its states start from, and the ledger path;
    each test puts its own `QueryService` on the server."""
    net = seeded_network()
    path = tmp_path_factory.mktemp("answers") / "ledger.jsonl"
    server, port = serve_in_thread(replay(net.chain), net.chain, ledger_path=path)
    yield server, port, net.chain, path
    server.shutdown()
    server.server_close()


def fresh_state(served):
    """A new state from the chain, served from now on."""
    server, _, chain, path = served
    state = replay(chain)
    server.service = QueryService(state, chain, path)
    return state


def get(served, target: str) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", served[1], timeout=30)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    assert response.status == 200, (target, body[:200])
    return body


def submission(state, seq: int, cna: str, embargo: int | None) -> dict:
    """An embargoed submission has a product of its own and a description that only it spells."""
    record = _record(seq, cna, embargo, state.clock_now)
    if embargo is not None:
        record["product"], record["description"] = f"secret-{seq}", f"{SECRET} {seq}"
    return {"op": OP_SUBMIT, "args": {"record": record, "salt": "5a"}, "caller": cna}


def filters_of(query: dict) -> dict:
    """`query_public`'s keyword arguments for the list request `query`."""
    return {field: CveStatus(value) if field == "status" else value for field, value in query.items()}


def expected_list(state, query: dict) -> bytes:
    """The body of the list request `query`: `query_public` on a copy, which starts without a memo."""
    return b"[" + b",".join(query_public(state.copy(), view=record_view_bytes, **filters_of(query))) + b"]"


def expected_events(state, since: int) -> bytes:
    log = state.event_log
    walked = [dict(e.to_dict(), index=i) for i, e in enumerate(log) if i >= since]
    return to_canonical_bytes({"events": walked, "next": len(log)})


def list_target(query: dict) -> str:
    return "/v1/cve?" + urllib.parse.urlencode(query)


_ids = st.sampled_from(SEQS).map(lambda seq: f"CVE-2025-{seq:04d}")
_changes = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(SEQS), st.sampled_from(CNAS[:2]), st.none() | st.integers(1, 400)),
    st.builds(
        lambda cid, status: {"op": OP_UPDATE_STATUS, "args": {"cveID": cid, "newStatus": status}, "caller": GOV},
        _ids, st.sampled_from(["PUBLISHED", "ARCHIVED"]),
    ),
    st.builds(lambda cid: {"op": OP_REJECT, "args": {"cveID": cid, "reason": "dup"}, "caller": GOV}, _ids),
    st.builds(lambda cid: {"op": OP_DISPUTE, "args": {"cveID": cid, "note": "no"}, "caller": GOV}, _ids),
    st.just({"op": OP_CHECK_EMBARGO, "args": {}, "caller": GOV}),
)
# one filter, or two, which are answered by the scan and never kept
_filters = st.fixed_dictionaries(
    {},
    optional={
        "status": st.sampled_from(["DRAFT", "PUBLISHED", "REJECTED"]),
        "submitter": st.sampled_from(CNAS),
        "product": st.sampled_from(["widget-0", "widget-1", "nothing", *PRODUCTS]),
        "year": st.sampled_from([2024, 2025]),
    },
).filter(lambda filters: 1 <= len(filters) <= 2)
_requests = st.one_of(
    st.tuples(st.just("list"), _filters),
    st.tuples(st.just("events"), st.integers(-3, 40)),
    st.tuples(st.just("probe")),
)
_steps = st.one_of(
    st.tuples(st.just("change"), _changes, st.integers(0, 300)),
    st.tuples(st.just("request"), _requests),
)


# a draft rejected under embargo, its product asked, then a clock move past the embargo that stores
# nothing: random steps seldom line this up, and only the clock can drop the `[]` it answered
_CLOCK_ONLY = [
    ("change", ("submit", 4, "cna.alpha", 100), 1),
    ("change", {"op": OP_REJECT, "args": {"cveID": "CVE-2025-0004", "reason": "dup"}, "caller": GOV}, 1),
    ("request", ("probe",)),
    ("change", {"op": OP_CHECK_EMBARGO, "args": {}, "caller": GOV}, 200),
    ("request", ("probe",)),
]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_steps, max_size=30))
@example(steps=_CLOCK_ONLY)
def test_every_answer_is_the_one_a_state_without_memo_gives(served, steps):
    state = fresh_state(served)
    for kind, *args in steps:
        if kind == "change":
            payload, advance = args
            if isinstance(payload, tuple):  # a submission, made at the clock it is run at
                payload = submission(state, *payload[1:])
            _op(state, payload, advance)
            continue
        request = args[0]
        withheld = [r for r in state.cve_registry.values() if is_content_withheld(r, state.clock_now)]
        if request[0] == "events":
            since = request[1]
            bodies = [(get(served, f"/v1/events?since={since}"), expected_events(state, since))]
        elif request[0] == "list":  # asked around each of its filters alone, which the memo keeps
            bodies = []
            for query in [request[1], *({field: value} for field, value in request[1].items()), request[1]]:
                # the CLI's dict views, asked in process first, are never kept
                assert query_public(state, **filters_of(query)) == query_public(state.copy(), **filters_of(query))
                bodies.append((get(served, list_target(query)), expected_list(state, query)))
        else:  # every embargoed submission's product, twice: the second reads the memo
            hidden = {record.product for record in withheld}
            bodies = [
                (
                    get(served, list_target({"product": product})),
                    b"[]" if product in hidden else expected_list(state, {"product": product}),
                )
                for product in PRODUCTS * 2
            ]
        for body, expected in bodies:
            assert body == expected
            assert not any(record.description.encode() in body for record in withheld), body


def test_a_repeated_list_reads_no_record(served, monkeypatch):
    state = fresh_state(served)
    for seq, embargo in ((1, None), (2, 50), (3, None)):
        _op(state, submission(state, seq, "cna.alpha", embargo), 1)
    calls = []

    def counting(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    view = counting("record_view_bytes", ledger.record_view_bytes)
    monkeypatch.setattr(ledger, "record_view_bytes", view)
    monkeypatch.setattr(httpapi, "record_view_bytes", view)
    monkeypatch.setattr(ledger, "is_content_withheld", counting("is_content_withheld", ledger.is_content_withheld))
    for field, value in (("submitter", "cna.alpha"), ("product", "widget-1"), ("product", "secret-2")):
        target = list_target({field: value})
        first = get(served, target)
        assert "record_view_bytes" in calls or value == "secret-2", (target, calls)
        assert "is_content_withheld" in calls, (target, calls)
        calls.clear()
        assert get(served, target) == first and calls == [], (target, calls)
    assert get(served, list_target({"product": "secret-2"})) == b"[]"


def test_unknown_filter_values_are_not_kept(served):
    state = fresh_state(served)
    _op(state, submission(state, 1, "cna.alpha", None), 1)
    get(served, list_target({"product": "widget-1"}))
    answers = state.query_answers(state.query_index(), state.clock_now)
    assert list(answers) == [("product", "widget-1")]
    for n in range(1000):
        assert get(served, list_target({"product": f"unknown-{n}"})) == b"[]"
    assert state.query_answers(state.query_index(), state.clock_now) is answers
    assert list(answers) == [("product", "widget-1")]


def test_a_clock_move_alone_releases_a_rejected_drafts_product(served):
    """A draft rejected before its embargo ends stays withheld until the
    clock passes it; nothing is stored then, so only the clock can drop
    the `[]` its product answered."""
    state = fresh_state(served)
    _op(state, submission(state, 4, "cna.alpha", 100), 1)
    _op(state, {"op": OP_REJECT, "args": {"cveID": "CVE-2025-0004", "reason": "dup"}, "caller": GOV}, 1)
    target = list_target({"product": "secret-4"})
    assert get(served, target) == get(served, target) == b"[]"
    index = state.query_index()
    state.begin_block(state._height + 1, state.clock_now + 200)
    assert state.query_index() is index  # no store: the index stands, its answers do not
    body = get(served, target)
    assert body == expected_list(state, {"product": "secret-4"}) and f"{SECRET} 4".encode() in body


def test_concurrent_first_requests_answer_the_bodies_a_state_without_memo_gives(served):
    """Handler threads fill the list memo and the event views at once,
    with the interpreter switching threads as often as it can."""
    state = fresh_state(served)
    for seq, embargo in ((1, None), (2, 50), (3, None), (4, None)):
        _op(state, submission(state, seq, CNAS[seq % 2], embargo), 1)
    queries = [{"submitter": "cna.alpha"}, {"product": "widget-1"}, {"product": "secret-2"}, {"status": "PUBLISHED"}]
    expected = {list_target(query): expected_list(state, query) for query in queries}
    expected.update({f"/v1/events?since={since}": expected_events(state, since) for since in (0, 5)})
    right = []  # one entry per answered request; a reader that raises leaves fewer

    def reader(seed: int):
        targets = list(expected) * 3
        random.Random(seed).shuffle(targets)
        right.extend(get(served, target) == expected[target] for target in targets)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(right) == 6 * 3 * len(expected) and all(right)
