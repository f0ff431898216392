"""Cached canonical fragments against the dict path they replace.

The HTTP service writes record views and list bodies from the bytes each
record keeps (`ledger.record_view_bytes`), and `state_hash` splices the
bytes each record and event keeps. The oracles kept here are the dict
path: `to_canonical_bytes` of `record_view` and of `query_public`'s dicts
for every body, `content_commitment` for the kept commitment, and
`sha256(to_canonical_bytes(state.to_dict()))` for the state hash.
"""

from __future__ import annotations

import http.client
import itertools
import sys
import threading
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cveledger import ledger
from cveledger.canonical import ZERO_HASH, sha256_hex, to_canonical_bytes
from cveledger.chaincode import ChainClock, content_commitment, execute_transaction, is_content_withheld
from cveledger.errors import LedgerError
from cveledger.httpapi import redacted_block_dict, serve_in_thread
from cveledger.ledger import (
    Block,
    Transaction,
    query_public,
    record_commitment,
    record_view,
    record_view_bytes,
    state_hash,
)
from cveledger.records import CveStatus, parse_cve_id, record_to_dict

from conftest import CNA, make_record
from test_query_index import CNAS, IDS, NOW, PRODUCTS, fresh_state, steps, to_payload


def oracle_hash(state) -> str:
    return sha256_hex(to_canonical_bytes(state.to_dict()))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One service whose snapshot each test swaps in (`service.state`)."""
    ledger_path = tmp_path_factory.mktemp("fragments") / "ledger.jsonl"
    server, port = serve_in_thread(fresh_state(), [], ledger_path=ledger_path)
    yield server, port
    server.shutdown()
    server.server_close()


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# filter name -> (query string value, query_public keyword and value) per choice
FILTER_VALUES = {
    "status": [(s.value, ("status", s)) for s in CveStatus],
    "product": [(p, ("product", p)) for p in PRODUCTS],
    "year": [(str(y), ("year", y)) for y in (2024, 2025)],
    "submitter": [(c, ("submitter", c)) for c in CNAS],
    "id": [(cid, ("cve_id", parse_cve_id(cid))) for cid in IDS],
}
# every combination of the five filters, the empty one included
FILTER_SETS = [
    names for size in range(len(FILTER_VALUES) + 1) for names in itertools.combinations(FILTER_VALUES, size)
]


def check_point_routes(port: int, state) -> None:
    for text in IDS + ["CVE-2025-0099"]:
        status, body = get(port, f"/v1/cve/{text}")
        record = state.cve_registry.get(parse_cve_id(text))
        if record is None:
            assert status == 404
            continue
        assert status == 200
        assert body == to_canonical_bytes(record_view(record, state.clock_now)), text


def check_list_route(port: int, state, choice: dict) -> None:
    query = {name: value for name, (value, _) in choice.items()}
    kwargs = dict(keyword for _, keyword in choice.values())
    status, body = get(port, "/v1/cve?" + urlencode(query))
    assert status == 200
    assert body == to_canonical_bytes(query_public(state, **kwargs)), query


def pick(data, names) -> dict:
    return {name: data.draw(st.sampled_from(FILTER_VALUES[name])) for name in names}


def run_steps(state, history):
    """Run each step as one block (a dry run, then the transaction; refusals
    kept) and yield after it. The block clock only moves forward, so
    embargoes pass and drafts rejected before release turn public."""
    now = NOW
    for height, step in enumerate(history, 1):
        if step[0] == "sweep":
            now += step[1]
        op, args, caller = to_payload(step, now)
        payload = {"op": op, "args": args, "caller": caller, "clockNow": now}
        state.begin_block(height, now)
        for check_only in (True, False):
            try:
                execute_transaction(state, payload, ChainClock(now), check_only=check_only)
            except LedgerError:
                pass
        yield


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)
@given(st.lists(steps, min_size=4, max_size=20), st.data())
def test_served_bodies_and_state_hash_equal_the_dict_path(server, history, data):
    http_server, port = server
    state = fresh_state()
    http_server.service.state = state
    for _ in run_steps(state, history):
        assert state_hash(state) == oracle_hash(state)
        for record in state.cve_registry.values():
            assert record_commitment(record) == content_commitment(record)
        check_point_routes(port, state)
        check_list_route(port, state, pick(data, data.draw(st.sampled_from(FILTER_SETS))))
    for names in FILTER_SETS:
        check_list_route(port, state, pick(data, names))


def test_registry_keys_sort_as_strings_across_9999_and_10000(server):
    http_server, port = server
    state = fresh_state()
    ids = ["CVE-2025-10000", "CVE-2025-9999", "CVE-2025-1000", "CVE-2025-100000", "CVE-2024-10001"]
    state.store([make_record(cid) for cid in ids], "CVESubmitted", "bulk", {})
    canonical = to_canonical_bytes(state.to_dict())
    assert canonical.index(b'"CVE-2025-10000"') < canonical.index(b'"CVE-2025-9999"')
    assert state_hash(state) == oracle_hash(state)
    assert state_hash(state) == oracle_hash(state)  # from the kept bytes
    # the list route is in id order, which is numeric
    listed = [view["cveID"] for view in query_public(state, year=2025)]
    assert listed == ["CVE-2025-1000", "CVE-2025-9999", "CVE-2025-10000", "CVE-2025-100000"]
    http_server.service.state = state
    for year in (None, 2025):
        check_list_route(port, state, {} if year is None else {"year": (str(year), ("year", year))})
    for cid in ids:
        status, body = get(port, f"/v1/cve/{cid}")
        expected = record_view(state.cve_registry[parse_cve_id(cid)], state.clock_now)
        assert status == 200 and body == to_canonical_bytes(expected)


def _counting(monkeypatch, name: str) -> list:
    """Patch `ledger.<name>` to record the record of every call."""
    calls = []
    original = getattr(ledger, name)

    def counted(record, *args):
        calls.append(record)
        return original(record, *args)

    monkeypatch.setattr(ledger, name, counted)
    return calls


def test_commitment_and_views_are_computed_once_per_record(server, monkeypatch):
    commitments = _counting(monkeypatch, "content_commitment")
    views = _counting(monkeypatch, "record_view")
    http_server, port = server
    state = fresh_state()
    # withheld until NOW + 5 without being a draft, so the clock alone
    # turns its view public
    record = make_record(embargo_until=NOW + 5, embargo_salt="ab")
    state.store([record], "CVESubmitted", "bulk", {})
    submit = Transaction.build(
        "SubmitCVE", {"record": record_to_dict(record), "salt": "ab"}, CNA, NOW, key=None
    )
    block = Block.build(1, ZERO_HASH, NOW, [submit])
    http_server.service.state = state
    for now in (NOW, NOW + 10) * 3:
        state.clock_now = now
        for _ in range(5):
            assert record_view_bytes(record, now) == to_canonical_bytes(ledger.record_view(record, now))
            assert get(port, f"/v1/cve/{record.cve_id}")[0] == 200
            assert get(port, "/v1/cve?product=widget")[0] == 200
            redacted_block_dict(block, state)
    assert commitments == [record]
    # one view computed per withheld and per public; the rest are dict-path oracle calls
    assert views.count(record) == 2 + 6 * 5

    state.clock_now = NOW
    views.clear()
    state.update(record, "CVEStatusChanged", {}, updated_at=NOW)
    updated = state.cve_registry[record.cve_id]
    assert updated is not record
    for _ in range(5):
        record_view_bytes(updated, NOW)
        redacted_block_dict(block, state)
    assert commitments == [record, updated] and views == [updated]
    assert is_content_withheld(updated, NOW)


def test_state_hash_after_the_first_call_encodes_only_the_summary(monkeypatch):
    state = fresh_state()
    state.store([make_record(f"CVE-2025-{seq:04d}") for seq in range(1, 50)], "CVESubmitted", "bulk", {})
    first = state_hash(state)
    encoded = []
    encode = ledger.to_canonical_bytes
    monkeypatch.setattr(ledger, "to_canonical_bytes", lambda obj: encoded.append(obj) or encode(obj))
    assert state_hash(state) == first == oracle_hash(state)
    assert encoded == list(state.summary_dict().values())


def test_concurrent_first_views_agree(server):
    """Handler threads that race on a record's first view each compute the
    same bytes, so every body equals the dict path whichever write won."""
    http_server, port = server
    state = fresh_state()
    records = [
        make_record(f"CVE-2025-{seq:04d}", embargo_until=NOW + seq % 2, embargo_salt="ab")
        for seq in range(1, 41)
    ]
    state.store(records, "CVESubmitted", "bulk", {})
    state.clock_now = NOW
    http_server.service.state = state
    expected_list = to_canonical_bytes(query_public(state))
    bodies: list[tuple[int, bytes]] = []

    def reader(offset: int) -> None:
        for record in records[offset:] + records[:offset]:
            bodies.append((record, get(port, f"/v1/cve/{record.cve_id}")))
        bodies.append((None, get(port, "/v1/cve")))

    threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(0, 40, 10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first views race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(bodies) == 4 * 41
    for record, (status, body) in bodies:
        assert status == 200
        assert body == (expected_list if record is None else to_canonical_bytes(record_view(record, NOW)))
