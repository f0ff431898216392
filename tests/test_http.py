from __future__ import annotations

import hashlib
import http.client
import json
import socket
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cveledger.canonical import to_canonical_json
from cveledger.httpapi import serve_in_thread
from cveledger.ledger import record_view_bytes, replay
from cveledger.records import CveStatus, parse_cve_id
from cveledger.storage import write_chain_file

from test_ledger import small_network
from test_query_index import scan_query


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    net = small_network(2, embargoed=False)
    # add one still-embargoed draft
    net.invoke(
        "SubmitCVE",
        {
            "record": {
                "cveID": "CVE-2025-0099",
                "description": "secret embargoed flaw",
                "product": "secretware",
                "version": [{"lo": [1, 0, 0], "hi": [1, 0, 5]}],
                "severity": {"label": "CRITICAL", "cvssScore": 9.5},
                "submitterCNA": "cna.redhat",
                "embargoUntil": 999999,
            },
            "salt": "ab" * 16,
        },
        "cna.redhat",
    )
    net.tick(1100)
    path = tmp_path_factory.mktemp("http") / "ledger.jsonl"
    write_chain_file(path, net.chain)
    state = replay(net.chain)
    server, port = serve_in_thread(state, net.chain, ledger_path=path)
    yield f"http://127.0.0.1:{port}", path, net
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def list_service(tmp_path_factory):
    """A registry over two years, submitted out of id order, with a second
    CNA, a rejection, a dispute and a withheld draft; yields the base URL
    and a replayed state that the served one never shares."""
    net = small_network(2, embargoed=False)
    cert = net.issue_identity("cna.mitre")
    net.invoke(
        "OnboardCNA", {"cnaID": "cna.mitre", "certHash": cert.cert_hash(), "certificate": cert.to_dict()}, "gov.root"
    )
    for n, (cid, cna) in enumerate(
        [("CVE-2025-0010", "cna.redhat"), ("CVE-2024-0007", "cna.mitre"), ("CVE-2025-0005", "cna.mitre"),
         ("CVE-2024-0002", "cna.redhat"), ("CVE-2025-0003", "cna.redhat"), ("CVE-2024-0011", "cna.redhat")]
    ):
        record = {
            "cveID": cid,
            "description": f"flaw {cid}",
            "product": "widget" if n % 2 else "gadget",
            "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
            "severity": {"label": "HIGH", "cvssScore": 7.5},
            "submitterCNA": cna,
        }
        args = {"record": record}
        if cid == "CVE-2024-0011":
            record["embargoUntil"], args["salt"] = 999999, "cd" * 16
        net.invoke("SubmitCVE", args, cna)
        net.tick(1100 + n)
    net.invoke("RejectCVE", {"cveID": "CVE-2025-0005", "reason": "duplicate"}, "gov.root")
    net.invoke("DisputeCVE", {"cveID": "CVE-2024-0002", "note": "contested"}, "gov.root")
    net.tick(1200)
    path = tmp_path_factory.mktemp("http-list") / "ledger.jsonl"
    write_chain_file(path, net.chain)
    server, port = serve_in_thread(replay(net.chain), net.chain, ledger_path=path)
    yield f"http://127.0.0.1:{port}", replay(net.chain)
    server.shutdown()
    server.server_close()


def get(base: str, route: str):
    try:
        with urllib.request.urlopen(base + route) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestEndpoints:
    def test_published_record_served(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/cve/CVE-2025-0001")
        assert status == 200
        assert body["status"] == "PUBLISHED"
        assert body["description"] == "issue number 1"

    def test_unknown_record_404(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/cve/CVE-2025-9999")
        assert status == 404

    def test_malformed_id_400(self, service):
        base, _, _ = service
        assert get(base, "/v1/cve/NOT-AN-ID")[0] == 400

    def test_draft_served_with_commitment_only(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/cve/CVE-2025-0099")
        assert status == 200
        assert body["status"] == "DRAFT"
        assert "contentCommitment" in body
        assert "description" not in body and "product" not in body and "version" not in body

    def test_filtered_list(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/cve?status=PUBLISHED")
        assert status == 200
        assert {v["cveID"] for v in body} == {"CVE-2025-0001", "CVE-2025-0002"}
        status, body = get(base, "/v1/cve?product=secretware")
        assert status == 200 and body == []  # withheld content never matches filters

    @pytest.mark.parametrize(
        "query, filters",
        [
            ("", {}),
            ("?status=PUBLISHED", {"status": CveStatus.PUBLISHED}),
            ("?year=2025", {"year": 2025}),
            ("?submitter=cna.redhat", {"submitter": "cna.redhat"}),
        ],
    )
    def test_list_is_the_id_ordered_scan_byte_for_byte(self, list_service, query, filters):
        base, state = list_service
        rows = scan_query(state, **filters)
        assert len({row["cveID"][4:8] for row in scan_query(state)}) == 2  # both years are listed
        records = [state.cve_registry[parse_cve_id(row["cveID"])] for row in rows]
        expected = b"[" + b",".join(record_view_bytes(record, state.clock_now) for record in records) + b"]"
        with urllib.request.urlopen(base + "/v1/cve" + query) as resp:
            assert resp.read() == expected

    def test_bad_filters_400(self, service):
        base, _, _ = service
        assert get(base, "/v1/cve?status=NOPE")[0] == 400
        assert get(base, "/v1/cve?year=abc")[0] == 400
        assert get(base, "/v1/cve?bogus=1")[0] == 400

    def test_raw_block_served(self, service):
        base, _, net = service
        status, body = get(base, "/v1/blocks/0")
        assert status == 200
        assert body["height"] == 0
        assert body["blockHash"] == net.chain[0].block_hash

    def test_unknown_height_404(self, service):
        base, _, net = service
        assert get(base, f"/v1/blocks/{len(net.chain)}")[0] == 404
        assert get(base, "/v1/blocks/abc")[0] == 400

    def test_embargoed_block_content_redacted(self, service):
        base, _, net = service
        height = len(net.chain) - 1  # the block carrying the embargoed submit
        status, body = get(base, f"/v1/blocks/{height}")
        assert status == 200
        assert body.get("redactedTxs"), "expected the draft submission to be redacted"
        payload = body["txs"][0]["payload"]
        record = payload["args"]["record"]
        assert record["description"].startswith("committed:")
        assert record["product"].startswith("committed:")
        assert record["version"] == []
        assert "salt" not in payload["args"]
        text = json.dumps(body)
        assert "secret embargoed flaw" not in text
        assert "secretware" not in text

    def test_audit_endpoint(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/audit")
        assert status == 200 and body["valid"] is True

    def test_events_slice(self, service):
        base, _, _ = service
        status, body = get(base, "/v1/events")
        assert status == 200
        kinds = [e["kind"] for e in body["events"]]
        assert kinds[0] == "CNAOnboarded"
        assert body["next"] == len(body["events"])
        status, sliced = get(base, f"/v1/events?since={body['next'] - 1}")
        assert status == 200 and len(sliced["events"]) == 1
        assert sliced["events"][0]["index"] == body["next"] - 1
        assert get(base, "/v1/events?since=xyz")[0] == 400

    def test_events_since_edges_match_full_walk(self, service):
        base, _, net = service
        log = replay(net.chain).event_log
        for since in (-5, 0, len(log), len(log) + 3):
            status, body = get(base, f"/v1/events?since={since}")
            # the body the route served when it walked the whole log
            walked = [dict(e.to_dict(), index=i) for i, e in enumerate(log) if i >= since]
            assert status == 200
            assert body == json.loads(to_canonical_json({"events": walked, "next": len(log)}))

    def test_unknown_route_404(self, service):
        base, _, _ = service
        assert get(base, "/v2/whatever")[0] == 404
        assert get(base, "/v1/cve/CVE-2025-0001/extra")[0] == 404


class TestReadOnly:
    def test_mutating_methods_rejected(self, service):
        base, _, _ = service
        req = urllib.request.Request(base + "/v1/cve", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 405

    @pytest.mark.parametrize("method", ["HEAD", "OPTIONS", "POST", "PUT", "DELETE", "PATCH"])
    def test_every_other_method_gets_json_405_on_every_route(self, service, method):
        base, _, _ = service
        expected = json.dumps({"error": "read-only service"}, separators=(",", ":")).encode()
        host, port = base.removeprefix("http://").split(":")
        for route in ("/v1/cve", "/v1/cve/CVE-2025-0001", "/v1/blocks/0", "/v1/audit", "/v1/events", "/x"):
            # a raw socket, read to the close, so a body sent after HEAD shows
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                sock.sendall(f"{method} {route} HTTP/1.0\r\n\r\n".encode())
                data = b"".join(iter(lambda: sock.recv(65536), b""))
            head, _, body = data.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode().split("\r\n")
            headers = dict(line.split(": ", 1) for line in header_lines)
            assert status_line.split()[1] == "405", (method, route)
            assert headers["Content-Type"] == "application/json"
            assert headers["Content-Length"] == str(len(expected))
            assert body == (b"" if method == "HEAD" else expected)

    def test_request_storm_leaves_ledger_bytes_untouched(self, service):
        base, path, net = service
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        routes = [
            "/v1/cve/CVE-2025-0001",
            "/v1/cve?status=PUBLISHED",
            "/v1/cve/CVE-2025-9999",
            "/v1/blocks/1",
            "/v1/audit",
            "/v1/events",
            "/nonsense",
        ]
        for _ in range(30):
            for route in routes:
                get(base, route)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before


# Every route's prefix (and some near misses); the strategies add an
# arbitrary tail and query string. Characters outside `_RAW` are
# percent-encoded, so malformed escapes such as "%zz" reach the server raw.
_PREFIXES = ("/v1/cve/", "/v1/cve", "/v1/blocks/", "/v1/audit", "/v1/events", "/v1/", "/", "")
_FILTERS = ("status", "year", "id", "product", "submitter", "since")
_RAW = "/?&=%;+#:@!$'()*,~"
_values = st.one_of(
    st.text(max_size=24),
    st.integers().map(str),
    st.sampled_from(
        ["", "-1", "0", "PUBLISHED", "DRAFT", "CVE-2025-0001", "CVE-2025-0099", "%zz", "%e9", "1e3",
         "\u0663", "9" * 5000]
    ),
)
_params = st.lists(st.tuples(st.one_of(st.sampled_from(_FILTERS), st.text(max_size=8)), _values), max_size=4)


@st.composite
def _targets(draw) -> str:
    path = draw(st.sampled_from(_PREFIXES)) + draw(st.one_of(st.just(""), _values))
    query = "&".join(f"{k}={v}" for k, v in draw(_params))
    target = urllib.parse.quote(path, safe=_RAW)
    return target + ("?" + urllib.parse.quote(query, safe=_RAW) if query else "")


class TestArbitraryRequests:
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(target=_targets())
    def test_every_answer_is_2xx_or_4xx(self, service, target):
        base, _, _ = service
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=30)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status // 100 in (2, 4), (target, response.status, body[:200])
