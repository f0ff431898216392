"""What an embargo withholds is named once: `chaincode.WITHHELD_FIELDS`.

`record_view` and `content_commitment` derive from the record's wire form
(`record_to_dict`) and drop or hash the keys `WITHHELD_FIELDS` names. The
oracle kept here is the hand-written projection and commitment they
replace; `redacted_block_dict` keeps its own placeholders, so the keys it
replaces are pinned to the same set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.canonical import hash_obj, to_canonical_bytes
from cveledger.chaincode import WITHHELD_FIELDS, content_commitment, is_content_withheld
from cveledger.httpapi import redacted_block_dict
from cveledger.ledger import record_view, replay
from cveledger.network import SimulatedNetwork
from cveledger.records import (
    ANNOTATION_TAGS,
    Annotation,
    CveStatus,
    Severity,
    SeverityLabel,
    record_to_dict,
)
from cveledger.versions import VersionRange

from conftest import make_record

NOW = 1_700_000_000


def oracle_commitment(record) -> str:
    return hash_obj(
        {
            "description": record.description,
            "product": record.product,
            "salt": record.embargo_salt or "",
            "version": [r.to_dict() for r in record.version],
        }
    )


def oracle_view(record, clock_now: int) -> dict:
    view = {
        "annotations": [a.to_dict() for a in record.annotations],
        "createdAt": record.created_at,
        "cveID": str(record.cve_id),
        "embargoUntil": record.embargo_until,
        "references": list(record.references),
        "severity": record.severity.to_dict(),
        "status": record.status.value,
        "submitterCNA": record.submitter,
        "updatedAt": record.updated_at,
    }
    if is_content_withheld(record, clock_now):
        view["contentCommitment"] = oracle_commitment(record)
    else:
        view["description"] = record.description
        view["product"] = record.product
        view["version"] = [r.to_dict() for r in record.version]
    return view


triples = st.tuples(*[st.integers(0, 20)] * 3)
ranges = st.tuples(triples, triples).map(lambda ends: VersionRange(min(ends), max(ends)))
annotations = st.builds(
    Annotation, tag=st.sampled_from(ANNOTATION_TAGS), text=st.text(max_size=12), ref=st.none() | st.text(max_size=8)
)
severities = st.builds(
    Severity, label=st.sampled_from(SeverityLabel), cvss_score=st.none() | st.floats(0.0, 10.0)
)
# embargo none, past and future around the clock the view is taken at
embargo_offsets = st.none() | st.integers(-5, 5)


@settings(max_examples=300, deadline=None)
@given(
    description=st.text(min_size=1, max_size=20),
    product=st.text(min_size=1, max_size=10),
    version=st.lists(ranges, max_size=3),
    severity=severities,
    status=st.sampled_from(CveStatus),
    embargo_offset=embargo_offsets,
    references=st.lists(st.text(max_size=10), max_size=3),
    annotations=st.lists(annotations, max_size=3),
    salt=st.none() | st.text(alphabet="0123456789abcdef", min_size=1, max_size=8),
    clock_step=st.integers(-5, 5),
)
def test_views_and_commitments_equal_the_hand_written_projection(
    description, product, version, severity, status, embargo_offset, references, annotations, salt, clock_step
):
    record = make_record(
        description=description,
        product=product,
        version=version,
        severity=severity,
        status=status,
        embargo_until=None if embargo_offset is None else NOW + embargo_offset,
        references=tuple(references),
        annotations=tuple(annotations),
        embargo_salt=salt,
        created_at=NOW - 10,
        updated_at=NOW - 1,
    )
    assert content_commitment(record) == oracle_commitment(record)
    # a clock around now, and one on either side of the release boundary
    until = record.embargo_until
    for clock_now in (NOW + clock_step, *(() if until is None else (until - 1, until))):
        view = record_view(record, clock_now)
        assert to_canonical_bytes(view) == to_canonical_bytes(oracle_view(record, clock_now))
        if is_content_withheld(record, clock_now):
            assert not set(WITHHELD_FIELDS) & set(view)
            assert set(view) == set(record_to_dict(record)) - set(WITHHELD_FIELDS) | {"contentCommitment"}
        else:
            assert view == record_to_dict(record)


def test_the_block_route_replaces_exactly_the_withheld_fields():
    net = SimulatedNetwork(seed=b"withheld-fields", genesis_time=1000)
    net.onboard("cna.redhat", net.issue_identity("cna.redhat"), net.governance_id)
    net.tick(1001)
    record = record_to_dict(make_record(embargo_until=5000, submitter="cna.redhat"))
    assert net.submit(record, salt="ab").accepted
    net.tick(1002)
    state = replay(net.chain)
    redacted = redacted_block_dict(net.chain[-1], state)
    assert redacted["redactedTxs"] == [net.chain[-1].txs[0].tx_id]
    served = redacted["txs"][0]["payload"]["args"]["record"]
    assert set(served) == set(record)
    assert {key for key in record if served[key] != record[key]} == set(WITHHELD_FIELDS)
