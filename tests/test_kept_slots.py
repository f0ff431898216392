"""Kept values live in declared slots, and only fields are the value.

The frozen types that exist once per record, event, transaction or key
are slotted dataclasses with no instance `__dict__`. Every name `kept()`
writes is a slot their `kept_slots` base declares, so each kept path
below would raise AttributeError if it wrote any other name. Equality,
hashing, ordering, `dataclasses.replace` and `copy` see only the fields.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from cveledger.chaincode import Event
from cveledger.identity import KeyPair, derive_keypair
from cveledger.ledger import Transaction, _event_bytes, _registry_entry_bytes, record_commitment, record_view_bytes
from cveledger.records import Annotation, CveId, CveRecord, CveStatus, Severity
from cveledger.versions import VersionRange

from conftest import TEST_SEED, make_record

NOW = 1_700_000_000

# every class `kept()` writes to, with the names it keeps
KEPT = {
    CveId: {"_text"},
    CveRecord: {"_commitment", "_registry_entry", "_view_withheld", "_view_public"},
    Event: {"_canonical"},
    Transaction: {"_payload_bytes", "_decoded"},
    KeyPair: {"_private_key"},
}


def kept_names(cls: type) -> set[str]:
    """The slots `cls` declares beyond its fields."""
    slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
    return slots - {f.name for f in dataclasses.fields(cls)}


def record(**changes) -> CveRecord:
    """A published record whose embargo ended at NOW: withheld before it, public from it."""
    return make_record("CVE-2025-0042", embargo_until=NOW, embargo_salt="5a", **changes)


def event() -> Event:
    return Event(kind="CVESubmitted", subject="CVE-2025-0042", block_height=3, tx_index=0, payload={"cveID": "CVE-2025-0042"})


def transaction() -> Transaction:
    args = {"cveID": "CVE-2025-0042", "newStatus": "ARCHIVED"}
    return Transaction.build("UpdateCVEStatus", args, "cna.redhat", NOW, key=derive_keypair(TEST_SEED, "cna.redhat"))


def run_every_kept_path(rec: CveRecord, ev: Event, tx: Transaction, key: KeyPair) -> None:
    record_commitment(rec)
    _registry_entry_bytes(rec)
    record_view_bytes(rec, NOW - 1)
    record_view_bytes(rec, NOW)
    _event_bytes(ev)
    tx.payload_bytes()
    tx.decoded()
    str(rec.cve_id)
    key.private_key()


def test_every_kept_path_writes_a_declared_slot_of_an_object_without_a_dict():
    rec, ev, tx, key = record(), event(), transaction(), derive_keypair(TEST_SEED, "cna.redhat")
    run_every_kept_path(rec, ev, tx, key)
    for obj in (rec, rec.cve_id, ev, tx, key):
        assert not hasattr(obj, "__dict__"), type(obj)
        names = KEPT[type(obj)]
        assert kept_names(type(obj)) == names
        assert all(getattr(obj, name) is not None for name in names), type(obj)
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "_undeclared", 1)


def test_the_per_record_value_types_have_no_dict():
    rec = record(annotations=(Annotation("DISPUTE_NOTE", "contested"),))
    for obj in (rec.severity, rec.annotations[0], rec.version[0]):
        assert isinstance(obj, (Severity, Annotation, VersionRange))
        assert not hasattr(obj, "__dict__") and kept_names(type(obj)) == set(), type(obj)


def test_kept_values_never_enter_equality_hashing_ordering_or_replace():
    rec, ev, tx, key = record(), event(), transaction(), derive_keypair(TEST_SEED, "cna.redhat")
    run_every_kept_path(rec, ev, tx, key)
    bare = (record(), event(), transaction(), derive_keypair(TEST_SEED, "cna.redhat"))
    assert (rec, ev, tx, key) == bare
    assert hash(rec) == hash(bare[0]) and hash(rec.cve_id) == hash(bare[0].cve_id) and hash(key) == hash(bare[3])
    assert not rec.cve_id < bare[0].cve_id and not bare[0].cve_id < rec.cve_id
    assert rec.cve_id < CveId(2025, 43) and sorted([CveId(2025, 43), rec.cve_id]) == [bare[0].cve_id, CveId(2025, 43)]
    assert rec != record(status=CveStatus.ARCHIVED)
    for obj in (rec, rec.cve_id, ev, tx, key):
        for clone in (dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj)):
            assert clone == obj and clone is not obj
            assert all(getattr(clone, name, None) is None for name in KEPT[type(obj)]), type(obj)


def test_a_replaced_record_computes_its_own_kept_values():
    rec = record()
    record_view_bytes(rec, NOW)
    changed = dataclasses.replace(rec, description="Heap overflow in the gizmo")
    assert b"gizmo" in record_view_bytes(changed, NOW) and b"gizmo" not in record_view_bytes(rec, NOW)
    assert str(dataclasses.replace(rec.cve_id, sequence=7)) == "CVE-2025-0007"
