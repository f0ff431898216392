from __future__ import annotations

from pathlib import Path

import pytest

from cveledger.chaincode import WorldState
from cveledger.identity import CertificateAuthority, ROLE_CNA, derive_keypair
from cveledger.records import (
    CveRecord,
    CveStatus,
    Severity,
    SeverityLabel,
    parse_cve_id,
)
from cveledger.versions import VersionRange

TEST_SEED = b"cveledger-tests"

GOV = "gov.root"
CNA = "cna.redhat"
OTHER_CNA = "cna.debian"


@pytest.fixture
def ca() -> CertificateAuthority:
    return CertificateAuthority(derive_keypair(TEST_SEED, "ca"))


def make_state(ca: CertificateAuthority, cnas=(CNA, OTHER_CNA)) -> WorldState:
    """World state with governance bootstrapped and the given CNAs authorized,
    as if the corresponding onboarding already committed."""
    state = WorldState()
    state.ca_public_key = ca.public_key
    state.governance_members = {GOV}
    gov_key = derive_keypair(TEST_SEED, GOV)
    state.certificates[GOV] = ca.issue_certificate(GOV, "GOVERNANCE", gov_key.public_hex, issued_at=0)
    for cna in cnas:
        key = derive_keypair(TEST_SEED, cna)
        cert = ca.issue_certificate(cna, ROLE_CNA, key.public_hex, issued_at=0)
        state.authorized_cnas[cna] = cert.cert_hash()
        state.certificates[cna] = cert
    return state


def make_record(
    cve_id: str = "CVE-2025-0001",
    *,
    description: str = "Heap overflow in the frobnicator",
    product: str = "widget",
    version=(VersionRange((1, 0, 0), (2, 0, 0)),),
    severity: Severity | None = None,
    status: CveStatus = CveStatus.PUBLISHED,
    submitter: str = CNA,
    embargo_until: int | None = None,
    **kwargs,
) -> CveRecord:
    return CveRecord(
        cve_id=parse_cve_id(cve_id),
        description=description,
        product=product,
        version=tuple(version),
        severity=severity or Severity(SeverityLabel.HIGH, 7.5),
        status=status,
        submitter=submitter,
        embargo_until=embargo_until,
        **kwargs,
    )


def files_under(root: Path) -> dict:
    """Every file and directory under `root`, a file mapped to its bytes."""
    return {p.relative_to(root): p.is_dir() or p.read_bytes() for p in sorted(root.rglob("*"))}
