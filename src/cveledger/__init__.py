"""cveledger: a permissioned-ledger CVE registry.

Certificate-authenticated CVE Numbering Authorities submit vulnerability
records through an endorse -> order -> commit pipeline onto a hash-chained,
publicly auditable ledger. Smart-contract-style handlers enforce lifecycle,
embargo, governance, and correction semantics deterministically.
"""

import logging

from .chaincode import ChainClock, Event, WorldState
from .corrections import (
    Authority,
    MergeCandidate,
    SplitCandidate,
    select_canonical,
    select_prominent,
)
from .decision import ArchitectureVerdict, DecisionInputs, decide_architecture
from .identity import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    RevocationList,
    revoke_certificate,
    sign_payload,
    verify_certificate,
    verify_payload,
)
from .ledger import (
    AuditReport,
    Block,
    EndorsementPolicy,
    Transaction,
    append_block,
    query_public,
    replay,
    state_hash,
    verify_chain,
)
from .network import OrdererConfig, Peer, SimulatedNetwork, run_scenario
from .records import (
    CveId,
    CveRecord,
    CveStatus,
    Severity,
    SeverityLabel,
    parse_cve_id,
    status_transition_valid,
    validate_schema,
)
from .versions import VersionRange, subtract as version_ranges_subtract

__version__ = "0.1.0"

# The package's warnings (crash recovery, a stale sidecar) go to the
# application's logging setup, never to the CLI's stderr, which carries at
# most one JSON error line.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ArchitectureVerdict",
    "AuditReport",
    "Authority",
    "Block",
    "Certificate",
    "CertificateAuthority",
    "ChainClock",
    "CveId",
    "CveRecord",
    "CveStatus",
    "DecisionInputs",
    "EndorsementPolicy",
    "Event",
    "KeyPair",
    "MergeCandidate",
    "OrdererConfig",
    "Peer",
    "RevocationList",
    "Severity",
    "SeverityLabel",
    "SimulatedNetwork",
    "SplitCandidate",
    "Transaction",
    "VersionRange",
    "WorldState",
    "append_block",
    "decide_architecture",
    "parse_cve_id",
    "query_public",
    "replay",
    "revoke_certificate",
    "run_scenario",
    "select_canonical",
    "select_prominent",
    "sign_payload",
    "state_hash",
    "status_transition_valid",
    "validate_schema",
    "verify_certificate",
    "verify_chain",
    "verify_payload",
    "version_ranges_subtract",
]
