"""CVE record schema: identifier grammar, severity scale, status machine.

Records are immutable value objects. The canonical JSON form (alphabetical
field order, absent embargo serialized as null) is the exact byte shape that
feeds transaction hashing, so `record_to_dict` / `record_from_dict` define
the wire contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .canonical import kept, kept_slots, typed
from .errors import MalformedId, YearOutOfRange
from .identity import is_valid_participant_id
from .versions import VersionRange, parse_range

MIN_YEAR = 1999
MAX_DESCRIPTION_BYTES = 16 * 1024
DISPUTED_PREFIX = "DISPUTED: "

_CVE_RE = re.compile(r"CVE-(\d{4})-(\d{4,})")


@dataclass(frozen=True, order=True, slots=True)
class CveId(kept_slots("_text")):
    year: int
    sequence: int

    def __str__(self) -> str:
        """The canonical `CVE-YYYY-NNNN` spelling, built once per id object."""
        return kept(self, "_text", lambda c: f"CVE-{c.year}-{c.sequence:04d}")

    @property
    def numeric_portion(self) -> int:
        return self.sequence


def parse_cve_id(text: str) -> CveId:
    """Parse the canonical `CVE-YYYY-NNNN` form (sequence padded to >= 4 digits).

    Sequences longer than four digits must not carry leading zeros, so the
    parser accepts exactly the canonical spelling of each id.
    """
    if not isinstance(text, str):
        raise MalformedId(f"not a string: {text!r}")
    m = _CVE_RE.fullmatch(text.strip())
    if not m:
        raise MalformedId(f"bad CVE id: {text!r}")
    seq_text = m.group(2)
    if len(seq_text) > 4 and seq_text[0] == "0":
        raise MalformedId(f"non-canonical zero padding: {text!r}")
    year, sequence = int(m.group(1)), int(seq_text)
    if sequence < 1:
        raise MalformedId(f"sequence must be >= 1: {text!r}")
    if year < MIN_YEAR:
        raise YearOutOfRange(f"year {year} predates {MIN_YEAR}")
    return CveId(year=year, sequence=sequence)


class CveStatus(str, Enum):
    DRAFT = "DRAFT"
    PUBLISHED = "PUBLISHED"
    ARCHIVED = "ARCHIVED"
    REJECTED = "REJECTED"
    DISPUTED = "DISPUTED"


LEGAL_TRANSITIONS: frozenset[tuple[CveStatus, CveStatus]] = frozenset(
    {
        (CveStatus.DRAFT, CveStatus.PUBLISHED),
        (CveStatus.PUBLISHED, CveStatus.ARCHIVED),
        (CveStatus.DRAFT, CveStatus.REJECTED),
        (CveStatus.PUBLISHED, CveStatus.REJECTED),
        (CveStatus.PUBLISHED, CveStatus.DISPUTED),
        (CveStatus.DISPUTED, CveStatus.PUBLISHED),
        (CveStatus.DISPUTED, CveStatus.REJECTED),
    }
)


def status_transition_valid(old: CveStatus, new: CveStatus) -> bool:
    return (old, new) in LEGAL_TRANSITIONS


class SeverityLabel(str, Enum):
    NONE = "NONE"
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"


def band_for_score(score: float) -> SeverityLabel:
    """Standard qualitative bands: 0.0, 0.1-3.9, 4.0-6.9, 7.0-8.9, 9.0-10.0."""
    if score == 0.0:
        return SeverityLabel.NONE
    if score < 4.0:
        return SeverityLabel.LOW
    if score < 7.0:
        return SeverityLabel.MEDIUM
    if score < 9.0:
        return SeverityLabel.HIGH
    return SeverityLabel.CRITICAL


@dataclass(frozen=True, slots=True)
class Severity:
    label: SeverityLabel
    cvss_score: float | None = None

    def to_dict(self) -> dict:
        return {"label": self.label.value, "cvssScore": self.cvss_score}

    @classmethod
    def from_dict(cls, obj) -> "Severity":
        if isinstance(obj, str):
            return cls(label=SeverityLabel(obj))
        score = typed(obj.get("cvssScore"), (int, float, type(None)), "cvssScore")
        return cls(
            label=SeverityLabel(obj["label"]),
            # widens a checked int (7 -> 7.0); state snapshots carry scores as floats
            cvss_score=None if score is None else float(score),
        )


ANNOTATION_TAGS = (
    "REJECTION_REASON",
    "DISPUTE_NOTE",
    "MERGE_POINTER",
    "SPLIT_ORIGIN",
    "PARTIAL_DUP_NOTE",
)


@dataclass(frozen=True, slots=True)
class Annotation:
    tag: str
    text: str
    ref: str | None = None

    def to_dict(self) -> dict:
        return {"tag": self.tag, "text": self.text, "ref": self.ref}

    @classmethod
    def from_dict(cls, obj: dict) -> "Annotation":
        ref = typed(obj.get("ref"), (str, type(None)), "ref")
        return cls(tag=obj["tag"], text=typed(obj["text"], str, "text"), ref=ref)


@dataclass(frozen=True, slots=True)
class CveRecord(kept_slots("_commitment", "_registry_entry", "_view_withheld", "_view_public")):
    cve_id: CveId
    description: str
    product: str
    version: tuple[VersionRange, ...]
    severity: Severity
    status: CveStatus
    submitter: str
    embargo_until: int | None = None
    references: tuple[str, ...] = ()
    annotations: tuple[Annotation, ...] = ()
    created_at: int = 0
    updated_at: int = 0
    # salt for the embargo content commitment; set on embargoed submissions
    embargo_salt: str | None = None

    def with_(self, **changes) -> "CveRecord":
        return replace(self, **changes)


def record_to_dict(record: CveRecord, *, internal: bool = False) -> dict:
    """Canonical wire form. `internal=True` adds the commitment salt, which
    only state snapshots carry (never public views)."""
    out = {
        "annotations": [a.to_dict() for a in record.annotations],
        "createdAt": record.created_at,
        "cveID": str(record.cve_id),
        "description": record.description,
        "embargoUntil": record.embargo_until,
        "product": record.product,
        "references": list(record.references),
        "severity": record.severity.to_dict(),
        "status": record.status.value,
        "submitterCNA": record.submitter,
        "updatedAt": record.updated_at,
        "version": [r.to_dict() for r in record.version],
    }
    if internal:
        out["embargoSalt"] = record.embargo_salt
    return out


def record_from_dict(obj: dict) -> CveRecord:
    return CveRecord(
        cve_id=parse_cve_id(obj["cveID"]),
        description=obj.get("description", ""),
        product=obj.get("product", ""),
        version=tuple(parse_range(v) for v in typed(obj.get("version", []), list, "version")),
        severity=Severity.from_dict(obj.get("severity", {"label": "NONE", "cvssScore": None})),
        status=CveStatus(obj.get("status", "PUBLISHED")),
        submitter=obj.get("submitterCNA", ""),
        embargo_until=typed(obj.get("embargoUntil"), (int, type(None)), "embargoUntil"),
        references=tuple(typed(obj.get("references", []), list, "references")),
        annotations=tuple(map(Annotation.from_dict, typed(obj.get("annotations", []), list, "annotations"))),
        created_at=typed(obj.get("createdAt", 0), int, "createdAt"),
        updated_at=typed(obj.get("updatedAt", 0), int, "updatedAt"),
        embargo_salt=obj.get("embargoSalt"),
    )


class Violation(NamedTuple):
    code: str
    field: str
    message: str


def validate_schema(record: CveRecord) -> list[Violation]:
    """Return every violated field constraint; empty list means valid.

    Violations are data, not failures: callers decide whether to raise.
    """
    out: list[Violation] = []

    if not record.description:
        out.append(Violation("EMPTY_DESCRIPTION", "description", "description must be non-empty"))
    elif not isinstance(record.description, str):
        out.append(Violation("BAD_DESCRIPTION_TYPE", "description", "description must be a string"))
    elif len(record.description.encode("utf-8")) > MAX_DESCRIPTION_BYTES:
        out.append(
            Violation(
                "DESCRIPTION_TOO_LONG",
                "description",
                f"description exceeds {MAX_DESCRIPTION_BYTES} bytes",
            )
        )
    if not record.product:
        out.append(Violation("EMPTY_PRODUCT", "product", "product must be non-empty"))
    elif not isinstance(record.product, str):
        out.append(Violation("BAD_PRODUCT_TYPE", "product", "product must be a string"))
    if not is_valid_participant_id(record.submitter):
        out.append(Violation("BAD_SUBMITTER_ID", "submitterCNA", f"bad id: {record.submitter!r}"))

    sev = record.severity
    if sev.cvss_score is not None:
        if not 0.0 <= sev.cvss_score <= 10.0:
            out.append(
                Violation("BAD_SEVERITY_SCORE", "severity", f"score {sev.cvss_score} outside [0, 10]")
            )
        elif band_for_score(sev.cvss_score) is not sev.label:
            out.append(
                Violation(
                    "SEVERITY_BAND_MISMATCH",
                    "severity",
                    f"score {sev.cvss_score} maps to {band_for_score(sev.cvss_score).value}, "
                    f"not {sev.label.value}",
                )
            )

    for ref in record.references:
        try:
            parse_cve_id(ref)
        except (MalformedId, YearOutOfRange):
            out.append(Violation("BAD_REFERENCE", "references", f"bad reference {ref!r}"))
    for ann in record.annotations:
        if ann.tag not in ANNOTATION_TAGS:
            out.append(Violation("BAD_ANNOTATION_TAG", "annotations", f"unknown tag {ann.tag!r}"))

    if record.status is CveStatus.REJECTED:
        if not any(a.tag in ("REJECTION_REASON", "MERGE_POINTER") for a in record.annotations):
            out.append(
                Violation(
                    "MISSING_REJECTION_ANNOTATION",
                    "annotations",
                    "REJECTED requires a REJECTION_REASON or MERGE_POINTER annotation",
                )
            )
    if record.status is CveStatus.DISPUTED:
        if not record.description.startswith(DISPUTED_PREFIX):
            out.append(
                Violation(
                    "MISSING_DISPUTE_PREFIX",
                    "description",
                    f"DISPUTED description must start with {DISPUTED_PREFIX!r}",
                )
            )
        if not any(a.tag == "DISPUTE_NOTE" for a in record.annotations):
            out.append(
                Violation("MISSING_DISPUTE_NOTE", "annotations", "DISPUTED requires a DISPUTE_NOTE")
            )
    if record.status is CveStatus.DRAFT and record.embargo_until is None:
        out.append(
            Violation("DRAFT_WITHOUT_EMBARGO", "embargoUntil", "DRAFT requires an embargo timestamp")
        )
    if record.updated_at < record.created_at:
        out.append(Violation("BAD_TIMESTAMPS", "updatedAt", "updatedAt earlier than createdAt"))

    return out
