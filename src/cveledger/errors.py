"""Domain errors.

Guard failures raise one of these; the class name doubles as the stable
machine-readable code reported on stderr, in refusals, and in replay
failure records. Transition functions check every guard before mutating,
so a raised error always leaves state untouched.
"""

from __future__ import annotations


class LedgerError(Exception):
    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)

    @property
    def code(self) -> str:
        return self.__class__.__name__


# identity
class DuplicateSubject(LedgerError):
    pass


class MalformedKey(LedgerError):
    pass


class InvalidParticipantId(LedgerError):
    pass


class Revoked(LedgerError):
    pass


# record model
class MalformedId(LedgerError):
    pass


class YearOutOfRange(LedgerError):
    pass


# chaincode guards
class UnauthorizedCaller(LedgerError):
    pass


class SchemaViolation(LedgerError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{v.field}: {v.message} ({v.code})" for v in self.violations))


class DuplicateCveId(LedgerError):
    pass


class ClockViolation(LedgerError):
    pass


class UnknownCveId(LedgerError):
    pass


class NotSubmitter(LedgerError):
    pass


class IllegalTransition(LedgerError):
    pass


class NotGovernance(LedgerError):
    pass


class BadCertificate(LedgerError):
    pass


class AlreadyAuthorized(LedgerError):
    pass


class NotAuthorizedCna(LedgerError):
    pass


class UnknownOperation(LedgerError):
    pass


# corrections
class TooFewCandidates(LedgerError):
    pass


class DuplicateCandidates(LedgerError):
    pass


class NoOverlap(LedgerError):
    pass


class IdenticalCoverage(LedgerError):
    pass


# ledger / ordering
class PolicyUnsatisfied(LedgerError):
    pass


class ClockRegression(LedgerError):
    pass


class LedgerCorrupt(LedgerError):
    def __init__(self, message: str = "", height: int | None = None):
        self.height = height
        super().__init__(message)
