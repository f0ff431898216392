"""Blockchain-suitability decision procedure: the six yes/no questions of
`QUESTIONS`, asked in order until one settles the verdict, so later
answers cannot change a verdict reached earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ArchitectureVerdict(str, Enum):
    NO_BLOCKCHAIN = "NO_BLOCKCHAIN"
    PERMISSIONLESS = "PERMISSIONLESS"
    PUBLIC_PERMISSIONED = "PUBLIC_PERMISSIONED"
    PRIVATE_PERMISSIONED = "PRIVATE_PERMISSIONED"


@dataclass(frozen=True)
class DecisionInputs:
    need_store: bool
    multiple_writers: bool
    online_ttp_available: bool
    writers_known: bool
    writers_trusted: bool
    public_verifiability: bool

    def to_dict(self) -> dict:
        return {
            "needStore": self.need_store,
            "multipleWriters": self.multiple_writers,
            "onlineTTPAvailable": self.online_ttp_available,
            "writersKnown": self.writers_known,
            "writersTrusted": self.writers_trusted,
            "publicVerifiability": self.public_verifiability,
        }


# (question, {the answer that settles it: verdict}) in the order asked; the last settles either way
QUESTIONS = (
    ("need_store", {False: ArchitectureVerdict.NO_BLOCKCHAIN}),
    ("multiple_writers", {False: ArchitectureVerdict.NO_BLOCKCHAIN}),
    ("online_ttp_available", {True: ArchitectureVerdict.NO_BLOCKCHAIN}),
    ("writers_known", {False: ArchitectureVerdict.PERMISSIONLESS}),
    ("writers_trusted", {True: ArchitectureVerdict.NO_BLOCKCHAIN}),
    (
        "public_verifiability",
        {True: ArchitectureVerdict.PUBLIC_PERMISSIONED, False: ArchitectureVerdict.PRIVATE_PERMISSIONED},
    ),
)


def _settle(inputs: DecisionInputs) -> tuple[int, ArchitectureVerdict]:
    return next(
        (depth, verdicts[getattr(inputs, question)])
        for depth, (question, verdicts) in enumerate(QUESTIONS, 1)
        if getattr(inputs, question) in verdicts
    )


def decide_architecture(inputs: DecisionInputs) -> ArchitectureVerdict:
    return _settle(inputs)[1]


def decision_depth(inputs: DecisionInputs) -> int:
    """1-based index of the question that settles the verdict."""
    return _settle(inputs)[0]
