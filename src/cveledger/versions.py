"""Affected-version algebra over inclusive major.minor.patch ranges.

Components are bounded at MAX_PART so every triple has a predecessor and a
successor, making inclusive-range subtraction total: the ordered triples are
mapped onto integers, the set arithmetic runs on integer intervals, and the
results are mapped back. Outputs are always normalized: sorted, disjoint,
and maximal (no two adjacent ranges left unmerged).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .canonical import typed

MAX_PART = 999_999
_BASE = MAX_PART + 1

Triple = tuple[int, int, int]

_TRIPLE_RE = re.compile(r"(\d+)\.(\d+)\.(\d+)")


def parse_triple(text: str) -> Triple:
    m = _TRIPLE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad version triple: {text!r}")
    t = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    _check_triple(t)
    return t


def format_triple(t: Triple) -> str:
    return f"{t[0]}.{t[1]}.{t[2]}"


def _check_triple(t: Triple) -> None:
    if len(t) != 3 or any(not isinstance(p, int) or p < 0 or p > MAX_PART for p in t):
        raise ValueError(f"version parts must be ints in [0, {MAX_PART}]: {t!r}")


def _enc(t: Triple) -> int:
    return (t[0] * _BASE + t[1]) * _BASE + t[2]


def _dec(i: int) -> Triple:
    i, patch = divmod(i, _BASE)
    major, minor = divmod(i, _BASE)
    return (major, minor, patch)


@dataclass(frozen=True, order=True, slots=True)
class VersionRange:
    """Inclusive on both ends; lo <= hi under lexicographic triple order."""

    lo: Triple
    hi: Triple

    def __post_init__(self):
        _check_triple(self.lo)
        _check_triple(self.hi)
        if self.lo > self.hi:
            raise ValueError(f"range lower bound {self.lo} exceeds upper bound {self.hi}")

    def contains(self, point: Triple) -> bool:
        return self.lo <= point <= self.hi

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, obj: dict) -> "VersionRange":
        lo, hi = (tuple(typed(p, int, end) for p in typed(obj[end], list, end)) for end in ("lo", "hi"))
        return cls(lo=lo, hi=hi)

    def __str__(self) -> str:
        return f"{format_triple(self.lo)}-{format_triple(self.hi)}"


def parse_range(value) -> VersionRange:
    """Accepts {"lo": [...], "hi": [...]}, "1.0.0-3.0.0", or "1.0.0"."""
    if isinstance(value, VersionRange):
        return value
    if isinstance(value, dict):
        return VersionRange.from_dict(value)
    if isinstance(value, str):
        if "-" in value:
            lo_text, hi_text = value.split("-", 1)
            return VersionRange(parse_triple(lo_text), parse_triple(hi_text))
        point = parse_triple(value)
        return VersionRange(point, point)
    raise ValueError(f"cannot parse version range from {value!r}")


def _to_intervals(ranges) -> list[list[int]]:
    """Normalize to sorted, merged integer intervals (inclusive ends)."""
    spans = sorted((_enc(r.lo), _enc(r.hi)) for r in ranges)
    merged: list[list[int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _from_intervals(intervals) -> list[VersionRange]:
    return [VersionRange(_dec(lo), _dec(hi)) for lo, hi in intervals]


def normalize(ranges) -> list[VersionRange]:
    return _from_intervals(_to_intervals(ranges))


def subtract(a, b) -> list[VersionRange]:
    """Set difference a \\ b, normalized.

    Splits at predecessor/successor points of the bounded triple order, e.g.
    [1.0.0-3.0.0] minus [2.0.0-2.5.0] leaves the range ending just below
    2.0.0 and the one starting at the successor of 2.5.0.
    """
    remaining = _to_intervals(a)
    out: list[list[int]] = []
    cuts = _to_intervals(b)
    for lo, hi in remaining:
        for cut_lo, cut_hi in cuts:
            if cut_hi < lo or cut_lo > hi:
                continue
            if cut_lo > lo:
                out.append([lo, cut_lo - 1])
            lo = cut_hi + 1
            if lo > hi:
                break
        if lo <= hi:
            out.append([lo, hi])
    return _from_intervals(out)


def overlaps(a, b) -> bool:
    ia, ib = _to_intervals(a), _to_intervals(b)
    i = j = 0
    while i < len(ia) and j < len(ib):
        if ia[i][1] < ib[j][0]:
            i += 1
        elif ib[j][1] < ia[i][0]:
            j += 1
        else:
            return True
    return False


def coverage_equal(a, b) -> bool:
    return _to_intervals(a) == _to_intervals(b)


def contains_point(ranges, point: Triple) -> bool:
    return any(r.contains(point) for r in ranges)
