"""Two orderings of the selection keys that the grid tests leave open: the
numeric portion of an id outranks its year, and a candidate without a CVSS
score ranks below one scored 0.0 (its score counts as -1)."""

from __future__ import annotations

from cveledger.corrections import SplitCandidate, select_canonical, select_prominent
from cveledger.records import Severity, SeverityLabel

from test_corrections import mc


def test_the_numeric_portion_outranks_the_year():
    later_year, smaller_number = mc("CVE-2024-0100"), mc("CVE-2025-0042")
    assert select_canonical([later_year, smaller_number]) == smaller_number.cve_id
    assert select_canonical([smaller_number, later_year]) == smaller_number.cve_id


def test_no_score_ranks_below_a_zero_score():
    unscored = SplitCandidate("unscored", 1, Severity(SeverityLabel.NONE, None), 1, mention_order=1)
    zero = SplitCandidate("zero", 1, Severity(SeverityLabel.NONE, 0.0), 1, mention_order=2)
    assert select_prominent([unscored, zero]) is zero
    assert select_prominent([zero, unscored]) is zero
