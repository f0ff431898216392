from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.canonical import is_hex_digest


def scan_is_hex_digest(value, length=64):
    """The per-character check that the compiled pattern replaced."""
    return (
        isinstance(value, str)
        and len(value) == length
        and all(c in frozenset("0123456789abcdef") for c in value)
    )


def test_edge_cases():
    assert is_hex_digest("0" * 64) and is_hex_digest("ab" * 64, 128)
    assert not is_hex_digest("AB" * 32)
    assert not is_hex_digest("0" * 63 + "\n")
    assert not is_hex_digest("0" * 63 + "٣")  # Arabic-Indic digit three
    assert not is_hex_digest(b"0" * 64) and not is_hex_digest(None)
    assert is_hex_digest("", 0)


near_hex = st.text(alphabet=st.sampled_from("0123456789abcdefABCDEF\n ٣g"), max_size=8).map(
    lambda tail: "a" * (64 - len(tail)) + tail
)


@settings(max_examples=500)
@given(st.one_of(st.text(max_size=70), near_hex), st.sampled_from([0, 1, 8, 64, 128]))
def test_matches_per_character_scan(value, length):
    assert is_hex_digest(value, length) == scan_is_hex_digest(value, length)
    assert is_hex_digest(value) == scan_is_hex_digest(value)
