from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.canonical import COUNT, NON_NEGATIVE, PORT, U64, bounded, is_hex_digest, number


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


ODD_SPELLINGS = ["+4", " 3 ", "3\n", "1_0", "٣", "١٠٠٥", "３", "", "-", "--1", "0x10", "1e3", "1.0", "4 2"]


@pytest.mark.parametrize("text", ["0", "-0", "007", "-5", "18446744073709551616", "9" * 400])
def test_ascii_digits_after_an_optional_minus_spell_the_int_they_spell(text):
    assert number(text) == int(text)


@pytest.mark.parametrize("text", ODD_SPELLINGS)
def test_every_other_spelling_is_the_value_error_int_raises(text):
    with pytest.raises(ValueError, match="invalid literal for int"):
        number(text)


def test_more_digits_than_int_converts_is_a_value_error():
    with pytest.raises(ValueError):
        number("9" * 5000)


@pytest.mark.parametrize(
    "row, inside, outside",
    [
        (U64, [0, 2**64 - 1], [-1, 2**64]),
        (COUNT, [1, 10**30], [0, -1]),
        (PORT, [0, 65535], [-1, 65536]),
        (NON_NEGATIVE, [0, 10**30], [-1]),
    ],
)
def test_each_row_takes_its_ends_and_refuses_one_past_them_with_the_callers_error(row, inside, outside):
    class Refused(Exception):
        pass

    for value in inside:
        assert bounded(value, row, Refused) == value
    for value in [*outside, True, 1.0, "1", None]:
        with pytest.raises(Refused) as refused:
            bounded(value, row, Refused)
        assert refused.value.args == (value,)
