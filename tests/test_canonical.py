from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.canonical import COUNT, NON_NEGATIVE, PORT, U64, bounded, is_hex_digest, number
from cveledger.canonical import parse_json, to_canonical_bytes

from test_certificates import _json as _CERT_JSON
from test_line_owner import _JSON as _LINE_JSON


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


@settings(max_examples=150, deadline=None)
@given(st.one_of(_LINE_JSON, _CERT_JSON))
def test_the_decoder_reads_back_every_value_the_encoder_writes(value):
    data = to_canonical_bytes(value)
    decoded = parse_json(data)
    assert decoded == value
    assert to_canonical_bytes(decoded) == data  # 1, 1.0 and true stay apart


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1E+400"]


@pytest.mark.parametrize("literal", NON_FINITE)
def test_the_decoder_refuses_what_the_encoder_never_writes(literal):
    data = b'{"cvssScore":[%s]}' % literal.encode()
    assert json.loads(data)  # the plain decoder takes it
    with pytest.raises(ValueError, match="non-finite number"):
        parse_json(data)


@pytest.mark.parametrize(
    "data, why",
    [
        (b"[" * 100_000 + b"]" * 100_000, "nesting"),
        (b'"\xff"', "utf-8"),
        (b"\xef\xbb\xbf{}", "Expecting value"),
        ('"x"'.encode("utf-16"), "utf-8"),
        (b"{} {}", "Extra data"),
    ],
    ids=["too deep", "not UTF-8", "a BOM", "UTF-16", "two values"],
)
def test_the_decoder_refuses_bytes_that_are_not_one_utf8_json_value_with_a_value_error(data, why):
    with pytest.raises(ValueError, match=why):
        parse_json(data)


def test_a_lone_surrogate_escape_decodes_and_only_the_encoder_refuses_it():
    value = parse_json(b'["\\ud800"]')
    assert value == ["\ud800"]
    with pytest.raises(UnicodeEncodeError):
        to_canonical_bytes(value)
