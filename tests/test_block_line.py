"""`block_line` splices each transaction's kept payload bytes.

The line of a block is `to_canonical_bytes(block.to_dict())` and a
newline. `block_line` builds it with each payload spliced from
`Transaction.payload_bytes()`, the bytes the tx id hashes, so that reading a
line (`checked_block`) encodes each payload once. These tests need the
spliced line to be that encoding byte for byte on generated blocks, and
both to refuse the same NaNs, infinities, lone surrogates and nesting too
deep to encode.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import canonical, ledger
from cveledger.canonical import to_canonical_bytes
from cveledger.ledger import Block, Transaction, block_line, checked_block

from test_open_once import perform, seeded_network, steps


class _Deep(list):
    """A list nested `depth` deep, too deep for canonical JSON to encode,
    which prints as its depth."""

    def __init__(self, depth: int):
        value: list = []
        for _ in range(depth - 1):
            value = [value]
        super().__init__([value])
        self.depth = depth

    def _repr_pretty_(self, printer, cycle) -> None:
        printer.text(f"_Deep({self.depth})")


# any code point, lone surrogates included, which canonical JSON cannot write
_text = st.text(st.characters(exclude_categories=()), max_size=6)
_unwritable = st.sampled_from(["\ud800", "a\udfffb", float("nan"), float("inf")])
_leaf = st.none() | st.booleans() | st.integers() | st.floats() | _text | _unwritable
_json = st.recursive(
    st.one_of(_leaf, _leaf, _leaf, st.integers(10_000, 20_000).map(_Deep)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=10,
)
_transactions = st.builds(
    Transaction,
    payload=st.dictionaries(_text, _json, max_size=4),
    tx_id=_text,
    caller_signature=_text,
    endorsements=st.lists(st.tuples(_text, _text), max_size=2).map(tuple),
)
_blocks = st.builds(
    Block,
    height=st.integers(),
    prev_hash=_text,
    block_time=st.integers(),
    txs=st.lists(_transactions, max_size=3).map(tuple),
    block_hash=_text,
)


def _encoded(encode, block):
    try:
        return encode(block)
    except ValueError:
        return "ValueError"


@settings(max_examples=300, deadline=None)
@given(_blocks)
def test_the_spliced_line_is_the_canonical_encoding(block):
    whole = _encoded(lambda b: to_canonical_bytes(b.to_dict()) + b"\n", block)
    assert _encoded(block_line, block) == whole
    # again once the payloads that encode keep their bytes
    assert _encoded(block_line, block) == whole


@settings(max_examples=20, deadline=None)
@given(st.lists(steps, max_size=12))
def test_the_lines_of_a_chain_are_unchanged_and_each_payload_is_encoded_once(ops):
    net = seeded_network()
    for step in ops:
        perform(net, step)
    lines = [to_canonical_bytes(block.to_dict()) for block in net.chain]
    assert [block_line(block)[:-1] for block in net.chain] == lines
    encoded = []
    encode = canonical.to_canonical_json
    canonical.to_canonical_json = lambda obj: encoded.append(obj) or encode(obj)
    try:
        prev = ledger.ZERO_HASH
        for index, line in enumerate(lines):
            block = checked_block(index, line, prev)
            prev = block.block_hash
    finally:
        canonical.to_canonical_json = encode
    payloads = [tx.payload for block in net.chain for tx in block.txs]
    assert sum(1 for obj in encoded if isinstance(obj, dict) and set(obj) == set(payloads[0])) == len(payloads)
