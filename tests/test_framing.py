"""Property tests for row framing (encoder.frame) and batching (stack_rows)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clinlm.encoder import frame, stack_rows
from clinlm.wordpiece import CLS_ID, PAD_ID, SEP_ID

# content ids never collide with the five specials
pieces = st.lists(st.integers(min_value=5, max_value=500), max_size=40)


def framed_parts(ids, mask, segments):
    """(side a, side b or None) read back out of a framed row, checking the
    framing invariants on the way."""
    n = int(mask.sum())
    assert np.array_equal(mask, np.arange(len(mask)) < n)  # ones prefix
    assert ids[0] == CLS_ID
    assert np.all(ids[n:] == PAD_ID)
    seps = np.nonzero(ids == SEP_ID)[0]
    assert len(seps) in (1, 2)
    assert seps[-1] == n - 1
    if len(seps) == 1:
        assert np.all(segments == 0)
        return list(ids[1:n - 1]), None
    first = seps[0]
    expected = np.zeros(len(ids), dtype=np.int64)
    expected[first + 1:n] = 1  # side b and its [SEP]
    assert np.array_equal(segments, expected)
    return list(ids[1:first]), list(ids[first + 1:n - 1])


@settings(deadline=None)
@given(a=pieces, length=st.integers(min_value=3, max_value=48))
def test_single_text_keeps_its_prefix(a, length):
    ids, mask, segments = frame(a, None, length)
    assert ids.shape == mask.shape == segments.shape == (length,)
    kept, b = framed_parts(ids, mask, segments)
    assert b is None
    assert kept == a[:length - 2]


@settings(deadline=None)
@given(a=pieces, b=pieces, length=st.integers(min_value=5, max_value=48))
@example(a=[5, 6, 7], b=[8, 9], length=6)  # both sides cut, the last cut on a tie
def test_pair_cuts_the_longer_side_first(a, b, length):
    ids, mask, segments = frame(a, b, length)
    assert ids.shape == mask.shape == segments.shape == (length,)
    kept_a, kept_b = framed_parts(ids, mask, segments)
    assert kept_a == a[:len(kept_a)] and kept_b == b[:len(kept_b)]
    assert len(kept_a) + len(kept_b) == min(len(a) + len(b), length - 3)
    # a side loses pieces only while it is the longer one (side a on a tie)
    if len(kept_a) < len(a):
        assert len(kept_a) >= len(kept_b) - 1
    if len(kept_b) < len(b):
        assert len(kept_b) >= len(kept_a)


@settings(deadline=None)
@given(texts=st.lists(st.tuples(pieces, st.one_of(st.none(), pieces)), min_size=1,
                      max_size=6),
       length=st.integers(min_value=5, max_value=32))
def test_stacking_keeps_rows_in_order(texts, length):
    rows = [frame(a, b, length) for a, b in texts]
    batch = stack_rows(rows)
    assert batch.shape == (len(rows), length)
    for i, (ids, mask, segments) in enumerate(rows):
        assert np.array_equal(batch.token_ids[i], ids)
        assert np.array_equal(batch.attention_mask[i], mask)
        assert np.array_equal(batch.segment_ids[i], segments)
    # a Batch is itself a stackable row triple
    again = stack_rows([batch, stack_rows(rows[:1])])
    assert again.shape == (len(rows) + 1, length)
    assert np.array_equal(again.token_ids[:len(rows)], batch.token_ids)


def test_too_short_lengths_rejected():
    with pytest.raises(ValueError):
        frame([5], None, 2)
    with pytest.raises(ValueError):
        frame([5], [6], 4)
