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
    width = max(int(mask.sum()) for _, mask, _ in rows)  # the longest real row
    assert batch.shape == (len(rows), width)
    for i, row in enumerate(rows):
        assert not row[1][width:].any()  # only padding is cut away
        for stacked, framed in zip(batch, row):
            assert np.array_equal(stacked[i], framed[:width])
    # a Batch is itself a stackable row triple; a narrower one is filled out
    again = stack_rows([batch, stack_rows(rows[:1])])
    assert again.shape == (len(rows) + 1, width)
    assert np.array_equal(again.token_ids[:len(rows)], batch.token_ids)
    for stacked, framed in zip(again, rows[0]):
        assert np.array_equal(stacked[-1], framed[:width])


def test_rows_of_different_widths_fill_with_pad_mask_and_segment_zero():
    short, long = frame([5, 6], [7], 16), frame([8] * 20, [9] * 5, 32)
    batch = stack_rows([short, long])
    assert batch.shape == (2, 28)
    for stacked, framed, fill in zip(batch, short, (PAD_ID, 0, 0)):
        assert np.array_equal(stacked[0], np.r_[framed, [fill] * 12])
    for stacked, framed in zip(batch, long):
        assert np.array_equal(stacked[1], framed[:28])


def test_a_mask_with_holes_keeps_every_real_column():
    row = (np.array([2, 7, 8, 3, 0, 0]), np.array([1, 0, 1, 0, 0, 0]), np.zeros(6))
    batch = stack_rows([row])
    assert batch.shape == (1, 3)
    assert np.array_equal(batch.token_ids[0], [2, 7, 8])
    assert np.array_equal(batch.attention_mask[0], [1, 0, 1])
    # with no real column at all there is nothing to cut by, so nothing is cut
    assert stack_rows([(row[0], np.zeros(6), row[2])]).shape == (1, 6)


def test_no_rows_is_one_value_error():
    with pytest.raises(ValueError, match="^no rows to stack$"):
        stack_rows([])
    with pytest.raises(ValueError, match="^no rows to stack$"):
        stack_rows(iter(()))


def test_too_short_lengths_rejected():
    with pytest.raises(ValueError):
        frame([5], None, 2)
    with pytest.raises(ValueError):
        frame([5], [6], 4)
