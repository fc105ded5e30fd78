"""Property tests for row framing (encoder.frame) and batching (stack_rows)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clinlm.encoder import content_room, frame, stack_rows
from clinlm.finetune import encode_ner_example
from clinlm.pretrain import PhasePlan, pack_sequences
from clinlm.wordpiece import train_wordpiece
from clinlm.wordpiece import CLS_ID, PAD_ID, SEP_ID
from test_encoder import columns

# content ids never collide with the five specials
pieces = st.lists(st.integers(min_value=5, max_value=500), max_size=40)


def framed_parts(ids, mask, segments):
    """(side a, side b or None) read back out of a framed row, checking the
    framing invariants on the way."""
    n = len(ids)
    assert ids.shape == mask.shape == segments.shape == (n,)
    assert mask.all()  # unpadded: every position is real
    assert ids[0] == CLS_ID
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
    assert len(ids) == min(len(a) + 2, length)
    kept, b = framed_parts(ids, mask, segments)
    assert b is None
    assert kept == a[:length - 2]


@settings(deadline=None)
@given(a=pieces, b=pieces, length=st.integers(min_value=5, max_value=48))
@example(a=[5, 6, 7], b=[8, 9], length=6)  # both sides cut, the last cut on a tie
def test_pair_cuts_the_longer_side_first(a, b, length):
    ids, mask, segments = frame(a, b, length)
    assert len(ids) == min(len(a) + len(b) + 3, length)
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
    width = max(len(ids) for ids, _, _ in rows)  # the widest row
    assert batch.shape == (len(rows), width)
    for i, row in enumerate(rows):
        n = len(row[0])
        for stacked, framed, fill in zip(columns(batch), row, (PAD_ID, 0, 0)):
            assert np.array_equal(stacked[i, :n], framed)
            assert np.all(stacked[i, n:] == fill)


def test_rows_of_different_widths_fill_with_pad_mask_and_segment_zero():
    short, long = frame([5, 6], [7], 16), frame([8] * 20, [9] * 5, 32)
    assert len(short[0]) == 6 and len(long[0]) == 28
    batch = stack_rows([short, long])
    assert batch.shape == (2, 28)
    for stacked, framed, fill in zip(columns(batch), short, (PAD_ID, 0, 0)):
        assert np.array_equal(stacked[0], np.r_[framed, [fill] * 22])
    for stacked, framed in zip(columns(batch), long):
        assert np.array_equal(stacked[1], framed)


def test_stack_rows_never_cuts_a_column():
    # trailing padding, a mask with holes and a row with no real position
    # all keep every column they were given
    padded = (np.array([2, 7, 8, 3, 0, 0]), np.array([1, 0, 1, 1, 0, 0]), np.zeros(6))
    unmasked = (np.array([2, 7, 3]), np.zeros(3), np.zeros(3))
    batch = stack_rows([padded, unmasked])
    assert batch.shape == (2, 6)
    for stacked, row in zip(columns(batch), padded):
        assert np.array_equal(stacked[0], row)
    assert np.array_equal(batch.token_ids[1], [2, 7, 3, PAD_ID, PAD_ID, PAD_ID])
    assert not batch.attention_mask[1].any()


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


def test_content_room_is_all_but_the_specials():
    assert [content_room(n, False) for n in (3, 4, 16)] == [1, 2, 14]
    assert [content_room(n, True) for n in (5, 6, 16)] == [2, 3, 13]
    for pair, floor in ((False, 3), (True, 5)):
        with pytest.raises(ValueError, match=f"^length {floor - 1} is below {floor}, the fewest "
                                             f"positions of a {'two-text ' if pair else ''}row$"):
            content_room(floor - 1, pair)


# every reader of the row format refuses a length of 2 with content_room's message
_FLOOR_READERS = {
    "frame": lambda: frame([5], None, 2),
    "pack_sequences": lambda: pack_sequences([[5]], 2),
    "PhasePlan": lambda: PhasePlan(((2, 1),)),
    "encode_ner_example": lambda: encode_ner_example(
        ["ab"], ["O"], train_wordpiece(["ab"], 9, 1), {"O": 0}, 2),
}


@pytest.mark.parametrize("reader", list(_FLOOR_READERS))
def test_every_reader_of_the_row_format_has_one_floor(reader):
    with pytest.raises(ValueError, match="^length 2 is below 3, the fewest positions of a row$"):
        _FLOOR_READERS[reader]()
