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

# content ids never collide with the five specials
pieces = st.lists(st.integers(min_value=5, max_value=500), max_size=40)
texts_and_pairs = st.lists(st.tuples(pieces, st.one_of(st.none(), pieces)), min_size=1,
                           max_size=6)


def framed_parts(ids):
    """(side a, side b or None) read back out of a framed row, checking the
    framing invariants on the way."""
    n = len(ids)
    assert ids.shape == (n,)
    assert PAD_ID not in ids  # unpadded
    assert ids[0] == CLS_ID
    seps = np.nonzero(ids == SEP_ID)[0]
    assert len(seps) in (1, 2)
    assert seps[-1] == n - 1
    if len(seps) == 1:
        return list(ids[1:n - 1]), None
    return list(ids[1:seps[0]]), list(ids[seps[0] + 1:n - 1])


@settings(deadline=None)
@given(a=pieces, length=st.integers(min_value=3, max_value=48))
def test_single_text_keeps_its_prefix(a, length):
    ids = frame(a, None, length)
    assert len(ids) == min(len(a) + 2, length)
    kept, b = framed_parts(ids)
    assert b is None
    assert kept == a[:length - 2]


@settings(deadline=None)
@given(a=pieces, b=pieces, length=st.integers(min_value=5, max_value=48))
@example(a=[5, 6, 7], b=[8, 9], length=6)  # both sides cut, the last cut on a tie
def test_pair_cuts_the_longer_side_first(a, b, length):
    ids = frame(a, b, length)
    assert len(ids) == min(len(a) + len(b) + 3, length)
    kept_a, kept_b = framed_parts(ids)
    assert kept_a == a[:len(kept_a)] and kept_b == b[:len(kept_b)]
    assert len(kept_a) + len(kept_b) == min(len(a) + len(b), length - 3)
    # a side loses pieces only while it is the longer one (side a on a tie)
    if len(kept_a) < len(a):
        assert len(kept_a) >= len(kept_b) - 1
    if len(kept_b) < len(b):
        assert len(kept_b) >= len(kept_a)


@settings(deadline=None)
@given(texts=texts_and_pairs, length=st.integers(min_value=5, max_value=32))
def test_stacking_keeps_rows_in_order(texts, length):
    rows = [frame(a, b, length) for a, b in texts]
    batch = stack_rows(rows)
    width = max(map(len, rows))  # the widest row
    assert batch.shape == (len(rows), width)
    for i, row in enumerate(rows):
        assert np.array_equal(batch.token_ids[i, :len(row)], row)
        assert np.all(batch.token_ids[i, len(row):] == PAD_ID)


@settings(deadline=None)
@given(texts=texts_and_pairs, length=st.integers(min_value=5, max_value=32))
def test_a_batch_reads_the_layout_off_the_framed_ids(texts, length):
    # mask 0 on exactly the padding; segment 1 on exactly a pair's side b
    # and its last [SEP]
    rows = [frame(a, b, length) for a, b in texts]
    batch = stack_rows(rows)
    width = batch.shape[1]
    for i, row in enumerate(rows):
        n, (_, kept_b) = len(row), framed_parts(row)
        side_b = 0 if kept_b is None else len(kept_b) + 1
        assert batch.attention_mask[i].tolist() == [1] * n + [0] * (width - n)
        assert batch.segment_ids[i].tolist() == ([0] * (n - side_b) + [1] * side_b
                                                 + [0] * (width - n))


def test_rows_of_different_widths_fill_with_pad_mask_and_segment_zero():
    short, long = frame([5, 6], [7], 16), frame([8] * 20, [9] * 5, 32)
    assert len(short) == 6 and len(long) == 28
    batch = stack_rows([short, long])
    assert batch.shape == (2, 28)
    assert np.array_equal(batch.token_ids[0], np.r_[short, [PAD_ID] * 22])
    assert batch.attention_mask[0].tolist() == [1] * 6 + [0] * 22
    assert batch.segment_ids[0].tolist() == [0, 0, 0, 0, 1, 1] + [0] * 22
    assert np.array_equal(batch.token_ids[1], long)


def test_stack_rows_never_cuts_a_column():
    # trailing padding, a [PAD] inside a row and a row of [PAD] alone all
    # keep every column they were given
    padded = np.array([2, PAD_ID, 8, 3, PAD_ID, PAD_ID])
    blank = np.array([PAD_ID] * 3)
    batch = stack_rows([padded, blank])
    assert batch.shape == (2, 6)
    assert np.array_equal(batch.token_ids[0], padded)
    assert batch.attention_mask[0].tolist() == [1, 0, 1, 1, 0, 0]
    assert np.array_equal(batch.token_ids[1], [PAD_ID] * 6)
    assert not batch.attention_mask[1].any()


# content holding the ids a batch reads the layout from, on either side and
# also where truncation would cut it off
@pytest.mark.parametrize("a,b", [([5, PAD_ID], None), ([SEP_ID, 5], None), ([5], [6, SEP_ID]),
                                 ([5], [PAD_ID]), ([5] * 20 + [SEP_ID], None)])
def test_frame_refuses_content_holding_pad_or_sep(a, b):
    with pytest.raises(ValueError, match=r"^content holds \[PAD\] or \[SEP\], the ids a batch "
                                         r"reads a row's layout from$"):
        frame(a, b, 8)


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
