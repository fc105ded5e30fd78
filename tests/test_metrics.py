"""Span decoding and F1 metrics, checked against brute-force counters."""

import random
import re

import pytest

from clinlm import metrics
from clinlm.metrics import (
    Span,
    accuracy,
    aggregate_seeds,
    bio_decode,
    bio_encode,
    corpus_entity_f1,
    entity_f1,
    label_set,
    micro_f1,
)


def brute_force_prf(gold_sets, pred_sets):
    """Reference scores via explicit per-item TP/FP/FN classification."""
    tp = fp = fn = 0
    for gold, pred in zip(gold_sets, pred_sets):
        for item in pred:
            if item in gold:
                tp += 1
            else:
                fp += 1
        for item in gold:
            if item not in pred:
                fn += 1
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestSpan:
    def test_valid(self):
        assert Span(0, 2, "problem").end == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Span(3, 3, "x")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Span(-1, 2, "x")


class TestBioDecode:
    def test_canonical(self):
        tags = ["B-problem", "I-problem", "O", "B-test"]
        assert bio_decode(tags) == [Span(0, 2, "problem"), Span(3, 4, "test")]

    def test_empty(self):
        assert bio_decode([]) == []

    def test_all_outside(self):
        assert bio_decode(["O", "O"]) == []

    def test_orphan_inside_opens_span(self):
        assert bio_decode(["I-test", "I-test"]) == [Span(0, 2, "test")]

    def test_type_switch_without_begin(self):
        assert bio_decode(["B-a", "I-b"]) == [Span(0, 1, "a"), Span(1, 2, "b")]

    def test_adjacent_begins_stay_separate(self):
        assert bio_decode(["B-a", "B-a"]) == [Span(0, 1, "a"), Span(1, 2, "a")]

    def test_span_open_at_end_is_closed(self):
        assert bio_decode(["O", "B-x"]) == [Span(1, 2, "x")]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="S-x"):
            bio_decode(["O", "S-x"])

    def test_bare_prefix_rejected(self):
        with pytest.raises(ValueError):
            bio_decode(["B-"])

    def test_idempotence_on_random_sequences(self):
        rng = random.Random(11)
        tags_pool = ["O", "B-a", "I-a", "B-b", "I-b"]
        for _ in range(300):
            tags = [rng.choice(tags_pool) for _ in range(rng.randrange(0, 12))]
            spans = bio_decode(tags)
            canonical = bio_encode(spans, len(tags))
            assert bio_decode(canonical) == spans


class TestBioEncode:
    def test_round_trip(self):
        spans = [Span(0, 2, "problem"), Span(3, 4, "test")]
        assert bio_encode(spans, 5) == ["B-problem", "I-problem", "O", "B-test", "O"]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            bio_encode([Span(0, 2, "a"), Span(1, 3, "b")], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="length"):
            bio_encode([Span(0, 5, "a")], 4)


class TestEntityF1:
    def test_perfect(self):
        spans = {Span(0, 2, "a")}
        assert entity_f1(spans, set(spans)) == (1.0, 1.0, 1.0)

    def test_half_right(self):
        gold = {Span(0, 2, "problem"), Span(5, 6, "test")}
        pred = {Span(0, 2, "problem"), Span(5, 6, "problem")}
        assert entity_f1(gold, pred) == (0.5, 0.5, 0.5)

    def test_both_empty(self):
        assert entity_f1(set(), set()) == (1.0, 1.0, 1.0)

    def test_empty_pred_only(self):
        p, r, f = entity_f1({Span(0, 1, "a")}, set())
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_empty_gold_only(self):
        p, r, f = entity_f1(set(), {Span(0, 1, "a")})
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_boundary_mismatch_not_credited(self):
        p, r, f = entity_f1({Span(0, 2, "a")}, {Span(0, 3, "a")})
        assert f == 0.0

    def test_exchange_identity(self):
        gold = {Span(0, 1, "a"), Span(2, 4, "b")}
        pred = {Span(0, 1, "a"), Span(5, 6, "b")}
        p1, r1, _ = entity_f1(gold, pred)
        p2, r2, _ = entity_f1(pred, gold)
        assert (p1, r1) == (r2, p2)


class TestLabelSet:
    @pytest.mark.parametrize("text,labels", [
        ("", set()), ("  ", set()), ("a", {"a"}), ("b|a|b", {"a", "b"}), (" a | b ", {"a", "b"}),
    ])
    def test_labels(self, text, labels):
        assert label_set(text) == labels

    @pytest.mark.parametrize("text", ["a||b", "|a", "a|", "a| |b", "|"])
    def test_an_empty_label_is_refused(self, text):
        with pytest.raises(ValueError, match=f"^empty label in {re.escape(repr(text))}$"):
            label_set(text)


class TestMicroF1:
    def test_frozen_hand_example(self):
        # TP=2 (a in both instances), FP=1 (c), FN=1 (b): P=R=F1=2/3
        gold = [{"a", "b"}, {"a"}]
        pred = [{"a"}, {"a", "c"}]
        p, r, f = micro_f1(gold, pred)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f == pytest.approx(2 / 3)

    def test_perfect(self):
        sets = [{"x"}, {"y", "z"}, set()]
        assert micro_f1(sets, [set(s) for s in sets]) == (1.0, 1.0, 1.0)

    def test_all_empty(self):
        assert micro_f1([set(), set()], [set(), set()]) == (1.0, 1.0, 1.0)

    def test_instance_order_invariance(self):
        gold = [{"a"}, {"b", "c"}, set(), {"d"}]
        pred = [{"a", "b"}, {"c"}, {"d"}, set()]
        direct = micro_f1(gold, pred)
        perm = [2, 0, 3, 1]
        shuffled = micro_f1([gold[i] for i in perm], [pred[i] for i in perm])
        assert direct == shuffled

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            micro_f1([{"a"}], [{"a"}, {"b"}])

    def test_brute_force_agreement(self):
        rng = random.Random(23)
        labels = list("abcdef")
        for _ in range(300):
            n = rng.randrange(1, 6)
            gold = [set(rng.sample(labels, rng.randrange(0, 4))) for _ in range(n)]
            pred = [set(rng.sample(labels, rng.randrange(0, 4))) for _ in range(n)]
            assert micro_f1(gold, pred) == pytest.approx(brute_force_prf(gold, pred))


class TestCorpusEntityF1:
    def test_strict_matches_per_sequence_decode(self):
        gold = [["B-a", "I-a", "O"], ["B-b"]]
        pred = [["B-a", "I-a", "O"], ["O"]]
        p, r, f = corpus_entity_f1(gold, pred)
        assert (p, r) == (1.0, 0.5)

    def test_token_level_credits_partial_overlap(self):
        gold = [["B-a", "I-a", "O"]]
        pred = [["B-a", "O", "O"]]
        strict = corpus_entity_f1(gold, pred)
        token = corpus_entity_f1(gold, pred, token_level=True)
        assert strict[2] == 0.0
        assert token == (1.0, 0.5, pytest.approx(2 / 3))

    def test_sequence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corpus_entity_f1([["O"]], [])

    def test_sequence_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            corpus_entity_f1([["O", "O"]], [["O"]])

    def test_does_not_call_micro_f1(self, monkeypatch):
        # a timing wrapper on each public metric must not see one score twice
        def fail(*args):
            raise AssertionError("corpus_entity_f1 called micro_f1")

        monkeypatch.setattr(metrics, "micro_f1", fail)
        assert corpus_entity_f1([["B-a", "O"]], [["B-a", "O"]], token_level=True)[2] == 1.0
        assert corpus_entity_f1([["B-a", "O"]], [["B-a", "O"]])[2] == 1.0

    def test_brute_force_agreement_on_random_corpora(self):
        rng = random.Random(31)
        tags_pool = ["O", "B-a", "I-a", "B-b", "I-b"]
        for _ in range(100):
            n = rng.randrange(1, 5)
            gold_seqs, pred_seqs = [], []
            for _ in range(n):
                length = rng.randrange(0, 10)
                gold_seqs.append([rng.choice(tags_pool) for _ in range(length)])
                pred_seqs.append([rng.choice(tags_pool) for _ in range(length)])
            expected = brute_force_prf(
                [set(bio_decode(t)) for t in gold_seqs],
                [set(bio_decode(t)) for t in pred_seqs],
            )
            assert corpus_entity_f1(gold_seqs, pred_seqs) == pytest.approx(expected)


@pytest.mark.parametrize("score,what", [(accuracy, "labels"), (micro_f1, "sets"),
                                        (corpus_entity_f1, "sequences")],
                         ids=["accuracy", "micro-f1", "entity-f1"])
def test_every_corpus_score_refuses_zero_instances(score, what):
    # a corpus of nothing scores nothing, not 1.0; one empty instance still
    # follows the per-instance convention
    with pytest.raises(ValueError, match=f"^cannot score an empty list of {what}$"):
        score([], [])


class TestAccuracy:
    def test_three_quarters(self):
        assert accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(["a"], [])


class TestAggregateSeeds:
    def test_median_of_odd_count(self):
        report = aggregate_seeds([1.0, 5.0, 3.0])
        assert report.median == 3.0

    def test_published_style_five_seeds(self):
        report = aggregate_seeds([88.1, 88.3, 88.2, 88.0, 88.4])
        assert report.median == 88.2
        assert report.stddev == pytest.approx(0.15811388, abs=1e-6)

    def test_identical_values_zero_spread(self):
        assert aggregate_seeds([2.0, 2.0, 2.0]).stddev == 0.0

    def test_single_value_zero_spread(self):
        report = aggregate_seeds([7.5])
        assert report.median == 7.5 and report.stddev == 0.0

    def test_permutation_invariance(self):
        values = [0.4, 0.9, 0.1, 0.6, 0.3]
        a = aggregate_seeds(values)
        b = aggregate_seeds(list(reversed(values)))
        assert (a.median, a.stddev) == (b.median, b.stddev)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_seeds([])
