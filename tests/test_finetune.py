"""Task encodings, concept markers, and the per-seed fine-tuning loop."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import mlm_params
from clinlm import corpus, finetune, pretrain
from clinlm.corpus import numbered_ner_sentences
from clinlm.encoder import (
    EncoderConfig,
    frame,
    stack_rows,
    _head_logits,
    forward,
    init_head,
    init_params,
    load_checkpoint,
    mlm_forward_loss,
    param_shapes,
    save_checkpoint,
    token_classify_loss,
)
from clinlm.finetune import (
    FinetuneConfig,
    TaskSpec,
    builtin_task,
    encode_ner_example,
    extend_for_markers,
    finetune_task,
    load_task_rows,
    mark_concepts,
    marker_tokens,
    predict_label_sets,
    predict_ner_tags,
    predict_pair_labels,
    prepare_document,
    prepare_marked_sentence,
    prepare_pair,
    word_ids,
)
from clinlm.pretrain import adam_step, init_optimizer
from clinlm.settings import (NLI_LABELS, TASK_NAMES, AccumulationConfig, AdamConfig,
                             MaskingPolicy, PhasePlan, SettingError, check_seeds)
from clinlm.wordpiece import CLS_ID, PAD_ID, SEP_ID, train_wordpiece
from test_encoder import last_layer_rows
import test_pretrain


@pytest.fixture(scope="module")
def small_vocab():
    corpus = ["the patient has severe pain.", "no pain today.",
              "patient denies fever", "severe fever and pain",
              "alpha beta gamma delta", "beta alpha delta"]
    return train_wordpiece(corpus, declared_size=120, min_frequency=1)


class TestBuiltinTasks:
    def test_task_inventory(self):
        assert {name: (task.kind, task.selection_metric, task.concept_types)
                for name in TASK_NAMES for task in [builtin_task(name)]} == {
            "ner-2010": ("ner", "entity_f1", ()), "ner-2012": ("ner", "entity_f1", ()),
            "re-2010": ("pair", "micro_f1", ("problem", "treatment", "test")),
            "mednli": ("pair", "accuracy", ()), "icd9-top50": ("multilabel", "micro_f1", ()),
            "therapeutic-class": ("multilabel", "micro_f1", ())}
        assert builtin_task("ner-2010").labels == ("problem", "treatment", "test")
        assert builtin_task("ner-2012").labels == (
            "clinical", "department", "evidential", "occurrence", "temporal")
        re_task = builtin_task("re-2010")
        assert len(re_task.labels) == 8 and re_task.kind == "pair"
        assert re_task.concept_types == ("problem", "treatment", "test")
        assert builtin_task("mednli").labels == ("entailment", "contradiction", "neutral")
        assert len(builtin_task("icd9-top50").labels) == 50
        assert len(builtin_task("therapeutic-class").labels) == 50

    def test_selection_metrics(self):
        assert builtin_task("ner-2010").selection_metric == "entity_f1"
        assert builtin_task("mednli").selection_metric == "accuracy"
        assert builtin_task("icd9-top50").selection_metric == "micro_f1"

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            builtin_task("nope")

    def test_task_names_are_the_presets(self):
        assert [builtin_task(name).name for name in TASK_NAMES] == list(TASK_NAMES)

    def test_outputs_name_the_head_outputs(self):
        assert builtin_task("ner-2010").outputs == builtin_task("ner-2010").bio_tags()
        assert builtin_task("mednli").outputs == list(NLI_LABELS)

    def test_bio_tags(self):
        tags = builtin_task("ner-2010").bio_tags()
        assert tags == ["O", "B-problem", "I-problem", "B-treatment",
                        "I-treatment", "B-test", "I-test"]
        with pytest.raises(ValueError):
            builtin_task("mednli").bio_tags()

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TaskSpec("x", "regression", ("a",), "accuracy")

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError, match="^task needs at least one label$"):
            TaskSpec("x", "pair", (), "accuracy")

    @pytest.mark.parametrize("kind,metric", [
        ("ner", "accuracy"), ("ner", "micro_f1"), ("multilabel", "accuracy"),
        ("pair", "entity_f1"), ("multilabel", "f1"),
    ])
    def test_metric_the_dev_path_never_computes_rejected(self, kind, metric):
        with pytest.raises(ValueError, match=metric):
            TaskSpec("x", kind, ("a",), metric)

    @pytest.mark.parametrize("kind,metric", [
        ("ner", "entity_f1"), ("pair", "accuracy"), ("pair", "micro_f1"),
        ("multilabel", "micro_f1"),
    ])
    def test_computed_metrics_accepted(self, kind, metric):
        assert TaskSpec("x", kind, ("a",), metric).selection_metric == metric


class TestMarkConcepts:
    WORDS = ["the", "rash", "was", "treated", "with", "cream"]

    def test_length_grows_by_four(self):
        marked = mark_concepts(self.WORDS, (1, 2), "problem", (5, 6), "treatment")
        assert len(marked) == len(self.WORDS) + 4
        assert marked == ["the", "[problem-start]", "rash", "[problem-end]",
                          "was", "treated", "with", "[treatment-start]",
                          "cream", "[treatment-end]"]

    def test_span_order_does_not_matter(self):
        a = mark_concepts(self.WORDS, (1, 2), "problem", (5, 6), "treatment")
        b = mark_concepts(self.WORDS, (5, 6), "treatment", (1, 2), "problem")
        assert a == b

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            mark_concepts(self.WORDS, (1, 4), "problem", (3, 5), "test")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            mark_concepts(self.WORDS, (0, 1), "problem", (5, 9), "test")

    def test_marker_tokens_sorted_pairs(self):
        assert marker_tokens(["b", "a"]) == \
            ["[a-start]", "[a-end]", "[b-start]", "[b-end]"]


class TestExtendForMarkers:
    def test_grows_vocab_and_tables(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=8)
        params = init_params(config, 0)
        new_vocab, new_params, new_config = extend_for_markers(
            small_vocab, params, config, ("problem", "test"))
        assert len(new_vocab) == len(small_vocab) + 4
        assert new_config.vocab_size == config.vocab_size + 4
        assert new_params["tok_emb"].shape[0] == config.vocab_size + 4
        # the masked-LM head, which no task reads, is dropped, not grown
        assert list(new_params) == [name for name in params if not name.startswith("mlm_")]
        # existing rows untouched, marker rows seed 0's first draw
        assert np.array_equal(new_params["tok_emb"][:config.vocab_size],
                              params["tok_emb"])
        assert np.array_equal(new_params["tok_emb"][config.vocab_size:],
                              np.random.default_rng(0).normal(0.0, 0.02, size=(4, 8)))
        assert new_vocab.id_of("the") == small_vocab.id_of("the")
        assert "[problem-start]" in new_vocab

    def test_no_concept_types_returns_inputs(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=8)
        params = init_params(config, 0)
        v, p, c = extend_for_markers(small_vocab, params, config, ())
        assert v is small_vocab and p is params and c is config

    def test_idempotent_once_extended(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=8)
        params = init_params(config, 0)
        v1, p1, c1 = extend_for_markers(small_vocab, params, config, ("a",))
        v2, p2, c2 = extend_for_markers(v1, p1, c1, ("a",))
        assert v2 is v1 and p2 is p1 and c2 is c1


class TestPrepareDocument:
    def test_padding_arithmetic(self, small_vocab):
        ids = prepare_document("the patient denies", small_vocab, 128)
        n_real = 2 + 3  # CLS + 3 one-piece words + SEP
        assert ids.shape == (n_real,)  # unpadded
        assert PAD_ID not in ids
        assert ids[0] == CLS_ID
        assert ids[n_real - 1] == SEP_ID
        pieces = [small_vocab.id_of(w) for w in ("the", "patient", "denies")]
        assert np.array_equal(ids, frame(pieces, None, 128))

    def test_long_document_truncates_to_budget(self, small_vocab):
        text = " ".join(["pain"] * 900)
        ids = prepare_document(text, small_vocab, 512)
        assert ids.shape == (512,)
        assert PAD_ID not in ids
        content = ids[1:511]
        assert np.all(content == small_vocab.id_of("pain"))
        assert ids[511] == SEP_ID

    def test_short_vs_long_prefix_property(self, small_vocab):
        text = " ".join(["severe", "pain", "fever"] * 100)
        short_ids = prepare_document(text, small_vocab, 128)
        long_ids = prepare_document(text, small_vocab, 512)
        short_content = short_ids[1:127]
        long_content = long_ids[1:127]
        assert np.array_equal(short_content, long_content)

    def test_tiny_budget_rejected(self, small_vocab):
        with pytest.raises(ValueError):
            prepare_document("pain", small_vocab, 2)


class TestPreparePair:
    def test_segments_and_framing(self, small_vocab):
        ids = prepare_pair("no pain", "severe fever", small_vocab, 16)
        padded = stack_rows([ids, np.arange(5, 21)])  # padded to 16 in a batch
        mask, segments = padded.attention_mask[0], padded.segment_ids[0]
        assert ids[0] == CLS_ID
        sep_positions = np.nonzero(ids == SEP_ID)[0]
        assert len(sep_positions) == 2
        first_sep, second_sep = sep_positions
        assert second_sep == len(ids) - 1
        assert np.all(segments[:first_sep + 1] == 0)
        assert np.all(segments[first_sep + 1:second_sep + 1] == 1)
        assert np.all(segments[second_sep + 1:] == 0)  # padding back to 0
        assert int(mask.sum()) == second_sep + 1

    def test_longer_side_truncated_first(self, small_vocab):
        long_a = " ".join(["pain"] * 30)
        ids = prepare_pair(long_a, "fever", small_vocab, 12)
        fever_id = small_vocab.id_of("fever")
        assert fever_id in ids  # the short side survives
        assert len(ids) == 12

    def test_too_small_rejected(self, small_vocab):
        with pytest.raises(ValueError):
            prepare_pair("a", "b", small_vocab, 4)

    def test_batches_prepared_at_two_lengths_stack(self, small_vocab):
        short = prepare_pair("no pain", "fever", small_vocab, 16)
        long = prepare_pair(" ".join(["pain"] * 40), "severe fever", small_vocab, 32)
        assert len(short) == 6 and len(long) == 32
        batch = stack_rows([short, long])
        assert batch.shape == (2, 32)
        assert np.array_equal(batch.token_ids[0, :6], short)
        assert np.all(batch.token_ids[0, 6:] == PAD_ID)
        assert np.array_equal(batch.token_ids[1], long)
        assert batch.attention_mask[0].tolist() == [1] * 6 + [0] * 26
        assert batch.attention_mask[1].all()


class TestPrepareMarkedSentence:
    def test_markers_map_to_single_ids(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=16)
        params = init_params(config, 0)
        vocab, params, config = extend_for_markers(
            small_vocab, params, config, ("problem",))
        ids = prepare_marked_sentence(["severe", "pain", "today"], (0, 2), "problem",
                                      (2, 3), "problem", vocab, 16)
        start, end = vocab.id_of("[problem-start]"), vocab.id_of("[problem-end]")
        severe, pain, today = (word_ids(vocab, w) for w in ("severe", "pain", "today"))
        assert ids.tolist() == [CLS_ID, start, *severe, *pain, end, start, *today, end, SEP_ID]

    def test_a_word_spelled_like_a_token_is_text(self, small_vocab):
        # a word spelled like a special, a continuation piece or a marker is
        # normalized into pieces like any other word; only the four markers
        # mark_concepts inserts map straight to their ids
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=32)
        vocab, _, _ = extend_for_markers(small_vocab, init_params(config, 0), config,
                                         ("problem",))
        assert "##e" in vocab  # a continuation piece
        words = ["[SEP]", "chest", "[PAD]", "##e", "[problem-start]", "fever"]
        ids = prepare_marked_sentence(words, (1, 2), "problem", (5, 6), "problem", vocab, 32)
        markers = [vocab.id_of(m) for m in ("[problem-start]", "[problem-end]")]
        texts = [word_ids(vocab, word) for word in words]
        assert ids.tolist() == [CLS_ID, *texts[0], markers[0], *texts[1], markers[1], *texts[2],
                                *texts[3], *texts[4], markers[0], *texts[5], markers[1], SEP_ID]
        assert not {PAD_ID, SEP_ID} & {*ids[1:-1]}
        assert texts[3] != (vocab.id_of("##e"),) and ids.tolist().count(markers[0]) == 2


class TestWordPieces:
    def test_attached_punctuation_is_split(self, small_vocab):
        ids = word_ids(small_vocab, "pain.")
        assert ids[0] == small_vocab.id_of("pain") and ids[-1] == small_vocab.id_of(".")

    def test_unnormalizable_word_rejected(self, small_vocab):
        with pytest.raises(ValueError):
            word_ids(small_vocab, " ")


class TestEncodeNerExample:
    TAG_TO_ID = {"O": 0, "B-problem": 1, "I-problem": 2}

    def test_row_structure(self, small_vocab):
        row = encode_ner_example(["severe", "pain"], ["B-problem", "I-problem"],
                                 small_vocab, self.TAG_TO_ID, 16)
        # unpadded: [CLS] severe pain [SEP], all real, all segment 0
        assert row.ids.tolist() == [CLS_ID, small_vocab.id_of("severe"),
                                    small_vocab.id_of("pain"), SEP_ID]
        assert not stack_rows([row.ids]).segment_ids.any()
        assert row.word_tags == ["B-problem", "I-problem"]
        assert row.first_piece_positions == [1, 2]  # CLS carries no tag
        assert row.tag_ids == [1, 2]

    def test_truncation_drops_trailing_words(self, small_vocab):
        words = ["pain"] * 30
        tags = ["B-problem"] * 30
        row = encode_ner_example(words, tags, small_vocab, self.TAG_TO_ID, 8)
        assert len(row.ids) == 8
        assert len(row.word_tags) == len(row.first_piece_positions) <= 6

    def test_unknown_tag_rejected(self, small_vocab):
        with pytest.raises(ValueError, match="B-drug"):
            encode_ner_example(["x"], ["B-drug"], small_vocab, self.TAG_TO_ID, 8)

    def test_length_mismatch_rejected(self, small_vocab):
        with pytest.raises(ValueError):
            encode_ner_example(["a", "b"], ["O"], small_vocab, self.TAG_TO_ID, 8)

    def test_ignored_positions_do_not_affect_loss(self, small_vocab, monkeypatch):
        # a training step scores each row's first pieces, with their tags, and
        # nothing else: not [CLS], [SEP], continuation pieces or padding
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=16)
        params = init_head(init_params(config, 0), config, "head_token", 3, seed=1)
        task = TaskSpec("toy-ner", "ner", ("problem",), "entity_f1")
        rows = [encode_ner_example(words, tags, small_vocab, self.TAG_TO_ID, 16)
                for words, tags in [(["severe", "pain"], ["B-problem", "I-problem"]),
                                    (["no"], ["O"])]]
        seen = []

        def spy(params, config, batch, positions, tag_ids, rng=None):
            seen.append((batch, positions, tag_ids))
            return token_classify_loss(params, config, batch, positions, tag_ids, rng=rng)

        monkeypatch.setattr(finetune, "token_classify_loss", spy)
        finetune._train_step(task, params, config, rows, init_optimizer(params), 1e-4, None)
        [(batch, positions, tag_ids)] = seen
        assert batch.shape == (2, 4)
        assert positions.tolist() == [[0, 1], [0, 2], [1, 1]]  # row-major, ascending
        assert list(tag_ids) == [1, 2, 0]


def _rows_equal(a, b):
    """Rows of load_task_rows and of the direct encoders hold equal arrays."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, tuple):
            assert np.array_equal(x[0], y[0]) and x[1] == y[1]
        else:
            assert np.array_equal(x.ids, y.ids)
            assert ((x.first_piece_positions, x.tag_ids, x.word_tags)
                    == (y.first_piece_positions, y.tag_ids, y.word_tags))


class TestLoadTaskRows:
    """load_task_rows gives each kind exactly the rows its encoder builds."""

    def test_ner(self, small_vocab, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("severe\tB-problem\npain\tI-problem\n\nno\tO\n", encoding="utf-8")
        task = builtin_task("ner-2010")
        index = {tag: i for i, tag in enumerate(task.bio_tags())}
        direct = [encode_ner_example(["severe", "pain"], ["B-problem", "I-problem"],
                                     small_vocab, index, 8),
                  encode_ner_example(["no"], ["O"], small_vocab, index, 8)]
        _rows_equal(load_task_rows(task, path, small_vocab, 8), direct)

    def test_pair(self, small_vocab, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"premise": "no pain", "hypothesis": "pain", "label": "neutral"}\n',
                        encoding="utf-8")
        direct = [(prepare_pair("no pain", "pain", small_vocab, 12), NLI_LABELS.index("neutral"))]
        _rows_equal(load_task_rows(builtin_task("mednli"), path, small_vocab, 12), direct)

    def test_relation(self, small_vocab, tmp_path):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=16)
        task = builtin_task("re-2010")
        vocab, _, _ = extend_for_markers(small_vocab, init_params(config, 0), config,
                                         task.concept_types)
        path = tmp_path / "rel.jsonl"
        path.write_text('{"words": ["pain", "and", "fever"], "span_a": [0, 1], '
                        '"type_a": "problem", "span_b": [2, 3], "type_b": "test", '
                        '"label": "test-reveals-problem"}\n', encoding="utf-8")
        direct = [(prepare_marked_sentence(["pain", "and", "fever"], (0, 1), "problem", (2, 3),
                                           "test", vocab, 16), 1)]
        _rows_equal(load_task_rows(task, path, vocab, 16), direct)

    def test_multilabel(self, small_vocab, tmp_path):
        task = TaskSpec("toy-multi", "multilabel", ("x", "y", "z"), "micro_f1")
        path = tmp_path / "docs.jsonl"
        path.write_text('{"text": "alpha beta", "labels": ["z", "x"]}\n\n'
                        '{"text": "delta", "labels": []}\n', encoding="utf-8")
        direct = [(prepare_document("alpha beta", small_vocab, 12), {0, 2}),
                  (prepare_document("delta", small_vocab, 12), set())]
        _rows_equal(load_task_rows(task, path, small_vocab, 12), direct)


class TestCheckDevRows:
    """A dev set with no gold entity or label would score every model 1.0."""

    def test_refuses_only_a_dev_set_with_nothing_to_select_on(self, small_vocab):
        tags = {"O": 0, "B-problem": 1, "I-problem": 2}
        plain, tagged = (encode_ner_example(["no", "pain"], row_tags, small_vocab, tags, 8)
                         for row_tags in (["O", "O"], ["O", "B-problem"]))
        ner, multi = builtin_task("ner-2010"), TaskSpec("m", "multilabel", ("x",), "micro_f1")
        doc = prepare_document("pain", small_vocab, 8)
        with pytest.raises(ValueError, match="^dev.tsv: dev set has no gold entity to select on$"):
            finetune.check_dev_rows(ner, [plain, plain], "dev.tsv")
        with pytest.raises(ValueError, match="^d.jsonl: dev set has no gold label to select on$"):
            finetune.check_dev_rows(multi, [(doc, set())], "d.jsonl")
        finetune.check_dev_rows(ner, [plain, tagged], "dev.tsv")
        finetune.check_dev_rows(multi, [(doc, set()), (doc, {0})], "d.jsonl")
        # a pair row always holds its label, label id 0 included
        finetune.check_dev_rows(builtin_task("mednli"), [(doc, 0)], "nli.jsonl")

    @pytest.mark.parametrize("kind, what", [("ner", "entity"), ("multilabel", "label")])
    def test_library_call_refuses_a_dev_set_with_nothing_to_select_on(self, small_vocab,
                                                                      kind, what):
        config, params, task, rows = toy_task(kind, small_vocab)
        empty = {"ner": rows[3:], "multilabel": rows[2:3]}[kind]  # all O; no label
        with pytest.raises(ValueError, match=f"^dev set has no gold {what} to select on$"):
            finetune_task(config, params, task, rows, empty, [0], FinetuneConfig(epochs=1))


class TestNerRowFraming:
    def test_ner_rows_stack_as_their_ids(self, small_vocab):
        tag_to_id = {"O": 0, "B-problem": 1, "I-problem": 2}
        rows = [encode_ner_example(["severe", "pain"], ["B-problem", "I-problem"],
                                   small_vocab, tag_to_id, 8),
                encode_ner_example(["no"], ["O"], small_vocab, tag_to_id, 8)]
        batch, _ = finetune._stacked(rows)
        assert [len(r.ids) for r in rows] == [4, 3]  # [CLS] severe pain [SEP]; [CLS] no [SEP]
        assert batch.shape == (2, 4)
        assert batch.token_ids.tolist() == [rows[0].ids.tolist(), rows[1].ids.tolist() + [PAD_ID]]
        assert batch.attention_mask.tolist() == [[1, 1, 1, 1], [1, 1, 1, 0]]
        assert not batch.segment_ids.any()


class TestFinetuneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinetuneConfig(epochs=0)
        with pytest.raises(ValueError):
            FinetuneConfig(lr=0.0)
        with pytest.raises(ValueError):
            FinetuneConfig(max_steps=0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            FinetuneConfig(lr=lr)


def toy_pair_setup(small_vocab):
    config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                           n_layers=1, n_heads=2, ff_dim=16, max_positions=12)
    params = mlm_params(config, 0)
    task = TaskSpec("toy-pair", "pair", ("match", "clash"), "accuracy")
    rows = []
    for text_a, text_b, label in [
        ("alpha beta", "alpha beta", 0), ("alpha", "alpha gamma", 0),
        ("beta delta", "beta", 0), ("alpha", "delta", 1),
        ("beta gamma", "delta", 1), ("gamma", "alpha beta", 1),
    ]:
        rows.append((prepare_pair(text_a, text_b, small_vocab, 12), label))
    return config, params, task, rows


class TestFinetuneTask:
    def test_five_seeds_five_runs(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        runs = finetune_task(config, params, task, rows, rows,
                             seeds=[0, 1, 2, 3, 4],
                             hyper=FinetuneConfig(epochs=1, batch_size=3, lr=1e-3))
        assert len(runs) == 5
        assert [r.seed for r in runs] == [0, 1, 2, 3, 4]
        for run in runs:
            assert 0.0 <= run.dev_metric <= 1.0
            assert "head_pair_w" in run.params
            assert run.best_epoch == 0

    def test_same_seed_reproduces_exactly(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        hyper = FinetuneConfig(epochs=2, batch_size=2, lr=1e-3)
        a = finetune_task(config, params, task, rows, rows, [7], hyper)[0]
        b = finetune_task(config, params, task, rows, rows, [7], hyper)[0]
        assert a.dev_metric == b.dev_metric
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_different_seeds_vary(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        hyper = FinetuneConfig(epochs=1, batch_size=2, lr=1e-3)
        a = finetune_task(config, params, task, rows, rows, [0], hyper)[0]
        b = finetune_task(config, params, task, rows, rows, [1], hyper)[0]
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    @staticmethod
    def adam_steps(small_vocab, monkeypatch, epochs, max_steps):
        """Adam steps taken and the run, fine-tuning the 6 toy rows at batch 4
        (ceil(6 / 4) = 2 steps an epoch)."""
        config, params, task, rows = toy_pair_setup(small_vocab)
        calls = []

        def counted(*args):
            calls.append(args)
            return adam_step(*args)

        monkeypatch.setattr(finetune, "adam_step", counted)
        hyper = FinetuneConfig(epochs=epochs, batch_size=4, lr=1e-3, max_steps=max_steps)
        run = finetune_task(config, params, task, rows, rows, [0], hyper)[0]
        return len(calls), run

    # the first limit reached ends training, and only epochs that ran are scored
    def test_max_steps_caps_updates(self, small_vocab, monkeypatch):
        steps, run = self.adam_steps(small_vocab, monkeypatch, 5, 1)
        assert steps == 1 and run.best_epoch == 0
        steps, run = self.adam_steps(small_vocab, monkeypatch, 2, 3)  # mid second epoch
        assert steps == 3 and run.best_epoch in (0, 1)

    def test_epochs_end_training_before_max_steps(self, small_vocab, monkeypatch):
        steps, run = self.adam_steps(small_vocab, monkeypatch, 1, 100)
        assert steps == math.ceil(6 / 4) and run.best_epoch == 0

    def test_empty_train_rejected(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        with pytest.raises(ValueError, match="non-empty"):
            finetune_task(config, params, task, [], rows, [0], FinetuneConfig())

    def test_no_seeds_rejected(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        with pytest.raises(SettingError, match=r"^seeds must hold at least one seed, got \[\]$"):
            finetune_task(config, params, task, rows, rows, [], FinetuneConfig())

    def test_repeated_seed_rejected(self, small_vocab):
        config, params, task, rows = toy_pair_setup(small_vocab)
        with pytest.raises(ValueError, match=r"^seeds must be distinct, got \[1, 0, 1\]$"):
            finetune_task(config, params, task, rows, rows, [1, 0, 1], FinetuneConfig())

    def test_both_training_loops_take_the_one_seed_rule(self, small_vocab, monkeypatch):
        # pretraining's seed and fine-tuning's seeds are refused by one rule,
        # and so is the patient split's seed
        config, params, task, rows = toy_pair_setup(small_vocab)
        texts, vocab, lm_config = test_pretrain.TestRunPretraining.setup_run()
        seen = []

        def spy(name, seeds):
            seen.append((name, seeds))
            check_seeds(name, seeds)

        for module in (pretrain, finetune, corpus):
            assert module.check_seeds is check_seeds
            monkeypatch.setattr(module, "check_seeds", spy)
        with pytest.raises(SettingError, match=r"^seed must be >= 0, got -1$"):
            pretrain.run_pretraining(texts, vocab, lm_config, PhasePlan(((16, 1),)),
                                     MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(),
                                     seed=-1)
        with pytest.raises(SettingError, match=r"^seeds must be >= 0, got -1$"):
            finetune_task(config, params, task, rows, rows, (1, -1), FinetuneConfig())
        with pytest.raises(SettingError, match=r"^seed must be an int, got 1.5$"):
            corpus.split_by_patient(["p1"], (8, 1, 1), 1.5)
        assert seen == [("seed", -1), ("seeds", [1, -1]), ("seed", 1.5)]

    @pytest.mark.parametrize("seeds,refusal", [
        (True, "seed must be an int, got True"), (1.5, "seed must be an int, got 1.5"),
        (-1, "seed must be >= 0, got -1"), ([True], "seed must be an int, got True"),
        ([], "seed must hold at least one seed, got []"),
        ([0, 2, 0], "seed must be distinct, got [0, 2, 0]"),
    ], ids=["bool", "float", "negative", "list-of-a-bool", "empty-list", "repeated"])
    def test_the_seed_rule(self, seeds, refusal):
        with pytest.raises(SettingError, match=f"^{re.escape(refusal)}$"):
            check_seeds("seed", seeds)
        check_seeds("seed", 0)
        check_seeds("seed", [3, 0])

    def test_multilabel_task_runs(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=12)
        params = init_params(config, 0)
        task = TaskSpec("toy-multi", "multilabel", ("x", "y", "z"), "micro_f1")
        rows = [
            (prepare_document("alpha beta", small_vocab, 12), [0, 2]),
            (prepare_document("delta", small_vocab, 12), [1]),
            (prepare_document("gamma gamma", small_vocab, 12), []),
            (prepare_document("beta delta", small_vocab, 12), [0]),
        ]
        runs = finetune_task(config, params, task, rows, rows, [0],
                             FinetuneConfig(epochs=1, batch_size=2, lr=1e-3))
        assert len(runs) == 1 and 0.0 <= runs[0].dev_metric <= 1.0


def toy_task(kind, small_vocab, dropout=0.0):
    """(config, params with the kind's head, task, rows) for a toy task."""
    config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8, n_layers=1,
                           n_heads=2, ff_dim=16, max_positions=12, dropout=dropout)
    if kind == "pair":
        _, params, task, rows = toy_pair_setup(small_vocab)
    elif kind == "ner":
        params = mlm_params(config, 0)
        task = TaskSpec("toy-ner", "ner", ("problem",), "entity_f1")
        index = {tag: i for i, tag in enumerate(task.outputs)}
        rows = [encode_ner_example(words.split(), tags.split(), small_vocab, index, 12)
                for words, tags in [("severe pain today", "B-problem I-problem O"),
                                    ("no fever", "O B-problem"),
                                    ("patient denies severe fever", "O O B-problem I-problem"),
                                    ("alpha beta", "O O")]]
    else:
        params = mlm_params(config, 0)
        task = TaskSpec("toy-multi", "multilabel", ("x", "y", "z"), "micro_f1")
        rows = [(prepare_document(text, small_vocab, 12), labels)
                for text, labels in [("alpha beta", {0, 2}), ("delta", {1}),
                                     ("gamma gamma", set()), ("beta delta", {0})]]
    head = {"ner": "head_token", "pair": "head_pair", "multilabel": "head_multi"}[kind]
    return config, init_head(params, config, head, len(task.outputs), 5), task, rows


def toy_relation_task(small_vocab):
    """(config, params, task, rows) for re-2010 on marked toy sentences, the
    vocabulary and store grown by the task's markers."""
    config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8, n_layers=1,
                           n_heads=2, ff_dim=16, max_positions=16)
    task = builtin_task("re-2010")
    vocab, params, config = extend_for_markers(small_vocab, init_params(config, 0), config,
                                               task.concept_types)
    rows = [(prepare_marked_sentence(words.split(), a, "problem", b, "test", vocab, 16), label)
            for words, a, b, label in [("severe pain and fever", (0, 2), (3, 4), 1),
                                       ("no fever today", (1, 2), (2, 3), 0)]]
    return config, params, task, rows


class TestTaskModelsHoldNoMlmHead:
    """No task reads the masked-LM head, so fine-tuning drops it, and every
    other head it holds too."""

    @pytest.mark.parametrize("kind", ["ner", "pair", "multilabel", "re-2010"])
    def test_tuned_store_is_the_encoder_and_task_head(self, small_vocab, kind):
        if kind == "re-2010":
            config, params, task, rows = toy_relation_task(small_vocab)
            params = init_head(params, config, "head_pair", len(task.outputs), 5)
        else:
            config, params, task, rows = toy_task(kind, small_vocab)
            assert "mlm_w" in params and "mlm_b" in params
        hyper = FinetuneConfig(epochs=1, batch_size=2)
        for run in finetune_task(config, params, task, rows, rows, [0, 1], hyper):
            assert list(run.params) == [name for name in params if not name.startswith("mlm_")]

    def test_the_earlier_layout_tunes_to_the_same_bytes(self, small_vocab, tmp_path):
        # earlier releases wrote mlm_w and mlm_b between emb_ln_b and layer0;
        # the reader matches tensor names, so that file loads and tunes to the
        # bytes the same tensors tune to in this release's layout
        config, params, task, rows = toy_pair_setup(small_vocab)
        config = replace(config, dropout=0.1)
        names = list(param_shapes(config))
        at = names.index("layer0.attn_q_w")
        shapes = dict(params.layout)
        earlier = params.resized({name: shapes[name] for name in
                                  [*names[:at], "mlm_w", "mlm_b", *names[at:]]})
        tuned = []
        for store, name in ((earlier, "earlier"), (params, "now")):
            save_checkpoint(tmp_path / f"{name}.ckpt", config, store)
            loaded_config, loaded = load_checkpoint(tmp_path / f"{name}.ckpt")
            assert list(loaded) == list(store)
            run, = finetune_task(loaded_config, loaded, task, rows, rows, [3],
                                 FinetuneConfig(epochs=2, batch_size=2))
            save_checkpoint(tmp_path / f"{name}.tuned.ckpt", config, run.params)
            tuned.append((tmp_path / f"{name}.tuned.ckpt").read_bytes())
        assert tuned[0] == tuned[1]

    def test_a_store_of_another_encoder_is_refused_by_name(self, small_vocab):
        # resizing to the config's encoder would zero-fill the missing rows
        config, params, task, rows = toy_pair_setup(small_vocab)
        short = init_params(replace(config, vocab_size=config.vocab_size - 5), 0)
        with pytest.raises(ValueError, match="^params hold no tok_emb of the shape the config "
                                             "gives it$"):
            finetune_task(config, short, task, rows, rows, [0], FinetuneConfig(epochs=1))

    def test_a_head_of_another_kind_is_dropped_too(self, small_vocab):
        # a store tuned on pairs, re-tuned on tagging: its head_pair was
        # trained for another encoder, and Adam would step it on zero gradients
        config, params, task, rows = toy_task("ner", small_vocab)
        paired = init_head(params, config, "head_pair", 3, seed=9)
        hyper = FinetuneConfig(epochs=2, batch_size=2)
        runs = finetune_task(config, paired, task, rows, rows, [0, 1], hyper)
        bare = finetune_task(config, params, task, rows, rows, [0, 1], hyper)
        for run, plain in zip(runs, bare):
            assert list(run.params) == [*param_shapes(config), "head_token_w", "head_token_b"]
            for name in run.params:
                np.testing.assert_array_equal(run.params[name], plain.params[name])

    def test_mlm_loss_on_a_tuned_store_names_the_head(self, small_vocab):
        config, params, task, rows = toy_task("pair", small_vocab)
        tuned = finetune_task(config, params, task, rows, rows, [0],
                              FinetuneConfig(epochs=1, batch_size=2))[0].params
        with pytest.raises(ValueError, match=r"^the model has no mlm head \(mlm_w, mlm_b\)$"):
            mlm_forward_loss(tuned, config, stack_rows([rows[0][0]]), [[0, 1]], [6])

    def test_predicting_with_another_head_names_the_missing_one(self, small_vocab):
        config, params, task, rows = toy_task("ner", small_vocab)
        pair_rows = [prepare_pair("alpha", "beta", small_vocab, 12)]
        with pytest.raises(ValueError, match=r"^the model has no head_pair head"):
            predict_pair_labels(params, config, pair_rows, ["match", "clash"])


class TestDropout:
    @pytest.mark.parametrize("kind", ["ner", "pair", "multilabel"])
    def test_dropout_trains_differently_and_reruns_exactly(self, small_vocab, kind):
        hyper = FinetuneConfig(epochs=1, batch_size=2, lr=1e-2)

        def run(dropout):
            config, params, task, rows = toy_task(kind, small_vocab, dropout)
            return finetune_task(config, params, task, rows, rows, [3], hyper)[0].params

        plain, a, b = run(0.0), run(0.1), run(0.1)
        assert any(not np.array_equal(plain[k], a[k]) for k in plain)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    @pytest.mark.parametrize("kind", ["ner", "pair", "multilabel"])
    def test_prediction_ignores_dropout(self, small_vocab, kind, monkeypatch):
        config, params, task, rows = toy_task(kind, small_vocab)
        dropped = replace(config, dropout=0.5)
        batch, _ = finetune._stacked(rows if kind == "ner" else [r[0] for r in rows])
        assert np.array_equal(forward(params, dropped, batch), forward(params, config, batch))
        # toy predictions barely move under dropout, so also check that
        # prediction calls forward without an rng, i.e. in eval mode
        rngs = []

        def spy(*args, **kwargs):
            rngs.append(args[3] if len(args) > 3 else kwargs.get("rng"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(finetune, "forward", spy)
        assert (predict(kind, params, dropped, task, rows)
                == predict(kind, params, config, task, rows))
        assert rngs and all(rng is None for rng in rngs)


def predict(kind, params, config, task, rows):
    """The kind's predict_* function on toy_task rows."""
    if kind == "ner":
        return predict_ner_tags(params, config, rows, task.outputs)
    predict_rows = predict_pair_labels if kind == "pair" else predict_label_sets
    return predict_rows(params, config, [r[0] for r in rows], task.outputs)


class TestPredictReadsOnly:
    @pytest.mark.parametrize("kind", ["ner", "pair", "multilabel"])
    def test_last_ff_in_sees_only_the_read_positions(self, small_vocab, kind, monkeypatch):
        config, params, task, rows = toy_task(kind, small_vocab)
        calls = last_layer_rows(monkeypatch, config)
        monkeypatch.setattr(finetune, "PREDICT_CHUNK", 3)
        predict(kind, params, config, task, rows)
        n_reads = [len(r.first_piece_positions) for r in rows] if kind == "ner" else [1] * len(rows)
        chunks = [sum(n_reads[:3]), sum(n_reads[3:])]
        assert calls == {"attn_q": chunks, "ff_in": chunks}


class TestNonFiniteModel:
    """Prediction and dev scoring refuse a model whose scores hold a NaN or an
    infinity, naming the first row that has one."""

    @pytest.mark.parametrize("kind", ["ner", "pair", "multilabel"])
    def test_refused_naming_the_first_bad_row(self, small_vocab, kind, monkeypatch):
        config, params, task, rows = toy_task(kind, small_vocab)
        # a huge embedding of pieces the first two rows lack: finite
        # parameters whose hidden states overflow to NaN in row 2 onwards
        ids = [set(r.ids if kind == "ner" else r[0]) for r in rows]
        only_later = sorted(ids[2] - ids[0] - ids[1])
        assert only_later
        params["tok_emb"][only_later] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in (1, 2, 32):
                monkeypatch.setattr(finetune, "PREDICT_CHUNK", chunk)
                with pytest.raises(ValueError, match=r"^row 2: .* NaN or infinity"):
                    predict(kind, params, config, task, rows)
            with pytest.raises(ValueError, match=r"^row 2: .* NaN or infinity"):
                finetune._dev_metric(task, params, config, rows)


class TestPredictLabelSets:
    def test_threshold_against_direct_probabilities(self, small_vocab):
        config = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=8,
                               n_layers=1, n_heads=2, ff_dim=16, max_positions=12)
        params = init_head(init_params(config, 2), config, "head_multi", 3, seed=3)
        labels = ["x", "y", "z"]
        rows = [prepare_document("alpha beta", small_vocab, 12),
                prepare_document("delta gamma", small_vocab, 12)]
        sets = predict_label_sets(params, config, rows, labels)
        for row, got in zip(rows, sets):
            hidden = forward(params, config, stack_rows([row]))
            logits = _head_logits(params, "head_multi", hidden[:, 0], 3)
            probs = 1.0 / (1.0 + np.exp(-logits[0]))
            expected = {labels[i] for i in range(3) if probs[i] > 0.5}
            assert got == expected


class TestReaders:
    def test_ner_round_trip(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("the\tO\nrash\tB-problem\n\nno\tO\n", encoding="utf-8")
        sentences = list(numbered_ner_sentences(path, str))
        assert sentences == [(1, ["the", "rash"], ["O", "B-problem"]),
                             (4, ["no"], ["O"])]

    def test_ner_malformed_line_located(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("the\tO\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"2"):
            list(numbered_ner_sentences(path, str))

    def test_ner_empty_file(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("", encoding="utf-8")
        assert list(numbered_ner_sentences(path, str)) == []
