"""End-to-end coverage of the command-line interface via dispatch()."""

import contextlib
import functools
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from clinlm import finetune, pretrain
from clinlm.cli import build_parser, dispatch, read_config
from clinlm.encoder import ParamStore, load_checkpoint, param_shapes
from clinlm.finetune import builtin_task
from clinlm.wordpiece import read_vocab

CORPUS_LINES = [
    "the patient has severe pain",
    "no pain today",
    "patient denies fever",
    "severe fever and pain",
    "the patient has no fever",
    "pain and fever today",
]


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def vocab_file(tmp_path, corpus_file, capsys):
    path = tmp_path / "vocab.txt"
    code = dispatch(["train-vocab", "--corpus", str(corpus_file),
                     "--size", "80", "--min-frequency", "1",
                     "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture()
def notes_file(tmp_path):
    path = tmp_path / "notes.jsonl"
    rows = []
    for i in range(6):
        rows.append({
            "note_id": f"n{i}", "patient_id": f"p{i % 3}",
            "encounter_id": f"e{i}", "note_type": "Discharge Summary",
            "provider_type": "Physician", "text": "word " * 2500,
        })
    rows.append({
        "note_id": "n9", "patient_id": "p0", "encounter_id": "e9",
        "note_type": "Discharge Summary", "provider_type": "Nursing",
        "text": "word " * 2500,
    })
    rows.append({
        "note_id": "n10", "patient_id": "p1", "encounter_id": "e10",
        "note_type": "Discharge Summary", "provider_type": "Physician",
        "text": "short",
    })
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


class TestParsing:
    def test_no_arguments_is_an_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code != 0
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code != 0
        assert err.strip().count("\n") == 0  # one-line diagnostic

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(["pretrain", "--help"], capsys)
        assert (code, err) == (0, "")
        assert "--config" in out

    def test_module_entry_point(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("pain.\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "clinlm.cli", "normalize",
             "--input", str(src), "--output", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == "pain .\n"


class TestTextCommands:
    def test_normalize_reruns_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("Dr.Smith saw the patient.\nBP was 120/80.\n",
                       encoding="utf-8")
        out = tmp_path / "out.txt"
        code, _, _ = run_cli(["normalize", "--input", str(src),
                              "--output", str(out)], capsys)
        assert code == 0
        first = out.read_bytes()
        assert b"Dr . Smith" in first
        assert b"120/80" in first
        run_cli(["normalize", "--input", str(src), "--output", str(out)], capsys)
        assert out.read_bytes() == first

    def test_encode_pieces_and_ids(self, tmp_path, vocab_file, capsys):
        src = tmp_path / "in.txt"
        src.write_text("no pain today\n", encoding="utf-8")
        pieces_out = tmp_path / "pieces.txt"
        ids_out = tmp_path / "ids.txt"
        assert dispatch(["encode", "--vocab", str(vocab_file),
                         "--input", str(src), "--output", str(pieces_out)]) == 0
        assert dispatch(["encode", "--vocab", str(vocab_file), "--ids",
                         "--input", str(src), "--output", str(ids_out)]) == 0
        capsys.readouterr()
        pieces = pieces_out.read_text(encoding="utf-8").split()
        ids = [int(t) for t in ids_out.read_text(encoding="utf-8").split()]
        assert len(pieces) == len(ids)
        vocab = read_vocab(vocab_file)
        assert [vocab.token_of(i) for i in ids] == pieces

    def test_train_vocab_output_loads(self, vocab_file):
        vocab = read_vocab(vocab_file)
        assert 5 < len(vocab) <= 80  # tiny corpus saturates below the target
        assert vocab.token_of(0) == "[PAD]"

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_train_vocab_empty_corpus_names_the_file(self, tmp_path, text, capsys):
        corpus, vocab = tmp_path / "empty.txt", tmp_path / "vocab.txt"
        corpus.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["train-vocab", "--corpus", str(corpus), "--size", "40",
                                "--output", str(vocab)], capsys)
        assert code == 1
        assert err == f"error: {corpus}: training corpus contains no words\n"
        assert not vocab.exists()

    def test_train_vocab_bad_min_frequency_is_one_error_line(self, tmp_path, corpus_file,
                                                              capsys):
        vocab = tmp_path / "vocab.txt"
        code, _, err = run_cli(["train-vocab", "--corpus", str(corpus_file), "--size", "80",
                                "--min-frequency", "0", "--output", str(vocab)], capsys)
        assert code == 1
        assert err == "error: --min-frequency must be >= 1, got 0\n"
        assert not vocab.exists()

    def test_compress_report_baseline_zero(self, tmp_path, corpus_file,
                                           vocab_file, capsys):
        code, out, _ = run_cli(
            ["compress-report", "--dataset", f"notes={corpus_file}",
             "--vocab", f"base={vocab_file}", "--vocab", f"alt={vocab_file}",
             "--baseline", "base"], capsys)
        assert code == 0
        assert "+0%" in out or "0%" in out
        report_path = tmp_path / "report.tsv"
        code, _, _ = run_cli(
            ["compress-report", "--dataset", f"notes={corpus_file}",
             "--vocab", f"base={vocab_file}", "--baseline", "base",
             "--output", str(report_path)], capsys)
        assert code == 0 and report_path.exists()

    def test_stats_output(self, tmp_path, capsys):
        src = tmp_path / "texts.txt"
        src.write_text("a b c\n\na\n", encoding="utf-8")
        code, out, _ = run_cli(["stats", "--input", str(src),
                                "--name", "toy"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "dataset\tn\tmin\tmax\tmedian\tmean"
        assert row == "toy\t2\t1\t3\t2\t2.0"

    def test_top_labels(self, tmp_path, capsys):
        src = tmp_path / "labels.txt"
        src.write_text("doc1\tb|a\ndoc2\ta\ndoc3\tc|a\n", encoding="utf-8")
        out = tmp_path / "top.txt"
        code, _, _ = run_cli(["top-labels", "--input", str(src),
                              "--k", "2", "--output", str(out)], capsys)
        assert code == 0
        assert out.read_text(encoding="utf-8").split() == ["a", "b"]

    def test_a_note_without_codes_adds_no_label(self, tmp_path, capsys):
        src, out = tmp_path / "labels.txt", tmp_path / "top.txt"
        src.write_text("n1\t\nn2\t\nn3\ta\n", encoding="utf-8")
        code, _, _ = run_cli(["top-labels", "--input", str(src), "--k", "1",
                              "--output", str(out)], capsys)
        assert code == 0
        assert out.read_text(encoding="utf-8") == "a\n"

    def test_an_empty_label_is_refused_at_its_line(self, tmp_path, capsys):
        src, out = tmp_path / "labels.txt", tmp_path / "top.txt"
        src.write_text("n1\ta\nn2\ta||b\n", encoding="utf-8")
        code, _, err = run_cli(["top-labels", "--input", str(src), "--k", "1",
                                "--output", str(out)], capsys)
        assert (code, err) == (1, f"error: {src}:2: empty label in 'a||b'\n")

    def test_the_text_commands_load_no_numpy_or_scipy(self, tmp_path, corpus_file, notes_file):
        # all ten run in one fresh process, which holds neither module at exit
        (tmp_path / "codes.tsv").write_text("n1\t401.9|250.00\nn2\t401.9\n", encoding="utf-8")
        (tmp_path / "tags.tsv").write_text("severe\tB-problem\npain\tI-problem\n",
                                           encoding="utf-8")
        commands = [
            ["normalize", "--input", "corpus.txt", "--output", "norm.txt"],
            ["train-vocab", "--corpus", "corpus.txt", "--size", "60", "--min-frequency", "1",
             "--output", "vocab.txt"],
            ["encode", "--vocab", "vocab.txt", "--input", "corpus.txt", "--output", "ids.txt"],
            ["compress-report", "--dataset", "notes=corpus.txt", "--vocab", "v=vocab.txt",
             "--baseline", "v", "--output", "report.tsv"],
            ["filter-discharge", "--notes", "notes.jsonl", "--output", "kept.jsonl"],
            ["split", "--notes", "notes.jsonl", "--seed", "0", "--output", "split.tsv"],
            ["stats", "--input", "corpus.txt"],
            ["top-labels", "--input", "codes.tsv", "--k", "1", "--output", "top.txt"],
            ["evaluate", "--metric", "entity-f1", "--gold", "tags.tsv", "--pred", "tags.tsv"],
            ["probe"],
        ]
        script = ("import json, os, sys\nfrom clinlm.cli import dispatch\nos.chdir(sys.argv[2])\n"
                  "for argv in json.loads(sys.argv[1]):\n    assert dispatch(argv) == 0, argv\n"
                  "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestCorpusCommands:
    def test_filter_discharge(self, tmp_path, notes_file, capsys):
        out = tmp_path / "filtered.jsonl"
        code, _, _ = run_cli(["filter-discharge", "--notes", str(notes_file),
                              "--output", str(out)], capsys)
        assert code == 0
        kept = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [r["note_id"] for r in kept] == [f"n{i}" for i in range(6)]
        assert all(r["provider_type"] != "Nursing" for r in kept)

    def test_split_deterministic(self, tmp_path, notes_file, capsys):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["split", "--notes", str(notes_file),
                                  "--ratios", "8:1:1", "--seed", "3",
                                  "--output", str(out)], capsys)
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assignment = dict(line.split("\t") for line in out_a.read_text().splitlines())
        assert set(assignment) == {"p0", "p1", "p2"}
        assert set(assignment.values()) <= {"train", "dev", "test"}

    def test_split_bad_ratios(self, tmp_path, notes_file, capsys):
        code, _, err = run_cli(["split", "--notes", str(notes_file),
                                "--ratios", "0:0:0", "--seed", "3",
                                "--output", str(tmp_path / "x.tsv")], capsys)
        assert code == 1
        assert err.startswith("error:") and err.strip().count("\n") == 0


class TestConfigFile:
    @staticmethod
    def settings():
        """The pretrain command's settings, keyed by config key."""
        return build_parser().parse_args(TestSettings.PRETRAIN).config_keys

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr = 0.01  # step size\n\nhidden_dim = 8\n",
                        encoding="utf-8")
        values = read_config(path, self.settings())
        assert values == {"lr": (1, 0.01), "hidden_dim": (3, 8)}

    def test_unknown_key_located(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("hiden_dim = 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cfg.txt:1"):
            read_config(path, self.settings())

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            read_config(path, self.settings())


class TestPretrainCommand:
    def test_tiny_run_writes_artifacts(self, tmp_path, corpus_file,
                                       vocab_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "loss.tsv"
        code, out, _ = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8:2", "--micro-batch", "2", "--accum", "1",
             "--seed", "0", "--hidden-dim", "8", "--n-layers", "1",
             "--n-heads", "2", "--ff-dim", "16",
             "--out", str(ckpt), "--loss-log", str(log)], capsys)
        assert code == 0
        assert "pretrained 2 steps" in out
        config, params = load_checkpoint(ckpt)
        assert config.hidden_dim == 8
        assert config.vocab_size == len(read_vocab(vocab_file))
        log_lines = log.read_text(encoding="utf-8").strip().splitlines()
        assert len(log_lines) == 1 + 2  # header + one row per step

    def test_config_file_defaults_and_flag_override(self, tmp_path, corpus_file,
                                                    vocab_file, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden_dim = 8\nn_layers = 1\nff_dim = 16\n",
                       encoding="utf-8")
        base_args = ["pretrain", "--corpus", str(corpus_file),
                     "--vocab", str(vocab_file), "--plan", "8:1",
                     "--micro-batch", "2", "--accum", "1", "--seed", "0",
                     "--n-heads", "2", "--config", str(cfg)]
        from_file = tmp_path / "file.ckpt"
        code, _, _ = run_cli(base_args + ["--out", str(from_file)], capsys)
        assert code == 0
        assert load_checkpoint(from_file)[0].hidden_dim == 8
        overridden = tmp_path / "flag.ckpt"
        code, _, _ = run_cli(base_args + ["--hidden-dim", "12",
                                          "--out", str(overridden)], capsys)
        assert code == 0
        assert load_checkpoint(overridden)[0].hidden_dim == 12

    def test_unknown_config_key_fails_cleanly(self, tmp_path, corpus_file,
                                              vocab_file, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("learning_rate = 0.1\n", encoding="utf-8")
        code, _, err = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8:1", "--micro-batch", "2", "--accum", "1", "--seed", "0",
             "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")], capsys)
        assert code == 1
        assert "learning_rate" in err and err.strip().count("\n") == 0

    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, capsys):
        # unpinned, 1 and 2 OpenBLAS threads round this run's GEMMs differently
        # (seen on a 2-core x86-64 host); the entry point pins one thread
        words = ("the patient has severe chest pain no fever and cough today denies with "
                 "mild acute nausea left arm shortness breath").split()
        rng = random.Random(0)
        corpus, vocab = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
        corpus.write_text("".join(" ".join(rng.choice(words) for _ in range(12)) + "\n"
                                  for _ in range(200)), encoding="utf-8")
        assert run_cli(["train-vocab", "--corpus", str(corpus), "--size", "95",
                        "--min-frequency", "1", "--output", str(vocab)], capsys)[0] == 0
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-m", "clinlm.cli", "pretrain", "--corpus", str(corpus),
                 "--vocab", str(vocab), "--plan", "64:6", "--micro-batch", "8", "--accum", "1",
                 "--seed", "3", "--hidden-dim", "128", "--ff-dim", "256", "--n-heads", "4",
                 "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
                text=True)
            assert proc.returncode == 0, proc.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_bad_plan_string(self, tmp_path, corpus_file, vocab_file, capsys):
        code, _, err = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8x2", "--micro-batch", "2", "--accum", "1", "--seed", "0",
             "--out", str(tmp_path / "x.ckpt")], capsys)
        assert code == 1
        assert "plan" in err


class TestFinetuneCommand:
    def test_pair_task_end_to_end(self, tmp_path, corpus_file, vocab_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8:1", "--micro-batch", "2", "--accum", "1",
             "--seed", "0", "--hidden-dim", "8", "--n-layers", "1",
             "--n-heads", "2", "--ff-dim", "16", "--max-positions", "16",
             "--out", str(ckpt)], capsys)
        assert code == 0
        rows = [
            {"premise": "no pain today", "hypothesis": "the patient has severe pain",
             "label": "contradiction"},
            {"premise": "patient denies fever", "hypothesis": "no fever",
             "label": "entailment"},
            {"premise": "pain and fever today", "hypothesis": "severe pain",
             "label": "neutral"},
            {"premise": "the patient has no fever", "hypothesis": "fever today",
             "label": "contradiction"},
        ]
        data = tmp_path / "nli.jsonl"
        with open(data, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        code, out, err = run_cli(
            ["finetune", "--task", "mednli", "--checkpoint", str(ckpt),
             "--vocab", str(vocab_file), "--train", str(data), "--dev", str(data),
             "--seeds", "2", "--epochs", "1", "--batch-size", "2",
             "--max-positions", "16",
             "--out-prefix", str(tmp_path / "tuned")], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("seed 0\taccuracy")
        assert lines[1].startswith("seed 1\taccuracy")
        assert lines[2].startswith("median ")
        assert (tmp_path / "tuned.seed0.ckpt").exists()
        assert (tmp_path / "tuned.seed1.ckpt").exists()

    def test_the_model_commands_load_no_scipy(self, tmp_path, corpus_file):
        # a pretraining and a fine-tuning run in one fresh process need numpy alone
        (tmp_path / "nli.jsonl").write_text(_jsonl(_NLI_ROW), encoding="utf-8")
        commands = [
            ["train-vocab", "--corpus", "corpus.txt", "--size", "60", "--min-frequency", "1",
             "--output", "vocab.txt"],
            ["pretrain", "--corpus", "corpus.txt", "--vocab", "vocab.txt", "--plan", "8:1",
             "--micro-batch", "2", "--accum", "1", "--seed", "0", "--hidden-dim", "8",
             "--n-layers", "1", "--n-heads", "2", "--ff-dim", "16", "--out", "model.ckpt"],
            _finetune("mednli", "--max-steps", "1", checkpoint="model.ckpt", data="nli.jsonl",
                      vocab="vocab.txt"),
        ]
        script = ("import json, os, sys\nfrom clinlm.cli import dispatch\nos.chdir(sys.argv[2])\n"
                  "for argv in json.loads(sys.argv[1]):\n    assert dispatch(argv) == 0, argv\n"
                  "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['numpy']"

    def test_a_retuned_checkpoint_holds_one_head(self, tmp_path, tiny_model, capsys):
        # mednli's head_pair is dropped when ner-2010 tunes the model again
        vocab, ckpt = tiny_model
        nli, tags = tmp_path / "nli.jsonl", tmp_path / "tags.tsv"
        nli.write_text(_jsonl({"premise": "no pain", "hypothesis": "pain",
                               "label": "contradiction"}), encoding="utf-8")
        tags.write_text("no\tO\npain\tB-problem\n", encoding="utf-8")
        for task, model, data, prefix in [("mednli", ckpt, nli, "nli"),
                                          ("ner-2010", tmp_path / "nli.seed0.ckpt", tags, "ner")]:
            assert dispatch(["finetune", "--task", task, "--checkpoint", str(model),
                             "--vocab", str(vocab), "--train", str(data), "--dev", str(data),
                             "--seeds", "1", "--max-steps", "1",
                             "--out-prefix", str(tmp_path / prefix)]) == 0
        capsys.readouterr()
        config, tuned = load_checkpoint(tmp_path / "ner.seed0.ckpt")
        assert list(tuned) == [*param_shapes(config), "head_token_w", "head_token_b"]


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A vocabulary and a one-step checkpoint, shared by the task-file cases."""
    root = tmp_path_factory.mktemp("tiny_model")
    corpus, vocab, ckpt = root / "corpus.txt", root / "vocab.txt", root / "model.ckpt"
    corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    assert dispatch(["train-vocab", "--corpus", str(corpus), "--size", "80",
                     "--min-frequency", "1", "--output", str(vocab)]) == 0
    assert dispatch(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                     "--plan", "8:1", "--micro-batch", "2", "--accum", "1",
                     "--seed", "0", "--hidden-dim", "8", "--n-layers", "1",
                     "--n-heads", "2", "--ff-dim", "16", "--max-positions", "16",
                     "--out", str(ckpt)]) == 0
    return vocab, ckpt


def _jsonl(*rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


class TestTaskFileErrors:
    # (task, file name, file text, offending label, line it sits on)
    CASES = [
        ("ner-2010", "tags.tsv",
         "no\tO\npain\tB-problem\n\nsevere\tO\nfever\tB-drug\n", "B-drug", 5),
        ("mednli", "nli.jsonl",
         _jsonl({"premise": "no pain", "hypothesis": "pain", "label": "contradiction"},
                {"premise": "fever", "hypothesis": "no fever", "label": "maybe"}),
         "maybe", 2),
        ("re-2010", "rel.jsonl",
         "\n" + _jsonl({"words": ["pain", "and", "fever"], "span_a": [0, 1],
                        "type_a": "problem", "span_b": [2, 3], "type_b": "problem",
                        "label": "problem-causes-fever"}),
         "problem-causes-fever", 2),
        ("icd9-top50", "codes.jsonl",
         _jsonl({"text": "severe pain", "labels": ["401.9", "not-a-code"]}),
         "not-a-code", 1),
    ]

    @pytest.mark.parametrize("task,name,text,label,line", CASES,
                             ids=[case[0] for case in CASES])
    def test_unknown_label_names_file_line_and_label(self, tmp_path, tiny_model, capsys,
                                                     task, name, text, label, line):
        vocab, ckpt = tiny_model
        data = tmp_path / name
        data.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            ["finetune", "--task", task, "--checkpoint", str(ckpt), "--vocab", str(vocab),
             "--train", str(data), "--dev", str(data), "--seeds", "1"], capsys)
        assert code == 1
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and len(err.splitlines()) == 1, err
        assert f"{data}:{line}:" in errors[0]
        assert repr(label) in errors[0]


_NLI_ROW = {"premise": "no pain", "hypothesis": "pain", "label": "contradiction"}
_RELATION_ROW = {"words": ["pain", "and", "fever"], "span_a": [0, 1], "type_a": "problem",
                 "span_b": [2, 3], "type_b": "problem", "label": "test-reveals-problem"}
_NOTE_ROW = {"note_id": "n1", "patient_id": "p1", "encounter_id": "e1",
             "note_type": "Discharge Summary", "provider_type": "Physician", "text": "x"}
_SUITE_HEADER = "premise\thypothesis\tgold\tcategory\tanalyte\tvalue\n"


def _checkpoint_header(change):
    """A checkpoint body of the tiny model's bytes under a changed header."""
    def build(ckpt_bytes):
        header_line, body = ckpt_bytes.split(b"\n", 1)
        return json.dumps(change(json.loads(header_line))).encode() + b"\n" + body
    return build


def _with_extra_config_key(header):
    header["config"]["extra"] = 1
    return header


def _without_hidden_act(header):
    del header["config"]["hidden_act"]
    return header


def _with_transposed_token_table(header):
    for entry in header["tensors"]:
        if entry["name"] == "tok_emb":
            entry["shape"].reverse()
    return header


def _nan_in_tensor(name):
    """The tiny model's checkpoint bytes with the first entry of tensor name NaN."""
    def build(ckpt_bytes):
        header_line, body = ckpt_bytes.split(b"\n", 1)
        layout = {e["name"]: e["shape"] for e in json.loads(header_line)["tensors"]}
        params = ParamStore(layout, np.frombuffer(body, dtype="<f8").astype(np.float64))
        params[name].flat[0] = np.nan
        return header_line + b"\n" + params.flat.astype("<f8").tobytes()
    return build


def _split(ratios):
    return ["split", "--notes", "{file}", "--ratios", ratios, "--seed", "0", "--output", "{out}"]


def _finetune(task, *extra, checkpoint="{ckpt}", data="{file}", vocab="{vocab}"):
    return ["finetune", "--task", task, "--checkpoint", checkpoint, "--vocab", vocab,
            "--train", data, "--dev", data, "--seeds", "1", *extra]


def _pretrain_plan(plan):
    return ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", plan,
            "--micro-batch", "1", "--accum", "1", "--seed", "0", "--out", "{out}"]


class TestMalformedInputs:
    """Each malformed input makes its command exit 1 with exactly one
    stderr line, an error: line that names where the problem is."""

    # (case, input file name, its text or a function of the tiny model's
    #  checkpoint bytes, command with {file}/{vocab}/{ckpt}/{out} slots,
    #  text the error line must contain, with {file} for the input's path)
    CASES = [
        ("record-not-an-object", "nli.jsonl", "5\n", _finetune("mednli"), "{file}:1:"),
        ("premise-not-a-string", "nli.jsonl", _jsonl(_NLI_ROW, {**_NLI_ROW, "premise": 5}),
         _finetune("mednli"), "{file}:2:"),
        ("span-not-a-list", "rel.jsonl", _jsonl({**_RELATION_ROW, "span_a": 0}),
         _finetune("re-2010"), "{file}:1:"),
        ("span-of-a-bool", "rel.jsonl", _jsonl({**_RELATION_ROW, "span_a": [True, 3]}),
         _finetune("re-2010"), "{file}:1: 'span_a' must be list[int], got [True, 3]"),
        ("span-of-three-ints", "rel.jsonl", _jsonl({**_RELATION_ROW, "span_a": [0, 3, 4]}),
         _finetune("re-2010"), "{file}:1: 'span_a' must be [start, end], got [0, 3, 4]"),
        ("span-of-one-int", "rel.jsonl", _jsonl({**_RELATION_ROW, "span_b": [0]}),
         _finetune("re-2010"), "{file}:1: 'span_b' must be [start, end], got [0]"),
        ("unknown-concept-type", "rel.jsonl", _jsonl({**_RELATION_ROW, "type_a": "drug"}),
         _finetune("re-2010"), "{file}:1: unknown concept type 'drug'"),
        ("word-not-a-string", "rel.jsonl",
         "\n" + _jsonl({**_RELATION_ROW, "words": ["pain", 7, "fever"]}),
         _finetune("re-2010"), "{file}:2:"),
        ("empty-note-id", "notes.jsonl", _jsonl(_NOTE_ROW, {**_NOTE_ROW, "note_id": ""}),
         ["split", "--notes", "{file}", "--seed", "0", "--output", "{out}"], "{file}:2:"),
        ("duplicate-vocab-token", "vocab.txt",
         "[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\npain\nfever\npain\n",
         ["encode", "--vocab", "{file}", "--input", "{file}", "--output", "{out}"],
         "{file}:8:"),
        ("bad-probe-row", "suite.tsv",
         _SUITE_HEADER + "Blood glucose is 600\thas hyperglycemia\tMaybe\tnumeric\tglucose\t600\n",
         ["probe", "--suite", "{file}"], "{file}:2:"),
        ("list-checkpoint-header", "model.ckpt", lambda ckpt_bytes: b"[1, 2]\n",
         _finetune("mednli", checkpoint="{file}", data="{vocab}"), "{file}:"),
        ("extra-checkpoint-config-key", "model.ckpt", _checkpoint_header(_with_extra_config_key),
         _finetune("mednli", checkpoint="{file}", data="{vocab}"), "{file}:"),
        ("nan-learning-rate", "nli.jsonl", _jsonl(_NLI_ROW), _finetune("mednli", "--lr", "nan"),
         "--lr must be finite"),
        ("transposed-checkpoint-tensor", "model.ckpt",
         _checkpoint_header(_with_transposed_token_table),
         _finetune("mednli", checkpoint="{file}", data="{vocab}"), "{file}: tensor tok_emb"),
        # every checkpoint of earlier releases: trained with the erf GELU
        ("checkpoint-of-no-hidden-act", "model.ckpt", _checkpoint_header(_without_hidden_act),
         _finetune("mednli", checkpoint="{file}", data="{vocab}"),
         "{file}: checkpoint has no hidden_act; it was trained with the erf GELU"),
        ("checkpoint-of-erf-hidden-act", "model.ckpt",
         _checkpoint_header(lambda h: {**h, "config": {**h["config"], "hidden_act": "gelu"}}),
         _finetune("mednli", checkpoint="{file}", data="{vocab}"),
         "{file}: checkpoint hidden_act is 'gelu', the encoder's is 'gelu_tanh'"),
        ("nan-checkpoint-tensor", "model.ckpt", _nan_in_tensor("layer0.ff_in_w"),
         _finetune("mednli", checkpoint="{file}", data="{vocab}"),
         "{file}: tensor layer0.ff_in_w holds a NaN or infinity"),
        ("vocabulary-of-another-size", "vocab.txt", "[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\npain\n",
         _finetune("re-2010", vocab="{file}", data="{vocab}"), "{file} has 6 tokens but {ckpt}"),
        ("invalid-probe-prediction", "preds.txt", "Neutral\n" * 128 + "Maybe\n",
         ["probe", "--predictions", "{file}"], "{file}:129: unknown label 'Maybe'"),
        ("probe-predictions-of-another-count", "preds.txt", "Neutral\n",
         ["probe", "--predictions", "{file}"], "{file}: 1 predictions for 129 instances"),
        ("nan-aggregate-value", "unused.txt", "",
         ["evaluate", "--aggregate", "0.5,nan,0.7"],
         "value 2 of 3 is nan, not a finite number"),
        ("inf-aggregate-value", "unused.txt", "",
         ["evaluate", "--aggregate", "inf"],
         "value 1 of 1 is inf, not a finite number"),
        ("repeated-seed", "nli.jsonl", _jsonl(_NLI_ROW), _finetune("mednli", "--seeds", "1,1"),
         "--seeds must be distinct, got [1, 1]"),
        ("negative-seed", "nli.jsonl", _jsonl(_NLI_ROW), _finetune("mednli", "--seeds", "1,-1"),
         "--seeds must be >= 0, got -1"),
        ("seed-not-an-int", "nli.jsonl", _jsonl(_NLI_ROW), _finetune("mednli", "--seeds", "1,x"),
         "--seeds must be a count >= 1 or a comma list of ints, got '1,x'"),
        ("negative-seed-count", "nli.jsonl", _jsonl(_NLI_ROW),
         _finetune("mednli", "--seeds", "-2"),
         "--seeds must be a count >= 1 or a comma list of ints, got '-2'"),
        ("max-positions-above-checkpoint", "nli.jsonl", _jsonl(_NLI_ROW),
         _finetune("mednli", "--max-positions", "17"),
         "--max-positions 17 exceeds the max_positions 16 of {ckpt}"),
        # refused before the task file is read, so its broken line goes unseen
        ("max-positions-below-a-tagging-row", "tags.tsv", "no\tO\nbroken line\n",
         _finetune("ner-2010", "--max-positions", "2"),
         "--max-positions 2 is below 3, the fewest that fit a row of task ner-2010"),
        ("max-positions-below-a-document-row", "d.jsonl",
         _jsonl({"text": "severe pain", "labels": ["401.9"]}),
         _finetune("icd9-top50", "--max-positions", "2"),
         "--max-positions 2 is below 3, the fewest that fit a row of task icd9-top50"),
        ("max-positions-below-a-two-text-row", "nli.jsonl", _jsonl(_NLI_ROW),
         _finetune("mednli", "--max-positions", "4"),
         "--max-positions 4 is below 5, the fewest that fit a row of task mednli"),
        ("zero-batch-size", "nli.jsonl", _jsonl(_NLI_ROW), _finetune("mednli", "--batch-size", "0"),
         "--batch-size must be >= 1, got 0"),
        ("zero-accumulation-steps", "corpus.txt", "no pain today\nsevere fever\n",
         ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "1", "--accum", "0", "--seed", "0", "--out", "{out}"],
         "--accum must be >= 1, got 0"),
        ("zero-micro-batch", "corpus.txt", "no pain today\nsevere fever\n",
         ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "0", "--accum", "1", "--seed", "0", "--out", "{out}"],
         "--micro-batch must be >= 1, got 0"),
        ("infinite-ratio", "notes.jsonl", _jsonl(_NOTE_ROW), _split("inf:1:1"),
         "--ratios must be three non-negative numbers with a finite, non-zero sum: "
         "(inf, 1.0, 1.0)"),
        ("nan-ratio", "notes.jsonl", _jsonl(_NOTE_ROW), _split("1:1:nan"),
         "--ratios must be three non-negative numbers with a finite, non-zero sum: "
         "(1.0, 1.0, nan)"),
        ("ratio-not-a-number", "notes.jsonl", _jsonl(_NOTE_ROW), _split("1:1:x"),
         "--ratios must be TRAIN:DEV:TEST numbers, got '1:1:x'"),
        ("negative-pretrain-seed", "corpus.txt", "no pain today\nsevere fever\n",
         ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "1", "--accum", "1", "--seed", "-1", "--out", "{out}"],
         "--seed must be >= 0, got -1"),
        ("negative-split-seed", "notes.jsonl", _jsonl(_NOTE_ROW),
         ["split", "--notes", "{file}", "--seed", "-1", "--output", "{out}"],
         "--seed must be >= 0, got -1"),
        ("whitespace-ner-word", "tags.tsv", "no\tO\n \tO\n", _finetune("ner-2010"),
         "{file}:2: expected word<TAB>tag, got ' \\tO'"),
        # a tagging file's errors come in file order: a bad tag before a bad line
        ("first-error-in-file-order", "tags.tsv", "no\tO\npain\tB-drug\n\nbroken line\n",
         _finetune("ner-2010"), "{file}:2: unknown label 'B-drug' for task ner-2010"),
        ("unknown-tag-entity-f1", "tags.tsv", "no\tO\npain\tX-problem\n",
         ["evaluate", "--metric", "entity-f1", "--gold", "{file}", "--pred", "{file}"],
         "{file}:2: unknown tag 'X-problem'"),
        ("unknown-tag-token-f1", "tags.tsv", "no\tO\npain\tX-problem\n",
         ["evaluate", "--metric", "token-f1", "--gold", "{file}", "--pred", "{file}"],
         "{file}:2: unknown tag 'X-problem'"),
        ("zero-mask-prob", "corpus.txt", "no pain today\nsevere fever\n",
         ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", "8:3",
          "--micro-batch", "1", "--accum", "1", "--seed", "0", "--mask-prob", "0",
          "--out", "{out}"],
         "--mask-prob must be in (0, 1], got 0.0"),
        ("aggregate-value-not-a-number", "unused.txt", "",
         ["evaluate", "--aggregate", "1,x"],
         "--aggregate must be a comma list of numbers, got '1,x'"),
        # neither file would be read, the missing one ({out}) included
        ("aggregate-with-gold-and-pred", "gold.txt", "yes\n",
         ["evaluate", "--aggregate", "0.5,0.7", "--gold", "{file}", "--pred", "{out}"],
         "--aggregate takes no --gold or --pred"),
        # --aggregate summarizes its own values, so no metric applies to them
        ("aggregate-with-metric", "unused.txt", "",
         ["evaluate", "--metric", "accuracy", "--aggregate", "0.5,0.7"],
         "error: --aggregate takes no --metric: it summarizes its own values"),
        ("metric-missing-without-aggregate", "labels.txt", "yes\n",
         ["evaluate", "--gold", "{file}", "--pred", "{file}"],
         "error: --metric is required without --aggregate"),
        ("vocab-size-below-the-alphabet-floor", "corpus.txt", "no pain today\n",
         ["train-vocab", "--corpus", "{file}", "--size", "3", "--output", "{out}"],
         "--size 3 is below the alphabet floor 21"),
        ("zero-top-labels", "codes.tsv", "n1\ta\n",
         ["top-labels", "--input", "{file}", "--k", "0", "--output", "{out}"],
         "--k must be >= 1, got 0"),
        ("stats-of-blank-lines", "blank.txt", "\n  \n\n", ["stats", "--input", "{file}"],
         "{file}: input contains no words"),
        ("split-of-no-note-record", "notes.jsonl", "\n  \n", _split("8:1:1"),
         "{file}: no note record"),
        ("filter-discharge-of-no-note-record", "notes.jsonl", "",
         ["filter-discharge", "--notes", "{file}", "--output", "{out}"],
         "{file}: no note record"),
        ("warmup-under-constant-schedule", "corpus.txt", "no pain today\n",
         ["pretrain", "--corpus", "{file}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "1", "--accum", "1", "--seed", "0", "--warmup-fraction", "0.5",
          "--out", "{out}"],
         "--warmup-fraction applies only to the linear schedule, not constant"),
        ("warmup-in-config-under-constant-schedule", "cfg.txt", "warmup_fraction = 0.5\n",
         ["pretrain", "--corpus", "{vocab}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "1", "--accum", "1", "--seed", "0", "--config", "{file}",
          "--out", "{out}"],
         "{file}:1: warmup_fraction applies only to the linear schedule, not constant"),
        # a refused value from the file is named by its line, unless a flag overrode it
        ("zero-mask-prob-in-config", "cfg.txt", "# masking\nmask_prob = 0\n",
         [*_pretrain_plan("8:1"), "--config", "{file}"],
         "{file}:2: mask_prob must be in (0, 1], got 0.0"),
        ("zero-mask-prob-flag-over-config", "cfg.txt", "mask_prob = 0\n",
         [*_pretrain_plan("8:1"), "--config", "{file}", "--mask-prob", "0"],
         "error: --mask-prob must be in (0, 1], got 0.0"),
        ("max-positions-in-config-below-the-plan", "cfg.txt", "max_positions = 4\n",
         [*_pretrain_plan("8:1"), "--config", "{file}"],
         "{file}:1: max_positions 4 is below the plan's length 8"),
        ("max-positions-in-finetune-config", "cfg.txt", "max_positions = 17\n",
         _finetune("mednli", "--config", "{file}", data="{vocab}"),
         "{file}:1: max_positions 17 exceeds the max_positions 16 of {ckpt}"),
        # a setting given twice is no silent last-one-wins
        ("config-key-set-twice", "cfg.txt", "hidden_dim = 8\n# wider\nhidden_dim = 16\n",
         ["pretrain", "--corpus", "{vocab}", "--vocab", "{vocab}", "--plan", "8:1",
          "--micro-batch", "1", "--accum", "1", "--seed", "0", "--config", "{file}",
          "--out", "{out}"],
         "{file}:3: config key 'hidden_dim' is set again"),
        ("dataset-name-given-twice", "notes.txt", "no pain today\n",
         ["compress-report", "--dataset", "a={file}", "--dataset", "a={vocab}",
          "--vocab", "base={vocab}", "--baseline", "base"],
         "error: --dataset name 'a' is given twice"),
        ("vocab-name-given-twice", "notes.txt", "no pain today\n",
         ["compress-report", "--dataset", "a={file}", "--vocab", "base={vocab}",
          "--vocab", "base={vocab}", "--baseline", "base"],
         "error: --vocab name 'base' is given twice"),
        ("dataset-not-name-path", "notes.txt", "no pain today\n",
         ["compress-report", "--dataset", "a", "--vocab", "base={vocab}", "--baseline", "base"],
         "error: --dataset must be NAME=PATH, got 'a'"),
        ("plan-below-the-row-minimum", "corpus.txt", "no pain today\n", _pretrain_plan("2:1"),
         "--plan '2:1': length 2 is below 3, the fewest positions of a row"),
        ("plan-of-length-zero", "corpus.txt", "no pain today\n", _pretrain_plan("0:1"),
         "--plan '0:1': length 0 is below 3, the fewest positions of a row"),
        ("plan-of-decreasing-lengths", "corpus.txt", "no pain today\n", _pretrain_plan("8:1,4:1"),
         "--plan '8:1,4:1': phase lengths must be non-decreasing"),
        ("plan-of-zero-steps", "corpus.txt", "no pain today\n", _pretrain_plan("8:0"),
         "--plan '8:0': phase step count must be >= 1, got 0"),
        ("plan-entry-not-length-steps", "corpus.txt", "no pain today\n", _pretrain_plan("8:1:2"),
         "--plan '8:1:2': bad entry '8:1:2', expected LENGTH:STEPS"),
        ("compress-report-of-no-words", "blank.txt", "\n  \n",
         ["compress-report", "--dataset", "notes={file}", "--vocab", "base={vocab}",
          "--baseline", "base"],
         "{file}: dataset 'notes' contains no words"),
        ("pretrain-of-no-words", "corpus.txt", "\n  \n\n", _pretrain_plan("8:1"),
         "error: {file}: pretraining corpus contains no words"),
        # nothing to score is no perfect score
        ("entity-f1-of-empty-files", "tags.tsv", "",
         ["evaluate", "--metric", "entity-f1", "--gold", "{file}", "--pred", "{file}"],
         "{file}: no sentences to score"),
        ("micro-f1-of-empty-files", "labels.txt", "",
         ["evaluate", "--metric", "micro-f1", "--gold", "{file}", "--pred", "{file}"],
         "{file}: no lines to score"),
        # a blank line is no label, so it cannot match the blank line facing it
        ("blank-accuracy-label", "labels.txt", "yes\n\nno\n",
         ["evaluate", "--metric", "accuracy", "--gold", "{file}", "--pred", "{file}"],
         "{file}:2: empty label"),
        # the vocabulary file stands in for a longer gold file
        ("pred-file-of-fewer-lines", "pred.txt", "pain\n",
         ["evaluate", "--metric", "accuracy", "--gold", "{vocab}", "--pred", "{file}"],
         "{file}: 1 lines, but {vocab}: "),
        # a dev set every model scores 1.0 on selects no epoch
        ("ner-dev-set-of-no-entity", "tags.tsv", "no\tO\npain\tO\n\nfever\tO\n",
         _finetune("ner-2010"), "{file}: dev set has no gold entity to select on"),
        ("multilabel-dev-set-of-no-label", "d.jsonl",
         _jsonl({"text": "severe pain", "labels": []}, {"text": "no fever", "labels": []}),
         _finetune("icd9-top50"), "{file}: dev set has no gold label to select on"),
    ]

    @pytest.mark.parametrize("name,contents,argv,where", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_one_error_line_names_the_place(self, tmp_path, tiny_model, capsys,
                                            name, contents, argv, where):
        vocab, ckpt = tiny_model
        data = tmp_path / name
        if callable(contents):
            data.write_bytes(contents(ckpt.read_bytes()))
        else:
            data.write_text(contents, encoding="utf-8")
        slots = {"file": data, "vocab": vocab, "ckpt": ckpt, "out": tmp_path / "out.txt"}
        code, _, err = run_cli([arg.format(**slots) for arg in argv], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert where.format(**slots) in err


    @pytest.mark.parametrize("flag", ["--train", "--dev"])
    @pytest.mark.parametrize("task,rows,empty", [
        ("mednli", _jsonl(_NLI_ROW), ""), ("mednli", _jsonl(_NLI_ROW), "\n  \n"),
        ("ner-2010", "no\tO\npain\tB-problem\n", "\n\n\n"),
    ], ids=["empty-json-lines", "blank-json-lines", "blank-word-tab-tag"])
    def test_file_of_no_task_row_is_named(self, tmp_path, tiny_model, capsys, flag, task,
                                          rows, empty):
        vocab, ckpt = tiny_model
        paths = {f: tmp_path / f"{f[2:]}.txt" for f in ("--train", "--dev")}
        for f, path in paths.items():
            path.write_text(empty if f == flag else rows, encoding="utf-8")
        code, _, err = run_cli(["finetune", "--task", task, "--checkpoint", str(ckpt),
                                "--vocab", str(vocab), "--train", str(paths["--train"]),
                                "--dev", str(paths["--dev"]), "--seeds", "1"], capsys)
        assert code == 1
        assert err == f"error: {paths[flag]}: no task row\n"


class TestTunedCheckpoint:
    @pytest.mark.parametrize("task,rows", [("mednli", _jsonl(_NLI_ROW)),
                                           ("re-2010", _jsonl(_RELATION_ROW))])
    def test_holds_no_mlm_head(self, tmp_path, tiny_model, capsys, task, rows):
        # earlier releases also wrote the masked-LM head into a fine-tuned
        # checkpoint; now only it is left out, (hidden x V + V) float64s
        vocab, ckpt = tiny_model
        data = tmp_path / "rows.jsonl"
        data.write_text(rows, encoding="utf-8")
        code, _, err = run_cli(_finetune(task, "--max-steps", "1", "--out-prefix",
                                         str(tmp_path / "tuned"), checkpoint=str(ckpt),
                                         data=str(data), vocab=str(vocab)), capsys)
        assert code == 0, err
        header, body = (tmp_path / "tuned.seed0.ckpt").read_bytes().split(b"\n", 1)
        header, config = json.loads(header), load_checkpoint(tmp_path / "tuned.seed0.ckpt")[0]
        h, v, n = config.hidden_dim, config.vocab_size, len(builtin_task(task).outputs)
        earlier = {**param_shapes(config), "mlm_w": (h, v), "mlm_b": (v,),
                   "head_pair_w": (h, n), "head_pair_b": (n,)}
        assert [e["name"] for e in header["tensors"]] == [
            name for name in earlier if name not in ("mlm_w", "mlm_b")]
        assert 8 * sum(math.prod(s) for s in earlier.values()) - len(body) == 8 * (h * v + v)

    def test_relation_checkpoint_tunes_again(self, tmp_path, tiny_model, capsys):
        # a tuned re-2010 model already holds the marker tokens' embeddings;
        # with the plain vocabulary file it loads as the grown vocabulary
        vocab, ckpt = tiny_model
        data = tmp_path / "rel.jsonl"
        data.write_text(_jsonl(_RELATION_ROW), encoding="utf-8")
        for start, prefix in ((ckpt, "tuned"), (tmp_path / "tuned.seed0.ckpt", "again")):
            code, _, err = run_cli(_finetune("re-2010", "--max-steps", "1", "--out-prefix",
                                             str(tmp_path / prefix), checkpoint=str(start),
                                             data=str(data), vocab=str(vocab)), capsys)
            assert code == 0, err
        markers = 2 * len(builtin_task("re-2010").concept_types)
        for prefix in ("tuned", "again"):
            config, _ = load_checkpoint(tmp_path / f"{prefix}.seed0.ckpt")
            assert config.vocab_size == len(read_vocab(vocab)) + markers


class TestSettings:
    PRETRAIN = ["pretrain", "--corpus", "c", "--vocab", "v", "--plan", "8:1",
                "--micro-batch", "1", "--accum", "1", "--seed", "0", "--out", "o"]
    FINETUNE = ["finetune", "--task", "mednli", "--checkpoint", "m", "--vocab", "v",
                "--train", "t", "--dev", "d", "--seeds", "1"]

    @pytest.mark.parametrize("argv,defaults", [
        # max_positions 8 is the plan's length
        (PRETRAIN, {"hidden_dim": 64, "n_layers": 2, "n_heads": 2, "ff_dim": 128,
                    "max_positions": 8, "dropout": 0.0, "lr": 1e-3,
                    "schedule": "constant", "warmup_fraction": None, "mask_prob": 0.15}),
        # max_positions None is the checkpoint's
        (FINETUNE, {"epochs": 3, "batch_size": 8, "lr": 1e-3, "max_steps": None,
                    "max_positions": None}),
    ], ids=["pretrain", "finetune"])
    def test_config_keys_are_the_declared_settings(self, tmp_path, tiny_model, monkeypatch,
                                                   argv, defaults):
        args = build_parser().parse_args(argv)
        assert args.config_keys.keys() == set(defaults)
        assert all(getattr(args, key) is None for key in defaults)  # no flag states a default
        # so the settings built from a flagless command line are the library's defaults
        seen = {}

        class Stop(Exception):
            """Raised in place of the watched call that would train."""

        def watch(module, name, stop=False):
            real = getattr(module, name)

            def spy(*call_args, **kwargs):
                bound = inspect.signature(real).bind(*call_args, **kwargs)
                bound.apply_defaults()
                seen.update(bound.arguments)
                if stop:
                    raise Stop
                return real(*call_args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        vocab, ckpt = tiny_model
        data = tmp_path / "nli.jsonl"
        data.write_text(_jsonl(_NLI_ROW), encoding="utf-8")
        files = {"c": vocab.parent / "corpus.txt", "v": vocab, "m": ckpt, "t": data, "d": data,
                 "o": tmp_path / "o"}
        if argv[0] == "pretrain":
            watch(pretrain, "run_pretraining", stop=True)
        else:
            watch(finetune, "load_task_model")
            watch(finetune, "finetune_task", stop=True)
        with pytest.raises(Stop):
            dispatch([str(files.get(arg, arg)) for arg in argv])
        if argv[0] == "pretrain":
            built = {**vars(seen["config"]), **vars(seen["policy"]), **vars(seen["adam"]),
                     "schedule": seen["schedule"], "warmup_fraction": seen["warmup_fraction"]}
        else:
            built = {**vars(seen["hyper"]), "max_positions": seen["max_positions"]}
        assert {key: built[key] for key in defaults} == defaults

    def test_non_setting_flag_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 3\n", encoding="utf-8")
        code, _, err = run_cli(self.PRETRAIN + ["--config", str(cfg)], capsys)
        assert code == 1
        assert f"{cfg}:1: unknown config key 'seed'" in err

    def test_config_values_take_the_flag_types(self, tmp_path, tiny_model, capsys):
        vocab, ckpt = tiny_model
        data = tmp_path / "nli.jsonl"
        data.write_text(_jsonl(_NLI_ROW), encoding="utf-8")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs = 1\nlr = nan\n", encoding="utf-8")
        argv = [arg.format(file=data, vocab=vocab, ckpt=ckpt)
                for arg in _finetune("mednli", "--config", str(cfg))]
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and "lr must be finite" in err
        code, out, err = run_cli(argv + ["--lr", "0.01"], capsys)
        assert code == 0, err
        assert "best epoch 0" in out

    def test_bad_config_value_is_one_error_line(self, tmp_path, corpus_file, vocab_file,
                                                capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lr = 0.01\nhidden_dim = wide\n", encoding="utf-8")
        code, _, err = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8:1", "--micro-batch", "2", "--accum", "1", "--seed", "0",
             "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")], capsys)
        assert code == 1
        assert err == f"error: {cfg}:2: hidden_dim: invalid int value 'wide'\n"

    def test_config_value_outside_the_flag_choices_is_located(
            self, tmp_path, corpus_file, vocab_file, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# schedules\nschedule = cosine\n", encoding="utf-8")
        code, _, err = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "8:1", "--micro-batch", "2", "--accum", "1", "--seed", "0",
             "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")], capsys)
        assert code == 1
        assert err == (f"error: {cfg}:2: schedule: invalid choice 'cosine', "
                       f"expected one of constant, linear\n")

    def test_max_positions_below_plan_length_rejected(self, tmp_path, corpus_file,
                                                       vocab_file, capsys):
        code, _, err = run_cli(
            ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
             "--plan", "16:1", "--micro-batch", "2", "--accum", "1", "--seed", "0",
             "--hidden-dim", "8", "--n-heads", "2", "--max-positions", "8",
             "--out", str(tmp_path / "x.ckpt")], capsys)
        assert code == 1
        assert "--max-positions 8 is below the plan's length 16" in err


# command -> (setting -> a valid value other than its default)
_KNOBS = {
    "pretrain": {"hidden_dim": "32", "n_layers": "1", "n_heads": "4", "ff_dim": "64",
                 "max_positions": "16", "lr": "0.01", "warmup_fraction": "0.5",
                 "mask_prob": "0.5", "dropout": "0.1", "schedule": "linear"},
    # the documents are 3 to 5 words, so 4 positions truncate every one
    "finetune": {"epochs": "1", "batch_size": "2", "lr": "0.01", "max_steps": "1",
                 "max_positions": "4"},
}
# six documents on which the tiny model's best dev epoch is its last
_CODE_ROWS = [{"text": text, "labels": [["401.9", "250.00", "V70.0"][i % 3],
                                        ["272.4", "V20.2"][i % 2]]}
              for i, text in enumerate(CORPUS_LINES)]


@pytest.fixture(scope="module")
def knob_run(tiny_model, tmp_path_factory):
    """run(command, *extra flags) -> (exit code, stdout, stderr, bytes of the
    checkpoint written or None): a short pretraining run, or fine-tuning of
    the tiny model on _CODE_ROWS, at every default but the extra flags. Each
    distinct run is made once."""
    vocab, ckpt = tiny_model
    root = tmp_path_factory.mktemp("knobs")
    data = root / "codes.jsonl"
    data.write_text(_jsonl(*_CODE_ROWS), encoding="utf-8")
    base = {"pretrain": ["pretrain", "--corpus", str(vocab.parent / "corpus.txt"),
                         "--vocab", str(vocab), "--plan", "8:3", "--micro-batch", "2",
                         "--accum", "1", "--seed", "0"],
            "finetune": _finetune("icd9-top50", checkpoint=str(ckpt), data=str(data),
                                  vocab=str(vocab))}

    @functools.cache
    def run(command, *extra):
        out = root / f"run{len(list(root.iterdir()))}"
        written = out / ("model.ckpt" if command == "pretrain" else "tuned.seed0.ckpt")
        out.mkdir()
        where = ["--out", str(written)] if command == "pretrain" else [
            "--out-prefix", str(out / "tuned")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(base[command] + where + list(extra))
        return (code, stdout.getvalue(), stderr.getvalue(),
                written.read_bytes() if written.exists() else None)

    return run


class TestKnobs:
    """Every pretrain and finetune setting does what it says: at one value
    other than its default the run writes or prints something else, or it is
    refused with one error line that names the flag."""

    @pytest.mark.parametrize("command", list(_KNOBS))
    def test_the_table_covers_every_setting(self, command):
        argv = TestSettings.PRETRAIN if command == "pretrain" else TestSettings.FINETUNE
        assert build_parser().parse_args(argv).config_keys.keys() == _KNOBS[command].keys()

    def test_the_default_fine_tune_keeps_a_later_epoch(self, knob_run):
        # else fewer epochs or steps could leave the kept snapshot unchanged
        code, out, err, _ = knob_run("finetune")
        assert code == 0, err
        assert "best epoch 0" not in out

    @pytest.mark.parametrize("command,key", [(c, k) for c in _KNOBS for k in _KNOBS[c]],
                             ids=[f"{c}-{k}" for c in _KNOBS for k in _KNOBS[c]])
    def test_setting_changes_the_run_or_is_refused(self, knob_run, command, key):
        flag = "--" + key.replace("_", "-")
        code, default_out, err, default_written = knob_run(command)
        assert code == 0, err
        code, out, err, written = knob_run(command, flag, _KNOBS[command][key])
        if code == 0:
            assert (out, written) != (default_out, default_written)
        else:
            assert code == 1 and written is None
            assert len(err.splitlines()) == 1 and err.startswith("error:") and flag in err


class TestEvaluateCommand:
    def test_accuracy_mode(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text("a\nb\nc\nd\n", encoding="utf-8")
        pred.write_text("a\nb\nc\nx\n", encoding="utf-8")
        code, out, _ = run_cli(["evaluate", "--metric", "accuracy",
                                "--gold", str(gold), "--pred", str(pred)], capsys)
        assert code == 0
        assert out.strip() == "accuracy 0.7500"

    def test_micro_f1_mode(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text("a|b\na\n", encoding="utf-8")
        pred.write_text("a\na|c\n", encoding="utf-8")
        code, out, _ = run_cli(["evaluate", "--metric", "micro-f1",
                                "--gold", str(gold), "--pred", str(pred)], capsys)
        assert code == 0
        assert "f1 0.6667" in out

    def test_micro_f1_refuses_an_empty_label_at_its_line(self, tmp_path, capsys):
        # counted as a label, it would score a true positive in a||b against a||c
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text("a||b\n", encoding="utf-8")
        pred.write_text("a||c\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--metric", "micro-f1",
                                  "--gold", str(gold), "--pred", str(pred)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {gold}:1: empty label in 'a||b'\n"

    def test_entity_f1_mode(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("x\tB-a\ny\tI-a\nz\tO\n", encoding="utf-8")
        pred.write_text("x\tB-a\ny\tI-a\nz\tO\n", encoding="utf-8")
        code, out, _ = run_cli(["evaluate", "--metric", "entity-f1",
                                "--gold", str(gold), "--pred", str(pred)], capsys)
        assert code == 0
        assert "f1 1.0000" in out

    def test_unknown_predicted_tag_is_located_in_the_pred_file(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("no\tO\npain\tB-problem\n", encoding="utf-8")
        pred.write_text("no\tO\npain\tX-problem\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--metric", "token-f1",
                                  "--gold", str(gold), "--pred", str(pred)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {pred}:2: unknown tag 'X-problem'\n"

    def test_sentences_of_other_lengths_are_located_in_both_files(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("no\tO\n\nsevere\tB-problem\npain\tI-problem\n", encoding="utf-8")
        pred.write_text("no\tO\n\n\nsevere\tB-problem\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--metric", "token-f1",
                                  "--gold", str(gold), "--pred", str(pred)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {pred}:4: sentence length 1, but the gold one at {gold}:3 "
                       f"has 2\n")

    def test_files_of_other_sentence_counts_are_both_named(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("no\tO\n\nsevere\tB-problem\n", encoding="utf-8")
        pred.write_text("no\tO\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--metric", "entity-f1",
                                  "--gold", str(gold), "--pred", str(pred)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {pred}: 1 sentences, but {gold}: 2\n"

    def test_aggregate_mode(self, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--aggregate", "88.1,88.3,88.2,88.0,88.4"], capsys)
        assert code == 0
        assert "median 88.2000" in out and "n 5" in out

    def test_missing_files_is_an_error(self, capsys):
        code, _, err = run_cli(["evaluate", "--metric", "accuracy"], capsys)
        assert code == 1
        assert "gold" in err


class TestProbeCommand:
    def test_verify_packaged_suite(self, capsys):
        code, out, _ = run_cli(["probe"], capsys)
        assert code == 0
        assert "129 instances, 91 oracle-covered" in out
        assert "numeric\t93" in out
        assert "clinical-state\t32" in out
        assert "temporal\t4" in out

    def test_score_constant_predictions(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("Neutral\n" * 129, encoding="utf-8")
        code, out, _ = run_cli(["probe", "--predictions", str(preds)], capsys)
        assert code == 0
        assert "overall" in out

    def test_prediction_count_mismatch(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("Neutral\n" * 5, encoding="utf-8")
        code, _, err = run_cli(["probe", "--predictions", str(preds)], capsys)
        assert code == 1
        assert "5 predictions" in err
