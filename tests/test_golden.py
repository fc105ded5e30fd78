"""Golden bytes: a small fixed pipeline gives the sha256 of each of its
artefacts recorded in tests/golden.json, so a change of arithmetic, one ulp
of rounding included, fails here.

The pipeline trains a vocabulary, pretrains two phases with two micro-batches
a step and dropout, fine-tunes one seed of each task kind (re-2010's markers
too) and predicts. It runs in a subprocess that pins, before numpy loads,
OpenBLAS's kernels (OPENBLAS_CORETYPE=Haswell), one BLAS thread, and numpy's
SIMD dispatch (NPY_DISABLE_CPU_FEATURES turns X86_V4 and the AVX-512 groups
off), then checks that both pins took: any x86-64 host with AVX2 then
computes these bytes. A pin that did not take fails the test by name.

The bytes also depend on the numpy and OpenBLAS versions, which the golden
file names and the test compares first. A host of other versions fails, unless
CLINLM_GOLDEN=versions, which compares the versions alone: CI's Python 3.11
leg installs the golden file's numpy and compares bytes, while its 3.10 leg,
which cannot install numpy >= 2.3, sets it.

A change meant to move the bytes regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and gives the reason in CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import clinlm
from clinlm import finetune
from clinlm.cli import dispatch

GOLDEN = Path(__file__).with_name("golden.json")
PINS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
RULE = ("bytes are compared under the golden file's versions only, which CI's Python 3.11 leg "
        "installs; a host that cannot install them sets CLINLM_GOLDEN=versions to compare the "
        "versions alone (CI's 3.10 leg), and a change meant to move the bytes runs "
        "`PYTHONPATH=src python tests/test_golden.py --write` and gives its reason in CHANGES.md")
WORDS = ("the patient has severe chest pain no fever and cough today denies with mild acute "
         "nausea left arm shortness of breath").split()
TASK_FILES = {  # task -> (file name, its lines), each both the train and the dev set
    "mednli": ("nli.jsonl", [
        {"premise": "the patient has fever", "hypothesis": "no fever", "label": "contradiction"},
        {"premise": "severe chest pain", "hypothesis": "chest pain", "label": "entailment"},
        {"premise": "mild cough today", "hypothesis": "left arm pain", "label": "neutral"}]),
    "re-2010": ("rel.jsonl", [
        {"words": "severe chest pain with fever".split(), "span_a": [0, 3], "type_a": "problem",
         "span_b": [4, 5], "type_b": "test", "label": "test-reveals-problem"},
        {"words": "nausea denies cough today".split(), "span_a": [0, 1], "type_a": "problem",
         "span_b": [2, 3], "type_b": "treatment", "label": "treatment-worsens-problem"}]),
    "ner-2010": ("ner.tsv", ["severe\tB-problem", "chest\tI-problem", "pain\tI-problem",
                             "today\tO", "", "no\tO", "fever\tB-problem", "", "mild\tO",
                             "cough\tB-problem", "with\tO", "nausea\tB-problem"]),
    "icd9-top50": ("icd9.jsonl", [
        {"text": "severe chest pain with fever", "labels": ["401.9", "250.00"]},
        {"text": "no fever and no cough today", "labels": ["401.9"]},
        {"text": "shortness of breath and nausea", "labels": []}]),
}


def _fail(line):
    """Leave the subprocess with one line on stderr, which the test fails with."""
    print(line, file=sys.stderr)
    sys.exit(1)


def _check_pins():
    """Exit with a line naming what was found unless OpenBLAS runs its Haswell
    kernels and numpy's X86_V4 dispatch is off."""
    from numpy._core._multiarray_umath import __cpu_features__

    with open("/proc/self/maps") as maps:
        libraries = {f[5].strip() for f in (line.split(maxsplit=5) for line in maps)
                     if len(f) == 6 and "openblas" in f[5]}
    if len(libraries) != 1:
        _fail(f"pin: numpy should load one OpenBLAS library, found {sorted(libraries)}")
    corename = getattr(ctypes.CDLL(libraries.pop()), "scipy_openblas_get_corename64_", None)
    if corename is None:
        _fail("pin: numpy's OpenBLAS has no scipy_openblas_get_corename64_ to read its core")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    if corename() != b"Haswell":
        _fail(f"pin: OPENBLAS_CORETYPE=Haswell did not take, OpenBLAS runs "
              f"{corename().decode()}")
    if __cpu_features__.get("X86_V4") is not False:
        _fail(f"pin: NPY_DISABLE_CPU_FEATURES did not take, numpy's X86_V4 dispatch reads "
              f"{__cpu_features__.get('X86_V4')!r}")


def _pipeline(root: Path) -> dict[str, str]:
    """Artefact name -> sha256 of its bytes, for the pipeline run in root."""
    rng = random.Random(0)
    (root / "corpus.txt").write_text(
        "".join(" ".join(rng.choice(WORDS) for _ in range(10)) + "\n" for _ in range(40)))
    commands = [
        ["train-vocab", "--corpus", "corpus.txt", "--size", "60", "--min-frequency", "1",
         "--output", "vocab.txt"],
        ["pretrain", "--corpus", "corpus.txt", "--vocab", "vocab.txt", "--plan", "8:3,16:2",
         "--micro-batch", "2", "--accum", "2", "--seed", "0", "--hidden-dim", "16",
         "--n-layers", "2", "--n-heads", "2", "--ff-dim", "32", "--dropout", "0.1",
         "--schedule", "linear", "--loss-log", "loss.csv", "--out", "model.ckpt"]]
    for task, (name, lines) in TASK_FILES.items():
        (root / name).write_text("".join(
            (line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines))
        commands.append(["finetune", "--task", task, "--checkpoint", "model.ckpt", "--vocab",
                         "vocab.txt", "--train", name, "--dev", name, "--seeds", "1",
                         "--epochs", "2", "--batch-size", "2", "--out-prefix", task])
    os.chdir(root)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the hashes alone
            code = dispatch(argv)
        if code != 0:
            _fail(f"golden pipeline: clinlm {' '.join(argv)} failed")
    for task, (name, _) in TASK_FILES.items():
        spec = finetune.builtin_task(task)
        config, params, vocab, length = finetune.load_task_model(
            spec, f"{task}.seed0.ckpt", "vocab.txt")
        rows = finetune.load_task_rows(spec, name, vocab, length)
        if spec.kind == "ner":
            labels = finetune.predict_ner_tags(params, config, rows, spec.outputs)
        else:
            rows = [row[0] for row in rows]
            predict = (finetune.predict_pair_labels if spec.kind == "pair"
                       else finetune.predict_label_sets)
            labels = [sorted(p) if spec.kind == "multilabel" else p
                      for p in predict(params, config, rows, spec.outputs)]
        head = finetune._KINDS[spec.kind][0]
        scores = finetune._forward_chunks(params, config, rows, head, len(spec.outputs))
        Path(f"{task}.pred.txt").write_text("".join(f"{p}\n" for p in labels))
        Path(f"{task}.scores.f8").write_bytes(b"".join(
            np.ascontiguousarray(s, dtype="<f8").tobytes() for s in scores))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir())}


def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _named(versions) -> str:
    return f"numpy {versions['numpy']} with {versions['blas']}"


def _run(root: Path) -> dict[str, str]:
    """The pipeline's hashes from a pinned subprocess run in root; a pin that did
    not take, or a failed stage, fails the test with its one line."""
    src = str(Path(clinlm.__file__).resolve().parents[1])  # the clinlm this process imports
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, __file__, "--run", str(root)], capture_output=True,
                          text=True, env={**os.environ, **PINS, "PYTHONPATH": path})
    if done.returncode != 0:
        pytest.fail(done.stderr.strip().splitlines()[-1] if done.stderr.strip()
                    else f"golden pipeline exited {done.returncode}")
    return json.loads(done.stdout)


def test_pipeline_bytes_match_the_golden_file(tmp_path):
    golden, host = json.loads(GOLDEN.read_text()), _versions()
    mode = os.environ.get("CLINLM_GOLDEN", "bytes")
    if mode not in ("bytes", "versions"):
        pytest.fail(f"CLINLM_GOLDEN must be bytes or versions, got {mode!r}")
    if host != golden["versions"]:
        line = (f"tests/golden.json holds the bytes of {_named(golden['versions'])}, and this "
                f"host runs {_named(host)}: {RULE}")
        if mode == "bytes":
            pytest.fail(line)
        warnings.warn(line)
        return
    got = _run(tmp_path)
    moved = sorted(name for name in golden["sha256"].keys() | got.keys()
                   if got.get(name) != golden["sha256"].get(name))
    assert not moved, f"the bytes of {', '.join(moved)} moved from tests/golden.json: {RULE}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        _check_pins()
        print(json.dumps(_pipeline(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as root:
            record = {"versions": _versions(), "sha256": _run(Path(root))}
        GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        _fail("usage: python tests/test_golden.py --write")
