"""Acceptance checks, one test per numbered criterion.

Each test prints a single "criterion NN: PASS (...)" line on success and
asserts its own wall-clock budget; a failing criterion shows up as a normal
pytest failure for that one test.
"""

import math
import time
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from clinlm import metrics, probe, wordpiece
from clinlm.corpus import split_by_patient
from clinlm.encoder import (
    Batch,
    EncoderConfig,
    init_head,
    mlm_forward_loss,
    multilabel_loss,
    pair_classify_loss,
    token_classify_loss,
)
from clinlm.finetune import (
    FinetuneConfig,
    TaskSpec,
    encode_ner_example,
    finetune_task,
    prepare_document,
)
from clinlm.metrics import Span, aggregate_seeds, bio_decode, bio_encode
from clinlm.pretrain import (
    BETA1,
    AccumulationConfig,
    AdamConfig,
    MaskingPolicy,
    PhasePlan,
    accumulate_and_step,
    init_optimizer,
    run_pretraining,
)
from clinlm.wordpiece import (
    PAD_ID,
    SEP_ID,
    SPECIALS,
    Vocabulary,
    decode,
    encode,
    load_length_reference,
    normalize,
    pct_diff,
    train_wordpiece,
)

from gradcheck import audit_gradients, mlm_params


def report(number: int, detail: str) -> None:
    print(f"criterion {number:02d}: PASS ({detail})")


# --- shared synthetic corpus -------------------------------------------------

SUBJECTS = ["patient", "resident", "veteran", "client"]
SYMPTOMS = ["cough", "rash", "fever", "nausea", "fatigue", "pain",
            "swelling", "dizziness", "headache", "tremor"]
SITES = ["chest", "arm", "leg", "back", "neck", "abdomen", "shoulder",
         "knee", "wrist", "ankle"]
DRUGS = ["aspirin", "insulin", "heparin", "statins", "steroids"]


def clinical_sentences(n, offset=0):
    out = []
    i = offset
    while len(out) < n:
        s = SUBJECTS[i % len(SUBJECTS)]
        sym = SYMPTOMS[i % len(SYMPTOMS)]
        site = SITES[(i * 3 + 1) % len(SITES)]
        drug = DRUGS[i % len(DRUGS)]
        if i % 2 == 0:
            out.append(f"the {s} reports {sym} in the {site}")
        else:
            out.append(f"the {s} takes {drug} for {sym} of the {site}")
        i += 1
    return out


def general_sentences(n):
    subjects = ["driver", "teacher", "painter", "sailor"]
    objects = ["engine", "lesson", "canvas", "harbor", "bridge", "garden",
               "market", "letter", "window", "ladder"]
    verbs = ["fixes", "plans", "visits", "builds", "closes"]
    out = []
    for i in range(n):
        s = subjects[i % len(subjects)]
        v = verbs[i % len(verbs)]
        o = objects[(i * 3 + 1) % len(objects)]
        out.append(f"the {s} {v} the {o} near the {objects[i % len(objects)]}")
    return out


@pytest.fixture(scope="module")
def desk():
    """Two-phase desk pretraining shared by criteria 5, 7, and 11.

    Runs the full plan and, with the same seed, the first phase alone; the
    single-phase endpoint must coincide bitwise with the two-phase run's
    state at its phase boundary.
    """
    corpus = clinical_sentences(200)
    vocab = train_wordpiece(corpus, declared_size=200, min_frequency=1)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=32, n_layers=2,
                           n_heads=2, ff_dim=64, max_positions=32)
    accum = AccumulationConfig(8, 1, 8)
    boundary_state = {}

    def capture(phase, step, params):
        if phase == 1:
            boundary_state["step"] = step
            boundary_state["params"] = {k: v.copy() for k, v in params.items()}

    start = time.perf_counter()
    two_phase = run_pretraining(
        corpus=corpus, vocab=vocab, config=config,
        plan=PhasePlan(((16, 300), (32, 150))), policy=MaskingPolicy(),
        accum=accum, adam=AdamConfig(lr=1e-3), seed=11,
        phase_callback=capture)
    first_phase_only = run_pretraining(
        corpus=corpus, vocab=vocab, config=config,
        plan=PhasePlan(((16, 300),)), policy=MaskingPolicy(),
        accum=accum, adam=AdamConfig(lr=1e-3), seed=11)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(corpus=corpus, vocab=vocab, config=config,
                           two_phase=two_phase,
                           first_phase_only=first_phase_only,
                           boundary_state=boundary_state, elapsed=elapsed)


# --- criterion 1: published length-table arithmetic --------------------------

def test_criterion_01_length_table_arithmetic():
    start = time.perf_counter()
    rows = load_length_reference()
    baselines = {r.dataset: r for r in rows if r.pct_mean is None}
    cells = 0
    for row in rows:
        if row.pct_mean is None or row.dataset == "therapeutic-class":
            continue
        base = baselines[row.dataset]
        assert pct_diff(row.mean_length, base.mean_length) == row.pct_mean, \
            f"{row.dataset}/{row.vocabulary} mean cell disagrees"
        assert pct_diff(row.median_length, base.median_length) == row.pct_median, \
            f"{row.dataset}/{row.vocabulary} median cell disagrees"
        cells += 2
    elapsed = time.perf_counter() - start
    assert cells == 24
    assert elapsed < 1.0
    report(1, f"24/24 percentage cells exact, {elapsed:.3f}s")


# --- criterion 2: numeric probe oracle vs printed gold -----------------------

def test_criterion_02_probe_oracle(tmp_path):
    start = time.perf_counter()
    suite = probe.load_probe_suite()
    covered = [inst for inst in suite if inst.oracle_covered]
    assert len(covered) == 91  # the advertised "approximately 90"
    for inst in covered:
        got = probe.numeric_probe_oracle(inst.analyte, inst.value, inst.hypothesis)
        assert got == inst.gold, f"oracle disagrees on {inst.premise!r}"

    glucose = {inst.value: inst for inst in covered if inst.analyte == "glucose"}
    assert 70.0 in glucose and 69.0 in glucose
    assert glucose[70.0].gold != glucose[69.0].gold  # inclusive lower bound

    calcium = [inst for inst in covered if inst.analyte == "calcium"]
    calcium_values = {inst.value for inst in calcium}
    assert {9.0, 17.5} <= calcium_values
    assert len(calcium) >= 4

    # the loader itself must reject a fixture whose gold contradicts the oracle
    packaged = resources.files("clinlm").joinpath(
        "data", "probe_suite.tsv").read_text(encoding="utf-8")
    lines = packaged.splitlines()
    row = next(i for i in range(1, len(lines))
               if "\tglucose\t" in lines[i] or "glucose" in lines[i])
    fields = lines[row].split("\t")
    fields[2] = "Neutral" if fields[2] != "Neutral" else "Entailment"
    lines[row] = "\t".join(fields)
    tampered = tmp_path / "tampered.tsv"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        probe.load_probe_suite(tampered)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"91 covered rows reproduced, loader rejects tampering, {elapsed:.3f}s")


# --- criterion 3: finite-difference gradient audit ---------------------------

def test_criterion_03_gradient_audit():
    start = time.perf_counter()
    config = EncoderConfig(vocab_size=50, hidden_dim=8, n_layers=2, n_heads=2,
                           ff_dim=16, max_positions=6)
    rng = np.random.default_rng(9)
    ids = rng.integers(5, 50, size=(2, 6))
    # row 1 is a pair padded by one: segment 1 after its [SEP], mask 0 at [PAD]
    ids[1, 1], ids[1, 5] = SEP_ID, PAD_ID
    batch = Batch(ids)
    assert batch.attention_mask[1].tolist() == [1, 1, 1, 1, 1, 0]
    assert batch.segment_ids.tolist() == [[0] * 6, [0, 0, 1, 1, 1, 0]]

    params = mlm_params(config, seed=3)
    params = init_head(params, config, "head_token", 3, seed=4)
    params = init_head(params, config, "head_pair", 3, seed=5)
    params = init_head(params, config, "head_multi", 4, seed=6)

    target_positions = np.array([[0, 1], [0, 4], [1, 2]])
    target_ids = np.array([7, 8, 9])
    token_positions = np.array([[0, 1], [0, 2], [0, 3], [1, 1], [1, 2], [1, 3]])
    tag_ids = np.array([1, 0, 0, 0, 0, 2])
    cls_positions = np.array([[0, 0], [1, 0]])
    class_ids = np.array([0, 2])
    label_matrix = rng.integers(0, 2, size=(2, 4)).astype(np.float64)

    losses = {  # name -> (loss, its arguments after the batch)
        "mlm": (mlm_forward_loss, target_positions, target_ids),
        "token": (token_classify_loss, token_positions, tag_ids),
        "pair": (pair_classify_loss, cls_positions, class_ids),
        "multilabel": (multilabel_loss, cls_positions, label_matrix),
    }
    worst_overall = 0.0
    for name, (loss, *args) in losses.items():
        # differences a forward-only reference checked equal to the loss
        worst = audit_gradients(loss, params, config, batch, *args)
        assert worst < 1e-4, f"{name} gradient off by {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"4 losses, max relative error {worst_overall:.2e}, {elapsed:.1f}s")


# --- criterion 4: gradient accumulation equivalence --------------------------

def test_criterion_04_accumulation_equivalence():
    start = time.perf_counter()
    config = EncoderConfig(vocab_size=40, hidden_dim=8, n_layers=1, n_heads=2,
                           ff_dim=16, max_positions=8)
    params = mlm_params(config, seed=1)
    rng = np.random.default_rng(2)
    ids = rng.integers(5, 40, size=(32, 8))
    def targets_for(rows):
        positions, originals = [], []
        for r, row_ids in enumerate(rows):
            col = int(rng.integers(0, 8))
            positions.append([r, col])
            originals.append(row_ids[col])
        return np.array(positions), np.array(originals)

    # one fixed target per row, then shared between both routes
    all_positions, all_targets = targets_for(ids)

    def micro(lo, hi):
        b = Batch(ids[lo:hi])
        sel = (all_positions[:, 0] >= lo) & (all_positions[:, 0] < hi)
        pos = all_positions[sel].copy()
        pos[:, 0] -= lo
        return b, pos, all_targets[sel]

    def loss_grad_fn(p, mb):
        b, pos, tgt = mb
        loss, grads = mlm_forward_loss(p, config, b, pos, tgt)
        return loss, grads, len(tgt)

    micros = [micro(0, 8), micro(8, 16), micro(16, 24), micro(24, 32)]
    _, state_after, _ = accumulate_and_step(
        loss_grad_fn, params, init_optimizer(params), micros, 1e-3)
    # after one update from zero state, m = (1 - beta1) * accumulated gradient
    g_accumulated = {k: m / (1.0 - BETA1) for k, m in state_after.m.items()}

    full = Batch(ids)
    _, g_full = mlm_forward_loss(params, config, full, all_positions, all_targets)

    worst = 0.0
    for name, g in g_full.items():
        a, b = g_accumulated[name], g
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
        rel[(a == 0) & (b == 0)] = 0.0
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6

    AccumulationConfig(32, 64, 2048)  # the published large-batch configuration
    with pytest.raises(ValueError):
        AccumulationConfig(32, 64, 2047)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"4x8 vs 32 worst relative error {worst:.2e}, {elapsed:.1f}s")


# --- criterion 5: two-phase desk pretraining ---------------------------------

def test_criterion_05_two_phase_pretraining(desk):
    ln_v = math.log(len(desk.vocab))
    log = desk.two_phase.loss_log
    assert abs(log[0].loss - ln_v) / ln_v < 0.05
    assert log[-1].loss < ln_v - 1.0
    assert [e.phase for e in log] == [0] * 300 + [1] * 150
    assert desk.boundary_state["step"] == 300
    # parameters cross the boundary untouched: the single-phase run's final
    # state equals the two-phase run's state entering phase 2, bit for bit
    final = desk.first_phase_only.params
    entering = desk.boundary_state["params"]
    assert final.keys() == entering.keys()
    for key in final:
        assert np.array_equal(final[key], entering[key]), key
    assert desk.elapsed < 300.0
    report(5, f"loss {log[0].loss:.3f} -> {log[-1].loss:.3f} vs ln V {ln_v:.3f}, "
              f"boundary at 300 bit-identical, {desk.elapsed:.1f}s")


# --- criterion 6: in-domain vocabulary compresses better ---------------------

def test_criterion_06_compression_direction():
    start = time.perf_counter()
    train_a = clinical_sentences(200)
    train_b = general_sentences(200)
    held_out = clinical_sentences(60, offset=500)

    vocab_a = train_wordpiece(train_a, declared_size=140, min_frequency=1)
    vocab_b = train_wordpiece(train_b, declared_size=140, min_frequency=1)
    assert len(vocab_a) == len(vocab_b) == 140

    def mean_tokens(vocab):
        return float(np.mean([len(encode(vocab, normalize(line)).ids)
                              for line in held_out]))

    mean_in = mean_tokens(vocab_a)
    mean_out = mean_tokens(vocab_b)
    reduction = 100.0 * (mean_out - mean_in) / mean_out
    assert reduction >= 10.0

    again = train_wordpiece(train_a, declared_size=140, min_frequency=1)
    assert again.tokens == vocab_a.tokens  # deterministic training

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"mean {mean_in:.2f} vs {mean_out:.2f} tokens, "
              f"{reduction:.1f}% reduction, {elapsed:.1f}s")


# --- criterion 7: toy fine-tuning on a separable grammar ---------------------

def test_criterion_07_toy_finetuning(desk):
    start = time.perf_counter()
    symptom_set, drug_set = set(SYMPTOMS), set(DRUGS)

    def tag_of(word):
        if word in symptom_set:
            return "B-problem"
        if word in drug_set:
            return "B-treatment"
        return "O"

    task = TaskSpec("desk-ner", "ner", ("problem", "treatment"), "entity_f1")
    tag_to_id = {t: i for i, t in enumerate(task.bio_tags())}
    rows = []
    for sent in desk.corpus:
        words = sent.split()
        rows.append(encode_ner_example(words, [tag_of(w) for w in words],
                                       desk.vocab, tag_to_id, 32))
    runs = finetune_task(
        desk.config, desk.two_phase.params, task, rows[:160], rows[160:],
        seeds=[0, 1, 2, 3, 4],
        hyper=FinetuneConfig(epochs=10, batch_size=8, lr=1e-3, max_steps=200))
    assert len(runs) == 5
    for run in runs:
        assert run.dev_metric >= 0.95, f"seed {run.seed}: F1 {run.dev_metric:.3f}"
    summary = aggregate_seeds([r.dev_metric for r in runs])
    assert summary.median >= 0.95
    assert summary.stddev >= 0.0 and len(summary.values) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"5 seeds, median F1 {summary.median:.3f}, "
              f"stddev {summary.stddev:.3f}, {elapsed:.1f}s")


# --- criterion 8: metric brute-force oracles ---------------------------------

def brute_force_prf(tp, n_pred, n_gold):
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def test_criterion_08_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    labels = ["a", "b", "c"]

    def random_span_set():
        out = set()
        for _ in range(int(rng.integers(0, 4))):
            s = int(rng.integers(0, 6))
            out.add(Span(s, s + int(rng.integers(1, 3)), labels[rng.integers(0, 3)]))
        return out

    for _ in range(1000):
        gold, pred = random_span_set(), random_span_set()
        expected = brute_force_prf(len(gold & pred), len(pred), len(gold))
        got = metrics.entity_f1(gold, pred)
        assert got == pytest.approx(expected, abs=1e-12)

    for _ in range(1000):
        n = int(rng.integers(1, 5))
        gold_sets = [{labels[j] for j in rng.integers(0, 3, size=rng.integers(0, 3))}
                     for _ in range(n)]
        pred_sets = [{labels[j] for j in rng.integers(0, 3, size=rng.integers(0, 3))}
                     for _ in range(n)]
        tp = sum(len(g & p) for g, p in zip(gold_sets, pred_sets))
        n_pred = sum(len(p) for p in pred_sets)
        n_gold = sum(len(g) for g in gold_sets)
        expected = brute_force_prf(tp, n_pred, n_gold)
        assert metrics.micro_f1(gold_sets, pred_sets) == pytest.approx(expected, abs=1e-12)

    tag_pool = ["O", "B-a", "I-a", "B-b", "I-b"]
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        tags = [tag_pool[j] for j in rng.integers(0, 5, size=n)]
        spans = bio_decode(tags)
        canonical = bio_encode(spans, n)
        assert bio_decode(canonical) == spans
        assert bio_encode(bio_decode(canonical), n) == canonical

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"2000 brute-force instances + 1000 idempotence checks, {elapsed:.1f}s")


# --- criterion 9: patient-wise split hygiene ---------------------------------

def test_criterion_09_split_hygiene():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    patient_ids = []
    for i in range(1000):
        patient_ids.extend([f"p{i:04d}"] * int(rng.integers(1, 4)))
    assignment = split_by_patient(patient_ids, (8.0, 1.0, 1.0), seed=0)
    assert len(assignment) == 1000

    subsets = {"train": set(), "dev": set(), "test": set()}
    for pid in patient_ids:
        subsets[assignment[pid]].add(pid)
    assert subsets["train"] & subsets["dev"] == set()
    assert subsets["train"] & subsets["test"] == set()
    assert subsets["dev"] & subsets["test"] == set()
    assert sum(len(s) for s in subsets.values()) == 1000

    fractions = {name: len(s) / 1000 for name, s in subsets.items()}
    assert abs(fractions["train"] - 0.8) <= 0.02
    assert abs(fractions["dev"] - 0.1) <= 0.02
    assert abs(fractions["test"] - 0.1) <= 0.02

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(9, "zero leakage, fractions "
              f"{fractions['train']:.3f}/{fractions['dev']:.3f}/"
              f"{fractions['test']:.3f}, {elapsed:.3f}s")


# --- criterion 10: tokenizer contracts ---------------------------------------

ALPHABET = "abcde"


def build_50_token_vocab():
    tokens = list(SPECIALS)
    tokens += list(ALPHABET)
    tokens += ["##" + ch for ch in ALPHABET]
    tokens += ["ab", "ac", "ad", "ae", "ba", "bc", "bd", "be", "ca", "cb",
               "abc", "abd", "bca", "bcd", "cde", "cab", "abcd", "bcde"]
    tokens += ["##ab", "##bc", "##cd", "##de", "##ea", "##ba", "##ce", "##db",
               "##abc", "##bcd", "##cde",
               "##aa", "##bb", "##cc", "##dd", "##ee", "##abcd"]
    assert len(tokens) == 50
    return Vocabulary(tokens)


def all_segmentations(tokens, word):
    initial = [t for t in tokens
               if not t.startswith("##") and t not in SPECIALS]
    continuation = [t for t in tokens if t.startswith("##")]
    results = []

    def walk(pos, acc):
        if pos == len(word):
            results.append(tuple(acc))
            return
        for tok in (initial if pos == 0 else continuation):
            raw = tok[2:] if pos else tok
            if raw and word.startswith(raw, pos):
                walk(pos + len(raw), acc + [tok])

    walk(0, [])
    return results


def greedy_reference(tokens, word):
    """Longest-match-at-each-position walk done by direct list scanning."""
    out, pos = [], 0
    while pos < len(word):
        best_raw, best_tok = "", None
        for tok in tokens:
            if tok in SPECIALS:
                continue
            is_continuation = tok.startswith("##")
            if is_continuation == (pos == 0):
                continue
            raw = tok[2:] if is_continuation else tok
            if len(raw) > len(best_raw) and word.startswith(raw, pos):
                best_raw, best_tok = raw, tok
        if best_tok is None:
            return None
        out.append(best_tok)
        pos += len(best_raw)
    return out


def piece_lengths(seg):
    return tuple(len(p[2:]) if p.startswith("##") else len(p) for p in seg)


def test_criterion_10_tokenizer_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(31)

    suite = probe.load_probe_suite()
    texts = [inst.premise for inst in suite] + [inst.hypothesis for inst in suite]
    for _ in range(200):
        chars = rng.choice(list("abc XY.,;()0129/-"), size=rng.integers(1, 30))
        texts.append("".join(chars))
    for text in texts:
        once = normalize(text)
        assert normalize(once) == once

    vocab = build_50_token_vocab()
    tokens = vocab.tokens
    encodable_words = []
    for _ in range(500):
        word = "".join(rng.choice(list(ALPHABET), size=rng.integers(1, 11)))
        enc = encode(vocab, word)
        segmentations = all_segmentations(tokens, word)
        reference = greedy_reference(tokens, word)
        if reference is None:
            assert list(enc.tokens) == ["[UNK]"]
        else:
            assert list(enc.tokens) == reference
            assert tuple(reference) in set(segmentations)
            assert tuple(enc.tokens) == max(segmentations, key=piece_lengths)
            assert decode(vocab, enc.ids) == word
            encodable_words.append(word)

    assert len(encodable_words) >= 100
    for _ in range(50):
        k = int(rng.integers(1, 8))
        picks = rng.integers(0, len(encodable_words), size=k)
        sentence = " ".join(encodable_words[i] for i in picks)
        assert decode(vocab, encode(vocab, sentence).ids) == sentence

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, f"500 words vs exhaustive oracle, {len(encodable_words)} "
               f"round-tripped, {elapsed:.1f}s")


# --- criterion 11: short-vs-long position budget harness ---------------------

def test_criterion_11_length_variant_harness(desk):
    start = time.perf_counter()
    documents = [" ".join(clinical_sentences(80, offset=o)) for o in (0, 7, 19)]
    for doc in documents:
        short_ids = prepare_document(doc, desk.vocab, 128)
        long_ids = prepare_document(doc, desk.vocab, 512)
        assert np.array_equal(short_ids[1:127], long_ids[1:127])
        assert len(short_ids) == 128
        assert long_ids[-1] == short_ids[127]

    task = TaskSpec("desk-docs", "multilabel", ("has-problem", "has-treatment"),
                    "micro_f1")
    symptom_set, drug_set = set(SYMPTOMS), set(DRUGS)

    def rows_at(max_positions):
        rows = []
        for sent in desk.corpus:
            words = set(sent.split())
            labels = []
            if words & symptom_set:
                labels.append(0)
            if words & drug_set:
                labels.append(1)
            rows.append((prepare_document(sent, desk.vocab, max_positions), labels))
        return rows

    reports = []
    for max_positions in (16, 32):
        rows = rows_at(max_positions)
        runs = finetune_task(
            desk.config, desk.two_phase.params, task, rows[:160], rows[160:],
            seeds=[0, 1, 2],
            hyper=FinetuneConfig(epochs=5, batch_size=8, lr=1e-3))
        reports.append(aggregate_seeds([r.dev_metric for r in runs]))

    short_report, long_report = reports
    assert len(short_report.values) == len(long_report.values) == 3
    assert short_report.median >= 0.9 and long_report.median >= 0.9

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(11, f"prefix property on 3 documents; micro-F1 medians "
               f"{short_report.median:.3f} (short) vs {long_report.median:.3f} "
               f"(long), {elapsed:.1f}s")
