"""Command-line interface.

One subcommand per pipeline stage, from corpus preparation through
pretraining, fine-tuning, evaluation, and probing. Every command reads and
writes UTF-8, takes all randomness from an explicit --seed, and produces
byte-identical output when rerun with the same inputs and flags. Failures
exit nonzero with a one-line diagnostic on stderr.

Each pretrain/finetune setting is declared once, as a flag with its type
and no default, and stored under its field's name, so a setting the library
refuses is named by its flag. A flat key-value config file (one "key = value"
per line, # comments, keys spelled like the flags with underscores) sets
each setting no flag set, and a refused value from the file is named by its
line. A setting neither sets is left out of the library call, so every
default is the library's. Only pretrain and finetune import numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import fields

from . import corpus, metrics, probe, wordpiece
from .settings import (TASK_NAMES, AccumulationConfig, AdamConfig, EncoderConfig,
                       FinetuneConfig, MaskingPolicy, PhasePlan, SettingError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def read_config(path, settings: dict[str, argparse.Action]) -> dict[str, tuple[int, object]]:
    """Flat key-value config: "key = value" lines, # comments, read as key ->
    (its line number, its value). settings maps each allowed key to its flag;
    a value takes the flag's type and must be one of its choices. Keys outside
    the command's settings, or set on two lines, are rejected so typos cannot
    silently vanish."""
    seen = set()

    def entry(numbered):
        line_no, line = numbered
        if "=" not in line:
            raise ValueError(f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in settings:
            raise ValueError(f"unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"config key {key!r} is set again")
        seen.add(key)
        flag = settings[key]
        try:
            typed = flag.type(value) if flag.type else value
        except ValueError:
            raise ValueError(f"{key}: invalid {flag.type.__name__} value {value!r}") from None
        if flag.choices is not None and typed not in flag.choices:
            raise ValueError(f"{key}: invalid choice {value!r}, "
                             f"expected one of {', '.join(flag.choices)}")
        return key, (line_no, typed)

    lines = ((n, line.split("#", 1)[0].strip()) for n, line in corpus.numbered_lines(path))
    return dict(corpus.parse_numbered(path, ((n, (n, line)) for n, line in lines if line), entry))


def _set(args, *names) -> dict:
    """name -> value of each named setting that a flag or the config file set."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _settings(cls, args, **given):
    """cls built from given and from each other field's value, if one was set."""
    return cls(**_set(args, *(f.name for f in fields(cls) if f.name not in given)), **given)


def _read_lines(path) -> list[str]:
    return [line for _, line in corpus.numbered_lines(path)]


def _parsed_lines(parse):
    """A reader of a file's lines, each through parse, a refusal as PATH:LINE: message."""
    return lambda path: corpus.parse_numbered(path, corpus.numbered_lines(path), parse)


def _read_words(path, what: str) -> list[str]:
    """The lines of a text file, refused as PATH: {what} contains no words."""
    lines = _read_lines(path)
    if not any(line.split() for line in lines):
        raise ValueError(f"{path}: {what} contains no words")
    return lines


def _parse_plan(text: str) -> PhasePlan:
    """The --plan value as a PhasePlan; every refusal is a SettingError of plan."""
    try:
        phases = []
        for part in text.split(","):
            try:
                length, steps = part.split(":")
                phases.append((int(length), int(steps)))
            except ValueError:
                raise ValueError(f"bad entry {part!r}, expected LENGTH:STEPS") from None
        return PhasePlan(tuple(phases))
    except ValueError as exc:
        raise SettingError("plan", f"{text!r}: {exc}") from exc


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        ratios = tuple(float(p) for p in text.split(":"))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise SettingError("ratios", f"must be TRAIN:DEV:TEST numbers, got {text!r}")
    return ratios


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(p) for p in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds or ("," not in text and seeds[0] < 1):
        raise SettingError("seeds", f"must be a count >= 1 or a comma list of ints, got {text!r}")
    return seeds if "," in text else list(range(seeds[0]))


def _parse_named_paths(args, dest: str) -> dict[str, str]:
    """The NAME=PATH values of the repeatable flag stored under dest."""
    out = {}
    for pair in getattr(args, dest):
        if "=" not in pair:
            raise SettingError(dest, f"must be NAME=PATH, got {pair!r}")
        name, path = pair.split("=", 1)
        if name in out:
            raise SettingError(dest, f"name {name!r} is given twice")
        out[name] = path
    return out


def _cmd_normalize(args) -> int:
    corpus.write_lines(args.output, (wordpiece.normalize(l) for l in _read_lines(args.input)))
    return 0


def _cmd_train_vocab(args) -> int:
    lines = [wordpiece.normalize(l) for l in _read_words(args.corpus, "training corpus")]
    vocab = wordpiece.train_wordpiece(lines, args.declared_size, **_set(args, "min_frequency"))
    wordpiece.write_vocab(args.output, vocab)
    return 0


def _cmd_encode(args) -> int:
    vocab = wordpiece.read_vocab(args.vocab)
    out = []
    for line in _read_lines(args.input):
        enc = wordpiece.encode(vocab, wordpiece.normalize(line))
        out.append(" ".join(str(i) for i in enc.ids) if args.ids else " ".join(enc.tokens))
    corpus.write_lines(args.output, out)
    return 0


def _cmd_compress_report(args) -> int:
    datasets = {name: _read_words(path, f"dataset {name!r}")  # else its baseline length is 0
                for name, path in _parse_named_paths(args, "dataset").items()}
    vocabularies = {name: wordpiece.read_vocab(path)
                    for name, path in _parse_named_paths(args, "vocab").items()}
    text = wordpiece.format_length_table(
        wordpiece.compression_report(datasets, vocabularies, args.baseline))
    if args.output:
        corpus.write_lines(args.output, text.splitlines())
    else:
        print(text)
    return 0


def _cmd_filter_discharge(args) -> int:
    notes = corpus.read_notes(args.notes)
    corpus.write_notes(args.output, corpus.filter_discharge_summaries(notes))
    return 0


def _cmd_split(args) -> int:
    notes = corpus.read_notes(args.notes)
    assignment = corpus.split_by_patient((n.patient_id for n in notes),
                                         _parse_ratios(args.ratios), args.seed)
    corpus.write_split_manifest(args.output, assignment)
    return 0


def _cmd_stats(args) -> int:
    texts = [l for l in _read_words(args.input, "input") if l.strip()]
    stats = corpus.dataset_stats(texts)
    print("dataset\tn\tmin\tmax\tmedian\tmean")
    print(corpus.format_stats_row(args.name, stats))
    return 0


def _cmd_top_labels(args) -> int:
    read = _parsed_lines(lambda l: metrics.label_set(l.split("\t", 1)[-1]))  # [NOTE<TAB>]CODES
    occurrences = [code for codes in read(args.input) for code in sorted(codes)]
    corpus.write_lines(args.output, corpus.select_top_k_labels(occurrences, args.k))
    return 0


def _cmd_pretrain(args) -> int:
    from . import encoder, pretrain
    vocab = wordpiece.read_vocab(args.vocab)
    plan = _parse_plan(args.plan)
    config = _settings(EncoderConfig, args, vocab_size=len(vocab), max_positions=(
        plan.max_length() if args.max_positions is None else args.max_positions))
    accum = _settings(AccumulationConfig, args,
                      effective_batch=args.micro_batch_size * args.accumulation_steps)
    result = pretrain.run_pretraining(
        _read_words(args.corpus, "pretraining corpus"), vocab, config, plan,
        _settings(MaskingPolicy, args), accum, _settings(AdamConfig, args), args.seed,
        **_set(args, "schedule", "warmup_fraction"))
    encoder.save_checkpoint(args.out, config, result.params)
    if args.loss_log:
        pretrain.write_loss_log(args.loss_log, result.loss_log)
    print(f"pretrained {plan.total_steps} steps; final loss {result.loss_log[-1].loss:.4f}")
    return 0


def _cmd_finetune(args) -> int:
    from . import encoder, finetune
    task = finetune.builtin_task(args.task)
    config, params, vocab, max_positions = finetune.load_task_model(
        task, args.checkpoint, args.vocab, **_set(args, "max_positions"))
    train_rows = finetune.load_task_rows(task, args.train, vocab, max_positions)
    dev_rows = finetune.load_task_rows(task, args.dev, vocab, max_positions)
    finetune.check_dev_rows(task, dev_rows, args.dev)
    runs = finetune.finetune_task(config, params, task, train_rows, dev_rows,
                                  _parse_seeds(args.seeds), _settings(FinetuneConfig, args))
    report = metrics.aggregate_seeds([r.dev_metric for r in runs])
    if args.out_prefix:
        for run in runs:
            encoder.save_checkpoint(f"{args.out_prefix}.seed{run.seed}.ckpt", config, run.params)
    for run in runs:
        print(f"seed {run.seed}\t{task.selection_metric} {run.dev_metric:.4f}"
              f"\tbest epoch {run.best_epoch}")
    print(f"median {report.median:.4f}\tstddev {report.stddev:.4f}")
    return 0


def _scored_files(args, read, unit: str) -> tuple[list, list]:
    """read of --gold and --pred, refused as PATH: on unequal counts or none."""
    gold, pred = read(args.gold), read(args.pred)
    if len(gold) != len(pred):
        raise ValueError(f"{args.pred}: {len(pred)} {unit}, but {args.gold}: {len(gold)}")
    if not gold:
        raise ValueError(f"{args.gold}: no {unit} to score")
    return gold, pred


def _cmd_evaluate(args) -> int:
    if args.aggregate:
        if args.gold or args.pred:
            raise SettingError("aggregate", "takes no --gold or --pred")
        if args.metric:
            raise SettingError("aggregate", "takes no --metric: it summarizes its own values")
        try:
            values = [float(v) for v in args.aggregate.split(",")]
        except ValueError:
            raise SettingError("aggregate", f"must be a comma list of numbers, "
                                            f"got {args.aggregate!r}") from None
        report = metrics.aggregate_seeds(values)
        print(f"median {report.median:.4f}\tstddev {report.stddev:.4f}\tn {len(values)}")
        return 0
    if not args.metric:
        raise SettingError("metric", "is required without --aggregate")
    if not args.gold or not args.pred:
        raise ValueError("evaluate needs --gold and --pred (or --aggregate)")
    if args.metric == "accuracy":  # one label a line
        gold, pred = _scored_files(args, _parsed_lines(metrics.label), "lines")
        print(f"accuracy {metrics.accuracy(gold, pred):.4f}")
        return 0
    if args.metric == "micro-f1":  # one label set a line
        gold, pred = _scored_files(args, _parsed_lines(metrics.label_set), "lines")
        p, r, f1 = metrics.micro_f1(gold, pred)
    else:
        gold, pred = _scored_files(args, lambda path: [
            *corpus.numbered_ner_sentences(path, metrics.bio_tag)], "sentences")
        for (gold_line, _, gold_tags), (pred_line, _, pred_tags) in zip(gold, pred):
            if len(gold_tags) != len(pred_tags):
                raise ValueError(f"{args.pred}:{pred_line}: sentence length {len(pred_tags)}, but "
                                 f"the gold one at {args.gold}:{gold_line} has {len(gold_tags)}")
        p, r, f1 = metrics.corpus_entity_f1([s[2] for s in gold], [s[2] for s in pred],
                                            token_level=args.metric == "token-f1")
    print(f"precision {p:.4f}\trecall {r:.4f}\tf1 {f1:.4f}")
    return 0


def _cmd_probe(args) -> int:
    suite = probe.load_probe_suite(args.suite)
    if not args.predictions:
        counts = Counter(inst.category for inst in suite)
        covered = sum(inst.oracle_covered for inst in suite)
        print(f"suite verified: {len(suite)} instances, {covered} oracle-covered")
        for category in probe.CATEGORIES:
            print(f"{category}\t{counts[category]}")
        return 0
    predictions = _parsed_lines(probe.check_label)(args.predictions)
    if len(predictions) != len(suite):
        raise ValueError(f"{args.predictions}: {len(predictions)} predictions for "
                         f"{len(suite)} instances")
    rows = iter(predictions)
    report = probe.run_probes(lambda premise, hypothesis: next(rows), suite)
    print(report.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clinlm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="punctuation-separate text, line by line")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("train-vocab", help="learn a wordpiece vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--size", type=int, required=True, dest="declared_size")
    p.add_argument("--min-frequency", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_train_vocab)

    p = sub.add_parser("encode", help="wordpiece-encode text, line by line")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--ids", action="store_true", help="emit token ids instead of pieces")
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("compress-report",
                       help="mean/median encoded lengths per dataset and vocabulary")
    p.add_argument("--dataset", action="append", required=True, metavar="NAME=PATH")
    p.add_argument("--vocab", action="append", required=True, metavar="NAME=PATH")
    p.add_argument("--baseline", required=True)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_compress_report)

    p = sub.add_parser("filter-discharge",
                       help="keep long non-nursing notes, one per encounter")
    p.add_argument("--notes", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_filter_discharge)

    p = sub.add_parser("split", help="patient-wise train/dev/test manifest")
    p.add_argument("--notes", required=True)
    p.add_argument("--ratios", default="8:1:1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_split)

    p = sub.add_parser("stats", help="word-count summary of a text file")
    p.add_argument("--input", required=True)
    p.add_argument("--name", default="dataset")
    p.set_defaults(run=_cmd_stats)

    p = sub.add_parser("top-labels", help="most frequent label codes")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_top_labels)

    p = sub.add_parser("pretrain", help="masked-LM pretraining with a phase plan")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--plan", required=True, metavar="LEN:STEPS[,LEN:STEPS...]")
    p.add_argument("--micro-batch", type=int, required=True, dest="micro_batch_size")
    p.add_argument("--accum", type=int, required=True, dest="accumulation_steps")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log")
    settings = [p.add_argument(flag, type=cast) for flag, cast in (
        ("--hidden-dim", int), ("--n-layers", int), ("--n-heads", int), ("--ff-dim", int),
        ("--max-positions", int), ("--lr", float), ("--warmup-fraction", float),
        ("--mask-prob", float))]
    settings.append(p.add_argument(
        "--dropout", type=float,
        help="dropout rate of every pretraining step; the checkpoint keeps it, so "
             "fine-tuning steps use it too (prediction and dev scoring never drop)"))
    settings.append(p.add_argument("--schedule", choices=("constant", "linear")))
    p.add_argument("--config", help="flat key-value file of the settings no flag sets")
    p.set_defaults(run=_cmd_pretrain, config_keys={a.dest: a for a in settings})

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on a task")
    p.add_argument("--task", required=True, choices=TASK_NAMES)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--seeds", required=True,
                   help="a count (5 means seeds 0..4) or a comma list")
    p.add_argument("--out-prefix", help="write per-seed checkpoints with this prefix")
    settings = [p.add_argument(flag, type=cast) for flag, cast in (
        ("--epochs", int), ("--lr", float), ("--batch-size", int), ("--max-positions", int),
        ("--max-steps", int))]
    p.add_argument("--config", help="flat key-value file of the settings no flag sets")
    p.set_defaults(run=_cmd_finetune, config_keys={a.dest: a for a in settings})

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--metric", choices=("entity-f1", "token-f1", "micro-f1", "accuracy"),
                   help="required, unless --aggregate")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--aggregate", help="comma list of per-seed values to summarize")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("probe", help="verify the probe suite or score predictions on it")
    p.add_argument("--suite", help="alternative suite file (defaults to the packaged one)")
    p.add_argument("--predictions", help="one label per suite row")
    p.set_defaults(run=_cmd_probe)

    for p in sub.choices.values():  # dest -> flag, to name a setting the library refuses
        p.set_defaults(flags={a.dest: a.option_strings[0] for a in p._actions})
    return parser


def dispatch(argv) -> int:
    located = {}  # setting -> CFG:LINE, for each file value that no flag overrode
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            # a setting flag has no default, so None means no flag set it;
            # the file's values are already typed and checked
            for key, (line_no, value) in read_config(args.config, args.config_keys).items():
                if getattr(args, key) is None:
                    setattr(args, key, value)
                    located[key] = f"{args.config}:{line_no}"
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SettingError as exc:  # raised by run, so args is set: name its line, or its flag
        where = located.get(exc.name)
        name = f"{where}: {exc.name}" if where else args.flags.get(exc.name, exc.name)
        print(f"error: {name} {exc.detail}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # one BLAS thread, so a run's bytes do not depend on the core count; no
    # numpy is loaded yet, as only pretrain and finetune import it
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
