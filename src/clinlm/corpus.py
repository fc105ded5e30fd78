"""Clinical note corpus operations.

Covers the bookkeeping that happens before any modeling: selecting usable
discharge summaries, splitting patients into train/dev/test without leakage,
picking the most frequent label codes, and summarizing dataset lengths.
It also holds the input path every clinlm reader is built on: numbered_lines
opens text files and packaged data, and every reader runs its per-line parse
inside parse_numbered, the one place that makes a bad line PATH:LINE: message.

All functions are deterministic; anything random takes an explicit seed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_args, get_origin

from .settings import SettingError, check_seeds, check_setting

SUBSET_NAMES = ("train", "dev", "test")
_NOTE_FIELDS = ("note_id", "patient_id", "encounter_id", "note_type", "provider_type", "text")


def numbered_lines(path, packaged: str | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its ending) for each line of the
    UTF-8 text file at path, or of the packaged data file named packaged
    when path is None. Lines split where iterating a text file splits them.
    This is the one place clinlm opens a text input."""
    source = Path(path) if path is not None else resources.files("clinlm") / "data" / packaged
    with source.open(encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                yield line_no, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each item as one UTF-8 line ending in \\n."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{line}\n" for line in lines)


def parse_numbered(path, numbered: Iterable[tuple[int, object]], parse: Callable,
                   record: str | None = None) -> list:
    """[parse(item) for each (line number, item) of numbered], where a
    ValueError from parse is re-raised as PATH:LINE: message. When record
    names what an item is, a file of none fails as PATH: no {record}."""
    out = []
    for line_no, item in numbered:
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if record and not out:
        raise ValueError(f"{path}: no {record}")
    return out


def numbered_ner_sentences(path, tag: Callable[[str], object]):
    """Yield (line number of the first word, words, tags) for each sentence
    of a word<TAB>tag file, each tag read through tag; a sentence's words
    sit on consecutive lines and blank lines part sentences. A malformed
    line, or a tag that tag refuses, fails as PATH:LINE: message."""
    def word_tag(line):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip():
            raise ValueError(f"expected word<TAB>tag, got {line!r}")
        return parts[0], tag(parts[1])

    for blank, group in groupby(numbered_lines(path), key=lambda item: not item[1]):
        if not blank:
            group = list(group)
            words, tags = zip(*parse_numbered(path, group, word_tag))
            yield group[0][0], list(words), list(tags)


def _has_type(value, kind) -> bool:
    """isinstance(value, kind), where list[T] means a list of T and a bool is not an int."""
    if get_origin(kind) is not None:
        return isinstance(value, get_origin(kind)) and all(_has_type(v, *get_args(kind))
                                                           for v in value)
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def read_jsonl(path, fields: Mapping[str, type], parse: Callable, record: str) -> list:
    """parse(record) for each non-blank line of a JSON-lines file. Each
    record must be an object holding every key of fields with a value of that
    type: list[str] means a list of strings, a bool is not an int, and object
    takes anything. A line that is not such a record, or that parse refuses,
    fails as PATH:LINE: message, and a file of none as PATH: no {record}.
    This is the one place clinlm parses JSON lines."""
    def row(line):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON: {exc}") from exc
        if not isinstance(value, dict):
            raise ValueError(f"expected a JSON object, got {line.strip()!r}")
        for name, kind in fields.items():
            if name not in value:
                raise ValueError(f"record lacks key {name!r}")
            if not _has_type(value[name], kind):
                kind_name = kind.__name__ if get_origin(kind) is None else kind
                raise ValueError(f"{name!r} must be {kind_name}, got {value[name]!r}")
        return parse(value)

    return parse_numbered(path, ((n, l) for n, l in numbered_lines(path) if l.strip()), row, record)


def read_table(path, packaged: str, header: str, parse: Callable) -> list:
    """parse(*fields) for each non-blank row of a tab-separated table (the
    packaged data file when path is None) whose first line is header and
    whose rows have as many fields as header. Any failure, of the layout
    or a ValueError from parse, is PATH:LINE: message."""
    where = path if path is not None else f"clinlm/data/{packaged}"
    lines = numbered_lines(path, packaged)
    if next(lines, (1, None))[1] != header:
        raise ValueError(f"{where}:1: table lacks its header line {header!r}")
    width = header.count("\t") + 1

    def row(line):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"expected {width} fields, got {len(fields)}")
        return parse(*fields)

    return parse_numbered(where, ((n, line) for n, line in lines if line.strip()), row)


@lru_cache(maxsize=None)
def packaged_lines(filename: str) -> tuple[str, ...]:
    """The non-blank lines of a packaged data file, such as a closed label list."""
    return tuple(line for _, line in numbered_lines(None, filename) if line.strip())


@dataclass
class NoteRecord:
    """One clinical note; its length is len(text)."""

    note_id: str
    patient_id: str
    encounter_id: str
    note_type: str
    provider_type: str
    text: str

    def __post_init__(self):
        for name in ("note_id", "patient_id", "encounter_id"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")


@dataclass(frozen=True)
class DatasetStats:
    n_examples: int
    min_words: int
    max_words: int
    median_words: float
    mean_words: float


def filter_discharge_summaries(notes: Sequence[NoteRecord]) -> list[NoteRecord]:
    """Keep notes longer than 2000 characters, drop nursing-authored ones,
    and retain at most one note per encounter (the longest; ties go to the
    lexicographically smallest note_id).

    Output order follows the first appearance of each kept encounter in the
    input. Applying the filter twice gives the same result as applying it
    once.
    """
    best: dict[str, NoteRecord] = {}  # keeps the order encounters first appear in
    for note in notes:
        if len(note.text) <= 2000 or note.provider_type.lower() == "nursing":
            continue
        kept = best.get(note.encounter_id)
        if kept is None or (-len(note.text), note.note_id) < (-len(kept.text), kept.note_id):
            best[note.encounter_id] = note
    return list(best.values())


def split_by_patient(patient_ids: Iterable[str], ratios: tuple[float, float, float],
                     seed: int) -> dict[str, str]:
    """Assign each distinct patient id to train/dev/test.

    Duplicate ids collapse to a single assignment, so the result is a
    partition of patients, never of notes. The distinct ids are sorted,
    shuffled with the given seed, and sliced by the ratio fractions with
    floor arithmetic; leftover patients go to train. The assignment depends
    only on the id set, the ratios, and the seed.
    """
    check_seeds("seed", seed)
    total = sum(ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or not 0 < total < math.inf:
        raise SettingError("ratios", f"must be three non-negative numbers with a finite, "
                                     f"non-zero sum: {ratios!r}")
    ids = sorted(set(patient_ids))
    random.Random(seed).shuffle(ids)
    n = len(ids)
    n_dev, n_test = (int(n * ratio / total) for ratio in ratios[1:])
    cuts = (0, n - n_dev - n_test, n - n_test, n)
    return {pid: name for name, start, stop in zip(SUBSET_NAMES, cuts, cuts[1:])
            for pid in ids[start:stop]}


def select_top_k_labels(occurrences: Iterable[str], k: int) -> list[str]:
    """Return the k most frequent labels, most frequent first.

    Ties break lexicographically so reruns are reproducible. Fewer than k
    distinct labels just yields all of them; an empty occurrence list yields
    an empty list.
    """
    check_setting("k", k, "int")
    counts = Counter(occurrences)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [label for label, _ in ranked[:k]]


def dataset_stats(texts: Sequence[str]) -> DatasetStats:
    """Whitespace-word length summary of a set of examples."""
    if not texts:
        raise ValueError("cannot summarize an empty dataset")
    lengths = [len(t.split()) for t in texts]
    return DatasetStats(
        n_examples=len(lengths),
        min_words=min(lengths),
        max_words=max(lengths),
        median_words=float(statistics.median(lengths)),
        mean_words=sum(lengths) / len(lengths),
    )


def format_stats_row(name: str, stats: DatasetStats) -> str:
    """One tab-separated report row: name, n, min, max, median, mean."""
    median = stats.median_words
    median_text = f"{int(median)}" if median == int(median) else f"{median:g}"
    return "\t".join([
        name,
        str(stats.n_examples),
        str(stats.min_words),
        str(stats.max_words),
        median_text,
        f"{stats.mean_words:.1f}",
    ])


def read_notes(path) -> list[NoteRecord]:
    """Read JSON-lines note records whose six fields are all strings; a bad
    line, an empty id included, fails as PATH:LINE: message, and a file with
    no record as PATH: no note record."""
    return read_jsonl(path, dict.fromkeys(_NOTE_FIELDS, str),
                      lambda row: NoteRecord(**{k: row[k] for k in _NOTE_FIELDS}), "note record")


def write_notes(path, notes: Sequence[NoteRecord]) -> None:
    write_lines(path, (json.dumps({k: getattr(n, k) for k in _NOTE_FIELDS},
                                  ensure_ascii=False, sort_keys=True) for n in notes))


def write_split_manifest(path, assignment: dict[str, str]) -> None:
    """Write patient-to-subset lines, sorted by patient id for stable bytes."""
    write_lines(path, (f"{pid}\t{assignment[pid]}" for pid in sorted(assignment)))

