"""Cased wordpiece tokenization.

Implements the full subword path: punctuation-separating text normalization,
a likelihood-driven wordpiece trainer, greedy longest-match encoding (one
lookup for a word that is a token; whole-word unknown fallback), decoding,
and a compression report comparing vocabularies on the same datasets.

Token ids are dense: a token's id is its line number in the vocabulary file.
The five special tokens always occupy ids 0 through 4.
"""

from __future__ import annotations

import heapq
import math
import re
import statistics
import string
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .corpus import numbered_lines, read_table, write_lines
from .settings import SettingError, check_setting

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIALS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
CONTINUATION = "##"

_ASCII_PUNCT = set(string.punctuation)
_MAYBE_PUNCT = re.compile(r"[^A-Za-z0-9 ]")


def _is_punct(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


def _spaced(match: re.Match) -> str:
    """The matched character, and if it is punctuation, a space on each side
    where it touches a letter."""
    ch, i, text = match.group(), match.start(), match.string
    if not _is_punct(ch):
        return ch
    return " " * text[i - 1:i].isalpha() + ch + " " * text[i + 1:i + 2].isalpha()


def normalize(text: str) -> str:
    """Insert a space between every punctuation character and any letter
    directly adjacent to it, leaving all other characters alone.

    Digits do not trigger separation, so measurements like 120/80 survive
    intact. The function is idempotent: spaces inserted on the first pass
    shield the punctuation on any later pass. Only the characters that can
    be punctuation, those not an ASCII letter, digit or space, are tested.
    """
    return _MAYBE_PUNCT.sub(_spaced, text)


def _first_bad_token(tokens: Sequence[str]) -> tuple[int, str] | None:
    """(id, problem) of the first token that breaks the vocabulary rules, or
    None: the five specials lead, and no token is a repeat, empty, or a bare
    continuation marker."""
    if tuple(tokens[:len(SPECIALS)]) != SPECIALS:
        return 0, f"vocabulary must start with {SPECIALS}, got {tokens[:len(SPECIALS)]}"
    seen: set[str] = set()
    for token_id, tok in enumerate(tokens):
        if tok in seen:
            return token_id, f"duplicate token {tok!r} in vocabulary"
        if not tok or tok == CONTINUATION:
            return token_id, f"token {tok!r} is empty or has no body"
        seen.add(tok)
    return None


def _lengths_by_first_char(keys: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """First character -> the lengths of the keys starting with it, longest first."""
    lengths = defaultdict(set)
    for key in keys:
        lengths[key[0]].add(len(key))
    return {ch: tuple(sorted(found, reverse=True)) for ch, found in lengths.items()}


@dataclass
class Vocabulary:
    """Ordered token inventory. Index in `tokens` is the token id."""

    tokens: list[str]

    token_to_id: dict[str, int] = field(init=False, repr=False)
    _initial: dict[str, str] = field(init=False, repr=False)
    _bodies: dict[str, str] = field(init=False, repr=False)
    _initial_lengths: dict[str, tuple[int, ...]] = field(init=False, repr=False)
    _body_lengths: dict[str, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        bad = _first_bad_token(self.tokens)
        if bad:
            raise ValueError(bad[1])
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        self._initial = {t: t for t in self.tokens if not t.startswith(CONTINUATION)}
        self._bodies = {t[len(CONTINUATION):]: t for t in self.tokens if t.startswith(CONTINUATION)}
        self._initial_lengths = _lengths_by_first_char(self._initial)
        self._body_lengths = _lengths_by_first_char(self._bodies)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValueError(f"token id {token_id} outside vocabulary of size {len(self.tokens)}")
        return self.tokens[token_id]

    def with_extra_tokens(self, extra: Sequence[str]) -> "Vocabulary":
        """New vocabulary with `extra` appended; ids keep, and repeats are rejected."""
        return Vocabulary(self.tokens + list(extra))


@dataclass(frozen=True)
class Encoding:
    ids: tuple[int, ...]
    tokens: tuple[str, ...]


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _merge_symbols(left: str, right: str) -> str:
    return left + right[len(CONTINUATION):]


def _apply_merge(symbols: list[str], pair: tuple[str, str],
                 merged: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Merge pair left to right (##a ##a ##a gives ##a##a ##a); merged is new.
    Returns the rewritten symbols and, per merge site in order, the index of
    its left symbol in symbols and of the merged symbol in the result."""
    left, right = pair
    out: list[str] = []
    sites: list[tuple[int, int]] = []
    for i, sym in enumerate(symbols):
        if sym == right and out and out[-1] == left:
            out[-1] = merged
            sites.append((i - 1, len(out) - 1))
        else:
            out.append(sym)
    return out, sites


def train_wordpiece(corpus: Iterable[str], declared_size: int,
                    min_frequency: int = 2) -> Vocabulary:
    """Learn a wordpiece vocabulary of exactly `declared_size` tokens, or as
    many as the corpus supports.

    The corpus must already be normalized. Every word starts as its first
    character plus ##-prefixed continuation characters. Each round merges the
    adjacent symbol pair with the highest likelihood score

        count(pair) / (count(left) * count(right))

    subject to count(pair) >= min_frequency. Ties break by higher raw pair
    count, then by the smaller (left, right) pair. Training stops when the
    size budget is reached or no pair qualifies. No merge makes a first
    piece spelled like a continuation (##...).

    Counts are built once, with an index of the word types that may hold each
    pair (one entry per occurrence; new pairs add entries, none are removed)
    and of the pairs holding each symbol. Candidates wait in a heap keyed
    (-score, -count, pair) whose stale entries are skipped. A merge rewrites
    the words listed under its pair, skipping those it leaves unchanged. Only
    the pairs beside its sites change: per word, it subtracts the old pairs
    starting one before, at and one after each site's left symbol, and adds
    the new pairs starting one before and at each merged symbol, each set of
    indices deduplicated so that adjacent sites count a shared pair once.
    Every other pair maps one to one between the old and the new word. It
    then re-pushes the pairs of left, right and the merged symbol: every pair
    whose key changed holds one.
    """
    check_setting("min_frequency", min_frequency, "int")
    check_setting("declared_size", declared_size, "int")
    word_freq = Counter(chain.from_iterable(map(str.split, corpus)))
    if not word_freq:
        raise ValueError("training corpus contains no words")

    alphabet = sorted(set(chain.from_iterable(word_freq)))
    tokens = list(SPECIALS) + alphabet + [CONTINUATION + ch for ch in alphabet]
    if declared_size < len(tokens):
        raise SettingError("declared_size", f"{declared_size} is below the alphabet floor "
                                            f"{len(tokens)}")

    seen = set(tokens)
    words, freqs = list(map(_word_symbols, word_freq)), list(word_freq.values())
    pair_count, symbol_count = {}, {}
    pair_words, symbol_pairs = defaultdict(list), defaultdict(set)
    for index, (symbols, freq) in enumerate(zip(words, freqs)):
        for sym in symbols:
            symbol_count[sym] = symbol_count.get(sym, 0) + freq
        for pair in zip(symbols, symbols[1:]):
            pair_words[pair].append(index)
    for pair, holders in pair_words.items():
        pair_count[pair] = sum([freqs[index] for index in holders])
        symbol_pairs[pair[0]].add(pair)
        symbol_pairs[pair[1]].add(pair)

    def key(pair: tuple[str, str]) -> tuple[float, int, tuple[str, str]]:
        count = pair_count[pair]
        score = count / (symbol_count[pair[0]] * symbol_count[pair[1]])
        return (-score, -count, pair)

    heap = [key(pair) for pair in pair_count]
    heapq.heapify(heap)

    while len(tokens) < declared_size and heap:
        entry = heapq.heappop(heap)
        left, right = best = entry[2]
        merged = _merge_symbols(left, right)
        if (pair_count[best] < min_frequency or merged in seen or entry != key(best)
                or merged.startswith(CONTINUATION) and not left.startswith(CONTINUATION)):
            continue
        tokens.append(merged)
        seen.add(merged)
        merges = 0
        for index in pair_words.pop(best):
            old, freq = words[index], freqs[index]
            new, sites = _apply_merge(old, best, merged)
            if not sites:
                continue
            words[index] = new
            merges += len(sites) * freq
            last = len(old) - 1
            for k in dict.fromkeys(n for i, _ in sites for n in (i - 1, i, i + 1)
                                   if 0 <= n < last):
                pair_count[old[k], old[k + 1]] -= freq
            last = len(new) - 1
            for k in dict.fromkeys(n for _, j in sites for n in (j - 1, j) if 0 <= n < last):
                pair = new[k], new[k + 1]
                pair_count[pair] = pair_count.get(pair, 0) + freq
                pair_words[pair].append(index)
                symbol_pairs[pair[0]].add(pair)
                symbol_pairs[pair[1]].add(pair)
        symbol_count[left] -= merges
        symbol_count[right] -= merges
        symbol_count[merged] = merges
        for pair in symbol_pairs[left] | symbol_pairs[right] | symbol_pairs[merged]:
            count = pair_count[pair]
            if count:
                score = count / (symbol_count[pair[0]] * symbol_count[pair[1]])
                heapq.heappush(heap, (-score, -count, pair))

    return Vocabulary(tokens)


def encode(vocab: Vocabulary, text: str) -> Encoding:
    """Encode normalized text by greedy longest-match segmentation of each
    whitespace word. A word that is a word-initial token is its own longest
    match, so one lookup ends it. Any other word repeatedly takes the longest
    token matching its remaining prefix, trying only the lengths of the tokens
    that start with that prefix's first character: a word-initial token
    first, so never one spelled ##..., then continuation tokens, looked up by
    their body. If no token matches at some point, the word is one [UNK].
    """
    initial, bodies, body_lengths, tokens = vocab._initial, vocab._bodies, vocab._body_lengths, []
    for word in text.split():
        if word in initial:
            tokens.append(word)
            continue
        pieces, start, table, lengths = [], 0, initial, vocab._initial_lengths
        while start < len(word):
            for length in lengths.get(word[start], ()):
                if start + length <= len(word) and (match := table.get(word[start:start + length])):
                    break
            else:
                pieces = [UNK]
                break
            pieces.append(match)
            start, table, lengths = start + length, bodies, body_lengths
        tokens += pieces
    return Encoding(ids=tuple([vocab.token_to_id[t] for t in tokens]), tokens=tuple(tokens))


def decode(vocab: Vocabulary, ids: Sequence[int]) -> str:
    """Rebuild text from ids: specials are dropped, continuation pieces glue
    to the previous piece, and everything else joins with single spaces."""
    words: list[str] = []
    for token_id in ids:
        token = vocab.token_of(token_id)
        if token in SPECIALS:
            continue
        if token.startswith(CONTINUATION) and words:
            words[-1] += token[len(CONTINUATION):]
        else:
            words.append(token)
    return " ".join(words)


def round_half_away_from_zero(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


@dataclass(frozen=True)
class LengthRow:
    """Mean and median encoded length of one dataset under one vocabulary and
    their rounded percentage changes against its baseline vocabulary: None on
    a published baseline row, and until with_percentages fills them."""

    dataset: str
    vocabulary: str
    mean_length: float
    median_length: float
    pct_mean: int | None = None
    pct_median: int | None = None


def pct_diff(candidate: float, base: float) -> int:
    """Rounded percentage change of candidate relative to base, half away
    from zero."""
    if base == 0:
        raise ValueError("baseline value is zero")
    return round_half_away_from_zero(100.0 * (candidate - base) / base)


def with_percentages(rows: Iterable[LengthRow],
                     baselines: Mapping[str, LengthRow]) -> list[LengthRow]:
    """rows with both percentage columns filled, through pct_diff, against
    the baseline row of each row's dataset."""
    return [replace(row, pct_mean=pct_diff(row.mean_length, baselines[row.dataset].mean_length),
                    pct_median=pct_diff(row.median_length, baselines[row.dataset].median_length))
            for row in rows]


def compression_report(
    datasets: Mapping[str, Sequence[str]],
    vocabularies: Mapping[str, Vocabulary],
    baseline: str,
) -> list[LengthRow]:
    """Mean and median encoded lengths per (dataset, vocabulary), with the
    rounded percentage change of each vocabulary against the baseline one.

    Texts are normalized before encoding so every vocabulary sees identical
    input. The baseline rows carry a 0% difference by construction.
    """
    if baseline not in vocabularies:
        raise ValueError(f"baseline {baseline!r} is not among the vocabularies")
    for name, texts in datasets.items():
        if not texts:
            raise ValueError(f"dataset {name!r} is empty")

    rows = []
    for ds_name, texts in datasets.items():
        normalized = [normalize(t) for t in texts]
        for vb_name, vocab in vocabularies.items():
            counts = [len(encode(vocab, t).ids) for t in normalized]
            rows.append(LengthRow(ds_name, vb_name, sum(counts) / len(counts),
                                  float(statistics.median(counts))))
    return with_percentages(rows, {r.dataset: r for r in rows if r.vocabulary == baseline})


def format_length_table(rows: Iterable[LengthRow]) -> str:
    """A header line, then one tab-separated line per row."""
    return "\n".join(["dataset\tvocabulary\tmean\tpct_diff_mean\tmedian\tpct_diff_median"] + [
        f"{r.dataset}\t{r.vocabulary}\t{r.mean_length:g}\t{r.pct_mean}%"
        f"\t{r.median_length:g}\t{r.pct_median}%" for r in rows])


def load_length_reference(path=None) -> list[LengthRow]:
    """Load the packaged table of encoded-length measurements across four
    vocabularies (the wikipedia-books rows are each dataset's baseline). A
    bad row fails as PATH:LINE: message."""
    return read_table(path, "encoding_length_reference.tsv",
                      "dataset\tvocabulary\tmean\tmedian\tpct_mean\tpct_median",
                      _length_reference_row)


def _length_reference_row(dataset, vocabulary, mean, median, pct_mean,
                          pct_median) -> LengthRow:
    base = pct_mean == "base"
    if base != (pct_median == "base"):
        raise ValueError("half-baseline row")
    return LengthRow(
        dataset=dataset,
        vocabulary=vocabulary,
        mean_length=float(mean),
        median_length=float(median),
        pct_mean=None if base else int(pct_mean),
        pct_median=None if base else int(pct_median),
    )


def verify_length_reference(rows: Sequence[LengthRow]) -> list[str]:
    """Recompute every non-baseline percentage cell from the printed mean and
    median columns and describe each cell that disagrees with the printed
    percentage. An empty result means the whole table is arithmetically
    self-consistent under nearest-integer rounding.
    """
    base: dict[str, LengthRow] = {}
    for row in rows:
        if row.pct_mean is None:
            if row.dataset in base:
                raise ValueError(f"dataset {row.dataset!r} has two baseline rows")
            base[row.dataset] = row
    printed = [row for row in rows if row.pct_mean is not None]
    for row in printed:
        if row.dataset not in base:
            raise ValueError(f"dataset {row.dataset!r} has no baseline row")
    deviations = []
    for row, computed in zip(printed, with_percentages(printed, base)):
        for stat, shown, value in (("mean", row.pct_mean, computed.pct_mean),
                                   ("median", row.pct_median, computed.pct_median)):
            if value != shown:
                deviations.append(f"{row.dataset}/{row.vocabulary} {stat}: "
                                  f"computed {value}% but printed {shown}%")
    return deviations


def write_vocab(path, vocab: Vocabulary) -> None:
    """One token per line; the line number (from zero) is the token id."""
    write_lines(path, vocab.tokens)


def read_vocab(path) -> Vocabulary:
    """One token per line, its id the line number counted from zero;
    trailing blank lines are ignored. A token that breaks the vocabulary
    rules fails as PATH:LINE: message."""
    tokens = [line for _, line in numbered_lines(path)]
    while tokens and tokens[-1] == "":
        tokens.pop()
    try:
        return Vocabulary(tokens)
    except ValueError as exc:  # the rules ran once; find the line only on a failure
        raise ValueError(f"{path}:{_first_bad_token(tokens)[0] + 1}: {exc}") from exc
