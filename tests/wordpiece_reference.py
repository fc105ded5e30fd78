"""Earlier versions of the wordpiece kernels, kept unchanged as references
the current ones must match output for output:

- the trainer before its incremental rewrite, which recounts every pair and
  symbol of every word type on each merge;
- normalize before its scan of only the characters that can be punctuation,
  which tests every character;
- the per-word segmentation of encode, from before encode looked a word up
  whole and ran its greedy loop inline, and before the per-first-character
  length index: encode_word tries every prefix length up to the longest
  token (computed here from the tokens, where the vocabulary used to store
  it), and encode of a text must equal its pieces over text.split().
"""

from collections import Counter
from typing import Iterable

from clinlm.wordpiece import (
    CONTINUATION,
    SPECIALS,
    UNK,
    Vocabulary,
    _is_punct,
    _merge_symbols,
    _word_symbols,
)


def normalize(text: str) -> str:
    """Insert a space between every punctuation character and any letter
    directly adjacent to it, leaving all other characters alone.

    Digits do not trigger separation, so measurements like 120/80 survive
    intact. The function is idempotent: spaces inserted on the first pass
    shield the punctuation on any later pass.
    """
    out: list[str] = []
    for i, ch in enumerate(text):
        if _is_punct(ch):
            if out and out[-1].isalpha():
                out.append(" ")
            out.append(ch)
            if i + 1 < len(text) and text[i + 1].isalpha():
                out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def encode_word(vocab: Vocabulary, word: str) -> list[str]:
    """Greedy longest-match segmentation of one whitespace word.

    Repeatedly takes the longest vocabulary token matching the remaining
    prefix: a word-initial token first, so never one spelled ##..., then
    continuation tokens, looked up by their body. If no token matches at
    some point, the whole word collapses to a single [UNK].
    """
    if not word:
        raise ValueError("cannot encode an empty word")
    max_token_len = max(len(t) for t in vocab.tokens)
    pieces = []
    start, table, limit = 0, vocab._initial, max_token_len
    while start < len(word):
        end = min(len(word), start + limit)
        while end > start:
            match = table.get(word[start:end])
            if match is not None:
                break
            end -= 1
        else:
            return [UNK]
        pieces.append(match)
        start, table, limit = end, vocab._bodies, max_token_len - len(CONTINUATION)
    return pieces


def train_wordpiece(
    corpus: Iterable[str],
    declared_size: int,
    min_frequency: int = 2,
) -> Vocabulary:
    """Learn a wordpiece vocabulary of exactly `declared_size` tokens, or as
    many as the corpus supports.

    The corpus must already be normalized. Every word starts as its first
    character plus ##-prefixed continuation characters. Each round merges the
    adjacent symbol pair with the highest likelihood score

        count(pair) / (count(left) * count(right))

    subject to count(pair) >= min_frequency. Ties break by higher raw pair
    count, then by the smaller (left, right) pair. Training stops when the
    size budget is reached or no pair qualifies.
    """
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("training corpus contains no words")

    alphabet = sorted({ch for word in word_freq for ch in word})
    base = list(SPECIALS) + alphabet + [CONTINUATION + ch for ch in alphabet]
    floor = len(base)
    if declared_size < floor:
        raise ValueError(
            f"declared_size {declared_size} is below the alphabet floor {floor}"
        )
    if min_frequency < 1:
        raise ValueError(f"min_frequency must be >= 1, got {min_frequency}")

    tokens = list(base)
    seen = set(tokens)
    words = {w: _word_symbols(w) for w in word_freq}

    while len(tokens) < declared_size:
        pair_count: Counter = Counter()
        symbol_count: Counter = Counter()
        for word, symbols in words.items():
            freq = word_freq[word]
            for sym in symbols:
                symbol_count[sym] += freq
            for left, right in zip(symbols, symbols[1:]):
                pair_count[(left, right)] += freq

        best_pair = None
        best_key = None
        for pair, count in pair_count.items():
            if count < min_frequency:
                continue
            merged = _merge_symbols(*pair)
            if merged in seen:
                continue
            score = count / (symbol_count[pair[0]] * symbol_count[pair[1]])
            key = (-score, -count, pair)
            if best_key is None or key < best_key:
                best_key = key
                best_pair = pair
        if best_pair is None:
            break

        merged = _merge_symbols(*best_pair)
        tokens.append(merged)
        seen.add(merged)
        for word, symbols in words.items():
            out = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and (symbols[i], symbols[i + 1]) == best_pair
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            words[word] = out

    return Vocabulary(tokens)
