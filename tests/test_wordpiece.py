"""Subword vocabulary training, encoding, and length comparisons."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wordpiece_reference

from clinlm import wordpiece
from clinlm.finetune import marker_tokens
from clinlm.wordpiece import (
    CLS,
    CONTINUATION,
    MASK,
    PAD,
    SEP,
    SPECIALS,
    UNK,
    Encoding,
    LengthRow,
    Vocabulary,
    compression_report,
    decode,
    encode,
    format_length_table,
    load_length_reference,
    normalize,
    pct_diff,
    read_vocab,
    round_half_away_from_zero,
    train_wordpiece,
    verify_length_reference,
    write_vocab,
)


def make_vocab(*extra):
    return Vocabulary(list(SPECIALS) + list(extra))


# Letters, digits and punctuation, '#' among them: normalized words can then
# start with the continuation marker ("##1").
TEXT_CHARS = "abcAB12#./-"


def alphabet_floor(corpus):
    """The vocabulary size before any merge: the specials plus every
    character of the corpus, bare and as a continuation."""
    return len(SPECIALS) + 2 * len(set("".join(corpus).replace(" ", "")))


def syllable_lexicon() -> list[str]:
    """Thousands of word types built from shared syllables, most seen once
    and a few often: the shape of a clinical term lexicon."""
    rng = random.Random(11)
    syllables = ["ab", "ac", "al", "an", "ar", "ce", "co", "de", "di", "el",
                 "en", "er", "ia", "ic", "is", "lo", "ma", "ne", "ol", "on",
                 "os", "pa", "ra", "ri", "se", "ta", "ti", "ul", "ur", "us"]
    lexicon = sorted({"".join(rng.choices(syllables, k=rng.randint(2, 4)))
                      for _ in range(2600)})
    rng.shuffle(lexicon)
    frequent = [lexicon[min(int(rng.paretovariate(1.0)) - 1, len(lexicon) - 1)]
                for _ in range(4000)]
    words = lexicon + frequent
    return [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]


@st.composite
def small_corpora(draw, letters=st.sampled_from(["ab", "abc"])):
    """A few lines of words over a 2-3 letter alphabet: small enough to
    force score ties and long runs of one letter (overlapping pairs)."""
    word = st.text(alphabet=draw(letters), min_size=1, max_size=8)
    return draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join),
                         min_size=1, max_size=6))


@st.composite
def trained_vocabularies(draw):
    """A vocabulary trained on a normalized corpus drawn from TEXT_CHARS."""
    words = st.text(alphabet=TEXT_CHARS, min_size=1, max_size=6)
    lines = draw(st.lists(st.lists(words, min_size=1, max_size=5).map(" ".join),
                          min_size=1, max_size=4))
    corpus = [normalize(line) for line in lines]
    size = alphabet_floor(corpus) + draw(st.integers(min_value=0, max_value=30))
    return train_wordpiece(corpus, size, draw(st.integers(min_value=1, max_value=2)))


# ASCII letters, digits and punctuation; Unicode punctuation, letters and a
# combining accent; a superscript digit; tab, newline, space and NBSP.
NORMALIZE_CHARS = ("aZ09.,/-#()_'" + "–«»¿、。" + "éßا\u0301" + "²" + "\t\n \xa0")

# Token spellings that overlap in first characters and lengths, with the
# brackets and dash of specials and relation markers.
VOCAB_CHARS = "abé#[]-"


@st.composite
def random_vocabularies(draw):
    """Specials, then random tokens and continuation tokens, and sometimes
    the relation marker tokens."""
    body = st.text(alphabet=VOCAB_CHARS, min_size=1, max_size=6)
    drawn = draw(st.lists(st.one_of(body, body.map(CONTINUATION.__add__)), max_size=20))
    if draw(st.booleans()):
        drawn += marker_tokens(["problem", "test"])
    extra = [t for t in dict.fromkeys(drawn) if t not in SPECIALS and t != CONTINUATION]
    return Vocabulary(list(SPECIALS) + extra)


def assert_matches_reference(corpus, size, min_frequency):
    """The trainer and the reference return the same tokens, or raise the
    same error."""
    def outcome(train):
        try:
            return train(corpus, size, min_frequency).tokens
        except ValueError as exc:
            return str(exc)
    assert outcome(train_wordpiece) == outcome(wordpiece_reference.train_wordpiece)


class TestNormalize:
    def test_trailing_period(self):
        assert normalize("pain.") == "pain ."

    def test_punctuation_between_letters(self):
        assert normalize("Dr.Smith") == "Dr . Smith"

    def test_plain_text_unchanged(self):
        assert normalize("no punctuation here") == "no punctuation here"

    def test_digits_do_not_trigger_separation(self):
        assert normalize("bp 120/80 reading") == "bp 120/80 reading"
        assert normalize("13.0") == "13.0"

    def test_case_preserved(self):
        assert normalize("HELLO,world") == "HELLO , world"

    def test_unicode_punctuation(self):
        assert normalize("pain–free") == "pain – free"

    @pytest.mark.parametrize("text", [
        "pain.", "Dr.Smith", "a,b,c", "x 120/80 y.", "(parenthetical)",
        "already , spaced", "", "...", "word", "Mixed.Case,Text!",
    ])
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @settings(deadline=None)
    @given(text=st.text())
    def test_idempotent_on_any_text(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @settings(deadline=None)
    @given(text=st.one_of(st.text(alphabet=NORMALIZE_CHARS), st.text()))
    def test_matches_the_per_character_reference(self, text):
        assert normalize(text) == wordpiece_reference.normalize(text)


class TestVocabulary:
    def test_ids_follow_order(self):
        v = make_vocab("a", "##a")
        assert v.id_of("[PAD]") == 0 and v.id_of("[MASK]") == 4
        assert v.id_of("a") == 5 and v.token_of(6) == "##a"

    def test_len_and_contains(self):
        v = make_vocab("a")
        assert len(v) == 6 and "a" in v and "b" not in v

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(list(SPECIALS) + ["a", "a"])

    def test_specials_must_lead(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", PAD, UNK, CLS, SEP, MASK])

    def test_bare_continuation_rejected(self):
        with pytest.raises(ValueError):
            make_vocab("##")

    def test_token_of_out_of_range(self):
        with pytest.raises(ValueError):
            make_vocab("a").token_of(6)

    def test_with_extra_tokens_preserves_ids(self):
        v = make_vocab("a")
        w = v.with_extra_tokens(["b", "c"])
        assert w.id_of("a") == v.id_of("a") and w.id_of("b") == 6
        with pytest.raises(ValueError):
            v.with_extra_tokens(["a"])


class TestTrainWordpiece:
    # Hand-derived on corpus {low x3, lower x2}. Symbol counts start at
    # l:5 ##o:5 ##w:5 ##e:2 ##r:2, so pair scores are (l,##o) 0.2,
    # (##o,##w) 0.2, (##w,##e) 0.2, (##e,##r) 0.5. Merge order follows:
    # ##er (score), ##ow (tie on 0.2 -> count 5 -> lexicographic),
    # low (count 5 beats 2), lower.
    CORPUS = ["low low low", "lower lower"]
    EXPECTED = list(SPECIALS) + [
        "e", "l", "o", "r", "w",
        "##e", "##l", "##o", "##r", "##w",
        "##er", "##ow", "low", "lower",
    ]

    def test_frozen_merge_sequence(self):
        vocab = train_wordpiece(self.CORPUS, declared_size=19, min_frequency=2)
        assert vocab.tokens == self.EXPECTED

    def test_floor_only_no_merges(self):
        vocab = train_wordpiece(self.CORPUS, declared_size=15, min_frequency=2)
        assert vocab.tokens == self.EXPECTED[:15]

    def test_huge_size_stops_when_merges_exhaust(self):
        vocab = train_wordpiece(self.CORPUS, declared_size=500, min_frequency=2)
        assert len(vocab) < 500
        assert set(self.EXPECTED) <= set(vocab.tokens)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            train_wordpiece(self.CORPUS, declared_size=14)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece([], declared_size=10)

    def test_min_frequency_filters_rare_pairs(self):
        vocab = train_wordpiece(["ab"], declared_size=50, min_frequency=2)
        assert "ab" not in vocab.tokens
        vocab = train_wordpiece(["ab"], declared_size=50, min_frequency=1)
        assert "ab" in vocab.tokens

    def test_deterministic_across_runs(self):
        corpus = ["the cat sat on the mat", "the cat ran", "a mat sat"] * 3
        a = train_wordpiece(corpus, declared_size=40)
        b = train_wordpiece(corpus, declared_size=40)
        assert a.tokens == b.tokens

    def test_tokens_do_not_depend_on_the_hash_seed(self):
        """A merge re-pushes pairs in the order of a set of strings, which the
        hash seed sets; only the heap's keys may order the merges."""
        script = ("import sys; from clinlm.wordpiece import train_wordpiece; "
                  "print(*train_wordpiece(sys.stdin.read().splitlines(), 300, 2).tokens)")
        package_root = os.path.dirname(os.path.dirname(wordpiece.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        vocabularies = [subprocess.run([sys.executable, "-c", script],
                                       input="\n".join(syllable_lexicon()), capture_output=True,
                                       text=True, check=True,
                                       env={**os.environ, "PYTHONPATH": path,
                                            "PYTHONHASHSEED": seed}).stdout.split()
                        for seed in ("0", "1")]
        assert len(vocabularies[0]) == 300
        assert vocabularies[0] == vocabularies[1]

    def test_case_is_preserved(self):
        vocab = train_wordpiece(["Ab Ab aB"], declared_size=60, min_frequency=1)
        assert "Ab" in vocab.tokens and "aB" in vocab.tokens

    def test_bad_min_frequency_rejected_before_reading_the_corpus(self):
        def corpus():
            raise AssertionError("corpus read before min_frequency was checked")
            yield
        with pytest.raises(ValueError, match="min_frequency must be >= 1, got 0"):
            train_wordpiece(corpus(), declared_size=10, min_frequency=0)

    # both settings follow check_setting, the one rule of every int setting
    @pytest.mark.parametrize("size, min_frequency, message", [
        (10, 1.0, "min_frequency must be an int, got 1.0"),
        (10, True, "min_frequency must be an int, got True"),
        (20.5, 1, "declared_size must be an int, got 20.5"),
        (True, 1, "declared_size must be an int, got True"),
        (0, 1, "declared_size must be >= 1, got 0"),
    ])
    def test_bad_setting_rejected_by_name_before_reading_the_corpus(self, size, min_frequency,
                                                                    message):
        def corpus():
            raise AssertionError("corpus read before the settings were checked")
            yield
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_wordpiece(corpus(), declared_size=size, min_frequency=min_frequency)

    @pytest.mark.parametrize("symbols, pair, expected", [
        # one site, then a ##a left over: sites do not overlap
        ("##a ##a ##a", "##a ##a", ("##aa ##a", [(0, 0)])),
        # the pair at a word's first position; at its last; at both, in two
        # adjacent sites
        ("a ##b ##c ##b", "a ##b", ("ab ##c ##b", [(0, 0)])),
        ("x ##a ##b ##c ##a ##b", "##a ##b", ("x ##ab ##c ##ab", [(1, 1), (4, 3)])),
        ("##a ##b ##a ##b", "##a ##b", ("##ab ##ab", [(0, 0), (2, 1)])),
        # no site: the pair's symbols, but not side by side in this order
        ("a ##b ##a", "##a ##b", ("a ##b ##a", [])),
    ])
    def test_apply_merge_reports_each_site(self, symbols, pair, expected):
        """The rewritten symbols, and per site the index of its left symbol
        in the old word and of the merged symbol in the new one."""
        left, right = pair.split()
        new, sites = wordpiece._apply_merge(symbols.split(), (left, right),
                                            wordpiece._merge_symbols(left, right))
        assert (" ".join(new), sites) == expected

    def test_no_first_piece_spelled_as_a_continuation(self):
        # "#" + "###" would spell the bare marker "##", and "#" + "###2"
        # the continuation token "##2"
        text = "## ## ###2 ###2 2"
        vocab = train_wordpiece([text], declared_size=60, min_frequency=1)
        assert decode(vocab, encode(vocab, text).ids) == text


# Corpora the trainer is held to the reference on: the corpora of the tests
# above and below, at sizes from the floor to past exhaustion.
REFERENCE_CORPORA = [
    TestTrainWordpiece.CORPUS,
    ["ab"],
    ["the cat sat on the mat", "the cat ran", "a mat sat"] * 3,
    ["Ab Ab aB"],
    ["severe chest pain", "chest pain resolved", "severe pain"],
    ["alpha beta gamma", "beta delta", "gamma gamma alpha"],
    ["aa aa ab"],
    ["ba ba bb"],
    ["aaaa aaa aaaaaaa a aa", "abab ababab ba"],
    # each alone, a case an incremental merge must get right: a word holding
    # the merged pair twice; an overlapping run; bac still indexed under
    # (b, ##a) when that pair merges, after ##ac took its ##a; merges that
    # spell a token already in the vocabulary, here a special
    ["ababab"],
    ["aaaa"],
    ["ba bd bac"],
    ["[CLS] [SEP] [MASK] [CLS]"],
    # words holding a pair three or four times between distinct neighbours,
    # so that a merge changes the pairs on both sides of each of its sites
    ["abcabcabcabc"],
    ["xabyabzab"],
    ["xabyabzabwab abcabcabcabc"],
]


class TestMatchesReferenceTrainer:
    """The incremental trainer returns, token for token, what the trainer
    that recounts every word on each merge returns (tests/wordpiece_reference)."""

    @pytest.mark.parametrize("corpus", REFERENCE_CORPORA)
    @pytest.mark.parametrize("min_frequency", [1, 2, 3])
    def test_on_the_test_corpora(self, corpus, min_frequency):
        floor = alphabet_floor(corpus)
        for size in range(floor - 1, floor + 60, 7):
            assert_matches_reference(corpus, size, min_frequency)

    @settings(deadline=None)
    @given(corpus=small_corpora(), min_frequency=st.integers(min_value=1, max_value=3),
           extra=st.integers(min_value=-1, max_value=80))
    @example(corpus=["aaaaa aaaa aaa aa a b"], min_frequency=1, extra=80)
    @example(corpus=["ab ba ab ba abab baba"], min_frequency=2, extra=80)
    # a merge that spells a token already in the vocabulary must be skipped
    @example(corpus=["[PAD] [PAD] [PAD]"], min_frequency=1, extra=80)
    # words of 12 to 20 letters, longer than small_corpora draws: long runs of
    # one letter, and a pair many times in one word
    @example(corpus=["aaaaaaaaaaaaaaaa abababababababababab", "abbabbabbabbabb aaaaaaaaaaaa"],
             min_frequency=1, extra=80)
    def test_small_alphabets(self, corpus, min_frequency, extra):
        assert_matches_reference(corpus, alphabet_floor(corpus) + extra, min_frequency)

    def test_syllable_lexicon(self):
        corpus = syllable_lexicon()
        assert len({word for line in corpus for word in line.split()}) >= 2000
        new = train_wordpiece(corpus, declared_size=100, min_frequency=2)
        assert len(new) == 100
        assert new.tokens == wordpiece_reference.train_wordpiece(corpus, 100, 2).tokens


class TestEncode:
    def test_whole_word_hit(self):
        v = make_vocab("h", "##e", "##l", "##o", "hello")
        assert encode(v, "hello").tokens == ("hello",)

    def test_longest_prefix_wins(self):
        v = make_vocab("h", "##e", "##l", "##o", "hell", "##lo")
        assert encode(v, "hello").tokens == ("hell", "##o")

    def test_unknown_character_collapses_word(self):
        v = make_vocab("h", "##e", "##l", "##o", "hell", "##lo")
        assert encode(v, "heXlo").tokens == (UNK,)

    def test_dead_end_collapses_word(self):
        # "ab" matches, but nothing continues with ##c alone
        v = make_vocab("a", "##b", "ab")
        assert encode(v, "abc").tokens == (UNK,)

    def test_word_spelled_as_a_continuation_body_is_no_continuation(self):
        v = make_vocab("a", "##ab")
        assert encode(v, "ab").tokens == (UNK,)

    def test_blank_text_encodes_no_word(self):
        assert encode(make_vocab("a"), " \t  \t") == Encoding((), ())

    def test_encode_text_concatenates_words(self):
        v = make_vocab("h", "##e", "##l", "##o", "hell", "##lo", "hi")
        enc = encode(v, "hi hello")
        assert enc.tokens == ("hi", "hell", "##o")
        assert enc.ids == tuple(v.id_of(t) for t in enc.tokens)
        assert len(enc.ids) == 3

    def test_encode_empty_text(self):
        assert encode(make_vocab("a"), "") == Encoding((), ())

    def test_word_starting_with_the_marker_keeps_its_first_piece_word_initial(self):
        vocab = make_vocab("1", "#", "##1", "###")
        assert encode(vocab, "##1").tokens == ("#", "###", "##1")

    @settings(deadline=None)
    @given(vocab=trained_vocabularies(),
           word=st.text(alphabet=TEXT_CHARS + "xyz", min_size=1, max_size=12))
    def test_pieces_rejoin_to_the_word(self, vocab, word):
        pieces = encode(vocab, word).tokens
        if pieces != (UNK,):
            assert pieces[0] + "".join(p[len("##"):] for p in pieces[1:]) == word

    @settings(deadline=None)
    @given(vocab=st.one_of(random_vocabularies(), trained_vocabularies()), data=st.data())
    def test_matches_the_every_length_reference(self, vocab, data):
        # whole-token words, token bodies, words glued from token spellings and
        # loose characters (long matches, dead ends), words with a character no
        # token has, ##-initial words; runs of spaces and tabs between them
        parts = [t.removeprefix(CONTINUATION) for t in vocab.tokens] + list(VOCAB_CHARS + "x")
        glued = st.lists(st.sampled_from(parts), min_size=1, max_size=4).map("".join)
        word = st.one_of(st.sampled_from(vocab.tokens), st.sampled_from(parts), glued,
                         glued.map("Q".__add__), glued.map(CONTINUATION.__add__))
        gaps = st.text(alphabet=" \t", min_size=1, max_size=3)
        drawn = data.draw(st.lists(st.tuples(gaps, word), max_size=8))
        text = "".join(gap + w for gap, w in drawn) + data.draw(gaps)
        enc = encode(vocab, text)
        assert enc.tokens == tuple(t for w in text.split()
                                   for t in wordpiece_reference.encode_word(vocab, w))
        assert enc.ids == tuple(vocab.token_to_id[t] for t in enc.tokens)

    def test_whole_token_words_skip_the_length_index(self, monkeypatch):
        class Spy(dict):
            def get(self, *args):
                reads.append(args[0])
                return super().get(*args)

        v = make_vocab("h", "##e", "##l", "##o", "hell", "hello", "hi")
        reads = []
        monkeypatch.setattr(v, "_initial_lengths", Spy(v._initial_lengths))
        assert encode(v, "hello hi\t[UNK] hello").tokens == ("hello", "hi", UNK, "hello")
        assert reads == []
        assert encode(v, "hi hell ho").tokens == ("hi", "hell", "h", "##o")
        assert reads == ["h"]

    def test_monotone_against_alphabet_floor(self):
        corpus = ["severe chest pain", "chest pain resolved", "severe pain"]
        trained = train_wordpiece(corpus, declared_size=60, min_frequency=1)
        alphabet = [t for t in trained.tokens[5:] if len(t.lstrip("#")) == 1 or
                    (not t.startswith("##") and len(t) == 1)]
        floor_vocab = Vocabulary(
            list(SPECIALS)
            + sorted({t for t in trained.tokens[5:] if len(t) == 1})
            + sorted({t for t in trained.tokens[5:]
                      if t.startswith("##") and len(t) == 3})
        )
        for word in "severe chest pain resolved".split():
            assert len(encode(trained, word).ids) <= len(encode(floor_vocab, word).ids)


class TestDecode:
    def test_prefix_stripping(self):
        v = make_vocab("h", "##e", "##l", "##o", "hell", "##lo")
        assert decode(v, [v.id_of("hell"), v.id_of("##o")]) == "hello"

    def test_specials_dropped(self):
        v = make_vocab("hi")
        assert decode(v, [2, v.id_of("hi"), 3, 0, 0]) == "hi"

    def test_empty_ids(self):
        assert decode(make_vocab("a"), []) == ""

    def test_invalid_id_rejected(self):
        with pytest.raises(ValueError):
            decode(make_vocab("a"), [17])

    def test_round_trip_on_in_alphabet_text(self):
        corpus = ["alpha beta gamma", "beta delta", "gamma gamma alpha"]
        vocab = train_wordpiece(corpus, declared_size=80, min_frequency=1)
        for text in corpus + ["delta alpha", "gamma beta alpha"]:
            assert decode(vocab, encode(vocab, text).ids) == text

    @settings(deadline=None)
    @given(vocab=trained_vocabularies(), data=st.data())
    def test_round_trip_on_any_text_in_the_alphabet(self, vocab, data):
        alphabet = sorted(t for t in vocab.tokens[len(SPECIALS):] if len(t) == 1)
        words = st.text(alphabet=alphabet, min_size=1, max_size=10)
        text = normalize(" ".join(data.draw(st.lists(words, max_size=6))))
        assert decode(vocab, encode(vocab, text).ids) == text


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (2.4, 2), (2.5, 3), (2.6, 3),
        (-2.4, -2), (-2.5, -3), (-2.6, -3),
        (0.5, 1), (-0.5, -1), (0.0, 0), (-19.48, -19),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away_from_zero(value) == expected

    @pytest.mark.parametrize("candidate,base,expected", [
        (1945, 2465, -21),
        (34, 39, -13),
        (31, 39, -21),
        (100, 100, 0),
    ])
    def test_pct_diff(self, candidate, base, expected):
        assert pct_diff(candidate, base) == expected

    def test_pct_diff_zero_base_rejected(self):
        with pytest.raises(ValueError):
            pct_diff(5, 0)


class TestCompressionReport:
    def test_baseline_rows_are_zero(self):
        v1 = train_wordpiece(["aa aa ab"], declared_size=30, min_frequency=1)
        v2 = train_wordpiece(["ba ba bb"], declared_size=30, min_frequency=1)
        report = compression_report(
            {"d": ["aa ab", "aa"]}, {"one": v1, "two": v2}, baseline="one")
        row = next(r for r in report if r.vocabulary == "one")
        assert row.pct_mean == 0 and row.pct_median == 0

    # one piece per character, against whole-word pieces for ab, aab and ##ab:
    # d1's lengths are [4, 3, 1] and [2, 1, 1], d2's [2, 4] and [2, 2]
    DATASETS = {"d1": ["ab ab", "aab", "b"], "d2": ["a b", "abab"]}
    CHARS = ("a", "b", "##a", "##b")

    @pytest.mark.parametrize("baseline,expected", [
        ("chars", [("d1", "chars", 8 / 3, 3.0, 0, 0), ("d1", "merged", 4 / 3, 1.0, -50, -67),
                   ("d2", "chars", 3.0, 3.0, 0, 0), ("d2", "merged", 2.0, 2.0, -33, -33)]),
        ("merged", [("d1", "chars", 8 / 3, 3.0, 100, 200), ("d1", "merged", 4 / 3, 1.0, 0, 0),
                    ("d2", "chars", 3.0, 3.0, 50, 50), ("d2", "merged", 2.0, 2.0, 0, 0)]),
    ], ids=["baseline-listed-first", "baseline-listed-second"])
    def test_lengths_and_percentages_by_hand(self, baseline, expected):
        vocabularies = {"chars": make_vocab(*self.CHARS),
                        "merged": make_vocab(*self.CHARS, "ab", "aab", "##ab")}
        report = compression_report(self.DATASETS, vocabularies, baseline=baseline)
        assert report == [LengthRow(*row) for row in expected]

    def test_unknown_baseline_rejected(self):
        v = make_vocab("a")
        with pytest.raises(ValueError, match="baseline"):
            compression_report({"d": ["a"]}, {"one": v}, baseline="zzz")

    def test_empty_dataset_rejected(self):
        v = make_vocab("a")
        with pytest.raises(ValueError, match="empty"):
            compression_report({"d": []}, {"one": v}, baseline="one")

    def test_format_has_header_and_percent_signs(self):
        v = make_vocab("a")
        report = compression_report({"d": ["a a"]}, {"one": v}, baseline="one")
        lines = format_length_table(report).splitlines()
        assert lines[0].startswith("dataset\t")
        assert "0%" in lines[1]

    def test_format_prints_each_row_as_published(self):
        rows = [LengthRow("d1", "chars", 8 / 3, 3.0, 100, 200),
                LengthRow("d2", "x", 2.0, 2.5, -33, 0)]
        assert format_length_table(rows) == (
            "dataset\tvocabulary\tmean\tpct_diff_mean\tmedian\tpct_diff_median\n"
            "d1\tchars\t2.66667\t100%\t3\t200%\n"
            "d2\tx\t2\t-33%\t2.5\t0%")


class TestLengthReference:
    def test_twenty_rows_five_baselines(self):
        rows = load_length_reference()
        assert len(rows) == 20
        assert sum(1 for r in rows if r.pct_mean is None) == 5
        assert {r.dataset for r in rows} == {
            "icd9-top50", "therapeutic-class", "mednli", "re-2010", "ner-2012"}
        assert {r.vocabulary for r in rows} == {
            "wikipedia-books", "scientific-articles", "pubmed", "clinical-notes"}

    def test_known_cells(self):
        rows = {(r.dataset, r.vocabulary): r for r in load_length_reference()}
        icd_clinical = rows[("icd9-top50", "clinical-notes")]
        assert (icd_clinical.mean_length, icd_clinical.pct_mean) == (1945.0, -21)
        mednli_pubmed = rows[("mednli", "pubmed")]
        assert (mednli_pubmed.pct_mean, mednli_pubmed.pct_median) == (-21, -18)

    def test_verify_reports_exactly_one_known_deviation(self):
        deviations = verify_length_reference(load_length_reference())
        assert deviations == [
            "therapeutic-class/clinical-notes mean: computed -19% but printed -20%"
        ]

    def test_all_non_therapeutic_cells_consistent(self):
        rows = [r for r in load_length_reference()
                if r.dataset != "therapeutic-class"]
        non_base = [r for r in rows if r.pct_mean is not None]
        assert len(non_base) * 2 == 24
        assert verify_length_reference(rows) == []

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text("wrong\theader\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_length_reference(path)

    def test_loader_rejects_half_baseline_row(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text(
            "dataset\tvocabulary\tmean\tmedian\tpct_mean\tpct_median\n"
            "d\tv\t10\t10\tbase\t-3\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="half-baseline"):
            load_length_reference(path)

    def test_verify_rejects_two_baselines_for_one_dataset(self):
        rows = load_length_reference()
        base = next(r for r in rows if r.pct_mean is None)
        with pytest.raises(ValueError, match=f"^dataset '{base.dataset}' has two baseline rows$"):
            verify_length_reference(rows + [base])

    def test_verify_rejects_missing_baseline(self):
        rows = [r for r in load_length_reference() if r.pct_mean is not None]
        with pytest.raises(ValueError, match="baseline"):
            verify_length_reference(rows)


class TestVocabIO:
    def test_round_trip_byte_identical(self, tmp_path):
        vocab = train_wordpiece(["low low low", "lower lower"], 19)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        write_vocab(p1, vocab)
        write_vocab(p2, read_vocab(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert read_vocab(p1).tokens == vocab.tokens

    @pytest.mark.parametrize("tokens,line,message", [
        (["a", "[PAD]"], 1, "must start with"),
        (list(SPECIALS) + ["a", "##"], 7, "'##' is empty or has no body"),
        (list(SPECIALS) + ["a", "", "b"], 7, "'' is empty"),
        (list(SPECIALS) + ["a", "b", "a"], 8, "duplicate token 'a'"),
    ])
    def test_bad_token_names_file_and_line(self, tmp_path, tokens, line, message):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"v.txt:{line}: .*{message}"):
            read_vocab(path)

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(SPECIALS) + "\na\nb\n\n\n", encoding="utf-8")
        assert read_vocab(path).tokens == list(SPECIALS) + ["a", "b"]

    def test_good_file_is_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        write_vocab(path, make_vocab("a", "b"))
        calls = []
        check = wordpiece._first_bad_token
        monkeypatch.setattr(wordpiece, "_first_bad_token",
                            lambda tokens: calls.append(len(tokens)) or check(tokens))
        assert read_vocab(path).tokens == list(SPECIALS) + ["a", "b"]
        assert calls == [7]

    def test_line_number_is_id(self, tmp_path):
        vocab = make_vocab("a", "b")
        path = tmp_path / "v.txt"
        write_vocab(path, vocab)
        lines = path.read_text().splitlines()
        assert lines[0] == PAD and lines[5] == "a" and lines[6] == "b"
