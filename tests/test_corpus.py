"""Note filtering, patient splits, label selection, and length stats."""

import math
import re

import pytest

from clinlm import corpus
from clinlm.corpus import (
    DatasetStats,
    NoteRecord,
    dataset_stats,
    filter_discharge_summaries,
    format_stats_row,
    read_notes,
    select_top_k_labels,
    split_by_patient,
    write_notes,
    write_split_manifest,
)


def note(note_id="n1", patient="p1", encounter="e1", length=3000,
         provider="physician", note_type="Discharge Summary"):
    return NoteRecord(
        note_id=note_id,
        patient_id=patient,
        encounter_id=encounter,
        note_type=note_type,
        provider_type=provider,
        text="x" * length,
    )


class TestNoteRecord:
    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError, match="patient_id"):
            note(patient="")


class TestLabelCatalogs:
    def test_closed_list_sizes(self):
        assert len(corpus.packaged_lines("icd9_top50.txt")) == 50
        assert len(corpus.packaged_lines("therapeutic_classes.txt")) == 50

    def test_no_duplicates(self):
        for name in ("icd9_top50.txt", "therapeutic_classes.txt"):
            labels = corpus.packaged_lines(name)
            assert len(set(labels)) == len(labels)


class TestFilterDischargeSummaries:
    def test_nursing_excluded_regardless_of_length(self):
        assert filter_discharge_summaries([note(length=5000, provider="nursing")]) == []

    def test_nursing_match_is_case_insensitive(self):
        assert filter_discharge_summaries([note(provider="Nursing")]) == []

    def test_longest_note_per_encounter_kept(self):
        a = note(note_id="a", length=2500)
        b = note(note_id="b", length=3000)
        assert filter_discharge_summaries([a, b]) == [b]

    def test_empty_input(self):
        assert filter_discharge_summaries([]) == []

    def test_length_boundary_is_strict(self):
        kept = note(note_id="a", encounter="e1", length=2001)
        dropped = note(note_id="b", encounter="e2", length=2000)
        assert filter_discharge_summaries([kept, dropped]) == [kept]

    def test_equal_length_tie_goes_to_smallest_note_id(self):
        a = note(note_id="z", length=2500)
        b = note(note_id="a", length=2500)
        assert filter_discharge_summaries([a, b]) == [b]

    def test_output_follows_first_appearance_of_encounters(self):
        notes = [
            note(note_id="1", encounter="e2", length=2500),
            note(note_id="2", encounter="e1", length=9000),
            note(note_id="3", encounter="e2", length=4000),
        ]
        assert [n.encounter_id for n in filter_discharge_summaries(notes)] == ["e2", "e1"]

    def test_idempotent(self):
        notes = [
            note(note_id=str(i), encounter=f"e{i % 3}", length=1500 + 700 * i)
            for i in range(8)
        ]
        once = filter_discharge_summaries(notes)
        assert filter_discharge_summaries(once) == once


class TestSplitByPatient:
    def test_single_patient_goes_to_train(self):
        assert split_by_patient(["p1"], (8, 1, 1), seed=0) == {"p1": "train"}

    def test_ten_patients_split_8_1_1(self):
        ids = [f"p{i}" for i in range(10)]
        assignment = split_by_patient(ids, (8, 1, 1), seed=7)
        sizes = {s: sum(1 for v in assignment.values() if v == s)
                 for s in ("train", "dev", "test")}
        assert sizes == {"train": 8, "dev": 1, "test": 1}

    def test_partition_no_leakage(self):
        ids = [f"p{i}" for i in range(57)]
        assignment = split_by_patient(ids, (8, 1, 1), seed=3)
        assert set(assignment) == set(ids)
        assert all(v in ("train", "dev", "test") for v in assignment.values())

    def test_duplicate_ids_collapse(self):
        assignment = split_by_patient(["p1", "p1", "p2"], (1, 1, 0), seed=0)
        assert set(assignment) == {"p1", "p2"}

    def test_seed_determinism(self):
        ids = [f"p{i}" for i in range(30)]
        assert split_by_patient(ids, (8, 1, 1), 5) == split_by_patient(ids, (8, 1, 1), 5)

    def test_different_seeds_differ(self):
        ids = [f"p{i}" for i in range(100)]
        a = split_by_patient(ids, (8, 1, 1), 1)
        b = split_by_patient(ids, (8, 1, 1), 2)
        assert a != b

    def test_all_zero_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_by_patient(["p1"], (0, 0, 0), seed=0)

    @pytest.mark.parametrize("ratios", [(math.inf, 1, 1), (1, 1, math.nan), (1e308, 1e308, 0)],
                             ids=["inf", "nan", "overflowing-sum"])
    def test_non_finite_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="finite"):
            split_by_patient(["p1", "p2"], ratios, seed=0)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            split_by_patient(["p1"], (8, -1, 1), seed=0)


class TestSelectTopKLabels:
    def test_counts_rank_labels(self):
        occurrences = ["a", "a", "a", "b", "c", "c"]
        assert select_top_k_labels(occurrences, 2) == ["a", "c"]

    def test_k_beyond_distinct_returns_all(self):
        assert select_top_k_labels(["a", "b"], 10) == ["a", "b"]

    def test_single_repeated_label(self):
        assert select_top_k_labels(["x"] * 5, 3) == ["x"]

    def test_empty_occurrences(self):
        assert select_top_k_labels([], 4) == []

    def test_ties_break_lexicographically(self):
        assert select_top_k_labels(["b", "a", "c", "a", "b", "c"], 3) == ["a", "b", "c"]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_top_k_labels(["a"], 0)

    def test_counts_non_increasing(self):
        occurrences = ["a"] * 5 + ["b"] * 2 + ["c"] * 9 + ["d"]
        from collections import Counter
        counts = Counter(occurrences)
        ranked = select_top_k_labels(occurrences, 4)
        values = [counts[label] for label in ranked]
        assert values == sorted(values, reverse=True)


class TestDatasetStats:
    def test_singleton(self):
        stats = dataset_stats(["a b c"])
        assert stats == DatasetStats(1, 3, 3, 3.0, 3.0)

    def test_hand_counted_mix(self):
        stats = dataset_stats(["a", "a b", "a b c d"])
        assert (stats.min_words, stats.max_words) == (1, 4)
        assert stats.median_words == 2.0
        assert stats.mean_words == pytest.approx(7 / 3)

    def test_even_count_median_averages_center(self):
        stats = dataset_stats(["a", "a b", "a b c", "a b c d"])
        assert stats.median_words == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])

    def test_order_invariants(self):
        stats = dataset_stats(["w " * n for n in (3, 9, 1, 4, 4)])
        assert stats.min_words <= stats.median_words <= stats.max_words
        assert stats.min_words <= stats.mean_words <= stats.max_words


class TestFormatStatsRow:
    def test_row_layout(self):
        stats = DatasetStats(11232, 4, 148, 19.0, 21.4)
        assert format_stats_row("MedNLI", stats) == "MedNLI\t11232\t4\t148\t19\t21.4"

    def test_fractional_median(self):
        stats = DatasetStats(4, 1, 4, 2.5, 2.5)
        assert format_stats_row("d", stats) == "d\t4\t1\t4\t2.5\t2.5"


class TestNoteIO:
    def test_round_trip(self, tmp_path):
        notes = [note(note_id="a", length=10), note(note_id="b", patient="p2", length=20)]
        path = tmp_path / "notes.jsonl"
        write_notes(path, notes)
        assert read_notes(path) == notes

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"note_id": "n1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="1"):
            read_notes(path)

    def test_empty_id_located(self, tmp_path):
        notes = [note(note_id="a", length=10), note(note_id="b", length=10)]
        path = tmp_path / "notes.jsonl"
        write_notes(path, notes)
        path.write_text(path.read_text().replace('"note_id": "b"', '"note_id": ""'))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: note_id must be non-empty"):
            read_notes(path)


class TestReaders:
    def test_numbered_lines_split_like_a_file_handle(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"a\r\nb\rc\n\nd")
        assert list(corpus.numbered_lines(path)) == [(1, "a"), (2, "b"), (3, "c"),
                                                     (4, ""), (5, "d")]

    def test_numbered_lines_reads_packaged_data(self):
        first = next(corpus.numbered_lines(None, "probe_suite.tsv"))
        assert first[0] == 1 and first[1].startswith("premise\t")

    def test_non_utf8_input_names_the_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"ok\n\xff\xfe\n")
        with pytest.raises(ValueError, match="x.txt: not UTF-8"):
            list(corpus.numbered_lines(path))

    FIELDS = {"text": str, "labels": list[str], "extra": object}

    def test_read_jsonl_yields_numbered_records(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('\n{"text": "a", "labels": [], "extra": null}\n', encoding="utf-8")
        assert corpus.read_jsonl(path, self.FIELDS, lambda r: r, "record") == [
            {"text": "a", "labels": [], "extra": None}]

        def refuse(record):
            raise ValueError(f"refused {record['text']!r}")

        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: refused 'a'$"):
            corpus.read_jsonl(path, self.FIELDS, refuse, "record")
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no record$"):
            corpus.read_jsonl(path, self.FIELDS, lambda r: r, "record")

    @pytest.mark.parametrize("line,message", [
        ("{", "bad JSON"),
        ("5", "expected a JSON object"),
        ('["text"]', "expected a JSON object"),
        ('{"labels": [], "extra": 1}', "record lacks key 'text'"),
        ('{"text": 5, "labels": [], "extra": 1}', "'text' must be str"),
        ('{"text": "a", "labels": "x", "extra": 1}', r"'labels' must be list\[str\]"),
        ('{"text": "a", "labels": ["x", 2], "extra": 1}', r"'labels' must be list\[str\]"),
    ])
    def test_read_jsonl_rejects_with_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "r.jsonl"
        path.write_text('{"text": "a", "labels": [], "extra": 1}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {message}"):
            corpus.read_jsonl(path, self.FIELDS, lambda r: r, "record")

    @pytest.mark.parametrize("line,message", [
        ('{"span": [true, 3], "count": 1}', r"'span' must be list\[int\], got \[True, 3\]$"),
        ('{"span": [0, 3], "count": false}', "'count' must be int, got False$"),
    ])
    def test_read_jsonl_reads_no_bool_as_an_int(self, tmp_path, line, message):
        path = tmp_path / "r.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}"):
            corpus.read_jsonl(path, {"span": list[int], "count": int}, lambda r: r, "record")

    def test_read_table_locates_short_rows_and_parse_errors(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\n1\t2\n\n3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: expected 2 fields, got 1"):
            corpus.read_table(path, "unused", "a\tb", lambda a, b: (a, b))
        path.write_text("a\tb\n1\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: invalid literal"):
            corpus.read_table(path, "unused", "a\tb", lambda a, b: int(b))

    def test_write_lines_round_trips(self, tmp_path):
        path = tmp_path / "out.txt"
        corpus.write_lines(path, ["x", "", "y z"])
        assert path.read_bytes() == b"x\n\ny z\n"
        assert [line for _, line in corpus.numbered_lines(path)] == ["x", "", "y z"]


class TestSplitManifestIO:
    def test_round_trip_sorted(self, tmp_path):
        assignment = {"p2": "dev", "p1": "train"}
        path = tmp_path / "split.tsv"
        write_split_manifest(path, assignment)
        assert path.read_text() == "p1\ttrain\np2\tdev\n"
