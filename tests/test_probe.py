"""Reference-range oracle and probe suite integrity."""

import pytest

from clinlm.probe import (
    CLAIM_LEXICON,
    REFERENCE_RANGES,
    Band,
    ProbeInstance,
    load_probe_suite,
    numeric_probe_oracle,
    parse_value,
    resolve_claim,
    run_probes,
)

HEADER = "premise\thypothesis\tgold\tcategory\tanalyte\tvalue"


class TestBand:
    def test_inclusive_bounds(self):
        band = Band("normal", low=70, high=100)
        assert band.contains(70) and band.contains(100)
        assert not band.contains(69.999) and not band.contains(100.001)

    def test_exclusive_bounds(self):
        band = Band("low", high=70, high_inclusive=False)
        assert band.contains(69.9) and not band.contains(70)

    def test_unbounded_side(self):
        band = Band("high", low=100, low_inclusive=False)
        assert band.contains(1e9) and not band.contains(100)


class TestReferenceRanges:
    def test_band_of_glucose(self):
        glucose = REFERENCE_RANGES["glucose"]
        assert glucose.band_of(69) == "low"
        assert glucose.band_of(70) == "normal"
        assert glucose.band_of(100) == "normal"
        assert glucose.band_of(100.1) == "high"

    def test_bmi_bands(self):
        bmi = REFERENCE_RANGES["bmi"]
        assert bmi.band_of(18.4) == "underweight"
        assert bmi.band_of(18.5) == "normal"
        assert bmi.band_of(24.9) == "normal"
        assert bmi.band_of(25) == "overweight"
        assert bmi.band_of(29.9) == "overweight"
        assert bmi.band_of(30) == "obese"

    def test_bmi_gap_has_no_band(self):
        with pytest.raises(ValueError, match="no band"):
            REFERENCE_RANGES["bmi"].band_of(24.95)

    def test_one_sided_thresholds(self):
        assert REFERENCE_RANGES["ldl"].band_of(130) == "normal"
        assert REFERENCE_RANGES["ldl"].band_of(130.5) == "high"
        assert REFERENCE_RANGES["epinephrine"].band_of(74.9) == "normal"
        assert REFERENCE_RANGES["epinephrine"].band_of(75) == "high"


class TestResolveClaim:
    def test_simple_phrase(self):
        assert resolve_claim("The patient has hyperglycemia") == ("glucose", "high")

    def test_longest_match_wins(self):
        # "high blood glucose" contains no shorter conflicting phrase, but
        # "normal serum calcium" must not resolve via a bare fragment
        assert resolve_claim("Patient has normal serum calcium levels") == \
            ("calcium", "normal")

    def test_case_insensitive(self):
        assert resolve_claim("HYPOGLYCEMIA suspected") == ("glucose", "low")

    def test_unknown_phrase_lists_lexicon(self):
        with pytest.raises(ValueError, match="hyperglycemia"):
            resolve_claim("the patient is fine")

    def test_lexicon_phrases_resolve_to_band_or_foreign_analyte(self):
        for phrase, (analyte, band) in CLAIM_LEXICON.items():
            if analyte in REFERENCE_RANGES:
                names = {b.name for b in REFERENCE_RANGES[analyte].bands}
                assert band in names, phrase


class TestParseValue:
    def test_simple(self):
        assert parse_value("Blood glucose is 600", "glucose") == 600.0

    def test_decimal(self):
        assert parse_value("The patient has a BMI of 17.5", "bmi") == 17.5

    def test_compound_takes_first_component(self):
        assert parse_value("The blood pressure is 60/0", "blood pressure") == 60.0

    def test_longer_premise_phrase_preferred(self):
        assert parse_value("serum calcium level of 9 found", "calcium") == 9.0

    def test_analyte_without_range_uses_its_own_name(self):
        assert parse_value("The hematocrit is 2", "hematocrit") == 2.0

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="glucose"):
            parse_value("Blood glucose was not measured", "glucose")


class TestNumericProbeOracle:
    def test_glucose_extremes(self):
        assert numeric_probe_oracle("glucose", 600, "has hyperglycemia") == "Entailment"
        assert numeric_probe_oracle("glucose", 600, "has hypoglycemia") == "Contradiction"

    def test_inclusive_boundary_pair(self):
        assert numeric_probe_oracle("glucose", 70, "has hypoglycemia") == "Contradiction"
        assert numeric_probe_oracle("glucose", 69, "has hypoglycemia") == "Entailment"

    def test_normal_claim_inside_range(self):
        assert numeric_probe_oracle(
            "calcium", 10, "has normal serum calcium") == "Entailment"

    def test_normal_claim_outside_range(self):
        assert numeric_probe_oracle(
            "calcium", 17.5, "has normal serum calcium") == "Contradiction"

    def test_opposite_extreme_contradicts(self):
        assert numeric_probe_oracle("glucose", 20, "has hyperglycemia") == "Contradiction"

    def test_different_analyte_is_neutral(self):
        assert numeric_probe_oracle("potassium", 6.0, "has hyponatremia") == "Neutral"

    def test_unknown_analyte_rejected(self):
        with pytest.raises(ValueError, match="sodium"):
            numeric_probe_oracle("sodium", 150, "has hypernatremia")

    def test_paraphrase_invariance(self):
        premises = ["Blood glucose is 25", "The patient has glucose of 25"]
        values = {parse_value(p, "glucose") for p in premises}
        assert values == {25.0}
        labels = {numeric_probe_oracle("glucose", v, "has hypoglycemia")
                  for v in values}
        assert labels == {"Entailment"}


class TestProbeInstance:
    def test_covered_requires_range_and_value(self):
        covered = ProbeInstance("p", "h", "Neutral", "numeric", "glucose", 70.0)
        assert covered.oracle_covered
        no_range = ProbeInstance("p", "h", "Neutral", "numeric", "hematocrit", 2.0)
        assert not no_range.oracle_covered
        non_numeric = ProbeInstance("p", "h", "Neutral", "temporal")
        assert not non_numeric.oracle_covered


class TestLoadProbeSuite:
    def test_row_and_category_counts(self):
        suite = load_probe_suite()
        assert len(suite) == 129
        by_category = {}
        for inst in suite:
            by_category[inst.category] = by_category.get(inst.category, 0) + 1
        assert by_category == {"numeric": 93, "clinical-state": 32, "temporal": 4}

    def test_oracle_covered_count(self):
        suite = load_probe_suite()
        assert sum(1 for i in suite if i.oracle_covered) == 91

    def test_known_temporal_row_present(self):
        suite = load_probe_suite()
        assert any(
            i.premise == "The patient took his medication and then the patient got sick"
            and i.hypothesis == "The patient got sick after taking medication"
            and i.gold == "Entailment" and i.category == "temporal"
            for i in suite
        )

    def test_glucose_boundary_rows_present(self):
        suite = load_probe_suite()
        values = {(i.analyte, i.value, i.gold) for i in suite if i.analyte == "glucose"}
        assert ("glucose", 70.0, "Contradiction") in values
        assert ("glucose", 69.0, "Entailment") in values

    def test_tampered_gold_label_rejected(self, tmp_path):
        covered = "Blood glucose is 600\thas hyperglycemia\tContradiction\tnumeric\tglucose\t600"
        path = tmp_path / "suite.tsv"
        path.write_text(HEADER + "\n" + covered + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"suite\.tsv:2:"):
            load_probe_suite(path)

    def test_tampered_value_rejected(self, tmp_path):
        row = "Blood glucose is 600\thas hyperglycemia\tEntailment\tnumeric\tglucose\t500"
        path = tmp_path / "suite.tsv"
        path.write_text(HEADER + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="parses to 600"):
            load_probe_suite(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "suite.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_probe_suite(path)

    def test_bad_label_rejected(self, tmp_path):
        row = "p\th\tMaybe\ttemporal\t\t"
        path = tmp_path / "suite.tsv"
        path.write_text(HEADER + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="Maybe"):
            load_probe_suite(path)

    def test_bad_category_rejected(self, tmp_path):
        row = "p\th\tNeutral\tspatial\t\t"
        path = tmp_path / "suite.tsv"
        path.write_text(HEADER + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="spatial"):
            load_probe_suite(path)


class TestRunProbes:
    def test_oracle_as_model_scores_one(self):
        suite = load_probe_suite()
        answers = {(i.premise, i.hypothesis): i.gold for i in suite}
        report = run_probes(lambda p, h: answers[(p, h)], suite)
        assert report.overall_accuracy == 1.0
        assert all(acc == 1.0 for _, acc in report.per_category.values())
        assert report.overall_n == 129

    def test_constant_neutral_model(self):
        suite = load_probe_suite()
        report = run_probes(lambda p, h: "Neutral", suite)
        n_num, acc_num = report.per_category["numeric"]
        n_cs, acc_cs = report.per_category["clinical-state"]
        n_t, acc_t = report.per_category["temporal"]
        assert (n_num, n_cs, n_t) == (93, 32, 4)
        assert acc_num == pytest.approx(3 / 93)
        assert acc_cs == pytest.approx(5 / 32)
        assert acc_t == 0.0
        assert report.overall_accuracy == pytest.approx(8 / 129)

    def test_report_format(self):
        suite = load_probe_suite()
        report = run_probes(lambda p, h: "Entailment", suite)
        lines = report.format().splitlines()
        assert lines[0] == "category\tn\taccuracy"
        assert len(lines) == 5
        assert lines[-1].startswith("overall\t129\t")

    def test_invalid_model_label_rejected(self):
        suite = load_probe_suite()[:1]
        with pytest.raises(ValueError, match="maybe"):
            run_probes(lambda p, h: "maybe", suite)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            run_probes(lambda p, h: "Neutral", [])
