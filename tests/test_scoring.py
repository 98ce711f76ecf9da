"""Scoring engine: worked examples, fixed points, grades, and strategies."""

import math
import random
from fractions import Fraction

import pytest

from summaryqa.catalog import Dimension, Group, Section, load_reference_catalog
from summaryqa.errors import InapplicableVerdict
from summaryqa.scoring import (
    AggregationConfig,
    DEFAULT_GRADE_SCALE,
    GradeScale,
    OverallAggregation,
    ScoreValue,
    SectionAggregation,
    assign_grade,
    format_percentage,
    metric_score,
    score_summary,
)
from summaryqa.assessment import Verdict

from oracle import assert_card_matches_oracle, oracle_scorecard
from randgen import random_assessment, random_catalog
from toys import I, NA, P, S, toy_assessment, toy_catalog, toy_metric, uniform_assessment

MEAN_CONFIG = AggregationConfig(
    section_group_strategy=SectionAggregation.MEAN_OF_DIMENSIONS,
    overall_strategy=OverallAggregation.MEAN_OF_SECTIONS,
)


class TestMetricScore:
    def test_sufficient_times_weight(self):
        assert metric_score(Verdict(S), Fraction(2)) == 2

    def test_partially_sufficient_is_half(self):
        assert metric_score(Verdict(P), Fraction(2)) == 1

    def test_insufficient_is_zero(self):
        assert metric_score(Verdict(I), Fraction(7)) == 0

    def test_not_applicable_raises(self):
        with pytest.raises(InapplicableVerdict):
            metric_score(Verdict(NA), Fraction(1))


class TestCellScore:
    def test_weighted_hand_example(self):
        # (1*2 + 0.5*1 + 0*1) / (2+1+1) = 2.5/4 = 62.5%
        cat = toy_catalog(
            toy_metric("A", weight=2),
            toy_metric("B", weight=1),
            toy_metric("C", weight=1),
        )
        a = toy_assessment(cat, {"A": Verdict(S), "B": Verdict(P), "C": Verdict(I)})
        got = score_summary(cat, a).per_cell[(Section.DOCUMENT, Dimension.CLARITY)]
        assert got == ScoreValue.percentage(Fraction(125, 2))

    def test_all_sufficient_hits_upper_bound(self):
        cat = toy_catalog(toy_metric("A", weight=3), toy_metric("B", weight=5))
        a = toy_assessment(cat, {"A": Verdict(S), "B": Verdict(S)})
        assert score_summary(cat, a).per_cell[(Section.DOCUMENT, Dimension.CLARITY)] == ScoreValue.percentage(100)

    def test_empty_cell_is_na(self):
        cat = toy_catalog(toy_metric("A"))
        a = toy_assessment(cat, {"A": Verdict(S)})
        assert score_summary(cat, a).per_cell[(Section.USER_DATA, Dimension.CLARITY)].is_na

    def test_gated_out_cell_is_na(self):
        cat = toy_catalog(
            toy_metric("G", dimension=Dimension.COMPLETENESS),
            toy_metric("D", gate="G", dimension=Dimension.CLARITY),
        )
        a = toy_assessment(cat, {"G": Verdict(S, "gate=no"), "D": Verdict(NA)})
        assert score_summary(cat, a).per_cell[(Section.DOCUMENT, Dimension.CLARITY)].is_na


class TestSectionGroupScore:
    def test_all_cells_100_under_either_strategy(self):
        cat = toy_catalog(
            toy_metric("A", dimension=Dimension.CLARITY),
            toy_metric("B", dimension=Dimension.COMPLETENESS),
            toy_metric("C", dimension=Dimension.CONSISTENCY),
            toy_metric("D", dimension=Dimension.CORRECTNESS),
        )
        a = uniform_assessment(cat, S)
        for config in (AggregationConfig(), MEAN_CONFIG):
            got = score_summary(cat, a, config).per_section_group[(Section.DOCUMENT, Group.TRANSPARENCY)]
            assert got == ScoreValue.percentage(100)

    def test_na_cell_skipped(self):
        # Comprehension cell scores 80: weights [4,1], verdicts [S, I].
        # The single Accessibility metric is gated off, so its cell is N/A.
        cat = toy_catalog(
            toy_metric("G", dimension=Dimension.COMPLETENESS),
            toy_metric("ACC", gate="G", dimension=Dimension.ACCESSIBILITY),
            toy_metric("CM1", weight=4, dimension=Dimension.COMPREHENSION),
            toy_metric("CM2", weight=1, dimension=Dimension.COMPREHENSION),
        )
        a = toy_assessment(
            cat,
            {"G": Verdict(S, "gate=no"), "CM1": Verdict(S), "CM2": Verdict(I)},
        )
        for config in (AggregationConfig(), MEAN_CONFIG):
            got = score_summary(cat, a, config).per_section_group[(Section.DOCUMENT, Group.USEFULNESS)]
            assert got == ScoreValue.percentage(80), config

    def test_strategies_diverge_on_unequal_cell_weights(self):
        # Clarity: one metric, weight 1, sufficient (100%).
        # Completeness: weight 3, insufficient (0%).
        # Mean of cells = 50%; pooled = 1/4 = 25%.
        cat = toy_catalog(
            toy_metric("A", dimension=Dimension.CLARITY, weight=1),
            toy_metric("B", dimension=Dimension.COMPLETENESS, weight=3),
        )
        a = toy_assessment(cat, {"A": Verdict(S), "B": Verdict(I)})
        key = (Section.DOCUMENT, Group.TRANSPARENCY)
        pooled = score_summary(cat, a, AggregationConfig()).per_section_group[key]
        mean = score_summary(cat, a, MEAN_CONFIG).per_section_group[key]
        assert pooled == ScoreValue.percentage(25)
        assert mean == ScoreValue.percentage(50)

    def test_strategies_agree_when_cell_weights_equal(self):
        # Every cell in the group has total weight 4.
        cat = toy_catalog(
            toy_metric("A1", dimension=Dimension.CLARITY, weight=1),
            toy_metric("A2", dimension=Dimension.CLARITY, weight=3),
            toy_metric("B1", dimension=Dimension.COMPLETENESS, weight=4),
            toy_metric("C1", dimension=Dimension.CONSISTENCY, weight=2),
            toy_metric("C2", dimension=Dimension.CONSISTENCY, weight=2),
            toy_metric("D1", dimension=Dimension.CORRECTNESS, weight=4),
        )
        a = toy_assessment(
            cat,
            {
                "A1": Verdict(S),
                "A2": Verdict(P),
                "B1": Verdict(I),
                "C1": Verdict(S),
                "C2": Verdict(I),
                "D1": Verdict(P),
            },
        )
        key = (Section.DOCUMENT, Group.TRANSPARENCY)
        pooled = score_summary(cat, a, AggregationConfig()).per_section_group[key]
        mean = score_summary(cat, a, MEAN_CONFIG).per_section_group[key]
        assert pooled == mean


class TestOverallScores:
    def test_all_sufficient(self):
        cat = load_reference_catalog()
        a = uniform_assessment(cat, S)
        got = score_summary(cat, a).overall
        assert got[Group.TRANSPARENCY] == ScoreValue.percentage(100)
        assert got[Group.USEFULNESS] == ScoreValue.percentage(100)

    def test_all_insufficient(self):
        cat = load_reference_catalog()
        a = uniform_assessment(cat, I)
        got = score_summary(cat, a).overall
        assert got[Group.TRANSPARENCY] == ScoreValue.percentage(0)
        assert got[Group.USEFULNESS] == ScoreValue.percentage(0)

    def test_single_section_overall_equals_section_score(self):
        cat = toy_catalog(
            toy_metric("A", dimension=Dimension.CLARITY, weight=2),
            toy_metric("B", dimension=Dimension.COMPLETENESS, weight=5),
            toy_metric("C", dimension=Dimension.ACCESSIBILITY, weight=1),
        )
        a = toy_assessment(cat, {"A": Verdict(P), "B": Verdict(S), "C": Verdict(P)})
        for config in (AggregationConfig(), MEAN_CONFIG):
            card = score_summary(cat, a, config)
            for group in Group:
                assert card.overall[group] == card.per_section_group[(Section.DOCUMENT, group)], (config, group)


class TestGrades:
    @pytest.mark.parametrize(
        "pct,letter",
        [
            ("97.14", "A+"),
            ("94.74", "A"),
            ("92.90", "A"),
            ("88.02", "B+"),
            ("86.97", "B+"),
            ("86.01", "B+"),
            ("82.50", "B+"),
            ("71.11", "C+"),
            ("33.30", "D"),
            ("24.54", "F"),
        ],
    )
    def test_published_score_grade_pairs(self, pct, letter):
        score = ScoreValue.percentage(Fraction(pct))
        assert assign_grade(score, DEFAULT_GRADE_SCALE) == letter

    def test_band_minimum_is_inclusive(self):
        assert assign_grade(ScoreValue.percentage(95)) == "A+"
        assert assign_grade(ScoreValue.percentage(80)) == "B+"
        assert assign_grade(ScoreValue.percentage(30)) == "D"
        assert assign_grade(ScoreValue.percentage(0)) == "F"

    def test_na_grade(self):
        assert assign_grade(ScoreValue.na()) == "N/A"

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            GradeScale((("A", Fraction(50)), ("B", Fraction(50)), ("F", Fraction(0)))).check()
        with pytest.raises(ValueError, match="unique"):
            GradeScale((("A", Fraction(50)), ("A", Fraction(0)))).check()
        with pytest.raises(ValueError, match="must be 0"):
            GradeScale((("A", Fraction(50)), ("B", Fraction(10)))).check()
        DEFAULT_GRADE_SCALE.check()


class TestScoreSummary:
    def test_all_sufficient_card(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, S))
        for value in card.per_cell.values():
            assert value.is_na or value == ScoreValue.percentage(100)
        for value in card.per_section_group.values():
            assert value.is_na or value == ScoreValue.percentage(100)
        assert card.grades == {Group.TRANSPARENCY: "A+", Group.USEFULNESS: "A+"}

    def test_all_insufficient_card(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, I))
        assert card.overall[Group.TRANSPARENCY] == ScoreValue.percentage(0)
        assert card.grades == {Group.TRANSPARENCY: "F", Group.USEFULNESS: "F"}

    def test_all_not_applicable_yields_all_na_card(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, NA, gate_answer="no"))
        assert all(v.is_na for v in card.per_cell.values())
        assert all(v.is_na for v in card.per_section_group.values())
        assert all(v.is_na for v in card.overall.values())
        assert card.grades == {Group.TRANSPARENCY: "N/A", Group.USEFULNESS: "N/A"}

    def test_deterministic(self):
        rng = random.Random(7)
        cat = random_catalog(rng)
        a = random_assessment(rng, cat)
        assert score_summary(cat, a) == score_summary(cat, a)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_both_strategies(self, seed):
        rng = random.Random(seed)
        cat = random_catalog(rng)
        a = random_assessment(rng, cat)
        for config, strategies in (
            (AggregationConfig(), ("pooled-weighted", "pooled-weighted")),
            (MEAN_CONFIG, ("mean-of-dimensions", "mean-of-sections")),
        ):
            card = score_summary(cat, a, config)
            expected = oracle_scorecard(cat, a, *strategies)
            assert_card_matches_oracle(card, expected)

    def test_mixed_weight_denominators_match_oracle(self):
        # Weights 3/2, 0.5 and 7/3 sum as integers over their LCM, 6.  The
        # exact values are those of summing the weights as Fractions.
        doc, user = Section.DOCUMENT, Section.USER_DATA
        cat = toy_catalog(
            toy_metric("G", doc, Dimension.CLARITY, weight=Fraction(3, 2)),
            toy_metric("D1", doc, Dimension.CLARITY, weight=Fraction("0.5"), gate="G"),
            toy_metric("D2", doc, Dimension.COMPLETENESS, weight=Fraction(7, 3), gate="G"),
            toy_metric("D3", user, Dimension.ACCESSIBILITY, weight=Fraction(7, 3), gate="G", answer="no"),
            toy_metric("U1", user, Dimension.COMPREHENSION, weight=Fraction(3, 2)),
            toy_metric("U2", user, Dimension.CLARITY, weight=Fraction("0.5")),
            toy_metric("U3", Section.DATA_PROCESSING, Dimension.CORRECTNESS, weight=Fraction(7, 3)),
        )
        a = toy_assessment(
            cat,
            {
                "G": Verdict(P, "gate=yes"),
                "D1": Verdict(S),
                "D2": Verdict(P),
                "D3": Verdict(NA),
                "U1": Verdict(P),
                "U2": Verdict(I),
                "U3": Verdict(S),
            },
        )
        assert cat.compiled.weight_scale == 6
        for config, strategies, section_doc, transparency in (
            (AggregationConfig(), ("pooled-weighted", "pooled-weighted"), Fraction(725, 13), Fraction(2850, 43)),
            (MEAN_CONFIG, ("mean-of-dimensions", "mean-of-sections"), Fraction(225, 4), Fraction(625, 12)),
        ):
            card = score_summary(cat, a, config)
            assert_card_matches_oracle(card, oracle_scorecard(cat, a, *strategies))
            assert card.per_cell[(doc, Dimension.CLARITY)].pct == Fraction(125, 2)
            assert card.per_section_group[(doc, Group.TRANSPARENCY)].pct == section_doc
            assert card.overall[Group.TRANSPARENCY].pct == transparency

    def test_repeated_id_counts_each_occurrence(self):
        # Both rows of a repeated id pool, under the first occurrence's gate.
        cat = toy_catalog(
            toy_metric("X", gate="G"),
            toy_metric("G"),
            toy_metric("X", Section.USER_DATA, Dimension.COMPREHENSION, weight=Fraction(5, 7)),
            toy_metric("G", gate="X", answer="no"),
            toy_metric("Y", gate="X"),
        )
        a = toy_assessment(cat, {"G": Verdict(S, "gate=yes"), "X": Verdict(P, "gate=yes"), "Y": Verdict(S)})
        card = score_summary(cat, a)
        assert card.per_cell[(Section.DOCUMENT, Dimension.CLARITY)].pct == Fraction(175, 2)
        assert card.per_cell[(Section.USER_DATA, Dimension.COMPREHENSION)].pct == 50


class TestFormatting:
    def test_two_decimals(self):
        assert format_percentage(Fraction(100)) == "100.00"
        assert format_percentage(Fraction(0)) == "0.00"
        assert format_percentage(Fraction(125, 2)) == "62.50"

    def test_round_half_up(self):
        assert format_percentage(Fraction("88.025")) == "88.03"
        assert format_percentage(Fraction("88.0249")) == "88.02"
        assert format_percentage(Fraction(1, 3)) == "0.33"
        assert format_percentage(Fraction(2, 3)) == "0.67"

    def test_integer_rounding_equals_fraction_rounding(self):
        from hypothesis import given, strategies as st

        @given(st.fractions(min_value=0, max_value=100))
        def check(pct):
            hundredths = math.floor(pct * 100 + Fraction(1, 2))
            assert format_percentage(pct) == f"{hundredths // 100}.{hundredths % 100:02d}"

        check()
