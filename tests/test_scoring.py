"""Scoring engine: worked examples, fixed points, grades, and strategies."""

import json
import math
import random
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from summaryqa.base import Dimension, Group, Section
from summaryqa.errors import Malformed
from summaryqa.catalog import validate_catalog
from summaryqa.reporting import (
    DEFAULT_GRADE_SCALE,
    AggregationConfig,
    GradeScale,
    OverallAggregation,
    SectionAggregation,
    assign_grade,
    format_percentage,
    scorecard_from_json,
    scorecard_to_dict,
)
from summaryqa.scoring import _mean, score_summary
from summaryqa.assessment import Verdict, applicability_map, assessment_findings

from oracle import assert_card_matches_oracle, oracle_scorecard
from randgen import random_assessment, random_catalog
from toys import I, NA, P, S, load_reference_catalog, toy_assessment, toy_catalog, toy_metric, uniform_assessment

MEAN_CONFIG = AggregationConfig(
    section_group_strategy=SectionAggregation.MEAN_OF_DIMENSIONS,
    overall_strategy=OverallAggregation.MEAN_OF_SECTIONS,
)


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
        assert got == Fraction(125, 2)

    def test_all_sufficient_hits_upper_bound(self):
        cat = toy_catalog(toy_metric("A", weight=3), toy_metric("B", weight=5))
        a = toy_assessment(cat, {"A": Verdict(S), "B": Verdict(S)})
        assert score_summary(cat, a).per_cell[(Section.DOCUMENT, Dimension.CLARITY)] == Fraction(100)

    def test_empty_cell_is_na(self):
        cat = toy_catalog(toy_metric("A"))
        a = toy_assessment(cat, {"A": Verdict(S)})
        assert score_summary(cat, a).per_cell[(Section.USER_DATA, Dimension.CLARITY)] is None

    def test_gated_out_cell_is_na(self):
        cat = toy_catalog(
            toy_metric("G", dimension=Dimension.COMPLETENESS),
            toy_metric("D", gate="G", dimension=Dimension.CLARITY),
        )
        a = toy_assessment(cat, {"G": Verdict(S, "gate=no"), "D": Verdict(NA)})
        assert score_summary(cat, a).per_cell[(Section.DOCUMENT, Dimension.CLARITY)] is None


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
            assert got == Fraction(100)

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
            assert got == Fraction(80), config

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
        assert pooled == Fraction(25)
        assert mean == Fraction(50)

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
        assert got[Group.TRANSPARENCY] == Fraction(100)
        assert got[Group.USEFULNESS] == Fraction(100)

    def test_all_insufficient(self):
        cat = load_reference_catalog()
        a = uniform_assessment(cat, I)
        got = score_summary(cat, a).overall
        assert got[Group.TRANSPARENCY] == Fraction(0)
        assert got[Group.USEFULNESS] == Fraction(0)

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
        score = Fraction(pct)
        assert assign_grade(score, DEFAULT_GRADE_SCALE) == letter

    def test_band_minimum_is_inclusive(self):
        assert assign_grade(Fraction(95)) == "A+"
        assert assign_grade(Fraction(80)) == "B+"
        assert assign_grade(Fraction(30)) == "D"
        assert assign_grade(Fraction(0)) == "F"

    def test_na_grade(self):
        assert assign_grade(None) == "N/A"

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
            assert value is None or value == Fraction(100)
        for value in card.per_section_group.values():
            assert value is None or value == Fraction(100)
        assert card.grades == {Group.TRANSPARENCY: "A+", Group.USEFULNESS: "A+"}

    def test_all_insufficient_card(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, I))
        assert card.overall[Group.TRANSPARENCY] == Fraction(0)
        assert card.grades == {Group.TRANSPARENCY: "F", Group.USEFULNESS: "F"}

    def test_all_not_applicable_yields_all_na_card(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, NA, gate_answer="no"))
        assert all(v is None for v in card.per_cell.values())
        assert all(v is None for v in card.per_section_group.values())
        assert all(v is None for v in card.overall.values())
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

    def test_unanswered_gate_switches_dependents_off_as_the_oracle_does(self):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(200):
            cat = random_catalog(rng, max_metrics=30)
            a = random_assessment(rng, cat)
            amap = applicability_map(cat, a)
            gates = [g for g in dict.fromkeys(m.applicability.gate_metric_id for m in cat.metrics) if g and amap[g]]
            if not gates:
                continue
            gate = rng.choice(gates)
            # The gate's answer is dropped with its note, or with its whole row.
            verdicts = {mid: v for mid, v in a.verdicts.items() if mid != gate}
            if rng.random() < 0.5:
                verdicts[gate] = Verdict(a.verdicts[gate].value)
            unanswered = a._replace(verdicts=verdicts)
            findings = assessment_findings(cat, unanswered, date(2026, 1, 31))
            assert ("gate-unanswered", gate) in [(f.code, f.locus) for f in findings]
            for config, strategies in (
                (AggregationConfig(), ("pooled-weighted", "pooled-weighted")),
                (MEAN_CONFIG, ("mean-of-dimensions", "mean-of-sections")),
            ):
                card = score_summary(cat, unanswered, config)
                assert_card_matches_oracle(card, oracle_scorecard(cat, unanswered, *strategies))
            checked += 1
        assert checked >= 100

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
        for config, strategies, section_doc, transparency in (
            (AggregationConfig(), ("pooled-weighted", "pooled-weighted"), Fraction(725, 13), Fraction(2850, 43)),
            (MEAN_CONFIG, ("mean-of-dimensions", "mean-of-sections"), Fraction(225, 4), Fraction(625, 12)),
        ):
            card = score_summary(cat, a, config)
            assert_card_matches_oracle(card, oracle_scorecard(cat, a, *strategies))
            assert card.per_cell[(doc, Dimension.CLARITY)] == Fraction(125, 2)
            assert card.per_section_group[(doc, Group.TRANSPARENCY)] == section_doc
            assert card.overall[Group.TRANSPARENCY] == transparency

    def test_repeated_id_counts_each_occurrence(self):
        # A repeated id is a duplicate-id finding, and no occurrence is
        # scored: the catalog has no rows to pool.
        cat = toy_catalog(
            toy_metric("X", gate="G"),
            toy_metric("G"),
            toy_metric("X", Section.USER_DATA, Dimension.COMPREHENSION, weight=Fraction(5, 7)),
            toy_metric("G", gate="X", answer="no"),
            toy_metric("Y", gate="X"),
        )
        a = toy_assessment(cat, {"G": Verdict(S, "gate=yes"), "X": Verdict(P, "gate=yes"), "Y": Verdict(S)})
        assert [(f.code, f.locus) for f in validate_catalog(cat)] == [("duplicate-id", "X"), ("duplicate-id", "G")]
        with pytest.raises(ValueError) as exc:
            score_summary(cat, a)
        assert str(exc.value) == "metric id 'X' occurs more than once; validate the catalog first"


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
        from hypothesis import example, given, strategies as st

        # The default scale's minimums and the severity minimums are integers, so rounding can carry
        # a value up across one of them, never down.
        minimums = {low for _, low in DEFAULT_GRADE_SCALE.bands} | {50, 80}

        @given(st.fractions(min_value=0, max_value=100))
        @example(Fraction(17999, 200))
        def check(pct):
            hundredths = math.floor(pct * 100 + Fraction(1, 2))
            if any(pct < low <= Fraction(hundredths, 100) for low in minimums):
                hundredths = math.floor(pct * 100)
            assert format_percentage(pct) == f"{hundredths // 100}.{hundredths % 100:02d}"

        check()


percentages = st.fractions(min_value=0, max_value=100)


def card_with_exact(pct):
    """The JSON of a toy card whose Document/Clarity cell holds ``pct`` and its display."""
    cat = toy_catalog(toy_metric("A"))
    data = scorecard_to_dict(score_summary(cat, toy_assessment(cat, {"A": Verdict(S)})))
    data["cells"]["Document"]["Clarity"] = {"pct": format_percentage(Fraction(pct)), "exact": str(pct)}
    return json.dumps(data)


def decoded_cell(text):
    return scorecard_from_json(text).per_cell[(Section.DOCUMENT, Dimension.CLARITY)]


class TestExactArithmetic:
    @settings(max_examples=100)
    @given(st.lists(st.none() | percentages, max_size=6))
    def test_mean_equals_fraction_mean(self, pcts):
        values = [pct for pct in pcts if pct is not None]
        mean = _mean(pcts)
        if values:
            assert mean == sum(values, Fraction(0)) / len(values)
            assert type(mean) is Fraction
        else:
            assert mean is None

    # A score comes from outside the program only in a card file, so the
    # card decoder holds the one range check of a percentage.
    def test_percentage_keeps_a_fraction_as_given(self):
        pct = Fraction(175, 2)
        assert decoded_cell(card_with_exact(pct)) == pct
        assert decoded_cell(card_with_exact(100)) == Fraction(100)
        assert type(decoded_cell(card_with_exact(100))) is Fraction

    @pytest.mark.parametrize("pct", [Fraction(0), Fraction(100), Fraction(1, 10**30), Fraction(10**32 - 1, 10**30)])
    def test_percentage_accepts_the_closed_range(self, pct):
        assert decoded_cell(card_with_exact(pct)) == pct

    @pytest.mark.parametrize("pct", [Fraction(-1, 10**30), Fraction(10**32 + 1, 10**30), 101, -1])
    def test_percentage_refuses_outside_the_range(self, pct):
        with pytest.raises(Malformed, match="percentage out of range"):
            scorecard_from_json(card_with_exact(pct))
