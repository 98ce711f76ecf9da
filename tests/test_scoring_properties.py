"""Property-based checks of the scoring invariants on random toy instances."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from summaryqa.assessment import Verdict, applicability_map
from summaryqa.base import Dimension, Section
from summaryqa.catalog import ApplicabilityRule, Catalog, Metric
from summaryqa.reporting import (
    DEFAULT_GRADE_SCALE,
    AggregationConfig,
    OverallAggregation,
    SectionAggregation,
    assign_grade,
)
from summaryqa.scoring import score_summary

from randgen import random_assessment, random_catalog
from toys import I, NA, P, S, applicable_metrics, letter_rank, with_verdict

CONFIGS = (
    AggregationConfig(),
    AggregationConfig(
        section_group_strategy=SectionAggregation.MEAN_OF_DIMENSIONS,
        overall_strategy=OverallAggregation.MEAN_OF_SECTIONS,
    ),
)

UPGRADE = {I: P, P: S}


def test_random_inputs_do_not_depend_on_the_hash_seed():
    """A seed names the same catalogs and assessments in every process, so a
    failing property can be reproduced from its seed."""
    tests = Path(__file__).resolve().parent
    code = (
        "import random\n"
        "from randgen import random_assessment, random_catalog\n"
        "from toys import dumps_assessment, dumps_catalog\n"
        "rng = random.Random(7)\n"
        "for _ in range(20):\n"
        "    catalog = random_catalog(rng)\n"
        "    print(dumps_catalog(catalog), dumps_assessment(random_assessment(rng, catalog)))\n"
    )
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


@st.composite
def instances(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    catalog = random_catalog(rng)
    assessment = random_assessment(rng, catalog)
    return rng, catalog, assessment


def all_values(card):
    yield from card.per_cell.values()
    yield from card.per_section_group.values()
    yield from card.per_dimension_overall.values()
    yield from card.overall.values()


def paired_values(card_a, card_b):
    for key in card_a.per_cell:
        yield card_a.per_cell[key], card_b.per_cell[key]
    for key in card_a.per_section_group:
        yield card_a.per_section_group[key], card_b.per_section_group[key]
    for key in card_a.per_dimension_overall:
        yield card_a.per_dimension_overall[key], card_b.per_dimension_overall[key]
    for key in card_a.overall:
        yield card_a.overall[key], card_b.overall[key]


@given(instances())
def test_scores_stay_in_range(instance):
    _, catalog, assessment = instance
    for config in CONFIGS:
        for value in all_values(score_summary(catalog, assessment, config)):
            assert value is None or 0 <= value <= 100


@given(instances())
def test_upgrading_one_verdict_never_lowers_any_score(instance):
    rng, catalog, assessment = instance
    upgradable = [
        mid for mid, v in assessment.verdicts.items() if v.value in UPGRADE
    ]
    if not upgradable:
        return
    mid = rng.choice(upgradable)
    old = assessment.verdicts[mid]
    upgraded = with_verdict(assessment, mid, Verdict(UPGRADE[old.value], old.note))
    for config in CONFIGS:
        before = score_summary(catalog, assessment, config)
        after = score_summary(catalog, upgraded, config)
        for b, a in paired_values(before, after):
            assert (b is None) == (a is None)
            if b is not None:
                assert a >= b


@given(instances(), st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(3), Fraction(7, 5)]))
def test_scaling_all_weights_changes_nothing(instance, factor):
    _, catalog, assessment = instance
    scaled = Catalog(
        catalog.name,
        catalog.version,
        tuple(m._replace(weight=m.weight * factor) for m in catalog.metrics),
    )
    for config in CONFIGS:
        assert score_summary(catalog, assessment, config) == score_summary(scaled, assessment, config)


@given(instances())
def test_na_propagation(instance):
    _, catalog, assessment = instance
    amap = applicability_map(catalog, assessment)
    applicable_cells = {
        (m.section, m.dimension) for m in catalog.metrics if amap[m.id]
    }
    for config in CONFIGS:
        card = score_summary(catalog, assessment, config)
        for (section, dimension), value in card.per_cell.items():
            assert (value is None) == ((section, dimension) not in applicable_cells)
        for (section, group), value in card.per_section_group.items():
            cells = [card.per_cell[(section, d)] for d in Dimension if d.group is group]
            assert (value is None) == all(c is None for c in cells)
        for group, value in card.overall.items():
            sections = [card.per_section_group[(s, group)] for s in Section]
            assert (value is None) == all(s is None for s in sections)


@given(instances())
def test_gated_subtree_answered_no_changes_nothing(instance):
    rng, catalog, assessment = instance
    # Record a "no" answer on an existing metric; notes never affect scores.
    anchor = rng.choice(catalog.metrics)
    old = assessment.verdicts.get(anchor.id, Verdict(NA))
    answered = with_verdict(assessment, anchor.id, Verdict(old.value, "gate=no"))

    extra = tuple(
        Metric(
            id=f"X{i}",
            element_id="x.0",
            section=rng.choice(list(Section)),
            dimension=rng.choice(list(Dimension)),
            weight=Fraction(rng.randint(1, 5)),
            prompt=f"Extra check {i}.",
            applicability=ApplicabilityRule.if_gate("X0" if i else anchor.id, "yes"),
        )
        for i in range(rng.randint(1, 4))
    )
    extended = Catalog(catalog.name, catalog.version, catalog.metrics + extra)

    for config in CONFIGS:
        base = score_summary(catalog, answered, config)
        grown = score_summary(extended, answered, config)
        for pair in paired_values(base, grown):
            assert pair[0] == pair[1]
        assert base.grades == grown.grades


@given(instances())
def test_verdict_map_order_is_irrelevant(instance):
    rng, catalog, assessment = instance
    items = list(assessment.verdicts.items())
    rng.shuffle(items)
    shuffled = assessment._replace(verdicts=dict(items))
    for config in CONFIGS:
        assert score_summary(catalog, assessment, config) == score_summary(catalog, shuffled, config)


@given(instances())
def test_flipping_gate_no_to_yes_only_adds_applicable_metrics(instance):
    _, catalog, assessment = instance
    no_gates = [
        mid
        for mid, verdict in assessment.verdicts.items()
        if verdict.gate_answer == "no"
    ]
    before = set(applicable_metrics(catalog, assessment))
    for mid in no_gates:
        old = assessment.verdicts[mid]
        flipped = with_verdict(assessment, mid, Verdict(old.value, "gate=yes"))
        after = set(applicable_metrics(catalog, flipped))
        assert before <= after


@given(
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=0, max_value=100),
)
def test_grade_is_monotone_in_score(pct_a, pct_b):
    if pct_a < pct_b:
        pct_a, pct_b = pct_b, pct_a
    grade_a = assign_grade(pct_a, DEFAULT_GRADE_SCALE)
    grade_b = assign_grade(pct_b, DEFAULT_GRADE_SCALE)
    assert letter_rank(DEFAULT_GRADE_SCALE, grade_a) <= letter_rank(DEFAULT_GRADE_SCALE, grade_b)


@settings(max_examples=25)
@given(instances())
def test_strategy_agreement_on_equalized_cell_weights(instance):
    """When each populated cell of a group has equal total applicable weight,
    mean-of-dimensions equals pooled weighting for that section group."""
    _, catalog, assessment = instance
    amap = applicability_map(catalog, assessment)
    totals: dict[tuple[Section, Dimension], Fraction] = {}
    for m in catalog.metrics:
        if amap[m.id]:
            key = (m.section, m.dimension)
            totals[key] = totals.get(key, Fraction(0)) + m.weight
    # Rescale weights so every populated cell totals exactly 1.
    rescaled = tuple(
        m._replace(weight=m.weight / totals[(m.section, m.dimension)])
        if amap[m.id]
        else m
        for m in catalog.metrics
    )
    equalized = Catalog(catalog.name, catalog.version, rescaled)
    pooled = score_summary(catalog=equalized, assessment=assessment, config=CONFIGS[0])
    mean = score_summary(catalog=equalized, assessment=assessment, config=CONFIGS[1])
    for key in pooled.per_section_group:
        assert pooled.per_section_group[key] == mean.per_section_group[key]
