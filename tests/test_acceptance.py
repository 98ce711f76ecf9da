"""Acceptance suite: one test per release criterion, with timing budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are exact (rational equality / byte equality)
except where a criterion states otherwise; time budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from summaryqa.assessment import Verdict, applicability_map
from summaryqa.base import Dimension, Group, Section
from summaryqa.catalog import (
    ApplicabilityRule,
    Catalog,
    Metric,
    section_counts,
    validate_catalog,
)
from summaryqa.registry import archive_fetch, load_registry
from summaryqa.reporting import (
    DEFAULT_GRADE_SCALE,
    AggregationConfig,
    OverallAggregation,
    SectionAggregation,
    assign_grade,
    comparison_column,
    format_percentage,
    render_comparison,
    render_scorecard,
    scorecard_from_json,
    scorecard_to_json,
)
from summaryqa.scoring import score_summary
from summaryqa.site import SiteConfig, build_site, check_links

from oracle import assert_card_matches_oracle, oracle_scorecard
from randgen import random_assessment, random_catalog
from toys import I, NA, P, S, letter_rank, load_reference_catalog, run_cli, uniform_assessment, with_verdict

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
CATALOG_PATH = REPO / "src" / "summaryqa" / "data" / "reference_catalog.txt"

ORACLE_INSTANCES = 1000
PROPERTY_INSTANCES = 500

POOLED = AggregationConfig()
MEAN = AggregationConfig(
    section_group_strategy=SectionAggregation.MEAN_OF_DIMENSIONS,
    overall_strategy=OverallAggregation.MEAN_OF_SECTIONS,
)
STRATEGIES = (
    (POOLED, ("pooled-weighted", "pooled-weighted")),
    (MEAN, ("mean-of-dimensions", "mean-of-sections")),
)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS criterion {num}: {name} ({elapsed:.2f}s < {budget_s:.0f}s)")


def test_criterion_1_grade_scale_fidelity():
    pairs = [
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
    ]
    with criterion(1, "default grade scale classifies all ten published pairs", 1.0):
        for pct, letter in pairs:
            got = assign_grade(Fraction(pct), DEFAULT_GRADE_SCALE)
            assert got == letter, f"{pct} -> {got}, expected {letter}"


def test_criterion_2_catalog_shape():
    with criterion(2, "reference catalog validates; section counts match", 1.0):
        catalog = load_reference_catalog()
        assert validate_catalog(catalog) == []
        counts = {s.code: n for s, n in section_counts(catalog).items()}
        assert counts == {
            "Document": 30,
            "GeneralInformation": 54,
            "PublicDataSources": 26,
            "PrivateDataSources": 27,
            "ScrapedCrawledData": 46,
            "UserData": 14,
            "SyntheticOtherData": 28,
            "DataProcessing": 17,
        }
        assert sum(counts.values()) == 242


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260809)
    with criterion(3, f"score_summary equals brute-force oracle on {ORACLE_INSTANCES} instances", 30.0):
        for _ in range(ORACLE_INSTANCES):
            catalog = random_catalog(rng)
            assessment = random_assessment(rng, catalog)
            for config, strategy_names in STRATEGIES:
                card = score_summary(catalog, assessment, config)
                expected = oracle_scorecard(catalog, assessment, *strategy_names)
                assert_card_matches_oracle(card, expected)


def _card_values(card):
    yield from card.per_cell.values()
    yield from card.per_section_group.values()
    yield from card.per_dimension_overall.values()
    yield from card.overall.values()


def _paired(card_a, card_b):
    for mapping in ("per_cell", "per_section_group", "per_dimension_overall", "overall"):
        map_a, map_b = getattr(card_a, mapping), getattr(card_b, mapping)
        for key in map_a:
            yield map_a[key], map_b[key]


def test_criterion_4_property_suite():
    with criterion(4, f"five scoring properties x {PROPERTY_INSTANCES} instances", 60.0):
        # Monotonicity under single-verdict upgrades.
        rng = random.Random(41)
        for _ in range(PROPERTY_INSTANCES):
            catalog = random_catalog(rng, max_metrics=25)
            assessment = random_assessment(rng, catalog)
            upgradable = [m for m, v in assessment.verdicts.items() if v.value in (I, P)]
            if not upgradable:
                continue
            mid = rng.choice(upgradable)
            old = assessment.verdicts[mid]
            new_value = P if old.value is I else S
            upgraded = with_verdict(assessment, mid, Verdict(new_value, old.note))
            for config, _ in STRATEGIES:
                before = score_summary(catalog, assessment, config)
                after = score_summary(catalog, upgraded, config)
                for b, a in _paired(before, after):
                    assert (b is None) == (a is None)
                    assert b is None or a >= b

        # Weight-scaling invariance.
        rng = random.Random(42)
        for _ in range(PROPERTY_INSTANCES):
            catalog = random_catalog(rng, max_metrics=25)
            assessment = random_assessment(rng, catalog)
            factor = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            scaled = Catalog(
                catalog.name,
                catalog.version,
                tuple(m._replace(weight=m.weight * factor) for m in catalog.metrics),
            )
            for config, _ in STRATEGIES:
                assert score_summary(catalog, assessment, config) == score_summary(scaled, assessment, config)

        # N/A propagation.
        rng = random.Random(43)
        for _ in range(PROPERTY_INSTANCES):
            catalog = random_catalog(rng, max_metrics=25)
            assessment = random_assessment(rng, catalog)
            amap = applicability_map(catalog, assessment)
            populated = {(m.section, m.dimension) for m in catalog.metrics if amap[m.id]}
            for config, _ in STRATEGIES:
                card = score_summary(catalog, assessment, config)
                for (section, dimension), value in card.per_cell.items():
                    assert (value is None) == ((section, dimension) not in populated)
                for (section, group), value in card.per_section_group.items():
                    cells = [card.per_cell[(section, d)] for d in Dimension if d.group is group]
                    assert (value is None) == all(c is None for c in cells)
                for group, value in card.overall.items():
                    sections = [card.per_section_group[(s, group)] for s in Section]
                    assert (value is None) == all(s is None for s in sections)

        # Gated subtree answered "no" adds no penalty (and changes nothing).
        rng = random.Random(44)
        for _ in range(PROPERTY_INSTANCES):
            catalog = random_catalog(rng, max_metrics=20)
            assessment = random_assessment(rng, catalog)
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
                for i in range(rng.randint(1, 3))
            )
            extended = Catalog(catalog.name, catalog.version, catalog.metrics + extra)
            for config, _ in STRATEGIES:
                base = score_summary(catalog, answered, config)
                grown = score_summary(extended, answered, config)
                for b, g in _paired(base, grown):
                    assert b == g
                assert base.grades == grown.grades

        # Grade monotonicity.
        rng = random.Random(45)
        for _ in range(PROPERTY_INSTANCES):
            hi = Fraction(rng.randint(0, 10000), 100)
            lo = Fraction(rng.randint(0, 10000), 100)
            if hi < lo:
                hi, lo = lo, hi
            rank_hi = letter_rank(DEFAULT_GRADE_SCALE, assign_grade(Fraction(hi)))
            rank_lo = letter_rank(DEFAULT_GRADE_SCALE, assign_grade(Fraction(lo)))
            assert rank_hi <= rank_lo


def test_criterion_5_boundary_fixed_points():
    with criterion(5, "all-sufficient / all-insufficient / all-inapplicable cards", 1.0):
        catalog = load_reference_catalog()

        card = score_summary(catalog, uniform_assessment(catalog, S))
        for value in _card_values(card):
            assert value is not None and format_percentage(value) == "100.00"
        assert card.grades == {Group.TRANSPARENCY: "A+", Group.USEFULNESS: "A+"}

        card = score_summary(catalog, uniform_assessment(catalog, I))
        for value in _card_values(card):
            assert value is not None and format_percentage(value) == "0.00"
        assert card.grades == {Group.TRANSPARENCY: "F", Group.USEFULNESS: "F"}

        card = score_summary(catalog, uniform_assessment(catalog, NA, gate_answer="no"))
        for value in _card_values(card):
            assert value is None
        assert card.grades == {Group.TRANSPARENCY: "N/A", Group.USEFULNESS: "N/A"}


def test_criterion_6_render_round_trip():
    rng = random.Random(6)
    with criterion(6, "JSON round-trip on 100 cards; renders carry every value", 5.0):
        cards = []
        for _ in range(100):
            catalog = random_catalog(rng, max_metrics=30)
            assessment = random_assessment(rng, catalog)
            config = POOLED if rng.random() < 0.5 else MEAN
            cards.append(score_summary(catalog, assessment, config))
        for card in cards:
            assert scorecard_from_json(scorecard_to_json(card)) == card

        sample = cards[:5]
        for card in sample:
            for fmt in ("csv", "html"):
                text = render_scorecard(card, fmt).decode("utf-8")
                for value in _card_values(card):
                    assert format_percentage(value) in text
                for grade in card.grades.values():
                    assert grade in text
        comparable = [c._replace(catalog_ref="toy/r1") for c in cards if c.config_used == POOLED][:5]
        for fmt in ("csv", "html"):
            text = render_comparison([comparison_column(c) for c in comparable], fmt).decode("utf-8")
            for card in comparable:
                for value in list(card.per_section_group.values()) + list(card.overall.values()):
                    assert format_percentage(value) in text
                for grade in card.grades.values():
                    assert grade in text


def _pipeline_run(base: Path) -> dict[str, bytes]:
    """validate -> score five fixtures -> compare -> site, all via the CLI."""
    out = base / "out"
    store = base / "store"
    for source in sorted((FIXTURES / "sources").iterdir()):
        archive_fetch(str(source), store)

    result = run_cli(
        "--catalog", str(CATALOG_PATH),
        "validate",
        "--assessments", str(FIXTURES / "assessments"),
        "--registry", str(FIXTURES / "registry.json"),
        "--store", str(store),
    )
    assert result.exit_code == 0, result.output

    result = run_cli("--catalog", str(CATALOG_PATH), "--out", str(out), "score", str(FIXTURES / "assessments"))
    assert result.exit_code == 0, result.output

    result = run_cli("--out", str(out), "compare")
    assert result.exit_code == 0, result.output

    result = run_cli(
        "--out", str(out),
        "site",
        "--registry", str(FIXTURES / "registry.json"),
        "--store", str(store),
    )
    assert result.exit_code == 0, result.output
    published = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    # The same inputs rebuild the same tree in place, and the plan's links resolve in it.
    plan = build_site(
        load_registry(FIXTURES / "registry.json"),
        sorted(out.glob("*.scorecard.json")),
        SiteConfig(output_root=out / "site", store_root=store),
    )
    assert check_links(plan) == []
    assert {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == published

    return published


def test_criterion_7_pipeline_reproducibility(tmp_path):
    with criterion(7, "two full runs byte-identical; links clean; corruption detected", 10.0):
        tree_a = _pipeline_run(tmp_path / "run-a")
        tree_b = _pipeline_run(tmp_path / "run-b")
        assert tree_a == tree_b
        assert len([p for p in tree_a if p.endswith(".scorecard.json") and "/" not in p]) == 5

        # Integrity: corrupt one archived object, expect one digest finding.
        store = tmp_path / "run-a" / "store"
        victim = sorted((store / "objects").rglob("*"))
        victim = [p for p in victim if p.is_file()][0]
        data = bytearray(victim.read_bytes())
        data[0] ^= 0xFF
        victim.write_bytes(bytes(data))

        result = run_cli(
            "--catalog", str(CATALOG_PATH),
            "validate",
            "--registry", str(FIXTURES / "registry.json"),
            "--store", str(store),
        )
        assert result.exit_code == 1
        assert "digest-mismatch" in result.output
