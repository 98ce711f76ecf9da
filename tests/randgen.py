"""Seeded random toy catalogs and assessments for property and oracle tests."""

import random
from datetime import date
from fractions import Fraction

from summaryqa.assessment import Assessment, Verdict, VerdictValue
from summaryqa.base import DIMENSION_ORDER, SECTION_ORDER, PublishedForm, SummaryMeta
from summaryqa.catalog import ApplicabilityRule, Catalog, Metric

SCOREABLE = (VerdictValue.SUFFICIENT, VerdictValue.PARTIALLY_SUFFICIENT, VerdictValue.INSUFFICIENT)


def random_catalog(
    rng: random.Random,
    min_metrics: int = 5,
    max_metrics: int = 60,
    gate_probability: float = 0.3,
    allow_no_gates: bool = False,
) -> Catalog:
    """Catalog with random sections/dimensions/weights and an acyclic gate DAG.

    Gates only ever point at earlier metrics, so cycles cannot occur.  All
    gate rules require "yes" unless the caller post-processes them.
    """
    n = rng.randint(min_metrics, max_metrics)
    metrics = []
    for i in range(n):
        rule = ApplicabilityRule.always()
        if not allow_no_gates and i > 0 and rng.random() < gate_probability:
            gate = metrics[rng.randrange(i)]
            rule = ApplicabilityRule.if_gate(gate.id, "yes")
        metrics.append(
            Metric(
                id=f"M{i}",
                element_id=f"e.{i // 3}",
                section=rng.choice(SECTION_ORDER),
                dimension=rng.choice(DIMENSION_ORDER),
                weight=Fraction(rng.randint(1, 8), rng.randint(1, 4)),
                prompt=f"Random check {i}.",
                optional_field=rng.random() < 0.1,
                applicability=rule,
            )
        )
    return Catalog(name="toy", version="r1", metrics=tuple(metrics))


def _resolve_applicable(catalog: Catalog, answers: dict[str, str]) -> dict[str, bool]:
    # Fixpoint resolution, independent of the package's recursive variant.
    gates = {
        m.id: (m.applicability.gate_metric_id, m.applicability.required_answer)
        for m in catalog.metrics
        if m.applicability.gate_metric_id is not None
    }
    applicable = {m.id: m.id not in gates for m in catalog.metrics}
    changed = True
    while changed:
        changed = False
        for mid, (gate_id, wanted) in gates.items():
            if not applicable[mid] and applicable.get(gate_id) and answers.get(gate_id) == wanted:
                applicable[mid] = True
                changed = True
    return applicable


def random_assessment(rng: random.Random, catalog: Catalog, yes_probability: float = 0.6) -> Assessment:
    """Valid assessment: every gate answered, every applicable metric scored.

    Inapplicable metrics are randomly omitted or recorded as explicit
    not-applicable, exercising both permitted conventions.
    """
    gate_ids = {m.applicability.gate_metric_id for m in catalog.metrics}
    # Drawn in catalog order, so the draws do not depend on PYTHONHASHSEED.
    answers = {m.id: ("yes" if rng.random() < yes_probability else "no") for m in catalog.metrics if m.id in gate_ids}
    applicable = _resolve_applicable(catalog, answers)

    verdicts: dict[str, Verdict] = {}
    for m in catalog.metrics:
        note = f"gate={answers[m.id]}" if m.id in answers else ""
        if applicable[m.id]:
            verdicts[m.id] = Verdict(rng.choice(SCOREABLE), note)
        elif m.id in answers or rng.random() < 0.5:
            # Answers for inapplicable gates are kept so gate flips stay resolvable.
            verdicts[m.id] = Verdict(VerdictValue.NOT_APPLICABLE, note)

    meta = SummaryMeta(
        provider="RandomCo",
        model=f"rand-{rng.randint(0, 99999)}",
        summary_title="randomized fixture",
        source_url="https://example.org/rand",
        published_form=PublishedForm.OTHER,
        assessed_version_date=date(2026, 1, 12),
    )
    return Assessment(meta=meta, catalog_ref=catalog.ref, verdicts=verdicts, evaluator="rng")
