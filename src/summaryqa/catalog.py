"""Metric catalog: domain types, the catalog file format, and its one check.

A catalog is an ordered collection of metrics, each tied to one section of
the disclosure template and one quality dimension.  Catalogs are immutable
after load and safe to share across concurrent scoring runs.

Catalog file format (UTF-8 text, one record per blank-line-separated block)::

    catalog: aia-training-disclosure
    version: 1.0.0

    id: F1.1.a.1
    element_id: 1.1.a
    section: GeneralInformation
    dimension: Completeness
    weight: 2
    prompt: The provider's legal name is stated.
    optional_field: false
    applicability: always

The first block is the header (``catalog`` + ``version``); every other block
is a metric with exactly the eight fields shown.  Metric ids are unique; a
repeated id is a ``duplicate-id`` finding of :func:`_compile`.  ``weight`` is a
positive rational written as an integer, a decimal or a ratio (``2``,
``0.5``, ``3/2``; no exponent); the weights' common denominator, and their
total in units of it, are at most 10**12.  ``applicability`` is either
``always`` or ``if <gate-metric-id> = yes|no``.  Lines starting with ``#``
are ignored on load.  Each block is read by ``base.read_fields``, the reader
the assessment header shares: only a line feed ends a line, so a prompt may
hold U+2028 or any other character ``str.splitlines`` breaks at.  A file
that does not parse is ``Malformed``, located by line and field.

A parsed catalog, or one built in code, is checked by one pass,
:func:`_compile`, whose findings :func:`validate_catalog` reports and whose
rows the applicability and scoring passes read (see :class:`CompiledCatalog`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .base import CELLS, SECTION_ORDER, Dimension, Section, check_keys, exact_number, read_fields, read_text
from .errors import Finding, Malformed

#: A cell's index in CELLS, the cell index of a compiled row.
_CELL_INDEX = {cell: i for i, cell in enumerate(CELLS)}


class ApplicabilityRule(NamedTuple):
    """Whether a metric counts toward scoring.

    A metric with no ``gate_metric_id`` always applies.  A gated metric
    applies only when the named gate metric is itself applicable and its
    recorded yes/no answer equals ``required_answer``.
    """

    gate_metric_id: str | None = None
    required_answer: str | None = None  # "yes" | "no"

    @classmethod
    def always(cls) -> "ApplicabilityRule":
        return cls()

    @classmethod
    def if_gate(cls, gate_metric_id: str, required_answer: str = "yes") -> "ApplicabilityRule":
        return cls(gate_metric_id, required_answer)

    @classmethod
    def parse(cls, text: str) -> "ApplicabilityRule":
        text = text.strip()
        if text == "always":
            return cls.always()
        if text.startswith("if "):
            body = text[3:]
            if "=" in body:
                gate, _, answer = body.partition("=")
                gate = gate.strip()
                answer = answer.strip()
                if gate and answer in ("yes", "no"):
                    return cls.if_gate(gate, answer)
        raise ValueError(f"unparsable applicability rule {text!r}")


class Metric(NamedTuple):
    """One independently assessable requirement about one template element."""

    id: str
    element_id: str
    section: Section
    dimension: Dimension
    weight: Fraction
    prompt: str
    optional_field: bool = False
    applicability: ApplicabilityRule = ApplicabilityRule()


class _Catalog(NamedTuple):
    name: str
    version: str
    metrics: tuple[Metric, ...]


class Catalog(_Catalog):
    """Named, versioned, ordered collection of metrics; a subclass of its
    fields' tuple, so that an instance has a ``__dict__`` to cache ``compiled`` in."""

    @property
    def ref(self) -> str:
        """Catalog reference string used in assessment and score card files."""
        return f"{self.name}/{self.version}"

    @cached_property
    def compiled(self) -> "CompiledCatalog":
        """The catalog as flat rows for applicability and scoring, built once."""
        return _compile(self)


class _CompiledCatalog(NamedTuple):
    order: tuple[Metric, ...]  # the metrics in row order
    findings: tuple[Finding, ...]
    broken: str | None


class CompiledCatalog(_CompiledCatalog):
    """A parsed catalog after the one pass that checks it and walks its gate graph.

    ``findings`` holds every violated catalog invariant, as ``validate``
    reports them: catalog-level findings first (``empty-catalog``,
    ``weight-scale``), then per-metric findings in catalog order
    (``duplicate-id``, ``nonpositive-weight``, ``unknown-gate``), then one
    ``applicability-cycle`` per gate cycle, in the order the walk meets them.

    ``rows`` holds one ``(metric id, gate row, required answer, cell index,
    weight units)`` tuple per metric.  The gate row indexes ``rows`` (-1 for
    ``always``) and always points backwards: rows are in DFS post-order of
    the gate graph, visiting metrics in catalog order, which is the order in
    which a recursive resolution finishes them.  Weight units are the weight
    times the LCM of every weight denominator, so sums of weights are exact
    integers.  A catalog with a repeated id, a gate cycle or a gate naming
    an unknown metric has no rows: reading ``rows`` then raises ValueError
    with ``broken``, the first such defect in ``findings``.  Rows are built
    only when first read, so ``validate`` never computes the unbounded LCM;
    like ``Catalog``, the class subclasses its fields' tuple to cache them.
    """

    @cached_property
    def rows(self) -> tuple[tuple[str, int, str | None, int, int], ...]:
        if self.broken is not None:
            raise ValueError(f"{self.broken}; validate the catalog first")
        scale = math.lcm(*(metric.weight.denominator for metric in self.order))
        row_of = {metric.id: i for i, metric in enumerate(self.order)}
        rows = []
        for metric in self.order:
            rule = metric.applicability
            gate_row = -1 if rule.gate_metric_id is None else row_of[rule.gate_metric_id]
            cell = _CELL_INDEX[(metric.section, metric.dimension)]
            rows.append((metric.id, gate_row, rule.required_answer, cell, (metric.weight * scale).numerator))
        return tuple(rows)


#: The bound on the weights' common denominator and on their total over it,
#: so that every exact score stays a ratio of small integers.
_WEIGHT_BOUND = 10**12


def _compile(catalog: Catalog) -> CompiledCatalog:
    """The one check of a parsed catalog, which also orders its rows."""
    metrics = catalog.metrics
    findings: list[Finding] = []
    if not metrics:
        findings.append(Finding("empty-catalog", catalog.ref, "catalog contains no metrics"))
    scale = 1  # the weights' common denominator, computed only up to the bound
    for metric in metrics:
        scale = math.lcm(scale, metric.weight.denominator)
        if scale > _WEIGHT_BOUND:
            findings.append(Finding("weight-scale", catalog.ref, "the weights' common denominator exceeds 10**12"))
            break
    else:
        if sum(abs(m.weight.numerator) * (scale // m.weight.denominator) for m in metrics) > _WEIGHT_BOUND:
            findings.append(Finding("weight-scale", catalog.ref, f"the weights total more than 10**12 units of 1/{scale}"))

    by_id = {metric.id: metric for metric in reversed(metrics)}  # a repeated id walks as its first occurrence
    seen: set[str] = set()
    broken: str | None = None
    for metric in metrics:
        if metric.id in seen:
            findings.append(Finding("duplicate-id", metric.id, "metric id occurs more than once"))
            broken = broken or f"metric id {metric.id!r} occurs more than once"
        seen.add(metric.id)
        if metric.weight <= 0:
            findings.append(Finding("nonpositive-weight", metric.id, f"weight must be positive, got {metric.weight}"))
        rule = metric.applicability
        if rule.gate_metric_id is not None and rule.gate_metric_id not in by_id:
            findings.append(Finding("unknown-gate", metric.id, f"gate metric {rule.gate_metric_id!r} does not exist"))
            broken = broken or f"metric {metric.id!r} gates on unknown metric {rule.gate_metric_id!r}"

    # The one walk of the gate graph: follow each gate chain up to a metric
    # already met, then place the chain from its far end back.
    order: list[Metric] = []
    met: set[str] = set()
    for metric in metrics:
        chain: dict[str, Metric] = {}
        node: Metric | None = by_id[metric.id]
        while node is not None and node.id not in met:
            if node.id in chain:
                ids = list(chain)
                cycle = " -> ".join([*ids[ids.index(node.id):], node.id])
                findings.append(Finding("applicability-cycle", node.id, f"gate chain forms a cycle: {cycle}"))
                broken = broken or f"applicability cycle through {node.id!r}"
                break
            chain[node.id] = node
            node = by_id.get(node.applicability.gate_metric_id)
        met.update(chain)
        order.extend(reversed(chain.values()))
    return CompiledCatalog(order=tuple(order), findings=tuple(findings), broken=broken)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _weight(text: str) -> Fraction:
    try:
        return exact_number(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"unparsable weight {text!r}") from None


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"optional_field must be 'true' or 'false', got {text!r}")
    return text == "true"


#: Each metric field in file order, with the reader of its value: a
#: ValueError from a reader is Malformed on that field's line.
_METRIC_READERS = {
    "id": str,
    "element_id": str,
    "section": Section.from_code,
    "dimension": Dimension.from_code,
    "weight": _weight,
    "prompt": str,
    "optional_field": _flag,
    "applicability": ApplicabilityRule.parse,
}
_METRIC_FIELDS = tuple(_METRIC_READERS)


def _records(text: str) -> list[dict[str, tuple[int, str]]]:
    """The blank-line-separated ``key: value`` blocks of ``text``, each as
    ``read_fields`` returns it; a block of comments alone is no record."""
    lines = text.split("\n")
    records = []
    index = 0
    while index < len(lines):
        if not lines[index].strip():
            index += 1
            continue
        fields, index = read_fields(lines, index)
        if fields:
            records.append(fields)
    return records


def parse_catalog(text: str) -> Catalog:
    """Parse catalog file text.  See the module docstring for the format."""
    records = _records(text)
    if not records:
        raise Malformed("empty catalog file")

    header = records[0]
    check_keys(header, "header", ("catalog", "version"))
    name = header["catalog"][1]
    version = header["version"][1]
    if not name or not version:
        raise Malformed("catalog name and version must be non-empty", line=header["catalog"][0])

    metrics: list[Metric] = []
    for fields in records[1:]:
        check_keys(fields, "metric", _METRIC_FIELDS)
        metric_id = fields["id"][1]
        if not metric_id:
            raise Malformed("metric id must be non-empty", line=fields["id"][0], field="id")

        values = {}
        for key, read in _METRIC_READERS.items():
            lineno, text = fields[key]
            try:
                values[key] = read(text)
            except ValueError as exc:
                raise Malformed(str(exc), line=lineno, field=key) from None
        metrics.append(Metric(**values))

    return Catalog(name=name, version=version, metrics=tuple(metrics))


def load_catalog(path: str | Path) -> Catalog:
    """Load the catalog file at ``path``."""
    return parse_catalog(read_text(path))


def validate_catalog(catalog: Catalog) -> list[Finding]:
    """Every violated catalog invariant, in the order of ``CompiledCatalog.findings``.
    Empty list means valid."""
    return list(catalog.compiled.findings)


def section_counts(catalog: Catalog) -> dict[Section, int]:
    """Number of metrics per section; includes zero entries for all sections."""
    counts = {section: 0 for section in SECTION_ORDER}
    for metric in catalog.metrics:
        counts[metric.section] += 1
    return counts

