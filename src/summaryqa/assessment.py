"""One evaluator's verdicts for one public summary, plus applicability logic.

Assessment file format (UTF-8): a ``key: value`` metadata header block, one
blank line, then CSV rows with header ``metric_id,verdict,note``::

    provider: ExampleCo
    model: Example-7B
    summary_title: Example-7B training content disclosure
    source_url: https://example.org/summary
    published_form: PDF
    assessed_version_date: 2026-01-12
    archived_copy_digest: 9f86d081884c7d65...
    catalog_ref: aia-training-disclosure/1.0.0
    evaluator: A. Assessor
    verifier: B. Checker

    metric_id,verdict,note
    F1.1.a.1,sufficient,
    F2.5.a.1,sufficient,gate=yes; generation described in detail
    F2.6.a.1,insufficient,gate=no

Verdict tokens are ``sufficient`` (1), ``partially-sufficient`` (0.5),
``insufficient`` (0) and ``not-applicable`` (no numeric value).  Gate metrics
carry their yes/no answer as a structured note prefix ``gate=yes`` or
``gate=no``, optionally followed by ``; free text``.  The answer is routing
information and is independent of the verdict value: a summary can state
"no synthetic data used" insufficiently (verdict) while the answer itself
(``gate=no``) still switches the dependent metrics off.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from fractions import Fraction

from .catalog import Catalog, Source, _header_value, _lookup, _read_text
from .errors import (
    CatalogMismatch,
    Finding,
    GateUnanswered,
    MalformedAssessment,
    MissingVerdict,
    UnknownMetricId,
)


class VerdictValue(Enum):
    """Evaluator judgment for one metric, with its fixed numeric value."""

    SUFFICIENT = ("sufficient", Fraction(1))
    PARTIALLY_SUFFICIENT = ("partially-sufficient", Fraction(1, 2))
    INSUFFICIENT = ("insufficient", Fraction(0))
    NOT_APPLICABLE = ("not-applicable", None)

    def __init__(self, token: str, numeric: Fraction | None):
        self.token = token
        self.numeric = numeric

    @property
    def is_scoreable(self) -> bool:
        return self.numeric is not None

    @classmethod
    def from_token(cls, token: str) -> "VerdictValue":
        return _lookup(_VERDICT_BY_TOKEN, token, "verdict")


_VERDICT_BY_TOKEN = {v.token: v for v in VerdictValue}

_GATE_PREFIXES = {"gate=yes": "yes", "gate=no": "no"}


@dataclass(frozen=True)
class Verdict:
    """A verdict value plus the evaluator's note.

    The note may start with the structured gate-answer prefix (see module
    docstring); the remainder is free rationale text.
    """

    value: VerdictValue
    note: str = ""

    @property
    def gate_answer(self) -> str | None:
        """The yes/no routing answer, if the note records one."""
        head, sep, _ = self.note.partition(";")
        head = head.strip()
        return _GATE_PREFIXES.get(head)

    @property
    def free_note(self) -> str:
        """Note text with any gate-answer prefix stripped."""
        head, sep, rest = self.note.partition(";")
        if head.strip() in _GATE_PREFIXES:
            return rest.strip()
        return self.note


class PublishedForm(Enum):
    WEB_PAGE = "WebPage"
    PDF = "PDF"
    MARKDOWN_FILE = "MarkdownFile"
    OTHER = "Other"

    @classmethod
    def from_token(cls, token: str) -> "PublishedForm":
        return _lookup(_FORM_BY_TOKEN, token, "published form")


_FORM_BY_TOKEN = {f.value: f for f in PublishedForm}


@dataclass(frozen=True)
class SummaryMeta:
    """Identity of the assessed public summary and its archived version."""

    provider: str
    model: str
    summary_title: str
    source_url: str
    published_form: PublishedForm
    assessed_version_date: date
    archived_copy_digest: str | None = None


def meta_to_dict(meta: SummaryMeta) -> dict[str, str | None]:
    """The meta fields in file order: the registry and score card ``meta``
    block, and the first lines of the assessment header."""
    return {
        "provider": meta.provider,
        "model": meta.model,
        "summary_title": meta.summary_title,
        "source_url": meta.source_url,
        "published_form": meta.published_form.value,
        "assessed_version_date": meta.assessed_version_date.isoformat(),
        "archived_copy_digest": meta.archived_copy_digest,
    }


def meta_from_dict(raw: dict) -> SummaryMeta:
    """Inverse of :func:`meta_to_dict`; an empty digest reads as absent.

    Raises KeyError for a missing field and ValueError for a bad value.
    """
    published_form = PublishedForm.from_token(raw["published_form"])
    try:
        assessed = date.fromisoformat(raw["assessed_version_date"])
    except (TypeError, ValueError):
        raise ValueError(
            f"assessed_version_date must be YYYY-MM-DD, got {raw['assessed_version_date']!r}"
        ) from None
    return SummaryMeta(
        provider=raw["provider"],
        model=raw["model"],
        summary_title=raw["summary_title"],
        source_url=raw["source_url"],
        published_form=published_form,
        assessed_version_date=assessed,
        archived_copy_digest=raw.get("archived_copy_digest") or None,
    )


@dataclass(frozen=True)
class Assessment:
    """Verdicts for one summary against one catalog version."""

    meta: SummaryMeta
    catalog_ref: str
    verdicts: dict[str, Verdict]
    evaluator: str
    verifier: str | None = None

    def with_verdict(self, metric_id: str, verdict: Verdict) -> "Assessment":
        updated = dict(self.verdicts)
        updated[metric_id] = verdict
        return replace(self, verdicts=updated)


# ---------------------------------------------------------------------------
# Applicability
# ---------------------------------------------------------------------------


def _applicability(
    catalog: Catalog,
    assessment: Assessment,
    unanswered: list[str] | None,
) -> dict[str, bool]:
    """Resolve each metric's applicability under the recorded gate answers.

    One forward pass over the compiled catalog, whose rows place every gate
    before the metrics it switches.  When ``unanswered`` is None, an
    applicable gate without an answer raises :class:`GateUnanswered`;
    otherwise the gate id is appended there and its dependents are treated
    as inapplicable so resolution can continue.
    """
    rows = catalog.compiled.rows
    verdicts = assessment.verdicts
    applicable: list[bool] = []
    answers: dict[int, str | None] = {}
    for _, gate_row, required_answer, _, _ in rows:
        if gate_row < 0:
            applicable.append(True)
        elif not applicable[gate_row]:
            applicable.append(False)
        else:
            if gate_row not in answers:
                verdict = verdicts.get(rows[gate_row][0])
                answers[gate_row] = None if verdict is None else verdict.gate_answer
            answer = answers[gate_row]
            if answer is None:
                gate_id = rows[gate_row][0]
                if unanswered is None:
                    raise GateUnanswered(gate_id)
                if gate_id not in unanswered:
                    unanswered.append(gate_id)
                applicable.append(False)
            else:
                applicable.append(answer == required_answer)
    return {row[0]: ok for row, ok in zip(rows, applicable)}


def applicability_map(catalog: Catalog, assessment: Assessment) -> dict[str, bool]:
    """Metric id -> applicable?  Raises GateUnanswered for unanswerable gates."""
    return _applicability(catalog, assessment, None)


def applicable_metrics(catalog: Catalog, assessment: Assessment) -> list[str]:
    """Ids of metrics that count toward scoring, in catalog order."""
    amap = applicability_map(catalog, assessment)
    return [m.id for m in catalog.metrics if amap[m.id]]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def assessment_findings(catalog: Catalog, assessment: Assessment, today: date | None = None) -> list[Finding]:
    """Every violated assessment invariant as findings (empty = valid)."""
    findings: list[Finding] = []
    meta = assessment.meta

    if not meta.provider:
        findings.append(Finding("empty-provider", "meta", "provider must be non-empty"))
    if not meta.model:
        findings.append(Finding("empty-model", "meta", "model must be non-empty"))
    if meta.assessed_version_date > (today or date.today()):
        findings.append(
            Finding("future-date", "meta", f"assessed_version_date {meta.assessed_version_date} is in the future")
        )

    if assessment.catalog_ref != catalog.ref:
        findings.append(
            Finding(
                "catalog-mismatch",
                "meta",
                f"assessment references catalog {assessment.catalog_ref!r}, expected {catalog.ref!r}",
            )
        )
        return findings

    index = catalog.metric_index()
    for metric_id in assessment.verdicts:
        if metric_id not in index:
            findings.append(Finding("unknown-metric-id", metric_id, "metric does not exist in the catalog"))

    unanswered: list[str] = []
    amap = _applicability(catalog, assessment, unanswered)
    for gate_id in unanswered:
        findings.append(Finding("gate-unanswered", gate_id, "applicable gate metric has no recorded yes/no answer"))

    for m in catalog.metrics:
        verdict = assessment.verdicts.get(m.id)
        scoreable = verdict is not None and verdict.value.is_scoreable
        if amap[m.id] and not scoreable:
            findings.append(Finding("missing-verdict", m.id, "applicable metric has no scoreable verdict"))
        elif not amap[m.id] and scoreable:
            findings.append(
                Finding("verdict-on-inapplicable", m.id, "inapplicable metric must be not-applicable or absent")
            )
    return findings


#: Finding code -> the typed error :func:`check_assessment` raises for the
#: findings with that code, in precedence order.
_ERROR_FOR_CODE = (
    ("empty-provider", lambda found: MalformedAssessment("provider and model must be non-empty")),
    ("empty-model", lambda found: MalformedAssessment("provider and model must be non-empty")),
    ("future-date", lambda found: MalformedAssessment(found[0].message)),
    ("catalog-mismatch", lambda found: CatalogMismatch(found[0].message)),
    ("unknown-metric-id", lambda found: UnknownMetricId(found[0].locus)),
    ("gate-unanswered", lambda found: GateUnanswered(found[0].locus)),
    (
        "verdict-on-inapplicable",
        lambda found: MalformedAssessment(
            f"metric {found[0].locus}: scoreable verdict recorded for an inapplicable metric"
        ),
    ),
    ("missing-verdict", lambda found: MissingVerdict([f.locus for f in found])),
)


def check_assessment(catalog: Catalog, assessment: Assessment, today: date | None = None) -> None:
    """Raise a typed error if :func:`assessment_findings` reports anything.

    The error is chosen by the first code in ``_ERROR_FOR_CODE`` that has a
    finding, so this check and ``validate`` can never disagree.
    """
    findings = assessment_findings(catalog, assessment, today)
    for code, error in _ERROR_FOR_CODE:
        found = [f for f in findings if f.code == code]
        if found:
            raise error(found)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_HEADER_REQUIRED = (
    "provider",
    "model",
    "summary_title",
    "source_url",
    "published_form",
    "assessed_version_date",
    "catalog_ref",
    "evaluator",
)
_HEADER_OPTIONAL = ("archived_copy_digest", "verifier")
_CSV_HEADER = ["metric_id", "verdict", "note"]


def parse_assessment(text: str) -> Assessment:
    """Parse assessment file text without catalog cross-checks."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    body_start = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            body_start = i + 1
            break
        if line.startswith("#"):
            continue
        key, sep, value = raw.partition(":")
        if not sep:
            raise MalformedAssessment(f"expected 'key: value' in header, got {raw!r}", line=i + 1)
        key = key.strip()
        if key in header:
            raise MalformedAssessment(f"duplicate header field {key!r}", line=i + 1)
        header[key] = value.strip()
    if body_start is None:
        raise MalformedAssessment("missing blank line between header and verdict rows")

    for key in _HEADER_REQUIRED:
        if key not in header:
            raise MalformedAssessment(f"header missing field {key!r}")
    unknown = set(header) - set(_HEADER_REQUIRED) - set(_HEADER_OPTIONAL)
    if unknown:
        raise MalformedAssessment(f"unknown header field {sorted(unknown)[0]!r}")

    try:
        meta = meta_from_dict(header)
    except ValueError as exc:
        raise MalformedAssessment(str(exc)) from None

    body = "\n".join(lines[body_start:])
    reader = csv.reader(io.StringIO(body))
    rows = [row for row in reader if row]
    if not rows or rows[0] != _CSV_HEADER:
        raise MalformedAssessment(f"verdict table must start with header {','.join(_CSV_HEADER)!r}")

    verdicts: dict[str, Verdict] = {}
    for offset, row in enumerate(rows[1:], start=2):
        lineno = body_start + offset
        if len(row) != 3:
            raise MalformedAssessment(f"expected 3 columns, got {len(row)}", line=lineno)
        metric_id, token, note = row
        if not metric_id:
            raise MalformedAssessment("empty metric_id", line=lineno)
        if metric_id in verdicts:
            raise MalformedAssessment(f"duplicate verdict for metric {metric_id!r}", line=lineno)
        try:
            value = VerdictValue.from_token(token)
        except ValueError as exc:
            raise MalformedAssessment(str(exc), line=lineno) from None
        verdicts[metric_id] = Verdict(value=value, note=note)

    return Assessment(
        meta=meta,
        catalog_ref=header["catalog_ref"],
        verdicts=verdicts,
        evaluator=header["evaluator"],
        verifier=header.get("verifier") or None,
    )


def load_assessment(source: Source, catalog: Catalog, today: date | None = None) -> Assessment:
    """Load and fully check an assessment against the catalog."""
    assessment = parse_assessment(_read_text(source))
    check_assessment(catalog, assessment, today)
    return assessment


def dumps_assessment(assessment: Assessment) -> str:
    """Serialize to the canonical assessment file format.

    Header fields are single-line; verdict notes may contain anything CSV
    can quote (commas, quotes, even line breaks).
    """
    header = {
        **meta_to_dict(assessment.meta),
        "catalog_ref": assessment.catalog_ref,
        "evaluator": assessment.evaluator,
        "verifier": assessment.verifier,
    }
    out = io.StringIO()
    for key, value in header.items():
        if value or key in _HEADER_REQUIRED:
            out.write(f"{key}: {_header_value(value, key)}\n")
    out.write("\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for metric_id, verdict in assessment.verdicts.items():
        writer.writerow([metric_id, verdict.value.token, verdict.note])
    return out.getvalue()
