"""One evaluator's verdicts for one public summary, plus applicability logic.

Assessment file format (UTF-8): a ``key: value`` metadata header block, one
blank line, then CSV rows with header ``metric_id,verdict,note``::

    provider: ExampleCo
    model: Example-7B
    summary_title: Example-7B training content disclosure
    source_url: https://example.org/summary
    published_form: PDF
    assessed_version_date: 2026-01-12
    archived_copy_digest: 9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08
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
from datetime import date
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .base import SummaryMeta, check_keys, lookup, meta_from_dict, read_fields, read_text, well_formed_url
from .errors import Finding, Malformed, Refused

if TYPE_CHECKING:
    from .catalog import Catalog


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
        return lookup(_VERDICT_BY_TOKEN, token, "verdict")


_VERDICT_BY_TOKEN = {v.token: v for v in VerdictValue}

_GATE_PREFIXES = {"gate=yes": "yes", "gate=no": "no"}


class Verdict(NamedTuple):
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


#: The one verdict of each token with an empty note.  Verdicts are immutable,
#: so every row without a note shares its token's instance.
_PLAIN_VERDICTS = {value.token: Verdict(value) for value in VerdictValue}


class Assessment(NamedTuple):
    """Verdicts for one summary against one catalog version."""

    meta: SummaryMeta
    catalog_ref: str
    verdicts: dict[str, Verdict]
    evaluator: str
    verifier: str | None = None


# ---------------------------------------------------------------------------
# Applicability
# ---------------------------------------------------------------------------


def _applicability(catalog: Catalog, assessment: Assessment, unanswered: list[str]) -> dict[str, bool]:
    """Resolve each metric's applicability under the recorded gate answers.

    One forward pass over the compiled catalog, whose rows place every gate
    before the metrics it switches.  An applicable gate without an answer is
    appended to ``unanswered`` and switches its dependents off.
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
                if answers[gate_row] is None:
                    unanswered.append(rows[gate_row][0])
            answer = answers[gate_row]
            applicable.append(answer is not None and answer == required_answer)
    return {row[0]: ok for row, ok in zip(rows, applicable)}


def applicability_map(catalog: Catalog, assessment: Assessment) -> dict[str, bool]:
    """Metric id -> applicable?  An unanswered gate switches its dependents off."""
    return _applicability(catalog, assessment, [])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def assessment_findings(catalog: Catalog, assessment: Assessment, today: date) -> list[Finding]:
    """Every violated assessment invariant as findings (empty = valid), dates checked against ``today``."""
    findings: list[Finding] = []
    meta = assessment.meta

    if not meta.provider:
        findings.append(Finding("empty-provider", "meta", "provider must be non-empty"))
    if not meta.model:
        findings.append(Finding("empty-model", "meta", "model must be non-empty"))
    if not well_formed_url(meta.source_url):
        findings.append(Finding("bad-source-url", "meta", f"source_url {meta.source_url!r} is not well-formed"))
    if meta.assessed_version_date > today:
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

    unanswered: list[str] = []
    amap = _applicability(catalog, assessment, unanswered)  # keyed by every metric id
    for metric_id in assessment.verdicts:
        if metric_id not in amap:
            findings.append(Finding("unknown-metric-id", metric_id, "metric does not exist in the catalog"))
    for gate_id in unanswered:
        findings.append(Finding("gate-unanswered", gate_id, "applicable gate metric has no recorded yes/no answer"))

    # Each field is read once per metric: a NamedTuple field read is a descriptor
    # call that the interpreter does not specialise, and this loop runs per file.
    verdicts = assessment.verdicts
    for m in catalog.metrics:
        metric_id = m.id
        verdict = verdicts.get(metric_id)
        scoreable = verdict is not None and verdict.value.is_scoreable
        applicable = amap[metric_id]
        if applicable and not scoreable:
            findings.append(Finding("missing-verdict", metric_id, "applicable metric has no scoreable verdict"))
        elif not applicable and scoreable:
            findings.append(
                Finding("verdict-on-inapplicable", metric_id, "inapplicable metric must be not-applicable or absent")
            )
    return findings


def check_assessment(catalog: Catalog, assessment: Assessment, today: date) -> None:
    """Raise :class:`Refused` with the findings of :func:`assessment_findings`, if any,
    so this check and ``validate`` can never disagree."""
    findings = assessment_findings(catalog, assessment, today)
    if findings:
        raise Refused.with_findings("assessment", findings)


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
    """Parse assessment file text without catalog cross-checks.  Only a line
    feed ends a line, so a note may hold any character ``str.splitlines`` breaks at."""
    lines = text.split("\n")
    header_lines = lines if lines[-1] else lines[:-1]  # the "" after a final "\n" is no line
    fields, blank = read_fields(header_lines)
    body_start = blank + 1
    check_keys(fields, "header", _HEADER_REQUIRED, _HEADER_OPTIONAL)
    header = {key: value for key, (_, value) in fields.items()}

    try:
        meta = meta_from_dict(header)
    except ValueError as exc:
        raise Malformed(str(exc)) from None

    body = "\n".join(lines[body_start:])
    reader = csv.reader(io.StringIO(body), strict=True)

    def line() -> int:
        """The file line the current row starts on: the reader has read up to
        its last line, and each line break in a quoted field is one line more."""
        return body_start + reader.line_num - sum(field.count("\n") for field in row)

    verdicts: dict[str, Verdict] = {}
    try:
        if next(filter(None, reader), None) != _CSV_HEADER:
            raise Malformed(f"verdict table must start with header {','.join(_CSV_HEADER)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise Malformed(f"expected 3 columns, got {len(row)}", line=line())
            metric_id, token, note = row
            if not metric_id:
                raise Malformed("empty metric_id", line=line())
            if metric_id in verdicts:
                raise Malformed(f"duplicate verdict for metric {metric_id!r}", line=line())
            verdict = None if note else _PLAIN_VERDICTS.get(token)
            if verdict is None:
                try:
                    verdict = Verdict(value=VerdictValue.from_token(token), note=note)
                except ValueError as exc:
                    raise Malformed(str(exc), line=line()) from None
            verdicts[metric_id] = verdict
    except csv.Error as exc:
        raise Malformed(str(exc), line=body_start + _refused_row(body)) from None

    return Assessment(
        meta=meta,
        catalog_ref=header["catalog_ref"],
        verdicts=verdicts,
        evaluator=header["evaluator"],
        verifier=header.get("verifier") or None,
    )


def _refused_row(body: str) -> int:
    """The body line the row a strict CSV reader refuses starts on, found by
    reading again only then, so the rows that parse keep no line count."""
    reader = csv.reader(io.StringIO(body), strict=True)
    start = 1
    try:
        for _ in reader:
            start = reader.line_num + 1
    except csv.Error:
        pass
    return start


def load_assessment(path: str | Path, catalog: Catalog, today: date) -> Assessment:
    """Load the assessment file at ``path`` and fully check it against the catalog."""
    assessment = parse_assessment(read_text(path))
    check_assessment(catalog, assessment, today)
    return assessment

