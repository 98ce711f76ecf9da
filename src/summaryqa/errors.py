"""Exception hierarchy and the shared Finding record.

Hard failures (malformed files, broken references) raise exceptions; soft
validation outcomes are returned as lists of :class:`Finding` so callers can
report every problem in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass


class SummaryQAError(Exception):
    """Base class for all errors raised by this package."""


# -- catalog ----------------------------------------------------------------

class MalformedCatalog(SummaryQAError):
    """Catalog file cannot be parsed (syntax level)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class SchemaViolation(SummaryQAError):
    """Catalog record is missing fields, has unknown fields, or bad values."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        locus = ", ".join(p for p in (f"line {line}" if line else "", f"field '{field}'" if field else "") if p)
        super().__init__(f"{locus}: {message}" if locus else message)


# -- assessment -------------------------------------------------------------

class MalformedAssessment(SummaryQAError):
    """Assessment file cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnknownMetricId(SummaryQAError):
    """Assessment references a metric id not present in the catalog."""

    def __init__(self, metric_id: str):
        self.metric_id = metric_id
        super().__init__(f"unknown metric id {metric_id!r}")


class CatalogMismatch(SummaryQAError):
    """Assessment's catalog reference does not match the supplied catalog."""


class MissingVerdict(SummaryQAError):
    """Applicable metrics without a scoreable verdict."""

    def __init__(self, metric_ids: list[str]):
        self.metric_ids = list(metric_ids)
        shown = ", ".join(self.metric_ids[:5])
        more = f" (+{len(self.metric_ids) - 5} more)" if len(self.metric_ids) > 5 else ""
        super().__init__(f"applicable metrics without verdict: {shown}{more}")


class GateUnanswered(SummaryQAError):
    """A gate metric is applicable but carries no yes/no answer."""

    def __init__(self, gate_id: str):
        self.gate_id = gate_id
        super().__init__(f"gate metric {gate_id!r} has no recorded yes/no answer")


# -- scoring ----------------------------------------------------------------

class InapplicableVerdict(SummaryQAError):
    """metric_score was asked to score a not-applicable verdict."""


# -- reporting --------------------------------------------------------------

class UnsupportedFormat(SummaryQAError):
    """Requested render format is not one of the supported formats."""


class CatalogVersionMismatch(SummaryQAError):
    """Comparison inputs reference different catalog name/version pairs."""


class MalformedScoreCard(SummaryQAError):
    """Score card file cannot be parsed."""


# -- registry / archive -----------------------------------------------------

class DuplicateSlug(SummaryQAError):
    """Registry already contains an entry with this slug."""


class MalformedRegistry(SummaryQAError):
    """Registry file cannot be parsed."""


class FetchFailed(SummaryQAError):
    """Source bytes could not be retrieved."""


# -- site -------------------------------------------------------------------

class UnmatchedScoreCard(SummaryQAError):
    """A score card has no matching registry entry."""


class WriteFailed(SummaryQAError):
    """An output file or stored object could not be written."""


# -- cli --------------------------------------------------------------------

class NoScoreCards(SummaryQAError):
    """Comparison requested but no score cards were found."""


@dataclass(frozen=True)
class Finding:
    """One validation/integrity finding.

    ``code`` is a stable machine-readable slug, ``locus`` names the offending
    object (metric id, slug, path, ...) and ``message`` is human-readable.
    """

    code: str
    locus: str
    message: str


def malformed_message(exc: Exception) -> str:
    """The reason a JSON decoder gives when it meets input of the wrong shape."""
    if isinstance(exc, KeyError):
        return f"missing field {exc.args[0]!r}"
    return str(exc)
