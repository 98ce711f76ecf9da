"""Exception hierarchy and the shared Finding record.

Hard failures (malformed files, broken references) raise exceptions; soft
validation outcomes are returned as lists of :class:`Finding` so callers can
report every problem in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass


class SummaryQAError(Exception):
    """Base class for all errors raised by this package."""


class Refused(SummaryQAError):
    """An input that ``validate`` reports on, refused with those findings.

    The message names the count and the first finding, so ``score`` refuses
    a catalog and an assessment in the same words.
    """

    def __init__(self, kind: str, findings: list[Finding]):
        self.findings = findings
        first = findings[0]
        super().__init__(
            f"{kind} has {len(findings)} finding(s), first {first.code} at {first.locus}: {first.message}"
        )


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


# -- reporting --------------------------------------------------------------

class UnsupportedFormat(SummaryQAError):
    """Requested render format is not one of the supported formats."""


class CatalogVersionMismatch(SummaryQAError):
    """Comparison inputs reference different catalogs or were scored under different configurations."""


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


class PublishRefused(SummaryQAError):
    """The staged site was not published.

    A registry slug would leave its root, a stored archived object fails
    ``registry.read_archived``, or a link does not resolve (those are
    listed in ``findings``).
    """

    def __init__(self, message: str, findings: list[Finding] | None = None):
        self.findings = findings or []
        super().__init__(message)


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

