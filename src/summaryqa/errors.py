"""Exception types and the shared Finding record.

Errors are typed by what a caller does with them, not by which input failed:

* :class:`Malformed` -- a catalog, assessment, score card or registry that
  cannot be read or parsed; the caller names the file.
* :class:`Refused` -- input that parses but is not accepted, with the
  findings that refuse it when there are any.
* :class:`FetchFailed` and :class:`WriteFailed` -- the archive fetch or a
  write failed.

Soft validation outcomes are returned as lists of :class:`Finding` so callers
can report every problem in one pass, each printed as one :meth:`Finding.line`.
"""

from typing import NamedTuple, Sequence


class SummaryQAError(Exception):
    """Base class for all errors raised by this package."""


class Malformed(SummaryQAError):
    """A catalog, assessment, score card or registry that cannot be read or parsed.

    ``line`` and ``field`` locate the fault when the parser knows it; the
    message then starts ``line N, field 'f': ``.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        locus = ", ".join(p for p in (f"line {line}" if line else "", f"field '{field}'" if field else "") if p)
        super().__init__(f"{locus}: {message}" if locus else message)


class Refused(SummaryQAError):
    """Input that parses but is not accepted; ``findings`` lists why, when a check found them."""

    def __init__(self, message: str, findings: Sequence["Finding"] = ()):
        self.findings = list(findings)
        super().__init__(message)

    @classmethod
    def with_findings(cls, kind: str, findings: Sequence["Finding"]) -> "Refused":
        """A refusal of a ``kind`` input naming the count and the first finding, so
        ``score`` refuses a catalog and an assessment in the same words."""
        code, locus, message = (field.translate(_ESCAPES) for field in findings[0])
        return cls(f"{kind} has {len(findings)} finding(s), first {code} at {locus}: {message}", findings)


class FetchFailed(SummaryQAError):
    """Source bytes could not be retrieved."""


class WriteFailed(SummaryQAError):
    """An output file or stored object could not be written."""


class Finding(NamedTuple):
    """One validation/integrity finding.

    ``code`` is a stable machine-readable slug, ``locus`` names the offending
    object (metric id, slug, path, ...) and ``message`` is human-readable.
    """

    code: str
    locus: str
    message: str

    def line(self, source: str) -> str:
        """``source<TAB>locus<TAB>code<TAB>message``.  In each field a tab, and each character at which
        ``str.splitlines`` breaks, is its backslash escape (``\\t``, ``\\u2028``), so a finding is one line."""
        return "\t".join(field.translate(_ESCAPES) for field in (source, self.locus, self.code, self.message))


#: A tab, and each character at which ``str.splitlines`` breaks a line, to its backslash escape.
_ESCAPES = {ord(c): repr(c)[1:-1] for c in "\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"}
