"""The summary's identity (:class:`SummaryMeta` and its one codec), the
template's vocabulary (sections, dimensions, groups and their cells) and the
file helpers every layer shares: readers of bytes, text, JSON and
``key: value`` records (with their one key check), each raising ``Malformed``
and leaving the caller to name the file, and one atomic writer.  It imports
only ``errors`` and the standard library, so ``archive`` loads no catalog or
assessment code, and the score card side (``reporting``, ``compare``,
``site``) no catalog parser.
"""

from __future__ import annotations

import os
import re
import tempfile
import urllib.parse
from datetime import date
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

from .errors import Malformed, WriteFailed

if TYPE_CHECKING:
    from fractions import Fraction

_Member = TypeVar("_Member")
_Decoded = TypeVar("_Decoded")


def lookup(members: dict[str, _Member], token: str, what: str) -> _Member:
    """The member that ``token`` names; ValueError says ``unknown <what>``."""
    try:
        return members[token]
    except KeyError:
        raise ValueError(f"unknown {what} {token!r}") from None


_NUMBER = re.compile(r"[-+]?[0-9]+(?:[./][0-9]+)?")


def exact_number(text: str) -> Fraction:
    """``text`` as an exact number written like ``2``, ``-0.5`` or ``3/2``.  Exponents,
    ``_`` separators and the other forms ``Fraction`` reads are a ValueError, so
    a few bytes cannot make a huge number; a zero denominator is a ZeroDivisionError."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"{text!r} is not a number such as 2, 0.5 or 3/2")
    from fractions import Fraction  # on first use, so importing this module loads no fractions

    return Fraction(text)


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """``text`` as a ``YYYY-MM-DD`` date in ASCII digits, with ``date.fromisoformat``'s
    errors; on Python 3.11 that alone also reads ``20260115`` and ``2026-W02-1``."""
    if isinstance(text, str) and not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def read_bytes(path: str | Path) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be read, such as a
    directory, is Malformed, and the caller names the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise Malformed(f"cannot read: {exc.strerror or exc}") from exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, less one leading byte order mark, its line breaks read as
    in text mode; bytes that are not UTF-8, or a file that cannot be read, are Malformed."""
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Malformed(str(exc)) from exc
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_json(text: str | bytes, decode: Callable[[object], _Decoded]) -> _Decoded:
    """``decode`` of the JSON in ``text`` (or its UTF-8 bytes); input that is not UTF-8 or JSON, that spells
    a lone surrogate, or that ``decode`` refuses, is Malformed, naming a missing key as such."""
    import json  # on first use, so importing this module loads no json

    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text)
        if "\\u" in text:  # in UTF-8 input only an escape can spell a lone surrogate
            lone = re.search("[\ud800-\udfff]", json.dumps(data, ensure_ascii=False))
            if lone:
                raise ValueError(f"text holds the lone surrogate {lone.group()!r}, which has no UTF-8 form")
        return decode(data)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError, RecursionError) as exc:
        raise Malformed(f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)) from exc


def read_fields(lines: list[str], start: int = 0) -> tuple[dict[str, tuple[int, str]], int]:
    """The ``key: value`` lines of ``lines`` from index ``start`` up to the first blank line.

    Returns each key's line number (from 1) and value, and the index of the
    blank line, or ``len(lines)`` when none follows.  Keys and values are
    stripped, and lines starting with ``#`` are skipped.  A line with no
    colon, and a key met twice, are Malformed.  Callers split their text at
    line feeds only, so a value may hold any character ``str.splitlines``
    breaks at.
    """
    fields: dict[str, tuple[int, str]] = {}
    for index in range(start, len(lines)):
        line = lines[index].strip()
        if not line:
            return fields, index
        if line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise Malformed(f"expected 'key: value', got {lines[index]!r}", line=index + 1)
        key = key.strip()
        if key in fields:
            raise Malformed(f"duplicate field {key!r}", line=index + 1, field=key)
        fields[key] = (index + 1, value.strip())
    return fields, len(lines)


def check_keys(
    fields: dict[str, tuple[int, str]], record: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Raise Malformed, located by line and key, for the first ``required`` key that ``fields``
    (one ``record`` of :func:`read_fields`) lacks, or else for its first key, in sorted
    order, that is neither required nor ``optional``.  A missing key is at the record's first line."""
    for key in required:
        if key not in fields:
            line = next(iter(fields.values()))[0] if fields else 1
            raise Malformed(f"{record} missing field {key!r}", line=line, field=key)
    unknown = sorted(set(fields).difference(required, optional))
    if unknown:
        key = unknown[0]
        raise Malformed(f"unknown {record} field {key!r}", line=fields[key][0], field=key)


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename, so readers never see a partial file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".incoming-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise WriteFailed(f"cannot write {path}: {exc}") from exc


_SHA256 = re.compile(r"[0-9a-f]{64}")


def check_digest(digest: str, field: str) -> None:
    """Raise ValueError naming ``field`` unless ``digest`` is a sha256 digest: 64 lowercase hex digits."""
    if _SHA256.fullmatch(digest) is None:
        raise ValueError(f"{field} must be a sha256 digest of 64 lowercase hex digits, got {digest!r}")


def well_formed_url(url: str) -> bool:
    """Whether ``url`` is an http(s) URL with a host, or a file: URL: the only source
    URLs a registry entry, an assessment or a published page may hold."""
    try:
        parsed = urllib.parse.urlparse(url)
    except ValueError:  # such as an unclosed "[" in the host
        return False
    return parsed.scheme == "file" or (parsed.scheme in ("http", "https") and bool(parsed.netloc))


def require_strings(fields: dict[str, object]) -> None:
    """Raise ValueError naming the first field whose value is not a string."""
    for key, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")


class Section(Enum):
    """The eight assessment sections: file code and display label."""

    DOCUMENT = ("Document", "Document")
    GENERAL_INFORMATION = ("GeneralInformation", "General Information")
    PUBLIC_DATA_SOURCES = ("PublicDataSources", "Public Data Sources")
    PRIVATE_DATA_SOURCES = ("PrivateDataSources", "Private Data Sources")
    SCRAPED_CRAWLED_DATA = ("ScrapedCrawledData", "Scraped/Crawled Data")
    USER_DATA = ("UserData", "User Data")
    SYNTHETIC_OTHER_DATA = ("SyntheticOtherData", "Synthetic & Other Data")
    DATA_PROCESSING = ("DataProcessing", "Data Processing")

    def __init__(self, code: str, label: str):
        self.code = code
        self.label = label

    @classmethod
    def from_code(cls, code: str) -> "Section":
        return lookup(_SECTION_BY_CODE, code, "section code")


_SECTION_BY_CODE = {s.code: s for s in Section}


class Group(Enum):
    """Top-level quality indicator a dimension rolls up into."""

    TRANSPARENCY = "Transparency"
    USEFULNESS = "Usefulness"

    @property
    def label(self) -> str:
        return self.value


class Dimension(Enum):
    """The six quality dimensions; four feed Transparency, two Usefulness."""

    CLARITY = ("Clarity", Group.TRANSPARENCY)
    COMPLETENESS = ("Completeness", Group.TRANSPARENCY)
    CONSISTENCY = ("Consistency", Group.TRANSPARENCY)
    CORRECTNESS = ("Correctness", Group.TRANSPARENCY)
    ACCESSIBILITY = ("Accessibility", Group.USEFULNESS)
    COMPREHENSION = ("Comprehension", Group.USEFULNESS)

    def __init__(self, code: str, group: Group):
        self.code = code
        self.group = group

    @property
    def label(self) -> str:
        return self.code

    @classmethod
    def from_code(cls, code: str) -> "Dimension":
        return lookup(_DIMENSION_BY_CODE, code, "dimension code")


_DIMENSION_BY_CODE = {d.code: d for d in Dimension}

#: Sections and dimensions in canonical report order: the order of their definitions.
SECTION_ORDER = tuple(Section)
DIMENSION_ORDER = tuple(Dimension)

#: (section, dimension) cells in canonical report order; a metric's cell
#: index points into this tuple.
CELLS = tuple((section, dimension) for section in SECTION_ORDER for dimension in DIMENSION_ORDER)


class PublishedForm(Enum):
    WEB_PAGE = "WebPage"
    PDF = "PDF"
    MARKDOWN_FILE = "MarkdownFile"
    OTHER = "Other"

    @classmethod
    def from_token(cls, token: str) -> "PublishedForm":
        return lookup(_FORM_BY_TOKEN, token, "published form")


_FORM_BY_TOKEN = {f.value: f for f in PublishedForm}


class SummaryMeta(NamedTuple):
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
    """Inverse of :func:`meta_to_dict`; an empty or absent digest reads as absent, and any other
    must pass :func:`check_digest`.

    Raises KeyError for a missing field and ValueError for a bad value,
    including a field that is not a string.
    """
    published_form = PublishedForm.from_token(raw["published_form"])
    try:
        assessed = iso_date(raw["assessed_version_date"])
    except (TypeError, ValueError):
        raise ValueError(
            f"assessed_version_date must be YYYY-MM-DD, got {raw['assessed_version_date']!r}"
        ) from None
    text = {key: raw[key] for key in ("provider", "model", "summary_title", "source_url")}
    digest = raw.get("archived_copy_digest")
    require_strings({**text, "archived_copy_digest": "" if digest is None else digest})
    if digest:
        check_digest(digest, "archived_copy_digest")
    return SummaryMeta(
        **text,
        published_form=published_form,
        assessed_version_date=assessed,
        archived_copy_digest=digest or None,
    )
