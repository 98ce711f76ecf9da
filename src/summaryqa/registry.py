"""Registry of discovered public summaries and the content-addressed archive.

The registry is one versionable JSON file (entries in add order, stable key
order, byte-identical re-serialization).  Archived copies live in an object
store laid out as ``objects/<first-2-hex>/<sha256-hex>``; objects are never
overwritten, so a digest recorded in an assessment pins the exact bytes that
were evaluated.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.parse
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .base import (
    SummaryMeta, check_digest, iso_date, lookup, meta_from_dict, meta_to_dict, read_bytes, read_json, require_strings,
    well_formed_url, write_atomic,
)
from .errors import FetchFailed, Finding, Refused, WriteFailed

_SLUG_RE = re.compile(r"[a-z0-9][a-z0-9-]*")


def valid_slug(slug: str) -> bool:
    """Whether ``slug`` is lowercase alphanumerics and hyphens, starting alphanumeric.

    A valid slug is one path segment, so a site route built from it stays
    under ``summaries/``.
    """
    return _SLUG_RE.fullmatch(slug) is not None

# Media type of a local file by its suffix.  A fixed table rather than
# ``mimetypes``, whose answers depend on the host's mime.types files.
MEDIA_TYPES = {
    ".html": "text/html",
    ".htm": "text/html",
    ".pdf": "application/pdf",
    ".md": "text/markdown",
    ".txt": "text/plain",
}


class DiscoveryChannel(Enum):
    SEARCH_ENGINE = "SearchEngine"
    MODEL_REPO_PAGE = "ModelRepoPage"
    LEGAL_COMPLIANCE_PAGE = "LegalCompliancePage"
    TECHNICAL_REPORT = "TechnicalReport"
    INDEX = "Index"
    REFERRAL = "Referral"

    @classmethod
    def from_token(cls, token: str) -> "DiscoveryChannel":
        return lookup(_CHANNEL_BY_TOKEN, token, "discovery channel")


_CHANNEL_BY_TOKEN = {c.value: c for c in DiscoveryChannel}


class DiscoveryProvenance(NamedTuple):
    """How and when the summary was found."""

    channel: DiscoveryChannel
    query_or_path: str
    discovered_on: date


class ArchivedCopy(NamedTuple):
    """A pinned copy of the summary bytes in the object store."""

    fetched_at: str  # ISO-8601 UTC timestamp
    content_digest: str  # sha256 hex
    media_type: str
    byte_length: int

    @property
    def storage_path(self) -> str:
        """The copy's path relative to the store root."""
        return _OBJECT.format(self.content_digest)


class RegistryEntry(NamedTuple):
    id: str  # stable slug
    meta: SummaryMeta
    discovery: DiscoveryProvenance
    archived: ArchivedCopy | None = None
    assessment_refs: tuple[str, ...] = ()


class Registry:
    """Ordered collection of entries; mutations are single-writer.  A plain class,
    not a tuple, as ``add_entry`` appends to each registry's own ``entries`` list."""

    def __init__(self, entries: list[RegistryEntry] | None = None):
        self.entries = [] if entries is None else entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Registry) and self.entries == other.entries

    def get(self, slug: str) -> RegistryEntry | None:
        for entry in self.entries:
            if entry.id == slug:
                return entry
        return None

    def by_summary(self) -> dict[tuple[str, str], list[RegistryEntry]]:
        """(provider, model) -> every entry of that summary, in registry order.

        A summary has one entry: ``add_entry`` admits no second one, ``validate``
        reports each further one in a file as ``duplicate-summary``, and
        ``site`` refuses a registry with any finding of ``validate_registry``.
        """
        index: dict[tuple[str, str], list[RegistryEntry]] = {}
        for entry in self.entries:
            index.setdefault((entry.meta.provider, entry.meta.model), []).append(entry)
        return index


def _registered_as(meta: SummaryMeta, first: RegistryEntry) -> str:
    """Why ``add_entry`` refuses, and ``validate`` reports, an entry of the summary ``first`` registers."""
    return f"provider {meta.provider!r} and model {meta.model!r} are already registered as {first.id!r}"


def add_entry(registry: Registry, entry: RegistryEntry) -> Registry:
    """Append an entry: the one admission rule.  A slug already in use, or a
    summary (provider, model) already registered, is Refused."""
    if registry.get(entry.id) is not None:
        raise Refused(f"registry already contains slug {entry.id!r}")
    same = registry.by_summary().get((entry.meta.provider, entry.meta.model))
    if same:
        raise Refused(_registered_as(entry.meta, same[0]))
    registry.entries.append(entry)
    return registry


def validate_registry(registry: Registry) -> list[Finding]:
    """Structural findings: duplicate or malformed slugs, malformed URLs, and
    then each entry after the first of one (provider, model) summary."""
    findings: list[Finding] = []
    seen: set[str] = set()
    for entry in registry.entries:
        if entry.id in seen:
            findings.append(Finding("duplicate-slug", entry.id, "slug occurs more than once"))
        seen.add(entry.id)
        if not valid_slug(entry.id):
            findings.append(Finding("bad-slug", entry.id, "slug must be lowercase alphanumeric/hyphen"))
        if not well_formed_url(entry.meta.source_url):
            findings.append(
                Finding("bad-source-url", entry.id, f"source_url {entry.meta.source_url!r} is not well-formed")
            )
    for entries in registry.by_summary().values():
        for entry in entries[1:]:
            findings.append(Finding("duplicate-summary", entry.id, _registered_as(entry.meta, entries[0])))
    return findings


# ---------------------------------------------------------------------------
# Registry file format
# ---------------------------------------------------------------------------


def registry_to_json(registry: Registry) -> str:
    entries = []
    for entry in registry.entries:
        copy = entry.archived
        entries.append(
            {
                "id": entry.id,
                "meta": meta_to_dict(entry.meta),
                "discovery": {
                    "channel": entry.discovery.channel.value,
                    "query_or_path": entry.discovery.query_or_path,
                    "discovered_on": entry.discovery.discovered_on.isoformat(),
                },
                "archived": None if copy is None else {**copy._asdict(), "storage_path": copy.storage_path},
                "assessment_refs": list(entry.assessment_refs),
            }
        )
    return json.dumps({"kind": "registry", "entries": entries}, indent=2, ensure_ascii=False) + "\n"


_ARCHIVED_TEXT = ("fetched_at", "content_digest", "media_type")


def registry_from_json(text: str | bytes) -> Registry:
    """Parse registry JSON (text, or UTF-8 bytes); any malformed input is Malformed."""
    return read_json(text, _registry_from_dict)


def _registry_from_dict(data: dict) -> Registry:
    entries = []
    for raw in data["entries"]:
        archived, a = None, raw.get("archived")  # only null or an absent key is no archived copy
        if a is not None:
            if not isinstance(a, dict):
                raise ValueError(f"archived must be an object or null, got {a!r}")
            require_strings({f"archived.{key}": a[key] for key in (*_ARCHIVED_TEXT, "storage_path")})
            check_digest(a["content_digest"], "archived.content_digest")
            if not isinstance(a["byte_length"], int) or isinstance(a["byte_length"], bool):
                raise ValueError(f"archived.byte_length must be an integer, got {a['byte_length']!r}")
            archived = ArchivedCopy(byte_length=a["byte_length"], **{key: a[key] for key in _ARCHIVED_TEXT})
        entry = RegistryEntry(
            id=raw["id"],
            meta=meta_from_dict(raw["meta"]),
            discovery=DiscoveryProvenance(
                channel=DiscoveryChannel.from_token(raw["discovery"]["channel"]),
                query_or_path=raw["discovery"]["query_or_path"],
                discovered_on=iso_date(raw["discovery"]["discovered_on"]),
            ),
            archived=archived,
            assessment_refs=_assessment_refs(raw.get("assessment_refs", [])),
        )
        require_strings({"id": entry.id, "discovery.query_or_path": entry.discovery.query_or_path})
        entries.append(entry)
    for raw, entry in zip(data["entries"], entries):  # the digest's copies, after every other check
        archived, digest = entry.archived, entry.meta.archived_copy_digest
        path = archived and raw["archived"]["storage_path"]
        if path != (archived and archived.storage_path):
            raise ValueError(f"archived.storage_path must be {archived.storage_path!r}, got {path!r}")
        if digest is not None and digest != (archived and archived.content_digest):
            raise ValueError(f"meta.archived_copy_digest must be archived.content_digest or absent, got {digest!r}")
    return Registry(entries=entries)


def _assessment_refs(refs) -> tuple[str, ...]:
    """An entry's ``assessment_refs``: a list of strings, never a string split into letters."""
    if not isinstance(refs, list):
        raise ValueError(f"assessment_refs must be a list of strings, got {refs!r}")
    require_strings({f"assessment_refs[{i}]": ref for i, ref in enumerate(refs)})
    return tuple(refs)


def load_registry(path: str | Path) -> Registry:
    return registry_from_json(read_bytes(path))


def save_registry(registry: Registry, path: str | Path) -> None:
    write_atomic(Path(path), registry_to_json(registry).encode("utf-8"))


# ---------------------------------------------------------------------------
# Content-addressed object store
# ---------------------------------------------------------------------------


def _parsed(url: str) -> urllib.parse.ParseResult:
    """``url`` split into its parts; one that does not split (an unclosed "[" in the host) cannot be fetched."""
    try:
        return urllib.parse.urlparse(url)
    except ValueError as exc:
        raise FetchFailed(f"{url!r}: {exc}") from exc


def recorded_url(url: str) -> str:
    """``url`` as a registry records it: a local path becomes its absolute ``file:`` URI."""
    return url if _parsed(url).scheme else Path(url).resolve().as_uri()


#: The store layout: the object of a digest is ``objects/<its first 2 hex digits>/<digest>`` under the store root.
_OBJECT = "objects/{0:.2}/{0}"


def object_path(store_root: str | Path, digest: str) -> Path:
    return Path(store_root, _OBJECT.format(digest))


def _fetch_bytes(url: str, timeout: float) -> tuple[bytes, str | None]:
    """Return (bytes, media type or None).  Accepts http(s), file URLs, paths."""
    # urllib.request pulls in http.client, email and ssl (about 30 ms), so
    # it is imported only by the branches that need it.
    parsed = _parsed(url)
    if parsed.scheme in ("http", "https"):
        from http.client import InvalidURL
        from urllib.error import URLError
        from urllib.request import Request, urlopen

        request = Request(url, headers={"User-Agent": "summaryqa-archiver"})
        try:
            # urlopen raises HTTPError, a URLError, for every reply that is not 2xx.
            with urlopen(request, timeout=timeout) as resp:
                return resp.read(), resp.headers.get_content_type()
        except URLError as exc:
            raise FetchFailed(f"{url}: {exc.reason}") from exc
        except (OSError, InvalidURL) as exc:
            raise FetchFailed(f"{url}: {exc}") from exc
        except UnicodeError as exc:  # a character outside ASCII in the request line or the host name
            raise FetchFailed(f"{url!r}: {exc}") from exc
    if parsed.scheme == "file":
        from urllib.request import url2pathname

        local = Path(url2pathname(parsed.path))
    elif parsed.scheme == "":
        local = Path(url)
    else:
        raise FetchFailed(f"unsupported scheme {parsed.scheme!r} in {url!r}")
    try:
        data = local.read_bytes()
    except OSError as exc:
        raise FetchFailed(f"{local}: {exc}") from exc
    return data, MEDIA_TYPES.get(local.suffix.lower())


def archive_fetch(url: str, store_root: str | Path, timeout: float = 30.0) -> ArchivedCopy:
    """Fetch bytes and store them immutably under their digest.

    Fetching the same bytes twice yields the same digest and leaves a single
    stored object; existing objects are never rewritten.  An existing object
    that is unreadable or hashes to another digest raises WriteFailed.  A
    ``timeout`` that is not above 0, or that a socket cannot hold (above
    ``threading.TIMEOUT_MAX`` seconds), is Refused before any source is read.
    """
    from threading import TIMEOUT_MAX

    if not 0 < timeout <= TIMEOUT_MAX:  # NaN too
        raise Refused(f"timeout must be above 0 and at most {TIMEOUT_MAX:.0f} seconds, got {timeout!r}")
    data, media_type = _fetch_bytes(url, timeout)
    digest = hashlib.sha256(data).hexdigest()
    target = object_path(store_root, digest)
    try:
        stored = hashlib.sha256(target.read_bytes()).hexdigest() if target.exists() else None
    except OSError as exc:
        raise WriteFailed(f"cannot read stored object {target}: {exc}") from exc
    if stored is None:
        write_atomic(target, data)
    elif stored != digest:
        raise WriteFailed(f"stored object {target} hashes to {stored[:12]}...; it is never overwritten")
    return ArchivedCopy(
        fetched_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        content_digest=digest,
        media_type=media_type or "application/octet-stream",
        byte_length=len(data),
    )


def read_archived(entry: RegistryEntry, store: str | Path) -> bytes | Finding:
    """The entry's archived bytes from the store, or the Finding that stops them.

    The object is read at ``object_path`` of the pinned digest, so it lies
    under the store root; it must exist and be readable, and its bytes must
    hash to the pinned digest and have the pinned length.  This is the only
    check of stored bytes: ``validate`` reports its findings and ``site``
    publishes only what it returns as bytes.
    """
    archived = entry.archived
    stored = object_path(store, archived.content_digest)
    if not stored.is_file():
        return Finding("missing-object", entry.id, f"archived object {archived.storage_path} is missing")
    try:
        data = stored.read_bytes()
    except OSError as exc:
        return Finding("unreadable-object", entry.id, f"archived object {archived.storage_path} cannot be read: {exc}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != archived.content_digest:
        return Finding(
            "digest-mismatch",
            entry.id,
            f"stored bytes hash to {digest[:12]}..., recorded {archived.content_digest[:12]}...",
        )
    if len(data) != archived.byte_length:
        return Finding("length-mismatch", entry.id, f"stored {len(data)} bytes, recorded {archived.byte_length}")
    return data


def verify_archive(registry: Registry, store_root: str | Path) -> list[Finding]:
    """Integrity findings for every archived entry: missing or altered bytes."""
    checked = (read_archived(entry, store_root) for entry in registry.entries if entry.archived is not None)
    return [result for result in checked if isinstance(result, Finding)]


def attach_archive(entry: RegistryEntry, archived: ArchivedCopy) -> RegistryEntry:
    """Entry with the archived copy recorded, digest mirrored into the meta."""
    meta = entry.meta._replace(archived_copy_digest=archived.content_digest)
    return entry._replace(meta=meta, archived=archived)
