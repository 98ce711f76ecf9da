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
import mimetypes
import re
import urllib.parse
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path

from .assessment import SummaryMeta, meta_from_dict, meta_to_dict
from .catalog import _lookup, _write_atomic
from .errors import DuplicateSlug, FetchFailed, Finding, MalformedRegistry, malformed_message

_SLUG_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")


class DiscoveryChannel(Enum):
    SEARCH_ENGINE = "SearchEngine"
    MODEL_REPO_PAGE = "ModelRepoPage"
    LEGAL_COMPLIANCE_PAGE = "LegalCompliancePage"
    TECHNICAL_REPORT = "TechnicalReport"
    INDEX = "Index"
    REFERRAL = "Referral"

    @classmethod
    def from_token(cls, token: str) -> "DiscoveryChannel":
        return _lookup(_CHANNEL_BY_TOKEN, token, "discovery channel")


_CHANNEL_BY_TOKEN = {c.value: c for c in DiscoveryChannel}


@dataclass(frozen=True)
class DiscoveryProvenance:
    """How and when the summary was found."""

    channel: DiscoveryChannel
    query_or_path: str
    discovered_on: date


@dataclass(frozen=True)
class ArchivedCopy:
    """A pinned copy of the summary bytes in the object store."""

    fetched_at: str  # ISO-8601 UTC timestamp
    content_digest: str  # sha256 hex
    media_type: str
    byte_length: int
    storage_path: str  # relative to the store root


@dataclass(frozen=True)
class RegistryEntry:
    id: str  # stable slug
    meta: SummaryMeta
    discovery: DiscoveryProvenance
    archived: ArchivedCopy | None = None
    assessment_refs: tuple[str, ...] = ()


@dataclass
class Registry:
    """Ordered collection of entries; mutations are single-writer."""

    entries: list[RegistryEntry] = field(default_factory=list)

    def slugs(self) -> list[str]:
        return [e.id for e in self.entries]

    def get(self, slug: str) -> RegistryEntry | None:
        for entry in self.entries:
            if entry.id == slug:
                return entry
        return None

    def by_summary(self) -> dict[tuple[str, str], RegistryEntry]:
        """(provider, model) -> entry; first entry wins on duplicates."""
        index: dict[tuple[str, str], RegistryEntry] = {}
        for entry in self.entries:
            index.setdefault((entry.meta.provider, entry.meta.model), entry)
        return index


def add_entry(registry: Registry, entry: RegistryEntry) -> Registry:
    """Append an entry; slugs must be unique."""
    if registry.get(entry.id) is not None:
        raise DuplicateSlug(f"registry already contains slug {entry.id!r}")
    registry.entries.append(entry)
    return registry


def validate_registry(registry: Registry) -> list[Finding]:
    """Structural findings: duplicate or malformed slugs, malformed URLs."""
    findings: list[Finding] = []
    seen: set[str] = set()
    for entry in registry.entries:
        if entry.id in seen:
            findings.append(Finding("duplicate-slug", entry.id, "slug occurs more than once"))
        seen.add(entry.id)
        if not _SLUG_RE.match(entry.id):
            findings.append(Finding("bad-slug", entry.id, "slug must be lowercase alphanumeric/hyphen"))
        parsed = urllib.parse.urlparse(entry.meta.source_url)
        if parsed.scheme not in ("http", "https", "file") or (
            parsed.scheme in ("http", "https") and not parsed.netloc
        ):
            findings.append(
                Finding("bad-source-url", entry.id, f"source_url {entry.meta.source_url!r} is not well-formed")
            )
    return findings


# ---------------------------------------------------------------------------
# Registry file format
# ---------------------------------------------------------------------------


def registry_to_json(registry: Registry) -> str:
    entries = []
    for entry in registry.entries:
        archived = None
        if entry.archived is not None:
            archived = {
                "fetched_at": entry.archived.fetched_at,
                "content_digest": entry.archived.content_digest,
                "media_type": entry.archived.media_type,
                "byte_length": entry.archived.byte_length,
                "storage_path": entry.archived.storage_path,
            }
        entries.append(
            {
                "id": entry.id,
                "meta": meta_to_dict(entry.meta),
                "discovery": {
                    "channel": entry.discovery.channel.value,
                    "query_or_path": entry.discovery.query_or_path,
                    "discovered_on": entry.discovery.discovered_on.isoformat(),
                },
                "archived": archived,
                "assessment_refs": list(entry.assessment_refs),
            }
        )
    return json.dumps({"kind": "registry", "entries": entries}, indent=2, ensure_ascii=False) + "\n"


def registry_from_json(text: str) -> Registry:
    """Parse registry JSON; any malformed input raises MalformedRegistry."""
    try:
        return _registry_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedRegistry(malformed_message(exc)) from exc


def _registry_from_dict(data: dict) -> Registry:
    entries = []
    for raw in data["entries"]:
        archived = None
        if raw.get("archived"):
            a = raw["archived"]
            archived = ArchivedCopy(
                fetched_at=a["fetched_at"],
                content_digest=a["content_digest"],
                media_type=a["media_type"],
                byte_length=a["byte_length"],
                storage_path=a["storage_path"],
            )
        entries.append(
            RegistryEntry(
                id=raw["id"],
                meta=meta_from_dict(raw["meta"]),
                discovery=DiscoveryProvenance(
                    channel=DiscoveryChannel.from_token(raw["discovery"]["channel"]),
                    query_or_path=raw["discovery"]["query_or_path"],
                    discovered_on=date.fromisoformat(raw["discovery"]["discovered_on"]),
                ),
                archived=archived,
                assessment_refs=tuple(raw.get("assessment_refs", ())),
            )
        )
    return Registry(entries=entries)


def load_registry(path: str | Path) -> Registry:
    return registry_from_json(Path(path).read_text(encoding="utf-8"))


def save_registry(registry: Registry, path: str | Path) -> None:
    _write_atomic(Path(path), registry_to_json(registry).encode("utf-8"))


# ---------------------------------------------------------------------------
# Content-addressed object store
# ---------------------------------------------------------------------------


def object_path(store_root: str | Path, digest: str) -> Path:
    return Path(store_root) / "objects" / digest[:2] / digest


def _fetch_bytes(url: str, timeout: float) -> tuple[bytes, str | None]:
    """Return (bytes, media type or None).  Accepts http(s), file URLs, paths."""
    # urllib.request pulls in http.client, email and ssl (about 30 ms), so
    # it is imported only by the branches that need it.
    parsed = urllib.parse.urlparse(url)
    if parsed.scheme in ("http", "https"):
        from urllib.error import URLError
        from urllib.request import Request, urlopen

        request = Request(url, headers={"User-Agent": "summaryqa-archiver"})
        try:
            with urlopen(request, timeout=timeout) as resp:
                if getattr(resp, "status", 200) >= 400:
                    raise FetchFailed(f"{url}: HTTP status {resp.status}")
                return resp.read(), resp.headers.get_content_type()
        except URLError as exc:
            raise FetchFailed(f"{url}: {exc.reason if hasattr(exc, 'reason') else exc}") from exc
        except OSError as exc:
            raise FetchFailed(f"{url}: {exc}") from exc
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
    return data, mimetypes.guess_type(local.name)[0]


def archive_fetch(url: str, store_root: str | Path, timeout: float = 30.0) -> ArchivedCopy:
    """Fetch bytes and store them immutably under their digest.

    Fetching the same bytes twice yields the same digest and leaves a single
    stored object; existing objects are never rewritten.
    """
    data, media_type = _fetch_bytes(url, timeout)
    digest = hashlib.sha256(data).hexdigest()
    target = object_path(store_root, digest)
    if not target.exists():
        _write_atomic(target, data)
    return ArchivedCopy(
        fetched_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        content_digest=digest,
        media_type=media_type or "application/octet-stream",
        byte_length=len(data),
        storage_path=str(Path("objects") / digest[:2] / digest),
    )


def verify_archive(registry: Registry, store_root: str | Path) -> list[Finding]:
    """Integrity findings for every archived entry: missing or altered bytes."""
    findings: list[Finding] = []
    for entry in registry.entries:
        if entry.archived is None:
            continue
        stored = Path(store_root) / entry.archived.storage_path
        if not stored.is_file():
            findings.append(Finding("missing-object", entry.id, f"archived object {entry.archived.storage_path} is missing"))
            continue
        data = stored.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry.archived.content_digest:
            findings.append(
                Finding(
                    "digest-mismatch",
                    entry.id,
                    f"stored bytes hash to {digest[:12]}..., recorded {entry.archived.content_digest[:12]}...",
                )
            )
        elif len(data) != entry.archived.byte_length:
            findings.append(
                Finding("length-mismatch", entry.id, f"stored {len(data)} bytes, recorded {entry.archived.byte_length}")
            )
    return findings


def attach_archive(entry: RegistryEntry, archived: ArchivedCopy) -> RegistryEntry:
    """Entry with the archived copy recorded, digest mirrored into the meta."""
    meta = replace(entry.meta, archived_copy_digest=archived.content_digest)
    return replace(entry, meta=meta, archived=archived)
