"""``archive``: fetch a summary, pin its bytes in the object store, and register it."""

from datetime import date

from ..base import PublishedForm
from ..cli import _Option, _Usage, _choice, _echo, _note, _path
from ..registry import DiscoveryChannel
from . import _load, _require

PUBLISHED_FORMS = tuple(form.value for form in PublishedForm)
CHANNELS = tuple(channel.value for channel in DiscoveryChannel)


def _iso_date(text: str) -> date | None:
    """A YYYY-MM-DD option; an empty one is not given."""
    from ..base import iso_date

    try:
        return iso_date(text) if text else None
    except ValueError:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date") from None


OPTIONS = (
    _Option("URL", str, required=True, help="http(s) URL or local path of the summary."),  # a file name need not be UTF-8
    _Option("--slug", required=True, help="Stable registry slug."),
    _Option("--provider", required=True),
    _Option("--model", required=True),
    _Option("--title", help="Summary title (defaults from model)."),
    _Option("--source-url", help="Recorded source URL (defaults to URL; a local path as its file: URI)."),
    _Option("--published-form", _choice(PUBLISHED_FORMS), "Other", f"One of {', '.join(PUBLISHED_FORMS)} (default Other)."),
    _Option("--date", _iso_date, help="Assessed version date (YYYY-MM-DD)."),
    _Option("--channel", _choice(CHANNELS), "ModelRepoPage", f"One of {', '.join(CHANNELS)} (default ModelRepoPage)."),
    _Option("--query", default="", help="Discovery query or path."),
    _Option("--discovered-on", _iso_date, help="Discovery date (YYYY-MM-DD)."),
    _Option("--registry", _path("File", exists=False), help="Registry file."),
    _Option("--store", _path("Directory", exists=False), help="Object store of archived copies."),
    _Option("--timeout", float, 30.0, "Fetch timeout in seconds (default 30)."),
)


def archive(args):
    """Fetch a summary, pin it in the object store, and register it."""
    from ..base import SummaryMeta, well_formed_url
    from ..registry import (
        DiscoveryProvenance, Registry, RegistryEntry, add_entry, archive_fetch, attach_archive, load_registry,
        recorded_url, save_registry, valid_slug,
    )

    registry_file = _require(args.registry, "--registry")
    store_root = _require(args.store, "--store")
    if not valid_slug(args.slug):
        raise _Usage(f"Invalid value for --slug: {args.slug!r} must be lowercase alphanumeric/hyphen")
    if args.source_url and not well_formed_url(args.source_url):
        raise _Usage(f"Invalid value for --source-url: {args.source_url!r} is not an http(s) URL with a host or a file: URL")
    registry = _load(load_registry, registry_file) if registry_file.exists() else Registry()
    title = args.title or f"{args.model} public summary of training content"
    source_url = args.source_url or recorded_url(args.url)
    form = PublishedForm.from_token(args.published_form)
    meta = SummaryMeta(args.provider, args.model, title, source_url, form, args.date or date.today())
    channel = DiscoveryChannel.from_token(args.channel)
    discovery = DiscoveryProvenance(channel, args.query, args.discovered_on or date.today())
    entry = RegistryEntry(id=args.slug, meta=meta, discovery=discovery)
    # Admitted before the fetch, so a refused entry fetches and stores nothing.
    add_entry(registry, entry)
    copy = archive_fetch(args.url, store_root, timeout=args.timeout)
    registry.entries[-1] = attach_archive(entry, copy)
    save_registry(registry, registry_file)
    _echo(copy.content_digest)
    _note(f"archived {args.url} ({copy.byte_length} bytes, {copy.media_type})")
