"""``site``: build the static dissemination site from the score cards, and publish it."""

from ..cli import _Option, _note, _path
from ..errors import Refused, SummaryQAError
from . import _echo_findings, _load, _require

OPTIONS = (
    _Option("--registry", _path("File"), help="Registry file."),
    _Option("--cards", _path("Directory"), help="Directory of score cards (default: --out)."),
    _Option("--store", _path("Directory"), help="Object store of archived copies."),
)


def site(args):
    """Build the static dissemination site from the score cards and publish it.

    The site is built beside ``<out>/site`` and replaces it only when every
    archived copy matches its pinned sha256 and every internal link resolves.
    Otherwise the command exits 1, listing any broken links, and the previous
    site stays as it was.
    """
    from ..registry import load_registry
    from ..site import SiteConfig, build_site

    registry = _load(load_registry, _require(args.registry, "--registry"))
    out_dir = _require(args.out, "--out")
    cards = sorted((args.cards or out_dir).glob("*.scorecard.json"))
    try:
        plan = build_site(registry, cards, SiteConfig(output_root=out_dir / "site", store_root=args.store))
    except Refused as exc:
        _echo_findings("site", exc.findings)
        raise SummaryQAError(f"site not published: {exc}") from exc
    _note(f"built {len(plan.pages)} page(s) under {plan.output_root}")
