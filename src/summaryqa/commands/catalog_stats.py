"""``catalog-stats``: the catalog's metric count per section."""

from ..cli import _echo
from . import _load, _require

OPTIONS = ()


def catalog_stats(args):
    """Per-section metric counts of the catalog."""
    from ..catalog import load_catalog, section_counts

    catalog = _load(load_catalog, _require(args.catalog, "--catalog"))
    for section, count in section_counts(catalog).items():  # in SECTION_ORDER
        _echo(f"{section.code}\t{count}")
    _echo(f"Total\t{len(catalog.metrics)}")
