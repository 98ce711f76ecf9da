"""``compare``: one comparison table over the score cards of a directory."""

from ..cli import _Option, _echo, _note, _path
from ..errors import SummaryQAError
from . import _load, _require

OPTIONS = (_Option("CARDS_DIR", _path("Directory"), help="Directory of score cards (default: --out)."),)


def compare(args):
    """Comparison table over all score cards in a directory."""
    from ..base import write_atomic
    from ..reporting import comparison_column, load_scorecard, render_comparison

    directory = args.cards_dir or _require(args.out, "--out or CARDS_DIR")
    card_paths = sorted(directory.glob("*.scorecard.json"))
    if not card_paths:
        raise SummaryQAError(f"no score cards found in {directory}")
    # Each card is dropped once its column is taken, so one decoded card is held at a time.
    columns = [comparison_column(_load(load_scorecard, p)) for p in card_paths]
    rendered = render_comparison(columns, args.format)
    if args.out is not None:
        out_path = args.out / f"comparison.{args.format}"
        write_atomic(out_path, rendered)
        _note(f"wrote {out_path}")
    else:
        _echo(rendered.decode("utf-8"), nl=False)
