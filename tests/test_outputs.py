"""Byte identity of every output the fixture pipeline writes.

The pipeline runs in-process: ``score`` in each format under both
aggregations, ``compare`` to a file and to stdout, ``site`` with a store,
and a site with no cards.  Each output's sha256 must
equal the one in ``output_manifest.json``, so a refactor that changes any
byte of a card, report, comparison or page fails here.  No HTML output may
hold a script.

``python tests/test_outputs.py`` prints the manifest of the current tree.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

from summaryqa.registry import archive_fetch

from toys import reference_catalog_path, run_cli

REPO = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_manifest.json")
FORMATS = ("json", "csv", "html")
AGGREGATIONS = ("pooled", "mean")


def pipeline_outputs(work: Path) -> dict[str, str]:
    """Run the fixture pipeline under ``work``; sha256 of each output by its name."""
    def run(*args: str) -> bytes:
        result = run_cli(*args)
        assert result.exit_code == 0, result.output
        return result.stdout.encode("utf-8")

    catalog = str(reference_catalog_path())
    fixtures = REPO / "fixtures"
    out = work / "out"
    digests: dict[str, str] = {}
    for fmt in FORMATS:
        for aggregation in AGGREGATIONS:
            run("--catalog", catalog, "--out", str(out / f"score-{fmt}-{aggregation}"), "--format", fmt,
                "--aggregation", aggregation, "score", str(fixtures / "assessments"))
    for aggregation in AGGREGATIONS:
        cards = str(out / f"score-json-{aggregation}")
        for fmt in FORMATS:
            run("--out", str(out / f"compare-{fmt}-{aggregation}"), "--format", fmt, "compare", cards)
            stdout = run("--format", fmt, "compare", cards)
            digests[f"compare-stdout-{aggregation}.{fmt}"] = hashlib.sha256(stdout).hexdigest()
    store = work / "store"
    for source in sorted((fixtures / "sources").iterdir()):
        archive_fetch(str(source), store)
    run("--out", str(out / "site-store"), "site", "--registry", str(fixtures / "registry.json"),
        "--cards", str(out / "score-json-pooled"), "--store", str(store))
    (work / "no-cards").mkdir()
    run("--out", str(out / "site-empty"), "site", "--registry", str(fixtures / "registry.json"),
        "--cards", str(work / "no-cards"))
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(digests.items()))


def test_every_output_matches_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = pipeline_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert changed == []
    pages = sorted((tmp_path / "out").rglob("*.html"))
    scripted = [page for page in pages if re.search(rb"<script|javascript:", page.read_bytes())]
    assert scripted == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        json.dump(pipeline_outputs(Path(work)), sys.stdout, indent=2)
        sys.stdout.write("\n")
