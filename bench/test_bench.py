"""Tests of the benchmark's generator and output checks.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import corpus
import run
import tracing

REPO = Path(__file__).resolve().parent.parent


def _small_audit(root: Path, seed: int = 3) -> corpus.Inputs:
    inputs = corpus.synthetic(
        REPO, root, seed, "audit", count=20, min_bytes=200, max_bytes=800,
        defect_share=0.25, store_defects=2, archive_calls=2, archive_bytes=(200, 800),
        grow_registry=True, aggregation="mean", report_format="csv", compare_format="csv",
    )
    corpus.write(inputs)
    return inputs


def _checked_pass(tmp_path: Path) -> tuple[run.Pipeline, run.Tally, Path]:
    """One in-process pipeline pass over a small audit corpus."""
    from summaryqa.catalog import load_catalog

    inputs = _small_audit(tmp_path / "inputs")
    checker = checks.Checker(inputs, load_catalog(REPO / corpus.CATALOG), checks.load_oracle(REPO))
    pipeline = run.Pipeline(REPO, inputs, checker, tmp_path / "work")
    tally = run.Tally()
    pipeline.run(run.InProcess(tracing.Tracer()), tally)
    return pipeline, tally, tmp_path / "work" / "pass" / "out"


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    for name in ("corpus-1k", "audit"):
        runs = [corpus.WORKLOADS[name](REPO, tmp_path / name / d, seed) for d, seed in (("a", 7), ("b", 7), ("c", 8))]
        for inputs in runs:
            corpus.write(inputs)
        digests = [checks.tree_digest(tmp_path / name / d) for d in "abc"]
        assert digests[0] == digests[1]
        assert digests[0]["sha256"] != digests[2]["sha256"]
        assert runs[0].expected_findings == runs[1].expected_findings


def test_synthetic_models_are_unique(tmp_path):
    corpus.write(corpus.WORKLOADS["corpus-1k"](REPO, tmp_path, 5))
    entries = json.loads((tmp_path / "registry.json").read_text())["entries"]
    assert len({(e["meta"]["provider"], e["meta"]["model"]) for e in entries}) == 1000
    assert len({e["meta"]["model"] for e in entries}) == 1000


def test_clean_pass_meets_every_check(tmp_path):
    pipeline, tally, _ = _checked_pass(tmp_path)
    assert tally.failed == 0, tally.messages
    assert len(pipeline.inputs.expected_findings) == 5 + 2
    assert tally.attempted > len(pipeline.checker.scored)


def test_perturbed_score_card_fails_the_oracle_check(tmp_path):
    pipeline, _, out = _checked_pass(tmp_path)
    card_path = sorted(out.glob("*.scorecard.json"))[0]
    card = json.loads(card_path.read_text())
    value = next(v for v in card["overall"].values() if v != "N/A")
    value["exact"] = str(Fraction(value["exact"]) + Fraction(1, 10**6))
    card_path.write_text(json.dumps(card, indent=2) + "\n")
    checked, failures = pipeline.checker.cards(out)
    assert checked == len(pipeline.checker.scored)
    assert len(failures) == 1 and card_path.name in failures[0]


def test_missing_seeded_finding_fails_the_validate_check(tmp_path):
    pipeline, _, _ = _checked_pass(tmp_path)
    lines = sorted("\t".join((*finding, "message")) for finding in pipeline.inputs.expected_findings)
    assert pipeline.checker.validate("\n".join(lines) + "\n") == []
    failures = pipeline.checker.validate("\n".join(lines[1:]) + "\n")
    assert failures == [f"missing seeded finding {tuple(lines[0].split(chr(9))[:3])}"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, "bench/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span(0, "cli.score", None, 0, 0.0, 10.0),
        tracing.Span(1, "scoring.score", 0, 0, 1.0, 4.0),
        tracing.Span(2, "reporting.render", 0, 0, 5.0, 7.0),
        tracing.Span(3, "reporting.table_html", 2, 0, 5.5, 6.0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.5, 0.5]
