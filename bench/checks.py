"""Correctness checks on the pipeline's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Score cards are compared with the independent oracle in ``tests/oracle.py``
value for value, as exact fractions, from their JSON alone.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

STRATEGIES = {
    "pooled": ("pooled-weighted", "pooled-weighted"),
    "mean": ("mean-of-dimensions", "mean-of-sections"),
}


def load_oracle(repo: Path):
    spec = importlib.util.spec_from_file_location("bench_oracle", repo / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_digest(root: Path, pattern: str = "**/*") -> dict:
    """sha256 over the sorted (relative path, file sha256) pairs of a tree."""
    outer = hashlib.sha256()
    files = total = 0
    for path in sorted(p for p in root.glob(pattern) if p.is_file()):
        data = path.read_bytes()
        outer.update(f"{path.relative_to(root).as_posix()}\0{hashlib.sha256(data).hexdigest()}\n".encode())
        files += 1
        total += len(data)
    return {"sha256": outer.hexdigest(), "files": files, "bytes": total}


def output_digests(out: Path, validate_stdout: str) -> dict:
    """Digests of every deterministic output of one pipeline pass."""
    return {
        "findings": hashlib.sha256(validate_stdout.encode()).hexdigest(),
        "cards": tree_digest(out, "*.scorecard.json"),
        "reports": tree_digest(out, "*.report.*"),
        "comparison": tree_digest(out, "comparison.*"),
        "site": tree_digest(out / "site"),
    }


def read_verdicts(path: Path) -> SimpleNamespace:
    """The verdict table of an assessment file, shaped as the oracle reads it."""
    _, _, body = path.read_text(encoding="utf-8").partition("\n\n")
    rows = list(csv.reader(io.StringIO(body)))[1:]
    return SimpleNamespace(
        verdicts={row[0]: SimpleNamespace(value=SimpleNamespace(token=row[1]), note=row[2]) for row in rows if row}
    )


def _exact(raw) -> Fraction | None:
    return None if raw == "N/A" else Fraction(raw["exact"])


def card_failures(card: dict, expected: dict, aggregation: str) -> list[str]:
    """Differences between a score card's JSON and the oracle's values."""
    section_strategy, overall_strategy = STRATEGIES[aggregation]
    config = card["config"]
    if (config["section_group_strategy"], config["overall_strategy"]) != (section_strategy, overall_strategy):
        return [f"card scored under {config}, expected {aggregation}"]
    failures = []
    tables = (
        ("cells", lambda s, d: card["cells"][s][d]),
        ("section_groups", lambda s, g: card["section_groups"][s][g]),
    )
    for name, read in tables:
        for (outer, inner), want in expected[name].items():
            got = _exact(read(outer, inner))
            if got != want:
                failures.append(f"{name} {outer}/{inner}: {got} != {want}")
    for name in ("dimension_overall", "overall"):
        for key, want in expected[name].items():
            got = _exact(card[name][key])
            if got != want:
                failures.append(f"{name} {key}: {got} != {want}")
    return failures


class Checker:
    """Checks one workload's outputs against what its inputs must produce."""

    def __init__(self, inputs, catalog, oracle):
        self.inputs = inputs
        self.catalog = catalog
        self.oracle = oracle
        self.scored = sorted(inputs.scored.glob("*.csv"))

    def archive(self, stdout: str, digest: str) -> list[str]:
        got = stdout.split("\n", 1)[0].strip()
        return [] if got == digest else [f"archive printed digest {got!r}, expected {digest}"]

    def validate(self, stdout: str) -> list[str]:
        got = {tuple(line.split("\t")[:3]) for line in stdout.splitlines() if line}
        want = set(self.inputs.expected_findings)
        failures = [f"unexpected finding {f}" for f in sorted(got - want)]
        failures += [f"missing seeded finding {f}" for f in sorted(want - got)]
        return failures

    def compare(self, out: Path) -> list[str]:
        fmt = self.inputs.compare_format
        text = (out / f"comparison.{fmt}").read_text(encoding="utf-8")
        if fmt == "csv":
            columns = len(next(csv.reader(io.StringIO(text)))) - 2
        else:
            head = re.search(r"<thead><tr>(.*?)</tr></thead>", text)
            columns = head.group(1).count("<th>") - 2 if head else -1
        want = len(self.scored)
        return [] if columns == want else [f"comparison has {columns} columns for {want} cards"]

    def site(self, stdout: str, out: Path) -> list[str]:
        failures = [f"site link check: {line}" for line in stdout.splitlines() if line]
        details = len(list((out / "site" / "summaries").glob("*/index.html")))
        if details != len(self.scored):
            failures.append(f"site has {details} detail pages for {len(self.scored)} cards")
        return failures

    def cards(self, out: Path) -> tuple[int, list[str]]:
        """Oracle check of every card; returns (cards checked, failures)."""
        section_strategy, overall_strategy = STRATEGIES[self.inputs.aggregation]
        failures = []
        for path in self.scored:
            card_path = out / f"{path.stem}.scorecard.json"
            if not card_path.is_file():
                failures.append(f"{card_path.name}: missing")
                continue
            expected = self.oracle.oracle_scorecard(
                self.catalog, read_verdicts(path), section_strategy, overall_strategy
            )
            try:
                card = json.loads(card_path.read_text(encoding="utf-8"))
                problems = card_failures(card, expected, self.inputs.aggregation)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable card: {exc!r}"]
            if problems:
                failures.append(f"{card_path.name}: {problems[0]} ({len(problems)} difference(s))")
        return len(self.scored), failures
