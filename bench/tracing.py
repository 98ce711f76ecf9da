"""Spans around calls into summaryqa's layers, for the traced run.

The traced run replays the workload's CLI sequence in this process.  While
``instrumented`` is active, each layer function named in ``TARGETS`` is
replaced, in every ``summaryqa`` module that holds a reference to it, by a
wrapper that records a span: name, start, end, parent and the pass it
belongs to, plus counts taken at the same boundary.  Spans stay in memory
and are written out when the run ends.  The program's source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("cli", "catalog", "assessment", "scoring", "reporting", "registry", "site")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int  # pipeline pass the span belongs to
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.trace = 0

    @contextmanager
    def span(self, name: str):
        """Record a span; a same-named call nested in the open span is not a new one."""
        if self._open and self._open[-1].name == name:
            yield None
            return
        span = Span(len(self.spans), name, self._open[-1].id if self._open else None, self.trace, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        own = self_times(self.spans)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**asdict(span), "self_s": own[span.id]}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def _dir_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name)) for base, _, names in os.walk(root) for name in names
    )


def _archived_bytes(registry) -> int:
    return sum(entry.archived.byte_length for entry in registry.entries if entry.archived is not None)


# (module, function) -> (span name, counts taken from (args, result) or None)
TARGETS = {
    ("catalog", "parse_catalog"): ("catalog.parse", None),
    ("catalog", "validate_catalog"): ("catalog.validate", None),
    ("assessment", "parse_assessment"): ("assessment.parse", None),
    ("assessment", "check_assessment"): ("assessment.check", None),
    ("assessment", "assessment_findings"): ("assessment.findings", lambda a, r: {"findings": len(r)}),
    # The function behind applicability_map and assessment_findings alike.
    ("assessment", "_applicability"): (
        "assessment.applicability",
        lambda a, r: {"applicable": sum(r.values()), "metrics": len(r)},
    ),
    ("scoring", "score_summary"): ("scoring.score", None),
    ("reporting", "scorecard_to_json"): ("reporting.card_encode", lambda a, r: {"bytes": len(r.encode())}),
    ("reporting", "load_scorecard"): ("reporting.card_decode", None),
    ("reporting", "render_scorecard"): ("reporting.render", None),
    ("reporting", "scorecard_table_html"): ("reporting.table_html", None),
    ("reporting", "render_comparison"): ("reporting.compare", None),
    ("reporting", "comparison_table_html"): ("reporting.compare", None),
    ("registry", "load_registry"): ("registry.load", None),
    ("registry", "save_registry"): ("registry.save", None),
    ("registry", "validate_registry"): ("registry.validate", None),
    ("registry", "verify_archive"): ("registry.verify_archive", lambda a, r: {"bytes": _archived_bytes(a[0])}),
    ("registry", "archive_fetch"): ("registry.archive_fetch", lambda a, r: {"bytes": r.byte_length}),
    ("site", "build_site"): (
        "site.build",
        lambda a, r: {"pages": len(r.pages), "bytes": _dir_bytes(Path(a[2].output_root))},
    ),
    ("site", "check_links"): ("site.check_links", lambda a, r: {"broken": len(r)}),
}


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if span is not None and counts is not None:
            span.counts.update(counts(args, result))
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target wherever a summaryqa module refers to it.

    Yields the targets that do not exist in this version of the program.
    """
    wrappers, missing = {}, []
    for (module_name, fn_name), (span_name, counts) in TARGETS.items():
        fn = getattr(importlib.import_module(f"summaryqa.{module_name}"), fn_name, None)
        if fn is None:
            missing.append(f"{module_name}.{fn_name}")
            continue
        wrappers[id(fn)] = (fn, _wrap(tracer, fn, span_name, counts))
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "summaryqa" and not name.startswith("summaryqa."):
            continue
        for attr, value in list(vars(module).items()):
            found = wrappers.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])
                patched.append((module, attr, value))
    try:
        yield missing
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Span -> metric: the median per call, plus p90 for spans that run once per file.
PER_CALL = (
    "cli.archive", "cli.validate", "cli.score", "cli.compare", "cli.site",
    "catalog.parse", "catalog.validate",
    "assessment.parse", "assessment.check", "assessment.findings", "assessment.applicability",
    "scoring.score",
    "reporting.card_encode", "reporting.card_decode", "reporting.render", "reporting.table_html", "reporting.compare",
    "registry.load", "registry.save", "registry.validate", "registry.verify_archive", "registry.archive_fetch",
    "site.build", "site.check_links",
)
PER_FILE = (
    "assessment.parse", "assessment.check", "assessment.findings", "assessment.applicability",
    "scoring.score", "reporting.card_encode", "reporting.card_decode", "reporting.render",
)
# Metric -> (span, count) summed over each pass; reported as the median pass.
PASS_COUNTS = {
    "assessment.findings": ("assessment.findings", "findings"),
    "registry.verified_bytes": ("registry.verify_archive", "bytes"),
    "site.pages": ("site.build", "pages"),
    "site.bytes_written": ("site.build", "bytes"),
}


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes."""
    durations: dict[str, list[float]] = {}
    passes: dict[int, dict[str, float]] = {}
    own = self_times(spans)
    for span in spans:
        durations.setdefault(span.name, []).append((span.end - span.start) * 1000)
        totals = passes.setdefault(span.trace, {})
        layer = span.name.split(".", 1)[0]
        totals[f"{layer}.self_ms"] = totals.get(f"{layer}.self_ms", 0.0) + own[span.id] * 1000
        for metric, (span_name, count) in PASS_COUNTS.items():
            if span.name == span_name:
                totals[metric] = totals.get(metric, 0) + span.counts.get(count, 0)

    metrics: dict[str, float] = {}
    for name in PER_CALL:
        values = durations.get(name, [0.0])
        metrics[f"{name}_ms"] = statistics.median(values)
        if name in PER_FILE:
            metrics[f"{name}_p90_ms"] = quantile(values, 0.9)
    for metric in (*[f"{layer}.self_ms" for layer in LAYERS], *PASS_COUNTS):
        metrics[metric] = statistics.median(totals.get(metric, 0) for totals in passes.values())
    encoded = [s.counts["bytes"] for s in spans if s.name == "reporting.card_encode"]
    metrics["reporting.card_bytes"] = statistics.median(encoded) if encoded else 0
    shares = [s.counts["applicable"] / s.counts["metrics"] for s in spans if s.name == "assessment.applicability"]
    metrics["assessment.applicable_share"] = statistics.median(shares) if shares else 0
    return metrics


# ---------------------------------------------------------------------------
# Interpreter start-up and import cost
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from ``-X importtime`` output."""
    cumulative: dict[str, float] = {}
    top_level = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumul, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        module = name.strip()
        cumulative.setdefault(module, int(cumul) / 1000)
        if depth == 0 and module.split(".")[0] == "summaryqa":
            top_level += int(cumul) / 1000
    return {
        "import_ms": top_level,
        "import_click_ms": cumulative.get("click", 0.0),
        "import_urllib_ms": cumulative.get("urllib.request", 0.0),
    }
