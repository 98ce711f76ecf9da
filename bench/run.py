"""Benchmark of the summaryqa pipeline: archive, validate, score, compare, site.

Run from the root of a checkout::

    python3 bench/run.py --workload audit --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` each pipeline command runs as a ``python -m summaryqa``
subprocess, one at a time, and the run reports the end-to-end metrics, its
times scaled to a reference machine speed (see ``scaled``).  With
``--trace 1`` the same command sequence is replayed in this process with a
span around every call into a layer, and the run reports the per-layer
metrics.  Either way every output is checked, and the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (sample counts, percentiles, output digests, the
machine) go to ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
import corpus
import tracing

SETUP_SAMPLES = 5
SETUP_SAMPLE_MIN_S = 0.01  # a cheap set-up repeats until this much time is spent
STARTUP_SAMPLES = 40  # spread over the run; more when a run outlasts --seconds
PROBE_SAMPLES = 7
COMMAND_DEADLINE_S = 150
CALIBRATION_LOOPS = 10_000
CALIBRATION_REFERENCE_MS = 2.0  # the calibration loop's time at the speed timings are scaled to
COMMANDS = ("archive", "validate", "score", "compare", "site")


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_kb: int = 0
    scaled_s: float = 0.0  # wall_s at the reference machine speed


@dataclass
class Step:
    command: str
    args: list[str]
    expect_exit: int = 0
    check: Callable[[Outcome], list[str]] | None = None


@dataclass
class Tally:
    """Invocations and output checks attempted, and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


def calibration_ms() -> float:
    """Fastest of three runs of a fixed pure-Python loop: how fast the machine runs now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
            table[i & 1023] = str(acc)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def scaled(wall_s: float, before_ms: float, after_ms: float) -> float:
    """A wall time scaled to the reference speed, from calibrations either side of it.

    On a shared machine CPU speed can change by 1.5 times for minutes at a
    time, for every process alike.  Scaling by the calibration loop taken
    around each measurement removes that drift but keeps the program's own
    cost, which the loop does not share.
    """
    return wall_s * 2 * CALIBRATION_REFERENCE_MS / (before_ms + after_ms)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class Subprocess:
    """Runs commands through ``launch.py``, which reads each child's own peak RSS."""

    def __init__(self, repo: Path, work: Path):
        self.repo = repo
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(repo / "src"), "TMPDIR": str(work)}
        launcher = [sys.executable, str(Path(__file__).with_name("launch.py"))]
        self.launcher = subprocess.Popen(launcher, cwd=repo, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.calibrations: list[float] = []

    def __enter__(self) -> "Subprocess":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=COMMAND_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        request = {
            "argv": argv,
            "cwd": str(self.repo),
            "env": self.env,
            "stdout": str(out_path),
            "stderr": str(err_path),
            "deadline": COMMAND_DEADLINE_S,
        }
        before = calibration_ms()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        after = calibration_ms()
        if not reply:
            raise RuntimeError(f"launch.py stopped with status {self.launcher.wait()}")
        result = json.loads(reply)
        self.calibrations += [before, after]
        return Outcome(
            result["code"],
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            result["wall_s"],
            result["rss_kb"],
            scaled(result["wall_s"], before, after),
        )

    def __call__(self, command: str, args: list[str]) -> Outcome:
        return self.run([sys.executable, "-m", "summaryqa", *args])


class InProcess:
    """Replays CLI invocations through click in this process, one span each."""

    def __init__(self, tracer: tracing.Tracer):
        import click
        import summaryqa.cli

        self.click = click
        self.group = summaryqa.cli.cli
        self.tracer = tracer
        self.tracing = False

    def __call__(self, command: str, args: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracing:
                with self.tracer.span(f"cli.{command}"):
                    code = self._invoke(args, err)
            else:
                code = self._invoke(args, err)
        return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)

    def _invoke(self, args: list[str], err: io.StringIO) -> int:
        try:
            returned = self.group.main(args=args, prog_name="summaryqa", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except self.click.ClickException as exc:
            err.write(exc.format_message())
            return exc.exit_code
        except Exception:  # a crash in the program is a failed invocation, not a benchmark error
            err.write(traceback.format_exc())
            return 1
        return returned if isinstance(returned, int) else 0


# ---------------------------------------------------------------------------
# One pipeline pass
# ---------------------------------------------------------------------------


class Pipeline:
    """The workload's command sequence and the checks on its outputs."""

    def __init__(self, repo: Path, inputs: corpus.Inputs, checker: checks.Checker, work: Path):
        self.repo = repo
        self.inputs = inputs
        self.checker = checker
        self.work = work
        self.checked_cards: set[str] = set()
        self.digests: list[dict] = []

    def prepare(self) -> Path:
        """A fresh directory for one pass; the audit registry starts over."""
        pass_dir = self.work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        (pass_dir / "pins").mkdir(parents=True)
        if self.inputs.grow_registry:
            shutil.copyfile(self.inputs.registry, pass_dir / "registry.json")
            for call in self.inputs.archives:
                (self.inputs.store / corpus.object_rel(call.digest)).unlink(missing_ok=True)
        return pass_dir

    def steps(self, pass_dir: Path) -> list[Step]:
        inputs, checker = self.inputs, self.checker
        catalog = ["--catalog", str(self.repo / corpus.CATALOG)]
        out = pass_dir / "out"
        if inputs.grow_registry:
            registry = pin_registry = pass_dir / "registry.json"
            pin_store = inputs.store
        else:
            registry = inputs.registry
            pin_registry, pin_store = pass_dir / "pins" / "registry.json", pass_dir / "pins" / "store"
        steps = [
            Step(
                "archive",
                ["archive", str(call.source), *call.options, "--registry", str(pin_registry), "--store", str(pin_store)],
                check=lambda o, digest=call.digest: checker.archive(o.stdout, digest),
            )
            for call in inputs.archives
        ]
        steps.append(
            Step(
                "validate",
                [*catalog, "validate", "--assessments", str(inputs.assessments),
                 "--registry", str(registry), "--store", str(inputs.store)],
                expect_exit=1 if inputs.expected_findings else 0,
                check=lambda o: checker.validate(o.stdout),
            )
        )
        steps.append(
            Step(
                "score",
                [*catalog, "--out", str(out), "--format", inputs.report_format,
                 "--aggregation", inputs.aggregation, "score", str(inputs.scored)],
            )
        )
        steps.append(
            Step(
                "compare",
                ["--out", str(out), "--format", inputs.compare_format, "compare"],
                check=lambda o: checker.compare(out),
            )
        )
        steps.append(
            Step(
                "site",
                ["--out", str(out), "site", "--registry", str(registry), "--store", str(inputs.store)],
                check=lambda o: checker.site(o.stdout, out),
            )
        )
        return steps

    def run(self, runner, tally: Tally, between: Callable[[], None] = lambda: None) -> tuple[float, float, dict[str, float], int]:
        """One pass, then its checks.

        Returns the pass's command time, the same scaled to the reference
        speed, the scaled time per command, and the peak RSS.

        ``between`` runs after each command, outside the timed commands.
        """
        pass_dir = self.prepare()
        steps = self.steps(pass_dir)
        outcomes = []
        for step in steps:
            outcomes.append(runner(step.command, step.args))
            between()
        wall = sum(outcome.wall_s for outcome in outcomes)
        wall_scaled = sum(outcome.scaled_s for outcome in outcomes)

        per_command = dict.fromkeys(COMMANDS, 0.0)
        validate_stdout = ""
        for step, outcome in zip(steps, outcomes):
            per_command[step.command] += outcome.scaled_s
            ok = outcome.code == step.expect_exit
            tally.add([] if ok else [f"{step.command} exited {outcome.code}: {outcome.stderr.strip()[-300:]}"])
            if step.check is not None:
                try:
                    failures = step.check(outcome) if ok else [f"{step.command} output not checked"]
                except OSError as exc:
                    failures = [f"{step.command} output unreadable: {exc}"]
                tally.add(failures)
            if step.command == "validate":
                validate_stdout = outcome.stdout

        out = pass_dir / "out"
        digests = checks.output_digests(out, validate_stdout)
        self.digests.append(digests)
        if digests["cards"]["sha256"] not in self.checked_cards:
            self.checked_cards.add(digests["cards"]["sha256"])
            checked, failures = self.checker.cards(out)
            tally.attempted += checked
            tally.failed += len(failures)
            tally.messages.extend(failures[:5])
        return wall, wall_scaled, per_command, max(o.rss_kb for o in outcomes)


# ---------------------------------------------------------------------------
# Statistics and the environment
# ---------------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples above it."""
    summary = {"n": len(values), "median": statistics.median(values), "values": list(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            summary[f"p{p}"] = tracing.quantile(values, p / 100)
            break
    else:
        summary["max"] = max(values)
    return summary


def git_commit(repo: Path) -> str:
    head = repo / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = repo / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = repo / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(repo: Path) -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "commit": git_commit(repo),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Spread:
    """Takes a measurement at even intervals across a run.

    Machine speed drifts over seconds to minutes, so samples taken in one
    burst would all share one speed.
    """

    def __init__(self, measure: Callable[[], float], count: int, seconds: int, values: list[float] | None = None):
        self.measure = measure
        self.count = count
        self.interval = seconds / count
        self.values = values or []
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.values.append(self.measure())
            self.last = time.perf_counter()

    def fill(self) -> list[float]:
        while len(self.values) < self.count:
            self.values.append(self.measure())
        return self.values


def timed_setup(generate: Callable[[], corpus.Inputs]) -> tuple[corpus.Inputs, float]:
    """One set-up sample: generations repeated for at least SETUP_SAMPLE_MIN_S.

    Returns the last inputs and the scaled time per generation.
    """
    before = calibration_ms()
    count, start = 0, time.perf_counter()
    while True:
        inputs = generate()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_SAMPLE_MIN_S:
            return inputs, scaled(elapsed / count, before, calibration_ms())


def measuring(seconds: int, walls: list[float]) -> bool:
    """Whether to run another pass: stop once the next would overshoot by more than half."""
    return not walls or sum(walls) + walls[-1] / 2 < seconds


def end_to_end(
    runner: Subprocess, pipeline: Pipeline, seconds: int, tally: Tally, setup: Spread
) -> tuple[dict, dict]:
    version = [sys.executable, "-m", "summaryqa", "--version"]
    runner.run(version)  # compiles bytecode on a fresh checkout

    def sample_startup() -> float:
        outcome = runner.run(version)
        tally.add([] if outcome.code == 0 else [f"--version exited {outcome.code}"])
        return outcome.scaled_s * 1000

    startup = Spread(sample_startup, STARTUP_SAMPLES, seconds)

    def between() -> None:
        startup.due()
        setup.due()

    walls, walls_scaled, rss = [], [], 0
    per_command: dict[str, list[float]] = {c: [] for c in COMMANDS}
    while measuring(seconds, walls):
        wall, wall_scaled, commands, peak = pipeline.run(runner, tally, between)
        walls.append(wall)
        walls_scaled.append(wall_scaled)
        rss = max(rss, peak)
        for command, value in commands.items():
            per_command[command].append(value)
    samples = {
        "pipeline_s": walls_scaled,
        "startup_ms": startup.fill(),
        "setup_s": setup.fill(),
        "pipeline_wall_s": walls,
        "calibration_ms": runner.calibrations,
    }
    samples.update({f"{command}_s": values for command, values in per_command.items()})
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = rss / 1024
    return metrics, samples


def per_layer(probe: Subprocess, pipeline: Pipeline, seconds: int, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    interpreter, imports = [], []
    for _ in range(PROBE_SAMPLES):
        interpreter.append(probe.run([sys.executable, "-c", "pass"]).wall_s * 1000)
        outcome = probe.run([sys.executable, "-X", "importtime", "-m", "summaryqa", "--version"])
        tally.add([] if outcome.code == 0 else [f"-X importtime --version exited {outcome.code}"])
        imports.append(tracing.parse_importtime(outcome.stderr))

    tracer = tracing.Tracer()
    runner = InProcess(tracer)
    untraced, _, _, _ = pipeline.run(runner, tally)
    traced = []
    runner.tracing = True
    with tracing.instrumented(tracer) as missing:
        while measuring(seconds, traced):
            tracer.trace = len(traced)
            wall, _, _, _ = pipeline.run(runner, tally)
            traced.append(wall)
    for name in missing:
        print(f"warning: {name} does not exist; its span is not recorded", file=sys.stderr)
    tracer.write(spans_path)

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.interpreter_ms"] = statistics.median(interpreter)
    for key in ("import_ms", "import_click_ms", "import_urllib_ms"):
        metrics[f"cli.{key}"] = statistics.median(sample[key] for sample in imports)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.spans"] = len(tracer.spans) / len(traced)
    samples = {"cli.interpreter_ms": interpreter, "trace.traced_s": traced}
    return metrics, samples


def run_workload(repo: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    results = repo / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = repo / ".bench_work" / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        generate = functools.partial(corpus.WORKLOADS[name], repo, work / "inputs", seed)
        inputs, first_setup = timed_setup(generate)
        setup = Spread(lambda: timed_setup(generate)[1], SETUP_SAMPLES, seconds, [first_setup])
        corpus.write(inputs)
        inputs.files.clear()

        from summaryqa.catalog import load_catalog

        checker = checks.Checker(inputs, load_catalog(repo / corpus.CATALOG), checks.load_oracle(repo))
        described = {
            "assessments": len(list(inputs.assessments.glob("*.csv"))),
            "scored": len(checker.scored),
            "expected_findings": len(inputs.expected_findings),
            "archive_calls": len(inputs.archives),
            **inputs.notes,
        }
        pipeline = Pipeline(repo, inputs, checker, work)
        tally = Tally()
        with Subprocess(repo, work) as runner:
            if trace:
                spans_path = results / f"{name}-seed{seed}.spans.jsonl"
                metrics, samples = per_layer(runner, pipeline, seconds, tally, spans_path)
            else:
                metrics, samples = end_to_end(runner, pipeline, seconds, tally, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = pipeline.digests[0]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(repo),
        "inputs": described,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "failures": tally.messages[:50],
        "metrics": metrics,
        "samples": {key: describe(values) for key, values in samples.items()},
        "output_digests": first,
        "outputs_identical_across_passes": all(d == first for d in pipeline.digests),
    }
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict, units: dict[str, str]) -> dict:
    """Print the run for a reader; return the result object for the last line."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} failed_share={record['failed_share']:.4f}")
    for message in record["failures"][:10]:
        print(f"#   FAIL {message}")
    for name, value in record["metrics"].items():
        spread = record["samples"].get(name)
        extra = ""
        if spread:
            extra = "  " + " ".join(f"{k}={v:.6g}" for k, v in spread.items() if k not in ("median", "values"))
        unit = units.get(name, "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "")
        print(f"{name:32s} {value:14.6f} {unit}{extra}")
    for name in units.keys() - record["metrics"].keys():
        print(f"warning: metric {name} was not measured", file=sys.stderr)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
            if name in units
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo = Path.cwd().resolve()
    needed = (corpus.CATALOG, Path("src/summaryqa/cli.py"), Path("tests/oracle.py"), Path("fixtures/registry.json"))
    missing = [str(path) for path in needed if not (repo / path).is_file()]
    if missing:
        print(f"error: run from the root of a summaryqa checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))
    import summaryqa

    if not Path(summaryqa.__file__).resolve().is_relative_to(repo / "src"):
        print(f"error: summaryqa was imported from {summaryqa.__file__}, not from this checkout", file=sys.stderr)
        return 2

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: report(run_workload(repo, name, args.seed, args.seconds, args.trace), units) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
