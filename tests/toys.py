"""Small hand-built catalogs/assessments shared across test modules, the
reference catalog, the canonical writers of the catalog and assessment
file formats, which only the tests need, a detail page with one
dangling link, and the in-process command-line runner."""

import csv
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import summaryqa
from summaryqa import cli
from summaryqa.assessment import _CSV_HEADER, _HEADER_REQUIRED, Assessment, Verdict, VerdictValue, applicability_map
from summaryqa.base import Dimension, PublishedForm, Section, SummaryMeta, meta_to_dict
from summaryqa.catalog import ApplicabilityRule, Catalog, Metric, load_catalog

S = VerdictValue.SUFFICIENT
P = VerdictValue.PARTIALLY_SUFFICIENT
I = VerdictValue.INSUFFICIENT
NA = VerdictValue.NOT_APPLICABLE


def toy_metric(
    mid,
    section=Section.DOCUMENT,
    dimension=Dimension.CLARITY,
    weight=1,
    gate=None,
    answer="yes",
    optional=False,
):
    rule = ApplicabilityRule.always() if gate is None else ApplicabilityRule.if_gate(gate, answer)
    return Metric(
        id=mid,
        element_id="1.1.a",
        section=section,
        dimension=dimension,
        weight=Fraction(weight),
        prompt=f"Check {mid}.",
        optional_field=optional,
        applicability=rule,
    )


def toy_catalog(*metrics, name="toy", version="0.1"):
    return Catalog(name, version, tuple(metrics))


def toy_meta(**overrides):
    base = dict(
        provider="ExampleCo",
        model="Example-7B",
        summary_title="Example-7B training content disclosure",
        source_url="https://example.org/summary",
        published_form=PublishedForm.PDF,
        assessed_version_date=date(2026, 1, 12),
        archived_copy_digest=None,
    )
    base.update(overrides)
    return SummaryMeta(**base)


def toy_assessment(catalog, verdicts, **overrides):
    kwargs = dict(meta=toy_meta(), catalog_ref=catalog.ref, verdicts=verdicts, evaluator="eva")
    kwargs.update(overrides)
    return Assessment(**kwargs)


def uniform_assessment(catalog, value, gate_answer="yes"):
    """Every applicable metric gets the same verdict; gates all answer alike.

    Metrics switched off by the gate answers are recorded as explicit
    not-applicable so the result satisfies the assessment invariants.
    """
    gate_ids = {
        m.applicability.gate_metric_id for m in catalog.metrics if m.applicability.gate_metric_id is not None
    }
    verdicts = {}
    for m in catalog.metrics:
        note = f"gate={gate_answer}" if m.id in gate_ids else ""
        verdicts[m.id] = Verdict(value, note)
    draft = toy_assessment(catalog, verdicts)
    amap = applicability_map(catalog, draft)
    fixed = {mid: v if amap[mid] else Verdict(NA, v.note) for mid, v in verdicts.items()}
    return toy_assessment(catalog, fixed)


def with_verdict(assessment, metric_id, verdict):
    """The assessment with one verdict recorded or replaced."""
    return assessment._replace(verdicts={**assessment.verdicts, metric_id: verdict})


def applicable_metrics(catalog, assessment):
    """Ids of the metrics that count toward scoring, in catalog order."""
    amap = applicability_map(catalog, assessment)
    return [m.id for m in catalog.metrics if amap[m.id]]


def letter_rank(scale, letter):
    """Position of a grade letter in the scale; 0 is the best."""
    return [name for name, _ in scale.bands].index(letter)


def reference_catalog_path():
    """Path of the reference catalog shipped with the package."""
    return Path(summaryqa.__file__).parent / "data" / "reference_catalog.txt"


def load_reference_catalog():
    return load_catalog(reference_catalog_path())


class CliResult(NamedTuple):
    """What one in-process command line gave: its exit status and the text of each stream."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run_cli(*args: str) -> CliResult:
    """Run ``summaryqa ARGS`` in-process as the benchmark's replay does, through ``cli.main`` outside standalone
    mode, with stdout and stderr read into text buffers.  An exception the command line does not turn into a
    status propagates, so it fails the test that met it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = cli.main(list(args), standalone_mode=False)
    return CliResult(status, stdout.getvalue(), stderr.getvalue())


def link_dangling_from(monkeypatch, slug):
    """Make the site's detail page of ``slug`` also link to ``weights.html``, a file no build writes.

    ``summaryqa.site._detail_page`` is wrapped: the link is recorded as the
    build records every link, and the page holds it before ``</body>``.
    """
    from summaryqa import site

    detail_page = site._detail_page

    def with_dangling_link(card, entry, archive_file, hrefs):
        page = detail_page(card, entry, archive_file, hrefs)
        if entry.id != slug:
            return page
        return page.replace("</body>", f"<p>{site._anchor(hrefs, 'weights.html', 'Weights')}</p>\n</body>")

    monkeypatch.setattr(site, "_detail_page", with_dangling_link)


def header_value(value, what):
    """``value`` for a ``key: value`` line; ValueError if it spans lines."""
    if "\n" in value or "\r" in value:
        raise ValueError(f"{what} must not contain line breaks: {value!r}")
    return value


def dumps_catalog(catalog):
    """Serialize to the canonical catalog file format (stable, diffable)."""
    out = io.StringIO()
    out.write(f"catalog: {header_value(catalog.name, 'catalog name')}\n")
    out.write(f"version: {header_value(catalog.version, 'catalog version')}\n")
    for metric in catalog.metrics:
        rule = metric.applicability
        out.write("\n")
        out.write(f"id: {header_value(metric.id, 'metric id')}\n")
        out.write(f"element_id: {header_value(metric.element_id, 'element id')}\n")
        out.write(f"section: {metric.section.code}\n")
        out.write(f"dimension: {metric.dimension.code}\n")
        out.write(f"weight: {metric.weight}\n")
        out.write(f"prompt: {header_value(metric.prompt, 'prompt')}\n")
        out.write(f"optional_field: {'true' if metric.optional_field else 'false'}\n")
        if rule.gate_metric_id is None:
            out.write("applicability: always\n")
        else:
            out.write(f"applicability: if {rule.gate_metric_id} = {rule.required_answer}\n")
    return out.getvalue()


def dumps_assessment(assessment):
    """Serialize to the canonical assessment file format.

    Header fields are single-line; verdict notes may contain anything CSV
    can quote (commas, quotes, even line breaks).
    """
    header = {
        **meta_to_dict(assessment.meta),
        "catalog_ref": assessment.catalog_ref,
        "evaluator": assessment.evaluator,
        "verifier": assessment.verifier,
    }
    out = io.StringIO()
    for key, value in header.items():
        if value or key in _HEADER_REQUIRED:
            out.write(f"{key}: {header_value(value, key)}\n")
    out.write("\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for metric_id, verdict in assessment.verdicts.items():
        writer.writerow([metric_id, verdict.value.token, verdict.note])
    return out.getvalue()
