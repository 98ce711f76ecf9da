"""Quality assessment of GPAI training-content public summaries.

Rubric catalogs, per-summary assessments, weighted/normalized transparency
and usefulness scoring with letter grades, a registry of discovered
summaries with pinned archived copies, and report/static-site generation.

The public names below are imported from their module on first access
(PEP 562), so importing the package, as ``python -m summaryqa`` does, loads
no layer.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Assessment",
            "Verdict",
            "VerdictValue",
            "dumps_assessment",
            "load_assessment",
        ),
        "assessment",
    ),
    **dict.fromkeys(("PublishedForm", "SummaryMeta"), "base"),
    **dict.fromkeys(
        (
            "ApplicabilityRule",
            "Catalog",
            "Dimension",
            "Group",
            "Metric",
            "Section",
            "dumps_catalog",
            "load_catalog",
            "load_reference_catalog",
            "section_counts",
            "validate_catalog",
        ),
        "catalog",
    ),
    **dict.fromkeys(
        (
            "AggregationConfig",
            "DEFAULT_GRADE_SCALE",
            "GradeScale",
            "ScoreCard",
            "ScoreValue",
            "assign_grade",
            "score_summary",
        ),
        "scoring",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
