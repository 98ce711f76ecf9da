"""Quality assessment of GPAI training-content public summaries.

Rubric catalogs, per-summary assessments, weighted/normalized transparency
and usefulness scoring with letter grades, a registry of discovered
summaries with pinned archived copies, and report/static-site generation.
Importing the package, as ``python -m summaryqa`` does, loads no layer.
"""

__version__ = "0.1.0"
