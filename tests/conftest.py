"""Fixtures shared across test modules."""

import mimetypes

import pytest


@pytest.fixture()
def no_host_mime_tables(monkeypatch):
    """The standard library's ``mimetypes`` as on a host without /etc/mime.types.

    Its built-in table alone does not know ``.md``.
    """
    for name in ("types_map", "encodings_map", "suffix_map", "common_types", "_db"):
        monkeypatch.setattr(mimetypes, name, getattr(mimetypes, name))
    monkeypatch.setattr(mimetypes, "knownfiles", [])
    monkeypatch.setattr(mimetypes, "inited", False)
    monkeypatch.setattr(mimetypes, "_db", None)
