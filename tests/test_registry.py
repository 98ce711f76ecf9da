"""Registry persistence, content-addressed archiving, integrity checks."""

from datetime import date

import pytest

from summaryqa.errors import DuplicateSlug, FetchFailed
from summaryqa.registry import (
    ArchivedCopy,
    DiscoveryChannel,
    DiscoveryProvenance,
    Registry,
    RegistryEntry,
    add_entry,
    archive_fetch,
    attach_archive,
    load_registry,
    object_path,
    registry_from_json,
    registry_to_json,
    save_registry,
    validate_registry,
    verify_archive,
)

from toys import toy_meta


def make_entry(slug="apertus-8b", provider="Swiss AI Initiative", model="Apertus-8B", **kwargs):
    base = dict(
        id=slug,
        meta=toy_meta(provider=provider, model=model),
        discovery=DiscoveryProvenance(
            channel=DiscoveryChannel.MODEL_REPO_PAGE,
            query_or_path="model card README",
            discovered_on=date(2026, 1, 20),
        ),
    )
    base.update(kwargs)
    return RegistryEntry(**base)


class TestRegistry:
    def test_add_entry(self):
        registry = Registry()
        add_entry(registry, make_entry())
        assert registry.slugs() == ["apertus-8b"]

    def test_duplicate_slug_rejected(self):
        registry = Registry()
        add_entry(registry, make_entry())
        with pytest.raises(DuplicateSlug):
            add_entry(registry, make_entry(model="Apertus-70B"))

    def test_add_order_preserved(self):
        registry = Registry()
        for slug in ("smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"):
            add_entry(registry, make_entry(slug=slug, model=slug))
        assert registry.slugs() == ["smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"]

    def test_round_trip(self):
        registry = Registry()
        add_entry(registry, make_entry())
        add_entry(
            registry,
            make_entry(
                slug="bria-3-2",
                model="Bria 3.2",
                archived=ArchivedCopy(
                    fetched_at="2026-01-20T10:00:00Z",
                    content_digest="ab" * 32,
                    media_type="application/pdf",
                    byte_length=12,
                    storage_path="objects/ab/" + "ab" * 32,
                ),
                assessment_refs=("assessments/bria-3-2.csv",),
            ),
        )
        again = registry_from_json(registry_to_json(registry))
        assert again == registry

    def test_empty_archived_digest_reads_as_absent(self):
        registry = Registry(entries=[make_entry()])
        text = registry_to_json(registry)
        assert text.count('"archived_copy_digest": null') == 1
        emptied = text.replace('"archived_copy_digest": null', '"archived_copy_digest": ""')
        assert registry_from_json(emptied) == registry

    def test_serialization_byte_stable(self, tmp_path):
        registry = Registry()
        add_entry(registry, make_entry())
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        first = path.read_bytes()
        save_registry(load_registry(path), path)
        assert path.read_bytes() == first

    def test_validate_clean(self):
        registry = Registry()
        add_entry(registry, make_entry())
        assert validate_registry(registry) == []

    def test_validate_bad_slug_and_url(self):
        registry = Registry(entries=[make_entry(slug="Not A Slug", meta=toy_meta(source_url="nowhere"))])
        codes = {f.code for f in validate_registry(registry)}
        assert codes == {"bad-slug", "bad-source-url"}


class TestArchiveFetch:
    def test_local_file(self, tmp_path):
        source = tmp_path / "summary.md"
        source.write_bytes(b"# disclosure\nhello\n")
        copy = archive_fetch(str(source), tmp_path / "store")
        assert copy.byte_length == len(b"# disclosure\nhello\n")
        assert copy.media_type == "text/markdown"
        stored = tmp_path / "store" / copy.storage_path
        assert stored.read_bytes() == b"# disclosure\nhello\n"
        assert copy.content_digest in copy.storage_path

    def test_idempotent(self, tmp_path):
        source = tmp_path / "summary.txt"
        source.write_bytes(b"same bytes")
        store = tmp_path / "store"
        first = archive_fetch(str(source), store)
        second = archive_fetch(str(source), store)
        assert first.content_digest == second.content_digest
        objects = list((store / "objects").rglob("*"))
        assert len([p for p in objects if p.is_file()]) == 1

    def test_never_overwrites(self, tmp_path):
        source = tmp_path / "summary.txt"
        source.write_bytes(b"pinned")
        store = tmp_path / "store"
        copy = archive_fetch(str(source), store)
        stored = store / copy.storage_path
        before = stored.stat().st_mtime_ns
        archive_fetch(str(source), store)
        assert stored.stat().st_mtime_ns == before

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch(str(tmp_path / "absent.pdf"), tmp_path / "store")

    def test_unreachable_host_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch("http://127.0.0.1:9/none", tmp_path / "store", timeout=0.3)

    def test_unsupported_scheme_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch("ftp://example.org/x", tmp_path / "store")

    def test_file_url(self, tmp_path):
        source = tmp_path / "doc.pdf"
        source.write_bytes(b"%PDF-1.4 fake")
        copy = archive_fetch(source.as_uri(), tmp_path / "store")
        assert copy.media_type == "application/pdf"
        assert (tmp_path / "store" / copy.storage_path).read_bytes() == b"%PDF-1.4 fake"


class TestVerifyArchive:
    def build(self, tmp_path):
        source = tmp_path / "summary.txt"
        source.write_bytes(b"original contents")
        store = tmp_path / "store"
        copy = archive_fetch(str(source), store)
        registry = Registry()
        add_entry(registry, attach_archive(make_entry(), copy))
        return registry, store, copy

    def test_untampered_store_clean(self, tmp_path):
        registry, store, _ = self.build(tmp_path)
        assert verify_archive(registry, store) == []

    def test_flipped_byte_detected(self, tmp_path):
        registry, store, copy = self.build(tmp_path)
        stored = store / copy.storage_path
        data = bytearray(stored.read_bytes())
        data[0] ^= 0xFF
        stored.write_bytes(bytes(data))
        findings = verify_archive(registry, store)
        assert [f.code for f in findings] == ["digest-mismatch"]
        assert findings[0].locus == "apertus-8b"

    def test_missing_object_detected(self, tmp_path):
        registry, store, copy = self.build(tmp_path)
        (store / copy.storage_path).unlink()
        assert [f.code for f in verify_archive(registry, store)] == ["missing-object"]

    def test_entries_without_archive_skipped(self, tmp_path):
        registry = Registry()
        add_entry(registry, make_entry())
        assert verify_archive(registry, tmp_path) == []

    def test_attach_archive_mirrors_digest_into_meta(self, tmp_path):
        registry, _, copy = self.build(tmp_path)
        entry = registry.entries[0]
        assert entry.meta.archived_copy_digest == copy.content_digest

    def test_object_path_layout(self):
        digest = "deadbeef" * 8
        path = object_path("/store", digest)
        assert str(path).endswith(f"objects/de/{digest}")


class TestShippedRegistryFixture:
    def test_lists_the_five_known_summaries(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        registry = load_registry(fixture)
        assert registry.slugs() == ["smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"]
        models = [entry.meta.model for entry in registry.entries]
        assert models == ["SmolLM3-3B", "Apertus", "Bielik v3 11B Instruct", "Phi-4", "Bria 3.2"]
        assert validate_registry(registry) == []
        for entry in registry.entries:
            assert entry.archived is not None
            assert entry.meta.archived_copy_digest == entry.archived.content_digest
            assert entry.assessment_refs == (f"assessments/{entry.id}.csv",)

    def test_fixture_reserializes_byte_identical(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        assert registry_to_json(load_registry(fixture)) == fixture.read_text(encoding="utf-8")
