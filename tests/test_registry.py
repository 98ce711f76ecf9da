"""Registry persistence, content-addressed archiving, integrity checks."""

import hashlib
import json
import re
import threading
from datetime import date
from pathlib import Path
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from summaryqa.errors import FetchFailed, Malformed, Refused, WriteFailed
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
    recorded_url,
    registry_from_json,
    registry_to_json,
    save_registry,
    validate_registry,
    verify_archive,
)
from summaryqa.site import _archive_name

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
        assert [e.id for e in registry.entries] == ["apertus-8b"]

    def test_duplicate_slug_rejected(self):
        registry = Registry()
        add_entry(registry, make_entry())
        with pytest.raises(Refused, match="^registry already contains slug 'apertus-8b'$"):
            add_entry(registry, make_entry(model="Apertus-70B"))

    def test_second_entry_of_one_summary_refused_as_validate_reports_it(self):
        registry = Registry()
        add_entry(registry, make_entry())
        second = make_entry(slug="apertus-8b-again")
        [finding] = validate_registry(Registry(entries=[*registry.entries, second]))
        assert finding.code == "duplicate-summary"
        with pytest.raises(Refused) as exc:
            add_entry(registry, second)
        assert str(exc.value) == finding.message
        assert finding.message == "provider 'Swiss AI Initiative' and model 'Apertus-8B' are already registered as 'apertus-8b'"
        assert [e.id for e in registry.entries] == ["apertus-8b"]

    def test_each_registry_has_its_own_entries(self):
        first, second = Registry(), Registry()
        add_entry(first, make_entry())
        assert second.entries == []

    def test_add_order_preserved(self):
        registry = Registry()
        for slug in ("smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"):
            add_entry(registry, make_entry(slug=slug, model=slug))
        assert [e.id for e in registry.entries] == ["smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"]

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

    @pytest.mark.parametrize("text", ["20260120", "2026-W04-2", "2026W042"])
    def test_discovery_date_in_another_iso_form_is_malformed(self, text):
        # Python 3.11's date.fromisoformat reads these as dates; 3.10's does not.
        data = json.loads(registry_to_json(Registry(entries=[make_entry()])))
        data["entries"][0]["discovery"]["discovered_on"] = text
        with pytest.raises(Malformed, match=f"^Invalid isoformat string: '{text}'$"):
            registry_from_json(json.dumps(data))

    def test_serialization_byte_stable(self, tmp_path):
        registry = Registry()
        add_entry(registry, make_entry())
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        first = path.read_bytes()
        save_registry(load_registry(path), path)
        assert path.read_bytes() == first

    def test_validate_reports_a_slug_shared_by_two_summaries(self):
        registry = Registry(entries=[make_entry(), make_entry(model="Apertus-70B")])
        assert [(f.code, f.locus, f.message) for f in validate_registry(registry)] == [
            ("duplicate-slug", "apertus-8b", "slug occurs more than once")
        ]

    def test_validate_clean(self):
        registry = Registry()
        add_entry(registry, make_entry())
        assert validate_registry(registry) == []

    def test_validate_bad_slug_and_url(self):
        registry = Registry(entries=[make_entry(slug="Not A Slug", meta=toy_meta(source_url="nowhere"))])
        codes = {f.code for f in validate_registry(registry)}
        assert codes == {"bad-slug", "bad-source-url"}

    @pytest.mark.parametrize(
        "url", ["javascript:alert(document.cookie)", "data:text/html,x", "https:///no-host", "http://[unclosed"]
    )
    def test_validate_url_outside_the_rule(self, url):
        registry = Registry(entries=[make_entry(meta=toy_meta(source_url=url))])
        assert [(f.code, f.message) for f in validate_registry(registry)] == [
            ("bad-source-url", f"source_url {url!r} is not well-formed")
        ]

    @pytest.mark.parametrize("slug", ["apertus-8b\n", "../../escaped", "-apertus", ""])
    def test_validate_slug_must_be_whole(self, slug):
        registry = Registry(entries=[make_entry(slug=slug)])
        assert [f.code for f in validate_registry(registry)] == ["bad-slug"]


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

    def test_corrupt_stored_object_is_refused(self, tmp_path):
        source = tmp_path / "summary.txt"
        source.write_bytes(b"pinned")
        store = tmp_path / "store"
        stored = store / archive_fetch(str(source), store).storage_path
        stored.write_bytes(b"pinned, then altered")
        with pytest.raises(WriteFailed, match=f"stored object {re.escape(str(stored))} hashes to .*never overwritten"):
            archive_fetch(str(source), store)
        assert stored.read_bytes() == b"pinned, then altered"
        stored.unlink()
        stored.mkdir()
        with pytest.raises(WriteFailed, match="cannot read stored object"):
            archive_fetch(str(source), store)

    def test_recorded_url(self, tmp_path):
        source = tmp_path / "summary.md"
        assert recorded_url(str(source)) == source.resolve().as_uri()
        assert recorded_url(source.as_uri()) == source.as_uri()
        assert recorded_url("https://example.org/summary") == "https://example.org/summary"

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch(str(tmp_path / "absent.pdf"), tmp_path / "store")

    def test_unreachable_host_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch("http://127.0.0.1:9/none", tmp_path / "store", timeout=0.3)

    @pytest.mark.parametrize(
        "url",
        [
            "http://127.0.0.1:9/r\u00e9sum\u00e9", "http://127.0.0.1:9/bad\udcff", "http://127.0.0.1:9/a b",
            "http://127.0.0.1:x/", "http://[unclosed",
        ],
        ids=["non-ascii", "not-utf8", "space", "port", "unclosed-bracket"],
    )
    def test_url_that_cannot_be_requested_fails(self, tmp_path, url):
        """Refused while the request is built, before any connection: no network is needed."""
        with pytest.raises(FetchFailed):
            archive_fetch(url, tmp_path / "store", timeout=0.3)
        assert not (tmp_path / "store").exists()
        if "[" in url:
            with pytest.raises(FetchFailed, match="Invalid IPv6 URL"):
                recorded_url(url)

    def test_timeout_is_taken_up_to_what_a_socket_holds(self, tmp_path):
        """``archive`` refuses every other timeout (tests/test_cli.py); the largest one a socket holds is taken."""
        source = tmp_path / "summary.txt"
        source.write_bytes(b"original contents")
        copy = archive_fetch(str(source), tmp_path / "store", timeout=threading.TIMEOUT_MAX)
        assert (tmp_path / "store" / copy.storage_path).read_bytes() == b"original contents"
        with pytest.raises(Refused, match=f"^timeout must be above 0 and at most {threading.TIMEOUT_MAX:.0f} seconds"):
            archive_fetch(str(source), tmp_path / "store", timeout=threading.TIMEOUT_MAX * 1.01)

    def test_unsupported_scheme_fails(self, tmp_path):
        with pytest.raises(FetchFailed):
            archive_fetch("ftp://example.org/x", tmp_path / "store")

    def test_file_url(self, tmp_path):
        source = tmp_path / "doc.pdf"
        source.write_bytes(b"%PDF-1.4 fake")
        copy = archive_fetch(source.as_uri(), tmp_path / "store")
        assert copy.media_type == "application/pdf"
        assert (tmp_path / "store" / copy.storage_path).read_bytes() == b"%PDF-1.4 fake"


class _Handler(BaseHTTPRequestHandler):
    """Serves ``/summary.md`` with 200 and answers any other path with the status it names."""

    BODY = b"# disclosure\nserved over http\n"

    def do_GET(self):
        if self.path == "/summary.md":
            self.send_response(200)
            self.send_header("Content-Type", "text/markdown; charset=utf-8")
            self.send_header("Content-Length", str(len(self.BODY)))
            self.end_headers()
            self.wfile.write(self.BODY)
        else:
            self.send_error(int(self.path.strip("/")))

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_base():
    """The base URL of a server on a free loopback port, for the test's duration."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # A short poll, so that shutdown() does not wait out the default half second.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestArchiveFetchHttp:
    def test_ok_reply_is_stored_under_its_digest_with_the_served_type(self, tmp_path, http_base):
        store = tmp_path / "store"
        copy = archive_fetch(f"{http_base}/summary.md", store, timeout=5)
        digest = hashlib.sha256(_Handler.BODY).hexdigest()
        assert copy.content_digest == digest
        assert copy.media_type == "text/markdown"
        assert copy.byte_length == len(_Handler.BODY)
        assert object_path(store, digest).read_bytes() == _Handler.BODY

    @pytest.mark.parametrize("status,reason", [(404, "Not Found"), (503, "Service Unavailable")])
    def test_error_reply_fails(self, tmp_path, http_base, status, reason):
        url = f"{http_base}/{status}"
        with pytest.raises(FetchFailed, match=f"^{re.escape(url)}: {reason}$"):
            archive_fetch(url, tmp_path / "store", timeout=5)
        assert not (tmp_path / "store").exists()


@pytest.mark.usefixtures("no_host_mime_tables")
class TestMediaTypes:
    @pytest.mark.parametrize(
        "name,media_type",
        [
            ("summary.html", "text/html"),
            ("summary.htm", "text/html"),
            ("summary.pdf", "application/pdf"),
            ("summary.md", "text/markdown"),
            ("SUMMARY.MD", "text/markdown"),
            ("summary.txt", "text/plain"),
            ("summary.json", "application/octet-stream"),
            ("summary", "application/octet-stream"),
        ],
    )
    def test_local_file_type_from_fixed_table(self, tmp_path, name, media_type):
        source = tmp_path / name
        source.write_bytes(b"bytes")
        assert archive_fetch(str(source), tmp_path / "store").media_type == media_type

    @pytest.mark.parametrize(
        "media_type,suffix",
        [
            ("text/html", ".txt"),
            ("application/pdf", ".pdf"),
            ("text/markdown", ".md"),
            ("text/plain", ".txt"),
            ("application/octet-stream", ".bin"),
            ("application/json", ".bin"),
        ],
    )
    def test_suffix_from_fixed_table(self, media_type, suffix):
        # The site publishes an archived copy under a suffix chosen by its media
        # type; HTML is published as text, so its scripts never run on the site.
        digest = "ab" * 32
        archived = ArchivedCopy("2026-01-20T10:00:00Z", digest, media_type, 12)
        assert _archive_name(make_entry(archived=archived)) == f"archived-{digest[:12]}{suffix}"


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

    @pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="no /proc/self/mem on this system")
    def test_object_whose_read_fails_in_the_os_is_a_finding(self, tmp_path):
        """``/proc/self/mem`` is a file whose read from its start fails with EIO."""
        registry, store, copy = self.build(tmp_path)
        (store / copy.storage_path).unlink()
        (store / copy.storage_path).symlink_to("/proc/self/mem")
        [finding] = verify_archive(registry, store)
        assert finding.code == "unreadable-object"
        assert finding.message.startswith(f"archived object {copy.storage_path} cannot be read: [Errno ")

    def test_store_named_through_a_symlink_or_relative_path_is_clean(self, tmp_path, monkeypatch):
        registry, store, _ = self.build(tmp_path)
        (tmp_path / "link").symlink_to(store, target_is_directory=True)
        assert verify_archive(registry, tmp_path / "link") == []
        monkeypatch.chdir(tmp_path)
        assert verify_archive(registry, "store") == []

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
        copy = ArchivedCopy("2026-01-20T00:00:00Z", digest, "text/plain", 1)
        assert copy.storage_path == f"objects/de/{digest}"
        assert path == Path("/store") / copy.storage_path


class TestShippedRegistryFixture:
    def test_lists_the_five_known_summaries(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        registry = load_registry(fixture)
        assert [e.id for e in registry.entries] == ["smollm3-3b", "apertus", "bielik-v3-11b", "phi-4", "bria-3-2"]
        models = [entry.meta.model for entry in registry.entries]
        assert models == ["SmolLM3-3B", "Apertus", "Bielik v3 11B Instruct", "Phi-4", "Bria 3.2"]
        assert validate_registry(registry) == []
        for entry in registry.entries:
            assert entry.archived is not None
            assert entry.meta.archived_copy_digest == entry.archived.content_digest
            assert entry.assessment_refs == (f"assessments/{entry.id}.csv",)

    def test_nul_in_storage_path_is_malformed(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        text = fixture.read_text(encoding="utf-8")
        text = text.replace('"storage_path": "objects/', '"storage_path": "objects\\u0000/', 1)
        digest = "54d53e45dad3af909707fd73824b978de5f0687c32a4a17192bb1afa08270f43"
        reason = f"archived.storage_path must be 'objects/54/{digest}', got 'objects\\x00/54/{digest}'"
        with pytest.raises(Malformed, match=f"^{re.escape(reason)}$"):
            registry_from_json(text)

    @pytest.mark.parametrize(
        "field,value,reason",
        [
            (
                "archived.storage_path",
                "objects/00/" + "00" * 32,
                "archived.storage_path must be 'objects/54/54d53e45dad3af909707fd73824b978de5f0687c32a4a17192bb1afa08270f43', "
                f"got 'objects/00/{'00' * 32}'",
            ),
            (
                "meta.archived_copy_digest",
                "ab" * 32,
                f"meta.archived_copy_digest must be archived.content_digest or absent, got '{'ab' * 32}'",
            ),
            (
                "archived",
                None,
                "meta.archived_copy_digest must be archived.content_digest or absent, "
                "got '54d53e45dad3af909707fd73824b978de5f0687c32a4a17192bb1afa08270f43'",
            ),
        ],
        ids=["another-object", "another-meta-digest", "meta-digest-without-a-copy"],
    )
    def test_copies_of_the_archived_digest_must_agree(self, field, value, reason):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        data = json.loads(fixture.read_text(encoding="utf-8"))
        node = data["entries"][0]
        *parents, key = field.split(".")
        for parent in parents:
            node = node[parent]
        node[key] = value
        with pytest.raises(Malformed, match=f"^{re.escape(reason)}$"):
            registry_from_json(json.dumps(data))

    def test_pins_run_after_every_other_check(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        data = json.loads(fixture.read_text(encoding="utf-8"))
        data["entries"][0]["archived"]["storage_path"] = "../outside.md"
        data["entries"][1]["id"] = 5
        with pytest.raises(Malformed, match="^id must be a string, got 5$"):
            registry_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "refs,reason",
        [
            ("assessments/x.csv", "assessment_refs must be a list of strings, got 'assessments/x.csv'"),
            (["assessments/x.csv", 5], "assessment_refs[1] must be a string, got 5"),
            (None, "assessment_refs must be a list of strings, got None"),
        ],
        ids=["string", "list-with-a-number", "null"],
    )
    def test_assessment_refs_must_be_a_list_of_strings(self, refs, reason):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        data = json.loads(fixture.read_text(encoding="utf-8"))
        data["entries"][0]["assessment_refs"] = refs
        with pytest.raises(Malformed, match=re.escape(reason)):
            registry_from_json(json.dumps(data))

    def test_absent_assessment_refs_read_as_empty(self):
        registry = Registry()
        add_entry(registry, make_entry())
        data = json.loads(registry_to_json(registry))
        del data["entries"][0]["assessment_refs"]
        assert registry_from_json(json.dumps(data)).entries[0].assessment_refs == ()

    def test_fixture_reserializes_byte_identical(self):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "registry.json"
        assert registry_to_json(load_registry(fixture)) == fixture.read_text(encoding="utf-8")
