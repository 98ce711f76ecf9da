"""Static site build: page counts, link integrity, reproducibility, fail-closed publishing."""

import gc
import random
from datetime import date
from html.parser import HTMLParser
from pathlib import Path

import pytest

from summaryqa import reporting, site
from summaryqa.errors import Refused
from summaryqa.registry import (
    DiscoveryChannel,
    DiscoveryProvenance,
    Registry,
    RegistryEntry,
    add_entry,
    archive_fetch,
    attach_archive,
    load_registry,
    save_registry,
)
from summaryqa.assessment import load_assessment
from summaryqa.reporting import (
    AggregationConfig,
    OverallAggregation,
    SectionAggregation,
    format_percentage,
    load_scorecard,
    scorecard_to_json,
)
from summaryqa.scoring import score_summary
from summaryqa.site import SiteConfig, SitePlan, build_site, check_links

from randgen import random_assessment, random_catalog
from toys import link_dangling_from, load_reference_catalog, run_cli, toy_meta


REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def write_cards(cards, directory):
    """Each card as ``<directory>/card-NN.scorecard.json``, in order; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, card in enumerate(cards):
        path = directory / f"card-{i:02d}.scorecard.json"
        path.write_text(scorecard_to_json(card), encoding="utf-8")
        paths.append(path)
    return paths


def synthetic_inputs(count, directory, seed=2026):
    """A registry of ``count`` entries and one score card file per entry."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, min_metrics=25, max_metrics=40)
    registry = Registry()
    cards = []
    for i in range(count):
        slug = f"model-{i}"
        assessment = random_assessment(rng, catalog)
        meta = toy_meta(provider=f"Provider {i}", model=f"Model-{i}")
        assessment = type(assessment)(
            meta=meta,
            catalog_ref=assessment.catalog_ref,
            verdicts=assessment.verdicts,
            evaluator="eva",
        )
        add_entry(
            registry,
            RegistryEntry(
                id=slug,
                meta=meta,
                discovery=DiscoveryProvenance(
                    channel=DiscoveryChannel.SEARCH_ENGINE,
                    query_or_path="training content disclosure",
                    discovered_on=date(2026, 1, 20),
                ),
            ),
        )
        cards.append(score_summary(catalog, assessment))
    return registry, write_cards(cards, directory)


@pytest.fixture()
def site_inputs(tmp_path):
    return synthetic_inputs(5, tmp_path / "cards")


def no_staging_left(parent):
    return list(parent.glob(".*.staging-*")) == []


class TestBuildSite:
    def test_five_cards_six_pages_five_exports(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        html_pages = list((tmp_path / "site").rglob("*.html"))
        exports = list((tmp_path / "site").rglob("scorecard.json"))
        assert len(html_pages) == 6
        assert len(exports) == 5
        assert plan.pages == ("index.html", *(f"summaries/model-{i}/index.html" for i in range(5)))

    def test_zero_cards_index_only(self, site_inputs, tmp_path):
        registry, _ = site_inputs
        plan = build_site(registry, [], SiteConfig(output_root=tmp_path / "site"))
        assert plan.pages == ("index.html",)
        assert (tmp_path / "site" / "index.html").exists()
        assert not (tmp_path / "site" / "summaries").exists()

    def test_unmatched_card_rejected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        registry.entries.pop()
        with pytest.raises(Refused, match="^no registry entry for provider="):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))

    def test_routes_unique_and_stable(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        routes = plan.pages
        assert len(routes) == len(set(routes))
        assert "summaries/model-0/index.html" in routes

    def test_index_links_to_details(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        index = (tmp_path / "site" / "index.html").read_text()
        for entry in registry.entries:
            assert f'href="summaries/{entry.id}/"' in index

    def test_detail_shows_values_and_source_link(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        detail = (tmp_path / "site" / "summaries" / "model-0" / "index.html").read_text()
        card = load_scorecard(cards[0])
        for value in card.per_section_group.values():
            assert format_percentage(value) in detail
        assert card.meta.source_url in detail
        assert "scorecard.json" in detail

    def test_site_never_recomputes(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        exported = tmp_path / "site" / "summaries" / "model-0" / "scorecard.json"
        assert exported.read_bytes() == cards[0].read_bytes()

    def test_reproducible_builds(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        config_a = SiteConfig(output_root=tmp_path / "a")
        config_b = SiteConfig(output_root=tmp_path / "b")
        build_site(registry, cards, config_a)
        build_site(registry, cards, config_b)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_archived_copy_published_when_store_given(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        source = tmp_path / "copy.pdf"
        source.write_bytes(b"%PDF-1.4 archived summary")
        store = tmp_path / "store"
        copy = archive_fetch(str(source), store)
        registry.entries[0] = attach_archive(registry.entries[0], copy)
        # Keep the matching card's meta in sync with the registry mutation.
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site", store_root=store))
        page_dir = tmp_path / "site" / "summaries" / "model-0"
        published = list(page_dir.glob("archived-*"))
        assert len(published) == 1
        assert published[0].read_bytes() == source.read_bytes()
        detail = (page_dir / "index.html").read_text()
        assert published[0].name in detail


class TestCheckLinks:
    def test_fresh_build_clean(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert check_links(plan) == []

    def test_deleted_detail_page_detected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        (tmp_path / "site" / "summaries" / "model-3" / "index.html").unlink()
        findings = check_links(plan)
        assert findings
        assert all(f.code == "broken-link" for f in findings)
        assert any("model-3" in f.message for f in findings)

    def test_deleted_export_detected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        (tmp_path / "site" / "summaries" / "model-1" / "scorecard.json").unlink()
        findings = check_links(plan)
        assert [f.code for f in findings] == ["broken-link"]
        assert findings[0].locus == "summaries/model-1/index.html"


# ---------------------------------------------------------------------------
# The links the plan records are the links the pages hold
# ---------------------------------------------------------------------------

class _PageLinks(HTMLParser):
    """Link targets of one page, read back from its HTML."""

    def __init__(self):
        super().__init__()
        self.targets = []

    def handle_starttag(self, tag, attrs):
        wanted = {"a": "href", "link": "href", "img": "src", "script": "src"}.get(tag)
        self.targets += [value for name, value in attrs if name == wanted and value]


def parsed_links(root):
    """Sorted (route, href) of every link in every page under ``root``; archived copies are not pages."""
    found = []
    for page in sorted(root.rglob("*.html")):
        if page.name.startswith("archived-"):
            continue
        collector = _PageLinks()
        collector.feed(page.read_text(encoding="utf-8"))
        collector.close()
        found += [(page.relative_to(root).as_posix(), href) for href in collector.targets]
    return sorted(found)


def rewrite_card(path, **changes):
    path.write_text(scorecard_to_json(load_scorecard(path)._replace(**changes)), encoding="utf-8")


@pytest.fixture()
def fixture_site_inputs(tmp_path):
    """The shipped registry and assessments, and a store of the shipped sources."""
    catalog = load_reference_catalog()
    cards = [
        score_summary(catalog, load_assessment(path, catalog, date(2026, 1, 31)))
        for path in sorted((FIXTURES / "assessments").glob("*.csv"))
    ]
    store = tmp_path / "store"
    for source in sorted((FIXTURES / "sources").iterdir()):
        archive_fetch(str(source), store)
    return load_registry(FIXTURES / "registry.json"), write_cards(cards, tmp_path / "cards"), store


class TestPlanLinks:
    def test_fixture_site(self, fixture_site_inputs, tmp_path):
        registry, cards, store = fixture_site_inputs
        config = SiteConfig(output_root=tmp_path / "site", store_root=store)
        plan = build_site(registry, cards, config)
        assert len(list((tmp_path / "site").rglob("archived-*"))) == 5
        assert parsed_links(tmp_path / "site") == sorted(plan.links)
        assert check_links(plan) == []

    def test_fifty_card_site(self, tmp_path):
        registry, cards = synthetic_inputs(50, tmp_path / "cards", seed=50)
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert len(plan.pages) == 51
        assert parsed_links(tmp_path / "site") == sorted(plan.links)
        assert check_links(plan) == []


class TestOneDecodedCardAtATime:
    """``site`` and ``compare`` keep each card's comparison column, not the card, while they read the next."""

    @staticmethod
    def track(monkeypatch, module, decoder, renderer):
        """Count the decoded cards still alive each time ``renderer`` is called.

        A card is a tuple, which takes no weak reference, so the live cards
        are found among the objects the collector tracks; each decoded card
        is checked to be one of them.
        """
        refs, alive = [], []
        decode, render = getattr(module, decoder), getattr(module, renderer)

        def decode_and_track(*args):
            card = decode(*args)
            assert gc.is_tracked(card)
            refs.append(id(card))
            return card

        def render_after_collect(*args, **kwargs):
            gc.collect()
            decoded = set(refs)
            alive.append(sum(type(o) is reporting.ScoreCard and id(o) in decoded for o in gc.get_objects()))
            return render(*args, **kwargs)

        monkeypatch.setattr(module, decoder, decode_and_track)
        monkeypatch.setattr(module, renderer, render_after_collect)
        return refs, alive

    def test_site(self, tmp_path, monkeypatch):
        registry, cards = synthetic_inputs(50, tmp_path / "cards", seed=50)
        refs, alive = self.track(monkeypatch, site, "scorecard_from_json", "comparison_table_html")
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert len(refs) == 50
        assert len(alive) == 1 and alive[0] <= 1

    def test_compare(self, tmp_path, monkeypatch):
        synthetic_inputs(50, tmp_path / "cards", seed=50)
        refs, alive = self.track(monkeypatch, reporting, "load_scorecard", "render_comparison")
        result = run_cli("compare", str(tmp_path / "cards"))
        assert result.exit_code == 0, result.output
        assert len(refs) == 50
        assert len(alive) == 1 and alive[0] <= 1


# ---------------------------------------------------------------------------
# Publishing: the whole staged tree, or nothing
# ---------------------------------------------------------------------------


class TestPublishing:
    def test_rebuild_prunes_a_removed_card(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        config = SiteConfig(output_root=tmp_path / "site")
        build_site(registry, cards, config)
        plan = build_site(registry, cards[:-1], config)
        assert not (tmp_path / "site" / "summaries" / "model-4").exists()
        assert 'href="summaries/model-4/"' not in (tmp_path / "site" / "index.html").read_text()
        assert len(plan.pages) == 5
        assert no_staging_left(tmp_path)

    def test_tampered_object_publishes_nothing(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        source = tmp_path / "copy.pdf"
        source.write_bytes(b"%PDF-1.4 archived summary")
        store = tmp_path / "store"
        copy = archive_fetch(str(source), store)
        registry.entries[2] = attach_archive(registry.entries[2], copy)
        with (store / copy.storage_path).open("ab") as handle:
            handle.write(b" appended")
        with pytest.raises(Refused, match="model-2"):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site", store_root=store))
        assert not (tmp_path / "site").exists()
        assert no_staging_left(tmp_path)

    def test_broken_link_keeps_the_previous_site(self, site_inputs, tmp_path, monkeypatch):
        registry, cards = site_inputs
        config = SiteConfig(output_root=tmp_path / "site")
        build_site(registry, cards, config)
        published = tree_bytes(tmp_path / "site")
        link_dangling_from(monkeypatch, "model-1")
        with pytest.raises(Refused, match=r"^1 broken link\(s\)$") as refused:
            build_site(registry, cards[:2], config)
        assert [(f.code, f.locus) for f in refused.value.findings] == [
            ("broken-link", "summaries/model-1/index.html")
        ]
        assert tree_bytes(tmp_path / "site") == published
        assert no_staging_left(tmp_path)

    def test_link_that_leaves_the_site_is_broken(self, tmp_path):
        (tmp_path / "outside.html").write_text("<p>not part of the site</p>")
        (tmp_path / "site").mkdir()
        plan = SitePlan(tmp_path / "site", ("index.html",), (("index.html", "../outside.html"),))
        assert [(f.code, f.locus, f.message) for f in check_links(plan)] == [
            ("broken-link", "index.html", "target '../outside.html' does not resolve to a file of the site")
        ]

    @pytest.mark.parametrize("slug", ["../../escaped", "abc\n", "Model-0"])
    def test_unsafe_slug_refused(self, site_inputs, tmp_path, slug):
        registry, cards = site_inputs
        registry.entries[0] = registry.entries[0]._replace(id=slug)
        out = tmp_path / "out"
        with pytest.raises(Refused, match=r"^registry has 1 finding\(s\), first bad-slug at ") as refused:
            build_site(registry, cards, SiteConfig(output_root=out / "site"))
        assert [(f.code, f.locus) for f in refused.value.findings] == [("bad-slug", slug)]
        assert [p for p in tmp_path.rglob("*") if "cards" not in p.parts] == [out]

    def test_storage_path_outside_the_store_refused(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        secret = tmp_path / "secret.pdf"
        secret.write_bytes(b"%PDF-1.4 not in the store")
        store = tmp_path / "store"
        copy = archive_fetch(str(secret), store)
        registry.entries[1] = attach_archive(registry.entries[1], copy)
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        out = tmp_path / "out"
        args = ["--out", str(out), "site", "--registry", str(path), "--cards", str(cards[0].parent), "--store", str(store)]
        assert run_cli(*args).exit_code == 0
        published = tree_bytes(out / "site")
        path.write_text(path.read_text().replace(f'"{copy.storage_path}"', '"../secret.pdf"'))
        result = run_cli(*args)
        assert result.exit_code == 1
        reason = f"archived.storage_path must be {copy.storage_path!r}, got '../secret.pdf'"
        assert f"Error: {path}: {reason}\n" in result.output
        assert tree_bytes(out / "site") == published
        assert no_staging_left(out)

    def test_two_cards_for_one_entry_refused(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        with pytest.raises(Refused, match="model-0"):
            build_site(registry, [*cards, cards[0]], SiteConfig(output_root=tmp_path / "site"))
        assert not (tmp_path / "site").exists()

    def test_same_model_name_links_to_each_slug(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        entry = registry.entries[1]
        registry.entries[1] = entry._replace(meta=entry.meta._replace(model="Model-0"))
        rewrite_card(cards[1], meta=registry.entries[1].meta)
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        index = [href for route, href in plan.links if route == "index.html"]
        assert index == [f"summaries/model-{i}/" for i in range(5)]
        assert parsed_links(tmp_path / "site") == sorted(plan.links)

    def test_script_source_url_keeps_the_previous_site(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        published = tree_bytes(tmp_path / "site")
        card = load_scorecard(cards[2])
        rewrite_card(cards[2], meta=card.meta._replace(source_url="javascript:alert(document.cookie)"))
        with pytest.raises(Refused, match="source_url 'javascript:alert\\(document.cookie\\)' is not well-formed"):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert tree_bytes(tmp_path / "site") == published
        assert no_staging_left(tmp_path)

    def test_card_pinning_an_unrecorded_archived_copy_keeps_the_previous_site(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        published = tree_bytes(tmp_path / "site")
        card = load_scorecard(cards[1])
        rewrite_card(cards[1], meta=card.meta._replace(archived_copy_digest="ab" * 32))
        unrecorded = r"pins archived copy abababababab\.\.\., registry entry 'model-1' records no archived copy$"
        with pytest.raises(Refused, match=unrecorded):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert tree_bytes(tmp_path / "site") == published
        assert no_staging_left(tmp_path)

    def test_mixed_configurations_refused(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        mean = AggregationConfig(SectionAggregation.MEAN_OF_DIMENSIONS, OverallAggregation.MEAN_OF_SECTIONS)
        rewrite_card(cards[3], config_used=mean)
        with pytest.raises(Refused, match="different configurations"):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert not (tmp_path / "site").exists()
        assert no_staging_left(tmp_path)
