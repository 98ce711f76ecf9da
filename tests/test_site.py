"""Static site build: page counts, link integrity, reproducibility."""

import random
from datetime import date

import pytest

from summaryqa.errors import UnmatchedScoreCard
from summaryqa.registry import (
    DiscoveryChannel,
    DiscoveryProvenance,
    Registry,
    RegistryEntry,
    add_entry,
    archive_fetch,
    attach_archive,
)
from summaryqa.scoring import score_summary
from summaryqa.site import PageKind, SiteConfig, build_site, check_links

from randgen import random_assessment, random_catalog
from toys import toy_meta


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture()
def site_inputs():
    rng = random.Random(2026)
    catalog = random_catalog(rng, min_metrics=25, max_metrics=40)
    registry = Registry()
    cards = []
    for i in range(5):
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
    return registry, cards


class TestBuildSite:
    def test_five_cards_six_pages_five_exports(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        html_pages = list((tmp_path / "site").rglob("*.html"))
        exports = list((tmp_path / "site").rglob("scorecard.json"))
        assert len(html_pages) == 6
        assert len(exports) == 5
        assert len(plan.pages) == 6
        kinds = [kind for _, kind in plan.pages]
        assert kinds.count(PageKind.INDEX) == 1
        assert kinds.count(PageKind.SUMMARY_DETAIL) == 5

    def test_zero_cards_index_only(self, site_inputs, tmp_path):
        registry, _ = site_inputs
        plan = build_site(registry, [], SiteConfig(output_root=tmp_path / "site"))
        assert [kind for _, kind in plan.pages] == [PageKind.INDEX]
        assert (tmp_path / "site" / "index.html").exists()
        assert not (tmp_path / "site" / "summaries").exists()

    def test_unmatched_card_rejected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        registry.entries.pop()
        with pytest.raises(UnmatchedScoreCard):
            build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))

    def test_routes_unique_and_stable(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        plan = build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        routes = [route for route, _ in plan.pages]
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
        card = cards[0]
        for value in card.per_section_group.values():
            assert value.display in detail
        assert card.meta.source_url in detail
        assert "scorecard.json" in detail

    def test_site_never_recomputes(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        from summaryqa.reporting import load_scorecard

        exported = load_scorecard(tmp_path / "site" / "summaries" / "model-0" / "scorecard.json")
        assert exported == cards[0]

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

    def test_methodology_page_optional(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        fragment = tmp_path / "method.html"
        fragment.write_text("<h1>Methodology</h1><p>Weighted rubric scoring.</p>")
        config = SiteConfig(output_root=tmp_path / "site", methodology_html=fragment)
        plan = build_site(registry, cards, config)
        assert (tmp_path / "site" / "methodology.html").exists()
        assert PageKind.METHODOLOGY in [kind for _, kind in plan.pages]
        assert 'href="methodology.html"' in (tmp_path / "site" / "index.html").read_text()


class TestCheckLinks:
    def test_fresh_build_clean(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        assert check_links(tmp_path / "site") == []

    def test_deleted_detail_page_detected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        (tmp_path / "site" / "summaries" / "model-3" / "index.html").unlink()
        findings = check_links(tmp_path / "site")
        assert findings
        assert all(f.code == "broken-link" for f in findings)
        assert any("model-3" in f.message for f in findings)

    def test_deleted_export_detected(self, site_inputs, tmp_path):
        registry, cards = site_inputs
        build_site(registry, cards, SiteConfig(output_root=tmp_path / "site"))
        (tmp_path / "site" / "summaries" / "model-1" / "scorecard.json").unlink()
        findings = check_links(tmp_path / "site")
        assert [f.code for f in findings] == ["broken-link"]
        assert findings[0].locus == "summaries/model-1/index.html"
