"""Catalog loading, serialization, validation, and section counts."""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from summaryqa.base import Dimension, Group, Section
from summaryqa.catalog import (
    ApplicabilityRule,
    Catalog,
    Metric,
    parse_catalog,
    section_counts,
    validate_catalog,
)
from summaryqa.errors import Finding, Malformed

from toys import dumps_catalog, load_reference_catalog, reference_catalog_path

MINIMAL = """\
catalog: toy
version: 0.1

id: A
element_id: 1.1.a
section: Document
dimension: Clarity
weight: 1
prompt: First check.
optional_field: false
applicability: always

id: B
element_id: 1.1.a
section: Document
dimension: Completeness
weight: 3/2
prompt: Second check.
optional_field: true
applicability: if A = yes
"""


def metric(mid, section=Section.DOCUMENT, dimension=Dimension.CLARITY, weight=1, gate=None, answer="yes"):
    rule = ApplicabilityRule.always() if gate is None else ApplicabilityRule.if_gate(gate, answer)
    return Metric(
        id=mid,
        element_id="1.1.a",
        section=section,
        dimension=dimension,
        weight=Fraction(weight),
        prompt=f"Check {mid}.",
        applicability=rule,
    )


class TestParsing:
    def test_two_metric_file(self):
        cat = parse_catalog(MINIMAL)
        assert cat.name == "toy"
        assert cat.version == "0.1"
        assert len(cat.metrics) == 2
        a, b = cat.metrics
        assert a.id == "A" and a.weight == 1
        assert b.weight == Fraction(3, 2)
        assert b.optional_field is True
        assert b.applicability == ApplicabilityRule.if_gate("A", "yes")

    def test_ordering_preserved(self):
        cat = parse_catalog(MINIMAL)
        assert [m.id for m in cat.metrics] == ["A", "B"]

    def test_duplicate_id_rejected(self):
        cat = parse_catalog(MINIMAL.replace("id: B", "id: A"))
        assert [(f.code, f.locus, f.message) for f in validate_catalog(cat)] == [
            ("duplicate-id", "A", "metric id occurs more than once")
        ]

    def test_missing_field_rejected(self):
        text = MINIMAL.replace("weight: 1\n", "")
        with pytest.raises(Malformed, match="missing field 'weight'"):
            parse_catalog(text)

    def test_unknown_field_rejected(self):
        text = MINIMAL.replace("weight: 1", "weight: 1\nwhimsy: 3")
        with pytest.raises(Malformed, match="unknown metric field"):
            parse_catalog(text)

    def test_bad_syntax_rejected(self):
        with pytest.raises(Malformed, match="^line 1: expected 'key: value', got 'catalog toy'$") as exc:
            parse_catalog("catalog toy\nversion: 1")
        assert (exc.value.line, exc.value.field) == (1, None)

    def test_bad_section_rejected(self):
        text = MINIMAL.replace("section: Document", "section: Docks", 1)
        with pytest.raises(Malformed, match="unknown section"):
            parse_catalog(text)

    def test_bad_weight_rejected(self):
        text = MINIMAL.replace("weight: 1\n", "weight: heavy\n")
        with pytest.raises(Malformed, match="unparsable weight"):
            parse_catalog(text)

    def test_weight_is_a_plain_number(self):
        for text in ("1e1000000", "1E3", "1_000", ".5", "5.", "\u0663", "0x10", "1/2/3", "inf"):
            with pytest.raises(Malformed, match="unparsable weight") as exc:
                parse_catalog(MINIMAL.replace("weight: 1\n", f"weight: {text}\n"))
            assert exc.value.field == "weight"
        for text, weight in (("2", 2), ("+4", 4), ("0.25", Fraction(1, 4)), ("3/2", Fraction(3, 2)), ("0", 0), ("-1", -1)):
            cat = parse_catalog(MINIMAL.replace("weight: 1\n", f"weight: {text}\n"))
            assert cat.metrics[0].weight == weight
            assert [f.code for f in validate_catalog(cat)] == ([] if weight > 0 else ["nonpositive-weight"])

    def test_bad_rule_rejected(self):
        text = MINIMAL.replace("applicability: if A = yes", "applicability: if A equals yes")
        with pytest.raises(Malformed, match="unparsable applicability"):
            parse_catalog(text)

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n\n# and another\n"], ids=["empty", "blank", "comments"])
    def test_file_without_a_record_is_malformed(self, text):
        with pytest.raises(Malformed, match="^empty catalog file$"):
            parse_catalog(text)

    @pytest.mark.parametrize("old,new", [("catalog: toy", "catalog:"), ("version: 0.1", "version:  ")], ids=["name", "version"])
    def test_empty_catalog_name_or_version_is_malformed(self, old, new):
        with pytest.raises(Malformed, match="^line 1: catalog name and version must be non-empty$"):
            parse_catalog(MINIMAL.replace(old, new, 1))

    def test_empty_metric_id_is_malformed(self):
        with pytest.raises(Malformed, match="^line 4, field 'id': metric id must be non-empty$") as exc:
            parse_catalog(MINIMAL.replace("id: A\n", "id:\n", 1))
        assert (exc.value.line, exc.value.field) == (4, "id")

    @pytest.mark.parametrize("flag", ["maybe", "True", "1", ""])
    def test_optional_field_is_true_or_false(self, flag):
        with pytest.raises(Malformed, match=f"^line 10, field 'optional_field': optional_field must be 'true' or 'false', got '{flag}'$"):
            parse_catalog(MINIMAL.replace("optional_field: false", f"optional_field: {flag}", 1))

    def test_comments_ignored(self):
        cat = parse_catalog("# preamble\n" + MINIMAL)
        assert cat.name == "toy"

    @pytest.mark.parametrize(
        "char",
        ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"],
        ids=["line-separator", "paragraph-separator", "next-line", "vertical-tab", "form-feed", "file-separator"],
    )
    def test_only_a_line_feed_ends_a_line(self, char):
        # str.splitlines() breaks at each of these; the catalog reader does not.
        cat = parse_catalog(MINIMAL.replace("prompt: First check.", f"prompt: First{char}check."))
        assert cat.metrics[0].prompt == f"First{char}check."

    def test_repeated_field_names_its_line_and_field(self):
        with pytest.raises(Malformed, match="^line 9, field 'weight': duplicate field 'weight'$") as exc:
            parse_catalog(MINIMAL.replace("weight: 1\n", "weight: 1\nweight: 2\n"))
        assert (exc.value.line, exc.value.field) == (9, "weight")

    @pytest.mark.parametrize(
        "old,new,message,line,field",
        [
            ("version: 0.1\n", "", "header missing field 'version'", 1, "version"),
            ("version: 0.1\n", "version: 0.1\nowner: x\n", "unknown header field 'owner'", 3, "owner"),
            ("weight: 1\n", "", "metric missing field 'weight'", 4, "weight"),
            ("weight: 1\n", "weight: 1\nwhimsy: 3\n", "unknown metric field 'whimsy'", 9, "whimsy"),
        ],
        ids=["header-missing", "header-unknown", "metric-missing", "metric-unknown"],
    )
    def test_record_keys_name_their_line_and_field(self, old, new, message, line, field):
        with pytest.raises(Malformed, match=f"^line {line}, field '{field}': {message}$") as exc:
            parse_catalog(MINIMAL.replace(old, new, 1))
        assert (exc.value.line, exc.value.field) == (line, field)


class TestRoundTrip:
    def test_dump_then_parse_is_equal(self):
        cat = parse_catalog(MINIMAL)
        again = parse_catalog(dumps_catalog(cat))
        assert again == cat

    def test_canonical_dump_is_stable(self):
        cat = parse_catalog(MINIMAL)
        once = dumps_catalog(cat)
        assert dumps_catalog(parse_catalog(once)) == once

    def test_multiline_prompt_rejected_at_dump(self):
        cat = Catalog("toy", "0.1", (metric("A"),))
        broken = Catalog("toy", "0.1", (cat.metrics[0]._replace(prompt="two\nlines"),))
        with pytest.raises(ValueError, match="line breaks"):
            dumps_catalog(broken)

    def test_prompt_with_colon_round_trips(self):
        text = MINIMAL.replace("First check.", "Has a colon: and, punctuation.")
        cat = parse_catalog(text)
        assert cat.metrics[0].prompt == "Has a colon: and, punctuation."
        assert parse_catalog(dumps_catalog(cat)) == cat

    def test_random_valid_catalogs_round_trip(self):
        import random

        from hypothesis import given, strategies as st

        from randgen import random_catalog

        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            cat = random_catalog(random.Random(seed))
            assert validate_catalog(cat) == []
            assert parse_catalog(dumps_catalog(cat)) == cat

        check()


class TestValidation:
    def test_clean_catalog_no_findings(self):
        assert validate_catalog(parse_catalog(MINIMAL)) == []

    def test_nonpositive_weight(self):
        cat = Catalog("toy", "0.1", (metric("A", weight=0),))
        findings = validate_catalog(cat)
        assert [f.code for f in findings] == ["nonpositive-weight"]
        assert findings[0].locus == "A"

    def test_gate_cycle_single_finding(self):
        cat = Catalog("toy", "0.1", (metric("A", gate="B"), metric("B", gate="A")))
        findings = validate_catalog(cat)
        assert [f.code for f in findings] == ["applicability-cycle"]
        assert "A" in findings[0].message and "B" in findings[0].message

    def test_self_gate_is_cycle(self):
        cat = Catalog("toy", "0.1", (metric("A", gate="A"),))
        assert [f.code for f in validate_catalog(cat)] == ["applicability-cycle"]

    def test_unknown_gate(self):
        cat = Catalog("toy", "0.1", (metric("A", gate="nope"),))
        assert [f.code for f in validate_catalog(cat)] == ["unknown-gate"]

    def test_empty_catalog(self):
        cat = Catalog("toy", "0.1", ())
        assert [f.code for f in validate_catalog(cat)] == ["empty-catalog"]

    def test_duplicate_id_in_memory(self):
        cat = Catalog("toy", "0.1", (metric("A"), metric("A")))
        assert "duplicate-id" in [f.code for f in validate_catalog(cat)]

    @pytest.mark.parametrize(
        "weights,message",
        [
            pytest.param(
                [Fraction(1, 10**12), Fraction(1, 10**12 - 1)],
                "the weights' common denominator exceeds 10**12",
                id="denominator",
            ),
            pytest.param([Fraction(10**12), Fraction(1, 2)], "the weights total more than 10**12 units of 1/2", id="total"),
            pytest.param(
                [Fraction(-(10**12)), Fraction(2)], "the weights total more than 10**12 units of 1/1", id="negative"
            ),
        ],
    )
    def test_weight_scale_past_the_bound(self, weights, message):
        cat = Catalog("toy", "0.1", tuple(metric(f"M{i}", weight=w) for i, w in enumerate(weights)))
        scale = [f for f in validate_catalog(cat) if f.code == "weight-scale"]
        assert [(f.locus, f.message) for f in scale] == [("toy/0.1", message)]

    def test_weight_scale_at_the_bound_is_clean(self):
        # A common denominator of 10**12 and a total of 10**12 units of it.
        weights = (Fraction(1, 10**12), Fraction(10**12 - 1, 10**12))
        cat = Catalog("toy", "0.1", (metric("A", weight=weights[0]), metric("B", weight=weights[1])))
        assert validate_catalog(cat) == []

    @pytest.mark.parametrize("digits,count", [(1500, 4), (4000, 242)])
    def test_huge_weight_denominators_are_one_quick_finding(self, digits, count):
        """The reference catalog with ``count`` weights of 1/<``digits``-digit number>."""
        text = Path(reference_catalog_path()).read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        weights = [i for i, line in enumerate(lines) if line.startswith("weight: ")][:count]
        for n, i in enumerate(weights):
            lines[i] = f"weight: 1/{n + 1}{'3' * (digits - 1)}\n"
        cat = parse_catalog("".join(lines))
        start = time.perf_counter()
        findings = validate_catalog(cat)
        assert time.perf_counter() - start < 1.0
        assert [f.code for f in findings] == ["weight-scale"]

    def test_findings_deterministic(self):
        cat = Catalog("toy", "0.1", (metric("A", weight=-1), metric("B", gate="zz")))
        assert validate_catalog(cat) == validate_catalog(cat)

    def test_compiled_once_per_catalog(self):
        cat = parse_catalog(MINIMAL)
        assert cat.compiled is cat.compiled
        assert cat.compiled.rows is cat.compiled.rows
        assert cat == parse_catalog(MINIMAL)  # the cached compilation is no field
        assert cat._replace(version="0.2").compiled is not cat.compiled


def random_gate_graph(rng):
    """A catalog of a few metrics with random gates: repeated ids, self-gates,
    cycles and gates naming no metric all occur."""
    ids = [f"M{rng.randrange(6)}" for _ in range(rng.randint(1, 8))]
    metrics = []
    for mid in ids:
        roll = rng.random()
        gate = None if roll < 0.3 else "Z" if roll < 0.4 else rng.choice(ids)
        metrics.append(metric(mid, gate=gate, answer=rng.choice(["yes", "no"])))
    return Catalog("toy", "0.1", tuple(metrics))


def chain_defects(catalog):
    """The cycles (as id sets) and whether a gate names no metric, found by
    following every metric's gate chain, each id taking its first occurrence's gate."""
    gate_of = {}
    for m in catalog.metrics:
        gate_of.setdefault(m.id, m.applicability.gate_metric_id)
    cycles, unknown = set(), False
    for start in gate_of:
        chain, node = [], start
        while node is not None:
            if node not in gate_of:
                unknown = True
                break
            if node in chain:
                cycles.add(frozenset(chain[chain.index(node):]))
                break
            chain.append(node)
            node = gate_of[node]
    return cycles, unknown


class TestGateGraph:
    def test_one_walk_finds_cycles_and_broken_rows(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(2000):
            cat = random_gate_graph(rng)
            cycles, unknown = chain_defects(cat)
            repeated = len(cat.metrics) > len({m.id for m in cat.metrics})
            found = [f for f in validate_catalog(cat) if f.code == "applicability-cycle"]
            walked = [frozenset(f.message.split(": ")[1].split(" -> ")) for f in found]
            assert len(walked) == len(cycles) and set(walked) == cycles, cat
            assert all(f.locus in cycle for f, cycle in zip(found, walked))
            if cycles or unknown or repeated:
                with pytest.raises(ValueError, match="; validate the catalog first$"):
                    cat.compiled.rows
            else:
                rows = cat.compiled.rows
                assert sorted(row[0] for row in rows) == sorted(m.id for m in cat.metrics)
                assert all(gate_row < i for i, (_, gate_row, *_) in enumerate(rows))
            seen.add((bool(cycles), unknown, repeated))
        assert len(seen) == 8

    def test_findings_match_a_brute_force_check(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(3000):
            cat = random_defective_catalog(rng)
            findings, broken = brute_force_findings(cat)
            assert validate_catalog(cat) == findings, cat
            if broken is None:
                assert len(cat.compiled.rows) == len(cat.metrics)
            else:
                with pytest.raises(ValueError) as exc:
                    cat.compiled.rows
                assert str(exc.value) == f"{broken}; validate the catalog first"
            seen.add(frozenset(f.code for f in findings))
        codes = {"weight-scale", "duplicate-id", "nonpositive-weight", "unknown-gate", "applicability-cycle"}
        assert codes in seen and frozenset({"empty-catalog"}) in seen and frozenset() in seen


#: Weights a random catalog draws from: clean ones, nonpositive ones, and ones
#: whose common denominator or total passes the bound.
RANDOM_WEIGHTS = [1, 2, Fraction(3, 2), Fraction(1, 3), 0, -1, Fraction(1, 10**7), Fraction(1, 10**7 + 1), 10**12]


def random_defective_catalog(rng):
    """A catalog built in code in which every catalog finding can occur at once:
    repeated ids, nonpositive weights, weights past the bound, self-gates,
    cycles and gates naming no metric."""
    metrics = []
    for _ in range(rng.choice([0, *range(1, 9)])):
        mid = f"M{rng.randrange(6)}"
        weight = rng.choice(RANDOM_WEIGHTS) if rng.random() < 0.3 else rng.choice(RANDOM_WEIGHTS[:4])
        roll = rng.random()
        if roll < 0.35:
            rule = ApplicabilityRule.always()
        else:
            rule = ApplicabilityRule.if_gate(rng.choice(["Z", *(f"M{i}" for i in range(6))]), rng.choice(["yes", "no"]))
        metrics.append(metric(mid, weight=weight)._replace(applicability=rule))
    return Catalog("toy", "0.1", tuple(metrics))


def brute_force_findings(catalog):
    """The findings ``validate_catalog`` must report, in its order, and the
    defect ``rows`` must name, computed without the bounded LCM or the
    iterative walk: the full LCM, one scan per metric, and a recursive
    resolution of each id's gate under its first occurrence's rule."""
    ref, metrics = catalog.ref, catalog.metrics
    findings, defects = [], []
    if not metrics:
        findings.append(Finding("empty-catalog", ref, "catalog contains no metrics"))
    scale = math.lcm(*(m.weight.denominator for m in metrics))
    if scale > 10**12:
        findings.append(Finding("weight-scale", ref, "the weights' common denominator exceeds 10**12"))
    elif sum(abs(m.weight) * scale for m in metrics) > 10**12:
        findings.append(Finding("weight-scale", ref, f"the weights total more than 10**12 units of 1/{scale}"))
    ids = [m.id for m in metrics]
    for i, m in enumerate(metrics):
        if m.id in ids[:i]:
            findings.append(Finding("duplicate-id", m.id, "metric id occurs more than once"))
            defects.append(f"metric id {m.id!r} occurs more than once")
        if m.weight <= 0:
            findings.append(Finding("nonpositive-weight", m.id, f"weight must be positive, got {m.weight}"))
        gate = m.applicability.gate_metric_id
        if gate is not None and gate not in ids:
            findings.append(Finding("unknown-gate", m.id, f"gate metric {gate!r} does not exist"))
            defects.append(f"metric {m.id!r} gates on unknown metric {gate!r}")

    rule_of = {m.id: m.applicability for m in reversed(metrics)}
    resolved, stack = set(), []

    def resolve(mid):
        if mid in resolved:
            return
        if mid in stack:
            cycle = " -> ".join([*stack[stack.index(mid):], mid])
            findings.append(Finding("applicability-cycle", mid, f"gate chain forms a cycle: {cycle}"))
            defects.append(f"applicability cycle through {mid!r}")
            return
        stack.append(mid)
        rule = rule_of[mid]
        if rule.gate_metric_id is not None and rule.gate_metric_id in rule_of:
            resolve(rule.gate_metric_id)
        resolved.add(stack.pop())

    for mid in ids:
        resolve(mid)
    return findings, (defects[0] if defects else None)


class TestSectionCounts:
    def test_counts_sum_to_total(self):
        cat = parse_catalog(MINIMAL)
        counts = section_counts(cat)
        assert sum(counts.values()) == len(cat.metrics)

    def test_all_sections_present_with_zeros(self):
        cat = parse_catalog(MINIMAL)
        counts = section_counts(cat)
        assert set(counts) == set(Section)
        assert counts[Section.USER_DATA] == 0


class TestDomainInvariants:
    def test_exactly_eight_sections(self):
        assert len(list(Section)) == 8

    def test_dimension_grouping(self):
        transparency = {Dimension.CLARITY, Dimension.COMPLETENESS, Dimension.CONSISTENCY, Dimension.CORRECTNESS}
        usefulness = {Dimension.ACCESSIBILITY, Dimension.COMPREHENSION}
        for dim in Dimension:
            expected = Group.TRANSPARENCY if dim in transparency else Group.USEFULNESS
            assert dim.group is expected
        assert transparency | usefulness == set(Dimension)


class TestReferenceCatalog:
    def test_loads_and_validates_clean(self):
        cat = load_reference_catalog()
        assert validate_catalog(cat) == []

    def test_has_242_metrics(self):
        assert len(load_reference_catalog().metrics) == 242

    def test_section_counts_match_published_framework(self):
        counts = section_counts(load_reference_catalog())
        assert {s.code: n for s, n in counts.items()} == {
            "Document": 30,
            "GeneralInformation": 54,
            "PublicDataSources": 26,
            "PrivateDataSources": 27,
            "ScrapedCrawledData": 46,
            "UserData": 14,
            "SyntheticOtherData": 28,
            "DataProcessing": 17,
        }

    def test_every_cell_every_dimension_represented(self):
        cat = load_reference_catalog()
        for section in Section:
            dims = {m.dimension for m in cat.metrics if m.section is section}
            assert dims == set(Dimension), f"{section.code} missing {set(Dimension) - dims}"

    def test_round_trips_byte_exact(self):
        text = reference_catalog_path().read_text(encoding="utf-8")
        assert dumps_catalog(parse_catalog(text)) == text
