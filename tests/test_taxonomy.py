"""Taxonomy validation, two-stage repair, leaf ordering, and positioning."""

import random

import pytest

from conftest import make_record, random_taxonomy
from noveltycheck.clients import MockLlmClient
from noveltycheck.codec import decode, encode
from noveltycheck.errors import InvalidInputError
from noveltycheck.taxonomy import (
    TaxonomyNode,
    deterministic_repair,
    order_leaf_papers,
    repair_taxonomy,
    structural_position,
    validate_taxonomy,
)


def leaf(name, papers, **kwargs):
    return TaxonomyNode(
        name=name,
        scope_note=kwargs.get("scope_note", "Inclusion rule."),
        exclude_note=kwargs.get("exclude_note", "Exclusion rule pointing elsewhere."),
        papers=tuple(papers),
    )


def branch(name, children, **kwargs):
    return TaxonomyNode(
        name=name,
        scope_note=kwargs.get("scope_note", "Inclusion rule."),
        exclude_note=kwargs.get("exclude_note", "Exclusion rule pointing elsewhere."),
        subtopics=tuple(children),
    )


def simple_tree():
    return TaxonomyNode(
        name="Widget Methods Survey Taxonomy",
        subtopics=(
            branch("Learned Widgets", [leaf("Deep Widgets", ["p1", "p2", "p3"])]),
            branch("Classical Widgets", [leaf("Rule Widgets", ["p4", "p5"])]),
        ),
    )


ALL_IDS = {"p1", "p2", "p3", "p4", "p5"}


class TestValidateTaxonomy:
    def test_clean_tree_is_valid(self):
        report = validate_taxonomy(simple_tree(), ALL_IDS)
        assert report.is_valid
        assert not report.missing_ids and not report.extra_ids and not report.duplicate_ids

    def test_missing_id_reported(self):
        report = validate_taxonomy(simple_tree(), ALL_IDS | {"p6"})
        assert report.missing_ids == {"p6"} and not report.is_valid

    def test_unknown_id_is_hallucination(self):
        report = validate_taxonomy(simple_tree(), ALL_IDS - {"p5"})
        assert report.extra_ids == {"p5"} and not report.is_valid

    def test_duplicate_assignment_reported(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(
                branch("A", [leaf("L1", ["p1", "p2"])]),
                branch("B", [leaf("L2", ["p2", "p3"])]),
            ),
        )
        report = validate_taxonomy(tree, {"p1", "p2", "p3"})
        assert report.duplicate_ids == {"p2"}

    def test_wrong_root_name_is_structural(self):
        tree = TaxonomyNode(name="Just A Name", subtopics=simple_tree().subtopics)
        report = validate_taxonomy(tree, ALL_IDS)
        assert any("root name" in e for e in report.structural_errors)

    def test_note_length_is_warning_not_error(self):
        long_note = " ".join(["word"] * 30)
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(branch("A", [leaf("L", ["p1", "p2"], scope_note=long_note)]),),
        )
        report = validate_taxonomy(tree, {"p1", "p2"})
        assert report.is_valid
        assert any("exceeds 25 words" in w for w in report.warnings)

    def test_leaf_size_soft_bound_warns(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(branch("A", [leaf("L", [f"p{i}" for i in range(9)])]),),
        )
        report = validate_taxonomy(tree, {f"p{i}" for i in range(9)})
        assert report.is_valid
        assert any("outside 2-7" in w for w in report.warnings)

    def test_original_must_appear_exactly_once(self):
        report = validate_taxonomy(simple_tree(), ALL_IDS, original="p9")
        assert any("original paper" in e for e in report.structural_errors)
        report2 = validate_taxonomy(simple_tree(), ALL_IDS, original="p1")
        assert report2.is_valid


class TestDeterministicRepair:
    def test_extra_removed_leaf_intact(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(branch("A", [leaf("L", ["p1", "ghost", "p2"])]),),
        )
        report = validate_taxonomy(tree, {"p1", "p2"})
        repaired = deterministic_repair(tree, report)
        assert repaired.subtopics[0].subtopics[0].papers == ("p1", "p2")

    def test_duplicate_keeps_first_depth_first_occurrence(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(
                branch("A", [leaf("L1", ["p1", "p2"])]),
                branch("B", [leaf("L2", ["p2", "p3"])]),
            ),
        )
        report = validate_taxonomy(tree, {"p1", "p2", "p3"})
        repaired = deterministic_repair(tree, report)
        assert repaired.subtopics[0].subtopics[0].papers == ("p1", "p2")
        assert repaired.subtopics[1].subtopics[0].papers == ("p3",)

    def test_leaf_holding_only_extra_is_pruned(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(
                branch("A", [leaf("L1", ["p1", "p2"]), leaf("L2", ["ghost"])]),
            ),
        )
        report = validate_taxonomy(tree, {"p1", "p2"})
        repaired = deterministic_repair(tree, report)
        names = [l.name for l in repaired.iter_leaves()]
        assert names == ["L1"]

    def test_emptied_internal_cascades_away(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(
                branch("A", [branch("A1", [leaf("L", ["ghost"])])]),
                branch("B", [leaf("L2", ["p1", "p2"])]),
            ),
        )
        report = validate_taxonomy(tree, {"p1", "p2"})
        repaired = deterministic_repair(tree, report)
        assert [c.name for c in repaired.subtopics] == ["B"]

    def test_never_leaves_extras_or_duplicates(self):
        rng = random.Random(31)
        ids = [f"id{i:03d}" for i in range(30)]
        for _ in range(100):
            tree = random_taxonomy(rng, ids)
            # inject chaos: extras and duplicates
            tree = _inject_extra(tree, [f"ghost{i}" for i in range(rng.randint(1, 4))], rng)
            tree = _inject_duplicate(tree, rng.sample(ids, rng.randint(1, 4)), rng)
            report = validate_taxonomy(tree, set(ids))
            repaired = deterministic_repair(tree, report)
            after = validate_taxonomy(repaired, set(ids))
            assert not after.extra_ids and not after.duplicate_ids


def _map_leaves(node, fn):
    if node.papers:
        return fn(node)
    return TaxonomyNode(
        name=node.name,
        scope_note=node.scope_note,
        exclude_note=node.exclude_note,
        subtopics=tuple(_map_leaves(c, fn) for c in node.subtopics),
    )


def _leaf_list(node):
    return list(node.iter_leaves())


def _inject_extra(tree, ghost_ids, rng):
    leaves = _leaf_list(tree)
    targets = {id(rng.choice(leaves)): None for _ in ghost_ids}
    remaining = list(ghost_ids)

    def fn(leaf_node):
        if id(leaf_node) in targets and remaining:
            return TaxonomyNode(
                name=leaf_node.name,
                scope_note=leaf_node.scope_note,
                exclude_note=leaf_node.exclude_note,
                papers=leaf_node.papers + (remaining.pop(),),
            )
        return leaf_node

    out = _map_leaves(tree, fn)
    while remaining:
        leaves = _leaf_list(out)
        chosen = rng.choice(leaves)
        gid = remaining.pop()

        def fn2(leaf_node, chosen=chosen, gid=gid):
            if leaf_node is chosen:
                return TaxonomyNode(
                    name=leaf_node.name, scope_note=leaf_node.scope_note,
                    exclude_note=leaf_node.exclude_note, papers=leaf_node.papers + (gid,),
                )
            return leaf_node

        out = _map_leaves(out, fn2)
    return out


def _inject_duplicate(tree, dup_ids, rng):
    out = tree
    for dup in dup_ids:
        leaves = _leaf_list(out)
        chosen = rng.choice(leaves)

        def fn(leaf_node, chosen=chosen, dup=dup):
            if leaf_node is chosen:
                return TaxonomyNode(
                    name=leaf_node.name, scope_note=leaf_node.scope_note,
                    exclude_note=leaf_node.exclude_note, papers=leaf_node.papers + (dup,),
                )
            return leaf_node

        out = _map_leaves(out, fn)
    return out


def _choose_missing(tree, k, rng):
    """Pick ids whose removal never empties a leaf (leaf names are unique)."""
    remaining = {leaf_node.name: list(leaf_node.papers) for leaf_node in tree.iter_leaves()}
    chosen = []
    for _ in range(k):
        eligible = [papers for papers in remaining.values() if len(papers) >= 2]
        if not eligible:
            break
        papers = rng.choice(eligible)
        pid = rng.choice(papers)
        papers.remove(pid)
        chosen.append(pid)
    return set(chosen)


def _remove_ids(tree, remove):
    def fn(leaf_node):
        kept = tuple(p for p in leaf_node.papers if p not in remove)
        assert kept, "test setup must not empty a leaf"
        return TaxonomyNode(
            name=leaf_node.name, scope_note=leaf_node.scope_note,
            exclude_note=leaf_node.exclude_note, papers=kept,
        )

    return _map_leaves(tree, fn)


class TestLlmRepair:
    def _tree_missing(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(branch("A", [leaf("L1", ["p1", "p2"])]),),
        )
        return tree, {"p1", "p2", "p3", "p4"}

    def test_mock_places_missing_into_existing_leaves(self):
        tree, allowed = self._tree_missing()
        fixed = {
            "name": "X Survey Taxonomy",
            "subtopics": [
                {
                    "name": "A",
                    "scope_note": "Inclusion rule.",
                    "exclude_note": "Exclusion rule pointing elsewhere.",
                    "subtopics": [
                        {
                            "name": "L1",
                            "scope_note": "Inclusion rule.",
                            "exclude_note": "Exclusion rule pointing elsewhere.",
                            "papers": ["p1", "p2", "p3", "p4"],
                        }
                    ],
                }
            ],
        }
        llm = MockLlmClient({"default": fixed})
        papers = {pid: make_record(f"Paper {pid}") for pid in allowed}
        outcome = repair_taxonomy(tree, allowed, papers=papers, llm=llm)
        assert outcome.status == "valid"

    def test_still_missing_yields_needs_review(self):
        tree, allowed = self._tree_missing()
        llm = MockLlmClient({"default": encode(tree)})
        outcome = repair_taxonomy(tree, allowed, llm=llm)
        assert outcome.status == "needs_review"
        assert any("still invalid" in d for d in outcome.diagnostics)

    def test_empty_missing_set_skips_llm(self):
        llm = MockLlmClient({})
        outcome = repair_taxonomy(simple_tree(), ALL_IDS, llm=llm)
        assert outcome.status == "valid"
        assert llm.calls == []

    def test_llm_failure_degrades_to_needs_review(self):
        tree, allowed = self._tree_missing()
        llm = MockLlmClient({"rules": [{"system_contains": "taxonomy", "error": "down"}]})
        outcome = repair_taxonomy(tree, allowed, llm=llm)
        assert outcome.status == "needs_review"

    def test_repair_introducing_duplicates_is_cleaned_up(self):
        tree, allowed = self._tree_missing()
        sloppy = {
            "name": "X Survey Taxonomy",
            "subtopics": [
                {
                    "name": "A",
                    "scope_note": "s",
                    "exclude_note": "e",
                    "subtopics": [
                        {"name": "L1", "scope_note": "s", "exclude_note": "e",
                         "papers": ["p1", "p2", "p3"]},
                        {"name": "L2", "scope_note": "s", "exclude_note": "e",
                         "papers": ["p3", "p4"]},
                    ],
                }
            ],
        }
        llm = MockLlmClient({"default": sloppy})
        outcome = repair_taxonomy(tree, allowed, llm=llm)
        assert outcome.status == "valid"
        assert any("introduced extras or duplicates" in d for d in outcome.diagnostics)
        after = validate_taxonomy(outcome.taxonomy, allowed)
        assert after.is_valid


class TestOrderLeafPapers:
    def test_original_first_then_rank(self):
        node = leaf("L", ["B", "orig", "A"])
        ordered = order_leaf_papers(node, "orig", {"A": 2, "B": 5})
        assert ordered.papers == ("orig", "A", "B")

    def test_rank_order_without_original(self):
        node = leaf("L", ["B", "A", "C"])
        ordered = order_leaf_papers(node, None, {"A": 1, "B": 2, "C": 3})
        assert ordered.papers == ("A", "B", "C")

    def test_equal_ranks_preserve_input_order(self):
        node = leaf("L", ["x", "y", "z"])
        ordered = order_leaf_papers(node, None, {"x": 1, "y": 1, "z": 1})
        assert ordered.papers == ("x", "y", "z")

    def test_idempotent_permutation(self):
        rng = random.Random(17)
        for _ in range(50):
            papers = [f"p{i}" for i in range(rng.randint(1, 8))]
            rng.shuffle(papers)
            rank = {p: rng.randint(1, 5) for p in papers}
            original = rng.choice(papers) if rng.random() < 0.5 else None
            node = leaf("L", papers)
            once = order_leaf_papers(node, original, rank)
            assert sorted(once.papers) == sorted(papers)
            assert order_leaf_papers(once, original, rank).papers == once.papers


class TestStructuralPosition:
    def test_sibling_mode(self):
        tree = simple_tree()
        position = structural_position(tree, "p1")
        assert position.mode == "sibling"
        assert set(position.siblings) == {"p2", "p3"}
        assert position.path == (
            "Widget Methods Survey Taxonomy", "Learned Widgets", "Deep Widgets",
        )

    def test_subtopic_siblings_mode(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(
                branch("A", [leaf("Solo", ["orig"]), leaf("Other", ["p1", "p2"])]),
            ),
        )
        position = structural_position(tree, "orig")
        assert position.mode == "subtopic_siblings"
        assert [n.name for n in position.sibling_subtopics] == ["Other"]

    def test_isolated_mode(self):
        tree = TaxonomyNode(
            name="X Survey Taxonomy",
            subtopics=(branch("A", [leaf("Solo", ["orig"])]),),
        )
        position = structural_position(tree, "orig")
        assert position.mode == "isolated"

    def test_unassigned_original_rejected(self):
        with pytest.raises(InvalidInputError):
            structural_position(simple_tree(), "nowhere")

    def test_exactly_one_mode_over_random_trees(self):
        rng = random.Random(41)
        ids = [f"id{i}" for i in range(20)]
        for _ in range(50):
            tree = random_taxonomy(rng, ids)
            position = structural_position(tree, rng.choice(ids))
            assert position.mode in ("sibling", "subtopic_siblings", "isolated")


class TestRepairTaxonomy:
    def test_valid_tree_passes_through(self):
        outcome = repair_taxonomy(simple_tree(), ALL_IDS)
        assert outcome.status == "valid"

    def test_missing_without_llm_needs_review(self):
        outcome = repair_taxonomy(simple_tree(), ALL_IDS | {"p9"})
        assert outcome.status == "needs_review"


class TestDictForm:
    @pytest.mark.parametrize("tree", [
        simple_tree(),
        TaxonomyNode(name="R Survey Taxonomy", papers=("a", "b")),
        TaxonomyNode(name="Empty Survey Taxonomy"),
    ], ids=["nested", "papers_on_root", "empty_root"])
    def test_round_trip_keeps_every_paper(self, tree):
        assert decode(TaxonomyNode, encode(tree)) == tree

    @pytest.mark.parametrize("tree, expected", [
        (TaxonomyNode(name="Survey Taxonomy (unavailable)"),
         {"name": "Survey Taxonomy (unavailable)"}),
        (TaxonomyNode(name="R Survey Taxonomy", subtopics=(leaf("Empty", []),)),
         {"name": "R Survey Taxonomy", "subtopics": [
             {"name": "Empty", "scope_note": "Inclusion rule.",
              "exclude_note": "Exclusion rule pointing elsewhere."}]}),
        (TaxonomyNode(name="R Survey Taxonomy", scope_note="s", exclude_note="e",
                      subtopics=(leaf("A", ["p1"], scope_note="sa", exclude_note="ea"),)),
         {"name": "R Survey Taxonomy", "scope_note": "s", "exclude_note": "e",
          "subtopics": [{"name": "A", "scope_note": "sa", "exclude_note": "ea",
                         "papers": ["p1"]}]}),
        (TaxonomyNode(name="R Survey Taxonomy", subtopics=(
            TaxonomyNode(name="B", subtopics=(leaf("A", ["p1"], scope_note=None,
                                                   exclude_note=None),), papers=("p2",)),)),
         {"name": "R Survey Taxonomy", "subtopics": [
             {"name": "B", "subtopics": [{"name": "A", "papers": ["p1"]}],
              "papers": ["p2"]}]}),
    ], ids=["empty_root", "empty_leaf", "root_notes", "papers_beside_subtopics"])
    def test_tree_that_needs_review_is_written_as_validated(self, tree, expected):
        # each shape fails validation, and its JSON form holds every note and paper it has
        assert not validate_taxonomy(tree, {"p1", "p2"}).is_valid
        assert encode(tree) == expected
        assert decode(TaxonomyNode, expected) == tree
