from collections import Counter
from fractions import Fraction

import pytest

from hideseek import hider
from hideseek.errors import BadHeight, BadShape, TooLarge
from hideseek.graphs import bfs_distances, find_cycle, path_profiles
from hideseek.hider import (
    TREE_ENUM_LIMIT,
    BenefitFunction,
    HiderStrategy,
    all_trees,
    example1_graph,
    example2_graph,
    optimal_hiding_depths,
    palm_crown_mixed,
    palm_tree,
    tree_classes,
)


class TestPalm:
    def test_height_one_is_star(self):
        g = palm_tree(5, 1)
        assert all((0, v) in g.edges for v in range(1, 5))

    def test_height_n_minus_one_is_line(self):
        g = palm_tree(5, 4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})

    def test_crown_at_trunk_end(self):
        g = palm_tree(10, 3)
        dist = bfs_distances(g, 0)
        assert g.edge_count == 9
        assert sum(1 for v in range(10) if dist[v] == 3) == 7
        assert all((2, v) in g.edges for v in range(3, 10))

    @pytest.mark.parametrize("d", [0, 5, 9])
    def test_bad_height(self, d):
        with pytest.raises(BadHeight):
            palm_tree(5, d)


class TestCrownMixed:
    def test_three_atoms(self):
        strat = palm_crown_mixed(5, 2)
        assert len(strat.atoms) == 3
        assert all(p == Fraction(1, 3) for _, _, p in strat.atoms)

    def test_line_single_atom(self):
        strat = palm_crown_mixed(5, 4)
        assert len(strat.atoms) == 1 and strat.atoms[0][2] == 1

    def test_seven_atoms(self):
        strat = palm_crown_mixed(10, 3)
        assert len(strat.atoms) == 7
        assert {h for _, h, _ in strat.atoms} == set(range(3, 10))

    def test_probabilities_validated(self):
        g = palm_tree(4, 1)
        with pytest.raises(ValueError):
            HiderStrategy(((g, 1, Fraction(1, 2)),))


class TestOptimalDepths:
    def test_step_benefit_caps_depth(self):
        # independent check: evaluate the depth score directly
        benefit = BenefitFunction.step(3, 10)
        scores = {d: benefit(d) * Fraction(10 + d - 1, 2) for d in range(10)}
        best = max(scores.values())
        assert {d for d, v in scores.items() if v == best} == {3}
        assert optimal_hiding_depths(benefit, 10) == frozenset({3})

    def test_geometric_tie(self):
        benefit = BenefitFunction.geometric(0.9, 10)
        assert benefit(1) == Fraction(9, 10)
        assert optimal_hiding_depths(benefit, 10) == frozenset({0, 1})

    def test_constant_prefers_depth(self):
        assert optimal_hiding_depths(BenefitFunction.constant(8), 8) == frozenset({7})


class TestExample1:
    def test_structure(self):
        g, t = example1_graph(10, 3)
        assert g.edge_count == 10
        assert t == 3 and bfs_distances(g, 0)[t] == 3
        assert len(find_cycle(g)) == 7

    def test_minimal_instance(self):
        g, t = example1_graph(5, 2)
        assert len(find_cycle(g)) == 3 and bfs_distances(g, 0)[t] == 2

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            example1_graph(4, 2)


class TestExample2:
    def test_node_count_identity(self):
        g, t = example2_graph(17, 5)
        # tail (d+1) + rest of cycle (2d-3) + pendants (n-3d+2) = n
        assert g.n == (5 + 1) + (2 * 5 - 3) + (17 - 3 * 5 + 2)
        assert g.edge_count == 17
        assert bfs_distances(g, 0)[t] == 5

    def test_pendants_reachable_two_ways(self):
        g, _ = example2_graph(17, 5)
        prof = path_profiles(g, 0)
        assert all(len(prof.lengths[v]) == 2 and prof.lengths[v][1] <= 5 for v in range(13, 17))

    def test_bad_shape_no_pendants(self):
        with pytest.raises(BadShape):
            example2_graph(3 * 5 - 2, 5)

    def test_bad_shape_small_d(self):
        with pytest.raises(BadShape):
            example2_graph(10, 2)


class TestAllTrees:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, n, count):
        assert sum(1 for _ in all_trees(n)) == count

    def test_all_valid_trees(self):
        for g in all_trees(5):
            assert g.edge_count == 4
            assert len(bfs_distances(g, 0)) == 5

    def test_distinct(self):
        seen = {g.edges for g in all_trees(4)}
        assert len(seen) == 16

    def test_too_large(self):
        with pytest.raises(TooLarge):
            next(all_trees(10))


# rooted unlabelled trees on n = 1..12 nodes (OEIS A000081)
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766)


def ahu_code(g, root=0):
    """The AHU code of the tree ``g`` rooted at ``root``: equal exactly on
    isomorphic rooted trees."""
    def code(v, parent):
        return tuple(sorted(code(w, v) for w in g.adj[v] if w != parent))

    return code(root, None)


class TestTreeClasses:
    def test_counts_and_weights(self, monkeypatch):
        """A000081 classes, whose weights sum to Cayley's n^(n-2), also past the cap."""
        monkeypatch.setattr(hider, "TREE_ENUM_LIMIT", len(ROOTED_TREES))
        assert [list(levels) for levels in hider._level_sequences(1)] == [[0]]
        for n in range(2, len(ROOTED_TREES) + 1):
            weights = [weight for _, weight in tree_classes(n)]
            assert len(weights) == ROOTED_TREES[n - 1], n
            assert sum(weights) == n ** (n - 2), n

    @pytest.mark.parametrize("n", range(2, 8))
    def test_classes_are_the_labelled_trees_up_to_isomorphism(self, n):
        """Deduplicating the Prufer trees by their AHU code rooted at 0 gives
        the same classes, each as many times as its weight."""
        classes = [(ahu_code(g), weight) for g, weight in tree_classes(n)]
        assert len({code for code, _ in classes}) == len(classes)
        assert dict(classes) == Counter(ahu_code(g) for g in all_trees(n))

    def test_too_large_refused_before_any_class_is_built(self, monkeypatch):
        def sentinel(*args):
            pytest.fail("a class was built before the size was checked")

        monkeypatch.setattr(hider, "from_edges", sentinel)
        with pytest.raises(TooLarge):
            next(tree_classes(TREE_ENUM_LIMIT + 1))


class TestBenefitFunction:
    def test_non_increasing_required(self):
        with pytest.raises(ValueError):
            BenefitFunction((Fraction(1), Fraction(2)))

    def test_spec_strings(self):
        assert BenefitFunction.from_spec("step:2", 5)(3) == 0
        assert BenefitFunction.from_spec("geometric:0.5", 5)(2) == Fraction(1, 4)
        assert BenefitFunction.from_spec("constant", 5)(4) == 1

    def test_negative_step_cutoff_refused(self):
        with pytest.raises(ValueError, match="step cutoff must be non-negative"):
            BenefitFunction.step(-3, 5)
        assert BenefitFunction.step(0, 5).values == (1, 0, 0, 0, 0)


@pytest.mark.parametrize("enumerate_trees, n", [(tree_classes, 1), (all_trees, 0)],
                         ids=["classes-1", "trees-0"])
def test_too_small_tree_is_a_bad_shape(enumerate_trees, n):
    """A size below 2 is no tree the enumerators build, not one too large for them."""
    with pytest.raises(BadShape, match="tree enumeration needs n >= 2"):
        next(enumerate_trees(n))


def test_tree_sizes_keep_each_size_once_in_order():
    assert hider.tree_sizes([5, 4, 5, 3, 4]) == [5, 4, 3]
