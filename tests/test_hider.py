from fractions import Fraction

import pytest

from hideseek.errors import BadHeight, BadShape, TooLarge
from hideseek.graphs import bfs_distances, find_cycle, path_profiles
from hideseek.hider import (
    BenefitFunction,
    HiderStrategy,
    all_trees,
    example1_graph,
    example2_graph,
    optimal_hiding_depths,
    palm_crown_mixed,
    palm_tree,
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
        assert set(range(13, 17)) <= prof.bounded_sets(5).two_short

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


class TestBenefitFunction:
    def test_non_increasing_required(self):
        with pytest.raises(ValueError):
            BenefitFunction((Fraction(1), Fraction(2)))

    def test_step_json(self):
        b = BenefitFunction.from_json({"kind": "step", "d": 3}, 6)
        assert [b(x) for x in range(6)] == [1, 1, 1, 1, 0, 0]

    def test_table_json(self):
        b = BenefitFunction.from_json({"kind": "table", "values": ["1", "0.5", "0.25"]}, 3)
        assert b(1) == Fraction(1, 2)

    def test_geometric_json_is_exact(self):
        b = BenefitFunction.from_json({"kind": "geometric", "rho": 0.9}, 4)
        assert b(2) == Fraction(81, 100)

    def test_spec_strings(self):
        assert BenefitFunction.from_spec("step:2", 5)(3) == 0
        assert BenefitFunction.from_spec("geometric:0.5", 5)(2) == Fraction(1, 4)
        assert BenefitFunction.from_spec("constant", 5)(4) == 1
