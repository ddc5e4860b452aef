import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek import suites
from hideseek.errors import NodeOutOfRange, TooLarge
from hideseek.graphs import bfs_distances, from_edges
from hideseek.hider import (
    BenefitFunction,
    HiderStrategy,
    all_trees,
    example1_graph,
    palm_crown_mixed,
    palm_tree,
)
from hideseek.oracle import (
    adversarial_policy_battery,
    best_response_hider,
    episode_distribution,
    exact_expected_pos,
    exact_position_table,
    exact_visit_prob,
    exact_visit_table,
    hider_value,
    reachable_observations,
)
from hideseek.seeker import (
    AdjustedDFSPolicy,
    SearchState,
    BoundedDFSPolicy,
    DFSPolicy,
    battery_policies,
    sigma_star,
)

from graph_strategies import at_most_one_cycle


def line(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestExpectedPos:
    def test_star_leaf(self):
        assert exact_expected_pos(DFSPolicy(), palm_tree(4, 1), 2) == 2

    def test_palm_crown_uniform_battery(self):
        strategy = palm_crown_mixed(5, 2)
        for policy in battery_policies(2):
            assert hider_value(policy, strategy) == 3

    def test_example1_small(self):
        g, t = example1_graph(7, 2)
        assert exact_expected_pos(DFSPolicy(), g, t) == Fraction(14, 3)

    def test_guard(self):
        g = palm_tree(13, 3)
        with pytest.raises(TooLarge):
            exact_expected_pos(DFSPolicy(), g, 4)
        assert exact_expected_pos(DFSPolicy(), g, 4, node_limit=None, memoized=True) == Fraction(15, 2)


class TestVisitProb:
    def test_tree_pair_is_even(self):
        g = palm_tree(6, 2)
        assert exact_visit_prob(DFSPolicy(), g, 3, 4) == Fraction(1, 2)

    def test_example1_cycle_node(self):
        g, t = example1_graph(7, 2)
        for v in (4, 5):
            assert exact_visit_prob(DFSPolicy(), g, v, t) == Fraction(2, 3)

    def test_must_pass_node_always_first(self):
        g, t = example1_graph(7, 2)
        assert exact_visit_prob(DFSPolicy(), g, 1, t) == 1

    def test_complement(self):
        g, t = example1_graph(7, 2)
        a = exact_visit_prob(DFSPolicy(), g, 4, 5)
        b = exact_visit_prob(DFSPolicy(), g, 5, 4)
        assert a + b == 1


def small_instances():
    yield palm_tree(6, 2)
    yield line(5)
    yield example1_graph(6, 2)[0]
    yield from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (0, 5)])


class TestMemoizedMatchesNaive:
    def test_expected_pos_all_policies(self):
        for g in small_instances():
            for policy in (DFSPolicy(), BoundedDFSPolicy(2), AdjustedDFSPolicy(), sigma_star(2)):
                for h in range(1, g.n):
                    naive = exact_expected_pos(policy, g, h, memoized=False)
                    memo = exact_expected_pos(policy, g, h, memoized=True)
                    assert naive == memo, (policy.identifier, sorted(g.edges), h)

    def test_visit_prob(self):
        for g in small_instances():
            for policy in (DFSPolicy(), BoundedDFSPolicy(2), AdjustedDFSPolicy(), sigma_star(2)):
                for v, t in itertools.permutations(range(g.n), 2):
                    naive = exact_visit_prob(policy, g, v, t, memoized=False)
                    memo = exact_visit_prob(policy, g, v, t, memoized=True)
                    assert naive == memo


class TestEpisodeDistribution:
    def test_probabilities_sum_to_one(self):
        for g in small_instances():
            for policy in (DFSPolicy(), BoundedDFSPolicy(2), sigma_star(2)):
                dist = episode_distribution(policy, g)
                assert sum(dist.values()) == 1

    def test_star_orders_uniform(self):
        dist = episode_distribution(DFSPolicy(), palm_tree(4, 1))
        assert len(dist) == 6 and set(dist.values()) == {Fraction(1, 6)}

    def test_palm_crown_position_support(self):
        dist = episode_distribution(DFSPolicy(), palm_tree(5, 2))
        positions = {seq.index(3) for seq in dist}
        assert positions == {2, 3, 4}

    def test_one_node_graph(self):
        assert episode_distribution(DFSPolicy(), from_edges(1, [])) == {(0,): 1}

    def test_table_matches_expected_pos(self):
        for g in small_instances():
            table = exact_position_table(BoundedDFSPolicy(2), g)
            for h in range(g.n):
                assert table[h] == exact_expected_pos(BoundedDFSPolicy(2), g, h)


class TestBestResponse:
    def test_step_benefit_likes_the_line(self):
        (g, h, payoff), = best_response_hider(5, [BenefitFunction.step(4, 5)], DFSPolicy())
        assert payoff == 4
        assert bfs_distances(g, 0)[h] == 4  # the full line, hidden at its end

    def test_constant_benefit_same_payoff(self):
        (_, _, payoff), = best_response_hider(5, [BenefitFunction.constant(5)], DFSPolicy())
        assert payoff == 4

    def test_step_two(self):
        (g, h, payoff), = best_response_hider(5, [BenefitFunction.step(2, 5)], DFSPolicy())
        assert payoff == 3
        assert bfs_distances(g, 0)[h] == 2

    def test_several_benefits_rank_as_one_each(self):
        benefits = [BenefitFunction.step(cut, 6) for cut in range(1, 6)]
        benefits.append(BenefitFunction.geometric("1/2", 6))
        together = best_response_hider(6, benefits, DFSPolicy())
        assert together == [best_response_hider(6, [b], DFSPolicy())[0] for b in benefits]

    def test_guard(self):
        with pytest.raises(TooLarge, match="tree enumeration capped at n = 9"):
            best_response_hider(10, [BenefitFunction.constant(10)], DFSPolicy())

class TestBattery:
    def test_palm_6_2(self):
        results = dict(adversarial_policy_battery(palm_tree(6, 2), palm_crown_mixed(6, 2), 2))
        assert results["lowest_label"] == Fraction(7, 2)
        assert set(results.values()) == {Fraction(7, 2)}

    def test_line_deterministic(self):
        results = adversarial_policy_battery(palm_tree(6, 5), palm_crown_mixed(6, 5), 5)
        assert all(value == 5 for _, value in results)

    def test_palm_8_3_mixture(self):
        results = dict(adversarial_policy_battery(palm_tree(8, 3), palm_crown_mixed(8, 3), 3))
        assert results[sigma_star(3).identifier] == 5

    def test_mixture_read_off_components_on_a_unicyclic_graph(self):
        """The battery's sigma_star value, mixed from its components' values,
        is the mixture's own value where the components disagree."""
        g, t = example1_graph(8, 2)
        strategy = HiderStrategy(((g, t, Fraction(1, 2)), (g, 6, Fraction(1, 4)), (g, 7, Fraction(1, 4))))
        results = dict(adversarial_policy_battery(g, strategy, 2))
        assert len({results[p.identifier] for p in battery_policies(2)[:3]}) > 1
        assert results[sigma_star(2).identifier] == hider_value(sigma_star(2), strategy)


def test_tree_oracle_matches_closed_form_exhaustively():
    # every labeled tree on 6 nodes, every target
    from hideseek.analysis import tree_dfs_expected_position
    from hideseek.hider import all_trees

    for g in all_trees(6):
        table = exact_position_table(DFSPolicy(), g)
        for t in range(6):
            assert table[t] == tree_dfs_expected_position(g, 0, t)


class TestNodeRange:
    def test_target_out_of_range(self):
        g = palm_tree(5, 2)
        for h in (5, 99, -1):
            with pytest.raises(NodeOutOfRange):
                exact_expected_pos(DFSPolicy(), g, h)

    def test_pair_out_of_range(self):
        g = palm_tree(5, 2)
        with pytest.raises(NodeOutOfRange):
            exact_visit_prob(DFSPolicy(), g, 7, 1)
        with pytest.raises(NodeOutOfRange):
            exact_visit_prob(DFSPolicy(), g, 1, -1)


def test_reachable_observations_are_every_unfinished_state():
    """``look`` sees every unfinished prefix once, each with the frontier and
    the moves that a replay of the prefix gives."""
    g, _ = example1_graph(7, 2)
    policy = DFSPolicy()
    seen = []

    def look(state, moves):
        replay = SearchState(g, state.visited)
        assert state.frontier == replay.frontier
        assert moves == policy.distribution(replay)
        seen.append(tuple(state.visited))

    reachable_observations(policy, g, look)
    prefixes = {seq[:k] for seq in episode_distribution(policy, g) for k in range(1, g.n)}
    assert sorted(seen) == sorted(prefixes)


def test_equivalence_names_the_first_diverging_state(monkeypatch):
    """A policy that leaves plain DFS fails its tree's check, and no later tree is walked."""
    walked = []

    def counting_trees(n):
        for g in all_trees(n):
            walked.append(g)
            yield g

    def lowest_first(self, state):
        return ((min(state.frontier), Fraction(1)),)

    monkeypatch.setattr(suites, "all_trees", counting_trees)
    monkeypatch.setattr(AdjustedDFSPolicy, "distribution", lowest_first)
    report = suites.run_equivalence(max_n=3)
    assert [c.check_id for c in report.failures()] == ["trees n=3"]
    detail = report.failures()[0].detail
    assert detail.startswith("adfs differs at ") and detail.endswith(f" on {sorted(walked[-1].edges)}")
    assert len(walked) < 1 + 3  # one tree on 2 nodes, and not every tree on 3


@pytest.mark.parametrize("walk", [
    lambda g: exact_expected_pos(sigma_star(2), g, 7, memoized=True),
    lambda g: exact_visit_prob(DFSPolicy(), g, 3, 7, memoized=True),
    lambda g: exact_position_table(DFSPolicy(), g),
    lambda g: exact_visit_table(AdjustedDFSPolicy(), g),
    lambda g: reachable_observations(DFSPolicy(), g, lambda state, moves: None),
], ids=["expected_pos", "visit_prob", "position_table", "visit_table", "observations"])
def test_walks_leave_no_reference_cycle(walk):
    """A walk's memo, stored DAG or search state is freed on return, not left to the cycle collector."""
    g = palm_tree(8, 3)
    gc.collect()
    gc.disable()
    try:
        walk(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=25, deadline=None)
@given(at_most_one_cycle(max_n=8), st.integers(1, 3))
def test_visit_table_matches_sequence_keyed_pairs(g, d):
    """Every entry of the one-pass table is the sequence-keyed walk's value,
    and each pair's two orders are complementary; the battery holds dfs,
    adfs, dfs_d[d] and sigma_star(d)."""
    for policy in battery_policies(d):
        table = exact_visit_table(policy, g)
        assert set(table) == set(itertools.permutations(range(g.n), 2))
        for (v, t), prob in table.items():
            assert prob == exact_visit_prob(policy, g, v, t, memoized=False), (policy.identifier, v, t)
            assert prob + table[t, v] == 1


@settings(max_examples=25, deadline=None)
@given(at_most_one_cycle(max_n=8), st.integers(1, 3))
def test_position_table_matches_sequence_keyed_targets(g, d):
    for policy in battery_policies(d):
        table = exact_position_table(policy, g)
        assert table == {h: exact_expected_pos(policy, g, h, memoized=False) for h in range(g.n)}
