import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek import oracle, suites
from hideseek.corpus import default_corpus
from hideseek.errors import NodeOutOfRange, PolicyViolation, TooLarge
from hideseek.graphs import bfs_distances, from_edges
from hideseek.hider import (
    BenefitFunction,
    HiderStrategy,
    example1_graph,
    palm_crown_mixed,
    palm_tree,
    tree_classes,
)
from hideseek.oracle import (
    best_response_hider,
    episode_distribution,
    exact_expected_pos,
    exact_position_table,
    exact_visit_prob,
    exact_visit_table,
    hider_value,
    reachable_observations,
    search_value_range,
    twin_classes,
)
from hideseek.seeker import (
    AdjustedDFSPolicy,
    SearchState,
    BoundedDFSPolicy,
    DFSPolicy,
    MixturePolicy,
    execute,
    policy_from_id,
    sigma_star,
)

from graph_strategies import at_most_one_cycle, with_false_twins
from policy_battery import BreadthPreferringPolicy, LabelOrderPolicy, battery_policies


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

    @pytest.mark.parametrize("memoized", [False, True])
    def test_walk_deeper_than_the_recursion_limit(self, memoized):
        """One decision per visit on a 2,000-node path: the walk's depth is not Python's stack depth."""
        assert exact_expected_pos(DFSPolicy(), line(2000), 1999, node_limit=None, memoized=memoized) == 1999


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


class LabelReadingDFS(DFSPolicy):
    """Plain DFS marked as reading labels, so its memoized walks key states by label."""

    kind = "label_reading_dfs"
    label_free = False


class DFSOrLowest(LabelReadingDFS):
    """DFS that may also jump to the lowest frontier label: it reads labels,
    so merging false twins would change its values."""

    kind = "dfs_or_lowest"

    def eligible(self, state):
        return {*super().eligible(state), min(state.frontier)}


def count_states(monkeypatch):
    """Count the states each later ``_expand`` folds, into the returned list."""
    counts = []
    expand = oracle._expand

    def counting(policy, g, memoized, fold, *args, **kwargs):
        counts.append(0)

        def counted(state, edges):
            counts[-1] += 1
            return fold(state, edges)

        return expand(policy, g, memoized, counted, *args, **kwargs)

    monkeypatch.setattr(oracle, "_expand", counting)
    return counts


class TestTwinMerging:
    def test_label_free_policies(self):
        assert all(p.label_free for p in (DFSPolicy(), BoundedDFSPolicy(2), AdjustedDFSPolicy(),
                                         BreadthPreferringPolicy()))
        assert not any(p.label_free for p in (LabelOrderPolicy(True), LabelOrderPolicy(False),
                                              LabelReadingDFS(), DFSOrLowest()))

    def test_classes_of_a_palm_crown(self):
        g = palm_tree(7, 2)  # source 0, trunk 1, crown leaves 2..6
        # the source has the leaves' one neighbour, so it names their class
        assert twin_classes(g) == [0, 1, 0, 0, 0, 0, 0]
        # split by weight: the source, the leaves weighing 1 and those weighing 2
        assert twin_classes(g, [0, 0, 1, 2, 1, 2, 2]) == [0, 1, 2, 3, 2, 3, 3]

    @pytest.mark.parametrize("n", [16, 40, 200])
    def test_palm_crown_target_expands_at_most_n_states(self, monkeypatch, n):
        """Crown leaves other than the target differ only by label, so the walk
        takes one state per trunk node and one per count of crown leaves seen,
        where a label-keyed walk takes 2**(n - 4) + 2."""
        counts = count_states(monkeypatch)
        value = exact_expected_pos(DFSPolicy(), palm_tree(n, 3), n - 1, node_limit=None, memoized=True)
        assert value == Fraction(n + 3 - 1, 2)
        assert counts == [n - 1]

    def test_label_reading_mixture_keeps_label_keys(self, monkeypatch):
        counts = count_states(monkeypatch)
        g = palm_tree(7, 2)
        exact_expected_pos(LabelReadingDFS(), g, 6, memoized=True)
        exact_expected_pos(DFSPolicy(), g, 6, memoized=True)
        # source, trunk, then one state per nonempty set of the free leaves 2..5,
        # against one per count of them
        assert counts == [2 + 15, 2 + 4]

    def test_corpus_walks_fold_the_recorded_states(self, monkeypatch):
        """The states folded by every memoized dfs, adfs and dfs_d walk to each
        corpus target, summed: the reach of the twin merge, pinned."""
        counts = count_states(monkeypatch)
        for inst in default_corpus():
            for kind in ("dfs", "adfs", "dfs_d"):
                policy = policy_from_id(kind, d=inst.d)
                for h in range(inst.graph.n):
                    exact_expected_pos(policy, inst.graph, h, memoized=True)
        assert sum(counts) == 8581


@settings(max_examples=30, deadline=None)
@given(with_false_twins(max_n=6), st.integers(1, 3), st.data())
def test_twin_merged_walks_match_sequence_keyed(g, d, data):
    """Memoized walks, which merge false twins for label-free policies, give
    the sequence-keyed values; the battery holds breadth_first, both label
    orders and upfront sigma_star, whose components merge twins, and the
    DFS that may jump to the lowest label reads labels."""
    h = data.draw(st.integers(0, g.n - 1), label="h")
    v, t = data.draw(st.permutations(range(g.n)), label="order")[:2]
    policies = battery_policies(d) + [DFSOrLowest()]
    for policy in policies:
        label = (policy.identifier, sorted(g.edges))
        assert (exact_expected_pos(policy, g, h, memoized=True)
                == exact_expected_pos(policy, g, h, memoized=False)), (label, h)
        assert (exact_visit_prob(policy, g, v, t, memoized=True)
                == exact_visit_prob(policy, g, v, t, memoized=False)), (label, v, t)


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
    """Each seeker of the battery, against a hiding strategy, lies within the
    least and greatest value over every expanding search."""

    def values(self, strategy, d):
        least, greatest = search_value_range(strategy)
        values = {p.identifier: hider_value(p, strategy) for p in battery_policies(d)}
        assert all(least <= value <= greatest for value in values.values()), (least, greatest, values)
        return values

    def test_palm_6_2(self):
        values = self.values(palm_crown_mixed(6, 2), 2)
        assert values["lowest_label"] == Fraction(7, 2)
        assert set(values.values()) == {Fraction(7, 2)}

    def test_line_deterministic(self):
        assert set(self.values(palm_crown_mixed(6, 5), 5).values()) == {5}

    def test_palm_8_3_mixture(self):
        assert self.values(palm_crown_mixed(8, 3), 3)[sigma_star(3).identifier] == 5

    def test_mixture_read_off_components_on_a_unicyclic_graph(self):
        """sigma_star's value is its components' values mixed by their weights,
        where the components disagree."""
        g, t = example1_graph(8, 2)
        strategy = HiderStrategy(((g, t, Fraction(1, 2)), (g, 6, Fraction(1, 4)), (g, 7, Fraction(1, 4))))
        values = self.values(strategy, 2)
        policy = sigma_star(2)
        assert len({values[p.identifier] for _, p in policy.components}) > 1
        assert values[policy.identifier] == sum(w * values[p.identifier] for w, p in policy.components)

    def test_every_graph_checked_before_any_walk(self, monkeypatch):
        """``hider_value`` checks every graph of the strategy against the guard
        before it walks the first."""
        def sentinel(*args, **kwargs):
            pytest.fail("a decision tree was walked before every graph was checked")

        monkeypatch.setattr(oracle, "_expand", sentinel)
        strategy = HiderStrategy(((palm_tree(6, 2), 5, Fraction(1, 2)),
                                  (palm_tree(oracle.DEFAULT_NODE_LIMIT + 1, 2), 5, Fraction(1, 2))))
        with pytest.raises(TooLarge, match=f"n = {oracle.DEFAULT_NODE_LIMIT + 1} exceeds"):
            hider_value(DFSPolicy(), strategy)


def brute_value_range(strategy):
    """The least and greatest expected position of the hidden node over every
    expanding-search order of the strategy's one graph, by plain push/pop
    recursion over the orders, with ``Fraction`` sums."""
    g = strategy.atoms[0][0]
    p = [Fraction(0)] * g.n
    for _, h, q in strategy.atoms:
        p[h] += q
    state = SearchState(g)
    values = []

    def walk(value):
        if len(state.visited) == g.n:
            values.append(value)
            return
        for w in sorted(state.frontier):
            k = len(state.visited)
            state.push(w)
            walk(value + k * p[w])
            state.pop()

    walk(Fraction(0))
    return min(values), max(values)


class TestSearchValueRange:
    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_palm_crowns_tie_every_search(self, n):
        for d in range(1, n):
            want = Fraction(n + d - 1, 2)
            assert search_value_range(palm_crown_mixed(n, d)) == (want, want), d

    def test_example1_target(self):
        g, t = example1_graph(7, 2)
        assert search_value_range(HiderStrategy.pure(g, t)) == (2, 6)

    def test_example1_mix(self):
        g, t = example1_graph(7, 2)
        strategy = HiderStrategy(((g, t, Fraction(1, 2)), (g, 6, Fraction(1, 4)), (g, 5, Fraction(1, 4))))
        assert search_value_range(strategy) == (Fraction(11, 4), Fraction(21, 4))

    def test_two_graphs_refused(self):
        strategy = HiderStrategy(((palm_tree(5, 2), 4, Fraction(1, 2)), (line(5), 4, Fraction(1, 2))))
        with pytest.raises(ValueError, match="spread over 2 graphs"):
            search_value_range(strategy)

    def test_guard_refuses_before_any_walk(self, monkeypatch):
        def sentinel(*args, **kwargs):
            pytest.fail("a decision tree was walked before the graph was checked")

        monkeypatch.setattr(oracle, "_expand", sentinel)
        n = oracle.DEFAULT_NODE_LIMIT + 1
        with pytest.raises(TooLarge, match=f"n = {n} exceeds"):
            search_value_range(palm_crown_mixed(n, 2))

    def test_twins_fold_one_state_per_count(self, monkeypatch):
        """Leaves of equal weight merge as twins: the star's 11 crown leaves take
        one state per count seen, where the visited sets number 2**11; leaves
        weighing 1/9 and 2/9, three each, take one state per pair of counts."""
        counts = count_states(monkeypatch)
        assert search_value_range(palm_crown_mixed(12, 1)) == (6, 6)
        star = palm_tree(7, 1)
        strategy = HiderStrategy(tuple((star, h, Fraction(1 + (h > 3), 9)) for h in range(1, 7)))
        assert search_value_range(strategy) == brute_value_range(strategy)
        assert counts == [12, 4 * 4]


@settings(max_examples=60, deadline=None)
@given(st.one_of(at_most_one_cycle(max_n=7), with_false_twins(max_n=4)), st.data())
def test_search_value_range_matches_brute_orders(g, data):
    """The memoized fold over visited sets, which merges twins of equal weight,
    gives the brute least and greatest over every order; the weights come from
    a small set, so twins of equal and of unequal weight both occur."""
    nodes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True), label="nodes")
    raw = data.draw(st.lists(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(2)]),
                             min_size=len(nodes), max_size=len(nodes)), label="weights")
    total = sum(raw)
    strategy = HiderStrategy(tuple((g, h, w / total) for h, w in zip(nodes, raw)))
    assert search_value_range(strategy) == brute_value_range(strategy)


def test_mixture_tables_merge_like_fraction_sums():
    """The integer merge of an upfront mixture's tables gives the plain
    ``Fraction`` sums of weight times value, key by key and in key order, on
    every corpus instance's sigma_star visit table."""
    for inst in default_corpus():
        policy = sigma_star(inst.d)
        expected: dict = {}
        for w, component in policy.components:
            for pair, value in exact_visit_table(component, inst.graph).items():
                expected[pair] = expected.get(pair, Fraction(0)) + w * value
        merged = exact_visit_table(policy, inst.graph)
        assert list(merged.items()) == list(expected.items()), inst.name


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
    """A policy that leaves plain DFS fails at the first class where it does:
    the detail names that representative, and no later class of its size is walked."""
    walked = {}

    def counting_classes(n):
        walked[n] = []
        for g, weight in tree_classes(n):
            walked[n].append(g)
            yield g, weight

    def lowest_first(self, state):
        return (min(state.frontier),)

    monkeypatch.setattr(suites, "tree_classes", counting_classes)
    monkeypatch.setattr(AdjustedDFSPolicy, "distribution", lowest_first)
    report = suites.run_equivalence(max_n=4)
    assert [c.check_id for c in report.failures()] == ["trees n=3", "trees n=4"]
    for n, check in zip((3, 4), report.failures()):
        assert check.detail.startswith("adfs differs at ")
        assert check.detail.endswith(f" on {sorted(walked[n][-1].edges)}")
    # the path is the one class on 4 nodes where DFS never has a choice, so
    # the walk stops at the first or the second class
    assert len(walked[4]) < 4


class Jumper(DFSPolicy):
    """Plain DFS, except that it jumps to the highest node neither visited nor on the frontier."""

    kind = "jumper"

    def distribution(self, state):
        hidden = [v for v in range(state.g.n) if v not in state.visited_set and v not in state.frontier]
        return (max(hidden),) if hidden else super().distribution(state)


@pytest.mark.parametrize("walk", [
    lambda g: exact_expected_pos(Jumper(), g, 5),
    lambda g: exact_expected_pos(Jumper(), g, 5, memoized=True),
    lambda g: exact_visit_prob(Jumper(), g, 4, 5),
    lambda g: exact_position_table(Jumper(), g),
    lambda g: reachable_observations(Jumper(), g, lambda state, moves: None),
    lambda g: execute(Jumper(), g, random.Random(0)),
], ids=["expected_pos", "expected_pos_memoized", "visit_prob", "position_table", "observations", "execute"])
def test_a_move_off_the_frontier_is_refused_by_every_engine(walk):
    """On palm_tree(6, 2) the jump onto 5, a leaf at distance 2, used to give
    E[pos 5] = 1 and P(4 before 5) = 0 when 5 was the question's target, and a
    bare KeyError otherwise; the sampler refused it."""
    with pytest.raises(PolicyViolation, match="policy jumper proposed a node off the frontier"):
        walk(palm_tree(6, 2))


@pytest.mark.parametrize("walk", [
    lambda g: exact_expected_pos(sigma_star(2), g, 7, memoized=True),
    lambda g: exact_expected_pos(sigma_star(2), g, 7),
    lambda g: exact_visit_prob(DFSPolicy(), g, 3, 7, memoized=True),
    lambda g: exact_visit_prob(sigma_star(2), g, 3, 7),
    lambda g: exact_position_table(DFSPolicy(), g),
    lambda g: exact_visit_table(AdjustedDFSPolicy(), g),
    lambda g: episode_distribution(sigma_star(2), g),
    lambda g: exact_position_table(DFSPolicy(), line(1500), node_limit=None),
    lambda g: exact_expected_pos(DFSPolicy(), line(1500), 1499, node_limit=None, memoized=True),
    lambda g: reachable_observations(DFSPolicy(), g, lambda state, moves: None),
], ids=["expected_pos", "expected_pos_sequence_keyed", "visit_prob", "visit_prob_sequence_keyed",
        "position_table", "visit_table", "episodes", "deep_position_table", "deep_expected_pos",
        "observations"])
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


def brute_sequences(policy, g):
    """Every seeking sequence of ``policy`` on ``g`` with its probability: a
    plain recursive enumeration with ``Fraction`` products, an upfront mixture
    taken per component, and no state merged or folded."""
    if isinstance(policy, MixturePolicy):
        out = {}
        for weight, component in policy.components:
            for seq, prob in brute_sequences(component, g).items():
                out[seq] = out.get(seq, 0) + weight * prob
        return out
    out = {}
    state = SearchState(g)

    def walk(prob):
        if len(state.visited) == g.n:
            out[tuple(state.visited)] = prob
            return
        moves = policy.distribution(state)
        for w in moves:
            state.push(w)
            walk(prob / len(moves))
            state.pop()

    walk(Fraction(1))
    return out


def assert_oracle_matches_brute(policy, g):
    sequences = brute_sequences(policy, g)
    assert sum(sequences.values()) == 1
    where = {seq: {v: i for i, v in enumerate(seq)} for seq in sequences}
    positions = {h: sum(prob * where[seq][h] for seq, prob in sequences.items()) for h in range(g.n)}
    before = {(v, t): sum(prob for seq, prob in sequences.items() if where[seq][v] < where[seq][t])
              for v, t in itertools.permutations(range(g.n), 2)}
    label = (policy.identifier, sorted(g.edges))
    assert episode_distribution(policy, g) == sequences, label
    assert exact_position_table(policy, g) == positions, label
    assert exact_visit_table(policy, g) == before, label
    for h in range(g.n):
        for memoized in (False, True):
            assert exact_expected_pos(policy, g, h, memoized=memoized) == positions[h], (label, h)
    for (v, t), prob in before.items():
        for memoized in (False, True):
            assert exact_visit_prob(policy, g, v, t, memoized=memoized) == prob, (label, v, t)


@settings(max_examples=25, deadline=None)
@given(at_most_one_cycle(max_n=7), st.integers(1, 3))
def test_every_walk_matches_brute_sequences(g, d):
    """The integer folds and mass pushes give the values of a plain enumeration,
    for the battery (deterministic label orders among it) and the DFS that
    may jump to the lowest label."""
    for policy in battery_policies(d) + [DFSOrLowest()]:
        assert_oracle_matches_brute(policy, g)


@pytest.mark.parametrize("policy", [DFSPolicy(), LabelOrderPolicy(lowest=False),
                                    sigma_star(2)],
                         ids=lambda p: p.identifier)
def test_one_node_graph_matches_brute_sequences(policy):
    assert_oracle_matches_brute(policy, from_edges(1, []))
