import hashlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings

from hideseek.analysis import (
    ALL_CASE_LABELS,
    ROWS,
    RULES,
    STRATEGIES,
    admitted_pairs,
    expected_position_from_tables,
    hider_payoff,
    mixture_capture_bound,
    pairwise_csv_rows,
    pairwise_probability,
    palm_expected_position,
    tree_dfs_expected_position,
)
from hideseek.corpus import default_corpus
from hideseek.errors import MultipleCycles, NodeOutOfRange, NotATree, PreconditionViolated
from hideseek.graphs import from_edges, must_pass
from hideseek.hider import BenefitFunction, example1_graph, example2_graph, palm_tree, tree_classes
from hideseek.oracle import exact_expected_pos, exact_visit_prob, exact_visit_table
from hideseek.seeker import (
    SIGMA_STAR_WEIGHTS,
    AdjustedDFSPolicy,
    DFSPolicy,
    policy_from_id,
    sigma_star,
)

from graph_strategies import at_most_one_cycle


def line(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestTreeClosedForm:
    def test_star_leaf(self):
        assert tree_dfs_expected_position(palm_tree(4, 1), 0, 2) == 2

    def test_line_end(self):
        assert tree_dfs_expected_position(line(4), 0, 3) == 3

    def test_line_interior(self):
        # deterministic walk: the node one step in is found at position 1
        assert tree_dfs_expected_position(line(4), 0, 1) == 1

    def test_rejects_cycles(self):
        g, _ = example1_graph(7, 2)
        with pytest.raises(NotATree):
            tree_dfs_expected_position(g, 0, 2)


class TestPalmValue:
    @pytest.mark.parametrize("n,d,want", [(10, 3, 6), (5, 4, 4), (2, 1, 1)])
    def test_values(self, n, d, want):
        assert palm_expected_position(n, d) == want


class TestHiderPayoff:
    def test_step_at_cap(self):
        assert hider_payoff(BenefitFunction.step(3, 10), 3, 10) == 6

    def test_step_beyond_cap(self):
        assert hider_payoff(BenefitFunction.step(3, 10), 4, 10) == 0

    def test_geometric(self):
        assert hider_payoff(BenefitFunction.geometric(0.9, 10), 1, 10) == Fraction(9, 2)


class TestPairwiseSpotValues:
    def test_dfs_cycle_node_before_tail_target(self):
        g, t = example1_graph(10, 3)
        for v in (5, 6, 7):
            res = pairwise_probability("dfs", g, 0, t, v)
            assert res.probability == Fraction(2, 3)
            assert res.case_label == "dfs:gate-target:v-double"

    def test_adfs_off_cycle_two_path_node(self):
        g, t = example2_graph(11, 4)
        res = pairwise_probability("adfs", g, 0, t, 10)
        assert res.probability == Fraction(1, 3)
        assert res.case_label == "adfs:gate-target:v-behind"

    def test_sigma_cycle_pair(self):
        corpus = {c.name: c for c in default_corpus()}
        inst = corpus["twin_tails"]
        res = pairwise_probability("sigma_star", inst.graph, 0, 3, 5, inst.d)
        assert res.probability == Fraction(1, 2)
        assert res.case_label == "sigma_star:dfs:cycle-pair|adfs:cycle-pair|dfs_d:cycle-pair"

    def test_sigma_behind_on_path(self):
        corpus = {c.name: c for c in default_corpus()}
        inst = corpus["twin_tails"]
        res = pairwise_probability("sigma_star", inst.graph, 0, 9, 2, inst.d)
        assert res.probability == Fraction(13, 16)

    def test_values_stay_in_universe(self):
        for inst in default_corpus():
            for strategy in ("dfs", "adfs", "dfs_d", "sigma_star"):
                for t in range(inst.graph.n):
                    for v in range(inst.graph.n):
                        if v == t:
                            continue
                        try:
                            res = pairwise_probability(strategy, inst.graph, 0, t, v, inst.d)
                        except PreconditionViolated:
                            continue
                        if strategy != "sigma_star":
                            assert res.probability == ROWS[res.case_label]
                            assert res.case_label in ALL_CASE_LABELS[strategy]
                            continue
                        parts = res.case_label.removeprefix("sigma_star:").split("|")
                        assert [p.split(":", 1)[0] for p in parts] == list(SIGMA_STAR_WEIGHTS)
                        assert res.probability == sum(
                            w * ROWS[p] for w, p in zip(SIGMA_STAR_WEIGHTS.values(), parts))


class TestPairwisePreconditions:
    def test_must_pass_node_rejected(self):
        g, t = example1_graph(10, 3)
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs", g, 0, t, 1)
        assert err.value.clause == "v-on-every-target-path"

    def test_dependent_node_rejected(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs", g, 0, 3, 4)
        assert err.value.clause == "target-on-every-v-path"

    def test_interior_target_rejected_on_cycles(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs", g, 0, 4, 2)
        assert err.value.clause == "target-not-leaf-or-cycle"

    def test_far_target_rejected_for_bounded(self):
        g, t = example1_graph(10, 3)
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs_d", g, 0, t, 5, 2)
        assert err.value.clause == "target-beyond-bound"

    def test_bound_missing(self):
        g, t = example1_graph(10, 3)
        with pytest.raises(ValueError):
            pairwise_probability("dfs_d", g, 0, t, 5)

    @pytest.mark.parametrize("strategy", ["dfs_d", "sigma_star"])
    def test_bound_missing_raised_before_any_guard(self, strategy):
        g, t = example1_graph(10, 3)
        # t = v and a source target would each be refused or answered by a guard
        with pytest.raises(ValueError, match=f"{strategy} needs a bound d"):
            pairwise_probability(strategy, g, 0, t, t)
        with pytest.raises(ValueError, match=f"{strategy} needs a bound d"):
            expected_position_from_tables(strategy, g, 0, 0)

    @pytest.mark.parametrize("strategy,d,message", [
        ("dfs_d", -1, "bound must be non-negative"),
        ("sigma_star", 0, "mixture needs a positive bound"),
        ("sigma_star", -2, "mixture needs a positive bound"),
    ])
    def test_bound_the_policy_refuses_is_refused_alike(self, strategy, d, message):
        g, t = example1_graph(10, 3)
        with pytest.raises(ValueError, match=message):
            policy_from_id(strategy, d=d)
        # a source target has no pair to refuse, and a table answer would hide the bad bound
        with pytest.raises(ValueError, match=message):
            expected_position_from_tables(strategy, g, 0, 0, d)
        with pytest.raises(ValueError, match=message):
            expected_position_from_tables(strategy, g, 0, t, d)
        with pytest.raises(ValueError, match=message):
            pairwise_probability(strategy, g, 0, t, 5, d)

    def test_cycle_outside_bound(self):
        # ring far beyond reach: near rows refuse rather than extrapolate
        g = from_edges(12, [(i, (i + 1) % 10) for i in range(10)] + [(1, 10), (0, 11)])
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs_d", g, 0, 10, 2, 3)
        assert err.value.clause == "cycle-outside-bound"

    def test_multi_cycle_rejected(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        with pytest.raises(MultipleCycles):
            pairwise_probability("dfs", g, 0, 4, 1)

    @pytest.mark.parametrize("call,message", [
        pytest.param(lambda g: expected_position_from_tables("dfs", g, 0, 99), "target 99",
                     id="expected-target"),
        pytest.param(lambda g: expected_position_from_tables("dfs", g, -1, 3), "source -1",
                     id="expected-source"),
        pytest.param(lambda g: pairwise_probability("dfs", g, 0, 99, 5), "target 99",
                     id="pairwise-target"),
        pytest.param(lambda g: pairwise_probability("dfs", g, 0, 3, 99), "v 99", id="pairwise-v"),
        pytest.param(lambda g: pairwise_probability("dfs", g, 10, 3, 5), "source 10",
                     id="pairwise-source"),
        pytest.param(lambda g: tree_dfs_expected_position(palm_tree(5, 2), 0, 7), "target 7",
                     id="tree-target"),
        pytest.param(lambda g: tree_dfs_expected_position(palm_tree(5, 2), 5, 1), "source 5",
                     id="tree-source"),
        pytest.param(lambda g: pairwise_csv_rows("x", "dfs", g, 42), "source 42", id="csv-source"),
    ])
    def test_node_out_of_range(self, call, message):
        g, _ = example1_graph(10, 3)
        with pytest.raises(NodeOutOfRange, match=message):
            call(g)

    @pytest.mark.parametrize("args,error,message", [
        (("bogus", 0), ValueError, "unknown strategy 'bogus'"),
        (("dfs_d", 0), ValueError, "dfs_d needs a bound d"),
        (("dfs", 10), NodeOutOfRange, "source 10 outside 0..9"),
    ], ids=["strategy", "bound", "source"])
    def test_admitted_pairs_checks_at_the_call(self, args, error, message):
        """A bad call is refused before any pair is asked for."""
        g, _ = example1_graph(10, 3)
        strategy, s = args
        with pytest.raises(error, match=message):
            admitted_pairs(strategy, g, s)

    @pytest.mark.parametrize("case,strategy,t,v,d,refusal", [
        ("ex1", "dfs", 1, 0, None, "target-not-leaf-or-cycle: t = 1"),
        ("ex1", "dfs_d", 3, 1, 1, "v-on-every-target-path: v = 1"),
        ("twin_tails", "sigma_star", 1, 8, 5, "no-table-row: dfs_d: target on the cycle, v off it"),
    ], ids=["leaf-guard-before-v-on-path", "v-on-path-before-bound", "sigma-star-asks-dfs_d-first"])
    def test_first_of_two_failed_guards_answers(self, case, strategy, t, v, d, refusal):
        """Where two guards fail, the one asked first names the refusal, even though the
        target's own facts are read once for all its pairs."""
        g = example1_graph(10, 3)[0] if case == "ex1" else {c.name: c for c in default_corpus()}[case].graph
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability(strategy, g, 0, t, v, d)
        assert str(err.value) == refusal
        assert (t, v) not in {(a, b) for a, b, _ in admitted_pairs(strategy, g, 0, d)}

    def test_underived_gap_refused(self):
        corpus = {c.name: c for c in default_corpus()}
        inst = corpus["twin_tails"]
        # two-short target against one-short v falls outside the tables
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs_d", inst.graph, 0, 11, 9, inst.d)
        assert err.value.clause == "no-table-row"


class TestOnePass:
    """admitted_pairs gives, in node order, every pair pairwise_probability answers."""

    @staticmethod
    def assert_pass_is_per_pair(g):
        for strategy in STRATEGIES:
            for d in [None] if strategy in ("dfs", "adfs") else range(1, g.n):
                want = []
                for t, v in product(range(g.n), repeat=2):
                    try:
                        want.append((t, v, pairwise_probability(strategy, g, 0, t, v, d)))
                    except PreconditionViolated:
                        pass
                assert list(admitted_pairs(strategy, g, 0, d)) == want, (strategy, d)

    @settings(max_examples=60, deadline=None)
    @given(at_most_one_cycle(max_n=8))
    def test_random_graphs(self, g):
        self.assert_pass_is_per_pair(g)

    @pytest.mark.parametrize("inst", default_corpus(), ids=lambda inst: inst.name)
    def test_corpus(self, inst):
        self.assert_pass_is_per_pair(inst.graph)


class TestComplementarity:
    def test_defined_pairs_sum_to_one(self):
        checked = 0
        for inst in default_corpus():
            g, d = inst.graph, inst.d
            for strategy in ("dfs", "adfs", "dfs_d", "sigma_star"):
                for t in range(g.n):
                    for v in range(t + 1, g.n):
                        try:
                            a = pairwise_probability(strategy, g, 0, t, v, d).probability
                            b = pairwise_probability(strategy, g, 0, v, t, d).probability
                        except PreconditionViolated:
                            continue
                        assert a + b == 1, (inst.name, strategy, t, v)
                        checked += 1
        assert checked > 200


class TestTablesAgainstOracle:
    """Wherever a table admits a pair, its probability is the oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(at_most_one_cycle(max_n=8))
    def test_dfs_and_adfs_admitted_pairs(self, g):
        for strategy, policy in (("dfs", DFSPolicy()), ("adfs", AdjustedDFSPolicy())):
            table = exact_visit_table(policy, g)
            for t in range(g.n):
                for v in range(g.n):
                    try:
                        res = pairwise_probability(strategy, g, 0, t, v)
                    except PreconditionViolated:
                        continue
                    assert res.probability == table[v, t], (strategy, t, v, res.case_label)

    # The dfs_d rows the oracle contradicts on some graphs (ROADMAP item 3).
    # A seeded sweep of 60,000 random graphs with n <= 8 found wrong answers
    # on these eight rows only; sigma_star mixes the dfs_d row in.
    KNOWN_WRONG = frozenset({
        "dfs_d:behind-target:v-on-short-path",
        "dfs_d:behind-target:v-one-short",
        "dfs_d:both-behind:partial:both-one-short",
        "dfs_d:both-behind:partial:target-one-v-two",
        "dfs_d:both-behind:reachable:both-one-short",
        "dfs_d:both-behind:reachable:exit-off-path",
        "dfs_d:both-behind:reachable:exit-on-path",
        "dfs_d:gate-target:v-one-short-cycle-partial",
    })

    @settings(max_examples=100, deadline=None)
    @given(at_most_one_cycle(max_n=8))
    def test_bounded_admitted_pairs_off_the_known_wrong_rows(self, g):
        for d in (1, 2, 3):
            for strategy in ("dfs_d", "sigma_star"):
                table = exact_visit_table(policy_from_id(strategy, d=d), g)
                for t, v, res in admitted_pairs(strategy, g, 0, d):
                    if res.case_label.rsplit("|", 1)[-1] in self.KNOWN_WRONG:
                        continue
                    assert res.probability == table[v, t], (strategy, d, t, v, res.case_label)

    # A known gap in the dfs_d rows: behind a cycle that is only partly within
    # reach, both pairs below are admitted with a value the oracle contradicts.
    DEFECT = from_edges(7, [(0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (3, 4), (4, 6)])

    # sigma_star mixes the dfs_d row in, so it inherits both defects
    # (1/2 against 17/32 and 13/16 against 3/4); mending dfs_d mends it too.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="dfs_d both-behind:partial:both-one-short gives 1/2; oracle 5/8")
    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("strategy", ["dfs_d", "sigma_star"])
    def test_dfs_d_both_one_short_partial(self, strategy, memoized):
        res = pairwise_probability(strategy, self.DEFECT, 0, 2, 3, 3)
        policy = policy_from_id(strategy, d=3)
        assert res.probability == exact_visit_prob(policy, self.DEFECT, 3, 2, memoized=memoized)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="dfs_d behind-target:v-on-short-path gives 1; oracle 3/4")
    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("strategy", ["dfs_d", "sigma_star"])
    def test_dfs_d_cycle_node_on_short_path(self, strategy, memoized):
        res = pairwise_probability(strategy, self.DEFECT, 0, 2, 5, 3)
        policy = policy_from_id(strategy, d=3)
        assert res.probability == exact_visit_prob(policy, self.DEFECT, 5, 2, memoized=memoized)


class TestRules:
    """The rows themselves: each strategy's lookup is total over its finite feature
    domain, no row is shadowed by the rows before it, and the rows are the recorded ones."""

    T_CLASSES, V_CLASSES, BOOLS = ("free", "gate", "cycle", "behind"), ("single", "cycle", "behind"), (False, True)
    DOMAINS = {
        "dfs": list(product(T_CLASSES, V_CLASSES, BOOLS)),
        "adfs": list(product(T_CLASSES, V_CLASSES, BOOLS)),
        "dfs_d": list(product(T_CLASSES + ("far",), V_CLASSES, BOOLS, BOOLS, BOOLS, BOOLS)),
    }

    @staticmethod
    def first_match(strategy, features):
        """The index of the first of the strategy's rows whose pattern matches, or None."""
        return next((i for i, (pattern, _, _) in enumerate(RULES[strategy])
                     if len(pattern) == len(features)
                     and all(want is None or want == got for want, got in zip(pattern, features))), None)

    def test_domains_cover_the_tables(self):
        assert self.DOMAINS.keys() == RULES.keys()
        assert [len(domain) for domain in self.DOMAINS.values()] == [24, 24, 240]

    @pytest.mark.parametrize("strategy", ["dfs", "adfs", "dfs_d"])
    def test_every_feature_tuple_matches_a_row(self, strategy):
        assert [f for f in self.DOMAINS[strategy] if self.first_match(strategy, f) is None] == []

    @pytest.mark.parametrize("strategy", ["dfs", "adfs", "dfs_d"])
    def test_no_row_is_shadowed(self, strategy):
        firsts = {self.first_match(strategy, f) for f in self.DOMAINS[strategy]}
        assert [row for i, row in enumerate(RULES[strategy]) if i not in firsts] == []

    def test_rows_are_the_recorded_ones(self):
        assert ROWS == {
            "dfs:free-target": Fraction(1, 2),
            "dfs:gate-target:v-single": Fraction(1, 2),
            "dfs:gate-target:v-double": Fraction(2, 3),
            "dfs:cycle-pair": Fraction(1, 2),
            "dfs:behind-target:v-cycle": Fraction(3, 4),
            "dfs:behind-target:v-behind": Fraction(1, 2),
            "adfs:free-target": Fraction(1, 2),
            "adfs:gate-target:v-single": Fraction(1, 2),
            "adfs:gate-target:v-cycle": Fraction(2, 3),
            "adfs:gate-target:v-behind": Fraction(1, 3),
            "adfs:cycle-pair": Fraction(1, 2),
            "adfs:behind-target:v-cycle": Fraction(3, 4),
            "adfs:behind-target:v-behind": Fraction(1, 2),
            "dfs_d:far-v": Fraction(0),
            "dfs_d:free-target": Fraction(1, 2),
            "dfs_d:gate-target:v-two-short": Fraction(2, 3),
            "dfs_d:gate-target:v-single-short": Fraction(1, 2),
            "dfs_d:gate-target:v-one-short-cycle-reachable": Fraction(2, 3),
            "dfs_d:gate-target:v-one-short-cycle-partial": Fraction(1, 2),
            "dfs_d:cycle-pair": Fraction(1, 2),
            "dfs_d:behind-target:v-on-short-path": Fraction(1),
            "dfs_d:behind-target:v-two-short": Fraction(3, 4),
            "dfs_d:behind-target:v-one-short": Fraction(1, 2),
            "dfs_d:both-behind:reachable:exit-on-path": Fraction(5, 8),
            "dfs_d:both-behind:reachable:exit-off-path": Fraction(1, 2),
            "dfs_d:both-behind:reachable:both-short": Fraction(1, 2),
            "dfs_d:both-behind:reachable:both-one-short": Fraction(1, 2),
            "dfs_d:both-behind:partial:target-one-v-two": Fraction(3, 4),
            "dfs_d:both-behind:partial:both-short": Fraction(1, 2),
            "dfs_d:both-behind:partial:both-one-short": Fraction(1, 2),
        }
        assert {s: len(labels) for s, labels in ALL_CASE_LABELS.items()} == {"dfs": 6, "adfs": 7, "dfs_d": 17}

    def test_known_wrong_rows_are_rows(self):
        assert TestTablesAgainstOracle.KNOWN_WRONG <= ROWS.keys()


class TestSigmaMixture:
    """sigma_star answers are the weighted sum of its components' rows."""

    def test_admits_pair_every_component_admits(self):
        # the cycle is only partly within d = 3, yet every component has a row
        inst = {c.name: c for c in default_corpus()}["far_ring"]
        res = pairwise_probability("sigma_star", inst.graph, 0, 1, 4, inst.d)
        assert res.probability == Fraction(3, 8)
        assert res.probability == exact_visit_prob(sigma_star(inst.d), inst.graph, 4, 1, memoized=True)

    def test_csv_rows_keep_six_fields(self):
        rows = 0
        for inst in default_corpus():
            for row in pairwise_csv_rows(inst.name, "sigma_star", inst.graph, 0, inst.d):
                fields = row.split(",")
                assert len(fields) == 6, row
                parts = fields[4].removeprefix("sigma_star:").split("|")
                for kind, part in zip(SIGMA_STAR_WEIGHTS, parts, strict=True):
                    assert part in ALL_CASE_LABELS[kind], row
                rows += 1
        assert rows

    def test_beyond_bound_refused_as_dfs_d(self):
        g, t = example1_graph(10, 3)
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("sigma_star", g, 0, t, 5, 2)
        assert err.value.clause == "target-beyond-bound"

    def test_bound_missing(self):
        g, t = example1_graph(10, 3)
        with pytest.raises(ValueError, match="sigma_star needs a bound d"):
            pairwise_probability("sigma_star", g, 0, t, 5)


class TestExpectedPosition:
    def test_palm_matches_value(self):
        g = palm_tree(10, 3)
        assert expected_position_from_tables("dfs", g, 0, 5) == palm_expected_position(10, 3)

    def test_example1_dfs(self):
        g, t = example1_graph(10, 3)
        assert expected_position_from_tables("dfs", g, 0, t) == 7

    def test_example2_bounded(self):
        g, t = example2_graph(17, 5)
        assert expected_position_from_tables("dfs_d", g, 0, t, 5) == Fraction(35, 3)

    def test_tree_matches_closed_form_any_target(self):
        for n in range(2, 8):
            for g, _ in tree_classes(n):
                for t in range(n):
                    assert expected_position_from_tables("dfs", g, 0, t) == \
                        tree_dfs_expected_position(g, 0, t), (g.edges, t)

    @settings(max_examples=60, deadline=None)
    @given(at_most_one_cycle(max_n=8))
    def test_sum_matches_brute_reference(self, g):
        """Each target's value is the pairwise sum over the nodes ``must_pass``
        leaves in play, or the refusal of the first such node in node order."""
        cuts = [must_pass(g, 0, x) for x in range(g.n)]
        bounds = {"dfs": [None], "adfs": [None], "dfs_d": range(g.n), "sigma_star": range(1, g.n)}
        for strategy, ds in bounds.items():
            for d in ds:
                for t in range(g.n):
                    want, refusal = Fraction(len(cuts[t]) - 1), None
                    for v in range(g.n):
                        if v in cuts[t] or t in cuts[v]:
                            continue
                        try:
                            want += pairwise_probability(strategy, g, 0, t, v, d).probability
                        except PreconditionViolated as exc:
                            refusal = exc.clause
                            break
                    if refusal is None:
                        assert expected_position_from_tables(strategy, g, 0, t, d) == want
                    else:
                        with pytest.raises(PreconditionViolated) as err:
                            expected_position_from_tables(strategy, g, 0, t, d)
                        assert err.value.clause == refusal, (strategy, d, t)

    def test_large_examples_match_paper(self):
        # the paper's values: 2/3 (n + d/2 - 1) for dfs on Example 1, and
        # 2/3 (n + 1/2) for dfs_d on Example 2
        g, t = example1_graph(20_000, 3)
        assert expected_position_from_tables("dfs", g, 0, t) == Fraction(2, 3) * (20_000 + Fraction(3, 2) - 1)
        g, t = example2_graph(2_000, 5)
        assert expected_position_from_tables("dfs_d", g, 0, t, 5) == Fraction(2, 3) * (2_000 + Fraction(1, 2))


class TestBound:
    def test_values(self):
        assert mixture_capture_bound(16, 3) == Fraction(172, 16)
        assert mixture_capture_bound(16, 1) == Fraction(146, 16)

    def test_dominates_mixture_on_example1(self):
        g, t = example1_graph(10, 3)
        value = exact_expected_pos(sigma_star(3), g, t, memoized=True)
        assert value <= mixture_capture_bound(10, 3)


class TestCsvRows:
    def test_row_format(self):
        g, t = example1_graph(10, 3)
        rows = pairwise_csv_rows("ring_tail", "dfs", g, 0)
        assert f"ring_tail,dfs,{t},5,dfs:gate-target:v-double,2/3" in rows
        for row in rows:
            instance, strategy, t_col, v_col, label, prob = row.split(",")
            assert instance == "ring_tail" and strategy == "dfs"
            assert label in ALL_CASE_LABELS["dfs"]
            assert "/" in prob or prob in ("0", "1")


def corpus_tables_text() -> str:
    """Every corpus row of every table, then each target's expected position or refusal clause."""
    lines = []
    for inst in default_corpus():
        for strategy in STRATEGIES:
            lines += pairwise_csv_rows(inst.name, strategy, inst.graph, 0, inst.d)
            for t in range(inst.graph.n):
                try:
                    value = expected_position_from_tables(strategy, inst.graph, 0, t, inst.d)
                except PreconditionViolated as exc:
                    value = exc.clause
                lines.append(f"{inst.name},{strategy},{t},expected,{value}")
    return "\n".join(lines) + "\n"


def test_corpus_tables_are_golden():
    """Each admitted row's label and probability, and each target's value, stay as recorded."""
    assert corpus_tables_text() == (Path(__file__).parent / "golden" / "corpus_tables.txt").read_text()


def pairwise_dump(seed: int = 7, count: int = 300) -> str:
    """Every ``pairwise_probability`` answer, ``label,p/q`` or ``!clause: detail``, for each
    strategy and ordered (t, v), t = v included, over the corpus and ``count`` seeded random
    recursive trees with n = 2..10, each given one chord with probability 0.8, source 0 and
    d uniform in 1..n-1."""
    graphs = [(inst.graph, inst.d) for inst in default_corpus()]
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 10)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        chords = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
        if rng.random() < 0.8 and chords:
            edges.add(rng.choice(chords))
        graphs.append((from_edges(n, edges), rng.randint(1, n - 1)))
    lines = []
    for g, d in graphs:
        for strategy in STRATEGIES:
            for t in range(g.n):
                for v in range(g.n):
                    try:
                        res = pairwise_probability(strategy, g, 0, t, v, d)
                        lines.append(f"{res.case_label},{res.probability}")
                    except PreconditionViolated as exc:
                        lines.append(f"!{exc}")
    return "\n".join(lines)


def test_pairwise_dump_is_golden():
    """Every answer, refusals included, stays as recorded; a row edit changes this digest."""
    dump = pairwise_dump()
    assert (dump.count("\n") + 1, hashlib.sha256(dump.encode()).hexdigest()) == (
        61388, "74942f62cc937a2c5f446cf7a1fd55a63f775c91732946a05190277552d40ad1")
