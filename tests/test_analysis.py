from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from hideseek.analysis import (
    ALL_CASE_LABELS,
    ROWS,
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
from hideseek.errors import MultipleCycles, NotATree, PreconditionViolated
from hideseek.graphs import from_edges
from hideseek.hider import BenefitFunction, example1_graph, example2_graph, palm_tree
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
        with pytest.raises(ValueError, match=f"{strategy} needs the bound d"):
            pairwise_probability(strategy, g, 0, t, t)
        with pytest.raises(ValueError, match=f"{strategy} needs the bound d"):
            expected_position_from_tables(strategy, g, 0, 0)

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

    def test_underived_gap_refused(self):
        corpus = {c.name: c for c in default_corpus()}
        inst = corpus["twin_tails"]
        # two-short target against one-short v falls outside the tables
        with pytest.raises(PreconditionViolated) as err:
            pairwise_probability("dfs_d", inst.graph, 0, 11, 9, inst.d)
        assert err.value.clause == "no-table-row"


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

    # The dfs_d rows the oracle contradicts on some graphs (ROADMAP item 2).
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
        with pytest.raises(ValueError, match="sigma_star needs the bound d"):
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
        g = from_edges(7, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)])
        for t in range(7):
            assert expected_position_from_tables("dfs", g, 0, t) == tree_dfs_expected_position(g, 0, t)


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
