"""Acceptance suite: every quantitative claim verified at full scale.

Each test prints one line per criterion so a plain ``pytest -s`` run doubles
as the acceptance report.  All comparisons are exact rational equalities
except the Monte Carlo coverage check, which uses a four-standard-error
window at 10^5 trials.
"""
from hideseek.suites import (
    run_equilibrium,
    run_equivalence,
    run_example1,
    run_example2,
    run_lemma1,
    run_lemma2,
    run_prop1,
    run_tables,
)


def _finish(number: int, name: str, report) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status} ({len(report.checks)} checks)")
    for failure in report.failures():
        print(f"    {failure.line()}")
    assert report.passed, f"criterion {number} ({name}) failed: {report.failures()[0].detail}"


def test_criterion_1_tree_closed_form_exact():
    # all labeled trees for n in 3..7, every target, zero tolerance
    _finish(1, "tree closed form (all trees n<=7)", run_lemma1(max_n=7))


def test_criterion_2_palm_strategy_invariance():
    # palms n<=10, every height, every expanding search (least and greatest value), zero tolerance
    _finish(2, "palm strategy invariance (n<=10)", run_lemma2(max_n=10))


def test_criterion_3_tail_cycle_instances():
    # exact values at (7,2), (10,3), (12,4); 1e5-trial MC at n=30 within 4 sigma
    _finish(3, "tail-plus-cycle expected positions", run_example1(mc_trials=100_000, mc_seed=2024))


def test_criterion_4_twin_path_instances():
    # exact bounded-DFS values at (17,5) and (20,6)
    _finish(4, "twin-path expected positions", run_example2())


def test_criterion_5_pairwise_tables():
    # every admissible pair on the corpus equals the oracle; all branches fire
    _finish(5, "pairwise visit-order tables", run_tables())


def test_criterion_6_mixture_bound():
    # 9n/16 + (13d-11)/16 dominates the mixture on the corpus; component identity
    _finish(6, "mixture capture bound", run_prop1())


def test_criterion_7_equilibrium_desk_scale():
    # exhaustive best responses for n in 5..7 plus the seeker-side ties and
    # the depth-tie boundary case at rho = 0.9, n = 10
    _finish(7, "equilibrium (desk scale)", run_equilibrium(ns=(5, 6, 7)))


def test_criterion_8_policy_equivalence():
    # bound-n DFS and adjusted DFS match plain DFS at every reachable
    # observation on every tree with n <= 7
    _finish(8, "policy equivalence on trees", run_equivalence(max_n=7))
