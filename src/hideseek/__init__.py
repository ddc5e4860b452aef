"""Hide-and-seek games on networks under expanding search.

A hider builds a connected network within a link budget and picks a hiding
node; a seeker explores from a fixed source, observing only what has been
visited so far.  This package provides the hider constructions, the
randomized depth-first seeker policies, closed-form value formulas, exact
enumeration oracles, and a Monte Carlo harness, plus a CLI to drive them.
"""

__version__ = "0.1.0"

from .errors import (
    BadGraphFile,
    BadHeight,
    BadShape,
    BadWorkerCount,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyFrontier,
    HideSeekError,
    MultipleCycles,
    NodeOutOfRange,
    NotATree,
    PolicyViolation,
    PreconditionViolated,
    SelfLoop,
    TooLarge,
)
from .graphs import (
    Cycle,
    Graph,
    Subgraph,
    bfs_distances,
    closed_subgraph,
    find_cycle,
    from_edges,
    graph_from_json,
    graph_to_json,
    must_pass,
)
from .hider import (
    BenefitFunction,
    HiderStrategy,
    all_trees,
    example1_graph,
    example2_graph,
    optimal_hiding_depths,
    palm_crown_mixed,
    palm_tree,
)
from .seeker import (
    SearchState,
    SeekerPolicy,
    execute,
    policy_from_id,
    sigma_star,
)
from .analysis import (
    PairwiseCaseResult,
    expected_position_from_tables,
    hider_payoff,
    mixture_capture_bound,
    pairwise_csv_rows,
    pairwise_probability,
    palm_expected_position,
    tree_dfs_expected_position,
)
from .oracle import (
    best_response_hider,
    exact_expected_pos,
    exact_position_table,
    exact_visit_prob,
    exact_visit_table,
    hider_value,
    search_value_range,
)
from .simulate import MonteCarloResult, monte_carlo
