"""A battery of seven seekers that the engine cross-checks run on: the built-in
policies and three more that take other routes through the same move rule.

The label orders are deterministic (one eligible node) and read node labels;
breadth-first keeps the earliest active node, the opposite of DFS.  Their
identifiers differ from each other and from the built-ins', so one decision
trie cache serves the whole battery.
"""
from hideseek.seeker import (AdjustedDFSPolicy, BoundedDFSPolicy, DFSPolicy, SearchState,
                             SeekerPolicy, _RecencyPolicy, sigma_star)


class LabelOrderPolicy(SeekerPolicy):
    """Always take the lowest (or highest) frontier label."""

    def __init__(self, lowest: bool = True):
        self.lowest = lowest
        self.kind = "lowest_label" if lowest else "highest_label"

    def eligible(self, state: SearchState):
        return (min(state.frontier) if self.lowest else max(state.frontier),)

    def state_key(self, state: SearchState):
        # reads only the visited set, not the order
        return ()


class BreadthPreferringPolicy(_RecencyPolicy):
    """Anti-DFS: the earliest visited node stays active."""

    kind = "breadth_first"

    def eligible(self, state: SearchState):
        return state.unvisited_neighbors(state.active_stack[0])


def battery_policies(d: int) -> list[SeekerPolicy]:
    """The seven seekers, with bound ``d`` for ``dfs_d`` and ``sigma_star``."""
    return [
        DFSPolicy(),
        BoundedDFSPolicy(d),
        AdjustedDFSPolicy(),
        sigma_star(d),
        LabelOrderPolicy(lowest=True),
        LabelOrderPolicy(lowest=False),
        BreadthPreferringPolicy(),
    ]
