"""Exception types shared across the package."""


class HideSeekError(Exception):
    """Base class for all package errors."""


class NodeOutOfRange(HideSeekError):
    pass


class SelfLoop(HideSeekError):
    pass


class DuplicateEdge(HideSeekError):
    pass


class DisconnectedGraph(HideSeekError):
    pass


class BadGraphFile(HideSeekError):
    """A graph document that is not an object with integer ``n``, edges, source and target."""


class MultipleCycles(HideSeekError):
    """Raised by queries that are only defined on graphs with at most one cycle."""


class NotATree(HideSeekError):
    pass


class BadHeight(HideSeekError):
    pass


class BadShape(HideSeekError):
    pass


class TooLarge(HideSeekError):
    """Instance exceeds an enumeration guard."""


class EmptyFrontier(HideSeekError):
    pass


class PolicyViolation(HideSeekError):
    """A policy proposed a node outside the current frontier."""


class PreconditionViolated(HideSeekError):
    """A closed-form table was queried outside its domain.

    ``clause`` names the failed requirement so callers and reports can show
    which guard rejected the query.
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class BadWorkerCount(HideSeekError):
    """A worker count that is not an integer of at least 1."""
