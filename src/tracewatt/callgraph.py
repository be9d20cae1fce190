"""Per-test dynamic call trees built from enter/exit traces.

Nesting comes from :attr:`TestTrace.top_level_calls`, the walk that also
checks the trace.  A tree's roots are the trace's top-level calls,
ordered by thread id and then in Enter order.
"""

from .trace import CallNode, TestTrace
from .trace import validate_trace  # noqa: F401  bench/tracer.py wraps it under this module


class CallTree:
    __slots__ = ("roots",)

    def __init__(self, roots: tuple[CallNode, ...] = ()):
        self.roots = roots

    @property
    def node_count(self) -> int:
        """Number of nodes; equals the Enter-event count."""
        count = 0
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count


def build_call_trees(trace: TestTrace) -> CallTree:
    """Build the per-test call tree forest from a balanced trace.

    Node order follows Enter order; a node's duration is the timestamp
    difference between its Exit and Enter events.  The roots are the
    top-level calls, ordered by thread id, then in Enter order.  Raises
    TraceFormatError if the trace violates its invariants.
    """
    calls = trace.top_level_calls
    return CallTree(tuple(node for thread in sorted(calls) for node in calls[thread]))


def node_intervals(tree: CallTree) -> list[tuple[CallNode, int]]:
    """Per-occurrence (node, depth) pairs ordered by start time.

    Depth counts nesting from the top-level call (depth 0).  Ties on
    t_start_ns keep parent-before-child (pre-order) ordering.
    """
    out: list[tuple[CallNode, int]] = []
    stack = [(node, 0) for node in reversed(tree.roots)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    out.sort(key=lambda pair: pair[0].t_start_ns)
    return out
