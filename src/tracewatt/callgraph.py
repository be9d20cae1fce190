"""Per-test dynamic call trees built from enter/exit traces.

Nesting comes from :attr:`TestTrace.top_level_calls`, the walk that also
checks the trace.  Each thread contributes one root: its top-level call
when the thread ran exactly one, or a synthetic wrapper node (``method
is None``) spanning all of them otherwise.  Synthetic wrappers
correspond to no trace event and are skipped by node counts, intervals
and metrics.
"""

from dataclasses import dataclass

from .trace import CallNode, TestTrace
from .trace import validate_trace  # noqa: F401  bench/tracer.py wraps it under this module


@dataclass(eq=False)
class CallTree:
    test_name: str
    sample_index: int
    roots: tuple[CallNode, ...] = ()

    @property
    def node_count(self) -> int:
        """Number of real (non-synthetic) nodes; equals the Enter-event count."""
        count = 0
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if not node.synthetic:
                count += 1
            stack.extend(node.children)
        return count


def build_call_trees(trace: TestTrace) -> CallTree:
    """Build the per-test call tree forest from a balanced trace.

    Node order follows Enter order; a node's duration is the timestamp
    difference between its Exit and Enter events.  Roots are ordered by
    thread id.  Raises TraceFormatError if the trace violates its
    invariants.
    """
    roots = []
    for thread, frames in sorted(trace.top_level_calls.items()):
        if len(frames) == 1:
            roots.append(frames[0])
        else:
            span_start = frames[0].t_start_ns
            span_end = max(f.t_end_ns for f in frames)
            roots.append(
                CallNode(None, thread, span_start, span_end - span_start, tuple(frames))
            )
    return CallTree(trace.test_name, trace.sample_index, tuple(roots))


def node_intervals(tree: CallTree) -> list[tuple[CallNode, int]]:
    """Per-occurrence (node, depth) pairs ordered by start time.

    Depth counts real nesting from the top-level frame (depth 0); synthetic
    wrapper roots are omitted and add no depth.  Ties on t_start_ns keep
    parent-before-child (pre-order) ordering.
    """
    out: list[tuple[CallNode, int]] = []
    stack = [(node, 0) for node in reversed(tree.roots)]
    while stack:
        node, depth = stack.pop()
        if node.synthetic:
            stack.extend((child, depth) for child in reversed(node.children))
            continue
        out.append((node, depth))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    out.sort(key=lambda pair: pair[0].t_start_ns)
    return out
