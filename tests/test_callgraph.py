import random

import pytest

from conftest import (
    DEFAULT_CLASSIFIER,
    oracle_direct_call_counts,
    oracle_u_value,
    random_trace,
    tree_direct_call_counts,
)
from tracewatt import trace as trace_module
from tracewatt.apimetric import uapi
from tracewatt.energy import PowerProfile, attribute
from tracewatt.trace import (
    MethodId,
    TestTrace,
    TraceEvent,
    TraceFormatError,
    build_call_trees,
    node_intervals,
    parse_trace,
)
from writers import write_trace


def _trace(lines: str) -> TestTrace:
    return parse_trace("#trace v1;com.app.S::t;0\n" + lines)


A_B_TRACE = _trace(
    "E;1;0;p;C;a\n"
    "E;1;2;p;C;b\n"
    "X;1;5;p;C;b\n"
    "X;1;9;p;C;a\n"
)


def test_identical_calls_stay_distinct_nodes():
    """Two zero-length calls with equal fields are two occurrences: each
    has its own U value and its own attribution pair."""
    trace = _trace(
        "E;1;0;a;B;t\n"
        "E;1;5;java.util;L;m\nX;1;5;java.util;L;m\n"
        "E;1;5;java.util;L;m\nX;1;5;java.util;L;m\n"
        "X;1;10;a;B;t\n"
    )
    tree = build_call_trees(trace)
    first, second = tree.roots[0].children
    assert first is not second and first != second
    metric = uapi(tree, DEFAULT_CLASSIFIER)
    assert (metric.root_uapi, metric.total_api_interactions) == (3, 2)
    assert len(metric.node_values) == 3
    nodes = [node for node, _ in node_intervals(tree)]
    profile = PowerProfile("a.B::t", 0, 1000.0, ((0.0, 100.0), (0.01, 100.0)))
    pairs, _ = attribute(nodes, profile)
    assert len(pairs) == 3
    assert [exclusive for _, exclusive in pairs[1:]] == [0.0, 0.0]


def test_nested_pair_builds_parent_child():
    tree = build_call_trees(A_B_TRACE)
    assert len(tree.roots) == 1
    root = tree.roots[0]
    assert root.method == MethodId("p", "C", "a")
    assert (root.t_start_ns, root.duration_ns) == (0, 9)
    assert len(root.children) == 1
    child = root.children[0]
    assert child.method.method == "b"
    assert (child.t_start_ns, child.duration_ns) == (2, 3)


def test_empty_trace_builds_empty_forest():
    tree = build_call_trees(_trace(""))
    assert tree.roots == ()
    assert tree.node_count == 0


def test_two_threads_two_roots():
    tree = build_call_trees(
        _trace("E;1;0;p;C;a\nX;1;3;p;C;a\nE;2;1;p;C;b\nX;2;4;p;C;b\n")
    )
    assert len(tree.roots) == 2
    assert [r.thread for r in tree.roots] == [1, 2]


def test_top_level_calls_are_roots_by_thread_then_enter_order():
    tree = build_call_trees(
        _trace(
            "E;2;0;p;C;c\nE;1;1;p;C;a\nX;1;3;p;C;a\nX;2;4;p;C;c\n"
            "E;1;5;p;C;b\nX;1;9;p;C;b\n"
        )
    )
    assert [(r.thread, r.method.method, r.t_start_ns, r.t_end_ns) for r in tree.roots] == [
        (1, "a", 1, 3), (1, "b", 5, 9), (2, "c", 0, 4),
    ]
    assert tree.node_count == 3


def test_invalid_trace_rejected():
    bad = TestTrace(
        "a.B::m", 0, (TraceEvent("X", MethodId("p", "C", "m"), 1, 0),)
    )
    with pytest.raises(TraceFormatError) as exc:
        build_call_trees(bad)
    assert str(exc.value) == (
        "invalid trace: event 0: exit of p.C::m with no open frame on thread 1"
    )


@pytest.mark.parametrize(
    "events, message",
    [
        (
            [("E", "a", 1, 0), ("X", "b", 1, 1)],
            "event 1: exit of p.C::b does not match open frame p.C::a on thread 1",
        ),
        (
            [("E", "a", 1, 5), ("X", "a", 1, 3)],
            "event 1: timestamp 3 before 5 on thread 1",
        ),
        (
            [("E", "a", 1, 0), ("E", "b", 2, 0), ("X", "b", 2, 1)],
            "event 0: unbalanced trace: p.C::a entered on thread 1 is never exited",
        ),
    ],
    ids=["mismatched-exit", "timestamp-regression", "never-exited"],
)
def test_invalid_trace_names_its_first_violation(events, message):
    bad = TestTrace(
        "a.B::m",
        0,
        tuple(TraceEvent(kind, MethodId("p", "C", m), thread, t) for kind, m, thread, t in events),
    )
    with pytest.raises(TraceFormatError) as exc:
        build_call_trees(bad)
    assert str(exc.value) == f"invalid trace: {message}"
    assert exc.value.line is None


def test_parsed_trace_is_not_walked_again(monkeypatch):
    def no_second_walk(*args):
        raise AssertionError("a parsed trace was walked again")

    trace = _trace("E;1;0;p;C;a\nX;1;3;p;C;a\nE;1;5;p;C;b\nX;1;9;p;C;b\n")
    monkeypatch.setattr(trace_module, "_sequence_violations", no_second_walk)
    assert build_call_trees(trace).node_count == 2


def _shape(node):
    return (node.method, node.thread, node.t_start_ns, node.duration_ns,
            [_shape(child) for child in node.children])


def test_parsed_and_hand_built_traces_give_the_same_tree_on_random_traces():
    rng = random.Random(4242)
    for _ in range(200):
        trace = random_trace(rng, n_threads=rng.randrange(2, 5))
        parsed = build_call_trees(parse_trace(write_trace(trace)))
        built = build_call_trees(trace)
        assert [_shape(r) for r in parsed.roots] == [_shape(r) for r in built.roots]


def test_adjacency_leaf_is_empty():
    tree = build_call_trees(A_B_TRACE)
    assert tree.roots[0].children[0].children == ()


def test_adjacency_keeps_call_multiplicity():
    tree = build_call_trees(
        _trace(
            "E;1;0;p;C;root\n"
            "E;1;1;p;C;m1\nX;1;2;p;C;m1\n"
            "E;1;3;p;C;m2\nX;1;4;p;C;m2\n"
            "E;1;5;p;C;m1\nX;1;6;p;C;m1\n"
            "X;1;7;p;C;root\n"
        )
    )
    callees = tree.roots[0].children
    assert len(callees) == 3
    assert [c.method.method for c in callees] == ["m1", "m2", "m1"]


def test_adjacency_of_nested_example():
    tree = build_call_trees(A_B_TRACE)
    assert [c.method.method for c in tree.roots[0].children] == ["b"]


def test_method_intervals_nested_example():
    intervals = node_intervals(build_call_trees(A_B_TRACE))
    assert [
        (node.method.method, node.t_start_ns, node.duration_ns, depth)
        for node, depth in intervals
    ] == [("a", 0, 9, 0), ("b", 2, 3, 1)]


def test_method_intervals_empty_tree():
    assert node_intervals(build_call_trees(_trace(""))) == []


def test_method_intervals_chain_depths():
    intervals = node_intervals(
        build_call_trees(
            _trace(
                "E;1;0;p;C;a\nE;1;1;p;C;b\nE;1;2;p;C;c\n"
                "X;1;3;p;C;c\nX;1;4;p;C;b\nX;1;5;p;C;a\n"
            )
        )
    )
    assert [depth for _, depth in intervals] == [0, 1, 2]


def test_method_intervals_start_every_top_level_call_at_depth_zero():
    intervals = node_intervals(
        build_call_trees(
            _trace("E;1;0;p;C;a\nX;1;3;p;C;a\nE;1;5;p;C;b\nX;1;9;p;C;b\n")
        )
    )
    assert [(node.method.method, depth) for node, depth in intervals] == [("a", 0), ("b", 0)]


def _subtree_size(node) -> int:
    return 1 + sum(_subtree_size(c) for c in node.children)


def test_node_count_equals_enter_count_on_random_traces():
    rng = random.Random(2024)
    for _ in range(200):
        trace = random_trace(rng, n_threads=rng.randrange(1, 4))
        tree = build_call_trees(trace)
        enters = sum(1 for ev in trace.events if ev.kind == "E")
        assert tree.node_count == enters
        assert sum(_subtree_size(r) for r in tree.roots) == enters


def test_children_nest_within_parents_on_random_traces():
    rng = random.Random(55)
    for _ in range(100):
        tree = build_call_trees(random_trace(rng, n_threads=2))
        stack = list(tree.roots)
        while stack:
            node = stack.pop()
            prev_end = None
            for child in node.children:
                assert child.t_start_ns >= node.t_start_ns
                assert child.t_end_ns <= node.t_end_ns
                if prev_end is not None:
                    assert child.t_start_ns >= prev_end
                prev_end = child.t_end_ns
                stack.append(child)


def test_adjacency_matches_stack_simulation_oracle():
    rng = random.Random(31337)
    for _ in range(300):
        trace = random_trace(rng, n_threads=rng.randrange(1, 4))
        tree = build_call_trees(trace)
        assert tree_direct_call_counts(tree) == oracle_direct_call_counts(trace)


def test_depths_and_root_uapi_match_the_event_stack_on_random_traces():
    rng = random.Random(9090)
    multi_root_threads = 0
    for _ in range(200):
        trace = random_trace(rng, n_threads=rng.randrange(1, 4))
        tree = build_call_trees(trace)
        entered: dict[int, list] = {}
        open_frames: dict[int, int] = {}
        for ev in trace.events:
            depth = open_frames.get(ev.thread, 0)
            if ev.kind == "E":
                entered.setdefault(ev.thread, []).append((ev.method, ev.t_ns, depth))
                open_frames[ev.thread] = depth + 1
            else:
                open_frames[ev.thread] = depth - 1
        intervals = node_intervals(tree)
        for thread, enters in entered.items():
            assert [
                (node.method, node.t_start_ns, depth)
                for node, depth in intervals
                if node.thread == thread
            ] == enters
        top_level = [node for calls in trace.top_level_calls.values() for node in calls]
        multi_root_threads += sum(len(calls) > 1 for calls in trace.top_level_calls.values())
        assert uapi(tree, DEFAULT_CLASSIFIER).root_uapi == sum(
            oracle_u_value(node, DEFAULT_CLASSIFIER) for node in top_level
        )
    assert multi_root_threads > 100
