"""Shared test helpers: seeded random trace/tree generators and the
independent oracles the implementation is checked against."""

import random

from tracewatt.apimetric import ApiClassifier, ApiRule
from tracewatt.callgraph import CallNode, CallTree
from tracewatt.trace import MethodId, TestTrace, TraceEvent

API_PACKAGES = ["android.util", "android.os", "java.util", "java.io"]
INTERNAL_PACKAGES = ["com.app.core", "com.app.util", "org.lib.parser"]

DEFAULT_CLASSIFIER = ApiClassifier(
    [ApiRule("android.", "android"), ApiRule("java.", "java")]
)


def random_method(rng: random.Random, api_prob: float) -> MethodId:
    if rng.random() < api_prob:
        package = rng.choice(API_PACKAGES)
    else:
        package = rng.choice(INTERNAL_PACKAGES)
    return MethodId(package, f"C{rng.randrange(4)}", f"m{rng.randrange(6)}")


def random_trace(
    rng: random.Random,
    max_events_per_thread: int = 40,
    n_threads: int = 1,
    api_prob: float = 0.3,
) -> TestTrace:
    """A valid trace: balanced per-thread nesting, non-decreasing stamps."""
    all_events = []
    for thread in range(1, n_threads + 1):
        events = []
        stack = []
        t = rng.randrange(5)
        budget = rng.randrange(2, max_events_per_thread + 1)
        while len(events) < budget:
            if stack and (rng.random() < 0.4 or len(events) + len(stack) >= budget):
                method = stack.pop()
                events.append(TraceEvent("X", method, thread, t))
            else:
                method = random_method(rng, api_prob)
                stack.append(method)
                events.append(TraceEvent("E", method, thread, t))
            t += rng.randrange(0, 7)
        while stack:
            events.append(TraceEvent("X", stack.pop(), thread, t))
            t += rng.randrange(0, 7)
        all_events.extend(events)
    all_events.sort(key=lambda ev: ev.t_ns)  # stable: per-thread order kept
    return TestTrace("com.app.suite.Suite::testCase", rng.randrange(10), tuple(all_events))


def build_node(
    method: MethodId,
    t_start_ns: int,
    duration_ns: int,
    children=(),
    thread: int = 1,
) -> CallNode:
    return CallNode(method, thread, t_start_ns, duration_ns, tuple(children))


def random_call_tree(
    rng: random.Random,
    max_nodes: int = 200,
    max_depth: int = 8,
    api_prob: float = 0.3,
) -> CallTree:
    """A random valid call tree: children nested and non-overlapping."""
    budget = [rng.randrange(1, max_nodes + 1)]

    def build(depth: int, t_start: int) -> CallNode:
        budget[0] -= 1
        method = random_method(rng, api_prob)
        children = []
        cursor = t_start + rng.randrange(0, 3)
        while (
            depth < max_depth
            and budget[0] > 0
            and rng.random() < 0.65
            and len(children) < 4
        ):
            child = build(depth + 1, cursor)
            children.append(child)
            cursor = child.t_start_ns + child.duration_ns + rng.randrange(0, 3)
        duration = cursor - t_start + rng.randrange(0, 5)
        return CallNode(method, 1, t_start, duration, tuple(children))

    roots = [build(0, 0)]
    while budget[0] > 0 and rng.random() < 0.2:
        start = roots[-1].t_end_ns + rng.randrange(0, 4)
        roots.append(build(0, start))
    return CallTree(tuple(roots))


def oracle_u_value(node: CallNode, classifier: ApiClassifier) -> int:
    """Independent U oracle by explicit post-order enumeration.

    Counts, over the API-pruned subtree view: the API nodes themselves
    plus every internal frame whose pruned subtree contains at least one
    API node.  This closed counting form must agree with the
    recursive definition everywhere.
    """
    counts = {"api": 0, "frames": 0}

    def walk(n: CallNode) -> bool:
        if classifier.classify(n.method) is not None:
            counts["api"] += 1
            return True
        has_api = False
        for child in n.children:
            if walk(child):
                has_api = True
        if has_api:
            counts["frames"] += 1
        return has_api

    walk(node)
    return counts["api"] + counts["frames"]


def oracle_direct_call_counts(trace: TestTrace) -> list[tuple[int, int, str, int]]:
    """Stack-simulation oracle: per Enter occurrence, the number of calls
    issued directly from it.  Returns (thread, t_start, method, n) sorted."""
    out = []
    stacks: dict[int, list[list]] = {}
    for ev in trace.events:
        stack = stacks.setdefault(ev.thread, [])
        if ev.kind == "E":
            if stack:
                stack[-1][3] += 1
            stack.append([ev.thread, ev.t_ns, ev.method.canonical(), 0])
        else:
            out.append(tuple(stack.pop()))
    return sorted(out)


def tree_direct_call_counts(tree: CallTree) -> list[tuple[int, int, str, int]]:
    out = []
    stack = list(tree.roots)
    while stack:
        node = stack.pop()
        out.append((node.thread, node.t_start_ns, node.method.canonical(), len(node.children)))
        stack.extend(node.children)
    return sorted(out)
