import math
import random

import pytest

from conftest import (
    DEFAULT_CLASSIFIER,
    build_node,
    oracle_u_value,
    random_call_tree,
)
from tracewatt.apimetric import ApiClassifier, ApiRule, uapi
from tracewatt.callgraph import CallNode, CallTree
from tracewatt.evolution import ExecutionRecord, normalize_ruapi
from tracewatt.trace import MethodId


def _tree(*roots) -> CallTree:
    return CallTree(tuple(roots))


def _ruapi(u_value: int, n_base: int) -> float:
    """rU of an execution with U = u_value in a sample run whose analyzed
    tests hold n_base API interactions; a test left out of the analysis
    and another sample run add interactions that must not count."""
    records = [
        ExecutionRecord("a.B::t", 0, 1.0, 1.0, 1.0, u_value, 0, math.nan),
        ExecutionRecord("a.B::u", 0, 1.0, 1.0, 1.0, 0, n_base, math.nan),
        ExecutionRecord("a.B::x", 0, 1.0, 1.0, 1.0, 0, 50, math.nan),
        ExecutionRecord("a.B::t", 1, 1.0, 1.0, 1.0, 0, 99, math.nan),
    ]
    dataset = normalize_ruapi("1.0", records, {"a.B::t", "a.B::u"})
    assert [(r.test_name, r.sample_index) for r in dataset.records] == [
        ("a.B::t", 0), ("a.B::u", 0), ("a.B::t", 1),
    ]
    return dataset.records[0].ruapi


class TestClassify:
    def test_platform_class_matches_java_rule(self):
        method = MethodId("java.util", "LinkedHashMap", "put")
        assert DEFAULT_CLASSIFIER.classify(method) == "java"

    def test_unmatched_package_is_absent(self):
        classifier = ApiClassifier(
            [ApiRule("android.", "android"), ApiRule("java.", "java")]
        )
        assert classifier.classify(MethodId("org.apache.commons.text", "Subst", "replace")) is None

    def test_longest_prefix_wins(self):
        classifier = ApiClassifier(
            [ApiRule("java.", "java"), ApiRule("java.util.", "collections")]
        )
        assert classifier.classify(MethodId("java.util", "X", "m")) == "collections"
        assert classifier.classify(MethodId("java.io", "X", "m")) == "java"

    def test_prefix_matches_whole_components_only(self):
        classifier = ApiClassifier([ApiRule("java.", "java")])
        assert classifier.classify(MethodId("javafoo", "X", "m")) is None
        assert classifier.classify(MethodId("java", "X", "m")) == "java"

    def test_rules_validated(self):
        with pytest.raises(ValueError):
            ApiClassifier([])
        with pytest.raises(ValueError):
            ApiClassifier([ApiRule("java.", "a"), ApiRule("java.", "b")])
        with pytest.raises(ValueError, match="^API rule prefix must be non-empty$"):
            ApiClassifier([ApiRule("", "label")])
        with pytest.raises(ValueError, match="^API rule label must be non-empty$"):
            ApiClassifier([ApiRule("java.", "")])


API = MethodId("java.util", "Api", "call")
HELPER = MethodId("com.app.core", "Helper", "work")


class TestUapi:
    def test_single_non_api_node_is_zero(self):
        profile = uapi(_tree(build_node(HELPER, 0, 10)), DEFAULT_CLASSIFIER)
        assert profile.root_uapi == 0
        assert profile.total_api_interactions == 0

    def test_root_with_api_child(self):
        api = build_node(API, 1, 2)
        root = build_node(HELPER, 0, 10, [api])
        profile = uapi(_tree(root), DEFAULT_CLASSIFIER)
        assert profile.node_values[api] == 1
        assert profile.node_values[root] == 2
        assert profile.root_uapi == 2

    def test_recursive_sum_with_helper_branch(self):
        api1 = build_node(API, 1, 1)
        api2 = build_node(MethodId("java.io", "Api", "call"), 4, 1)
        helper = build_node(HELPER, 3, 4, [api2])
        root = build_node(HELPER, 0, 10, [api1, helper])
        profile = uapi(_tree(root), DEFAULT_CLASSIFIER)
        assert profile.node_values[api1] == 1
        assert profile.node_values[api2] == 1
        assert profile.node_values[helper] == 2
        assert profile.node_values[root] == 4
        assert profile.total_api_interactions == 2

    def test_api_subtrees_are_pruned(self):
        inner_api = build_node(API, 2, 1)
        outer_api = build_node(MethodId("android.os", "Api", "call"), 1, 4, [inner_api])
        root = build_node(HELPER, 0, 10, [outer_api])
        profile = uapi(_tree(root), DEFAULT_CLASSIFIER)
        assert profile.total_api_interactions == 1
        assert inner_api not in profile.node_values

    def test_root_uapi_sums_the_top_level_calls(self):
        api = build_node(API, 1, 2)
        frame_a = build_node(HELPER, 0, 4, [api])
        frame_b = build_node(HELPER, 5, 3)
        frame_c = build_node(HELPER, 9, 4, [build_node(API, 10, 1)], thread=2)
        profile = uapi(_tree(frame_a, frame_b, frame_c), DEFAULT_CLASSIFIER)
        assert [profile.node_values[f] for f in (frame_a, frame_b, frame_c)] == [2, 0, 2]
        assert profile.root_uapi == 4

    def test_root_is_zero_exactly_without_api_interactions_on_random_trees(self):
        rng = random.Random(404)
        for _ in range(200):
            profile = uapi(random_call_tree(rng, max_nodes=60), DEFAULT_CLASSIFIER)
            assert (profile.root_uapi == 0) == (profile.total_api_interactions == 0)


class TestRuapi:
    def test_zero_numerator_is_zero(self):
        assert _ruapi(0, 17) == 0.0

    def test_direct_substitution(self):
        assert _ruapi(4, 2) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_unit_case(self):
        assert _ruapi(2, 1) == 1.0


def _attach_api_leaf(tree: CallTree, rng: random.Random) -> "CallTree | None":
    """Copy the tree with one extra API leaf under a random non-pruned,
    non-API node; None when no such node exists (tree rooted at API calls)."""
    candidates = []

    def collect(node, inside_api):
        if inside_api or DEFAULT_CLASSIFIER.classify(node.method) is not None:
            return
        candidates.append(node)
        for child in node.children:
            collect(child, False)

    for root in tree.roots:
        collect(root, False)
    if not candidates:
        return None
    target = rng.choice(candidates)
    leaf = build_node(MethodId("android.os", "Api", "extra"), target.t_start_ns, 0)

    def rebuild(node):
        children = tuple(rebuild(c) for c in node.children)
        if node is target:
            children = children + (leaf,)
        return CallNode(node.method, node.thread, node.t_start_ns, node.duration_ns, children)

    return CallTree(tuple(rebuild(r) for r in tree.roots))


class TestMetricLaws:
    def test_oracle_equivalence(self):
        rng = random.Random(11)
        for _ in range(300):
            tree = random_call_tree(rng, max_nodes=200)
            profile = uapi(tree, DEFAULT_CLASSIFIER)
            expected = sum(oracle_u_value(r, DEFAULT_CLASSIFIER) for r in tree.roots)
            assert profile.root_uapi == expected

    def test_zero_law(self):
        rng = random.Random(21)
        for _ in range(300):
            tree = random_call_tree(rng, max_nodes=50, api_prob=rng.choice([0.0, 0.4]))
            profile = uapi(tree, DEFAULT_CLASSIFIER)
            assert (profile.root_uapi == 0) == (profile.total_api_interactions == 0)

    def test_monotonicity_under_api_leaf_insertion(self):
        rng = random.Random(33)
        checked = 0
        for _ in range(300):
            tree = random_call_tree(rng, max_nodes=60)
            grown = _attach_api_leaf(tree, rng)
            if grown is None:
                continue
            checked += 1
            assert (
                uapi(grown, DEFAULT_CLASSIFIER).root_uapi
                > uapi(tree, DEFAULT_CLASSIFIER).root_uapi
            )
        assert checked > 200

    def test_ruapi_preserves_ordering_for_fixed_base(self):
        rng = random.Random(47)
        u_values = [rng.randrange(0, 500) for _ in range(50)]
        n_base = 37
        by_u = sorted(range(50), key=lambda i: u_values[i])
        by_ru = sorted(range(50), key=lambda i: _ruapi(u_values[i], n_base))
        assert by_u == by_ru
