"""API-interaction classification and the utilization metric U.

An API interaction is a traced call into a method whose package matches
one of the configured prefixes (e.g. ``android.``, ``java.``).  The U
value of a call-tree node counts the API interactions in its subtree plus
every internal frame that contributes at least one; rU, which normalizes
a U value by the total interaction count N of the run it belongs to, is
set by ``evolution.normalize_ruapi``.
"""

from typing import Iterable, NamedTuple, Optional

from .callgraph import CallNode, CallTree
from .trace import MethodId


class ApiRule(NamedTuple):
    """One package-prefix rule; the label names the API group it belongs to."""

    prefix: str
    label: str


class ApiClassifier:
    """Longest-prefix-match classifier over dot-separated package names.

    Prefixes match on whole package components: ``java.`` matches packages
    ``java`` and ``java.util`` but not ``javafoo``.  Among rules matching
    the same method the longest prefix wins (so ``java.util.`` can carve a
    sub-API out of ``java.``); equal lengths keep the earlier rule.
    Construction is the one check of the rules: at least one, each with a
    non-empty prefix and label, no prefix twice.  A label depends only on
    the package, so each package is matched once and its label kept.
    """

    def __init__(self, rules: Iterable[ApiRule]):
        self.rules = tuple(rules)
        if not self.rules:
            raise ValueError("need at least one API rule")
        seen = set()
        for rule in self.rules:
            if not rule.prefix:
                raise ValueError("API rule prefix must be non-empty")
            if not rule.label:
                raise ValueError("API rule label must be non-empty")
            if rule.prefix in seen:
                raise ValueError(f"duplicate API rule prefix {rule.prefix!r}")
            seen.add(rule.prefix)
        # (normalized prefix, label), longest first; sorted is stable, so
        # equal lengths keep input order
        normalized = [
            (r.prefix if r.prefix.endswith(".") else r.prefix + ".", r.label)
            for r in self.rules
        ]
        self._matchers = sorted(normalized, key=lambda item: -len(item[0]))
        self._labels: dict[str, Optional[str]] = {}

    def classify(self, method: MethodId) -> Optional[str]:
        """Label of the longest matching prefix rule, or None."""
        package = method.package
        if package not in self._labels:
            probe = package + "."
            self._labels[package] = next(
                (label for prefix, label in self._matchers if probe.startswith(prefix)), None
            )
        return self._labels[package]


class UapiProfile(NamedTuple):
    """Per-tree utilization results for one execution.

    ``node_values`` maps every traversed node (API subtrees are pruned, so
    frames inside an API call are absent) to its U value.  ``root_uapi``
    sums U over the top-level calls and is 0 exactly when the tree
    contains no API interaction.
    """

    root_uapi: int
    node_values: dict[CallNode, int]
    total_api_interactions: int


def uapi(tree: CallTree, classifier: ApiClassifier) -> UapiProfile:
    """Evaluate U over a call tree.

    Rules, applied per node: an API node is worth 1 and its subtree is
    pruned (its internals are below the interaction boundary); a node with
    no API interaction anywhere beneath it is worth 0; any other node is
    worth 1 plus the sum over its children.
    """
    node_values: dict[CallNode, int] = {}
    total_api = 0

    # Iterative post-order so deeply recursive traces cannot overflow the
    # interpreter stack.
    for root in tree.roots:
        stack: list[tuple[CallNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                if classifier.classify(node.method) is not None:
                    node_values[node] = 1
                    total_api += 1
                    continue
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            else:
                child_sum = sum(node_values[child] for child in node.children)
                node_values[node] = 1 + child_sum if child_sum else 0
    root_value = sum(node_values[root] for root in tree.roots)
    return UapiProfile(root_value, node_values, total_api)
