"""Cross-revision comparison: test alignment, per-metric ANOVA + Tukey
matrices, and scoring of rU as a proxy for significant energy/power change.

Revisions are compared on three observation metrics per (test, sample)
execution: energy (mJ), average power (mW) and rU.  The proxy evaluation
asks, pair of revisions by pair of revisions, whether rU significance
agrees with energy (or power) significance; agreement over all pairs is
reported as accuracy and F1 with "significant change" as the positive
class.
"""

import math
from typing import (
    Mapping, NamedTuple, Optional, Sequence, Union, get_args, get_origin, get_type_hints,
)

from .config import AnalysisConfig
from .ingest import ExecutionRecord, RevisionDataset, normalize_ruapi  # noqa: F401  ExecutionRecord is re-exported
from .stats import AnovaResult, TukeyPair, anova, float_sum, tukey_hsd

METRICS = ("energy_mj", "avg_power_mw", "ruapi")
PROXY_METRIC = "ruapi"
PROXY_TARGETS = ("energy_mj", "avg_power_mw")


class AnalysisError(ValueError):
    """The data cannot support the statistical comparison (no common
    tests, or too few observations per revision)."""


class RevisionSummary(NamedTuple):
    revision: str
    mean_energy_mj: float
    mean_power_mw: float
    sum_ruapi: float


class ProxyScore(NamedTuple):
    """Agreement of proxy significance with target significance over all
    revision pairs; the positive class is "significant change"."""

    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


class MetricComparison(NamedTuple):
    anova: AnovaResult
    pairs: list[TukeyPair]


class ComparisonReport(NamedTuple):
    alpha: float
    observation_unit: str
    revisions: list[str]
    aligned_tests: list[str]
    analysis_tests: list[str]
    excluded_tests: dict[str, list[str]]
    n_observations: int
    metrics: dict[str, MetricComparison]
    proxy: dict[str, ProxyScore]
    summaries: list[RevisionSummary]


def version_key(label: str):
    """Sort key ordering dotted version labels component-wise, numeric
    components before non-numeric ones (1.2 < 1.10 < 1.10a)."""
    parts = []
    for part in label.split("."):
        if part.isdigit():
            parts.append((0, int(part), ""))
        else:
            parts.append((1, 0, part))
    return tuple(parts)


def align_tests(revisions: Sequence[RevisionDataset]) -> list[str]:
    """Intersection of test names present in every revision, sorted.

    Raises AnalysisError when fewer than 2 revisions are given or the
    intersection is empty.
    """
    if len(revisions) < 2:
        raise AnalysisError(f"need at least 2 revisions, got {len(revisions)}")
    common = set.intersection(*(rev.test_names() for rev in revisions))
    if not common:
        raise AnalysisError("no test is present in every revision")
    return sorted(common)


def select_top_energy_tests(revision: RevisionDataset, k: int) -> list[str]:
    """The k most energy-demanding tests of a revision, by mean energy
    over its sample runs; ties break by test name.  Fewer than k tests
    give all of them."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    by_test: dict[str, list[float]] = {}
    for r in revision.records:
        by_test.setdefault(r.test_name, []).append(r.energy_mj)
    ranked = sorted(
        by_test, key=lambda name: (-(float_sum(by_test[name]) / len(by_test[name])), name)
    )
    return ranked[:k]


def proxy_eval(
    sig_proxy: Mapping[tuple[str, str], bool],
    sig_target: Mapping[tuple[str, str], bool],
) -> ProxyScore:
    """Score proxy significance decisions against target decisions.

    Both mappings must cover the same revision pairs.  F1 is reported as
    None when no pair is positive in either input (TP+FP+FN == 0).
    """
    if set(sig_proxy) != set(sig_target):
        raise ValueError("proxy and target cover different revision pairs")
    tp = fp = fn = tn = 0
    for pair, proxy_sig in sig_proxy.items():
        target_sig = sig_target[pair]
        if proxy_sig and target_sig:
            tp += 1
        elif proxy_sig and not target_sig:
            fp += 1
        elif not proxy_sig and target_sig:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    f1 = 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn > 0 else None
    return ProxyScore(tp, fp, fn, tn, accuracy, precision, recall, f1)


def _mean(xs: Sequence[float]) -> float:
    """statistics.fmean: the correctly rounded sum over the count."""
    return math.fsum(xs) / len(xs)


def _median(xs: Sequence[float]) -> float:
    """statistics.median: the middle value, or the mean of the two."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def _observations(rev: RevisionDataset, metric: str, config: AnalysisConfig) -> list[float]:
    values = [(r.test_name, r.sample_index, getattr(r, metric)) for r in rev.records]
    values.sort(key=lambda v: (v[0], v[1]))
    if config.observation_unit == "per_sample":
        return [v[2] for v in values]
    collapse = _mean if config.aggregation == "mean" else _median
    by_test: dict[str, list[float]] = {}
    for name, _, x in values:
        by_test.setdefault(name, []).append(x)
    return [collapse(xs) for _, xs in sorted(by_test.items())]


def revision_summaries(revisions: Sequence[RevisionDataset]) -> list[RevisionSummary]:
    """Per-revision means of energy/power plus the per-revision rU sum
    (sum over tests of the test's mean rU across samples), ordered by
    version label."""
    out = []
    for rev in sorted(revisions, key=lambda r: version_key(r.revision)):
        records = rev.records
        if not records:
            raise ValueError(f"revision {rev.revision} has no analyzed records")
        energy = float_sum(r.energy_mj for r in records) / len(records)
        power = float_sum(r.avg_power_mw for r in records) / len(records)
        by_test: dict[str, list[float]] = {}
        for r in records:
            by_test.setdefault(r.test_name, []).append(r.ruapi)
        sum_ruapi = float_sum(float_sum(xs) / len(xs) for xs in by_test.values())
        out.append(RevisionSummary(rev.revision, energy, power, sum_ruapi))
    return out


def compare(
    revisions: Sequence[RevisionDataset], config: AnalysisConfig
) -> ComparisonReport:
    """Run the three per-metric analyses over aligned revisions and score
    the rU proxy against energy and power.

    Tests are first aligned (intersection over revisions); when
    ``config.top_k_tests`` is set, the analysis set is further restricted
    to the most energy-demanding tests of the oldest revision.  rU values
    are renormalized over the final analysis set before testing.  With
    the per_test_mean observation unit, repeated samples collapse through
    ``config.aggregation`` (mean or median).
    """
    aligned = align_tests(revisions)
    ordered = sorted(revisions, key=lambda r: version_key(r.revision))
    excluded = {
        rev.revision: sorted(rev.test_names() - set(aligned)) for rev in ordered
    }

    analysis_tests = aligned
    if config.top_k_tests is not None:
        top = select_top_energy_tests(ordered[0], config.top_k_tests)
        analysis_tests = [t for t in top if t in set(aligned)]
        analysis_tests.sort()
        if not analysis_tests:
            raise AnalysisError("top-k selection removed every aligned test")

    selected = set(analysis_tests)
    datasets = [normalize_ruapi(rev.revision, rev.records, selected) for rev in ordered]
    labels = [rev.revision for rev in datasets]

    metrics: dict[str, MetricComparison] = {}
    n_observations = 0
    for metric in METRICS:
        groups = [_observations(rev, metric, config) for rev in datasets]
        n_observations = sum(len(g) for g in groups)
        try:
            result = anova(groups)
            metrics[metric] = MetricComparison(
                result, tukey_hsd(groups, result, config.alpha, labels)
            )
        except ValueError as exc:
            raise AnalysisError(f"{metric}: {exc}") from None

    def sig_map(metric: str) -> dict[tuple[str, str], bool]:
        return {
            (p.group_a, p.group_b): p.significant for p in metrics[metric].pairs
        }

    proxy = {
        target: proxy_eval(sig_map(PROXY_METRIC), sig_map(target))
        for target in PROXY_TARGETS
    }

    return ComparisonReport(
        alpha=config.alpha,
        observation_unit=config.observation_unit,
        revisions=labels,
        aligned_tests=list(aligned),
        analysis_tests=list(analysis_tests),
        excluded_tests=excluded,
        n_observations=n_observations,
        metrics=metrics,
        proxy=proxy,
        summaries=revision_summaries(datasets),
    )


# Fields whose value may be infinite; JSON has no infinity, so report.json
# writes it as the string "inf".
_INF_FIELDS = ("F", "q")


def _json_value(value):
    """``value`` with every record made a dict of its fields, recursively."""
    if isinstance(value, list):
        return [_json_value(x) for x in value]
    if isinstance(value, dict):
        return {key: _json_value(x) for key, x in value.items()}
    if not isinstance(value, tuple):
        return value
    return {
        name: "inf" if name in _INF_FIELDS and math.isinf(x) else _json_value(x)
        for name, x in zip(value._fields, value)
    }


def report_to_json_dict(report: ComparisonReport) -> dict:
    """Plain-dict form of a report, stable for JSON serialization: every
    NamedTuple record becomes a dict of its fields."""
    return _json_value(report)


# The JSON value types each scalar annotation accepts: a bool is no int.
_JSON_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _from_json(kind, data):
    """Rebuild a value of type ``kind`` from its report_to_json_dict form;
    raises TypeError naming the field of any value of the wrong JSON type.
    ``null`` is taken only for an Optional field, ``"inf"`` only in F and q.
    """
    if hasattr(kind, "_fields"):  # a NamedTuple record
        field_types = get_type_hints(kind)
        if not isinstance(data, dict) or data.keys() != field_types.keys():
            raise TypeError(f"{kind.__name__} needs keys {sorted(field_types)}")
        values = {}
        for name, value in data.items():
            try:
                values[name] = (
                    math.inf
                    if name in _INF_FIELDS and value == "inf"
                    else _from_json(field_types[name], value)
                )
            except TypeError as exc:
                raise TypeError(f"{name}: {exc}") from None
        return kind(**values)
    origin = get_origin(kind)
    if origin is Union:  # Optional[X]
        if data is None:
            return None
        kind = get_args(kind)[0]
        origin = get_origin(kind)
    if origin is None:
        if type(data) not in _JSON_SCALARS[kind]:
            raise TypeError(f"expected a JSON {kind.__name__}, got {type(data).__name__}")
        return data
    if not isinstance(data, origin):
        raise TypeError(f"expected a JSON {origin.__name__}, got {type(data).__name__}")
    item = get_args(kind)[-1]
    if origin is list:
        return [_from_json(item, x) for x in data]
    return {key: _from_json(item, value) for key, value in data.items()}


def report_from_json_dict(data: dict) -> ComparisonReport:
    """Inverse of report_to_json_dict; metrics and proxy targets come back
    in their canonical order."""
    report = _from_json(ComparisonReport, data)

    def canonical(mapping: dict, order: tuple) -> dict:
        names = sorted(
            mapping, key=lambda n: (order.index(n) if n in order else len(order), n)
        )
        return {name: mapping[name] for name in names}

    return report._replace(
        metrics=canonical(report.metrics, METRICS),
        proxy=canonical(report.proxy, PROXY_TARGETS),
    )
