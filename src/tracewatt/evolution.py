"""Cross-revision comparison: test alignment, per-metric ANOVA + Tukey
matrices, and scoring of rU as a proxy for significant energy/power change.

Revisions are compared on three observation metrics per (test, sample)
execution: energy (mJ), average power (mW) and rU.  The proxy evaluation
asks, pair of revisions by pair of revisions, whether rU significance
agrees with energy (or power) significance; agreement over all pairs is
reported as accuracy and F1 with "significant change" as the positive
class.
"""

import dataclasses
import math
import statistics
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .stats import AnovaResult, TukeyPair, anova, tukey_hsd

METRICS = ("energy_mj", "avg_power_mw", "ruapi")
PROXY_METRIC = "ruapi"
PROXY_TARGETS = ("energy_mj", "avg_power_mw")


class AnalysisError(ValueError):
    """The data cannot support the statistical comparison (no common
    tests, or too few observations per revision)."""


@dataclass(frozen=True)
class ExecutionRecord:
    """One recorded execution of one test in one revision.

    root_uapi and api_interactions are the raw per-tree counts; ruapi is
    the normalized value U / (N + 1) where N sums api_interactions over
    all analyzed tests of the same sample run (see normalize_ruapi).
    """

    test_name: str
    sample_index: int
    energy_mj: float
    avg_power_mw: float
    duration_ms: float
    root_uapi: int
    api_interactions: int
    ruapi: float


@dataclass
class RevisionDataset:
    revision: str
    records: tuple[ExecutionRecord, ...]

    def __post_init__(self):
        seen = set()
        for r in self.records:
            key = (r.test_name, r.sample_index)
            if key in seen:
                raise ValueError(
                    f"revision {self.revision}: duplicate record for {key}"
                )
            seen.add(key)

    def test_names(self) -> set[str]:
        return {r.test_name for r in self.records}


@dataclass(frozen=True)
class RevisionSummary:
    revision: str
    mean_energy_mj: float
    mean_power_mw: float
    sum_ruapi: float


@dataclass(frozen=True)
class ProxyScore:
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


@dataclass
class MetricComparison:
    anova: AnovaResult
    pairs: list[TukeyPair]


@dataclass
class ComparisonReport:
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


def select_top_energy_tests(
    revision: RevisionDataset, k: int
) -> tuple[list[str], bool]:
    """The k most energy-demanding tests of a revision, by mean energy
    over its sample runs; ties break by test name.

    Returns (names, capped): capped is True when fewer than k tests were
    available and all of them were returned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    by_test: dict[str, list[float]] = {}
    for r in revision.records:
        by_test.setdefault(r.test_name, []).append(r.energy_mj)
    ranked = sorted(
        by_test, key=lambda name: (-(sum(by_test[name]) / len(by_test[name])), name)
    )
    capped = k > len(ranked)
    return ranked[:k], capped


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


def normalize_ruapi(
    revision: str, records: Iterable[ExecutionRecord], tests: Collection[str]
) -> RevisionDataset:
    """Keep the records of ``tests`` and set rU = U / (N + 1), where N
    sums the API interactions of the kept records of the same sample run."""
    kept = [r for r in records if r.test_name in tests]
    n_by_sample: dict[int, int] = {}
    for r in kept:
        n_by_sample[r.sample_index] = (
            n_by_sample.get(r.sample_index, 0) + r.api_interactions
        )
    return RevisionDataset(
        revision,
        tuple(
            dataclasses.replace(r, ruapi=r.root_uapi / (n_by_sample[r.sample_index] + 1))
            for r in kept
        ),
    )


def _observations(
    rev: RevisionDataset, metric: str, observation_unit: str, aggregation: str
) -> list[float]:
    values = [(r.test_name, r.sample_index, getattr(r, metric)) for r in rev.records]
    values.sort(key=lambda v: (v[0], v[1]))
    if observation_unit == "per_sample":
        return [v[2] for v in values]
    if observation_unit == "per_test_mean":
        if aggregation == "mean":
            collapse = statistics.fmean
        elif aggregation == "median":
            collapse = statistics.median
        else:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        by_test: dict[str, list[float]] = {}
        for name, _, x in values:
            by_test.setdefault(name, []).append(x)
        return [collapse(xs) for _, xs in sorted(by_test.items())]
    raise ValueError(f"unknown observation unit {observation_unit!r}")


def revision_summaries(
    revisions: Sequence[RevisionDataset], analysis_tests: Optional[Sequence[str]] = None
) -> list[RevisionSummary]:
    """Per-revision means of energy/power plus the per-revision rU sum
    (sum over tests of the test's mean rU across samples), ordered by
    version label."""
    selected = None if analysis_tests is None else set(analysis_tests)
    out = []
    for rev in sorted(revisions, key=lambda r: version_key(r.revision)):
        records = [
            r for r in rev.records if selected is None or r.test_name in selected
        ]
        if not records:
            raise ValueError(f"revision {rev.revision} has no analyzed records")
        energy = sum(r.energy_mj for r in records) / len(records)
        power = sum(r.avg_power_mw for r in records) / len(records)
        by_test: dict[str, list[float]] = {}
        for r in records:
            by_test.setdefault(r.test_name, []).append(r.ruapi)
        sum_ruapi = sum(sum(xs) / len(xs) for xs in by_test.values())
        out.append(RevisionSummary(rev.revision, energy, power, sum_ruapi))
    return out


def compare(
    revisions: Sequence[RevisionDataset],
    alpha: float = 0.05,
    observation_unit: str = "per_sample",
    top_k_tests: Optional[int] = None,
    aggregation: str = "mean",
) -> ComparisonReport:
    """Run the three per-metric analyses over aligned revisions and score
    the rU proxy against energy and power.

    Tests are first aligned (intersection over revisions); when
    top_k_tests is set, the analysis set is further restricted to the
    most energy-demanding tests of the oldest revision.  rU values are
    renormalized over the final analysis set before testing.  With the
    per_test_mean observation unit, repeated samples collapse through
    ``aggregation`` (mean or median).
    """
    aligned = align_tests(revisions)
    excluded = {
        rev.revision: sorted(rev.test_names() - set(aligned))
        for rev in sorted(revisions, key=lambda r: version_key(r.revision))
    }

    analysis_tests = aligned
    if top_k_tests is not None:
        reference = min(revisions, key=lambda r: version_key(r.revision))
        top, _ = select_top_energy_tests(reference, top_k_tests)
        analysis_tests = [t for t in top if t in set(aligned)]
        analysis_tests.sort()
        if not analysis_tests:
            raise AnalysisError("top-k selection removed every aligned test")

    ordered = sorted(revisions, key=lambda r: version_key(r.revision))
    selected = set(analysis_tests)
    datasets = [normalize_ruapi(rev.revision, rev.records, selected) for rev in ordered]
    labels = [rev.revision for rev in datasets]

    metrics: dict[str, MetricComparison] = {}
    n_observations = 0
    for metric in METRICS:
        groups = [
            _observations(rev, metric, observation_unit, aggregation)
            for rev in datasets
        ]
        n_observations = sum(len(g) for g in groups)
        try:
            metrics[metric] = MetricComparison(
                anova(groups), tukey_hsd(groups, alpha, labels)
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
        alpha=alpha,
        observation_unit=observation_unit,
        revisions=labels,
        aligned_tests=list(aligned),
        analysis_tests=list(analysis_tests),
        excluded_tests=excluded,
        n_observations=n_observations,
        metrics=metrics,
        proxy=proxy,
        summaries=revision_summaries(datasets, analysis_tests),
    )


def report_to_json_dict(report: ComparisonReport) -> dict:
    """Plain-dict form of a report, stable for JSON serialization."""

    def anova_dict(a: AnovaResult) -> dict:
        return {
            "F": a.F if not math.isinf(a.F) else "inf",
            "p": a.p,
            "df_between": a.df_between,
            "df_within": a.df_within,
            "ms_between": a.ms_between,
            "ms_within": a.ms_within,
            "degenerate": a.degenerate,
        }

    def pair_dict(p: TukeyPair) -> dict:
        return {
            "group_a": p.group_a,
            "group_b": p.group_b,
            "mean_diff": p.mean_diff,
            "q": p.q if not math.isinf(p.q) else "inf",
            "p_adj": p.p_adj,
            "significant": p.significant,
        }

    def score_dict(s: ProxyScore) -> dict:
        return {
            "tp": s.tp, "fp": s.fp, "fn": s.fn, "tn": s.tn,
            "accuracy": s.accuracy, "precision": s.precision,
            "recall": s.recall, "f1": s.f1,
        }

    return {
        "alpha": report.alpha,
        "observation_unit": report.observation_unit,
        "revisions": report.revisions,
        "aligned_tests": report.aligned_tests,
        "analysis_tests": report.analysis_tests,
        "excluded_tests": report.excluded_tests,
        "n_observations": report.n_observations,
        "metrics": {
            name: {
                "anova": anova_dict(m.anova),
                "pairs": [pair_dict(p) for p in m.pairs],
            }
            for name, m in report.metrics.items()
        },
        "proxy": {name: score_dict(s) for name, s in report.proxy.items()},
        "summaries": [
            {
                "revision": s.revision,
                "mean_energy_mj": s.mean_energy_mj,
                "mean_power_mw": s.mean_power_mw,
                "sum_ruapi": s.sum_ruapi,
            }
            for s in report.summaries
        ],
    }


def report_from_json_dict(data: dict) -> ComparisonReport:
    """Inverse of report_to_json_dict."""

    def to_f(x):
        return math.inf if x == "inf" else x

    def canonical(names, order):
        return sorted(names, key=lambda n: (order.index(n) if n in order else len(order), n))

    metrics = {
        name: MetricComparison(
            AnovaResult(
                to_f(m["anova"]["F"]),
                m["anova"]["p"],
                m["anova"]["df_between"],
                m["anova"]["df_within"],
                m["anova"]["ms_between"],
                m["anova"]["ms_within"],
                m["anova"]["degenerate"],
            ),
            [
                TukeyPair(
                    p["group_a"], p["group_b"], p["mean_diff"],
                    to_f(p["q"]), p["p_adj"], p["significant"],
                )
                for p in m["pairs"]
            ],
        )
        for name, m in (
            (n, data["metrics"][n]) for n in canonical(data["metrics"], METRICS)
        )
    }
    proxy = {
        name: ProxyScore(
            s["tp"], s["fp"], s["fn"], s["tn"],
            s["accuracy"], s["precision"], s["recall"], s["f1"],
        )
        for name, s in (
            (n, data["proxy"][n]) for n in canonical(data["proxy"], PROXY_TARGETS)
        )
    }
    summaries = [
        RevisionSummary(
            s["revision"], s["mean_energy_mj"], s["mean_power_mw"], s["sum_ruapi"]
        )
        for s in data["summaries"]
    ]
    return ComparisonReport(
        alpha=data["alpha"],
        observation_unit=data["observation_unit"],
        revisions=list(data["revisions"]),
        aligned_tests=list(data["aligned_tests"]),
        analysis_tests=list(data["analysis_tests"]),
        excluded_tests={k: list(v) for k, v in data["excluded_tests"].items()},
        n_observations=data["n_observations"],
        metrics=metrics,
        proxy=proxy,
        summaries=summaries,
    )
