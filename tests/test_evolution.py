import json
import math
import random
import statistics

import pytest

from tracewatt.config import AnalysisConfig
from tracewatt.evolution import (
    _mean,
    _median,
    AnalysisError,
    ComparisonReport,
    MetricComparison,
    ProxyScore,
    RevisionSummary,
    RevisionDataset,
    align_tests,
    compare,
    proxy_eval,
    report_from_json_dict,
    report_to_json_dict,
    revision_summaries,
    select_top_energy_tests,
    version_key,
)
from tracewatt.ingest import ExecutionRecord
from tracewatt.stats import AnovaResult, TukeyPair, anova, float_sum


def _record(test, sample, energy, power=100.0, uapi=4, api=2, ruapi=None):
    if ruapi is None:
        ruapi = uapi / (api + 1)
    return ExecutionRecord(test, sample, energy, power, energy / power * 1000, uapi, api, ruapi)


def _dataset(revision, tests, samples=2, energy_by_test=None, rng=None):
    records = []
    for test in tests:
        for sample in range(samples):
            base = energy_by_test.get(test, 1.0) if energy_by_test else 1.0
            jitter = rng.gauss(0, 0.01) if rng else 0.0
            records.append(_record(test, sample, base + jitter))
    return RevisionDataset(revision, tuple(records))


class TestAlignTests:
    def test_intersection(self):
        revs = [
            _dataset("1.0", ["a.B::x", "a.B::y", "a.B::z"]),
            _dataset("1.1", ["a.B::y", "a.B::z", "a.B::w"]),
        ]
        assert align_tests(revs) == ["a.B::y", "a.B::z"]

    def test_identical_sets_unchanged(self):
        revs = [_dataset("1.0", ["a.B::x", "a.B::y"]), _dataset("1.1", ["a.B::x", "a.B::y"])]
        assert align_tests(revs) == ["a.B::x", "a.B::y"]

    def test_disjoint_sets_error(self):
        revs = [_dataset("1.0", ["a.B::x"]), _dataset("1.1", ["a.B::y"])]
        with pytest.raises(AnalysisError):
            align_tests(revs)

    def test_needs_two_revisions(self):
        with pytest.raises(AnalysisError):
            align_tests([_dataset("1.0", ["a.B::x"])])


class TestSelectTopEnergyTests:
    def test_picks_highest_mean_energy(self):
        rev = _dataset("1.0", ["a.B::a", "a.B::b"], energy_by_test={"a.B::a": 5.0, "a.B::b": 3.0})
        assert select_top_energy_tests(rev, 1) == ["a.B::a"]

    def test_tie_breaks_by_name(self):
        rev = _dataset("1.0", ["a.B::b", "a.B::a"], energy_by_test={"a.B::a": 5.0, "a.B::b": 5.0})
        assert select_top_energy_tests(rev, 1) == ["a.B::a"]

    def test_k_larger_than_available_returns_all(self):
        rev = _dataset("1.0", ["a.B::a", "a.B::b"])
        names = select_top_energy_tests(rev, 100)
        assert len(names) == 2
        assert sorted(names) == ["a.B::a", "a.B::b"]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            select_top_energy_tests(_dataset("1.0", ["a.B::a"]), 0)


class TestProxyEval:
    def test_arithmetic_from_confusion_counts(self):
        proxy = {("a", "b"): True, ("a", "c"): True, ("a", "d"): True,
                 ("b", "c"): True, ("b", "d"): False}
        target = {("a", "b"): True, ("a", "c"): True, ("a", "d"): True,
                  ("b", "c"): False, ("b", "d"): False}
        score = proxy_eval(proxy, target)
        assert (score.tp, score.fp, score.fn, score.tn) == (3, 1, 0, 1)
        assert score.accuracy == pytest.approx(0.8)
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(1.0)
        assert score.f1 == pytest.approx(0.857142857, abs=1e-6)

    def test_self_agreement_is_perfect(self):
        rng = random.Random(8)
        flags = {("r%d" % i, "r%d" % j): rng.random() < 0.5
                 for i in range(5) for j in range(i + 1, 5)}
        score = proxy_eval(flags, flags)
        assert score.accuracy == 1.0
        assert score.fp == 0 and score.fn == 0

    def test_f1_absent_without_positives(self):
        flags = {("a", "b"): False}
        score = proxy_eval(flags, flags)
        assert score.f1 is None
        assert score.precision is None
        assert score.accuracy == 1.0

    def test_mismatched_pair_sets_rejected(self):
        with pytest.raises(ValueError):
            proxy_eval({("a", "b"): True}, {("a", "c"): True})


class TestRevisionSummaries:
    def test_mean_energy(self):
        rev = _dataset(
            "1.0", ["a.B::x", "a.B::y"], samples=1,
            energy_by_test={"a.B::x": 1.0, "a.B::y": 3.0},
        )
        summary = revision_summaries([rev])[0]
        assert summary.mean_energy_mj == pytest.approx(2.0)

    def test_sum_ruapi_over_test_means(self):
        records = (
            _record("a.B::x", 0, 1.0, ruapi=0.2),
            _record("a.B::x", 1, 1.0, ruapi=0.2),
            _record("a.B::y", 0, 1.0, ruapi=0.3),
            _record("a.B::y", 1, 1.0, ruapi=0.3),
        )
        summary = revision_summaries([RevisionDataset("1.0", records)])[0]
        assert summary.sum_ruapi == pytest.approx(0.5)

    def test_sums_run_left_to_right_on_every_python(self):
        # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0;
        # a compensated sum, as the built-in sum() is since Python 3.12, is 1.0
        energies = {"a.B::x": 1e16, "a.B::y": 1.0, "a.B::z": -1e16}
        assert math.fsum(energies.values()) == 1.0
        rev = _dataset("1.0", list(energies), samples=1, energy_by_test=energies)
        assert revision_summaries([rev])[0].mean_energy_mj == 0.0

    def test_ordered_by_version_components(self):
        revs = [
            _dataset("1.10", ["a.B::x"]),
            _dataset("1.2", ["a.B::x"]),
            _dataset("1.9", ["a.B::x"]),
        ]
        assert [s.revision for s in revision_summaries(revs)] == ["1.2", "1.9", "1.10"]


@pytest.mark.parametrize("n", [1, 2, 5, 6, 31, 40])
def test_mean_and_median_are_bit_equal_to_statistics(n):
    """Odd and even lengths, also where values of both signs near 1e16 make
    a left-to-right sum drop the small ones that fsum keeps."""
    rng = random.Random(n)
    plain = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    mixed = [1e16, *plain, -1e16]
    assert float_sum(mixed) != math.fsum(mixed)
    for xs in (plain, mixed):
        assert _mean(xs).hex() == statistics.fmean(xs).hex()
        assert _median(xs).hex() == statistics.median(xs).hex()


def test_version_key_ordering():
    labels = ["2.0", "1.10", "1.2", "1.10a", "10.0", "1.2.1"]
    assert sorted(labels, key=version_key) == [
        "1.2", "1.2.1", "1.10", "1.10a", "2.0", "10.0",
    ]


class TestCompare:
    def _pair(self, seed=0, delta=0.0, samples=4):
        rng = random.Random(seed)
        tests = ["a.B::t1", "a.B::t2", "a.B::t3"]
        energy = {t: 1.0 + i * 0.1 for i, t in enumerate(tests)}
        rev_a = _dataset("1.0", tests, samples=samples, energy_by_test=energy, rng=rng)
        energy_b = {t: e + delta for t, e in energy.items()}
        rev_b = _dataset("1.1", tests, samples=samples, energy_by_test=energy_b, rng=rng)
        return [rev_a, rev_b]

    def test_identical_revisions_all_true_negative(self):
        tests = ["a.B::t1", "a.B::t2"]
        records = tuple(
            _record(t, s, 1.0 + 0.05 * s + 0.1 * i)
            for i, t in enumerate(tests)
            for s in range(3)
        )
        revs = [RevisionDataset("1.0", records), RevisionDataset("1.1", records)]
        report = compare(revs, AnalysisConfig(alpha=0.05))
        for comparison in report.metrics.values():
            assert not any(p.significant for p in comparison.pairs)
        for score in report.proxy.values():
            assert score.accuracy == 1.0
            assert score.tn == 1

    def test_pair_cardinality_fourteen_revisions(self):
        rng = random.Random(5)
        revs = []
        for i in range(14):
            revs.append(
                _dataset(
                    f"1.{i}", ["a.B::t1", "a.B::t2"], samples=3,
                    energy_by_test={"a.B::t1": 1.0, "a.B::t2": 2.0}, rng=rng,
                )
            )
        report = compare(revs, AnalysisConfig())
        for comparison in report.metrics.values():
            assert len(comparison.pairs) == 91

    def test_permutation_invariance(self):
        revs = self._pair(seed=42, delta=0.5)
        forward = compare(revs, AnalysisConfig())
        backward = compare(list(reversed(revs)), AnalysisConfig())
        assert report_to_json_dict(forward) == report_to_json_dict(backward)

    def test_recomputes_ruapi_over_analysis_set(self):
        # two tests, one dropped by top-k: N must shrink to the kept test
        records_a = (
            _record("a.B::big", 0, 5.0, uapi=6, api=3),
            _record("a.B::big", 1, 5.0, uapi=6, api=3),
            _record("a.B::small", 0, 1.0, uapi=2, api=1),
            _record("a.B::small", 1, 1.0, uapi=2, api=1),
        )
        records_b = tuple(
            ExecutionRecord(r.test_name, r.sample_index, r.energy_mj * 1.01,
                            r.avg_power_mw, r.duration_ms, r.root_uapi,
                            r.api_interactions, r.ruapi)
            for r in records_a
        )
        revs = [RevisionDataset("1.0", records_a), RevisionDataset("1.1", records_b)]
        report = compare(revs, AnalysisConfig(top_k_tests=1))
        assert report.analysis_tests == ["a.B::big"]
        # kept test: U=6, N=3 within each sample run -> rU = 6/4
        assert report.summaries[0].sum_ruapi == pytest.approx(6.0 / 4.0)

    def test_observation_unit_per_test_mean(self):
        revs = self._pair(seed=9, delta=0.0)
        report = compare(revs, AnalysisConfig(observation_unit="per_test_mean"))
        assert report.n_observations == 6  # 3 tests x 2 revisions

    def test_per_test_mean_averages_samples(self):
        def rev(label, energies):
            return RevisionDataset(label, tuple(
                _record(test, s, e)
                for test, values in energies.items()
                for s, e in enumerate(values)
            ))

        revs = [
            rev("1.0", {"a.B::t": [1.0, 3.0], "a.B::u": [5.0, 5.0]}),
            rev("1.1", {"a.B::t": [2.0, 2.0], "a.B::u": [5.0, 7.0]}),
        ]
        report = compare(revs, AnalysisConfig(observation_unit="per_test_mean"))
        assert report.metrics["energy_mj"].anova == anova([[2.0, 5.0], [2.0, 6.0]])

    def test_per_test_mean_of_one_sample_is_that_sample(self):
        revs = self._pair(seed=12, delta=0.3, samples=1)
        per_sample = report_to_json_dict(compare(revs, AnalysisConfig()))
        per_test = report_to_json_dict(
            compare(revs, AnalysisConfig(observation_unit="per_test_mean"))
        )
        assert per_test["metrics"] == per_sample["metrics"]

    def test_median_aggregation_discards_outlier_sample(self):
        def records(outlier):
            values = [1.0, 1.1, outlier]
            return tuple(
                _record("a.B::t", s, v) for s, v in enumerate(values)
            ) + tuple(
                _record("a.B::u", s, v + 0.2) for s, v in enumerate(values)
            )

        revs = [
            RevisionDataset("1.0", records(1.2)),
            RevisionDataset("1.1", records(900.0)),
        ]
        mean_report = compare(revs, AnalysisConfig(observation_unit="per_test_mean"))
        median_report = compare(
            revs, AnalysisConfig(observation_unit="per_test_mean", aggregation="median")
        )
        mean_diff = mean_report.metrics["energy_mj"].pairs[0].mean_diff
        median_diff = median_report.metrics["energy_mj"].pairs[0].mean_diff
        assert mean_diff > 100
        assert abs(median_diff) < 1.0

    def test_too_few_observations_raises_analysis_error(self):
        revs = [
            _dataset("1.0", ["a.B::t1"], samples=1),
            _dataset("1.1", ["a.B::t1"], samples=1),
        ]
        with pytest.raises(AnalysisError):
            compare(revs, AnalysisConfig())

    def test_report_json_round_trip(self):
        report = compare(self._pair(seed=3, delta=0.4), AnalysisConfig())
        payload = json.loads(json.dumps(report_to_json_dict(report), sort_keys=True))
        restored = report_from_json_dict(payload)
        assert report_to_json_dict(restored) == report_to_json_dict(report)


def test_report_json_round_trip_keeps_inf_labels_and_infinite_statistics():
    report = ComparisonReport(
        alpha=0.05,
        observation_unit="per_sample",
        revisions=["1.0", "inf"],
        aligned_tests=["a.B::t"],
        analysis_tests=["a.B::t"],
        excluded_tests={"1.0": [], "inf": ["a.B::u"]},
        n_observations=4,
        metrics={
            metric: MetricComparison(
                AnovaResult(math.inf, 0.0, 1, 2, 3.0, 0.0, True),
                [TukeyPair("1.0", "inf", 2.0, math.inf, 0.0, True)],
            )
            for metric in ("energy_mj", "avg_power_mw", "ruapi")
        },
        proxy={
            target: ProxyScore(1, 0, 0, 0, 1.0, 1.0, 1.0, 1.0)
            for target in ("energy_mj", "avg_power_mw")
        },
        summaries=[
            RevisionSummary("1.0", 1.0, 10.0, 0.5),
            RevisionSummary("inf", 2.0, 20.0, 0.25),
        ],
    )
    payload = json.loads(json.dumps(report_to_json_dict(report), sort_keys=True))
    pair = payload["metrics"]["ruapi"]["pairs"][0]
    assert payload["metrics"]["ruapi"]["anova"]["F"] == "inf"
    assert (pair["group_b"], pair["q"]) == ("inf", "inf")
    restored = report_from_json_dict(payload)
    assert restored == report
    assert list(restored.metrics) == list(report.metrics)
    assert restored.revisions == ["1.0", "inf"]


def test_duplicate_records_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RevisionDataset("1.0", (_record("a.B::x", 0, 1.0), _record("a.B::x", 0, 2.0)))
