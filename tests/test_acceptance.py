"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Reference values marked "frozen" were computed with scipy 1.15 before the
statistics kernel was written; the suite itself has no third-party
dependencies.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import DEFAULT_CLASSIFIER, oracle_u_value, random_call_tree
from test_apimetric import _attach_api_leaf
from tracewatt import cli
from tracewatt.apimetric import uapi
from tracewatt.callgraph import node_intervals
from tracewatt.energy import attribute, integrate, parse_power
from tracewatt.evolution import report_from_json_dict, report_to_json_dict
from tracewatt.stats import anova, normal_cdf, ptukey, tukey_hsd
from tracewatt.trace import parse_trace
from test_energy import _profile
from test_stats import TK_GROUPS, TK_REFERENCE_P
from writers import write_power, write_trace


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {description} ... FAIL")
        raise
    print(f"ACCEPTANCE {number}: {description} ... PASS")


def test_criterion_1_uapi_oracle_equivalence():
    with criterion(1, "U oracle equivalence on 1000 random trees"):
        start = time.monotonic()
        rng = random.Random(20240811)
        for _ in range(1000):
            tree = random_call_tree(rng, max_nodes=200, max_depth=8)
            profile = uapi(tree, DEFAULT_CLASSIFIER)
            expected = sum(oracle_u_value(r, DEFAULT_CLASSIFIER) for r in tree.roots)
            assert profile.root_uapi == expected
        assert time.monotonic() - start < 10.0


def test_criterion_2_metric_laws():
    with criterion(2, "zero law and monotonicity on 1000 random trees"):
        rng = random.Random(20240812)
        zero_checked = monotone_checked = 0
        while zero_checked < 1000 or monotone_checked < 1000:
            tree = random_call_tree(rng, max_nodes=80, max_depth=8)
            profile = uapi(tree, DEFAULT_CLASSIFIER)
            if zero_checked < 1000:
                zero_checked += 1
                assert (profile.root_uapi == 0) == (profile.total_api_interactions == 0)
            grown = _attach_api_leaf(tree, rng)
            if grown is None or monotone_checked >= 1000:
                continue  # tree rooted at an API call: no legal insertion point
            monotone_checked += 1
            assert uapi(grown, DEFAULT_CLASSIFIER).root_uapi > profile.root_uapi


def test_criterion_3_energy_integration():
    with criterion(3, "energy integration analytic cases and conservation"):
        # constant power: P mW over 10 ms is exactly P/100 mJ
        const = _profile([(i * 50.0, 100.0) for i in range(401)])
        assert integrate(const, (0.0, 10_000.0))[0] == pytest.approx(1.0, rel=1e-9)
        # linear ramp 0 -> 100 mW over 10 ms: trapezoid is exact
        ramp = _profile([(0.0, 0.0), (10_000.0, 100.0)])
        assert integrate(ramp, (0.0, 10_000.0))[0] == pytest.approx(0.5, rel=1e-9)
        # window additivity
        rng = random.Random(3)
        for _ in range(200):
            t, samples = 0.0, []
            for _ in range(rng.randrange(2, 50)):
                samples.append((t, rng.random() * 400))
                t += rng.random() * 60 + 1
            profile = _profile(samples)
            a = rng.uniform(samples[0][0], samples[-1][0] - 1)
            c = rng.uniform(a + 0.5, samples[-1][0])
            b = rng.uniform(a + 0.1, c)
            if not a < b < c:
                continue
            assert integrate(profile, (a, b))[0] + integrate(profile, (b, c))[0] == pytest.approx(
                integrate(profile, (a, c))[0], rel=1e-9, abs=1e-15
            )
        # tree conservation on random nested intervals
        for _ in range(200):
            tree = random_call_tree(rng, max_nodes=50)
            intervals = node_intervals(tree)
            if not intervals:
                continue
            end_ns = max(node.t_end_ns for node, _ in intervals)
            profile = _profile(
                [(t * 5.0, 80.0 + (t % 11) * 7.0) for t in range(end_ns // 5_000 + 2)]
            )
            energies, _ = attribute([node for node, _ in intervals], profile)
            total_exclusive = sum(exclusive for _, exclusive in energies)
            roots_inclusive = sum(
                inclusive
                for (inclusive, _), (_, depth) in zip(energies, intervals)
                if depth == 0
            )
            assert total_exclusive == pytest.approx(roots_inclusive, rel=1e-6, abs=1e-12)


def test_criterion_4_anova_correctness():
    with criterion(4, "ANOVA identity, hand-computed case and SS identity"):
        identical = anova([[1.0, 2.0, 3.0]] * 3)
        assert identical.F == 0.0 and identical.p == 1.0

        hand = anova([[1.0, 2.0], [3.0, 4.0]])
        assert hand.F == 8.0
        t = math.sqrt(8.0)
        p_oracle = 2.0 * (1.0 - (0.5 + t / (2.0 * math.sqrt(t * t + 2.0))))
        assert hand.p == pytest.approx(p_oracle, abs=1e-12)
        assert hand.p == pytest.approx(0.1056, abs=1e-4)

        rng = random.Random(4)
        for _ in range(100):
            groups = [
                [rng.gauss(rng.uniform(-3, 3), 1.5) for _ in range(rng.randrange(2, 10))]
                for _ in range(rng.randrange(2, 7))
            ]
            result = anova(groups)
            flat = [x for g in groups for x in g]
            grand = sum(flat) / len(flat)
            sst = sum((x - grand) ** 2 for x in flat)
            assert result.ms_between * result.df_between + result.ms_within * result.df_within == pytest.approx(
                sst, rel=1e-9
            )


def test_criterion_5_studentized_range():
    with criterion(5, "studentized range limits, monotonicity and Tukey table"):
        for q in (0.5, 1.0, 2.0, 3.0):
            expected = 2.0 * normal_cdf(q / math.sqrt(2.0)) - 1.0
            assert ptukey(q, 2, 1e6) == pytest.approx(expected, abs=1e-4)
        values = [ptukey(0.25 * i, 5, 12) for i in range(1, 60)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        tk_pairs = tukey_hsd(TK_GROUPS, anova(TK_GROUPS))
        pairs = {(p.group_a, p.group_b): p.p_adj for p in tk_pairs}
        for key, expected_p in TK_REFERENCE_P.items():
            assert pairs[key] == pytest.approx(expected_p, abs=1e-3)


POSITIVE_CONTROL_SPEC = """
[synth]
seed = 81842
tests = 10
samples_per_test = 5
rate_hz = 20000
tree_depth = 3
branching = 2
api_density = 0.6

[revision.1.0]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 80.0
noise_stddev_mw = 3.0

[revision.1.1]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 80.0
noise_stddev_mw = 3.0

[revision.1.2]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 80.0
noise_stddev_mw = 3.0

[revision.1.3]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 80.0
noise_stddev_mw = 3.0

[revision.2.0]
api_call_multiplier = 1.5
base_power_mw = 100.0
api_cost_mw = 80.0
noise_stddev_mw = 3.0
"""


def test_criterion_6_positive_control(tmp_path):
    with criterion(6, "end-to-end positive control, proxy accuracy 1.0"):
        start = time.monotonic()
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(POSITIVE_CONTROL_SPEC)
        fixture = tmp_path / "fixture"
        out = tmp_path / "out"
        assert cli.main(["synth", str(spec_file), str(fixture)]) == 0
        assert cli.main(["evolve", str(fixture), "--out", str(out), "--alpha", "0.05"]) == 0
        report = report_from_json_dict(json.loads((out / "report.json").read_text()))
        score = report.proxy["energy_mj"]
        assert score.accuracy == 1.0
        # the control is only meaningful if the shifted revision is detected
        assert score.tp == 4 and score.tn == 6
        shifted = {
            (p.group_a, p.group_b)
            for p in report.metrics["energy_mj"].pairs
            if p.significant
        }
        assert shifted == {("1.0", "2.0"), ("1.1", "2.0"), ("1.2", "2.0"), ("1.3", "2.0")}
        assert time.monotonic() - start < 60.0


NEGATIVE_CONTROL_SPEC = """
[synth]
seed = {seed}
tests = 5
samples_per_test = 3
rate_hz = 20000
tree_depth = 2
branching = 2
api_density = 0.5

[revision.1.0]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 0.0
noise_stddev_mw = 2.0

[revision.1.1]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 0.0
noise_stddev_mw = 2.0

[revision.1.2]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 0.0
noise_stddev_mw = 2.0

[revision.1.3]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 0.0
noise_stddev_mw = 2.0
"""


def test_criterion_7_negative_control(tmp_path):
    with criterion(7, "end-to-end negative control across 10 seeded runs"):
        energy_false_positives = 0
        for run, seed in enumerate(range(9100, 9110)):
            base = tmp_path / f"run{run}"
            base.mkdir()
            spec_file = base / "spec.ini"
            spec_file.write_text(NEGATIVE_CONTROL_SPEC.format(seed=seed))
            fixture = base / "fixture"
            out = base / "out"
            assert cli.main(["synth", str(spec_file), str(fixture)]) == 0
            manifest = json.loads((fixture / "manifest.json").read_text())
            truth = {
                (p["a"], p["b"]): p["api_differs"] for p in manifest["pairs"]
            }
            assert not any(truth.values())  # no injected API change
            assert cli.main(["evolve", str(fixture), "--out", str(out)]) == 0
            report = report_from_json_dict(json.loads((out / "report.json").read_text()))
            observed = {
                (p.group_a, p.group_b): p.significant
                for p in report.metrics["ruapi"].pairs
            }
            assert observed == truth  # rU never couples to noise-only energy
            energy_false_positives += sum(
                1 for p in report.metrics["energy_mj"].pairs if p.significant
            )
        # alpha budget: 10 runs x 6 pairs at alpha=0.05 with family-wise
        # control allows a handful of spurious energy flags at most
        assert energy_false_positives <= 3


SCALE_SPEC_HEADER = """
[synth]
seed = 77041
tests = 41
samples_per_test = 10
rate_hz = 10000
tree_depth = 2
branching = 2
api_density = 0.3
api_call_us = 400
frame_pad_us = 100
"""


def test_criterion_8_scale_bookkeeping(tmp_path):
    with criterion(8, "14 x 41 x 10 fixture gives 5740 records and 91 pairs"):
        sections = [
            f"\n[revision.1.{i}]\napi_call_multiplier = 1.0\n"
            f"base_power_mw = 100.0\napi_cost_mw = 10.0\nnoise_stddev_mw = 0.5\n"
            for i in range(14)
        ]
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SCALE_SPEC_HEADER + "".join(sections))
        fixture = tmp_path / "fixture"
        out = tmp_path / "out"
        assert cli.main(["synth", str(spec_file), str(fixture)]) == 0
        assert len(list(fixture.rglob("*.trace"))) == 5740
        assert cli.main(["evolve", str(fixture), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_observations"] == 5740
        for metric in ("energy_mj", "avg_power_mw", "ruapi"):
            assert len(payload["metrics"][metric]["pairs"]) == 91
        assert len(payload["revisions"]) == 14
        csv_lines = (out / "revision_summaries.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 14


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns and lossless round-trips"):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(POSITIVE_CONTROL_SPEC.replace("tests = 10", "tests = 3"))
        fx1, fx2 = tmp_path / "fx1", tmp_path / "fx2"
        assert cli.main(["synth", str(spec_file), str(fx1)]) == 0
        assert cli.main(["synth", str(spec_file), str(fx2)]) == 0

        def tree_bytes(root):
            return {
                p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        assert tree_bytes(fx1) == tree_bytes(fx2)

        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert cli.main(["evolve", str(fx1), "--out", str(out1)]) == 0
        assert cli.main(["evolve", str(fx1), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

        # byte-lossless round-trips of every generated artifact
        for path in sorted(fx1.rglob("*.trace")):
            text = path.read_text(encoding="utf-8")
            assert write_trace(parse_trace(text)) == text
        for path in sorted(fx1.rglob("*.power")):
            text = path.read_text(encoding="utf-8")
            assert write_power(parse_power(text)) == text
        payload = json.loads((out1 / "report.json").read_text())
        report = report_from_json_dict(payload)
        assert (
            json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"
            == (out1 / "report.json").read_text()
        )
