import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import real_getaffinity, real_setaffinity, show_cpus

from tracewatt import cli, evolution, ingest, stats
from tracewatt.config import AnalysisConfig

SPEC_TEXT = """
[synth]
seed = 11
tests = 3
samples_per_test = 2
rate_hz = 20000
tree_depth = 2
branching = 2
api_density = 0.5

[revision.1.0]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 60.0
noise_stddev_mw = 1.0

[revision.1.1]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 60.0
noise_stddev_mw = 1.0
"""


@pytest.fixture
def fixture_dir(tmp_path):
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text(SPEC_TEXT)
    out = tmp_path / "fixture"
    assert cli.main(["synth", str(spec_file), str(out)]) == 0
    return out


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_file_counts(self, tmp_path):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SPEC_TEXT)
        out = tmp_path / "fx"
        assert cli.main(["synth", str(spec_file), str(out)]) == 0
        traces = list(out.rglob("*.trace"))
        powers = list(out.rglob("*.power"))
        assert len(traces) == 12  # 2 revisions x 3 tests x 2 samples
        assert len(powers) == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SPEC_TEXT)
        out = tmp_path / "fx"
        assert cli.main(["synth", str(spec_file), str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli.main(["synth", str(spec_file), str(out)]) == 0
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert before == after

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SPEC_TEXT.replace("api_call_multiplier = 1.0\nbase_power_mw = 100.0\napi_cost_mw = 60.0\nnoise_stddev_mw = 1.0\n\n[revision.1.1]\n", "api_call_multiplier = 0\n\n[revision.1.1]\n", 1))
        assert cli.main(["synth", str(spec_file), str(tmp_path / "fx")]) == 2
        assert "multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, message",
        [
            ("[revision...]\n", "bad revision label '..'"),
            ("[revision..]\n", "bad revision label '.'"),
            (
                "[revision.big]\napi_call_multiplier = 1e308\n",
                "revision big: api_call_multiplier is too large",
            ),
            (
                "[revision.big]\napi_call_multiplier = 1e12\n",
                "revision big: api_call_multiplier is too large",
            ),
        ],
        ids=["dot-dot-label", "dot-label", "overflowing-multiplier", "huge-multiplier"],
    )
    def test_revision_that_escapes_its_directory_or_overflows_exits_2(
        self, tmp_path, capsys, section, message
    ):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SPEC_TEXT + "\n" + section)
        out = tmp_path / "out" / "fx"
        assert cli.main(["synth", str(spec_file), str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli.main(["synth", str(tmp_path / "nope.ini"), str(tmp_path / "fx")]) == 2

    def test_deep_chain_synthesizes_and_analyzes(self, tmp_path):
        # A call chain deeper than the interpreter's recursion limit (1000).
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(
            "[synth]\nseed = 3\ntests = 1\nsamples_per_test = 1\n"
            "rate_hz = 10000\ntree_depth = 1200\nbranching = 1\n"
            "api_density = 0.5\napi_call_us = 100\nframe_pad_us = 100\n\n"
            "[revision.a]\n"
        )
        fixture = tmp_path / "fx"
        assert cli.main(["synth", str(spec_file), str(fixture)]) == 0
        out = tmp_path / "out"
        assert cli.main(["analyze", str(fixture / "a"), "--out", str(out)]) == 0
        depths = [int(row["depth"]) for row in _read_csv(out / "methods.csv")]
        assert max(depths) >= 1200


class TestAnalyzeCommand:
    def test_record_counts_match_manifest(self, fixture_dir, tmp_path):
        manifest = json.loads((fixture_dir / "manifest.json").read_text())
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(out)]) == 0
        tests_rows = _read_csv(out / "tests.csv")
        assert len(tests_rows) == 6  # 3 tests x 2 samples
        by_file = manifest["revisions"]["1.0"]["files"]
        for row in tests_rows:
            rel = f"1.0/traces/{row['test_name']}.{row['sample_index']}.trace"
            assert int(row["api_interactions"]) == by_file[rel]["api_interactions"]
        methods_rows = _read_csv(out / "methods.csv")
        api_rows = [r for r in methods_rows if r["api_label"]]
        assert len(api_rows) == 2 * manifest["revisions"]["1.0"]["total_api_interactions"]

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(out)]) == 0
        assert before == {p: p.read_bytes() for p in out.iterdir()}

    def test_method_avg_power_is_inclusive_energy_over_duration(self, tmp_path):
        rev = tmp_path / "1.0"
        (rev / "traces").mkdir(parents=True)
        (rev / "power").mkdir()
        (rev / "traces" / "a.B::t.0.trace").write_text(
            "#trace v1;a.B::t;0\nE;1;0;a;B;t\nE;1;1000;java.util;X;m\n"
            "X;1;1000;java.util;X;m\nX;1;2000;a;B;t\n"
        )
        (rev / "power" / "a.B::t.0.power").write_text(
            "#power v1;a.B::t;0;1000.0\n0.0;100.0\n10.0;100.0\n"
        )
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(rev), "--out", str(out)]) == 0
        rows = _read_csv(out / "methods.csv")
        assert [(r["method"], r["duration_ns"]) for r in rows] == [("t", "2000"), ("m", "0")]
        assert float(rows[0]["avg_power_mw"]) == float(rows[0]["energy_mj_inclusive"]) / (2000 * 1e-9)
        assert float(rows[0]["avg_power_mw"]) == pytest.approx(100.0, rel=1e-9)
        assert rows[1]["avg_power_mw"] == "0.0"

    def test_empty_revision_dir_exits_2(self, tmp_path):
        empty = tmp_path / "rev"
        (empty / "traces").mkdir(parents=True)
        (empty / "power").mkdir()
        assert cli.main(["analyze", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_trace_without_power_exits_2_naming_test(self, fixture_dir, tmp_path, capsys):
        victim = next((fixture_dir / "1.0" / "power").iterdir())
        name = victim.name
        victim.unlink()
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o")]) == 2
        assert name.rsplit(".", 2)[0] in capsys.readouterr().err

    def test_corrupt_trace_exits_3(self, fixture_dir, tmp_path):
        victim = next((fixture_dir / "1.0" / "traces").iterdir())
        victim.write_text("#trace v9;a.B::m;0\n")
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o")]) == 3

    def test_power_not_covering_trace_exits_4(self, fixture_dir, tmp_path, capsys):
        victim = next((fixture_dir / "1.0" / "power").iterdir())
        header = victim.read_text().splitlines()[0]
        victim.write_text(header + "\n0;100.0\n50;100.0\n")
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(f"error: {victim}: ")

    @pytest.mark.parametrize("sample", ["01", "\u00b2"])
    def test_non_canonical_sample_index_in_file_name_exits_2(self, tmp_path, capsys, sample):
        rev = tmp_path / "1.0"
        (rev / "traces").mkdir(parents=True)
        (rev / "power").mkdir()
        trace = rev / "traces" / f"a.B::t.{sample}.trace"
        trace.write_text("#trace v1;a.B::t;1\nE;1;0;a;B;t\nX;1;2000;a;B;t\n")
        (rev / "power" / f"a.B::t.{sample}.power").write_text(
            "#power v1;a.B::t;1;1000.0\n0.0;100.0\n10.0;100.0\n"
        )
        assert cli.main(["analyze", str(rev), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: sample_index must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
    def test_non_finite_clock_offset_exits_2(self, fixture_dir, tmp_path, capsys, offset):
        test_name = "com.fixture.suite.GeneratedSuite::test001"
        config = tmp_path / "cfg.ini"
        config.write_text(f"[power_clock_offset_us]\n{test_name} = {offset}\n")
        argv = ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o"),
                "--config", str(config)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: [power_clock_offset_us] {test_name} = '{offset}' "
            f"is not a finite number\n"
        )

    def test_clock_offset_config_compensates_shifted_power(self, fixture_dir, tmp_path):
        baseline = tmp_path / "baseline"
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(baseline)]) == 0

        # shift every power file of one test by +500us, then undo via config
        test_name = "com.fixture.suite.GeneratedSuite::test001"
        for path in (fixture_dir / "1.0" / "power").iterdir():
            if not path.name.startswith(test_name + "."):
                continue
            lines = path.read_text().splitlines()
            shifted = [lines[0]]
            for line in lines[1:]:
                t, p = line.split(";")
                shifted.append(f"{float(t) + 500.0!r};{p}")
            path.write_text("\n".join(shifted) + "\n")

        config = tmp_path / "cfg.ini"
        config.write_text(f"[power_clock_offset_us]\n{test_name} = -500.0\n")
        corrected = tmp_path / "corrected"
        assert cli.main(
            ["analyze", str(fixture_dir / "1.0"), "--out", str(corrected),
             "--config", str(config)]
        ) == 0
        assert (baseline / "tests.csv").read_bytes() == (corrected / "tests.csv").read_bytes()

    def test_clock_offset_key_naming_no_test_exits_2(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[power_clock_offset_us]\ncom.fixture.suite.GeneratedSuite::test01 = 5\n")
        argv = ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o"),
                "--config", str(config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [power_clock_offset_us] key "
            "'com.fixture.suite.GeneratedSuite::test01' names no analyzed test\n"
        )
        assert not (tmp_path / "o").exists()

    def test_clock_offset_key_error_comes_before_a_corrupt_trace(
        self, fixture_dir, tmp_path, capsys
    ):
        _corrupt_trace(fixture_dir / "1.0")
        config = tmp_path / "cfg.ini"
        config.write_text("[power_clock_offset_us]\ncom.fixture.suite.GeneratedSuite::test01 = 5\n")
        argv = ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o"),
                "--config", str(config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [power_clock_offset_us] key "
            "'com.fixture.suite.GeneratedSuite::test01' names no analyzed test\n"
        )

    @pytest.mark.parametrize(
        "config_text, message",
        [
            ("[analysis]\naggregation = median\n",
             "error: aggregation = median needs observation_unit = per_test_mean\n"),
            ("[api_rules]\n", "error: need at least one API rule\n"),
            ("[api_rules]\njava. = a\njava. = b\n", "option 'java.' in section 'api_rules' already exists"),
        ],
        ids=["median-per-sample", "empty-api-rules", "duplicate-api-rule"],
    )
    def test_config_with_a_setting_that_does_nothing_or_no_api_rules_exits_2(
        self, fixture_dir, tmp_path, capsys, config_text, message
    ):
        config = tmp_path / "cfg.ini"
        config.write_text(config_text)
        argv = ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "o"),
                "--config", str(config)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def _corrupt_trace(revision: Path, index: int = -1) -> Path:
    """Make line 3 of the revision's ``index``-th trace file (by name)
    unparseable; the last one by default."""
    victim = sorted((revision / "traces").iterdir())[index]
    lines = victim.read_text().splitlines(keepends=True)
    fields = lines[2].split(";")
    lines[2] = ";".join(fields[:2] + ["x"] + fields[3:])
    victim.write_text("".join(lines))
    return victim


class TestEvolveCommand:
    def test_fewer_than_two_revisions_exits_2(self, tmp_path):
        root = tmp_path / "root"
        (root / "1.0").mkdir(parents=True)
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "o")]) == 2

    def test_identical_revisions_not_significant(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        for metric in payload["metrics"].values():
            assert not any(p["significant"] for p in metric["pairs"])
        assert payload["proxy"]["energy_mj"]["accuracy"] == 1.0

    def test_outputs_present_and_rerun_identical(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "report.json", "pairwise_energy_mj.csv", "pairwise_avg_power_mw.csv",
            "pairwise_ruapi.csv", "proxy_scores.csv", "revision_summaries.csv",
        }
        before = {p: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 0
        assert before == {p: p.read_bytes() for p in out.iterdir()}

    def test_alpha_flag_overrides_config(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out), "--alpha", "0.2"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["alpha"] == 0.2

    def test_alpha_env_var_used_when_no_flag(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACEWATT_ALPHA", "0.1")
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["alpha"] == 0.1

    @pytest.mark.parametrize(
        "flags, variable, shown", [(["--alpha", "1.5"], None, "1.5"), ([], "0", "0.0")]
    )
    def test_alpha_outside_the_open_unit_interval_exits_2_writing_nothing(
        self, fixture_dir, tmp_path, monkeypatch, capsys, flags, variable, shown
    ):
        if variable is not None:
            monkeypatch.setenv("TRACEWATT_ALPHA", variable)
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: alpha must be in (0, 1), got {shown}\n"
        assert not out.exists()

    def test_malformed_env_var_exits_2(self, fixture_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRACEWATT_ALPHA", "lots")
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: TRACEWATT_ALPHA = 'lots' is not a number\n"

    def test_corrupt_trace_error_names_file(self, fixture_dir, tmp_path, capsys):
        victim = _corrupt_trace(fixture_dir / "1.1")
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: line 3: ")
        assert "Traceback" not in err

    def test_power_ending_before_its_trace_exits_4_naming_the_file(
        self, fixture_dir, tmp_path, capsys
    ):
        # Without per-method attribution, the test-window integral must
        # refuse the same power files that attribution refused.
        victim = sorted((fixture_dir / "1.1" / "power").iterdir())[-1]
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        out = tmp_path / "o"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: ")
        assert "outside sampled range" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_only_analyze_attributes_per_method_energy(self, fixture_dir, tmp_path, monkeypatch):
        calls = {"attribute": 0, "node_intervals": 0}

        def spy(name):
            original = getattr(ingest, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(ingest, name, counted)

        spy("attribute")
        spy("node_intervals")
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "e")]) == 0
        assert calls == {"attribute": 0, "node_intervals": 0}
        revision = fixture_dir / "1.0"
        assert cli.main(["analyze", str(revision), "--out", str(tmp_path / "a")]) == 0
        executions = len(list((revision / "traces").iterdir()))
        assert executions == 6
        assert calls == {"attribute": executions, "node_intervals": executions}

    def test_ruapi_is_normalized_once_per_revision(self, fixture_dir, tmp_path, monkeypatch):
        """evolve leaves rU to compare, which sets it over the tests it
        compares; analyze sets it once, over its revision's tests."""
        normalized = []
        original = ingest.normalize_ruapi

        def counted(revision, records, tests):
            normalized.append(revision)
            return original(revision, records, tests)

        for module in (ingest, evolution):
            monkeypatch.setattr(module, "normalize_ruapi", counted)
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "e")]) == 0
        assert normalized == ["1.0", "1.1"]
        normalized.clear()
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "a")]) == 0
        assert normalized == ["1.0"]

    @pytest.mark.parametrize("out", [None, "report"])
    def test_rerun_inside_the_root_skips_its_own_output(
        self, fixture_dir, monkeypatch, capsys, out
    ):
        """The output directory, inside the root, is not read as a revision
        on the next run, whether it is the default or named by --out."""
        monkeypatch.delenv("TRACEWATT_OUT", raising=False)
        monkeypatch.chdir(fixture_dir)
        argv = ["evolve", "."] if out is None else ["evolve", ".", "--out", str(fixture_dir / out)]
        out_dir = fixture_dir / (out or "tracewatt-out")
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(before) == 6
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert "revisions: 2 (1.0, 1.1)" in capsys.readouterr().out

    def test_top_k_removing_every_aligned_test_exits_5(self, fixture_dir, tmp_path, capsys):
        analysis = tmp_path / "analysis"
        assert cli.main(["analyze", str(fixture_dir / "1.0"), "--out", str(analysis)]) == 0
        energy: dict[str, list[float]] = {}
        for row in _read_csv(analysis / "tests.csv"):
            energy.setdefault(row["test_name"], []).append(float(row["energy_mj"]))
        top = max(energy, key=lambda name: sum(energy[name]) / len(energy[name]))
        for path in (fixture_dir / "1.1").rglob(f"{top}.*"):
            path.unlink()
        config = tmp_path / "cfg.ini"
        config.write_text("[analysis]\ntop_k_tests = 1\n")
        argv = ["evolve", str(fixture_dir), "--out", str(tmp_path / "o"), "--config", str(config)]
        capsys.readouterr()
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: top-k selection removed every aligned test")
        assert "Traceback" not in err

    def test_clock_offset_key_naming_no_test_exits_2(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[power_clock_offset_us]\ncom.fixture.suite.GeneratedSuite::test01 = 5\n")
        argv = ["evolve", str(fixture_dir), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [power_clock_offset_us] key "
            "'com.fixture.suite.GeneratedSuite::test01' names no analyzed test\n"
        )

    def test_clock_offset_key_error_comes_before_a_corrupt_trace(
        self, fixture_dir, tmp_path, capsys
    ):
        _corrupt_trace(fixture_dir / "1.0")
        config = tmp_path / "cfg.ini"
        config.write_text("[power_clock_offset_us]\ncom.fixture.suite.GeneratedSuite::test01 = 5\n")
        argv = ["evolve", str(fixture_dir), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [power_clock_offset_us] key "
            "'com.fixture.suite.GeneratedSuite::test01' names no analyzed test\n"
        )

    def test_layout_error_in_a_later_revision_comes_before_a_corrupt_trace(
        self, fixture_dir, tmp_path, capsys
    ):
        _corrupt_trace(fixture_dir / "1.0")
        victim = next((fixture_dir / "1.1" / "power").iterdir())
        victim.unlink()
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fixture_dir / '1.1'}: trace for ")
        assert "has no matching power file" in err

    def test_clock_offset_key_naming_a_test_of_one_revision_is_accepted(
        self, fixture_dir, tmp_path
    ):
        test_name = "com.fixture.suite.GeneratedSuite::test001"
        for path in (fixture_dir / "1.1").rglob(f"{test_name}.*"):
            path.unlink()
        config = tmp_path / "cfg.ini"
        config.write_text(f"[power_clock_offset_us]\n{test_name} = -5.0\n")
        out = tmp_path / "o"
        argv = ["evolve", str(fixture_dir), "--out", str(out), "--config", str(config)]
        assert cli.main(argv) == 0
        payload = json.loads((out / "report.json").read_text())
        assert test_name not in payload["aligned_tests"]

    def test_quadrature_not_converging_exits_5(self, fixture_dir, tmp_path, monkeypatch, capsys):
        def diverging_tukey_hsd(groups, anova_result, alpha, labels):
            raise stats.ConvergenceError(
                "studentized range quadrature did not stabilize for q=40.0, k=30, df=1", 6
            )

        monkeypatch.setattr(evolution, "tukey_hsd", diverging_tukey_hsd)
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: studentized range quadrature did not stabilize")
        assert "Traceback" not in err

    def test_jobs_flag_is_unknown_exits_2(self, fixture_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", str(fixture_dir), "--jobs", "2", "--out", str(fixture_dir / "o")])
        assert exc.value.code == 2

    def test_statistical_degeneracy_exits_5(self, tmp_path):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(
            SPEC_TEXT.replace("tests = 3", "tests = 1").replace(
                "samples_per_test = 2", "samples_per_test = 1"
            )
        )
        root = tmp_path / "fx"
        assert cli.main(["synth", str(spec_file), str(root)]) == 0
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "o")]) == 5


def _on_cpus(monkeypatch, cpus: "int | None") -> list[int]:
    """Let the CLI see ``cpus`` CPUs (None: no sched_getaffinity at all),
    with input of any size paying for one process per CPU, and return the
    list that each fork appends its child's pid to."""
    monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", 1)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        show_cpus(monkeypatch, set(range(cpus)))
    return _counted_forks(monkeypatch)


def _on_real_cpus(monkeypatch) -> tuple[list[int], list[int]]:
    """Let input of any size pay for one process per CPU of this process's
    real mask, which must hold at least 2.  Returns that mask's CPUs in
    order, and the list of pids forked, as _on_cpus does."""
    cpus = sorted(real_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("the affinity mask holds one CPU")
    monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", 1)
    return cpus, _counted_forks(monkeypatch)


def _counted_forks(monkeypatch) -> list[int]:
    """The list that each fork appends its child's pid to."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _output_tree(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _chunks(target: Path, n: int) -> list[list]:
    """The ``n`` chunks the executions under ``target``, a revision or a
    root of revisions, are cut into."""
    revisions = [target] if (target / "traces").is_dir() else sorted(
        d for d in target.iterdir() if d.is_dir()
    )
    executions = [e for rev in revisions for e in ingest.scan_revision_dir(rev)]
    return [executions[len(executions) * i // n : len(executions) * (i + 1) // n] for i in range(n)]


def _rerun_note(chunk: list, why: str) -> str:
    return (
        f"note: the parent analyzed {len(chunk)} executions from {chunk[0][2]} "
        f"in a child's place: {why}\n"
    )


def _input_bytes(target: Path) -> int:
    """The bytes of the traces and power files under ``target``."""
    return sum(f.stat().st_size for f in target.rglob("*") if f.suffix in (".trace", ".power"))


def _paying_for(monkeypatch, target: Path, processes: int) -> list[int]:
    """Show 3 CPUs and set the cost of a process so that the input under
    ``target``, at least one cost, pays for ``processes`` of them, 1 or 2.
    Returns the pids forked, as _on_cpus does."""
    forks = _on_cpus(monkeypatch, 3)
    size = _input_bytes(target)
    cost = size * 2 // 3 if processes == 1 else size // 3
    monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", cost)
    return forks


@pytest.fixture
def keeps_the_real_mask():
    """Whatever a test shows or breaks, each fan-out puts back the real
    affinity mask it pinned this process from."""
    before = real_getaffinity(0)
    yield
    after = real_getaffinity(0)
    real_setaffinity(0, before)  # so that one failure narrows no later test
    assert after == before


@pytest.mark.usefixtures("keeps_the_real_mask")
class TestFanOut:
    """analyze and evolve fan their executions out over the CPUs the
    process may run on (never more than 3 here) and must write the bytes,
    exit codes and error lines of a run on one CPU."""

    @staticmethod
    def target(fixture_dir: Path, command: str) -> Path:
        return fixture_dir / "1.0" if command == "analyze" else fixture_dir

    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_outputs_match_one_cpu_byte_for_byte(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command
    ):
        executions = 6 if command == "analyze" else 12
        analyze_execution = ingest.analyze_execution
        in_this_process = []  # a child's calls land in its own copy

        def counted(*args):
            in_this_process.append(args[:2])
            return analyze_execution(*args)

        monkeypatch.setattr(ingest, "analyze_execution", counted)
        trees = {}
        for cpus in (None, 1, 2, 3):
            forks = _on_cpus(monkeypatch, cpus)
            in_this_process.clear()
            out = tmp_path / f"out-{cpus}"
            assert cli.main([command, str(self.target(fixture_dir, command)), "--out", str(out)]) == 0
            _assert_no_child_left()
            assert len(forks) == (cpus or 1) - 1
            # the parent ran chunk 0 alone and took the rest from the children
            assert len(in_this_process) == executions // (cpus or 1)
            assert capsys.readouterr().err == ""  # no chunk was run again
            trees[cpus] = _output_tree(out)
        assert trees[1]
        assert trees[None] == trees[1] == trees[2] == trees[3]

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("command", ["analyze"])  # evolve: TestSetUpBesideChildren
    def test_the_parent_keeps_chunk_0_with_cpus_to_spare(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command, processes
    ):
        """Input that pays for fewer processes than there are CPUs still
        has its first chunk analyzed in analyze's parent, which has no
        set-up to run beside its children: one process forks no child."""
        target = self.target(fixture_dir, command)
        _on_cpus(monkeypatch, 1)
        assert cli.main([command, str(target), "--out", str(tmp_path / "one")]) == 0
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution
        in_this_process = []

        def counted(*args):
            if os.getpid() == parent:
                in_this_process.append(args[:2])
            return analyze_execution(*args)

        monkeypatch.setattr(ingest, "analyze_execution", counted)
        forks = _paying_for(monkeypatch, target, processes)
        assert cli.main([command, str(target), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert len(forks) == processes - 1
        assert in_this_process == [e[:2] for e in _chunks(target, processes)[0]]
        assert _output_tree(tmp_path / "out") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_children_work_while_sigchld_is_ignored(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command
    ):
        """An ignored SIGCHLD survives exec, and the kernel then reaps the
        children itself: waitpid finds none and loses their status."""
        _on_cpus(monkeypatch, 1)
        target = str(self.target(fixture_dir, command))
        assert cli.main([command, target, "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert cli.main([command, target, "--out", str(tmp_path / "three")]) == 0
            assert len(forks) == 2
            _assert_no_child_left()
            victim = _corrupt_trace(fixture_dir / "1.0")
            assert cli.main([command, target, "--out", str(tmp_path / "bad")]) == 3
            _assert_no_child_left()
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert _output_tree(tmp_path / "three") == _output_tree(tmp_path / "one")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: line 3: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    @pytest.mark.parametrize("where", ["first", "last", "both"])
    def test_a_corrupt_trace_fails_as_on_one_cpu(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command, where
    ):
        revisions = sorted(p for p in fixture_dir.iterdir() if p.is_dir())
        if command == "analyze":
            revisions = revisions[:1]
        if where != "last":
            first = _corrupt_trace(revisions[0], 0)
        if where != "first":
            last = _corrupt_trace(revisions[-1])
        victim = last if where == "last" else first
        target = self.target(fixture_dir, command)
        outcomes = set()
        for cpus, processes in ((1, 1), (2, 2), (3, 3), (3, 1), (3, 2)):
            _on_cpus(monkeypatch, cpus)
            if processes < cpus:  # fewer processes than CPUs
                _paying_for(monkeypatch, target, processes)
            out = tmp_path / f"out-{cpus}-{processes}"
            code = cli.main([command, str(target), "--out", str(out)])
            _assert_no_child_left()
            outcomes.add((code, capsys.readouterr().err))
        [(code, err)] = outcomes
        assert code == 3
        assert err.startswith(f"error: {victim}: line 3: ") and err.count("\n") == 1

    @pytest.mark.parametrize("death", ["exits-0", "killed", "raises", "fork-fails"])
    def test_a_chunk_no_child_sent_is_run_by_the_parent(
        self, fixture_dir, tmp_path, monkeypatch, capsys, death
    ):
        _on_cpus(monkeypatch, 1)
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution

        def dying(*args):
            if os.getpid() != parent:
                if death == "exits-0":
                    os._exit(0)
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("a child's own failure")
            return analyze_execution(*args)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(ingest, "analyze_execution", dying)
        if death == "fork-fails":
            monkeypatch.setattr(os, "fork", no_fork)
        capsys.readouterr()
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "three")]) == 0
        _assert_no_child_left()
        assert len(forks) == (0 if death == "fork-fails" else 2)
        assert _output_tree(tmp_path / "three") == _output_tree(tmp_path / "one")
        why = {
            "exits-0": "the child exited with status 0",
            "killed": f"the child was killed by signal {int(signal.SIGKILL)}",
            "raises": "the child exited with status 1",
            "fork-fails": "no child started: [Errno 11] Resource temporarily unavailable",
        }[death]
        assert capsys.readouterr().err == "".join(
            _rerun_note(chunk, why) for chunk in _chunks(fixture_dir, 3)[1:]
        )

    @pytest.mark.parametrize("failing", [1, 2])
    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_a_pipe_that_cannot_be_made_leaves_the_rest_to_the_parent(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command, failing
    ):
        """os.pipe fails as os.fork does when the process is out of files:
        the chunks from there on run in the parent."""
        target = self.target(fixture_dir, command)
        _on_cpus(monkeypatch, 1)
        assert cli.main([command, str(target), "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        real_pipe = os.pipe
        made = []

        def pipe():  # the ``failing``-th call fails, and every one after it
            if len(made) + 1 >= failing:
                raise OSError(24, "Too many open files")
            made.append(real_pipe())
            return made[-1]

        monkeypatch.setattr(os, "pipe", pipe)
        capsys.readouterr()
        assert cli.main([command, str(target), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert len(forks) == failing - 1
        assert _output_tree(tmp_path / "out") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == "".join(
            _rerun_note(chunk, "no child started: [Errno 24] Too many open files")
            for chunk in _chunks(target, 3)[failing:]
        )

    @pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN])
    @pytest.mark.parametrize("error", ["corrupt-trace", "interrupt"])
    def test_children_still_running_are_killed_when_the_parent_raises(
        self, fixture_dir, tmp_path, monkeypatch, capsys, error, sigchld
    ):
        previous = signal.signal(signal.SIGCHLD, sigchld)
        try:
            self.check_children_killed(fixture_dir, tmp_path, monkeypatch, capsys, error)
        finally:
            signal.signal(signal.SIGCHLD, previous)

    @staticmethod
    def check_children_killed(fixture_dir, tmp_path, monkeypatch, capsys, error):
        forks = _on_cpus(monkeypatch, 3)
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution

        def stuck_in_children(*args):
            if os.getpid() != parent:  # killed, or the run takes two minutes
                time.sleep(120)
                os._exit(1)
            if error == "interrupt":
                raise KeyboardInterrupt
            return analyze_execution(*args)

        monkeypatch.setattr(ingest, "analyze_execution", stuck_in_children)
        _corrupt_trace(fixture_dir / "1.0", 0)
        argv = ["evolve", str(fixture_dir), "--out", str(tmp_path / "out")]
        started = time.monotonic()
        if error == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == 3
            assert capsys.readouterr().err.startswith("error: ")
        assert time.monotonic() - started < 60
        _assert_no_child_left()
        assert len(forks) == 2


    def test_results_larger_than_a_pipe_holds_arrive_whole(self, fixture_dir, tmp_path, monkeypatch):
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution
        in_this_process = []
        padding = "x" * (1 << 20)

        def padded(*args):  # each execution's methods.csv text overfills a pipe
            if os.getpid() == parent:
                in_this_process.append(args[:2])
            record, rows = analyze_execution(*args)
            return record, rows + [(padding,)]

        def too_slow(signum, frame):
            raise TimeoutError("the parent and a child wait on each other")

        monkeypatch.setattr(ingest, "analyze_execution", padded)
        target = str(fixture_dir / "1.0")
        _on_cpus(monkeypatch, 1)
        assert cli.main(["analyze", target, "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        in_this_process.clear()
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            assert cli.main(["analyze", target, "--out", str(tmp_path / "three")]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        _assert_no_child_left()
        assert len(forks) == 2
        assert len(in_this_process) == 2  # chunk 0 only: no chunk was run again
        assert _output_tree(tmp_path / "three") == _output_tree(tmp_path / "one")
        assert (tmp_path / "three" / "methods.csv").read_text().count(padding) == 6

    def test_a_parent_error_after_the_children_are_gone_keeps_its_line(
        self, fixture_dir, tmp_path, monkeypatch, capsys
    ):
        """With SIGCHLD ignored, a child that finished is gone before the
        parent's error path kills it; the parent's error still wins."""
        forks = _on_cpus(monkeypatch, 3)
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution

        def gone(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            return False

        def after_the_children(*args):
            deadline = time.monotonic() + 30
            while os.getpid() == parent and not all(map(gone, forks)):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            return analyze_execution(*args)

        monkeypatch.setattr(ingest, "analyze_execution", after_the_children)
        victim = _corrupt_trace(fixture_dir / "1.0", 0)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "out")]) == 3
        finally:
            signal.signal(signal.SIGCHLD, previous)
        _assert_no_child_left()
        assert len(forks) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: line 3: ") and err.count("\n") == 1

    @pytest.mark.parametrize("death", [None, "killed"])
    def test_each_chunk_runs_on_its_own_cpu(self, fixture_dir, monkeypatch, capsys, death):
        """Chunk i runs on the i-th CPU of the mask, chunk 0 in the parent;
        a chunk the parent runs again for a child runs on every CPU."""
        cpus, forks = _on_real_cpus(monkeypatch)
        [executions] = _chunks(fixture_dir, 1)
        n = ingest._process_count(executions)
        parent = os.getpid()
        analyze_chunk = ingest._analyze_chunk

        def reporting(*args):
            if death and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            records, text = analyze_chunk(*args)
            return records, text + f"{sorted(os.sched_getaffinity(0))}\n"

        monkeypatch.setattr(ingest, "_analyze_chunk", reporting)
        _, text = ingest._analyze_executions(executions, AnalysisConfig(), False)
        _assert_no_child_left()
        assert len(forks) == n - 1 >= 1
        assert text.splitlines() == [str([cpus[0]])] + [
            str(cpus if death else [cpu]) for cpu in cpus[1:n]
        ]
        assert os.sched_getaffinity(0) == set(cpus)
        why = f"the child was killed by signal {int(signal.SIGKILL)}"
        assert capsys.readouterr().err == "".join(
            _rerun_note(chunk, why) for chunk in _chunks(fixture_dir, n)[1:] if death
        )

    @pytest.mark.parametrize(
        "outcome", ["exit-0", "corrupt-first", "corrupt-last", "interrupt", "child-killed"]
    )
    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_the_real_mask_is_put_back(
        self, fixture_dir, tmp_path, monkeypatch, command, outcome
    ):
        cpus, forks = _on_real_cpus(monkeypatch)
        target = self.target(fixture_dir, command)
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution

        def failing(*args):
            if os.getpid() == parent and outcome == "interrupt":
                raise KeyboardInterrupt
            if os.getpid() != parent and outcome == "child-killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return analyze_execution(*args)

        monkeypatch.setattr(ingest, "analyze_execution", failing)
        if outcome == "corrupt-first":
            _corrupt_trace(fixture_dir / "1.0", 0)
        if outcome == "corrupt-last":
            _corrupt_trace(target if command == "analyze" else fixture_dir / "1.1")
        argv = [command, str(target), "--out", str(tmp_path / "out")]
        if outcome == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == (3 if outcome.startswith("corrupt") else 0)
        _assert_no_child_left()
        assert forks
        assert os.sched_getaffinity(0) == set(cpus)

    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_a_pin_the_kernel_refuses_changes_nothing(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command
    ):
        target = str(self.target(fixture_dir, command))
        _on_cpus(monkeypatch, 1)
        assert cli.main([command, target, "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        parent = os.getpid()
        asked = []

        def refused(pid, cpus):
            if os.getpid() == parent:
                asked.append(set(cpus))
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refused)
        assert cli.main([command, target, "--out", str(tmp_path / "three")]) == 0
        _assert_no_child_left()
        assert len(forks) == 2
        assert asked == [{0}, {0, 1, 2}]  # its pin, then the whole mask back
        assert _output_tree(tmp_path / "three") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == ""

    def test_an_interrupt_in_a_childs_pin_ends_only_that_child(
        self, fixture_dir, tmp_path, monkeypatch, capsys
    ):
        """The child pins itself inside the try that ends it, so nothing
        raised there unwinds into the parent's frames in the child."""
        _on_cpus(monkeypatch, 1)
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "one")]) == 0
        forks = _on_cpus(monkeypatch, 3)
        parent = os.getpid()
        setaffinity = os.sched_setaffinity

        def interrupted(pid, cpus):
            if os.getpid() != parent:
                raise KeyboardInterrupt
            setaffinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", interrupted)
        capsys.readouterr()
        try:
            code = cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "three")])
        finally:
            if os.getpid() != parent:  # a child unwound into this frame
                os._exit(99)
        assert code == 0
        _assert_no_child_left()
        assert len(forks) == 2
        assert _output_tree(tmp_path / "three") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == "".join(
            _rerun_note(chunk, "the child exited with status 1")
            for chunk in _chunks(fixture_dir, 3)[1:]
        )

    @pytest.mark.parametrize("case", ["no-affinity", "one-cpu", "one-process", "traced"])
    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_one_process_pins_nothing(
        self, fixture_dir, tmp_path, monkeypatch, command, case
    ):
        target = self.target(fixture_dir, command)
        forks = _on_cpus(monkeypatch, {"no-affinity": None, "one-cpu": 1}.get(case, 3))
        if case == "one-process":
            _paying_for(monkeypatch, target, 1)
        if case == "one-process" and command == "evolve":  # from one cost, a child sets up
            monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", _input_bytes(target) + 1)
        if case == "traced":
            parse_trace = ingest.parse_trace
            monkeypatch.setattr(ingest, "parse_trace", lambda data: parse_trace(data))
        pinned = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda *args: pinned.append(args))
        assert cli.main([command, str(target), "--out", str(tmp_path / "out")]) == 0
        assert forks == pinned == []


@pytest.mark.usefixtures("keeps_the_real_mask")
class TestSetUpBesideChildren:
    """Where evolve's input pays for a fork and its fan-out leaves a CPU
    idle, children analyze every chunk while the parent loads the
    statistics and builds their Tukey table on that CPU; outputs, exit
    codes and error lines stay those of a run on one CPU."""

    @pytest.fixture
    def root(self, fixture_dir):
        """The fixture with a third revision, a copy of the second, so
        that evolve's Tukey families read the range CDF table (k >= 3)."""
        shutil.copytree(fixture_dir / "1.1", fixture_dir / "1.2")
        return fixture_dir

    @staticmethod
    def spy(monkeypatch) -> list:
        """Log, in this process only, each pin asked for, each set-up with
        its k and the table pieces it built, each compare call and each
        execution analyzed here rather than in a child.  The table starts
        cold."""
        calls, built = [], []
        parent = os.getpid()
        setaffinity, prepare, compare, analyze_execution, build_piece = (
            os.sched_setaffinity, cli._prepare_compare, evolution.compare,
            ingest.analyze_execution, stats._range_cdf_piece,
        )

        def pinned(pid, cpus):
            if os.getpid() == parent:
                calls.append(("pin", set(cpus)))
            setaffinity(pid, cpus)

        def prepared(k):
            before = len(built)
            prepare(k)
            calls.append(("setup", k, len(built) - before))

        def analyzed(*args):
            if os.getpid() == parent:
                calls.append(("analyze",))
            return analyze_execution(*args)

        monkeypatch.setattr(os, "sched_setaffinity", pinned)
        monkeypatch.setattr(cli, "_prepare_compare", prepared)
        monkeypatch.setattr(
            evolution, "compare", lambda *args: calls.append(("compare",)) or compare(*args)
        )
        monkeypatch.setattr(ingest, "analyze_execution", analyzed)
        monkeypatch.setattr(
            stats, "_range_cdf_piece", lambda *args: built.append(args[1]) or build_piece(*args)
        )
        stats._range_cdf_table.cache_clear()
        return calls

    @staticmethod
    def one_cpu_run(monkeypatch, root: Path, out: Path) -> int:
        """evolve's exit code on one CPU, its outputs under ``out``."""
        _on_cpus(monkeypatch, 1)
        return cli.main(["evolve", str(root), "--out", str(out)])

    @pytest.mark.parametrize("processes", [1, 2])
    def test_children_analyze_every_chunk_while_the_parent_sets_up(
        self, root, tmp_path, monkeypatch, capsys, processes
    ):
        """Child i takes chunk i; the parent pins itself to the first CPU
        no child has, CPU ``processes`` of 0..2, sets up there, puts its
        mask back, and compares with every piece of the table built."""
        assert self.one_cpu_run(monkeypatch, root, tmp_path / "one") == 0
        forks = _paying_for(monkeypatch, root, processes)
        calls = self.spy(monkeypatch)
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert len(forks) == processes
        assert calls == [
            ("pin", {processes}), ("setup", 3, stats._CHEB_PIECES), ("pin", {0, 1, 2}),
            ("compare",),
        ]
        assert _output_tree(tmp_path / "out") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == ""

    def test_the_set_up_and_every_chunk_run_on_cpus_of_their_own(self, root, monkeypatch):
        """On this process's real mask, with input that pays for one
        process fewer than its CPUs: chunk i runs in a child on the i-th
        CPU, and the set-up in the parent on the n-th."""
        cpus, forks = _on_real_cpus(monkeypatch)
        [executions] = _chunks(root, 1)
        most = min(len(cpus), len(executions))
        size = sum(os.stat(path).st_size for e in executions for path in e[2:])
        monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", size // (most * (most - 1)) + 1)
        n = ingest._process_count(executions)
        parent = os.getpid()
        analyze_chunk = ingest._analyze_chunk

        def reporting(*args):
            records, text = analyze_chunk(*args)
            return records, text + f"{os.getpid() != parent} {sorted(os.sched_getaffinity(0))}\n"

        monkeypatch.setattr(ingest, "_analyze_chunk", reporting)
        set_up_on = []
        _, text = ingest._analyze_executions(
            executions, AnalysisConfig(), False,
            lambda: set_up_on.append(sorted(os.sched_getaffinity(0))),
        )
        _assert_no_child_left()
        assert n == most - 1 and len(forks) == n
        assert text.splitlines() == [f"True {[cpu]}" for cpu in cpus[:n]]
        assert set_up_on == [[cpus[n]]]
        assert os.sched_getaffinity(0) == set(cpus)

    @pytest.mark.parametrize("case", ["under-one-cost", "traced", "n-equals-the-cpus"])
    def test_the_parent_keeps_chunk_0_where_no_cpu_idles_or_no_fork_pays(
        self, root, tmp_path, monkeypatch, case
    ):
        """No set-up beside the children: the parent analyzes chunk 0 as
        analyze does, and compare builds the table's pieces on first read."""
        assert self.one_cpu_run(monkeypatch, root, tmp_path / "one") == 0
        forks = _on_cpus(monkeypatch, 3)  # input of any size pays for 3 processes
        if case != "n-equals-the-cpus":
            _paying_for(monkeypatch, root, 1)  # 1.5 costs: a CPU would idle
        if case == "under-one-cost":
            monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", _input_bytes(root) + 1)
        if case == "traced":  # a spy that sees only this process's calls
            parse_trace = ingest.parse_trace
            monkeypatch.setattr(ingest, "parse_trace", lambda data: parse_trace(data))
        calls = self.spy(monkeypatch)
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        n = 3 if case == "n-equals-the-cpus" else 1
        assert len(forks) == n - 1
        analyzed = [("analyze",)] * len(_chunks(root, n)[0])
        if n > 1:
            analyzed = [("pin", {0}), *analyzed, ("pin", {0, 1, 2})]
        assert calls == analyzed + [("compare",)]
        assert _output_tree(tmp_path / "out") == _output_tree(tmp_path / "one")

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_corrupt_trace_in_chunk_0_fails_as_on_one_cpu(
        self, root, tmp_path, monkeypatch, capsys, processes
    ):
        """The child of chunk 0 sends nothing; the parent sets up, reaps
        every child and runs chunk 0 again, which raises the first error in
        scan order with its sequential line."""
        victim = _corrupt_trace(root / "1.0", 0)
        assert self.one_cpu_run(monkeypatch, root, tmp_path / "one") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: line 3: ") and err.count("\n") == 1
        forks = _paying_for(monkeypatch, root, processes)
        calls = self.spy(monkeypatch)
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "out")]) == 3
        _assert_no_child_left()
        assert len(forks) == processes
        assert capsys.readouterr().err == err
        assert calls == [
            ("pin", {processes}), ("setup", 3, stats._CHEB_PIECES), ("pin", {0, 1, 2}),
            ("analyze",),
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_interrupt_in_the_set_up_kills_every_child_and_restores_the_mask(
        self, root, tmp_path, monkeypatch, processes
    ):
        forks = _paying_for(monkeypatch, root, processes)
        calls = self.spy(monkeypatch)
        parent = os.getpid()
        analyze_execution = ingest.analyze_execution

        def stuck_in_children(*args):
            if os.getpid() != parent:  # killed, or the run takes two minutes
                time.sleep(120)
                os._exit(1)
            return analyze_execution(*args)

        def interrupted(k):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "analyze_execution", stuck_in_children)
        monkeypatch.setattr(cli, "_prepare_compare", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["evolve", str(root), "--out", str(tmp_path / "out")])
        assert time.monotonic() - started < 60
        _assert_no_child_left()
        assert len(forks) == processes
        assert calls == [("pin", {processes}), ("pin", {0, 1, 2})]
        assert not (tmp_path / "out").exists()

    def test_every_fork_failing_gives_the_outputs_of_one_cpu(
        self, root, tmp_path, monkeypatch, capsys
    ):
        assert self.one_cpu_run(monkeypatch, root, tmp_path / "one") == 0
        _paying_for(monkeypatch, root, 1)
        calls = self.spy(monkeypatch)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        capsys.readouterr()
        assert cli.main(["evolve", str(root), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        [chunk] = _chunks(root, 1)
        assert calls == [
            ("pin", {1}), ("setup", 3, stats._CHEB_PIECES), ("pin", {0, 1, 2}),
            *[("analyze",)] * len(chunk), ("compare",),
        ]
        assert _output_tree(tmp_path / "out") == _output_tree(tmp_path / "one")
        assert capsys.readouterr().err == _rerun_note(
            chunk, "no child started: [Errno 11] Resource temporarily unavailable"
        )

    def test_evolve_over_two_revisions_builds_no_table(self, fixture_dir, tmp_path, monkeypatch):
        """Two groups take the exact t formula, so the set-up builds no
        piece and compare reads none."""
        forks = _paying_for(monkeypatch, fixture_dir, 1)
        calls = self.spy(monkeypatch)
        assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert len(forks) == 1
        assert calls == [("pin", {1}), ("setup", 2, 0), ("pin", {0, 1, 2}), ("compare",)]
        assert stats._range_cdf_table.cache_info().currsize == 0


class TestProcessCount:
    """How many processes share a command's executions."""

    @staticmethod
    def executions(fixture_dir: Path) -> list:
        return [e for rev in ("1.0", "1.1") for e in ingest.scan_revision_dir(fixture_dir / rev)]

    @staticmethod
    def size(executions: list) -> int:
        return sum(os.stat(t).st_size + os.stat(p).st_size for _, _, t, p in executions)

    @pytest.mark.parametrize(
        "cpus, costs_in_input, expected",
        [
            (3, 1, 1),  # input the size of one process's cost: no fork
            (3, 2, 2),  # 2 processes pay off from 2 costs
            (3, 6, 3),  # 3 from 6
            (8, 6, 3),  # ... and a 4th only from 12, however many CPUs
            (8, 12, 4),
            (2, 1000, 2),  # never more than the CPUs
        ],
    )
    def test_processes_grow_with_the_input_not_just_the_cpus(
        self, fixture_dir, monkeypatch, cpus, costs_in_input, expected
    ):
        executions = self.executions(fixture_dir)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(
            ingest, "_PROCESS_COST_BYTES", self.size(executions) // costs_in_input
        )
        assert ingest._process_count(executions) == expected

    def test_the_real_cost_forks_nothing_for_a_small_input(self, fixture_dir, monkeypatch):
        executions = self.executions(fixture_dir)
        assert self.size(executions) < ingest._PROCESS_COST_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert ingest._process_count(executions) == 1  # not even one child

    def test_never_more_than_one_per_execution(self, fixture_dir, monkeypatch):
        executions = self.executions(fixture_dir)[:2]
        _on_cpus(monkeypatch, 3)
        assert ingest._process_count(executions) == 2

    def test_files_are_sized_only_until_every_cpu_is_paid_for(self, fixture_dir, monkeypatch):
        executions = self.executions(fixture_dir)
        _on_cpus(monkeypatch, 2)  # 1 byte pays for a process: the first file pays for both
        sized = []
        real_stat = os.stat

        def counted_stat(path, *args, **kwargs):
            sized.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counted_stat)
        assert ingest._process_count(executions) == 2
        assert sized == list(executions[0][2:])

    def test_a_file_gone_before_sizing_is_left_to_the_analysis(self, fixture_dir, monkeypatch):
        executions = self.executions(fixture_dir)
        _on_cpus(monkeypatch, 2)
        executions[0] = executions[0][:2] + (str(fixture_dir / "gone"), str(fixture_dir / "gone"))
        assert ingest._process_count(executions) == 2

    @pytest.mark.parametrize("layer", ["parse_trace", "attribute", "integrate", "uapi"])
    def test_a_replaced_layer_function_keeps_every_execution_here(
        self, fixture_dir, monkeypatch, layer
    ):
        """A spy or a tracer's wrapper counts only the calls made in its
        own process."""
        executions = self.executions(fixture_dir)
        _on_cpus(monkeypatch, 3)
        assert ingest._process_count(executions) == 3
        monkeypatch.setattr(ingest, "_PROCESS_COST_BYTES", self.size(executions) // 2)
        assert ingest._process_count(executions) == 2
        original = getattr(ingest, layer)
        monkeypatch.setattr(ingest, layer, lambda *args: original(*args))
        assert ingest._process_count(executions) == 1


def test_a_traced_run_counts_the_work_of_a_run_on_one_cpu(fixture_dir, tmp_path, monkeypatch):
    """The benchmark's tracer wraps the layer functions in this process;
    a fan-out would hide every child's calls from it."""
    root = Path(__file__).resolve().parents[1]  # bench/ sits beside src/
    monkeypatch.syspath_prepend(str(root))
    from bench import tracer

    metrics = {}
    for cpus in (1, 3):
        forks = _on_cpus(monkeypatch, cpus)
        recorder = tracer.Recorder(str(cpus))
        recorder.install()
        try:
            assert cli.main(["evolve", str(fixture_dir), "--out", str(tmp_path / f"e{cpus}")]) == 0
            assert cli.main(
                ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / f"a{cpus}")]
            ) == 0
        finally:
            recorder.uninstall()
        assert forks == []
        metrics[cpus] = tracer.layer_metrics(recorder.to_json())
    counts = [name for name, (_, unit) in metrics[1].items() if unit == "count"]
    assert {name: metrics[3][name] for name in counts} == {
        name: metrics[1][name] for name in counts
    }
    assert metrics[1]["trace.events"][0] > 0


class TestReportCommand:
    def test_missing_inputs_exit_2(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 2

    def test_corrupt_report_exits_3(self, tmp_path):
        (tmp_path / "report.json").write_text("{not json")
        assert cli.main(["report", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "nested-too-deeply"],
    )
    def test_undecodable_report_exits_3_naming_the_file(self, tmp_path, capsys, data):
        report = tmp_path / "report.json"
        report.write_bytes(data)
        assert cli.main(["report", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt report file {report}: ")
        assert "Traceback" not in err

    def test_regenerates_summaries_and_text(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["evolve", str(fixture_dir), "--out", str(out)]) == 0
        csv_before = (out / "revision_summaries.csv").read_bytes()
        assert cli.main(["report", str(out)]) == 0
        assert (out / "revision_summaries.csv").read_bytes() == csv_before
        assert (out / "summary.txt").exists()
        assert "revisions: 2" in capsys.readouterr().out

    def test_single_revision_report_notes_no_comparisons(self, tmp_path, capsys):
        payload = _single_revision_payload()
        (tmp_path / "report.json").write_text(json.dumps(payload))
        assert cli.main(["report", str(tmp_path)]) == 0
        rows = _read_csv(tmp_path / "revision_summaries.csv")
        assert len(rows) == 1
        assert "no comparisons" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: [p],
            lambda p: "report",
            lambda p: 3,
            lambda p: {k: v for k, v in p.items() if k != "alpha"},
            lambda p: {**p, "bogus": 1},
            lambda p: {**p, "summaries": {"1.0": p["summaries"][0]}},
            lambda p: {**p, "summaries": [{**p["summaries"][0], "extra": 0}]},
            lambda p: {**p, "alpha": "0.05"},
            lambda p: {**p, "alpha": "inf"},
            lambda p: {**p, "n_observations": None},
            lambda p: {**p, "n_observations": True},
            lambda p: {**p, "n_observations": 4.0},
            lambda p: {**p, "revisions": [1.0]},
            lambda p: _with_energy_metric(p, anova={"F": "x"}),
            lambda p: _with_energy_metric(p, anova={"degenerate": 0}),
            lambda p: _with_energy_metric(p, pair={"significant": None}),
            lambda p: _with_energy_metric(p, pair={"p_adj": "inf"}),
            lambda p: _with_energy_metric(p, proxy={"tp": None}),
        ],
        ids=["list", "string", "number", "missing-key", "extra-key",
             "object-for-array", "extra-nested-key", "string-for-float",
             "inf-outside-F-and-q", "null-for-int", "bool-for-int",
             "float-for-int", "number-for-string", "string-for-F",
             "int-for-bool", "null-for-bool", "inf-for-p_adj",
             "null-outside-optional"],
    )
    def test_malformed_payload_exits_3(self, tmp_path, capsys, mangle):
        (tmp_path / "report.json").write_text(json.dumps(mangle(_single_revision_payload())))
        assert cli.main(["report", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt report file ")
        assert "Traceback" not in err


    def test_well_typed_payload_is_accepted(self, tmp_path, capsys):
        payload = _with_energy_metric(
            _single_revision_payload(), anova={"F": "inf"}, pair={"q": "inf"},
            proxy={"precision": None},
        )
        (tmp_path / "report.json").write_text(json.dumps(payload))
        assert cli.main(["report", str(tmp_path)]) == 0
        assert "energy_mj" in capsys.readouterr().out

    def test_csv_cells_spell_inf_booleans_none_and_round_trip_floats(self, tmp_path):
        payload = _with_energy_metric(
            _single_revision_payload(), pair={"q": "inf"}, proxy={"precision": None},
        )
        pairs = payload["metrics"]["energy_mj"]["pairs"]
        pairs.append({**pairs[0], "mean_diff": 0.1 + 0.2, "q": 1e-05,
                      "p_adj": 1.5e+20, "significant": True})
        cli._write_report_files(evolution.report_from_json_dict(payload), tmp_path)
        assert (tmp_path / "pairwise_energy_mj.csv").read_text() == (
            "group_a,group_b,mean_diff,q,p_adj,significant\n"
            "1.0,1.1,0.5,inf,0.2,false\n"
            "1.0,1.1,0.30000000000000004,1e-05,1.5e+20,true\n"
        )
        assert (tmp_path / "proxy_scores.csv").read_text() == (
            "target,tp,fp,fn,tn,accuracy,precision,recall,f1\n"
            "energy_mj,0,0,0,1,1.0,,,\n"
        )


def _with_energy_metric(payload: dict, anova=(), pair=(), proxy=()) -> dict:
    """``payload`` with one energy_mj comparison and its proxy score, the
    given fields overriding the well-typed defaults."""
    return {
        **payload,
        "revisions": ["1.0", "1.1"],
        "metrics": {
            "energy_mj": {
                "anova": {"F": 2.5, "p": 0.2, "df_between": 1, "df_within": 6,
                          "ms_between": 1.0, "ms_within": 0.4, "degenerate": False,
                          **dict(anova)},
                "pairs": [{"group_a": "1.0", "group_b": "1.1", "mean_diff": 0.5,
                           "q": 2.2, "p_adj": 0.2, "significant": False,
                           **dict(pair)}],
            }
        },
        "proxy": {
            "energy_mj": {"tp": 0, "fp": 0, "fn": 0, "tn": 1, "accuracy": 1.0,
                          "precision": 0.5, "recall": None, "f1": None,
                          **dict(proxy)}
        },
    }


def _single_revision_payload() -> dict:
    return {
        "alpha": 0.05,
        "observation_unit": "per_sample",
        "revisions": ["1.0"],
        "aligned_tests": ["a.B::t"],
        "analysis_tests": ["a.B::t"],
        "excluded_tests": {"1.0": []},
        "n_observations": 4,
        "metrics": {},
        "proxy": {},
        "summaries": [
            {"revision": "1.0", "mean_energy_mj": 1.0,
             "mean_power_mw": 10.0, "sum_ruapi": 0.5}
        ],
    }


class TestFlagsPerCommand:
    """Each command takes only the flags it reads, and a TRACEWATT_*
    variable fills a flag only for the commands that take that flag."""

    @pytest.fixture
    def argv(self, fixture_dir, tmp_path):
        """A command line that exits 0, per command without --alpha."""
        report_dir = tmp_path / "evolve_out"
        report_dir.mkdir()
        (report_dir / "report.json").write_text(json.dumps(_single_revision_payload()))
        return {
            "synth": ["synth", str(tmp_path / "spec.ini"), str(tmp_path / "fx2")],
            "analyze": ["analyze", str(fixture_dir / "1.0"), "--out", str(tmp_path / "a")],
            "report": ["report", str(report_dir)],
        }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("synth", "--out", "other"),
            ("synth", "--config", "missing.ini"),
            ("synth", "--alpha", "0.5"),
            ("analyze", "--alpha", "0.5"),
            ("report", "--config", "missing.ini"),
            ("report", "--alpha", "0.5"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv[command], flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tracewatt {command} [-h]")
        assert err.endswith(f"tracewatt {command}: error: unrecognized arguments: {flag} {value}\n")
        assert cli.main(argv[command]) == 0

    @pytest.mark.parametrize("command", ["synth", "analyze", "report"])
    def test_malformed_alpha_variable_is_not_read_without_alpha(
        self, argv, monkeypatch, command
    ):
        monkeypatch.setenv("TRACEWATT_ALPHA", "lots")
        assert cli.main(argv[command]) == 0

    def test_out_variable_fills_only_the_out_flag(self, argv, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("TRACEWATT_OUT", str(env_out))
        assert cli.main(argv["report"]) == 0
        assert cli.main(argv["synth"]) == 0
        assert sorted(p.name for p in env_out.iterdir()) == [
            "revision_summaries.csv", "summary.txt",
        ]
        assert (tmp_path / "fx2" / "manifest.json").is_file()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2



@pytest.mark.parametrize(
    "argv, built",
    [
        (["analyze", "-h"], ["analyze"]),
        (["evolve"], ["evolve"]),  # its root_dir is missing
        (["synth", "no-such-spec.ini", "out"], ["synth"]),
        (["report", "no-such-dir", "--bogus"], ["report"]),
        (["evolve", "root", "--alpha", "x"], ["evolve"]),
        ([], list(cli._COMMANDS)),
        (["-h"], list(cli._COMMANDS)),
        (["-h", "analyze"], list(cli._COMMANDS)),
        (["no-such-command"], list(cli._COMMANDS)),
    ],
)
def test_a_run_builds_only_its_commands_sub_parser(monkeypatch, capsys, argv, built):
    """Each sub-parser costs translation lookups of its help texts.  A
    run that names no command builds all four, and every run prints what
    it would print with all four built."""
    def outcome():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    one = outcome()
    assert names == built
    build_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build_parser([]))
    assert outcome() == one


def test_cli_import_leaves_the_generator_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, tracewatt.cli; print('tracewatt.synth' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"


def test_cli_import_leaves_the_costly_stdlib_modules_unloaded():
    """Every run pays for what the CLI imports: dataclasses (which loads
    inspect), statistics and configparser are off its import path."""
    src = Path(cli.__file__).resolve().parents[1]
    costly = ("dataclasses", "inspect", "statistics", "configparser")
    probe = f"import sys, tracewatt.cli; print([m for m in {costly!r} if m in sys.modules])"
    run = subprocess.run(  # -S: no site hook can load one first
        [sys.executable, "-S", "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


ONE_TRACE = "#trace v1;a.B::t;0\nE;1;0;a;B;t\nX;1;2000;a;B;t\n"
ONE_POWER = "#power v1;a.B::t;0;1000.0\n0.0;100.0\n10.0;100.0\n"


def _one_execution_revision(root: Path, trace: str = ONE_TRACE, power: str = ONE_POWER) -> Path:
    rev = root / "1.0"
    (rev / "traces").mkdir(parents=True)
    (rev / "power").mkdir()
    (rev / "traces" / "a.B::t.0.trace").write_text(trace)
    (rev / "power" / "a.B::t.0.power").write_text(power)
    return rev


def test_scan_reads_only_files_and_follows_symlinks_to_them(tmp_path):
    rev = _one_execution_revision(tmp_path)
    traces, power = rev / "traces", rev / "power" / "a.B::t.0.power"
    (traces / "x.0.trace").mkdir()
    (traces / "a.B::u.0.trace").symlink_to(tmp_path / "missing")
    (traces / "a.B::v.0.trace").symlink_to("a.B::v.0.trace")  # a loop
    target = tmp_path / "elsewhere"
    power.rename(target)
    power.symlink_to(target)
    assert ingest.scan_revision_dir(rev) == [
        ("a.B::t", 0, str(traces / "a.B::t.0.trace"), str(power))
    ]


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_file_that_cannot_be_read_is_named_as_open_names_it(tmp_path, kind):
    path = tmp_path / "a.B::t.0.trace"
    if kind == "directory":
        path.mkdir()
        text = f"[Errno 21] Is a directory: '{path}'"
    else:
        text = f"[Errno 2] No such file or directory: '{path}'"
    with pytest.raises(OSError) as opened:
        open(path, "rb")
    with pytest.raises(OSError) as read:
        ingest._read(str(path))
    assert type(read.value) is type(opened.value)
    assert str(read.value) == str(opened.value) == text


@pytest.mark.parametrize("size", [0, 1, 1 << 20, (5 << 19) + 3])
def test_a_file_is_read_whole_however_many_reads_it_takes(tmp_path, size):
    path = tmp_path / "f"
    data = bytes(range(256)) * (size // 256) + b"z" * (size % 256)
    path.write_bytes(data)
    assert ingest._read(str(path)) == data


# The benchmark's entry: main() returns, and the interpreter exits.
ENTRY = "import sys; from tracewatt.cli import main; sys.exit(main())"


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_a_fresh_process_writes_and_prints_all_that_main_does(
    fixture_dir, tmp_path, capsys, command
):
    """cli's exit hook freezes the heap, and the exit still writes every
    output byte and all of stdout."""
    target = str(TestFanOut.target(fixture_dir, command))
    out = tmp_path / "out"
    assert cli.main([command, target, "--out", str(out)]) == 0
    in_process = (_output_tree(out), capsys.readouterr().out)
    shutil.rmtree(out)
    run = subprocess.run(
        [sys.executable, "-c", ENTRY, command, target, "--out", str(out)],
        cwd=Path(cli.__file__).resolve().parents[1], capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert (_output_tree(out), run.stdout) == in_process
    assert in_process[0] and in_process[1].endswith(f"{out}\n")


def test_the_exit_leaves_cycles_to_the_os(tmp_path):
    """At exit, a reference cycle is neither collected nor finalized."""
    probe = (
        "import os, sys; from tracewatt.cli import main\n"
        f"code = main(['analyze', {str(_one_execution_revision(tmp_path))!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "class Cycle:\n"
        "    def __del__(self, write=os.write):\n"
        "        write(1, b'finalized')\n"
        "cycle = Cycle(); cycle.self = cycle; del cycle\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], cwd=Path(cli.__file__).resolve().parents[1],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.startswith("analyzed revision 1.0: 1 executions")
    assert "finalized" not in run.stdout


# What a fan-out over processes could pull in; the commands fork directly.
PROCESS_POOL_MODULES = ("pickle", "multiprocessing", "concurrent.futures", "subprocess")


def _modules_loaded_by(argv: list[str], modules: tuple[str, ...]) -> str:
    """Run the CLI in a fresh interpreter; its last stdout line is the exit
    code and which of ``modules`` it loaded."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys; from tracewatt.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, [m for m in {modules!r} if m in sys.modules])"
    )
    run = subprocess.run(  # -S: no site hook can load one first
        [sys.executable, "-S", "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    return run.stdout


# Kept only for the benchmark's tracer, which wraps a name there.
TRACER_HOOK_MODULE = "tracewatt.callgraph"


def test_analyze_leaves_the_statistics_and_json_unloaded(tmp_path):
    """analyze runs no comparison, so it imports neither the statistics
    nor the report writer, and no process-pool module either."""
    rev = _one_execution_revision(tmp_path)
    unused = (
        "tracewatt.stats", "tracewatt.evolution", "json", TRACER_HOOK_MODULE,
        *PROCESS_POOL_MODULES,
    )
    out = tmp_path / "out"
    assert _modules_loaded_by(["analyze", str(rev), "--out", str(out)], unused).endswith("\n0 []\n")
    assert (out / "methods.csv").is_file()


def test_evolve_leaves_the_process_pool_modules_unloaded(fixture_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["evolve", str(fixture_dir), "--out", str(out)]
    unused = (TRACER_HOOK_MODULE, *PROCESS_POOL_MODULES)
    assert _modules_loaded_by(argv, unused).endswith("\n0 []\n")
    assert (out / "report.json").is_file()


def test_synth_leaves_the_tracer_hook_module_unloaded(tmp_path):
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text(SPEC_TEXT)
    out = tmp_path / "fx"
    argv = ["synth", str(spec_file), str(out)]
    assert _modules_loaded_by(argv, (TRACER_HOOK_MODULE,)).endswith("\n0 []\n")
    assert (out / "manifest.json").is_file()


# id -> (trace body, power body, the message after "error: <power file>: "),
# each message as the per-stretch attribution wrote it
ATTRIBUTION_ERRORS = {
    "stretch-before-the-first-sample": (
        "E;1;0;a;B;t\nX;1;2000;a;B;t\n", "1.0;100.0\n10.0;100.0\n",
        "a.B::t: window [0.0, 2.0] outside sampled range [1.0, 10.0]",
    ),
    "first-stretch-past-the-last-sample": (
        "E;1;0;a;B;t\nE;1;2000;p;C;m\nX;1;4000;p;C;m\nE;1;6000;p;C;n\n"
        "X;1;15000;p;C;n\nX;1;20000;a;B;t\n",
        "0.0;100.0\n10.0;100.0\n",
        "p.C::n: window [6.0, 15.0] outside sampled range [0.0, 10.0]",
    ),
    "one-sample": (
        "E;1;0;a;B;t\nX;1;2000;a;B;t\n", "0.0;100.0\n",
        "a.B::t: need at least 2 power samples to integrate, got 1",
    ),
    "zero-length-root-beyond-the-samples": (
        "E;1;0;a;B;t\nX;1;2000;a;B;t\nE;1;50000;a;B;u\nX;1;50000;a;B;u\n",
        "0.0;100.0\n10.0;100.0\n",
        "window [0.0, 50.0] outside sampled range [0.0, 10.0]",
    ),
}


@pytest.mark.parametrize(
    "trace, power, message", ATTRIBUTION_ERRORS.values(), ids=ATTRIBUTION_ERRORS.keys()
)
def test_attribution_errors_keep_their_text(tmp_path, capsys, trace, power, message):
    rev = _one_execution_revision(
        tmp_path, "#trace v1;a.B::t;0\n" + trace, "#power v1;a.B::t;0;1000.0\n" + power
    )
    assert cli.main(["analyze", str(rev), "--out", str(tmp_path / "out")]) == 4
    power_path = rev / "power" / "a.B::t.0.power"
    assert capsys.readouterr().err == f"error: {power_path}: {message}\n"


# Each helper changes the one-execution revision ``rev`` and returns the
# command's arguments.
def _write(rev: Path, name: str, text: str) -> list[str]:
    (rev / name).write_text(text)
    return [str(rev)]


def _remove(rev: Path, name: str) -> list[str]:
    shutil.rmtree(rev / name)
    return [str(rev)]


def _mkdir(rev: Path, name: str) -> list[str]:
    (rev / name).mkdir()
    return [str(rev)]


def _config(rev: Path, text: str) -> list[str]:
    config = rev.parent / "cfg.ini"
    config.write_text(text)
    return [str(rev), "--config", str(config)]


def _one_test_row(out: Path) -> dict:
    (row,) = _read_csv(out / "tests.csv")
    return row


def _header_only_outputs(out: Path) -> None:
    assert float(_one_test_row(out)["energy_mj"]) == 0.0
    assert _read_csv(out / "methods.csv") == []


# id -> (command; its arguments for the revision <tmp>/1.0, after any
# change to it; exit code; start of stderr, {rev} standing for the
# revision; check of the outputs of a run that succeeds)
FAILURE_PATHS = {
    "missing-config": (
        "analyze", lambda rev: [str(rev), "--config", str(rev / "missing.ini")], 2,
        "error: config file {rev}/missing.ini does not exist\n", None,
    ),
    "analyze-on-a-file": (
        "analyze", lambda rev: [str(rev / "traces" / "a.B::t.0.trace")], 2,
        "error: {rev}/traces/a.B::t.0.trace is not a directory\n", None,
    ),
    "evolve-on-a-file": (
        "evolve", lambda rev: [str(rev / "traces" / "a.B::t.0.trace")], 2,
        "error: {rev}/traces/a.B::t.0.trace is not a directory\n", None,
    ),
    "no-traces-dir": (
        "analyze", lambda rev: _remove(rev, "traces"), 2,
        "error: {rev}: missing traces/ directory\n", None,
    ),
    "no-power-dir": (
        "analyze", lambda rev: _remove(rev, "power"), 2,
        "error: {rev}: missing power/ directory\n", None,
    ),
    "badly-named-trace": (
        "analyze", lambda rev: _write(rev, "traces/notes.txt", ""), 2,
        "error: {rev}/traces/notes.txt: expected <test_name>.<sample_index>.trace\n", None,
    ),
    "orphan-power": (
        "analyze", lambda rev: _write(rev, "power/a.B::t.1.power", ONE_POWER), 2,
        "error: {rev}: power file for a.B::t sample 1 has no matching trace\n", None,
    ),
    "corrupt-power-line": (
        "analyze", lambda rev: _write(rev, "power/a.B::t.0.power", ONE_POWER + "20.0;x\n"), 3,
        "error: {rev}/power/a.B::t.0.power: line 4: ", None,
    ),
    "header-names-another-test": (
        "analyze",
        lambda rev: _write(rev, "traces/a.B::t.0.trace", ONE_TRACE.replace("::t;", "::u;")), 2,
        "error: {rev}/traces/a.B::t.0.trace: header names a.B::u sample 0, "
        "expected a.B::t sample 0\n", None,
    ),
    "weekly-observation-unit": (
        "analyze", lambda rev: _config(rev, "[analysis]\nobservation_unit = weekly\n"), 2,
        "error: observation_unit must be one of ('per_sample', 'per_test_mean')\n", None,
    ),
    "top-k-zero": (
        "analyze", lambda rev: _config(rev, "[analysis]\ntop_k_tests = 0\n"), 2,
        "error: top_k_tests must be >= 1, got 0\n", None,
    ),
    "header-only-trace": (
        "analyze", lambda rev: _write(rev, "traces/a.B::t.0.trace", "#trace v1;a.B::t;0\n"), 0,
        "", _header_only_outputs,
    ),
    "subdirectory-in-traces": (
        "analyze", lambda rev: _mkdir(rev, "traces/nested.0.trace"), 0, "", _one_test_row,
    ),
}


@pytest.mark.parametrize(
    "command, arguments, code, err, check", FAILURE_PATHS.values(), ids=FAILURE_PATHS.keys()
)
def test_each_failure_path_exits_with_its_code_and_no_traceback(
    tmp_path, capsys, command, arguments, code, err, check
):
    rev = _one_execution_revision(tmp_path)
    out = tmp_path / "out"
    assert cli.main([command, *arguments(rev), "--out", str(out)]) == code
    stderr = capsys.readouterr().err
    expected = err.format(rev=rev)
    assert stderr.startswith(expected) if expected else stderr == ""
    assert "Traceback" not in stderr
    if check is not None:
        check(out)
