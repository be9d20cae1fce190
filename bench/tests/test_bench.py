"""Tests of the benchmark harness: every workload at a tiny size, the
metric names and units promised in BENCHMARK.json, and the correctness
checks against deliberately corrupted outputs."""

import csv
import json
import re
import shutil

import pytest

from bench import checks, run, tracer
from tracewatt import cli, synth

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_spec(name: str) -> str:
    """The workload's spec shrunk to 2 tests x 2 samples, depth <= 2 and at
    most 3 revisions, keeping its other parameters."""
    text = (run.BENCH / "workloads" / run.WORKLOADS[name].spec).read_text(encoding="utf-8")
    head, *revisions = text.split("\n[revision.")
    head = re.sub(r"(?m)^(tests|samples_per_test) = \d+$", r"\1 = 2", head)
    head = re.sub(r"(?m)^tree_depth = \d+$", "tree_depth = 2", head)
    return "\n[revision.".join([head] + revisions[:3])


@pytest.fixture
def fast(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_REPS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_prints_every_metric(name, trace, tmp_path, capsys, fast):
    result = run.run_workload(name, 0, 0.0, bool(trace), tmp_path / name,
                              spec_text=tiny_spec(name))
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    out = capsys.readouterr().out
    for m in wanted:
        assert re.search(rf"^\s*{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         out, re.M), m["name"]
    saved = json.loads(next((tmp_path / "results").iterdir()).read_text())
    assert re.fullmatch(r"[0-9a-f]{64}", saved["fixture_sha256"])


def _make(tmp_path, name):
    """Fixture, manifest and outputs of a tiny workload, made in-process."""
    spec_text = tiny_spec(name)
    spec = synth.load_spec(spec_text)
    spec_path = tmp_path / "spec.ini"
    spec_path.write_text(spec_text)
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    assert cli.main(["synth", str(spec_path), str(fixture)]) == 0
    manifest = json.loads((fixture / "manifest.json").read_text())
    command = run.WORKLOADS[name].command
    target = fixture if command == "evolve" else fixture / spec.revisions[0].label
    assert cli.main([command, str(target), "--out", str(out)]) == 0
    assert checks.check_fixture(fixture, spec, manifest) == []
    return spec, manifest, out


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_flipped_significant_flag_is_rejected(tmp_path):
    spec, manifest, out = _make(tmp_path, "many_revisions_evolve")
    assert checks.check_evolve(out, spec, manifest) == []
    reference = checks.summarize(out, "evolve")

    in_csv = tmp_path / "csv"
    shutil.copytree(out, in_csv)
    flip = {"true": "false", "false": "true"}
    _rewrite_csv(in_csv / "pairwise_energy_mj.csv",
                 lambda rows: [rows[0], rows[1][:5] + [flip[rows[1][5]]]] + rows[2:])
    assert any("disagrees" in p for p in checks.check_evolve(in_csv, spec, manifest))

    in_json = tmp_path / "json"
    shutil.copytree(out, in_json)
    report = json.loads((in_json / "report.json").read_text())
    pair = report["metrics"]["energy_mj"]["pairs"][0]
    pair["significant"] = not pair["significant"]
    (in_json / "report.json").write_text(json.dumps(report))
    assert any("significant=" in p for p in checks.check_evolve(in_json, spec, manifest))
    assert checks.compare_to_reference(checks.summarize(in_json, "evolve"), reference)


def test_truncated_methods_csv_is_rejected(tmp_path):
    spec, manifest, out = _make(tmp_path, "long_stream_analyze")
    assert checks.check_analyze(out, spec, manifest) == []
    reference = checks.summarize(out, "analyze")
    _rewrite_csv(out / "methods.csv", lambda rows: rows[:-3])
    problems = checks.check_analyze(out, spec, manifest)
    assert any("methods.csv has" in p for p in problems)
    assert any("Σ exclusive" in p for p in problems)
    assert checks.compare_to_reference(checks.summarize(out, "analyze"), reference)


def test_reference_tolerance():
    want = {"x": 1.5, "p": 0.0, "n": 3, "flag": True, "label": "2.0"}
    assert checks.compare_to_reference(dict(want, x=1.5 * (1 + 1e-12)), want) == []
    assert checks.compare_to_reference(dict(want, p=1e-16), want) == []
    assert checks.compare_to_reference(dict(want, x=1.5 * (1 + 1e-7)), want)
    assert checks.compare_to_reference(dict(want, n=4), want)
    assert checks.compare_to_reference(dict(want, flag=False), want)
    assert checks.compare_to_reference(dict(want, label="2.1"), want)


def test_absent_wrapped_name_is_reported(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (
        ("tracewatt.ingest", "fused_away", "trace.fused", None),))
    recorder = tracer.Recorder("t")
    recorder.install()
    try:
        assert recorder.absent == ["tracewatt.ingest.fused_away"]
    finally:
        recorder.uninstall()
    metrics = tracer.layer_metrics(recorder.to_json())
    assert metrics["trace.parse_s"] == (0.0, "s")


def test_self_time_subtracts_children():
    spans = [
        [0, "cli.main", 0, 100, None, None],
        [1, "evolution.compare", 10, 60, 0, None],
        [2, "stats.tukey", 20, 50, 1, 6],
        [3, "stats.ptukey", 25, 35, 2, None],
    ]
    trace = {"spans": spans, "counters": {}, "absent": []}
    assert tracer.self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}
    metrics = tracer.layer_metrics(trace)
    assert metrics["cli.write_s"][0] == pytest.approx(50e-9)
    assert metrics["evolution.self_s"][0] == pytest.approx(20e-9)
    assert metrics["stats.tukey_pairs"][0] == 6
    assert tracer.layer_self_seconds(trace) == pytest.approx(
        {"cli": 50e-9, "evolution": 20e-9, "stats": 30e-9})


def test_calibration_program_matches_its_check():
    from bench import calibrate

    assert calibrate.job() == calibrate.CHECK
