"""Guards for the benchmark's traced run.

``bench/tracer.py`` reaches each pipeline layer through module-level names
(``SPANS`` and ``COUNTERS``).  A name that stops resolving is reported as
absent, and a count function that no longer fits its result reads as
missing, so a refactor could silently zero a per-layer metric such as
``energy.samples``.  These tests fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from tracewatt import cli

# bench/ is a package at the repository root, beside src/.
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import tracer  # noqa: E402

SPEC_TEXT = """
[synth]
seed = 9
tests = 2
samples_per_test = 2
rate_hz = 20000
tree_depth = 2
branching = 2
api_density = 0.5

[revision.1.0]
api_call_multiplier = 1.0

[revision.2.0]
api_call_multiplier = 2.0
"""

HOOKS = [(m, a) for m, a, _, _ in tracer.SPANS] + [(m, a) for m, a, _ in tracer.COUNTERS]


@pytest.mark.parametrize("module_name, attr", HOOKS)
def test_hook_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_every_span_and_counter_records_work_on_a_real_run(tmp_path):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    fixture = tmp_path / "fixture"
    assert cli.main(["synth", str(spec), str(fixture)]) == 0

    # evolve never attributes per-method energy, so analyze runs under the
    # same recorder too: between them every span and counter is entered.
    recorder = tracer.Recorder("t")
    recorder.install()
    try:
        assert cli.main(["evolve", str(fixture), "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["analyze", str(fixture / "1.0"), "--out", str(tmp_path / "a")]) == 0
    finally:
        recorder.uninstall()
    trace = recorder.to_json()

    assert trace["absent"] == []
    counts = {}
    for _, name, _, _, _, count in trace["spans"]:
        counts.setdefault(name, []).append(count)
    # parse_trace checks and nests each trace in one walk, so the pipeline
    # never validates a parsed trace again: trace.validate_per_parse is 0.
    assert "trace.validate" not in counts
    for _, _, name, count_fn in tracer.SPANS:
        if name == "trace.validate":
            continue
        assert name in counts, f"{name} was never called"
        if count_fn is not None:
            assert None not in counts[name], f"{name}: count failed on its result"
            assert sum(counts[name]) > 0, name
    for _, _, name in tracer.COUNTERS:
        assert trace["counters"][name] > 0, name
