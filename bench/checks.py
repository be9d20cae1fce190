"""Correctness checks on generated fixtures and on command outputs.

Every check returns a list of violation strings; an empty list means the
check passed.  Invariant checks hold for any seed.  The reference check
compares outputs with ones recorded from the default seed: counts, labels
and ``significant`` flags exactly, floats within ``REL_TOL`` relative (plus
``ABS_FLOOR`` absolute, for values such as ``1 - p`` that come out of a
cancellation and so carry an absolute error of about 1e-16).
"""

import csv
import hashlib
import json
import math
from pathlib import Path

from tracewatt import synth

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
# Σ exclusive energy of a test against its test-window energy: the two are
# the same telescoping sum, so they may differ only by rounding.
CONSERVATION_TOL = 1e-9
# Mean measured energy against the generator's noise-free analytic energy
# may differ by this many standard errors of the zero-mean power noise.
ANALYTIC_SIGMAS = 6.0
METRICS = ("energy_mj", "avg_power_mw", "ruapi")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def frames_per_tree(spec: synth.SynthSpec) -> int:
    """Real frames of one generated call tree (a full branching-ary tree)."""
    return sum(spec.branching**d for d in range(spec.tree_depth + 1))


def check_fixture(root: Path, spec: synth.SynthSpec, manifest: dict) -> list[str]:
    """The fixture has the spec's shape and passes ``synth.verify_fixture``."""
    shape = len(spec.revisions) * spec.tests * spec.samples_per_test
    problems = []
    for kind, subdir in (("trace", "traces"), ("power", "power")):
        n = len(list(root.glob(f"*/{subdir}/*.{kind}")))
        if n != shape:
            problems.append(f"fixture has {n} {kind} files, spec shape gives {shape}")
    problems += synth.verify_fixture(root, manifest)
    return problems


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _expected_energy_per_execution(manifest: dict, label: str, spec) -> float:
    return manifest["revisions"][label]["expected_energy_mj"] / spec.tests


def _analytic_tolerance(manifest: dict, label: str, spec) -> float:
    """Relative tolerance of a revision's mean energy: ANALYTIC_SIGMAS
    standard errors of the noise.  With noise sigma on N trapezoid samples
    the relative standard error is about sigma / (mean power * sqrt(N));
    mean power >= base power, and N >= energy / (peak power * period)
    because noise-free power never exceeds base + API cost."""
    rev = manifest["revisions"][label]
    energy_mj = rev["expected_energy_mj"] * spec.samples_per_test
    peak_mw = rev["base_power_mw"] + rev["api_cost_mw"]
    n_samples = energy_mj / (peak_mw * spec.sample_period_us * 1e-6)
    sigma = rev["noise_stddev_mw"] / (rev["base_power_mw"] * math.sqrt(n_samples))
    return ANALYTIC_SIGMAS * sigma + 1e-9


def check_evolve(out: Path, spec: synth.SynthSpec, manifest: dict) -> list[str]:
    """Invariants of an ``evolve`` output directory."""
    problems = []
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    labels = sorted(r.label for r in spec.revisions)
    n_rev = len(labels)
    n_pairs = n_rev * (n_rev - 1) // 2
    if sorted(report["revisions"]) != labels:
        problems.append(f"report revisions {report['revisions']} != spec {labels}")
    n_obs = n_rev * spec.tests * spec.samples_per_test
    if report["n_observations"] != n_obs:
        problems.append(f"n_observations {report['n_observations']} != {n_obs}")
    alpha = report["alpha"]
    for metric in METRICS:
        pairs = report["metrics"][metric]["pairs"]
        if len(pairs) != n_pairs:
            problems.append(f"{metric}: {len(pairs)} pairs, expected {n_pairs}")
        for p in pairs:
            if not 0.0 <= float(p["p_adj"]) <= 1.0 or not float(p["q"]) >= 0.0:
                problems.append(f"{metric} {p['group_a']}/{p['group_b']}: bad q or p_adj")
            if p["significant"] != (float(p["p_adj"]) < alpha):
                problems.append(
                    f"{metric} {p['group_a']}/{p['group_b']}: significant="
                    f"{p['significant']} but p_adj={p['p_adj']} at alpha={alpha}"
                )
        try:
            rows = _read_csv(out / f"pairwise_{metric}.csv")
        except OSError as exc:
            problems.append(f"pairwise_{metric}.csv unreadable: {exc}")
            continue
        if len(rows) != len(pairs):
            problems.append(f"pairwise_{metric}.csv has {len(rows)} rows, report {len(pairs)}")
        for row, p in zip(rows, pairs):
            same = (
                row["group_a"] == p["group_a"]
                and row["group_b"] == p["group_b"]
                and row["significant"] == ("true" if p["significant"] else "false")
                and all(float(row[k]) == float(p[k]) for k in ("mean_diff", "q", "p_adj"))
            )
            if not same:
                problems.append(
                    f"pairwise_{metric}.csv row {row} disagrees with report.json"
                )
    for target, score in report["proxy"].items():
        if score["tp"] + score["fp"] + score["fn"] + score["tn"] != n_pairs:
            problems.append(f"proxy vs {target}: confusion counts do not sum to {n_pairs}")
    try:
        summaries = _read_csv(out / "revision_summaries.csv")
    except OSError as exc:
        return problems + [f"revision_summaries.csv unreadable: {exc}"]
    if sorted(s["revision"] for s in summaries) != labels:
        problems.append("revision_summaries.csv does not list every revision once")
    for s in summaries:
        if s["revision"] not in manifest["revisions"]:
            continue
        expected = _expected_energy_per_execution(manifest, s["revision"], spec)
        tolerance = _analytic_tolerance(manifest, s["revision"], spec)
        if _rel_diff(float(s["mean_energy_mj"]), expected) > tolerance:
            problems.append(
                f"revision {s['revision']}: mean energy {s['mean_energy_mj']} mJ, "
                f"generator's analytic value {expected} mJ"
            )
    return problems


def check_analyze(out: Path, spec: synth.SynthSpec, manifest: dict) -> list[str]:
    """Invariants of an ``analyze`` output directory (single revision)."""
    problems = []
    try:
        tests = _read_csv(out / "tests.csv")
        methods = _read_csv(out / "methods.csv")
    except OSError as exc:
        return [f"outputs unreadable: {exc}"]
    (label,) = [r.label for r in spec.revisions]
    n_exec = spec.tests * spec.samples_per_test
    if len(tests) != n_exec:
        problems.append(f"tests.csv has {len(tests)} rows, expected {n_exec}")
    api_calls = sum(
        info["api_interactions"]
        for info in manifest["revisions"][label]["files"].values()
        if info["kind"] == "trace"
    )
    n_intervals = n_exec * frames_per_tree(spec) + api_calls
    if len(methods) != n_intervals:
        problems.append(f"methods.csv has {len(methods)} rows, expected {n_intervals}")
    exclusive = {}
    for row in methods:
        key = (row["test_name"], row["sample_index"])
        exclusive[key] = exclusive.get(key, 0.0) + float(row["energy_mj_exclusive"])
    total = 0.0
    for row in tests:
        key = (row["test_name"], row["sample_index"])
        energy = float(row["energy_mj"])
        total += energy
        if _rel_diff(exclusive.get(key, 0.0), energy) > CONSERVATION_TOL:
            problems.append(
                f"{key[0]} sample {key[1]}: Σ exclusive {exclusive.get(key, 0.0)} mJ "
                f"!= test energy {energy} mJ"
            )
    expected = _expected_energy_per_execution(manifest, label, spec)
    tolerance = _analytic_tolerance(manifest, label, spec)
    if tests and _rel_diff(total / len(tests), expected) > tolerance:
        problems.append(
            f"mean test energy {total / len(tests)} mJ, generator's analytic "
            f"value {expected} mJ"
        )
    return problems


def summarize(out: Path, command: str) -> dict:
    """The part of a command's outputs that the reference records.

    ``evolve``: the whole report.json.  ``analyze``: tests.csv in full, and
    for methods.csv the row count, a digest of its text columns, and per
    float column the plain sum and the row-position-weighted sum (all
    values are non-negative, so neither sum cancels).
    """
    if command == "evolve":
        return json.loads((out / "report.json").read_text(encoding="utf-8"))
    tests = _read_csv(out / "tests.csv")
    methods = _read_csv(out / "methods.csv")
    floats = ("energy_mj_inclusive", "energy_mj_exclusive", "avg_power_mw")
    text = hashlib.sha256()
    sums = {name: [0.0, 0.0] for name in floats}
    for i, row in enumerate(methods, start=1):
        text.update(
            ";".join(v for k, v in row.items() if k not in floats).encode() + b"\n"
        )
        for name in floats:
            x = float(row[name])
            sums[name][0] += x
            sums[name][1] += i * x
    return {
        "tests": [
            {k: (v if k == "test_name" else float(v)) for k, v in row.items()}
            for row in tests
        ],
        "methods": {"rows": len(methods), "text_sha256": text.hexdigest(), "sums": sums},
    }


def compare_to_reference(got, want, path: str = "") -> list[str]:
    """Structural comparison: exact for everything but floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path or '/'}: keys differ from the reference"]
        return [p for k in want for p in compare_to_reference(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_to_reference(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == want or (
            math.isfinite(want)
            and abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_FLOOR
        ):
            return []
        return [f"{path}: {got!r} differs from the reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} differs from the reference {want!r}"]
    return []
