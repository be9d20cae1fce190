"""Deterministic generator of multi-revision trace/power fixtures.

The power model is an additive step cost: a revision's stream sits at
``base_power_mw``, rises by ``api_cost_mw`` while an API call is active,
and carries seeded Gaussian noise on top.  API-call counts scale per
revision with ``api_call_multiplier`` (rounded per tree, largest-remainder
apportionment across call sites), so API utilization and energy are
correlated by construction when the cost is positive and decoupled when
it is zero.

Randomness comes from SplitMix64, a portable 64-bit generator
(state += 0x9E3779B97F4A7C15; output = xor-shift-multiply mix of state),
with one independent stream per generated artifact derived by hashing the
(revision, test, sample) coordinates with 64-bit FNV-1a.  Identical spec
and seed therefore reproduce byte-identical fixtures, independent of
generation order or platform.

All durations must be multiples of the power sampling period so that API
intervals start and end exactly on sample points; the trapezoidal
integral of a noise-free stream then equals the analytic step integral.
"""

import json
import math
from pathlib import Path
from typing import Iterator, NamedTuple

from .apimetric import ApiClassifier, ApiRule, uapi
from .callgraph import build_call_trees
from .config import ConfigError, read_ini, section_values
from .energy import PowerFormatError, _render_power, parse_power
from .trace import TraceFormatError, _render_trace, parse_trace

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "tracewatt-synth-manifest v1"

_API_PACKAGES = ("android.util", "android.os", "java.util", "java.io")
_API_RULES = (ApiRule("android.", "android"), ApiRule("java.", "java"))

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele, Lea & Flood's mixer)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self, sigma: float) -> float:
        """Zero-mean Gaussian via Box-Muller (fresh pair every call)."""
        u1 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0**-53
        u2 = self.uniform()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _stream(seed: int, *coordinates) -> SplitMix64:
    tag = "/".join(str(c) for c in coordinates)
    return SplitMix64(seed ^ _fnv1a64(tag))


class _RevisionFields(NamedTuple):
    label: str
    api_call_multiplier: float = 1.0
    base_power_mw: float = 100.0
    api_cost_mw: float = 50.0
    noise_stddev_mw: float = 0.0


class RevisionSpec(_RevisionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.label in ("", ".", "..") or "/" in self.label or any(map(str.isspace, self.label)):
            raise ValueError(f"bad revision label {self.label!r}")
        if self.api_call_multiplier <= 0:
            raise ValueError(
                f"revision {self.label}: api_call_multiplier must be > 0"
            )
        if self.base_power_mw < 0 or self.api_cost_mw < 0:
            raise ValueError(f"revision {self.label}: power levels must be >= 0")
        if self.noise_stddev_mw < 0:
            raise ValueError(f"revision {self.label}: noise_stddev_mw must be >= 0")
        return self


class _SynthFields(NamedTuple):
    seed: int
    revisions: tuple[RevisionSpec, ...]
    tests: int = 10
    samples_per_test: int = 5
    rate_hz: int = 20000
    tree_depth: int = 3
    branching: int = 2
    api_density: float = 0.35
    api_call_us: int = 400
    frame_pad_us: int = 100


class SynthSpec(_SynthFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.revisions:
            raise ValueError("spec needs at least one revision")
        labels = [r.label for r in self.revisions]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate revision labels")
        for name in ("tests", "samples_per_test", "rate_hz", "tree_depth", "branching"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.api_density <= 1.0:
            raise ValueError("api_density must be in [0, 1]")
        if 1_000_000 % self.rate_hz != 0:
            raise ValueError(
                f"rate_hz must divide 1e6 evenly for an integer sample period, "
                f"got {self.rate_hz}"
            )
        period = 1_000_000 // self.rate_hz
        for name in ("api_call_us", "frame_pad_us"):
            value = getattr(self, name)
            if value < 1 or value % period != 0:
                raise ValueError(
                    f"{name} must be a positive multiple of the {period} us "
                    f"sample period, got {value}"
                )
        return self

    @property
    def sample_period_us(self) -> int:
        return 1_000_000 // self.rate_hz


def load_spec(text: str) -> SynthSpec:
    """Parse the synth spec file format (INI-style, see README)."""
    sections = read_ini(text)
    if "synth" not in sections:
        raise ConfigError("synth spec needs a [synth] section")
    revisions = []
    for section, items in sections.items():
        if section == "synth":
            continue
        if not section.startswith("revision."):
            raise ConfigError(f"unknown section [{section}]")
        label = section[len("revision.") :]
        values = section_values(RevisionSpec, section, items, label=label)
        revisions.append(RevisionSpec(**values))
    values = section_values(SynthSpec, "synth", sections["synth"], revisions=tuple(revisions))
    return SynthSpec(**values)


def _build_skeleton(rng: SplitMix64, spec: SynthSpec) -> list[tuple[int, int]]:
    """The (depth, base API calls) of each frame of one test, in preorder.

    Internal structure is the full branching-ary tree of the configured
    depth, identical for every test; only API placement is drawn from the
    per-test stream.  Keeping structure uniform bounds the cross-test
    variance so injected revision-level shifts are the dominant effect.
    Frames draw their API slots in preorder, with an explicit stack so
    that no tree depth hits the recursion limit.
    """
    skeleton = []
    stack = [0]
    while stack:
        depth = stack.pop()
        api_calls = sum(
            1 for _ in range(spec.branching) if rng.uniform() < spec.api_density
        )
        skeleton.append((depth, api_calls))
        if depth < spec.tree_depth:
            stack.extend([depth + 1] * spec.branching)
    return skeleton


def _scale_api_counts(base_counts: list[int], multiplier: float) -> list[int]:
    """Per-frame API-call counts whose total is the per-tree rounded
    (half-up) multiple of the base total, apportioned by largest
    remainder."""
    target = math.floor(sum(base_counts) * multiplier + 0.5)
    ideals = [n * multiplier for n in base_counts]
    counts = [math.floor(x) for x in ideals]
    remaining = target - sum(counts)
    order = sorted(
        range(len(counts)), key=lambda i: (-(ideals[i] - counts[i]), i)
    )
    pos = 0
    while remaining > 0 and order:
        counts[order[pos % len(order)]] += 1
        remaining -= 1
        pos += 1
    return counts


def test_method_name(index: int) -> str:
    return f"com.fixture.suite.GeneratedSuite::test{index:03d}"


def _materialize(
    spec: SynthSpec, skeleton: list[tuple[int, int]], multiplier: float,
    test_method: str,
) -> tuple[list[tuple], list[tuple[int, int]], int]:
    """Lay the skeleton out on the timeline for one revision; returns
    trace event rows (for trace._render_trace), the API windows and the
    root's exit time, both in microseconds.

    A frame's children are laid out one after another, each entered one
    pad after the previous one's exit; then its API calls; then its own
    exit.  A frame is exited when the next frame in preorder is no deeper,
    and the depth -1 sentinel exits the root.
    """
    counts = _scale_api_counts([calls for _, calls in skeleton], multiplier)
    pad = spec.frame_pad_us
    api_us = spec.api_call_us
    rows: list[tuple] = []
    intervals: list[tuple[int, int]] = []
    open_frames: list[tuple] = []  # (depth, package, class, method, API calls)
    cursor = 0  # when the next event happens
    end_us = 0
    api_ord = 0
    for index, (depth, _) in enumerate([*skeleton, (-1, 0)]):
        while open_frames and open_frames[-1][0] >= depth:
            _, *name, api_calls = open_frames.pop()
            for _ in range(api_calls):
                api_pkg = _API_PACKAGES[api_ord % len(_API_PACKAGES)]
                method = f"call{api_ord}"
                rows.append(("E", 1, cursor * 1000, api_pkg, "Api", method))
                rows.append(("X", 1, (cursor + api_us) * 1000, api_pkg, "Api", method))
                intervals.append((cursor, cursor + api_us))
                api_ord += 1
                cursor += api_us + pad
            rows.append(("X", 1, cursor * 1000, *name))
            end_us = cursor
            cursor += pad
        if depth < 0:
            break
        if index == 0:
            name = ("com.fixture.suite", "GeneratedSuite", test_method)
        else:
            name = ("com.fixture.lib", f"Helper{depth}", f"m{index}")
        rows.append(("E", 1, cursor * 1000, *name))
        open_frames.append((depth, *name, counts[index]))
        cursor += pad
    return rows, intervals, end_us


def _power_samples(
    spec: SynthSpec, rev: RevisionSpec, api_intervals: list[tuple[int, int]],
    end_us: int, rng: SplitMix64,
) -> Iterator[tuple[float, float]]:
    """The (t_us, power_mw) samples of one execution's power stream."""
    period = spec.sample_period_us
    interval_idx = 0
    active_until = -1
    for i in range(end_us // period + 3):
        t = i * period
        while interval_idx < len(api_intervals) and api_intervals[interval_idx][0] <= t:
            active_until = max(active_until, api_intervals[interval_idx][1])
            interval_idx += 1
        power = rev.base_power_mw
        if t < active_until:
            power += rev.api_cost_mw
        if rev.noise_stddev_mw > 0:
            power += rng.gauss(rev.noise_stddev_mw)
        yield float(t), max(power, 0.0)


def generate(spec: SynthSpec, out_dir: "Path | str") -> dict:
    """Write the fixture tree and return the ground-truth manifest.

    Layout per revision: ``<label>/traces/<test>.<sample>.trace`` and
    ``<label>/power/<test>.<sample>.power``.  The manifest is also written
    to ``manifest.json`` in the output directory.
    """
    skeletons = [
        _build_skeleton(_stream(spec.seed, "tree", i), spec)
        for i in range(spec.tests)
    ]
    # A multiplier may give a test at most 100 API calls per frame and
    # branch; every test has the same frames (see _build_skeleton).
    api_call_limit = 100 * len(skeletons[0]) * spec.branching
    most_api_calls = max(sum(calls for _, calls in skeleton) for skeleton in skeletons)
    for rev in spec.revisions:
        if not most_api_calls * rev.api_call_multiplier <= api_call_limit:
            raise ValueError(f"revision {rev.label}: api_call_multiplier is too large")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    revision_entries: dict[str, dict] = {}
    expected_energy: dict[str, float] = {}
    api_totals: dict[str, int] = {}
    for rev in spec.revisions:
        traces_dir = root / rev.label / "traces"
        power_dir = root / rev.label / "power"
        traces_dir.mkdir(parents=True, exist_ok=True)
        power_dir.mkdir(parents=True, exist_ok=True)

        files: dict[str, dict] = {}
        total_api = 0
        energy_mj = 0.0
        for test_idx in range(spec.tests):
            test_name = test_method_name(test_idx)
            trace_rows, api_intervals, end_us = _materialize(
                spec, skeletons[test_idx], rev.api_call_multiplier,
                f"test{test_idx:03d}",
            )
            total_api += len(api_intervals)
            api_time_us = sum(b - a for a, b in api_intervals)
            energy_mj += (
                rev.base_power_mw * end_us + rev.api_cost_mw * api_time_us
            ) * 1e-6
            for sample in range(spec.samples_per_test):
                trace_name = f"{test_name}.{sample}.trace"
                power_name = f"{test_name}.{sample}.power"
                trace_text = _render_trace(test_name, sample, trace_rows)
                (traces_dir / trace_name).write_text(trace_text, encoding="utf-8")
                samples = _power_samples(
                    spec, rev, api_intervals, end_us,
                    _stream(spec.seed, "power", rev.label, test_idx, sample),
                )
                power_text = _render_power(test_name, sample, float(spec.rate_hz), samples)
                (power_dir / power_name).write_text(power_text, encoding="utf-8")
                files[f"{rev.label}/traces/{trace_name}"] = {
                    "kind": "trace",
                    "test": test_name,
                    "sample": sample,
                    "api_interactions": len(api_intervals),
                }
                files[f"{rev.label}/power/{power_name}"] = {
                    "kind": "power",
                    "test": test_name,
                    "sample": sample,
                }
        api_totals[rev.label] = total_api
        expected_energy[rev.label] = energy_mj
        revision_entries[rev.label] = {
            "api_call_multiplier": rev.api_call_multiplier,
            "base_power_mw": rev.base_power_mw,
            "api_cost_mw": rev.api_cost_mw,
            "noise_stddev_mw": rev.noise_stddev_mw,
            "total_api_interactions": total_api,
            "expected_energy_mj": energy_mj,
            "files": files,
        }

    labels = [rev.label for rev in spec.revisions]
    pairs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = labels[i], labels[j]
            ea, eb = expected_energy[a], expected_energy[b]
            scale = max(abs(ea), abs(eb), 1e-12)
            pairs.append(
                {
                    "a": a,
                    "b": b,
                    "api_differs": api_totals[a] != api_totals[b],
                    "energy_differs": abs(ea - eb) / scale > 1e-12,
                }
            )

    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": spec.seed,
        "rate_hz": spec.rate_hz,
        "tests": spec.tests,
        "samples_per_test": spec.samples_per_test,
        "api_rules": [{"prefix": r.prefix, "label": r.label} for r in _API_RULES],
        "revisions": revision_entries,
        "pairs": pairs,
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def verify_fixture(fixture_dir: "Path | str", manifest: dict) -> list[str]:
    """Re-parse every generated file and recheck its ground-truth counts.

    Returns one violation string per mismatch; an empty list means the
    fixture is intact.
    """
    root = Path(fixture_dir)
    violations = []
    classifier = ApiClassifier(
        ApiRule(r["prefix"], r["label"]) for r in manifest["api_rules"]
    )
    for label, entry in sorted(manifest["revisions"].items()):
        seen_totals: dict[int, int] = {}
        for rel_path, info in sorted(entry["files"].items()):
            path = root / rel_path
            if not path.exists():
                violations.append(f"{rel_path}: file is missing")
                continue
            if info["kind"] == "trace":
                try:
                    trace = parse_trace(path.read_bytes())
                except TraceFormatError as exc:
                    violations.append(f"{rel_path}: {exc}")
                    continue
                profile = uapi(build_call_trees(trace), classifier)
                if profile.total_api_interactions != info["api_interactions"]:
                    violations.append(
                        f"{rel_path}: {profile.total_api_interactions} API "
                        f"interactions, manifest says {info['api_interactions']}"
                    )
                sample = info["sample"]
                seen_totals[sample] = (
                    seen_totals.get(sample, 0) + profile.total_api_interactions
                )
            else:
                try:
                    parse_power(path.read_bytes())
                except PowerFormatError as exc:
                    violations.append(f"{rel_path}: {exc}")
        for sample, total in sorted(seen_totals.items()):
            if total != entry["total_api_interactions"]:
                violations.append(
                    f"revision {label} sample {sample}: {total} API interactions, "
                    f"manifest says {entry['total_api_interactions']}"
                )
    return violations
