import json

import pytest

from tracewatt.config import ConfigError
from tracewatt.energy import integrate, parse_power
from tracewatt.synth import (
    RevisionSpec,
    SplitMix64,
    SynthSpec,
    generate,
    load_spec,
    verify_fixture,
)
from tracewatt.trace import parse_trace
from tracewatt.callgraph import build_call_trees

SPEC_TEXT = """
[synth]
seed = 42
tests = 3
samples_per_test = 2
rate_hz = 20000
tree_depth = 2
branching = 2
api_density = 0.5

[revision.1.0]
api_call_multiplier = 1.0
base_power_mw = 100.0
api_cost_mw = 50.0
noise_stddev_mw = 0.0

[revision.2.0]
api_call_multiplier = 2.0
base_power_mw = 100.0
api_cost_mw = 50.0
noise_stddev_mw = 0.0
"""


class TestSplitMix64:
    def test_published_vector_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_published_vector_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_gauss_is_deterministic(self):
        assert SplitMix64(5).gauss(2.0) == SplitMix64(5).gauss(2.0)


class TestLoadSpec:
    def test_parses_revisions_in_order(self):
        spec = load_spec(SPEC_TEXT)
        assert [r.label for r in spec.revisions] == ["1.0", "2.0"]
        assert spec.seed == 42
        assert spec.revisions[1].api_call_multiplier == 2.0

    def test_zero_multiplier_rejected(self):
        bad = SPEC_TEXT.replace("api_call_multiplier = 1.0", "api_call_multiplier = 0")
        with pytest.raises(ValueError, match="multiplier"):
            load_spec(bad)

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            load_spec("[synth]\ntests = 2\n\n[revision.a]\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            load_spec(SPEC_TEXT.replace("tests = 3", "tests = 3\nbogus = 1"))

    def test_unknown_revision_key_rejected(self):
        typo = SPEC_TEXT.replace("api_cost_mw = 50.0", "api_cost = 5", 1)
        with pytest.raises(ConfigError, match=r"unknown \[revision.1.0\] keys: \['api_cost'\]"):
            load_spec(typo)

    def test_label_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_spec("[synth]\nseed = 1\n\n[revision.a]\nlabel = b\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ConfigError, match="is not a finite number"):
            load_spec(SPEC_TEXT.replace("base_power_mw = 100.0", f"base_power_mw = {value}", 1))

    def test_revision_defaults_live_on_the_dataclass(self):
        spec = load_spec("[synth]\nseed = 1\n\n[revision.a]\n")
        assert spec.revisions == (RevisionSpec("a"),)
        assert spec == SynthSpec(seed=1, revisions=(RevisionSpec("a"),))

    def test_rate_must_give_integer_period(self):
        with pytest.raises(ValueError, match="rate_hz"):
            load_spec(SPEC_TEXT.replace("rate_hz = 20000", "rate_hz = 30000"))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("base_power_mw = 100.0", "base_power_mw = -1", "power levels must be >= 0"),
            ("api_cost_mw = 50.0", "api_cost_mw = -1", "power levels must be >= 0"),
            ("noise_stddev_mw = 0.0", "noise_stddev_mw = -0.5", "noise_stddev_mw must be >= 0"),
            ("tests = 3", "tests = 0", "tests must be >= 1"),
            ("samples_per_test = 2", "samples_per_test = 0", "samples_per_test must be >= 1"),
            ("rate_hz = 20000", "rate_hz = 0", "rate_hz must be >= 1"),
            ("tree_depth = 2", "tree_depth = 0", "tree_depth must be >= 1"),
            ("branching = 2", "branching = 0", "branching must be >= 1"),
            ("api_density = 0.5", "api_density = 1.5", r"api_density must be in \[0, 1\]"),
            ("api_density = 0.5", "api_density = -0.1", r"api_density must be in \[0, 1\]"),
        ],
    )
    def test_out_of_range_value_rejected(self, old, new, message):
        with pytest.raises(ValueError, match=message):
            load_spec(SPEC_TEXT.replace(old, new, 1))

    def test_spec_without_revisions_rejected(self):
        with pytest.raises(ValueError, match="at least one revision"):
            load_spec("[synth]\nseed = 1\n")

    def test_duplicate_revision_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate revision labels"):
            SynthSpec(seed=1, revisions=(RevisionSpec("a"), RevisionSpec("a")))

    def test_missing_synth_section_rejected(self):
        with pytest.raises(ConfigError, match=r"needs a \[synth\] section"):
            load_spec("[revision.a]\nbase_power_mw = 1.0\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            load_spec(SPEC_TEXT + "\n[extra]\nkey = 1\n")

    def test_durations_must_align_to_period(self):
        with pytest.raises(ValueError, match="api_call_us"):
            SynthSpec(seed=1, revisions=(RevisionSpec("a", 1.0, 100.0, 0.0, 0.0),),
                      rate_hz=20000, api_call_us=420)


class TestGenerate:
    def test_deterministic_at_byte_level(self, tmp_path):
        spec = load_spec(SPEC_TEXT)
        generate(spec, tmp_path / "one")
        generate(spec, tmp_path / "two")
        one = {
            p.relative_to(tmp_path / "one"): p.read_bytes()
            for p in sorted((tmp_path / "one").rglob("*")) if p.is_file()
        }
        two = {
            p.relative_to(tmp_path / "two"): p.read_bytes()
            for p in sorted((tmp_path / "two").rglob("*")) if p.is_file()
        }
        assert one == two
        assert len(one) == 2 * (3 * 2 * 2) + 1  # traces + power + manifest

    def test_equal_multipliers_give_identical_counts(self, tmp_path):
        text = SPEC_TEXT.replace("api_call_multiplier = 2.0", "api_call_multiplier = 1.0")
        manifest = generate(load_spec(text), tmp_path)
        revisions = manifest["revisions"]
        assert (
            revisions["1.0"]["total_api_interactions"]
            == revisions["2.0"]["total_api_interactions"]
        )
        assert not any(p["api_differs"] for p in manifest["pairs"])

    def test_multiplier_doubles_api_count(self, tmp_path):
        manifest = generate(load_spec(SPEC_TEXT), tmp_path)
        revisions = manifest["revisions"]
        assert (
            revisions["2.0"]["total_api_interactions"]
            == 2 * revisions["1.0"]["total_api_interactions"]
        )
        assert all(p["api_differs"] for p in manifest["pairs"])

    def test_trace_headers_follow_layout(self, tmp_path):
        generate(load_spec(SPEC_TEXT), tmp_path)
        path = tmp_path / "1.0/traces/com.fixture.suite.GeneratedSuite::test000.1.trace"
        trace = parse_trace(path.read_bytes())
        assert trace.test_name == "com.fixture.suite.GeneratedSuite::test000"
        assert trace.sample_index == 1
        tree = build_call_trees(trace)
        assert len(tree.roots) == 1
        assert tree.roots[0].method.method == "test000"

    def test_construction_law_noise_free(self, tmp_path):
        manifest = generate(load_spec(SPEC_TEXT), tmp_path)
        for label, entry in manifest["revisions"].items():
            measured = 0.0
            for rel_path, info in entry["files"].items():
                if info["kind"] != "power" or info["sample"] != 0:
                    continue
                profile = parse_power((tmp_path / rel_path).read_bytes())
                trace_rel = rel_path.replace("/power/", "/traces/").replace(
                    ".power", ".trace"
                )
                trace = parse_trace((tmp_path / trace_rel).read_bytes())
                end_ns = max(ev.t_ns for ev in trace.events)
                measured += integrate(profile, (0.0, end_ns / 1000.0))[0]
            assert measured == pytest.approx(entry["expected_energy_mj"], rel=1e-6)


class TestVerifyFixture:
    def _fixture(self, tmp_path):
        manifest = generate(load_spec(SPEC_TEXT), tmp_path)
        return tmp_path, manifest

    def test_untouched_fixture_is_clean(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        assert verify_fixture(root, manifest) == []

    def test_corrupted_trace_line_reported(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        victim = next(
            root / p
            for p, info in manifest["revisions"]["1.0"]["files"].items()
            if info["kind"] == "trace"
        )
        lines = victim.read_text().splitlines()
        lines[1] = "E;1;0;garbage"
        victim.write_text("\n".join(lines) + "\n")
        violations = verify_fixture(root, manifest)
        assert len(violations) >= 1
        assert any(victim.name in v for v in violations)

    def test_missing_power_file_reported(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        victim = next(
            root / p
            for p, info in manifest["revisions"]["1.0"]["files"].items()
            if info["kind"] == "power"
        )
        victim.unlink()
        violations = verify_fixture(root, manifest)
        assert any("missing" in v for v in violations)

    def test_api_count_mismatch_reported(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        entry = manifest["revisions"]["1.0"]
        rel_path, info = next(
            (p, info) for p, info in entry["files"].items() if info["kind"] == "trace"
        )
        actual = info["api_interactions"]
        info["api_interactions"] += 1
        entry["total_api_interactions"] += 1
        assert verify_fixture(root, manifest) == [
            f"{rel_path}: {actual} API interactions, manifest says {actual + 1}",
        ] + [
            f"revision 1.0 sample {sample}: {entry['total_api_interactions'] - 1} "
            f"API interactions, manifest says {entry['total_api_interactions']}"
            for sample in range(2)
        ]

    def test_unparsable_power_file_reported(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        rel_path = next(
            p
            for p, info in manifest["revisions"]["2.0"]["files"].items()
            if info["kind"] == "power"
        )
        victim = root / rel_path
        lines = victim.read_text().splitlines()
        lines[-1] = "not a sample"
        victim.write_text("\n".join(lines) + "\n")
        violations = verify_fixture(root, manifest)
        assert len(violations) == 1
        assert violations[0].startswith(f"{rel_path}: ")

    def test_manifest_round_trips_through_json(self, tmp_path):
        root, manifest = self._fixture(tmp_path)
        reloaded = json.loads((root / "manifest.json").read_text())
        assert verify_fixture(root, reloaded) == []
