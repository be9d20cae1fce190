"""Golden outputs: the SHA-256 of every file that ``analyze`` and
``evolve`` write for a small seeded fixture and for one hand-written
multi-root revision, and one SHA-256 over the whole fixture tree that
``synth`` writes, must match the digests in ``golden.sha256``.

The determinism tests compare two runs of the same code; this one pins
the bytes across code changes, so a refactor that claims unchanged
outputs is checked against the outputs of the code before it.  When an
output change is intended, regenerate the digest file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from tracewatt import cli

DIGEST_FILE = Path(__file__).with_name("golden.sha256")

SPEC_TEXT = """
[synth]
seed = 2024
tests = 4
samples_per_test = 3
rate_hz = 20000
tree_depth = 3
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

[revision.1.2]
api_call_multiplier = 1.5
base_power_mw = 100.0
api_cost_mw = 60.0
noise_stddev_mw = 1.0
"""

# top-k and per-test aggregation renormalize rU over a subset of tests
SUBSET_CONFIG = """
[analysis]
top_k_tests = 2
observation_unit = per_test_mean
aggregation = median
"""

# Two top-level frames on thread 1 and a thread 2 that overlaps both, with
# API calls under each frame: a tree shape that synth never writes.
MULTI_ROOT_TEST = "com.multi.Suite::testRoots"
MULTI_ROOT_TRACE = f"""\
#trace v1;{MULTI_ROOT_TEST};0
E;1;0;com.app.core;Main;first
E;2;500;com.app.core;Worker;run
E;1;1000;java.util;List;add
X;1;3000;java.util;List;add
E;2;3500;android.os;Handler;post
X;2;4500;android.os;Handler;post
X;1;5000;com.app.core;Main;first
E;1;6000;com.app.core;Main;second
E;1;7000;com.app.util;Helper;work
E;1;7500;android.util;Log;d
X;1;8000;android.util;Log;d
X;1;9000;com.app.util;Helper;work
X;2;9500;com.app.core;Worker;run
X;1;12000;com.app.core;Main;second
"""
MULTI_ROOT_POWER = f"#power v1;{MULTI_ROOT_TEST};0;2000000.0\n" + "".join(
    f"{i * 0.5!r};{100.0 + 7.5 * (i % 5)!r}\n" for i in range(27)
)


def write_multi_root_revision(revision: Path) -> None:
    (revision / "traces").mkdir(parents=True)
    (revision / "power").mkdir()
    (revision / "traces" / f"{MULTI_ROOT_TEST}.0.trace").write_text(MULTI_ROOT_TRACE)
    (revision / "power" / f"{MULTI_ROOT_TEST}.0.power").write_text(MULTI_ROOT_POWER)


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and the bytes of every file under
    ``root``, in sorted path order; each part is length-prefixed, so no
    two trees share a byte stream."""
    digest = hashlib.sha256()
    files = {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        for part in (rel.encode("utf-8"), files[rel].read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def golden_digests(work: Path) -> list[str]:
    """Run synth, analyze and evolve under ``work``; return one
    ``<sha256>  <path>`` line per output file, sorted by path, then one
    line for the whole synth fixture tree, manifest included."""
    spec = work / "spec.ini"
    spec.write_text(SPEC_TEXT)
    config = work / "subset.ini"
    config.write_text(SUBSET_CONFIG)
    fixture = work / "fixture"
    multi_root = work / "multi_root" / "1.0"
    write_multi_root_revision(multi_root)
    runs = {
        "analyze": ["analyze", str(fixture / "1.0")],
        "evolve": ["evolve", str(fixture)],
        "evolve_subset": ["evolve", str(fixture), "--config", str(config)],
        "analyze_multi_root": ["analyze", str(multi_root)],
    }
    assert cli.main(["synth", str(spec), str(fixture)]) == 0
    lines = []
    for name, argv in runs.items():
        out = work / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {name}/{path.name}")
    lines.append(f"{tree_digest(fixture)}  synth/")
    return lines


def test_outputs_match_golden_digests(tmp_path):
    lines = golden_digests(tmp_path)
    assert lines == DIGEST_FILE.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        lines = golden_digests(Path(tmp))
    print("\n".join(lines))
