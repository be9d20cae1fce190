"""tracewatt benchmark: one workload per invocation.

    python3 bench/run.py --workload suite_evolve --seed 0 --seconds 30 --trace 0

Builds nothing: it runs the package from ``src/`` next to this directory.
Set-up generates the workload's fixture with ``tracewatt synth`` from the
checked-in spec in ``bench/workloads/`` (synth seed = the spec's seed plus
``--seed``), once to warm up and then ``SETUP_REPS`` times.  Then a closed
loop with one client runs the workload's command (``evolve`` or
``analyze``, default flags) in a fresh child process, one run at a time,
starting runs until ``--seconds`` have passed and ``MIN_REPS`` are done.
Wall time is taken around each child; peak RSS and CPU come from that
child's own rusage.  Every run's outputs are checked (``bench/checks.py``).

The fixed program ``bench/calibrate.py`` runs before the first command and
after each one.  ``wall_cal`` is the median over runs of the command's wall
time divided by the mean wall time of the two calibration runs around it:
the command's cost in units of the calibration's ("cal"), which holds
still while a shared host's speed drifts.  ``setup_s`` is the median synth
wall time divided by the median calibration wall time, times
``CAL_REF_S``.  Raw wall times are printed and saved too.

With ``--trace 1`` untraced and traced runs alternate.  A traced run
executes ``bench/tracer.py``, which wraps the pipeline's layer entry
points and calls ``tracewatt.cli.main`` in-process; the per-layer metrics
are medians over traced runs.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A JSON record with every run, the fixture digest and the
machine goes to ``.bench_work/results/``.

``--record-reference`` (with ``--seed 0``) rewrites the workload's
reference outputs in ``bench/reference/`` from this run.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# tracewatt, and the bench modules that import it, are imported inside
# functions: main() first checks that src/ exists and says so if not.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 150.0
CLI = "import sys; from tracewatt.cli import main; sys.exit(main())"
CALIBRATE = BENCH / "calibrate.py"
# Wall time of one calibration run on the reference machine (the 2-vCPU
# virtual machine of bench/README.md's baseline, in a quiet period).
# setup_s is scaled by it so that it reads in that machine's seconds.
CAL_REF_S = 0.75


@dataclass(frozen=True)
class Workload:
    command: str  # "evolve" (fixture root) or "analyze" (its only revision)
    spec: str  # file name under bench/workloads/


WORKLOADS = {
    "suite_evolve": Workload("evolve", "suite_evolve.ini"),
    "long_stream_analyze": Workload("analyze", "long_stream_analyze.ini"),
    "many_revisions_evolve": Workload("evolve", "many_revisions_evolve.ini"),
}

END_TO_END_UNITS = {"wall_cal": "cal", "exec_per_cal": "1/cal", "peak_rss_mb": "MB",
                    "setup_s": "s"}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log: Path) -> ChildRun:
    """Run one child to completion; time it and read its own rusage."""
    with open(log, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=err, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. KeyboardInterrupt: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    return ChildRun(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode, text[-2000:],
    )


def seeded_spec(text: str, offset: int) -> str:
    """The spec with its seed shifted by ``offset``."""
    match = re.search(r"(?m)^seed = (\d+)$", text)
    if match is None:
        raise ValueError("spec has no 'seed = N' line")
    seed = int(match.group(1)) + offset
    return text[: match.start(1)] + str(seed) + text[match.end(1) :]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [median(xs)] * 3


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 work: Path, spec_text: "str | None" = None):
        from tracewatt import synth

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.default_spec = spec_text is None
        if spec_text is None:
            spec_text = (BENCH / "workloads" / self.workload.spec).read_text(encoding="utf-8")
        self.spec_text = seeded_spec(spec_text, seed)
        self.spec = synth.load_spec(self.spec_text)
        self.fixtures = [work / f"fixture-{i}" for i in range(SETUP_REPS + 1)]
        self.fixture = self.fixtures[-1]
        self.out = work / "out"
        self.problems = []
        self.runs = []  # dicts: kind, wall_s, cpu_s, peak_rss_mb, ok, problems
        self.cal_walls = []
        self.traces = []

    # -- set-up --------------------------------------------------------
    def setup(self, use_reference: bool = True):
        from bench import checks

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        spec_path = self.work / "spec.ini"
        spec_path.write_text(self.spec_text, encoding="utf-8")
        # The first synth run is a warm-up and is not timed.  Each run writes
        # a directory of its own, and all are removed only at clean-up:
        # deleting thousands of files just before a timed run slows it.
        self.setup_walls, digests = [], set()
        for fixture in self.fixtures:
            run = run_child(
                [sys.executable, "-c", CLI, "synth", str(spec_path), str(fixture)],
                self.work / "synth.log",
            )
            if run.status != 0:
                raise RuntimeError(f"tracewatt synth failed ({run.status}):\n{run.stderr}")
            if fixture != self.fixtures[0]:
                self.setup_walls.append(run.wall_s)
            digests.add(checks.tree_digest(fixture))
        if len(digests) != 1:
            self.problems.append("synth gave different fixtures for the same seed")
        self.digest = digests.pop()
        self.manifest = json.loads((self.fixture / "manifest.json").read_text(encoding="utf-8"))
        self.problems += checks.check_fixture(self.fixture, self.spec, self.manifest)
        self.reference = None
        ref_path = BENCH / "reference" / f"{self.name}.json"
        if use_reference and self.default_spec and self.seed == 0 and ref_path.is_file():
            self.reference = json.loads(ref_path.read_text(encoding="utf-8"))
            if self.reference["fixture_sha256"] != self.digest:
                self.problems.append(
                    f"fixture digest {self.digest} differs from the reference's "
                    f"{self.reference['fixture_sha256']}: synth output changed"
                )
                self.reference = None

    # -- one command run -----------------------------------------------
    def command_args(self) -> list:
        if self.workload.command == "evolve":
            target = self.fixture
        else:
            (label,) = [r.label for r in self.spec.revisions]
            target = self.fixture / label
        return [self.workload.command, str(target), "--out", str(self.out)]

    def run_once(self, traced: bool):
        from bench import checks, tracer

        shutil.rmtree(self.out, ignore_errors=True)
        index = len(self.runs)
        spans_path = self.work / f"spans-{index}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                    f"{self.name}-{self.seed}-{index}"] + self.command_args()
        else:
            argv = [sys.executable, "-c", CLI] + self.command_args()
        run = run_child(argv, self.work / "command.log")
        problems = []
        if run.status != 0:
            problems.append(f"exit status {run.status}: {run.stderr}")
        else:
            check = checks.check_evolve if self.workload.command == "evolve" else checks.check_analyze
            problems += check(self.out, self.spec, self.manifest)
            summary = checks.summarize(self.out, self.workload.command)
            if self.reference is not None:
                problems += checks.compare_to_reference(summary, self.reference["outputs"])[:20]
            digest = checks.tree_digest(self.out)
            if self.runs and digest != self.runs[0].get("output_sha256", digest):
                problems.append("outputs differ from the first run's: not deterministic")
        record = {
            "kind": "traced" if traced else "untraced",
            "wall_s": run.wall_s, "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb,
            "ok": not problems, "problems": problems,
        }
        if run.status == 0:
            record["output_sha256"] = digest
            self.last_summary = summary
        if traced and spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            record["layer_self_s"] = tracer.layer_self_seconds(trace)
            record["absent"] = trace["absent"]
            self.traces.append((run.wall_s, tracer.layer_metrics(trace)))
        self.runs.append(record)

    def calibrate(self):
        from bench import calibrate

        run = run_child([sys.executable, str(CALIBRATE)], self.work / "calibrate.log")
        if run.status != 0 or run.stderr.strip() != calibrate.CHECK:
            self.problems.append(f"calibration run failed ({run.status}): {run.stderr}")
        self.cal_walls.append(run.wall_s)

    def measure(self):
        start = time.perf_counter()
        min_rounds = MIN_TRACED_REPS if self.trace else MIN_REPS
        if not self.trace:
            self.calibrate()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - start < self.seconds:
            if self.trace:
                self.run_once(False)
                self.run_once(True)
            else:
                self.run_once(False)
                self.calibrate()
                run = self.runs[-1]
                run["cal_s"] = (self.cal_walls[-2] + self.cal_walls[-1]) / 2
                run["wall_cal"] = run["wall_s"] / run["cal_s"]
            rounds += 1

    # -- results -------------------------------------------------------
    def executions(self) -> int:
        per_revision = self.spec.tests * self.spec.samples_per_test
        if self.workload.command == "evolve":
            return per_revision * len(self.spec.revisions)
        return per_revision

    def metrics(self) -> dict:
        plain = [r for r in self.runs if r["kind"] == "untraced"]
        good = [r for r in plain if r["ok"]] or plain
        wall = min(r["wall_s"] for r in good)
        if not self.trace:
            wall_cal = median([r["wall_cal"] for r in good])
            values = {
                "wall_cal": wall_cal,
                "exec_per_cal": self.executions() / wall_cal,
                "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
                "setup_s": median(self.setup_walls) / median(self.cal_walls) * CAL_REF_S,
            }
            return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        traced_wall = min(w for w, _ in self.traces)
        out = {}
        for key, (_, unit) in self.traces[0][1].items():
            values = [m[key][0] for _, m in self.traces]
            # a count is the same in every run; keep it a whole number
            value = statistics.median_low(values) if unit == "count" else median(values)
            out[key] = {"value": value, "unit": unit}
        out["process.cpu_s"] = {"value": median([r["cpu_s"] for r in good]), "unit": "s"}
        out["bench.wall_s"] = {"value": wall, "unit": "s"}
        out["bench.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        out["bench.tracing_overhead_frac"] = {
            "value": traced_wall / wall - 1.0 if wall else 0.0, "unit": "frac",
        }
        return out

    def report(self, metrics: dict) -> dict:
        failed = sum(1 for r in self.runs if not r["ok"])
        attempted = len(self.runs)
        lines = [
            f"workload {self.name}: {self.workload.command}, seed offset {self.seed}, "
            f"{self.executions()} executions, fixture sha256 {self.digest[:16]}",
            f"runs: {attempted} ({failed} failed), failed_frac {failed / attempted:.4g}, "
            f"setup runs: {len(self.setup_walls)}",
        ]
        for problem in (self.problems + [p for r in self.runs for p in r["problems"]])[:20]:
            lines.append(f"FAIL: {problem}")
        plain = [r["wall_s"] for r in self.runs if r["kind"] == "untraced"]
        q1, _, q3 = quartiles(plain)
        lines.append(f"wall_s over {len(plain)} runs: best {min(plain):.4f}, "
                     f"median {median(plain):.4f}, quartiles {q1:.4f} .. {q3:.4f}")
        if self.cal_walls:
            ratios = [r["wall_cal"] for r in self.runs if "wall_cal" in r]
            r1, _, r3 = quartiles(ratios)
            lines.append(f"calibration wall_s over {len(self.cal_walls)} runs: "
                         f"best {min(self.cal_walls):.4f}, median {median(self.cal_walls):.4f}; "
                         f"wall_cal quartiles {r1:.4f} .. {r3:.4f}")
            lines.append(f"synth wall_s over {len(self.setup_walls)} timed runs: "
                         f"median {median(self.setup_walls):.4f}")
        for key, m in metrics.items():
            lines.append(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
        if self.trace:
            absent = sorted({a for r in self.runs for a in r.get("absent", [])})
            if absent:
                lines.append(f"absent wrapped names: {', '.join(absent)}")
            traced = [r for r in self.runs if r["kind"] == "traced"]
            wall = median([r["wall_s"] for r in traced])
            layers = sorted({k for r in traced for k in r["layer_self_s"]})
            lines.append("layer self time, share of traced wall:")
            for layer in layers:
                s = median([r["layer_self_s"].get(layer, 0.0) for r in traced])
                lines.append(f"  {layer:12s} {s:9.4f} s {100 * s / wall:6.1f} %")
        print("\n".join(lines))
        correct = failed == 0 and not self.problems
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def save(self, result: dict):
        results = self.work.parent / "results"
        results.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.name, "seed_offset": self.seed,
            "synth_seed": self.spec.seed, "seconds": self.seconds, "trace": self.trace,
            "fixture_sha256": self.digest, "setup_walls_s": self.setup_walls,
            "calibration_walls_s": self.cal_walls,
            "problems": self.problems, "runs": self.runs, "result": result,
            "machine": {
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "platform": platform.platform(),
            },
        }
        path = results / f"{self.name}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    def record_reference(self):
        ref_dir = BENCH / "reference"
        ref_dir.mkdir(exist_ok=True)
        payload = {"workload": self.name, "synth_seed": self.spec.seed,
                   "fixture_sha256": self.digest, "outputs": self.last_summary}
        (ref_dir / f"{self.name}.json").write_text(
            json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def cleanup(self):
        for fixture in self.fixtures:
            shutil.rmtree(fixture, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)


def run_workload(name, seed, seconds, trace, work, spec_text=None, record=False) -> dict:
    bench = Bench(name, seed, seconds, trace, work, spec_text)
    bench.setup(use_reference=not record)
    try:
        bench.measure()
        result = bench.report(bench.metrics())
        bench.save(result)
        if record:
            if not (bench.default_spec and seed == 0 and result["correct"]):
                raise RuntimeError("a reference is recorded only from a correct --seed 0 run")
            bench.record_reference()
    finally:
        bench.cleanup()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tracewatt" / "cli.py").is_file():
        print(f"error: {SRC / 'tracewatt'} not found; run from a tracewatt checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    work = ROOT / ".bench_work" / args.workload
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work,
                          record=args.record_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(SRC)]
    sys.exit(main())
