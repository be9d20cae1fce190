"""Revision-directory ingestion: file discovery, per-execution analysis
and assembly of revision datasets.

A revision directory holds ``traces/`` and ``power/`` subdirectories with
files named ``<test_name>.<sample_index>.trace`` / ``.power``; every trace
must have its matching power file and vice versa.  Discovery lists each
subdirectory with one ``os.scandir``, with no ``stat`` per plain file, and
checks each distinct test name once per process (``trace``'s cache).

Each execution yields one ExecutionRecord: its test-window energy and U,
all that ``evolve`` reads.  Per-method attribution runs only when the
caller asks for rows: one flat tuple per call occurrence, in the column
order of METHOD_COLUMNS, which ``analyze`` writes to ``methods.csv``.

The records and their one rU normalization live here, beside the code
that produces them.  So ``analyze`` loads this module and the parser,
call-graph, U and energy modules it imports, and no statistics:
``evolution`` and ``stats`` load only with ``evolve`` and ``report``,
and ``evolution`` imports the records from here.
"""

import math
import os
from operator import attrgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple

from .apimetric import uapi
from .callgraph import build_call_trees, node_intervals
from .config import AnalysisConfig
from .energy import AttributionError, attribute, integrate, parse_power, shift_profile
from .trace import LineFormatError, TraceFormatError, _checked_test_name, _parse_uint, parse_trace


class LayoutError(ValueError):
    """The on-disk revision layout is broken (missing or mispaired files)."""


class ExecutionRecord(NamedTuple):
    """One recorded execution of one test in one revision.

    root_uapi and api_interactions are the raw per-tree counts; ruapi is
    the normalized value U / (N + 1) where N sums api_interactions over
    all analyzed tests of the same sample run (see normalize_ruapi).
    """

    test_name: str
    sample_index: int
    energy_mj: float
    avg_power_mw: float
    duration_ms: float
    root_uapi: int
    api_interactions: int
    ruapi: float


class _DatasetFields(NamedTuple):
    revision: str
    records: tuple[ExecutionRecord, ...]


class RevisionDataset(_DatasetFields):
    __slots__ = ()

    def __new__(cls, revision: str, records: tuple[ExecutionRecord, ...]):
        self = super().__new__(cls, revision, records)
        seen = set()
        for r in self.records:
            key = (r.test_name, r.sample_index)
            if key in seen:
                raise ValueError(
                    f"revision {self.revision}: duplicate record for {key}"
                )
            seen.add(key)
        return self

    def test_names(self) -> set[str]:
        return {r.test_name for r in self.records}


def normalize_ruapi(
    revision: str, records: Iterable[ExecutionRecord], tests: Collection[str]
) -> RevisionDataset:
    """Keep the records of ``tests`` and set rU = U / (N + 1), where N
    sums the API interactions of the kept records of the same sample run."""
    kept = [r for r in records if r.test_name in tests]
    n_by_sample: dict[int, int] = {}
    for r in kept:
        n_by_sample[r.sample_index] = (
            n_by_sample.get(r.sample_index, 0) + r.api_interactions
        )
    return RevisionDataset(
        revision,
        tuple(
            r._replace(ruapi=r.root_uapi / (n_by_sample[r.sample_index] + 1))
            for r in kept
        ),
    )


# The columns of methods.csv; analyze_execution builds its rows in this order.
METHOD_COLUMNS = (
    "test_name", "sample_index", "thread", "depth", "t_start_ns", "duration_ns",
    "package", "class", "method", "api_label", "u_value",
    "energy_mj_inclusive", "energy_mj_exclusive", "avg_power_mw",
)


def _is_file(entry: os.DirEntry) -> bool:
    """Path.is_file() of a directory entry, with no stat for a plain file."""
    try:
        return entry.is_file()
    except OSError:  # a symlink loop, say, which Path.is_file() reads as False
        return Path(entry.path).is_file()


def scan_revision_dir(path: "Path | str") -> list[tuple[str, int, Path, Path]]:
    """Discover (test_name, sample_index, trace_path, power_path) tuples.

    Raises LayoutError on missing subdirectories, unparseable file names,
    or traces and power files that do not pair up.
    """
    root = Path(path)
    traces_dir = root / "traces"
    power_dir = root / "power"
    if not traces_dir.is_dir():
        raise LayoutError(f"{root}: missing traces/ directory")
    if not power_dir.is_dir():
        raise LayoutError(f"{root}: missing power/ directory")

    def scan(directory: Path, suffix: str) -> dict[tuple[str, int], Path]:
        found = {}
        with os.scandir(directory) as listing:
            entries = sorted(listing, key=attrgetter("name"))  # the Path order
        for entry in entries:
            if not _is_file(entry):
                continue
            path = directory / entry.name
            parts = entry.name.rsplit(".", 2)
            if len(parts) != 3 or parts[2] != suffix:
                raise LayoutError(
                    f"{path}: expected <test_name>.<sample_index>.{suffix}"
                )
            try:
                _checked_test_name(parts[0])
                sample = _parse_uint(parts[1], "sample_index")
            except ValueError as exc:
                raise LayoutError(f"{path}: {exc}") from None
            found[(parts[0], sample)] = path
        return found

    traces = scan(traces_dir, "trace")
    powers = scan(power_dir, "power")
    if not traces:
        raise LayoutError(f"{root}: no trace files found")
    for key in sorted(traces.keys() - powers.keys()):
        raise LayoutError(
            f"{root}: trace for {key[0]} sample {key[1]} has no matching power file"
        )
    for key in sorted(powers.keys() - traces.keys()):
        raise LayoutError(
            f"{root}: power file for {key[0]} sample {key[1]} has no matching trace"
        )
    return [
        (name, sample, traces[(name, sample)], powers[(name, sample)])
        for name, sample in sorted(traces)
    ]


def analyze_execution(
    test_name: str,
    sample_index: int,
    trace_path: Path,
    power_path: Path,
    config: AnalysisConfig,
    with_rows: bool,
) -> tuple[ExecutionRecord, list[tuple]]:
    """Analyze one (test, sample) execution: build the call tree, compute
    U values and integrate the test window's energy.

    Only ``with_rows`` (``analyze``) attributes energy to each call
    occurrence, one METHOD_COLUMNS row per node, and takes the test
    window's energy from the same walk over the samples; ``evolve``
    integrates the window alone and reads the record alone.  Every
    stretch lies inside the test window, so a power file fails with rows
    or without them alike.  The
    record's rU is NaN until normalize_ruapi sets it, because N sums over
    every execution of the same sample run.  A parse or attribution error
    is raised again, once, naming the file it came from.
    """
    try:
        trace = parse_trace(trace_path.read_bytes())
        profile = parse_power(power_path.read_bytes())
        for path, parsed in ((trace_path, trace), (power_path, profile)):
            if (parsed.test_name, parsed.sample_index) != (test_name, sample_index):
                raise LayoutError(
                    f"{path}: header names {parsed.test_name} sample "
                    f"{parsed.sample_index}, expected {test_name} sample {sample_index}"
                )
        profile = shift_profile(profile, config.power_clock_offset_us.get(test_name, 0.0))

        tree = build_call_trees(trace)
        metric = uapi(tree, config.classifier)
        start_ns = min((r.t_start_ns for r in tree.roots), default=0)
        end_ns = max((r.t_end_ns for r in tree.roots), default=0)
        if with_rows:
            intervals = node_intervals(tree)
            energies, energy_mj = attribute([node for node, _ in intervals], profile)
        elif end_ns > start_ns:
            energy_mj, _ = integrate(profile, (start_ns / 1000.0, end_ns / 1000.0))
        else:
            energy_mj = 0.0
        avg_power_mw = energy_mj / ((end_ns - start_ns) * 1e-9) if end_ns > start_ns else 0.0
    except (LineFormatError, AttributionError) as exc:
        path = trace_path if isinstance(exc, TraceFormatError) else power_path
        raise type(exc)(f"{path}: {exc}") from None

    rows = [
        (
            test_name, sample_index, node.thread, depth, node.t_start_ns,
            node.duration_ns, node.method.package, node.method.class_name,
            node.method.method, config.classifier.classify(node.method),
            metric.node_values.get(node, 0), inclusive, exclusive,
            inclusive / (node.duration_ns * 1e-9) if node.duration_ns > 0 else 0.0,
        )
        for (node, depth), (inclusive, exclusive) in zip(intervals, energies)
    ] if with_rows else []

    duration_ms = (end_ns - start_ns) / 1e6
    record = ExecutionRecord(
        test_name,
        sample_index,
        energy_mj,
        avg_power_mw,
        duration_ms,
        metric.root_uapi,
        metric.total_api_interactions,
        math.nan,
    )
    return record, rows


def analyze_revision(
    revision: str, executions: list[tuple[str, int, Path, Path]], config: AnalysisConfig,
    with_rows: bool,
) -> tuple[RevisionDataset, list[tuple]]:
    """Analyze every execution that scan_revision_dir found in a revision
    directory, in its (test_name, sample_index) order, with rU normalized
    over all of its tests.  Returns the dataset and the methods.csv rows,
    which are filled only ``with_rows``."""
    records = []
    method_rows = []
    for name, sample, trace_path, power_path in executions:
        record, rows = analyze_execution(name, sample, trace_path, power_path, config, with_rows)
        records.append(record)
        method_rows.extend(rows)
    return normalize_ruapi(revision, records, {r.test_name for r in records}), method_rows
