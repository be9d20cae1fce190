"""Revision-directory ingestion: file discovery, per-execution analysis
and assembly of revision datasets.

A revision directory holds ``traces/`` and ``power/`` subdirectories with
files named ``<test_name>.<sample_index>.trace`` / ``.power``; every trace
must have its matching power file and vice versa.  Discovery lists each
subdirectory with one ``os.scandir``, with no ``stat`` per plain file, and
checks each distinct test name once per process (``trace``'s cache).

The executions of every revision a command scans share one fan-out over
the CPUs the process may run on, as many as their size pays for
(``_analyze_executions``, ``_process_count``).

Each execution yields one ExecutionRecord: its test-window energy and U,
all that ``evolve`` reads.  Per-method attribution runs only when the
caller asks for rows: one flat tuple per call occurrence, in the column
order of METHOD_COLUMNS.  The process that analyzed a chunk of executions
turns their rows into ``methods.csv`` text (``csv_text``), which
``analyze`` writes below the header.

The records and their one rU normalization live here, beside the code
that produces them.  So ``analyze`` loads this module and the parser,
call-graph, U and energy modules it imports, and no statistics:
``evolution`` and ``stats`` load only with ``evolve`` and ``report``,
and ``evolution`` imports the records from here.
"""

import csv
import io
import marshal
import math
import os
from contextlib import suppress
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, NoReturn

from .apimetric import uapi
from .callgraph import build_call_trees, node_intervals
from .config import AnalysisConfig
from .energy import AttributionError, attribute, integrate, parse_power, shift_profile
from .trace import LineFormatError, TraceFormatError, _checked_test_name, _parse_uint, parse_trace


# (test_name, sample_index, trace path, power path), as scan_revision_dir finds it
Execution = tuple[str, int, str, str]


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


def scan_revision_dir(path: "Path | str") -> list[Execution]:
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

    def scan(directory: Path, suffix: str) -> dict[tuple[str, int], str]:
        found = {}
        with os.scandir(directory) as listing:
            entries = sorted(listing, key=attrgetter("name"))  # the Path order
        for entry in entries:
            if not _is_file(entry):
                continue
            parts = entry.name.rsplit(".", 2)
            if len(parts) != 3 or parts[2] != suffix:
                raise LayoutError(
                    f"{entry.path}: expected <test_name>.<sample_index>.{suffix}"
                )
            try:
                _checked_test_name(parts[0])
                sample = _parse_uint(parts[1], "sample_index")
            except ValueError as exc:
                raise LayoutError(f"{entry.path}: {exc}") from None
            found[(parts[0], sample)] = entry.path
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


def _read(path: str) -> bytes:
    """The file's bytes, read with os.read until end of file: no buffered
    file object.  An OSError names ``path``, as open() would."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 20):
            chunks.append(chunk)
    except OSError as exc:  # os.read names no file, a directory's included
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def csv_text(rows: Iterable) -> str:
    """``rows`` as CSV text, one line each, as every CSV output is
    written: csv.writer's cells are stable text, None an empty cell and a
    float its shortest round-trip repr (``inf`` included)."""
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def analyze_execution(
    test_name: str,
    sample_index: int,
    trace_path: str,
    power_path: str,
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
        trace = parse_trace(_read(trace_path))
        profile = parse_power(_read(power_path))
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


def _analyze_chunk(
    chunk: list[Execution], config: AnalysisConfig, with_rows: bool
) -> tuple[list[ExecutionRecord], str]:
    """analyze_execution over ``chunk``: its records, and its rows as
    methods.csv text, formed in the process that computed them."""
    records = []
    rows = []
    for execution in chunk:
        record, execution_rows = analyze_execution(*execution, config, with_rows)
        records.append(record)
        rows += execution_rows
    return records, csv_text(rows)


def _send_chunk(
    chunk: list[Execution], config: AnalysisConfig, with_rows: bool, write_fd: int
) -> NoReturn:
    """The forked child's whole life: analyze ``chunk`` and send its
    records, as plain tuples, and its text up the pipe as marshal data, or
    on any error send nothing and exit 1, leaving the error to the
    parent's rerun."""
    status = 1
    try:
        records, text = _analyze_chunk(chunk, config, with_rows)
        payload = marshal.dumps(([tuple(record) for record in records], text))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:  # whatever was raised, never unwind into the parent's frames
        os._exit(status)


# Input bytes that take about as long to analyze as one more process
# costs: its fork, its copy-on-write faults, the release of its pages when
# it ends in os._exit and its share of the machine.  n processes take about (n - 1) * cost + work / n, so the
# n-th pays off while n * (n - 1) of these fit in the input.  On a 2-vCPU
# VM a second process gained nothing end to end on 385 KB of input
# (evolve, 96 executions), 15 % on 1.4 MB and 21 % on 1.9 MB.
_PROCESS_COST_BYTES = 192 * 1024

# The layer functions analyze_execution calls through this module's names,
# as imported.  A tracer's span or a test's spy that replaces one sees only
# the calls made in its own process, so all executions then run in this one.
_LAYERS = {
    name: globals()[name]
    for name in ("parse_trace", "parse_power", "shift_profile", "build_call_trees",
                 "uapi", "node_intervals", "attribute", "integrate")
}


def _process_count(executions: list[Execution]) -> int:
    """How many processes analyze ``executions``: at most one per CPU this
    process may run on and one per execution, and no more than the input's
    size pays for.  Files are sized in scan order only until they pay for
    every CPU.  1 where the process cannot fork, or while a layer function
    is replaced (``_LAYERS``)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = min(len(os.sched_getaffinity(0)), len(executions))
    if cpus < 2 or any(globals()[name] is not fn for name, fn in _LAYERS.items()):
        return 1
    size = 0
    for _, _, trace_path, power_path in executions:
        if size >= cpus * (cpus - 1) * _PROCESS_COST_BYTES:
            break
        for path in (trace_path, power_path):
            with suppress(OSError):  # analyze_execution reports it, in order
                size += os.stat(path).st_size
    n = 1
    while n < cpus and (n + 1) * n * _PROCESS_COST_BYTES <= size:
        n += 1
    return n


def _reap(pid: int) -> None:
    with suppress(ChildProcessError):  # SIGCHLD ignored: the kernel reaped it
        os.waitpid(pid, 0)


def _analyze_executions(
    executions: list[Execution], config: AnalysisConfig, with_rows: bool
) -> tuple[list[ExecutionRecord], str]:
    """analyze_execution over ``executions``: the records in their order,
    and the methods.csv text of their rows.

    The executions are cut into ``_process_count`` contiguous chunks.  The
    parent forks a child for every chunk but the first, runs the first
    itself, then reads the children's results in chunk order.  A child
    that fails, dies or sends only part has its chunk run again by the
    parent, so the first error in execution order is raised, with its
    sequential text.  If the parent raises, every child still running is
    killed and reaped first.  With one chunk no child is forked at all.
    """
    n = _process_count(executions)
    chunks = [
        executions[len(executions) * i // n : len(executions) * (i + 1) // n]
        for i in range(n)
    ]
    children = {}  # chunk index -> (pid, read end of its pipe), until reaped
    try:
        for i in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the parent runs the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _send_chunk(chunks[i], config, with_rows, write_fd)
            # closed before the next fork, or that child would hold it open
            # and this pipe would never reach end of file
            os.close(write_fd)
            children[i] = (pid, open(read_fd, "rb"))
        records, text = _analyze_chunk(chunks[0], config, with_rows)
        texts = [text]
        sent = {}
        for i, (pid, pipe) in children.items():
            with pipe:
                sent[i] = pipe.read()
        # every pipe is at end of file, so each child has exited or is about
        # to; all are reaped before any chunk is run again
        for i in list(children):
            _reap(children[i][0])
            del children[i]
        for i in range(1, n):
            try:  # a child writes all its results or nothing, then exits
                sent_records, text = marshal.loads(sent.get(i, b""))
            except (EOFError, ValueError):  # nothing, or cut short: rerun
                chunk_records, text = _analyze_chunk(chunks[i], config, with_rows)
            else:
                chunk_records = map(ExecutionRecord._make, sent_records)
            records += chunk_records
            texts.append(text)
    finally:
        if children:
            from signal import SIGKILL  # only on this error path

            for pid, pipe in children.values():
                pipe.close()
                with suppress(ProcessLookupError):
                    os.kill(pid, SIGKILL)
            for pid, _ in children.values():
                _reap(pid)
    return records, "".join(texts)


def analyze_revision(
    revisions: list[tuple[str, list[Execution]]], config: AnalysisConfig, with_rows: bool,
) -> tuple[list[RevisionDataset], str]:
    """Analyze every execution that scan_revision_dir found in each named
    revision directory, in its (test_name, sample_index) order, with rU
    normalized over all of the revision's tests.  The executions of all
    revisions share one fan-out over the CPUs (_analyze_executions).
    Returns each revision's dataset, and the methods.csv text below the
    header of every revision's rows, empty unless ``with_rows``."""
    records, methods_csv = _analyze_executions(
        [execution for _, executions in revisions for execution in executions],
        config, with_rows,
    )
    analyzed = iter(records)
    datasets = []
    for revision, executions in revisions:
        kept = list(islice(analyzed, len(executions)))
        datasets.append(normalize_ruapi(revision, kept, {r.test_name for r in kept}))
    return datasets, methods_csv
