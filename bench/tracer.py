"""Traced run of one tracewatt command, in-process.

Wraps the module-level names through which the pipeline calls each layer,
records one span per call (name, start, end, parent, run id), then calls
``tracewatt.cli.main``.  Spans stay in memory and are written to a JSON
file when the command ends.  Nothing in the package is edited: a name is
replaced in the namespace it is looked up from, so only calls made
through that name are seen.

Usage (``src`` must be importable, e.g. ``PYTHONPATH=src``):

    python3 bench/tracer.py <spans.json> <run_id> <tracewatt args...>

``layer_metrics`` turns the spans of one run into the per-layer metrics.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name, count of work done by one call or None).
# The span name's prefix before the first dot is the layer.
SPANS = (
    ("tracewatt.cli", "main", "cli.main", None),
    ("tracewatt.cli", "analyze_revision", "ingest.analyze_revision", None),
    ("tracewatt.ingest", "scan_revision_dir", "ingest.scan",
     lambda args, out: 2 * len(out)),
    ("tracewatt.ingest", "parse_trace", "trace.parse",
     lambda args, out: len(out.events)),
    ("tracewatt.callgraph", "validate_trace", "trace.validate", None),
    ("tracewatt.ingest", "parse_power", "energy.power_parse",
     lambda args, out: len(out.samples)),
    ("tracewatt.ingest", "attribute", "energy.attribute",
     lambda args, out: len(args[0])),
    ("tracewatt.ingest", "integrate", "energy.test_window", None),
    ("tracewatt.ingest", "build_call_trees", "callgraph.build",
     lambda args, out: out.node_count),
    ("tracewatt.ingest", "node_intervals", "callgraph.intervals", None),
    ("tracewatt.ingest", "uapi", "apimetric.uapi",
     lambda args, out: out.total_api_interactions),
    ("tracewatt.evolution", "compare", "evolution.compare", None),
    ("tracewatt.evolution", "anova", "stats.anova", None),
    ("tracewatt.evolution", "tukey_hsd", "stats.tukey",
     lambda args, out: len(out)),
    ("tracewatt.stats", "ptukey", "stats.ptukey", None),
)

# Names called too often for a span each: only their calls are counted.
COUNTERS = (
    ("tracewatt.energy", "integrate", "energy.integrate"),
)


class Recorder:
    """Spans and call counts of one traced command run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [span id, name, start ns, end ns, parent id, count]
        self.counters = {}
        self.absent = []
        self._stack = []
        self._originals = []

    def span(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [span_id, name, time.perf_counter_ns(), 0, parent, None]
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                try:
                    record[5] = count(args, out)
                except (AttributeError, TypeError, IndexError):
                    pass  # the result changed shape: the count is absent
            return out

        return wrapper

    def counter(self, name, fn):
        self.counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every wrapped name that exists; list the others as absent."""
        wraps = [(m, a, lambda fn, n=n, c=c: self.span(n, fn, c)) for m, a, n, c in SPANS]
        wraps += [(m, a, lambda fn, n=n: self.counter(n, fn)) for m, a, n in COUNTERS]
        for module_name, attr, make in wraps:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, make(fn))

    def uninstall(self):
        """Put every replaced name back."""
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "count"],
            "spans": self.spans,
            "counters": self.counters,
            "absent": self.absent,
        }


def self_times(spans) -> dict:
    """Per span id: duration minus the time its direct children cover.

    Calls are synchronous and single-threaded, so children never overlap.
    """
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_self_seconds(trace: dict) -> dict:
    """Self time per layer (span-name prefix), in seconds."""
    own = self_times(trace["spans"])
    out = {}
    for s in trace["spans"]:
        layer = s[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s[0]] / 1e9
    return out


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    A layer that the command never entered (or whose wrapped name is
    absent) reads 0; a ratio over zero calls reads 0.
    """
    spans = trace["spans"]
    own = self_times(spans)
    total, calls, work, self_ns = {}, {}, {}, {}
    for s in spans:
        name = s[1]
        total[name] = total.get(name, 0) + s[3] - s[2]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[s[0]]
        if s[5] is not None:
            work[name] = work.get(name, 0) + s[5]

    def sec(name):
        return total.get(name, 0) / 1e9

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    integrate_calls = trace["counters"].get("energy.integrate", 0) + calls.get(
        "energy.test_window", 0
    )
    return {
        "ingest.scan_s": (sec("ingest.scan"), "s"),
        "ingest.files": (work.get("ingest.scan", 0), "count"),
        "ingest.self_s": (self_ns.get("ingest.analyze_revision", 0) / 1e9, "s"),
        "trace.parse_s": (sec("trace.parse"), "s"),
        "trace.events": (work.get("trace.parse", 0), "count"),
        "trace.parse_ns_per_event": (
            per(total.get("trace.parse", 0), work.get("trace.parse", 0)), "ns"),
        "trace.validate_s": (sec("trace.validate"), "s"),
        "trace.validate_per_parse": (
            per(calls.get("trace.validate", 0), calls.get("trace.parse", 0)), "ratio"),
        "energy.power_parse_s": (sec("energy.power_parse"), "s"),
        "energy.samples": (work.get("energy.power_parse", 0), "count"),
        "energy.power_parse_ns_per_sample": (
            per(total.get("energy.power_parse", 0), work.get("energy.power_parse", 0)),
            "ns"),
        "energy.attribute_s": (sec("energy.attribute"), "s"),
        "energy.intervals": (work.get("energy.attribute", 0), "count"),
        "energy.attribute_us_per_interval": (
            per(total.get("energy.attribute", 0), work.get("energy.attribute", 0), 1e-3),
            "us"),
        "energy.integrate_calls": (integrate_calls, "count"),
        "energy.test_window_s": (sec("energy.test_window"), "s"),
        "callgraph.build_s": (sec("callgraph.build"), "s"),
        "callgraph.nodes": (work.get("callgraph.build", 0), "count"),
        "callgraph.intervals_s": (sec("callgraph.intervals"), "s"),
        "apimetric.uapi_s": (sec("apimetric.uapi"), "s"),
        "apimetric.api_interactions": (work.get("apimetric.uapi", 0), "count"),
        "evolution.compare_s": (sec("evolution.compare"), "s"),
        "evolution.self_s": (self_ns.get("evolution.compare", 0) / 1e9, "s"),
        "stats.anova_s": (sec("stats.anova"), "s"),
        "stats.tukey_s": (sec("stats.tukey"), "s"),
        "stats.tukey_pairs": (work.get("stats.tukey", 0), "count"),
        "stats.ptukey_calls": (calls.get("stats.ptukey", 0), "count"),
        "stats.ptukey_ms_per_call": (
            per(total.get("stats.ptukey", 0), calls.get("stats.ptukey", 0), 1e-6), "ms"),
        "cli.write_s": (self_ns.get("cli.main", 0) / 1e9, "s"),
    }


def main(argv) -> int:
    spans_path, run_id, command = argv[0], argv[1], argv[2:]
    recorder = Recorder(run_id)
    recorder.install()
    from tracewatt import cli  # after install: cli.main is the wrapped one

    try:
        return cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
