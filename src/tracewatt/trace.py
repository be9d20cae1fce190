r"""Call-trace event model and its line-oriented file format.

A trace file is UTF-8 text with LF line endings:

    #trace v1;<test_name>;<sample_index>
    E;<thread>;<t_ns>;<package>;<class>;<method>
    X;<thread>;<t_ns>;<package>;<class>;<method>

``E`` marks a method entry, ``X`` the matching exit.  Timestamps are
nanoseconds relative to test start.  Threads, timestamps and the sample
index are unsigned decimal integers ``0|[1-9][0-9]*``, so parse-then-write
keeps their bytes.  A timestamp has at most 19 digits, so it fits any
signed 64-bit nanosecond clock and converts to a float; a longer one is
an error on its line.  Lines starting with ``#`` after the header are
comments.  Fields are ``;``-separated, so no escaping is needed: class
and method names match ``[^;:.\s]+``, packages are such names joined by
single dots.  The records check nothing: :func:`parse_trace` checks
every field and the sequence rules and nests the events into
:class:`CallNode` trees in one walk.

The call tree of a test is its :class:`CallTree`: the trace's top-level
calls, ordered by thread id and then in Enter order
(:func:`build_call_trees`).  :func:`node_intervals` lists its nodes with
their depths in start order, the order in which energy is attributed.

Parsing is one bulk pass per file: one ``findall`` of the event-line
regex checks kinds, threads and timestamps, and one loop builds the
events for the sequence walk.  Names are checked once per process:
bounded caches map each distinct ``package;class;method`` key to its
:class:`MethodId` (or None if it is bad) and check each test name.  Only
a file with a bad line or a sequence violation is read again line by
line, to name the first bad line.  Transient memory is linear in the file.
"""

import re
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

TRACE_VERSION = "v1"
_HEADER_MAGIC = "#trace"
_UINT_RE = re.compile("0|[1-9][0-9]*")
_NAME_RE = re.compile(r"[^;:.\s]+")
_PACKAGE_RE = re.compile(rf"{_NAME_RE.pattern}(?:\.{_NAME_RE.pattern})*")
_METHOD_KEY_RE = re.compile(rf"{_PACKAGE_RE.pattern};{_NAME_RE.pattern};{_NAME_RE.pattern}")
_TIMESTAMP_DIGITS = 19  # a signed 64-bit nanosecond clock's, Android's included
# An event line's checked kind, thread and timestamp, and the rest of the
# line as the method key.  [0-9], not \d, which also matches digits such as
# "\u0661" that int() reads.
_EVENT_LINE_RE = re.compile(
    rf"^([EX]);({_UINT_RE.pattern});(0|[1-9][0-9]{{0,{_TIMESTAMP_DIGITS - 1}}});(.*)$", re.M
)
_NAME_CACHE_SIZE = 4096  # distinct names per cache; past it, names are checked again


class LineFormatError(ValueError):
    """A line-oriented file violates its format; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TraceFormatError(LineFormatError):
    """A trace file or trace value violates the format or its invariants."""


class MethodId(NamedTuple):
    """Fully qualified method identity: ``package.class::method``."""

    package: str
    class_name: str
    method: str

    def canonical(self) -> str:
        return f"{self.package}.{self.class_name}::{self.method}"

    @classmethod
    def from_canonical(cls, text: str) -> "MethodId":
        """The checked MethodId of a test name read from text."""
        qualified, sep, method = text.partition("::")
        if not sep:
            raise ValueError(f"method name {text!r} lacks '::'")
        package, sep, class_name = qualified.rpartition(".")
        if not sep:
            raise ValueError(f"method name {text!r} lacks a package prefix")
        return _checked_method(package, class_name, method)


def _checked_method(package: str, class_name: str, method: str) -> MethodId:
    """The MethodId of three text fields; raises ValueError naming the
    first field that breaks the identifier grammar."""
    for what, value, pattern in (
        ("package", package, _PACKAGE_RE),
        ("class", class_name, _NAME_RE),
        ("method", method, _NAME_RE),
    ):
        if pattern.fullmatch(value) is None:
            raise ValueError(f"{what} {value!r} does not match {pattern.pattern}")
    return MethodId(package, class_name, method)


@lru_cache(maxsize=_NAME_CACHE_SIZE)
def _method_of_key(key: str) -> "MethodId | None":
    """The MethodId of an event line's ``package;class;method`` key, or
    None if the key breaks the identifier grammar."""
    if _METHOD_KEY_RE.fullmatch(key) is None:
        return None
    return MethodId(*key.split(";"))


# The check of a test name read from text: a header, a file name or a
# config key.  A ValueError is not cached, so it is raised on every call.
_checked_test_name = lru_cache(maxsize=_NAME_CACHE_SIZE)(MethodId.from_canonical)


class TraceEvent(NamedTuple):
    kind: str  # the file's code: "E" enters, "X" exits
    method: MethodId
    thread: int
    t_ns: int


class CallNode:
    """One call occurrence. Identity (not structure) keyed, so repeated
    identical calls remain distinct nodes."""

    __slots__ = ("method", "thread", "t_start_ns", "duration_ns", "children")

    def __init__(
        self, method: MethodId, thread: int, t_start_ns: int, duration_ns: int,
        children: tuple["CallNode", ...] = (),
    ):
        self.method = method
        self.thread = thread
        self.t_start_ns = t_start_ns
        self.duration_ns = duration_ns
        self.children = children

    @property
    def t_end_ns(self) -> int:
        return self.t_start_ns + self.duration_ns


class _TraceFields(NamedTuple):
    test_name: str
    sample_index: int
    events: tuple[TraceEvent, ...] = ()


class TestTrace(_TraceFields):
    """All events recorded for one execution of one test.

    ``sample_index`` identifies which of the repeated executions of the
    test this trace belongs to.  Construction checks nothing:
    :func:`parse_trace` checks every field and the sequence rules
    (per-thread timestamp order, balanced Enter/Exit nesting), and
    :attr:`top_level_calls` checks the sequence rules of a trace built in
    code.  No ``__slots__``, so the instance dict caches the nesting.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    @cached_property
    def top_level_calls(self) -> dict[int, list[CallNode]]:
        """Thread id -> its top-level calls, nested, in Enter order.  Raises
        TraceFormatError ``invalid trace: event N: ...`` if invalid."""
        top_level: dict[int, list[CallNode]] = {}
        for idx, message in _sequence_violations(self.events, top_level):
            raise TraceFormatError(f"invalid trace: event {idx}: {message}")
        return top_level


class CallTree(NamedTuple):
    """One test's call forest: its top-level calls, ordered by thread id,
    then in Enter order."""

    roots: tuple[CallNode, ...] = ()

    @property
    def node_count(self) -> int:
        """Number of nodes; equals the Enter-event count."""
        count = 0
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count


def build_call_trees(trace: TestTrace) -> CallTree:
    """Build the per-test call tree forest from a balanced trace.

    Node order follows Enter order; a node's duration is the timestamp
    difference between its Exit and Enter events.  Raises
    TraceFormatError if the trace violates its invariants.
    """
    calls = trace.top_level_calls
    return CallTree(tuple(node for thread in sorted(calls) for node in calls[thread]))


def node_intervals(tree: CallTree) -> list[tuple[CallNode, int]]:
    """Per-occurrence (node, depth) pairs ordered by start time.

    Depth counts nesting from the top-level call (depth 0).  Ties on
    t_start_ns keep parent-before-child (pre-order) ordering.
    """
    out: list[tuple[CallNode, int]] = []
    stack = [(node, 0) for node in reversed(tree.roots)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    out.sort(key=lambda pair: pair[0].t_start_ns)
    return out


def _parse_uint(text: str, what: str) -> int:
    if _UINT_RE.fullmatch(text) is None:
        raise ValueError(
            f"{what} must be an unsigned decimal integer without leading zeros, "
            f"got {text!r}"
        )
    return int(text)


def _read_line_file(
    data: "bytes | str", magic: str, version: str, n_fields: int,
    error: "type[LineFormatError]",
) -> tuple[str, int, list[str], str]:
    """Decode a ``<magic> <version>;<test_name>;<sample_index>[;...]`` file:
    check UTF-8 and the header, raising ``error`` with the line number.
    Returns the test name, the sample index, the header's remaining fields
    and the text after the header: empty, or lines that each end in LF
    (a missing final LF is added), the first of them line 2.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"not valid UTF-8: {exc}", line=line) from None
    else:
        text = data
    if not text:
        raise error("empty input, expected a header line", line=1)
    if not text.endswith("\n"):
        text += "\n"

    header_line, _, body = text.partition("\n")
    header = header_line.split(";")
    magic_version = header[0].split(" ")
    if len(magic_version) != 2 or magic_version[0] != magic:
        raise error(f"bad header {header_line!r}", line=1)
    if magic_version[1] != version:
        raise error(f"unknown format version {magic_version[1]!r}", line=1)
    if len(header) != n_fields:
        raise error(f"header needs {n_fields} ;-separated fields", line=1)
    try:
        test_name = header[1]
        _checked_test_name(test_name)
        sample_index = _parse_uint(header[2], "sample_index")
    except ValueError as exc:
        raise error(str(exc), line=1) from None
    return test_name, sample_index, header[3:], body


def _sequence_violations(events: Iterable[TraceEvent], top_level: dict) -> Iterator[tuple[int, str]]:
    """Yield (event index, message) for each violation of the sequence
    rules: per thread, timestamps never decrease and Enter/Exit events
    nest.  Lazy, so a violation comes before any later event is read.
    Frames never exited come last, at their Enter, innermost first.
    Each Exit closes its frame into a CallNode under the enclosing frame
    or in ``top_level[thread]``; valid only if nothing was yielded.
    """
    last_t: dict[int, int] = {}
    stacks: dict[int, list[tuple[MethodId, int, int, list[CallNode]]]] = {}
    for idx, ev in enumerate(events):
        thread = ev.thread
        t_ns = ev.t_ns
        prev = last_t.get(thread)
        if prev is not None and t_ns < prev:
            yield idx, f"timestamp {t_ns} before {prev} on thread {thread}"
        last_t[thread] = t_ns

        stack = stacks.get(thread)
        if stack is None:
            stack = stacks[thread] = []
        if ev.kind == "E":
            stack.append((ev.method, idx, t_ns, []))
        elif not stack:
            yield idx, (
                f"exit of {ev.method.canonical()} with no open frame on thread {thread}"
            )
        else:
            open_method, _, t_start, children = stack.pop()
            if open_method != ev.method:
                yield idx, (
                    f"exit of {ev.method.canonical()} does not match open frame "
                    f"{open_method.canonical()} on thread {thread}"
                )
            node = CallNode(open_method, thread, t_start, t_ns - t_start, tuple(children))
            if stack:
                stack[-1][3].append(node)
            else:
                top_level.setdefault(thread, []).append(node)
    for thread, stack in stacks.items():
        for method, idx, _, _ in reversed(stack):
            yield idx, (
                f"unbalanced trace: {method.canonical()} entered on thread {thread} "
                f"is never exited"
            )


def parse_trace(data: "bytes | str") -> TestTrace:
    """Parse trace-format text into a TestTrace, enforcing all invariants.

    Raises TraceFormatError (with the offending line number) on malformed
    lines, unknown format versions, per-thread timestamp regressions and
    unbalanced or mismatched Enter/Exit nesting; the first bad line wins.
    Never raises anything else on arbitrary input bytes.
    """
    test_name, sample_index, _, body = _read_line_file(
        data, _HEADER_MAGIC, TRACE_VERSION, 3, TraceFormatError
    )
    rows = _EVENT_LINE_RE.findall(body)
    # Each match is one whole line, and no comment line matches, so every
    # line matched iff the counts agree.
    comments = body.startswith("#") + body.count("\n#")
    if len(rows) != body.count("\n") - comments:
        _raise_first_bad_line(body)
    events = []
    new_event = tuple.__new__
    for kind, thread, t_ns, key in rows:
        method = _method_of_key(key)
        if method is None:
            _raise_first_bad_line(body)
        events.append(new_event(TraceEvent, (kind, method, int(thread), int(t_ns))))
    top_level: dict[int, list[CallNode]] = {}
    for _ in _sequence_violations(events, top_level):
        _raise_first_bad_line(body)
    trace = TestTrace(test_name, sample_index, tuple(events))
    vars(trace)["top_level_calls"] = top_level  # the walk above nested the events
    return trace


def _raise_first_bad_line(body: str) -> None:
    """Raise the TraceFormatError of the first bad line of a trace body
    that the bulk pass of parse_trace refused.  Lines are read and walked
    one at a time, so a sequence violation before a malformed line wins."""
    event_lines = []

    def scan() -> Iterator[TraceEvent]:
        for lineno, line in enumerate(body.split("\n")[:-1], start=2):
            if line.startswith("#"):
                continue
            fields = line.split(";")
            if len(fields) != 6:
                raise TraceFormatError(
                    f"expected 6 ;-separated fields, got {len(fields)}", line=lineno
                )
            kind, thread_s, t_s, package, class_name, method_name = fields
            if kind not in ("E", "X"):
                raise TraceFormatError(f"unknown event kind {kind!r}", line=lineno)
            try:
                thread = _parse_uint(thread_s, "thread")
                if len(t_s) > _TIMESTAMP_DIGITS and _UINT_RE.fullmatch(t_s):
                    raise ValueError(
                        f"timestamp has {len(t_s)} digits, more than {_TIMESTAMP_DIGITS}"
                    )
                t_ns = _parse_uint(t_s, "timestamp")
                method = _checked_method(package, class_name, method_name)
            except ValueError as exc:
                raise TraceFormatError(str(exc), line=lineno) from None
            event_lines.append(lineno)
            yield TraceEvent(kind, method, thread, t_ns)

    for idx, message in _sequence_violations(scan(), {}):
        raise TraceFormatError(message, line=event_lines[idx])


def _render_trace(test_name: str, sample_index: int, rows: Iterable[tuple]) -> str:
    """Trace-format text: the header, then one line per ``(kind code,
    thread, t_ns, package, class, method)`` row.  Checks nothing; callers
    pass rows that satisfy the sequence invariants."""
    out = [f"{_HEADER_MAGIC} {TRACE_VERSION};{test_name};{sample_index}"]
    out.extend(f"{k};{thread};{t_ns};{p};{c};{m}" for k, thread, t_ns, p, c, m in rows)
    return "\n".join(out) + "\n"


def validate_trace(trace: TestTrace) -> list[str]:
    """Report every sequence-level invariant violation; empty means valid.

    Violations are data, not errors: the input is never mutated and this
    never raises.  Each message cites the 0-based event index.
    """
    return [
        f"event {idx}: {message}" for idx, message in _sequence_violations(trace.events, {})
    ]
