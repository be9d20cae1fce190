"""Per-line reference parsers for the parity checks of the bulk parsers.

``reference_parse_trace`` and ``reference_parse_power`` read a file the
way the parsers did before they became one bulk pass: split into lines,
then one line and one field at a time.  They share only the trace field
checks (``_parse_uint``, ``_checked_method``) and the sequence walk with
``tracewatt``, so a difference in how the bulk passes split, match,
count or convert lines shows up as a difference in the value or in the
error (class, message and line).  The bulk parsers check names through
per-process caches, so ``parity_difference`` parses each input with the
caches emptied and again with them warm.  Nothing here is a test;
``tests/test_trace.py``, ``tests/test_energy.py`` and
``tests/fuzz_parsers.py`` compare against it with ``parity_difference``.
"""

import re
from typing import Callable, Iterator, Optional

from tracewatt import trace
from tracewatt.energy import PowerFormatError, PowerProfile
from tracewatt.trace import (
    LineFormatError,
    MethodId,
    TestTrace,
    TraceEvent,
    TraceFormatError,
    _checked_method,
    _parse_uint,
    _sequence_violations,
)

_NUMERAL = r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_SAMPLE_LINE_RE = re.compile(f"({_NUMERAL});({_NUMERAL})")
_NUMERAL_RE = re.compile(_NUMERAL)
_INF = float("inf")


def _read_lines(data, magic, version, n_fields, error):
    """The header's test name, sample index and remaining fields, and the
    list of lines after it."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"not valid UTF-8: {exc}", line=line) from None
    else:
        text = data

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise error("empty input, expected a header line", line=1)

    header = lines[0].split(";")
    magic_version = header[0].split(" ")
    if len(magic_version) != 2 or magic_version[0] != magic:
        raise error(f"bad header {lines[0]!r}", line=1)
    if magic_version[1] != version:
        raise error(f"unknown format version {magic_version[1]!r}", line=1)
    if len(header) != n_fields:
        raise error(f"header needs {n_fields} ;-separated fields", line=1)
    try:
        test_name = header[1]
        MethodId.from_canonical(test_name)
        sample_index = _parse_uint(header[2], "sample_index")
    except ValueError as exc:
        raise error(str(exc), line=1) from None
    return test_name, sample_index, header[3:], lines[1:]


def _parse_float(text, what):
    if _NUMERAL_RE.fullmatch(text) is None:
        raise ValueError(f"{what} must be a decimal number, got {text!r}")
    value = float(text)
    if value in (_INF, -_INF):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def _sample_line_error(line, prev_t):
    fields = line.split(";")
    if len(fields) != 2:
        return f"expected 2 ;-separated fields, got {len(fields)}"
    try:
        t_us = _parse_float(fields[0], "timestamp")
        power_mw = _parse_float(fields[1], "power")
    except ValueError as exc:
        return str(exc)
    if power_mw < 0:
        return f"negative power {power_mw}"
    return f"timestamp {t_us} not after {prev_t}"


def reference_parse_trace(data: "bytes | str") -> TestTrace:
    test_name, sample_index, _, lines = _read_lines(data, "#trace", "v1", 3, TraceFormatError)
    events = []

    def scan() -> Iterator[TraceEvent]:
        for lineno, line in enumerate(lines, start=2):
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
                # at most the 19 digits of a signed 64-bit nanosecond clock
                if re.fullmatch("[1-9][0-9]{19,}", t_s):
                    raise ValueError(f"timestamp has {len(t_s)} digits, more than 19")
                t_ns = _parse_uint(t_s, "timestamp")
                method = _checked_method(package, class_name, method_name)
            except ValueError as exc:
                raise TraceFormatError(str(exc), line=lineno) from None
            event = TraceEvent(kind, method, thread, t_ns)
            events.append(event)
            yield event

    for idx, message in _sequence_violations(scan(), {}):
        event_lines = [
            n for n, line in enumerate(lines, start=2) if not line.startswith("#")
        ]
        raise TraceFormatError(message, line=event_lines[idx])
    return TestTrace(test_name, sample_index, tuple(events))


def reference_parse_power(data: "bytes | str") -> PowerProfile:
    test_name, sample_index, (rate_text,), lines = _read_lines(
        data, "#power", "v1", 4, PowerFormatError
    )
    try:
        rate_hz = _parse_float(rate_text, "nominal_rate_hz")
        if rate_hz <= 0:
            raise ValueError(f"nominal_rate_hz must be > 0, got {rate_hz}")
    except ValueError as exc:
        raise PowerFormatError(str(exc), line=1) from None

    samples = []
    prev_t = -_INF
    for lineno, line in enumerate(lines, start=2):
        match = _SAMPLE_LINE_RE.fullmatch(line)
        if match is None:
            if line.startswith("#"):
                continue
            raise PowerFormatError(_sample_line_error(line, prev_t), line=lineno)
        t_us = float(match.group(1))
        power_mw = float(match.group(2))
        if not (prev_t < t_us < _INF and 0.0 <= power_mw < _INF):
            raise PowerFormatError(_sample_line_error(line, prev_t), line=lineno)
        prev_t = t_us
        samples.append((t_us, power_mw))
    return PowerProfile(test_name, sample_index, rate_hz, tuple(samples))


def _outcome(parse: Callable, data) -> tuple:
    try:
        value = parse(data)
    except LineFormatError as exc:
        return ("error", type(exc).__name__, str(exc), exc.line)
    except Exception as exc:  # any other class is a difference by itself
        return ("crash", type(exc).__name__, str(exc))
    # repr tells -0.0 from 0.0 and a TraceEvent from a plain tuple
    return ("value", value, repr(value))


def clear_name_caches() -> None:
    """Empty the per-process caches of checked method keys and test names."""
    trace._method_of_key.cache_clear()
    trace._checked_test_name.cache_clear()


def parity_difference(parse: Callable, reference: Callable, data) -> Optional[str]:
    """None if ``parse`` and ``reference`` both return equal values for
    ``data``, or both raise the same LineFormatError class with the same
    message and line; else a description of the difference.  ``parse``
    runs twice, with the name caches emptied and then holding what the
    first run put there, and both runs must agree with ``reference``."""
    clear_name_caches()
    cold = _outcome(parse, data)
    warm = _outcome(parse, data)
    want = _outcome(reference, data)
    if cold == warm == want and cold[0] != "crash":
        return None
    return f"input {data!r}:\n  cold {cold}\n  warm {warm}\n  want {want}"
