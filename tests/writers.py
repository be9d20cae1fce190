"""The checked writers of both file formats, for the round-trip tests.

Both render through the package's renderers (``trace._render_trace`` and
``energy._render_power``, which ``tracewatt synth`` uses too) and check
their text with the package's parser, so text they return is text that
``tracewatt`` accepts.
"""

from tracewatt.energy import PowerProfile, _render_power, parse_power
from tracewatt.trace import TestTrace, TraceFormatError, _render_trace, parse_trace


def write_trace(trace: TestTrace) -> str:
    """Render a TestTrace to canonical trace-format text, returned only if
    parse_trace gives the same trace back; else raises TraceFormatError
    ``invalid trace: line N: ...`` or ``invalid trace: its text parses to
    a different trace`` (a thread ``"1"`` parses as ``1``)."""
    text = _render_trace(
        trace.test_name,
        trace.sample_index,
        (
            (ev.kind, ev.thread, ev.t_ns, ev.method.package,
             ev.method.class_name, ev.method.method)
            for ev in trace.events
        ),
    )
    try:
        same = parse_trace(text) == TestTrace(
            trace.test_name, trace.sample_index, tuple(trace.events)
        )
    except TraceFormatError as exc:
        raise TraceFormatError(f"invalid trace: {exc}") from None
    if not same:
        raise TraceFormatError("invalid trace: its text parses to a different trace")
    return text


def write_power(profile: PowerProfile) -> str:
    """Render to canonical power-format text; parse_power round-trips it.
    A profile whose text parse_power refuses raises its PowerFormatError."""
    text = _render_power(
        profile.test_name, profile.sample_index, profile.nominal_rate_hz, profile.samples
    )
    parse_power(text)
    return text
