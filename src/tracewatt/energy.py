"""Power-sample streams, energy integration and per-method attribution.

A power file is UTF-8 text with LF line endings:

    #power v1;<test_name>;<sample_index>;<nominal_rate_hz>
    <t_us>;<power_mw>

Timestamps are microseconds relative to test start (the same clock base
as trace timestamps) and must be strictly increasing.  Timestamps, power
values and ``nominal_rate_hz`` are decimal numerals matching
``-?[0-9]+(\\.[0-9]+)?(e[-+][0-9]+)?`` whose value is finite.  That is
every ``repr`` of a finite float (``1e-05``, ``1.5e+20``, ``-0.0``) and
plain integers such as ``20000``.  Other spellings ``float()`` accepts
(``1_0``, `` 5``, ``+.5``, ``5.``, ``1E5``, ``nan``) are rejected.

Parsing is one bulk pass per file: comment lines are dropped, a
line-anchored regex checks that every other line is a sample line,
``split`` and ``map(float, ...)`` read every value, and ``min``, ``max``
and one pairwise comparison check sign, finiteness and order.  Only a
file with a bad line is read line by line, which names the first bad
line.  Transient memory is linear in the file; one ``fullmatch`` of a
repeated line pattern over the whole text would keep a regex
backtracking entry per line, tens of times more.

Energy is the trapezoidal integral of power over a time window: mW times
seconds gives millijoules.  ``integrate`` takes an increasing sequence of
times and returns the energy of the window they span and of each piece
between two consecutive times, straight from the profile's samples: one
bisection finds the first segment, O(log S) for S samples, and one walk
takes one step per segment and per time.  Each result is the float that
a walk over its own span alone would give.

Attribution integrates each stretch of an execution once.  A frame owns
the stretches of its window that its children leave; a stretch owned by
the frames of c concurrent threads is split equally among them; a stretch
that no frame owns is left unattributed.  So exclusive energies are sums
of non-negative shares, and they plus the unattributed stretches add up
to the test window's energy.  The stretches and the gaps between them
tile the test window, so one ``integrate`` call per execution gives every
stretch and the window itself.  The cost is O(E log E + S) for E call
boundaries: the sort of the boundaries and the walk over the samples,
with no bisection per stretch.
"""

import re
from bisect import bisect_right
from operator import itemgetter, lt
from typing import Iterable, NamedTuple, Sequence

from .callgraph import CallNode
from .trace import LineFormatError, _read_line_file

POWER_VERSION = "v1"
_HEADER_MAGIC = "#power"

MJ_PER_MW_US = 1e-6

# (?:x|) is (?:x)? spelled as a branch, which the regex engine matches
# faster than an optional repeat.
_NUMERAL = r"-?[0-9]+(?:\.[0-9]+|)(?:e[-+][0-9]+|)"
_NUMERAL_RE = re.compile(_NUMERAL)
_SAMPLE_LINE_RE = re.compile(f"^{_NUMERAL};{_NUMERAL}\n", re.M)
_COMMENT_LINE_RE = re.compile("^#.*\n", re.M)
_INF = float("inf")


class PowerFormatError(LineFormatError):
    """A power file violates the format or its invariants."""


class AttributionError(ValueError):
    """Energy cannot be attributed: fewer than two power samples, or a
    window that is empty or outside the sampled range."""


class PowerProfile(NamedTuple):
    test_name: str
    sample_index: int
    nominal_rate_hz: float
    samples: tuple[tuple[float, float], ...] = ()  # (t_us, power_mw) pairs


def _parse_float(text: str, what: str) -> float:
    if _NUMERAL_RE.fullmatch(text) is None:
        raise ValueError(f"{what} must be a decimal number, got {text!r}")
    value = float(text)
    if value in (_INF, -_INF):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def parse_power(data: "bytes | str") -> PowerProfile:
    """Parse power-format text; rejects non-canonical numerals,
    non-increasing timestamps and negative power with the offending line
    number."""
    test_name, sample_index, (rate_text,), body = _read_line_file(
        data, _HEADER_MAGIC, POWER_VERSION, 4, PowerFormatError
    )
    try:
        rate_hz = _parse_float(rate_text, "nominal_rate_hz")
        if rate_hz <= 0:
            raise ValueError(f"nominal_rate_hz must be > 0, got {rate_hz}")
    except ValueError as exc:
        raise PowerFormatError(str(exc), line=1) from None

    # Each match is one whole line, LF included, so the lines left after the
    # comments are sample lines only iff removing them leaves nothing.  The
    # comment sub runs only on a body with a "#": where nothing matches, it
    # still costs about two thirds of the sample sub.
    text = _COMMENT_LINE_RE.sub("", body) if "#" in body else body
    if _SAMPLE_LINE_RE.sub("", text):
        _raise_first_bad_line(body)
    fields = text.replace("\n", ";").split(";")
    fields.pop()  # the empty text after the last LF
    values = list(map(float, fields))
    del fields  # the largest transient: one str per field
    ts, ps = values[0::2], values[1::2]
    if ts and not (
        -_INF < ts[0] and ts[-1] < _INF and 0.0 <= min(ps) and max(ps) < _INF
        and all(map(lt, ts, ts[1:]))
    ):
        _raise_first_bad_line(body)
    return PowerProfile(test_name, sample_index, rate_hz, tuple(zip(ts, ps)))


def _raise_first_bad_line(body: str) -> None:
    """Raise the PowerFormatError of the first bad line of a power body
    that the bulk pass of parse_power refused."""
    prev_t = -_INF
    for lineno, line in enumerate(body.split("\n")[:-1], start=2):
        if line.startswith("#"):
            continue
        fields = line.split(";")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 ;-separated fields, got {len(fields)}")
            t_us = _parse_float(fields[0], "timestamp")
            power_mw = _parse_float(fields[1], "power")
            if power_mw < 0:
                raise ValueError(f"negative power {power_mw}")
            if not t_us > prev_t:
                raise ValueError(f"timestamp {t_us} not after {prev_t}")
        except ValueError as exc:
            raise PowerFormatError(str(exc), line=lineno) from None
        prev_t = t_us


def _render_power(
    test_name: str, sample_index: int, nominal_rate_hz: float,
    samples: "Iterable[tuple[float, float]]",
) -> str:
    """Power-format text: the header, then one line per ``(t_us,
    power_mw)`` sample.  Checks nothing; callers pass increasing
    timestamps and non-negative power."""
    out = [f"{_HEADER_MAGIC} {POWER_VERSION};{test_name};{sample_index};{nominal_rate_hz!r}"]
    out.extend(f"{t_us!r};{power_mw!r}" for t_us, power_mw in samples)
    return "\n".join(out) + "\n"


def shift_profile(profile: PowerProfile, offset_us: float) -> PowerProfile:
    """Shift the power clock by a constant, aligning it with the trace clock."""
    if offset_us == 0:
        return profile
    return PowerProfile(
        profile.test_name,
        profile.sample_index,
        profile.nominal_rate_hz,
        tuple((t_us + offset_us, power_mw) for t_us, power_mw in profile.samples),
    )


def _check_window(samples: "tuple[tuple[float, float], ...]", a_us: float, b_us: float) -> None:
    """Raise the AttributionError of a window [a_us, b_us] that cannot be
    integrated from ``samples``."""
    if len(samples) < 2:
        raise AttributionError(
            f"need at least 2 power samples to integrate, got {len(samples)}"
        )
    if not a_us < b_us:
        raise AttributionError(f"bad window [{a_us}, {b_us}]")
    t_first, t_last = samples[0][0], samples[-1][0]
    if a_us < t_first or b_us > t_last:
        raise AttributionError(
            f"window [{a_us}, {b_us}] outside sampled range [{t_first}, {t_last}]"
        )


def integrate(profile: PowerProfile, times: "Sequence[float]") -> tuple[float, list[float]]:
    """Trapezoidal energy in millijoules over the window [times[0],
    times[-1]] and over each piece [times[i], times[i + 1]], in one walk.

    ``times`` must increase, and the window must lie within the sampled
    range.  Power is linearly interpolated, so the result is exact for
    piecewise-linear power.  The window and each piece get the float of a
    walk over their own span alone: segment by segment, left to right,
    from where a bisection of the span's left end puts it, carrying each
    segment's right-end power ``p0 + (p1 - p0)``, which need not equal
    ``p1`` in floats.  So the window need not equal the sum of the pieces.
    """
    samples = profile.samples
    a_us, b_us = times[0], times[-1]
    _check_window(samples, a_us, b_us)
    ends = times[1:]  # of the pieces
    if len(ends) > 1 and not all(map(lt, times, ends)):  # _check_window orders 2
        raise AttributionError("times must increase")
    # t_first <= a_us < b_us <= t_last, so samples k - 1 and k bound the
    # segment holding a_us, and the walk stops at the segment reaching b_us.
    k = bisect_right(samples, a_us, key=itemgetter(0))
    t0, p0 = samples[k - 1]
    t1, p1 = samples[k]
    window_mw_us = piece_mw_us = 0.0
    pieces = []
    # (t_win, p_win) and (t_lo, p_lo) start the window's and the piece's
    # part of the current segment.  The first piece starts with the window,
    # so it shares the window's sum, and two times keep one accumulator.
    t_win = a_us
    p_win = p0 + (p1 - p0) * ((a_us - t0) / (t1 - t0))
    for t_hi in ends:
        while t1 < t_hi:
            p_end = p0 + (p1 - p0)
            window_mw_us += 0.5 * (p_win + p_end) * (t1 - t_win)
            if pieces:
                piece_mw_us += 0.5 * (p_lo + p_end) * (t1 - t_lo)
                t_lo, p_lo = t1, p_end
            t_win = t0 = t1
            p_win, p0 = p_end, p1
            k += 1
            t1, p1 = samples[k]
        p_hi = p0 + (p1 - p0) * ((t_hi - t0) / (t1 - t0))
        if not pieces:
            t_lo, p_lo, piece_mw_us = t_win, p_win, window_mw_us
        pieces.append((piece_mw_us + 0.5 * (p_lo + p_hi) * (t_hi - t_lo)) * MJ_PER_MW_US)
        piece_mw_us = 0.0
        if t_hi == t1 < b_us:  # a bisection puts the next piece in the next segment
            p_end = p0 + (p1 - p0)
            window_mw_us += 0.5 * (p_win + p_end) * (t1 - t_win)
            t_win = t0 = t1
            p_win, p0 = p_end, p1
            k += 1
            t1, p1 = samples[k]
        t_lo, p_lo = t_hi, p0 + (p1 - p0) * ((t_hi - t0) / (t1 - t0))
    window_mw_us += 0.5 * (p_win + p_hi) * (b_us - t_win)
    return window_mw_us * MJ_PER_MW_US, pieces


def attribute(
    nodes: "list[CallNode]", profile: PowerProfile
) -> tuple[list[tuple[float, float]], float]:
    """Attribute energy to call occurrences: one (inclusive, exclusive) pair
    in millijoules per node, in input order, from one sweep over the call
    boundaries of every thread (see the module docstring).  Inclusive
    energy is exclusive energy plus the children's inclusive energy.  Every
    child of a listed node must be listed too; the order is not read.

    Also returns the energy of the test window, from the earliest start to
    the latest end of the top-level nodes; 0.0 if that window is empty.
    """
    inner = {child for node in nodes for child in node.children}
    order = [node for node in nodes if node not in inner]
    start_ns = min((node.t_start_ns for node in order), default=0)
    end_ns = max((node.t_end_ns for node in order), default=0)
    bounds = []  # (t_ns, starts, frame): a stretch that the frame owns starts or ends
    for node in order:  # read as it grows, so children follow their parents
        order.extend(node.children)
        t_ns = node.t_start_ns
        for child in node.children:
            if t_ns < child.t_start_ns:
                bounds += ((t_ns, True, node), (child.t_start_ns, False, node))
            t_ns = child.t_start_ns + child.duration_ns
        if t_ns < node.t_end_ns:
            bounds += ((t_ns, True, node), (node.t_end_ns, False, node))
    bounds.sort(key=itemgetter(0, 1))  # at one time, stretches end before others start

    # The owned stretches and the gaps between them tile the window, so one
    # walk integrates them all.  A gap too short to change the float time
    # is dropped; an owned stretch that short fails, as on its own.
    times = [start_ns / 1000.0]
    stretches = []  # (index of its start in times, its owners) per owned stretch
    owners: dict[CallNode, None] = {}  # the frames that own the stretch ending at t_ns
    last_ns = start_ns
    for t_ns, starts, node in bounds:
        if last_ns < t_ns:
            if owners:
                stretches.append((len(times) - 1, tuple(owners)))
            if owners or times[-1] < t_ns / 1000.0:
                times.append(t_ns / 1000.0)
        last_ns = t_ns
        if starts:
            owners[node] = None
        else:
            del owners[node]
    if times[-1] < end_ns / 1000.0:
        times.append(end_ns / 1000.0)

    exclusive = dict.fromkeys(order, 0.0)
    window_mj = 0.0
    if start_ns < end_ns:
        try:
            window_mj, pieces = integrate(profile, times)
        except AttributionError:
            # the first owned stretch that cannot be integrated names its
            # owner; else the window's own error stands
            for i, stretch_owners in stretches:
                try:
                    _check_window(profile.samples, times[i], times[i + 1])
                except AttributionError as exc:
                    raise AttributionError(
                        f"{stretch_owners[0].method.canonical()}: {exc}"
                    ) from None
            raise
        for i, stretch_owners in stretches:
            share = pieces[i] / len(stretch_owners)
            for owner in stretch_owners:
                exclusive[owner] += share

    inclusive = dict(exclusive)
    for node in reversed(order):
        for child in node.children:
            inclusive[node] += inclusive[child]
    return [(inclusive[node], exclusive[node]) for node in nodes], window_mj
