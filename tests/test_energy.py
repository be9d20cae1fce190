import random
import tracemalloc
from bisect import bisect_right

import pytest

from tracewatt import energy
from tracewatt.callgraph import CallNode, build_call_trees, node_intervals
from tracewatt.energy import (
    AttributionError,
    PowerFormatError,
    PowerProfile,
    attribute,
    integrate,
    parse_power,
    shift_profile,
)
from tracewatt.trace import MethodId, parse_trace
from writers import write_power

from conftest import random_call_tree, random_trace
from reference_parsers import parity_difference, reference_parse_power
from test_golden import MULTI_ROOT_POWER, MULTI_ROOT_TRACE

M = MethodId("com.app", "C", "m")


def _profile(samples, rate=20000.0) -> PowerProfile:
    return PowerProfile("com.app.S::t", 0, rate, tuple(map(tuple, samples)))


def _constant(power_mw, t_end_us, step=50.0):
    n = int(t_end_us / step) + 1
    return _profile([(i * step, power_mw) for i in range(n)])


def _walk_integrate(profile: PowerProfile, a_us: float, b_us: float) -> float:
    """Reference integral: copies the samples into lists and walks the
    window's segments, interpolating the right end of every piece.
    integrate must return exactly this float."""
    ts = [t for t, _ in profile.samples]
    ps = [p for _, p in profile.samples]

    def power_at(t: float, seg: int) -> float:
        t0, t1 = ts[seg], ts[seg + 1]
        frac = (t - t0) / (t1 - t0)
        return ps[seg] + (ps[seg + 1] - ps[seg]) * frac

    seg = max(min(bisect_right(ts, a_us) - 1, len(ts) - 2), 0)
    total_mw_us = 0.0
    t_lo = a_us
    p_lo = power_at(a_us, seg)
    while True:
        t_hi = min(ts[seg + 1], b_us)
        p_hi = power_at(t_hi, seg)
        total_mw_us += 0.5 * (p_lo + p_hi) * (t_hi - t_lo)
        if t_hi >= b_us:
            break
        seg += 1
        t_lo, p_lo = t_hi, p_hi
    return total_mw_us * energy.MJ_PER_MW_US


def _random_profile(rng: random.Random, n_max: int = 60) -> PowerProfile:
    samples = []
    t = rng.uniform(-50.0, 50.0)
    for _ in range(rng.randrange(2, n_max)):
        samples.append((t, rng.random() * 300))
        t += rng.random() * 80 + 1e-3
    return _profile(samples)


class TestParsePower:
    def test_two_samples(self):
        profile = parse_power("#power v1;a.B::m;2;20000\n0;100.0\n50;100.0\n")
        assert profile.test_name == "a.B::m"
        assert profile.sample_index == 2
        assert profile.nominal_rate_hz == 20000.0
        assert profile.samples == ((0.0, 100.0), (50.0, 100.0))

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(PowerFormatError, match="not after"):
            parse_power("#power v1;a.B::m;0;20000\n0;1.0\n0;2.0\n")

    def test_empty_sample_section(self):
        profile = parse_power("#power v1;a.B::m;0;20000\n")
        assert profile.samples == ()
        with pytest.raises(AttributionError):
            integrate(profile, (0.0, 1.0))

    def test_negative_power_rejected(self):
        with pytest.raises(PowerFormatError, match="negative power"):
            parse_power("#power v1;a.B::m;0;20000\n0;-1.0\n")

    @pytest.mark.parametrize("sample_index", ["3_0", "+3", " 3", "3 ", "-1", ""])
    def test_noncanonical_sample_index_rejected(self, sample_index):
        with pytest.raises(PowerFormatError, match="sample_index"):
            parse_power(f"#power v1;a.B::m;{sample_index};1000.0\n0.0;1.0\n")

    @pytest.mark.parametrize(
        "numeral", ["1_0", " 5", "5 ", "+.5", ".5", "5.", "1E5", "nan", "inf", "0x10", "1e+999"]
    )
    @pytest.mark.parametrize("field", ["timestamp", "power", "nominal_rate_hz"])
    def test_noncanonical_numeral_rejected(self, field, numeral):
        text, line = {
            "timestamp": (f"#power v1;a.B::m;0;20000\n0;1.0\n{numeral};1.0\n", 3),
            "power": (f"#power v1;a.B::m;0;20000\n0;1.0\n1;{numeral}\n", 3),
            "nominal_rate_hz": (f"#power v1;a.B::m;0;{numeral}\n0;1.0\n1;1.0\n", 1),
        }[field]
        with pytest.raises(PowerFormatError, match=f"^line {line}: {field} must be") as exc:
            parse_power(text)
        assert exc.value.line == line

    def test_float_reprs_accepted_and_round_trip(self):
        text = "#power v1;a.B::m;0;1e+16\n-0.0;1e-05\n1e-05;0.0\n1.5e+20;-0.0\n"
        assert write_power(parse_power(text)) == text
        assert parse_power("#power v1;a.B::m;0;20000\n0;7\n50;100.0\n").samples == (
            (0.0, 7.0),
            (50.0, 100.0),
        )

    def test_malformed_line_number(self):
        with pytest.raises(PowerFormatError) as exc:
            parse_power("#power v1;a.B::m;0;20000\n0;1.0\nnope\n")
        assert exc.value.line == 3

    def test_round_trip_random_profiles(self):
        rng = random.Random(808)
        for _ in range(50):
            t = 0.0
            samples = []
            for _ in range(rng.randrange(2, 40)):
                t += rng.random() * 100 + 0.01
                samples.append((t, round(rng.random() * 500, 6)))
            profile = _profile(samples, rate=rng.choice([20000.0, 5000.0]))
            assert parse_power(write_power(profile)) == profile

    def test_fuzz_mutations_never_crash(self):
        rng = random.Random(11)
        text = write_power(_random_profile(rng, n_max=30))
        base = text.encode()
        # Byte mutations: parse_power raises nothing but PowerFormatError,
        # and a mutant it accepts round-trips.
        for _ in range(500):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                profile = parse_power(bytes(data))
            except PowerFormatError:
                continue
            assert parse_power(write_power(profile)) == profile
        # Field mutations keep the line shape, so many mutants parse and the
        # round trip is checked on each of them.
        accepted = 0
        for _ in range(500):
            lines = text.splitlines()
            for _ in range(rng.randrange(1, 6)):
                _mutate_power_fields(rng, lines)
            try:
                profile = parse_power("\n".join(lines) + "\n")
            except PowerFormatError:
                continue
            accepted += 1
            assert parse_power(write_power(profile)) == profile
        assert accepted >= 100


def _power_mutants(rng: random.Random, text: str, n: int):
    """The two mutation streams of TestParsePower.test_fuzz_mutations_never_crash,
    n of each, with the same draws from ``rng``: byte mutants, then field
    mutants."""
    base = text.encode()
    for _ in range(n):
        data = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)
    for _ in range(n):
        lines = text.splitlines()
        for _ in range(rng.randrange(1, 6)):
            _mutate_power_fields(rng, lines)
        yield "\n".join(lines) + "\n"


_H = "#power v1;a.B::m;0;20000\n"


class TestBulkParsePower:
    def test_matches_the_per_line_reference_on_fuzz_mutants(self):
        rng = random.Random(11)
        text = write_power(_random_profile(rng, n_max=30))
        for data in _power_mutants(rng, text, 500):
            difference = parity_difference(parse_power, reference_parse_power, data)
            assert difference is None, difference

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            (_H + "0;1.0\n# note\n50;2.0\n", None),
            (_H + "0;1.0\n# note\n50;-2.0\n", 4),
            (_H + "0;1.0\n\n50;2.0\n", 3),
            (_H + "0;1.0\n50;2.0\n\n", 4),
            (_H + "\n", 2),
            (_H + "0;1.0\n50;2.0", None),
            (_H[:-1], None),
            ("#power v1;a.B::m;0;20000\r\n0;1.0\r\n", 1),
            (_H + "0;1.0\r\n50;2.0\r\n", 2),
            (_H + "\u0661;1.0\n", 2),
            (_H + "0;1.0\n50;1\u0662\n", 3),
            (_H + "0;1e+999\n", 2),
            (_H + "0;1.0\n1e+999;1.0\n", 3),
            (_H + "-1e+999;1.0\n0;1.0\n", 2),
            (_H + "5;1.0\n3;1.0\nbad\n", 3),
            (_H + "0;-1.0\nbad\n", 2),
            (_H + "0;1.0\n0;1.0\n", 3),
            (_H + "0;1.0;2.0\n", 2),
            (_H + "-0.0;-0.0\n1;0\n", None),
        ],
        ids=["comment-mid", "comment-then-negative", "empty-line", "empty-last-line",
             "only-empty-line", "no-final-lf", "header-only-no-final-lf", "crlf",
             "crlf-body", "unicode-digit-time", "unicode-digit-power", "infinite-power",
             "infinite-time", "minus-infinite-time", "regression-before-malformed",
             "negative-before-malformed", "repeated-time", "three-fields", "minus-zero"],
    )
    def test_matches_the_per_line_reference(self, text, bad_line):
        difference = parity_difference(parse_power, reference_parse_power, text)
        assert difference is None, difference
        if bad_line is None:
            parse_power(text)
        else:
            with pytest.raises(PowerFormatError) as exc:
                parse_power(text)
            assert exc.value.line == bad_line

    def test_sample_lines_take_the_bulk_path(self, monkeypatch):
        monkeypatch.setattr(energy, "_raise_first_bad_line", None)  # a call would raise
        text = write_power(_random_profile(random.Random(5)))
        assert parse_power(text) == reference_parse_power(text)
        lines = text.splitlines(keepends=True)
        lines[1:1] = ["# first\n"]
        lines[3:3] = ["# mid\n", "#\n"]
        commented = "".join(lines) + "# last, no final LF"
        assert parse_power(commented) == reference_parse_power(commented)
        assert parse_power(commented).samples == parse_power(text).samples

    def test_peak_memory_is_a_small_multiple_of_the_text(self):
        # A single fullmatch of a repeated line pattern over the whole text
        # keeps a backtracking entry per line, tens of times the text.
        text = _H + "".join(f"{i * 50.0!r};{100.0 + i % 97 / 7!r}\n" for i in range(100_000))
        tracemalloc.start()
        try:
            profile = parse_power(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profile.samples) == 100_000
        assert peak < 12 * len(text)


# Characters a field mutation writes into a numeral: digits keep it a
# numeral, the others may break it or its canonical spelling.
_NUMERAL_CHARS = "0123456789" * 3 + ".-e+_ "


def _mutate_power_fields(rng: random.Random, lines: list[str]) -> None:
    """Apply one mutation to a power text's lines that keeps the header's
    and every sample line's field count: swap, drop or comment out a
    sample line, or rewrite a character of a numeral in the header or a
    sample line."""
    n = len(lines)
    op = rng.randrange(4)
    if op == 0 and n > 3:
        i, j = rng.sample(range(1, n), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 1 and n > 2:
        del lines[rng.randrange(1, n)]
    elif op == 2 and n > 1:
        i = rng.randrange(1, n)
        lines[i] = "#" + lines[i]
    else:
        i = rng.randrange(n)
        fields = lines[i].split(";")
        f = rng.choice((2, 3)) if i == 0 else rng.randrange(2)
        pos = rng.randrange(len(fields[f]))
        fields[f] = fields[f][:pos] + rng.choice(_NUMERAL_CHARS) + fields[f][pos + 1:]
        lines[i] = ";".join(fields)


class TestWritePower:
    @pytest.mark.parametrize(
        "profile, message",
        [
            (_profile([(0.0, 1.0), (1.0, float("nan"))]), "line 3: power must be"),
            (_profile([(0.0, 1.0), (float("inf"), 1.0)]), "line 3: timestamp must be"),
            (_profile([(0.0, 1.0)], rate=float("inf")), "line 1: nominal_rate_hz must be"),
            (_profile([(0.0, 1.0)], rate=0.0), "line 1: nominal_rate_hz must be > 0"),
            (PowerProfile("not a name", -1, 1000.0, ()), "line 1: "),
            (_profile([(0.0, -1.0)]), "line 2: negative power"),
            (_profile([(0.0, 1.0), (0.0, 2.0)]), "line 3: timestamp 0.0 not after 0.0"),
        ],
        ids=["nan-power", "inf-timestamp", "inf-rate", "zero-rate", "bad-header",
             "negative-power", "repeated-timestamp"],
    )
    def test_refuses_what_parse_power_refuses(self, profile, message):
        with pytest.raises(PowerFormatError, match=f"^{message}"):
            write_power(profile)


class TestIntegrate:
    def test_constant_power_window(self):
        profile = _constant(100.0, 20000.0)
        assert integrate(profile, (0.0, 10000.0))[0] == pytest.approx(1.0, rel=1e-9)

    def test_linear_ramp_is_exact(self):
        profile = _profile([(0.0, 0.0), (10000.0, 100.0)])
        assert integrate(profile, (0.0, 10000.0))[0] == pytest.approx(0.5, rel=1e-9)

    def test_window_outside_range(self):
        profile = _constant(100.0, 1000.0)
        with pytest.raises(AttributionError, match="outside sampled range"):
            integrate(profile, (-5.0, 5.0))
        with pytest.raises(AttributionError, match="outside sampled range"):
            integrate(profile, (500.0, 2000.0))

    def test_degenerate_window(self):
        profile = _constant(100.0, 1000.0)
        with pytest.raises(AttributionError, match="bad window"):
            integrate(profile, (10.0, 10.0))

    def test_additivity(self):
        rng = random.Random(5)
        for _ in range(50):
            samples = []
            t = 0.0
            for _ in range(rng.randrange(2, 60)):
                samples.append((t, rng.random() * 300))
                t += rng.random() * 80 + 1
            profile = _profile(samples)
            t_first, t_last = samples[0][0], samples[-1][0]
            a = rng.uniform(t_first, t_last)
            c = rng.uniform(a, t_last)
            b = rng.uniform(a, c)
            if not a < b < c:
                continue
            whole = integrate(profile, (a, c))[0]
            split = integrate(profile, (a, b))[0] + integrate(profile, (b, c))[0]
            assert split == pytest.approx(whole, rel=1e-9, abs=1e-15)

    def test_matches_closed_form_on_piecewise_linear(self):
        # oracle: integrate each linear segment p(t) = m t + c analytically
        rng = random.Random(6)
        for _ in range(50):
            samples = []
            t = 0.0
            for _ in range(rng.randrange(2, 40)):
                samples.append((t, rng.random() * 200))
                t += rng.random() * 50 + 1
            profile = _profile(samples)
            a = rng.uniform(samples[0][0], samples[-1][0] - 0.5)
            b = rng.uniform(a + 0.001, samples[-1][0])
            expected = 0.0
            for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
                lo, hi = max(a, t0), min(b, t1)
                if hi <= lo:
                    continue
                slope = (p1 - p0) / (t1 - t0)
                intercept = p0 - slope * t0
                expected += slope / 2 * (hi * hi - lo * lo) + intercept * (hi - lo)
            expected *= 1e-6
            assert integrate(profile, (a, b))[0] == pytest.approx(expected, rel=1e-9, abs=1e-15)


    def test_bit_identical_to_sample_walk(self):
        rng = random.Random(2024)
        for _ in range(200):
            profile = _random_profile(rng)
            ts = [t for t, _ in profile.samples]
            k = rng.randrange(len(ts) - 1)
            mid = rng.uniform(ts[k], ts[k + 1])
            windows = [
                (ts[0], ts[-1]),  # full sampled range
                (ts[k], ts[k + 1]),  # exactly one segment
                (ts[k], mid),  # starts on a sample, inside one segment
                (mid, ts[k + 1]),  # ends on a sample, inside one segment
                tuple(sorted(rng.uniform(ts[k], ts[k + 1]) for _ in range(2))),
                (ts[rng.randrange(len(ts) - 1)], rng.uniform(ts[0], ts[-1])),
                (rng.uniform(ts[0], ts[-1]), ts[rng.randrange(1, len(ts))]),
                tuple(sorted(rng.uniform(ts[0], ts[-1]) for _ in range(2))),
            ]
            if k + 2 < len(ts):  # spans exactly the boundary at ts[k + 1]
                windows.append((mid, rng.uniform(ts[k + 1], ts[k + 2])))
            for a, b in windows:
                if a < b:
                    assert integrate(profile, (a, b))[0] == _walk_integrate(profile, a, b)

    def test_every_piece_and_the_window_are_bit_identical_to_sample_walks(self):
        rng = random.Random(2025)
        for _ in range(300):
            profile = _random_profile(rng)
            ts = [t for t, _ in profile.samples]
            k = rng.randrange(len(ts) - 1)
            points = {
                *rng.sample(ts, rng.randrange(min(len(ts), 6) + 1)),  # on samples
                *(rng.uniform(ts[k], ts[k + 1]) for _ in range(rng.randrange(4))),  # one segment
                *(rng.uniform(ts[0], ts[-1]) for _ in range(rng.randrange(6))),  # anywhere
            }
            times = sorted(points)
            if len(times) < 2:
                continue
            window, pieces = integrate(profile, times)
            assert window == _walk_integrate(profile, times[0], times[-1])
            assert pieces == [_walk_integrate(profile, a, b) for a, b in zip(times, times[1:])]

    def test_two_times_give_one_piece_equal_to_the_window(self):
        profile = _random_profile(random.Random(3))
        ts = [t for t, _ in profile.samples]
        window, pieces = integrate(profile, (ts[0], ts[-1]))
        assert pieces == [window]

    def test_times_that_do_not_increase(self):
        profile = _constant(100.0, 1000.0)
        with pytest.raises(AttributionError, match="^times must increase$"):
            integrate(profile, (0.0, 5.0, 5.0, 10.0))
        with pytest.raises(AttributionError, match="^times must increase$"):
            integrate(profile, (0.0, 7.0, 5.0, 10.0))

    def test_reads_the_samples_in_place(self):
        profile = _profile([(float(i), float(i % 7)) for i in range(100_000)])
        tracemalloc.start()
        try:
            integrate(profile, (0.5, 99_998.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert not hasattr(profile, "__dict__")  # nothing can be cached on it


class TestAttribute:
    def test_constant_power_parent_child(self):
        profile = _constant(100.0, 20000.0)
        child = CallNode(MethodId("com.app", "C", "child"), 1, 2_000_000, 4_000_000)
        energies, window = attribute([CallNode(M, 1, 0, 10_000_000, (child,)), child], profile)
        assert window == integrate(profile, (0.0, 10_000.0))[0]
        assert energies[0][0] == pytest.approx(1.0, rel=1e-9)
        assert energies[1][0] == pytest.approx(0.4, rel=1e-9)
        assert energies[0][1] == pytest.approx(0.6, rel=1e-9)

    def test_zero_duration_leaf(self):
        profile = _constant(100.0, 1000.0)
        assert attribute([CallNode(M, 1, 5000, 0)], profile) == ([(0.0, 0.0)], 0.0)
        assert attribute([], profile) == ([], 0.0)

    def test_concurrent_threads_split_a_stretch_equally(self):
        profile = _constant(100.0, 2000.0)
        ui, worker = CallNode(M, 1, 0, 1_000_000), CallNode(M, 2, 0, 1_000_000)
        whole = integrate(profile, (0.0, 1000.0))[0]
        half = whole / 2
        assert attribute([ui, worker], profile) == ([(half, half), (half, half)], whole)

    def test_siblings_tiling_parent_leave_zero_exclusive(self):
        profile = _constant(200.0, 2000.0)
        left = CallNode(M, 1, 0, 500_000)
        right = CallNode(M, 1, 500_000, 500_000)
        parent = CallNode(M, 1, 0, 1_000_000, (left, right))
        energies, _ = attribute([parent, left, right], profile)
        assert energies[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_parent_of_tiling_children_is_their_exact_sum(self):
        # the two children tile the parent; in floats their inclusive
        # energies sum to 33202615.5 and the parent's whole window
        # integrates to 33202615.499999996, but the parent owns no stretch
        powers = [3e12, 9e12, 2e12, 6e12, 4e12, 8e12, 7e12, 4e12, 8e12, 2e12]
        profile = _profile([(float(t), p) for t, p in enumerate(powers)])
        x = CallNode(MethodId("com.app", "C", "x"), 1, 0, 3901)
        y = CallNode(MethodId("com.app", "C", "y"), 1, 3901, 1986)
        parent = CallNode(M, 1, 0, 5887, (x, y))
        energies, _ = attribute([parent, x, y], profile)
        assert integrate(profile, (0.0, 5.887))[0] != energies[1][0] + energies[2][0]
        assert energies[0] == (energies[1][0] + energies[2][0], 0.0)

    def test_interval_outside_profile(self):
        profile = _constant(100.0, 1000.0)
        with pytest.raises(AttributionError, match="outside sampled range"):
            attribute([CallNode(M, 1, 0, 5_000_000)], profile)

    def test_conservation_on_random_trees(self):
        rng = random.Random(77)
        for _ in range(50):
            tree = random_call_tree(rng, max_nodes=40)
            intervals = node_intervals(tree)
            if not intervals:
                continue
            end_ns = max(node.t_end_ns for node, _ in intervals)
            profile = _profile(
                [(t * 10.0, 50.0 + (t % 7) * 13.0) for t in range(end_ns // 10_000 + 2)]
            )
            energies, _ = attribute([node for node, _ in intervals], profile)
            total_exclusive = sum(exclusive for _, exclusive in energies)
            roots_inclusive = sum(
                inclusive
                for (inclusive, _), (_, depth) in zip(energies, intervals)
                if depth == 0
            )
            assert total_exclusive == pytest.approx(roots_inclusive, rel=1e-6, abs=1e-12)

    def test_order_of_intervals_is_not_read(self):
        rng = random.Random(79)
        for _ in range(30):
            tree = random_call_tree(rng, max_nodes=40)
            nodes = [node for node, _ in node_intervals(tree)]
            if len(nodes) < 2:
                continue
            end_ns = max(node.t_end_ns for node in nodes)
            profile = _profile([(t * 0.01, 40.0 + (t % 5) * 9.0) for t in range(end_ns // 10 + 2)])
            energies, window = attribute(nodes, profile)
            expected = dict(zip(nodes, energies))
            shuffled = nodes[:]
            rng.shuffle(shuffled)
            energies, shuffled_window = attribute(shuffled, profile)
            assert shuffled_window == window
            assert energies == [expected[node] for node in shuffled]

    def test_bit_identical_to_sample_walk(self):
        rng = random.Random(78)
        cases = []
        for _ in range(40):
            nodes = [node for node, _ in node_intervals(random_call_tree(rng, max_nodes=60))]
            if not nodes:
                continue
            end_us = max(node.t_end_ns for node in nodes) / 1000.0
            samples = []
            t = -rng.random() * 0.01
            while t <= end_us:
                samples.append((t, rng.random() * 300))
                t += rng.random() * 0.02 + 1e-4
            samples.append((t, rng.random() * 300))
            cases.append((nodes, _profile(samples)))
        for seed in range(20):  # three threads; samples on the ns grid of the boundaries
            rng = random.Random(seed)
            trace = random_trace(rng, n_threads=3)
            nodes = [node for node, _ in node_intervals(build_call_trees(trace))]
            end_ns = max(ev.t_ns for ev in trace.events)
            grid = sorted({0, end_ns, *rng.sample(range(end_ns + 1), min(end_ns + 1, 20))})
            cases.append((nodes, _profile([(t_ns / 1000.0, rng.random() * 300) for t_ns in grid])))
        cases += [
            ([node for node, _ in node_intervals(build_call_trees(trace))], profile)
            for trace, profile in _conservation_inputs()
        ]
        for nodes, profile in cases:
            pairs, window = attribute(nodes, profile)
            assert pairs == _per_stretch_attribute(nodes, profile)
            roots = _roots(nodes)
            start_us = min(node.t_start_ns for node in roots) / 1000.0
            end_us = max(node.t_end_ns for node in roots) / 1000.0
            assert window == _walk_integrate(profile, start_us, end_us)

    def test_boundaries_one_float_time_apart(self):
        # past 2**53 ns, ns / 1000.0 maps neighbouring nanoseconds to one
        # microsecond float: an unowned gap that short is left out, and an
        # owned stretch that short fails as on its own
        t_ns = 2**60
        profile = _profile([(t_ns / 1000.0 - 50.0, 10.0), (t_ns / 1000.0 + 50.0, 30.0)])
        first, second = CallNode(M, 1, t_ns, 5000), CallNode(M, 1, t_ns + 5001, 5000)
        assert t_ns / 1000.0 + 5.0 == (t_ns + 5001) / 1000.0
        pairs, window = attribute([first, second], profile)
        assert pairs == _per_stretch_attribute([first, second], profile)
        assert window == _walk_integrate(profile, t_ns / 1000.0, (t_ns + 10_001) / 1000.0)
        with pytest.raises(AttributionError) as exc:
            attribute([CallNode(M, 1, t_ns, 1)], profile)
        assert str(exc.value) == f"{M.canonical()}: bad window [{t_ns / 1000.0}, {t_ns / 1000.0}]"

    def test_each_instant_is_integrated_once_at_any_depth(self, monkeypatch):
        # a 2000-deep chain, each frame 1 us inside its parent on both sides
        depth, leaf_ns = 2000, 5000
        node = CallNode(M, 1, depth * 1000, leaf_ns)
        nodes = [node]
        for k in range(depth - 1, -1, -1):
            node = CallNode(M, 1, k * 1000, node.duration_ns + 2000, (node,))
            nodes.append(node)
        width_us = node.duration_ns / 1000.0
        profile = _profile([(float(t), 100.0 + t % 3) for t in range(int(width_us) + 1)])
        calls = []

        def counting_integrate(profile, times):
            calls.append(list(times))
            return integrate(profile, times)

        monkeypatch.setattr(energy, "integrate", counting_integrate)
        energies, window = attribute(nodes, profile)
        assert len(calls) == 1
        (times,) = calls
        assert (times[0], times[-1]) == (0.0, width_us)
        assert len(times) == 2 * depth + 2  # every frame's two edges, each once
        assert sum(b - a for a, b in zip(times, times[1:])) == pytest.approx(width_us, rel=1e-12)
        assert energies[-1][0] == pytest.approx(window, rel=1e-12)
        assert window == integrate(profile, (0.0, width_us))[0]


def _roots(nodes):
    """The listed nodes that are no listed node's child."""
    inner = {child for node in nodes for child in node.children}
    return [node for node in nodes if node not in inner]


def _per_stretch_attribute(nodes, profile):
    """attribute as it was before its one walk: each owned stretch
    integrated on its own, by _walk_integrate, in the order of one sweep
    over the call boundaries."""
    order = _roots(nodes)
    bounds = []
    for node in order:
        order.extend(node.children)
        t_ns = node.t_start_ns
        for child in node.children:
            if t_ns < child.t_start_ns:
                bounds += ((t_ns, True, node), (child.t_start_ns, False, node))
            t_ns = child.t_start_ns + child.duration_ns
        if t_ns < node.t_end_ns:
            bounds += ((t_ns, True, node), (node.t_end_ns, False, node))
    bounds.sort(key=lambda bound: bound[:2])
    exclusive = dict.fromkeys(order, 0.0)
    owners = {}
    last_ns = 0
    for t_ns, starts, node in bounds:
        if owners and last_ns < t_ns:
            share = _walk_integrate(profile, last_ns / 1000.0, t_ns / 1000.0) / len(owners)
            for owner in owners:
                exclusive[owner] += share
        last_ns = t_ns
        if starts:
            owners[node] = None
        else:
            del owners[node]
    inclusive = dict(exclusive)
    for node in reversed(order):
        for child in node.children:
            inclusive[node] += inclusive[child]
    return [(inclusive[node], exclusive[node]) for node in nodes]


def _idle_energy(profile: PowerProfile, roots, start_ns: int, end_ns: int) -> float:
    """Energy of the stretches of [start_ns, end_ns] that no top-level
    call of any thread covers."""
    idle, t_ns = 0.0, start_ns
    for root in sorted(roots, key=lambda node: node.t_start_ns):
        if t_ns < root.t_start_ns:
            idle += integrate(profile, (t_ns / 1000.0, root.t_start_ns / 1000.0))[0]
        t_ns = max(t_ns, root.t_end_ns)
    return idle


def _conservation_inputs():
    """(trace, profile) pairs: a gap between two calls, two threads
    running the same millisecond, the golden multi-root trace and random
    two-thread traces."""
    one_ms = [("E", 1, 0, "a"), ("X", 1, 1_000_000, "a"), ("E", 1, 2_000_000, "b"),
              ("X", 1, 3_000_000, "b")]
    threads = [("E", 1, 0, "a"), ("E", 2, 0, "b"), ("X", 1, 1_000_000, "a"),
               ("X", 2, 1_000_000, "b")]
    for rows in (one_ms, threads):
        text = "#trace v1;a.B::t;0\n" + "".join(
            f"{kind};{thread};{t_ns};p;C;{m}\n" for kind, thread, t_ns, m in rows
        )
        yield parse_trace(text), _constant(100.0, 4000.0)
    yield parse_trace(MULTI_ROOT_TRACE), parse_power(MULTI_ROOT_POWER)
    for seed in range(8):
        rng = random.Random(seed)
        trace = random_trace(rng, n_threads=2)
        end_us = max(ev.t_ns for ev in trace.events) / 1000.0
        samples, t = [], -0.001
        while t <= end_us:
            samples.append((t, rng.random() * 300))
            t += rng.random() * 0.004 + 1e-4
        samples.append((t, 10.0))
        yield trace, _profile(samples)


@pytest.mark.parametrize(
    "trace, profile",
    list(_conservation_inputs()),
    ids=["gap", "two-threads", "multi-root"] + [f"random-{seed}" for seed in range(8)],
)
def test_exclusive_plus_unattributed_is_the_test_energy(trace, profile):
    tree = build_call_trees(trace)
    nodes = [node for node, _ in node_intervals(tree)]
    start_ns = min(root.t_start_ns for root in tree.roots)
    end_ns = max(root.t_end_ns for root in tree.roots)
    test_energy = integrate(profile, (start_ns / 1000.0, end_ns / 1000.0))[0]
    energies, window = attribute(nodes, profile)
    assert window == test_energy
    exclusive = [e for _, e in energies]
    assert min(exclusive) >= 0.0
    total = sum(exclusive) + _idle_energy(profile, tree.roots, start_ns, end_ns)
    assert total == pytest.approx(test_energy, rel=1e-9)


def test_shift_profile_moves_clock():
    profile = _profile([(0.0, 1.0), (50.0, 2.0)])
    shifted = shift_profile(profile, 25.0)
    assert shifted.samples == ((25.0, 1.0), (75.0, 2.0))
    assert shift_profile(profile, 0.0) is profile


def test_unit_sanity_constant_power():
    # P mW over d ms must give exactly P*d/1000 mJ
    for power, d_ms in [(1.0, 1.0), (250.0, 8.0), (3.3, 12.0)]:
        profile = _constant(power, d_ms * 1000 + 100)
        energy = integrate(profile, (0.0, d_ms * 1000))[0]
        assert energy == pytest.approx(power * d_ms / 1000.0, rel=1e-12)
