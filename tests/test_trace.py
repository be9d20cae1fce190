import random

import pytest

from conftest import random_trace
from reference_parsers import clear_name_caches, parity_difference, reference_parse_trace
from tracewatt import trace as trace_module
from tracewatt.energy import PowerFormatError, parse_power
from tracewatt.trace import (
    MethodId,
    TestTrace,
    TraceEvent,
    TraceFormatError,
    parse_trace,
    validate_trace,
)
from writers import write_trace


def test_parse_header_and_single_event():
    text = "#trace v1;com.example.FooTest::testBar;3\nE;1;0;com.example.Foo;Foo;run\nX;1;4;com.example.Foo;Foo;run\n"
    trace = parse_trace(text)
    assert trace.test_name == "com.example.FooTest::testBar"
    assert trace.sample_index == 3
    assert trace.events[0] == TraceEvent(
        "E", MethodId("com.example.Foo", "Foo", "run"), 1, 0
    )


def test_parse_accepts_bytes():
    trace = parse_trace(b"#trace v1;a.B::m;0\n")
    assert trace.events == ()


def test_empty_event_section():
    trace = parse_trace("#trace v1;com.example.FooTest::testBar;0\n")
    assert trace.events == ()


def test_exit_without_enter_names_line():
    text = "#trace v1;a.B::m;0\nX;1;5;p;C;m\n"
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert exc.value.line == 2
    assert "no open frame" in str(exc.value)


def test_unknown_version_rejected():
    with pytest.raises(TraceFormatError, match="unknown format version"):
        parse_trace("#trace v2;a.B::m;0\n")


def test_bad_header_rejected():
    with pytest.raises(TraceFormatError):
        parse_trace("trace v1;a.B::m;0\n")
    with pytest.raises(TraceFormatError):
        parse_trace("#trace v1;a.B::m\n")


def test_malformed_event_line_names_line():
    text = "#trace v1;a.B::m;0\nE;1;0;p;C;m\nE;1;0;p;C\n"
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert exc.value.line == 3


def test_non_monotone_timestamp_same_thread():
    text = "#trace v1;a.B::m;0\nE;1;5;p;C;m\nX;1;3;p;C;m\n"
    with pytest.raises(TraceFormatError, match="before"):
        parse_trace(text)


def test_timestamps_independent_across_threads():
    text = (
        "#trace v1;a.B::m;0\n"
        "E;1;10;p;C;m\n"
        "E;2;0;p;C;n\n"
        "X;2;1;p;C;n\n"
        "X;1;11;p;C;m\n"
    )
    assert len(parse_trace(text).events) == 4


def test_mismatched_exit_method():
    text = "#trace v1;a.B::m;0\nE;1;0;p;C;m\nX;1;2;p;C;other\n"
    with pytest.raises(TraceFormatError, match="does not match"):
        parse_trace(text)


def test_unbalanced_at_eof():
    text = "#trace v1;a.B::m;0\nE;1;0;p;C;m\n"
    with pytest.raises(TraceFormatError, match="never exited"):
        parse_trace(text)


def test_comments_ignored_after_header():
    text = "#trace v1;a.B::m;0\n# a comment\nE;1;0;p;C;m\nX;1;2;p;C;m\n"
    assert len(parse_trace(text).events) == 2


def test_nonnegative_integer_fields_strict():
    for bad in ("E;-1;0;p;C;m", "E;1;+3;p;C;m", "E;1;1_0;p;C;m", "E;x;0;p;C;m"):
        with pytest.raises(TraceFormatError):
            parse_trace(f"#trace v1;a.B::m;0\n{bad}\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_trace, "#trace v1;a.B::m;0\nE;01;0;p;C;m\nX;01;5;p;C;m\n", 2),
        (parse_trace, "#trace v1;a.B::m;0\nE;00;0;p;C;m\nX;00;5;p;C;m\n", 2),
        (parse_trace, "#trace v1;a.B::m;0\nE;1;00;p;C;m\nX;1;5;p;C;m\n", 2),
        (parse_trace, "#trace v1;a.B::m;0\nE;1;0;p;C;m\nX;1;05;p;C;m\n", 3),
        (parse_trace, "#trace v1;a.B::m;01\n", 1),
        (parse_power, "#power v1;a.B::m;01;1000.0\n0.0;1.0\n", 1),
        (parse_power, "#power v1;a.B::m;00;1000.0\n0.0;1.0\n", 1),
    ],
    ids=[
        "thread-01", "thread-00", "timestamp-00", "timestamp-05",
        "trace-sample-01", "power-sample-01", "power-sample-00",
    ],
)
def test_unsigned_numerals_must_be_canonical(parse, text, line):
    # Only 0|[1-9][0-9]*: a leading zero would not survive parse-then-write.
    with pytest.raises((TraceFormatError, PowerFormatError)) as exc:
        parse(text)
    assert exc.value.line == line
    assert "without leading zeros" in str(exc.value)


def test_canonical_numerals_round_trip_byte_for_byte():
    text = "#trace v1;a.B::m;10\nE;0;0;p;C;m\nE;10;7;p;C;n\nX;10;90;p;C;n\nX;0;100;p;C;m\n"
    assert write_trace(parse_trace(text)) == text


FRAMING_DEFECTS = [
    # (trace input, power input, message after "line 1: ")
    (
        b"\xff\n",
        b"\xff\n",
        "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte",
    ),
    (b"", b"", "empty input, expected a header line"),
    (b"#energy v1;a.B::m;0\n", b"#energy v1;a.B::m;0\n", "bad header '#energy v1;a.B::m;0'"),
    (b"#trace v2;a.B::m;0\n", b"#power v2;a.B::m;0;1.0\n", "unknown format version 'v2'"),
    (b"#trace v1;a.B::m\n", b"#power v1;a.B::m;0\n", "header needs {n} ;-separated fields"),
    (b"#trace v1;Foo;0\n", b"#power v1;Foo;0;1.0\n", "method name 'Foo' lacks '::'"),
    (
        b"#trace v1;a.B::m;x\n",
        b"#power v1;a.B::m;x;1.0\n",
        "sample_index must be an unsigned decimal integer without leading zeros, got 'x'",
    ),
]


@pytest.mark.parametrize(
    "trace_data, power_data, message",
    FRAMING_DEFECTS,
    ids=["non-utf8", "empty", "bad-magic", "unknown-version", "field-count",
         "bad-test-name", "bad-sample-index"],
)
def test_trace_and_power_headers_share_one_framing(trace_data, power_data, message):
    with pytest.raises(TraceFormatError) as trace_exc:
        parse_trace(trace_data)
    with pytest.raises(PowerFormatError) as power_exc:
        parse_power(power_data)
    assert trace_exc.value.line == power_exc.value.line == 1
    assert str(trace_exc.value) == "line 1: " + message.format(n=3)
    assert str(power_exc.value) == "line 1: " + message.format(n=4)


def test_non_utf8_byte_is_reported_at_its_line():
    with pytest.raises(TraceFormatError) as trace_exc:
        parse_trace(b"#trace v1;a.B::m;0\nE;1;0;p;C;m\nX;1;\xff;p;C;m\n")
    with pytest.raises(PowerFormatError) as power_exc:
        parse_power(b"#power v1;a.B::m;0;1.0\n0.0;1.0\n\xff\n")
    assert trace_exc.value.line == power_exc.value.line == 3
    assert "not valid UTF-8" in str(trace_exc.value)


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("E;1;5;p;C;m\nX;1;3;p;C;m\n", 3, "timestamp 3 before 5 on thread 1"),
        ("# c\nX;1;5;p;C;m\n", 3, "exit of p.C::m with no open frame on thread 1"),
        (
            "E;1;0;p;C;m\n# c\nX;1;2;p;C;other\n",
            4,
            "exit of p.C::other does not match open frame p.C::m on thread 1",
        ),
        (
            "E;1;0;p;C;a\nE;1;1;p;C;b\nE;2;0;p;C;c\nX;2;1;p;C;c\n",
            3,
            "unbalanced trace: p.C::b entered on thread 1 is never exited",
        ),
        (
            "E;1;5;p;C;m\nX;1;3;p;C;m\nE;1;bad;p;C;m\n",
            3,
            "timestamp 3 before 5 on thread 1",
        ),
        (
            "E;1;5;p;C;m\nE;1;bad;p;C;m\nX;1;3;p;C;m\n",
            3,
            "timestamp must be an unsigned decimal integer without leading zeros, "
            "got 'bad'",
        ),
    ],
    ids=["timestamp-regression", "exit-without-frame", "mismatched-exit",
         "nested-frame-never-exited", "sequence-before-syntax", "syntax-before-sequence"],
)
def test_first_bad_line_is_reported(body, line, message):
    with pytest.raises(TraceFormatError) as exc:
        parse_trace("#trace v1;a.B::m;0\n" + body)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_validate_reports_open_frames_innermost_first_at_their_enter():
    a, b = MethodId("p", "C", "a"), MethodId("p", "C", "b")
    trace = TestTrace(
        "a.B::m",
        0,
        (TraceEvent("E", a, 1, 0), TraceEvent("E", b, 1, 1)),
    )
    assert validate_trace(trace) == [
        "event 1: unbalanced trace: p.C::b entered on thread 1 is never exited",
        "event 0: unbalanced trace: p.C::a entered on thread 1 is never exited",
    ]


def test_write_zero_events_is_header_only():
    trace = TestTrace("a.B::m", 5)
    assert write_trace(trace) == "#trace v1;a.B::m;5\n"


def test_write_rejects_invalid_nesting():
    trace = TestTrace(
        "a.B::m",
        0,
        (TraceEvent("X", MethodId("p", "C", "m"), 1, 0),),
    )
    with pytest.raises(TraceFormatError, match="invalid trace"):
        write_trace(trace)


@pytest.mark.parametrize(
    "thread, t_ns, message",
    [
        (True, 3, "thread must be an unsigned decimal integer without leading zeros, got 'True'"),
        (1, 0.5, "timestamp must be an unsigned decimal integer without leading zeros, got '0.5'"),
    ],
    ids=["bool thread", "fractional timestamp"],
)
def test_write_refuses_what_parse_refuses(thread, t_ns, message):
    m = MethodId("p", "C", "m")
    events = (TraceEvent("E", m, thread, t_ns), TraceEvent("X", m, 1, 3))
    with pytest.raises(TraceFormatError) as exc:
        write_trace(TestTrace("a.B::t", 0, events))
    assert str(exc.value) == f"invalid trace: line 2: {message}"


@pytest.mark.parametrize(
    "thread, sample_index", [("1", 0), (1, "0")], ids=["str thread", "str sample_index"]
)
def test_write_refuses_text_that_parses_to_another_trace(thread, sample_index):
    m = MethodId("p", "C", "m")
    events = (TraceEvent("E", m, thread, 0), TraceEvent("X", m, thread, 3))
    with pytest.raises(TraceFormatError) as exc:
        write_trace(TestTrace("a.B::t", sample_index, events))
    assert str(exc.value) == "invalid trace: its text parses to a different trace"


def test_write_accepts_events_as_a_list():
    m = MethodId("p", "C", "m")
    events = [TraceEvent("E", m, 1, 0), TraceEvent("X", m, 1, 3)]
    text = write_trace(TestTrace("a.B::t", 0, events))
    assert text == write_trace(TestTrace("a.B::t", 0, tuple(events)))


def test_round_trip_random_traces():
    rng = random.Random(1234)
    for _ in range(200):
        trace = random_trace(rng, n_threads=rng.randrange(1, 4))
        assert parse_trace(write_trace(trace)) == trace


def test_parser_output_always_validates():
    rng = random.Random(99)
    for _ in range(100):
        trace = random_trace(rng, n_threads=2)
        assert validate_trace(parse_trace(write_trace(trace))) == []


# Characters a field mutation writes into a name: most keep the identifier
# grammar, "." breaks it in a class or method name.
_NAME_CHARS = "abXY_$09\u00e9."


def _mutate_fields(rng: random.Random, lines: list[str]) -> None:
    """Apply one mutation to the event lines (``lines[1:]``) that keeps
    every line's field count: swap or drop a line, set a kind to E or X,
    rewrite a digit of a thread or timestamp, or rewrite a character of a
    name on every line that carries that name."""
    n = len(lines)
    op = rng.randrange(5)
    if op == 0 and n > 3:
        i, j = rng.sample(range(1, n), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 1 and n > 2:
        del lines[rng.randrange(1, n)]
    elif op == 4:
        f = rng.choice((3, 4, 5))
        old = lines[rng.randrange(1, n)].split(";")[f]
        pos = rng.randrange(len(old))
        new = old[:pos] + rng.choice(_NAME_CHARS) + old[pos + 1:]
        for k in range(1, n):
            fields = lines[k].split(";")
            if fields[f] == old:
                fields[f] = new
                lines[k] = ";".join(fields)
    else:
        i = rng.randrange(1, n)
        fields = lines[i].split(";")
        if op == 2:
            fields[0] = rng.choice("EX")
        else:
            f = rng.choice((1, 2))
            pos = rng.randrange(len(fields[f]))
            fields[f] = fields[f][:pos] + rng.choice("0123456789") + fields[f][pos + 1:]
        lines[i] = ";".join(fields)


def test_fuzz_mutations_never_crash():
    rng = random.Random(7)
    text = write_trace(random_trace(rng, max_events_per_thread=20))
    base = text.encode()
    # Byte mutations: parse_trace raises nothing but TraceFormatError, and
    # a mutant it accepts round-trips.
    for _ in range(500):
        data = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(data))
            data[pos] = rng.randrange(256)
        try:
            trace = parse_trace(bytes(data))
        except TraceFormatError:
            continue
        assert validate_trace(trace) == []
        assert parse_trace(write_trace(trace)) == trace
    # Field mutations keep the line shape, so many mutants parse and the
    # round trip is checked on each of them.
    accepted = 0
    for _ in range(500):
        lines = text.splitlines()
        for _ in range(rng.randrange(1, 6)):
            _mutate_fields(rng, lines)
        try:
            trace = parse_trace("\n".join(lines) + "\n")
        except TraceFormatError:
            continue
        accepted += 1
        assert validate_trace(trace) == []
        assert parse_trace(write_trace(trace)) == trace
    assert accepted >= 50


def _trace_mutants(rng: random.Random, text: str, n: int):
    """The two mutation streams of test_fuzz_mutations_never_crash, n of
    each, with the same draws from ``rng``: byte mutants, then field
    mutants."""
    base = text.encode()
    for _ in range(n):
        data = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(data))
            data[pos] = rng.randrange(256)
        yield bytes(data)
    for _ in range(n):
        lines = text.splitlines()
        for _ in range(rng.randrange(1, 6)):
            _mutate_fields(rng, lines)
        yield "\n".join(lines) + "\n"


def test_bulk_parse_matches_the_per_line_reference_on_fuzz_mutants():
    rng = random.Random(7)
    text = write_trace(random_trace(rng, max_events_per_thread=20))
    for data in _trace_mutants(rng, text, 500):
        difference = parity_difference(parse_trace, reference_parse_trace, data)
        assert difference is None, difference


_H = "#trace v1;a.B::m;0\n"


@pytest.mark.parametrize(
    "text, bad_line",
    [
        (_H + "E;1;0;p;C;m\n# note\nX;1;2;p;C;m\n", None),
        (_H + "E;1;0;p;C;m\n# note\nX;1;2;p;C;m;\n", 4),
        (_H + "# note\nE;1;5;p;C;m\nX;1;3;p;C;m\n", 4),
        (_H + "E;1;0;p;C;a\n# note\nE;1;1;p;C;b\n", 4),
        (_H + "E;1;0;p;C;m\n\nX;1;2;p;C;m\n", 3),
        (_H + "E;1;0;p;C;m\nX;1;2;p;C;m\n\n", 4),
        (_H + "\n", 2),
        (_H + "E;1;0;p;C;m\nX;1;2;p;C;m", None),
        (_H[:-1], None),
        ("#trace v1;a.B::m;0\r\nE;1;0;p;C;m\r\nX;1;2;p;C;m\r\n", 1),
        (_H + "E;1;0;p;C;m\r\nX;1;2;p;C;m\r\n", 2),
        (_H + "E;\u0661;0;p;C;m\nX;\u0661;2;p;C;m\n", 2),
        (_H + "E;1;0;p;C;m\nX;1;1\u0662;p;C;m\n", 3),
        (_H + "E;1;0;p;C;m\x85\nX;1;2;p;C;m\x85\n", 2),
        (_H + "E;1;0;p\u00e9.q;C;m\nX;1;2;p\u00e9.q;C;m\n", None),
        (_H + "E;1;5;p;C;m\nX;1;3;p;C;m\nE;1;x;p;C;m\n", 3),
    ],
    ids=["comment-mid", "comment-then-malformed", "comment-then-regression",
         "comment-then-unbalanced", "empty-line", "empty-last-line", "only-empty-line",
         "no-final-lf", "header-only-no-final-lf", "crlf", "crlf-body",
         "unicode-digit-thread", "unicode-digit-timestamp", "nel-in-name",
         "non-ascii-package", "sequence-before-malformed"],
)
def test_bulk_parse_matches_the_per_line_reference(text, bad_line):
    difference = parity_difference(parse_trace, reference_parse_trace, text)
    assert difference is None, difference
    if bad_line is None:
        parse_trace(text)
    else:
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(text)
        assert exc.value.line == bad_line


@pytest.mark.parametrize(
    "key", ["p;C;m;x", "p;C", "p;C;", "p..q;C;m", "p;C:D;m", "p;C;m\r", "p;C;m n"]
)
def test_bad_method_key_fails_alike_with_the_cache_cold_or_warm(key):
    good = _H + "E;1;0;p;C;m\nX;1;2;p;C;m\n"
    bad = _H + f"E;1;0;p;C;m\nE;1;1;{key}\nX;1;2;p;C;m\n"
    clear_name_caches()
    before = parse_trace(good)
    errors = []
    for _ in range(2):  # the cache first meets the key, then knows it
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(bad)
        errors.append((str(exc.value), exc.value.line))
    assert errors[0] == errors[1]
    assert errors[0][1] == 3
    assert parse_trace(good) == before


def test_valid_trace_with_comments_takes_the_bulk_path(monkeypatch):
    monkeypatch.setattr(trace_module, "_raise_first_bad_line", None)  # a call would raise
    text = write_trace(random_trace(random.Random(5), n_threads=2))
    text = text.replace("\n", "\n# note\n", 2)
    assert parse_trace(text) == reference_parse_trace(text)


def test_bulk_parse_makes_one_method_id_per_distinct_method():
    trace = parse_trace(_H + "E;1;0;p;C;m\nE;1;1;p;C;n\nX;1;2;p;C;n\nX;1;3;p;C;m\n")
    enter_m, enter_n, exit_n, exit_m = trace.events
    assert enter_m.method is exit_m.method and enter_n.method is exit_n.method
    assert type(enter_m) is TraceEvent


def test_validate_balanced_pair_is_clean():
    trace = TestTrace(
        "a.B::m",
        0,
        (
            TraceEvent("E", MethodId("p", "C", "m"), 1, 0),
            TraceEvent("X", MethodId("p", "C", "m"), 1, 10),
        ),
    )
    assert validate_trace(trace) == []


def test_validate_exit_before_enter_cites_event_index():
    trace = TestTrace(
        "a.B::m",
        0,
        (TraceEvent("X", MethodId("p", "C", "m"), 1, 0),),
    )
    violations = validate_trace(trace)
    assert len(violations) == 1
    assert "event 0" in violations[0]


def test_validate_monotonicity_violation():
    m = MethodId("p", "C", "m")
    trace = TestTrace(
        "a.B::m",
        0,
        (
            TraceEvent("E", m, 1, 5),
            TraceEvent("X", m, 1, 3),
        ),
    )
    assert any("timestamp 3 before 5" in v for v in validate_trace(trace))


def test_validate_never_mutates():
    events = (TraceEvent("E", MethodId("p", "C", "m"), 1, 0),)
    trace = TestTrace("a.B::m", 0, events)
    validate_trace(trace)
    assert trace.events == events


def _one_call(package: str, cls: str, method: str) -> str:
    """Trace text of one call to ``package``, ``cls``, ``method``; its
    event lines are lines 2 and 3."""
    fields = f"{package};{cls};{method}"
    return f"#trace v1;a.B::t;0\nE;1;0;{fields}\nX;1;1;{fields}\n"


class TestMethodId:
    """The identifier grammar, as parse_trace checks it on event lines."""

    def test_canonical_round_trip(self):
        m = MethodId("com.example.util", "LinkedList", "add")
        assert MethodId.from_canonical(m.canonical()) == m
        assert m.canonical() == "com.example.util.LinkedList::add"

    @pytest.mark.parametrize(
        "package,cls,method",
        [
            ("", "C", "m"),
            ("p q", "C", "m"),
            ("p;q", "C", "m"),
            ("p:q", "C", "m"),
            ("p..q", "C", "m"),
            ("p", "C.D", "m"),
            ("p", "C", "m.n"),
            ("p", "", "m"),
            ("p", "C", ""),
        ],
    )
    def test_invalid_components_rejected(self, package, cls, method):
        with pytest.raises(TraceFormatError, match="^line 2: "):
            parse_trace(_one_call(package, cls, method))

    def test_grammar_accepts_what_the_per_character_checker_accepted(self):
        def old_checker_accepts(value: str, allow_dots: bool) -> bool:
            # the per-character check the two identifier patterns replaced
            if not value:
                return False
            if any(ch == ";" or ch == ":" or ch.isspace() for ch in value):
                return False
            if allow_dots:
                return all(value.split("."))
            return "." not in value

        alphabet = ["a", "Z", "$", "\u00e9", "\u0416", ";", ":", ".", "\t", "\x1c",
                    "\u00a0", "\u2028", ""]
        rng = random.Random(808)
        accepted = {True: 0, False: 0}
        for _ in range(4000):
            value = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 6)))
            for position in range(3):
                parts = ["p", "C", "m"]
                parts[position] = value
                try:
                    parse_trace(_one_call(*parts))
                    ok = True
                except TraceFormatError:
                    ok = False
                assert ok == old_checker_accepts(value, allow_dots=position == 0), (
                    position, value)
                accepted[ok] += 1
        assert min(accepted.values()) > 1000

    @pytest.mark.parametrize(
        "parts, message",
        [
            (("p..q", "C", "m"), r"package 'p..q' does not match [^;:.\s]+(?:\.[^;:.\s]+)*"),
            (("p", "C.D", "m"), r"class 'C.D' does not match [^;:.\s]+"),
            (("p", "C", "m n"), r"method 'm n' does not match [^;:.\s]+"),
        ],
        ids=["package", "class", "method"],
    )
    def test_error_names_field_and_value(self, parts, message):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(_one_call(*parts))
        assert str(exc.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "name, message",
        [
            ("p q.C::m", r"package 'p q' does not match [^;:.\s]+(?:\.[^;:.\s]+)*"),
            ("p.C D::m", r"class 'C D' does not match [^;:.\s]+"),
            ("p.C::m n", r"method 'm n' does not match [^;:.\s]+"),
        ],
        ids=["package", "class", "method"],
    )
    def test_from_canonical_checks_the_grammar(self, name, message):
        with pytest.raises(ValueError) as exc:
            MethodId.from_canonical(name)
        assert str(exc.value) == message
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(f"#trace v1;{name};0\n")
        assert str(exc.value) == f"line 1: {message}"

    def test_from_canonical_requires_separator(self):
        with pytest.raises(ValueError):
            MethodId.from_canonical("com.example.Foo.run")
        with pytest.raises(ValueError):
            MethodId.from_canonical("Foo::run")
