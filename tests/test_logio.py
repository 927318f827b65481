"""Log round-trips, byte-stable serialization, and parse-error reporting.

``read_passrates`` parses the writer's own layout with one pattern and any
other JSON line with ``json.loads``; the tests here pin that both give the
record ``json.loads`` gives, to the sign of zero, and that on any file it
gives the records, or the error, of the line-by-line reader in
``passrate_oracle``.  ``store_from_passrates`` is pinned the same way against
the dict-based rebuild in ``store_oracle``.
"""

import dataclasses
import json

import numpy as np
import passrate_oracle as oracle
import pytest
import store_oracle
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN

from trajrl import logio
from trajrl.logio import (
    PASSRATE_FIELDS,
    LogParseError,
    PassRateLog,
    PassRateRecord,
    dumps_record,
    read_metrics,
    read_passrates,
    store_from_passrates,
    write_metrics,
    write_passrates,
)


def rec(epoch=1, qid=0, split="labeled", rate=0.5, **kw):
    return PassRateRecord(epoch, qid, split, rate, **kw)


def log_of(*records):
    return PassRateLog.from_records(records)


def from_json(line):
    """The record a line denotes, read by ``json.loads`` alone."""
    obj = json.loads(line)
    floats = ("pass_rate", "confidence", "tcs")
    return PassRateRecord(**{k: float(v) if k in floats and v is not None else v for k, v in obj.items()})


def reprs(records):
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not.
    return [repr(r) for r in records]


# ---------------------------------------------------------------- formatting


def test_dumps_record_stable_layout():
    line = dumps_record({"a": 1, "b": None, "c": True, "d": 0.5, "e": "x"})
    assert line == '{"a": 1, "b": null, "c": true, "d": 0.5, "e": "x"}'


def test_dumps_record_nine_significant_digits():
    assert dumps_record({"v": 1 / 3}) == '{"v": 0.333333333}'
    assert dumps_record({"v": 0.125}) == '{"v": 0.125}'
    assert dumps_record({"v": 12345678912.0}) == '{"v": 1.23456789e+10}'


def test_dumps_record_accepts_numpy_scalars():
    line = dumps_record({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
    assert line == '{"i": 3, "f": 0.25, "b": true}'


def test_dumps_record_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_record({"v": float("nan")})
    with pytest.raises(TypeError):
        dumps_record({"v": [1, 2]})


class _Float(float):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value, text",
    [
        (None, "null"),
        (True, "true"),
        (False, "false"),
        (0, "0"),
        (-3, "-3"),
        (2**70, "1180591620717411303424"),
        (0.0, "0"),
        (-0.0, "-0"),
        (0.1, "0.1"),
        (1 / 3, "0.333333333"),
        (5e-324, "4.94065646e-324"),
        (12345678912.0, "1.23456789e+10"),
        ("a\"b", '"a\\"b"'),
    ],
)
def test_builtin_and_numpy_scalars_log_alike(value, text):
    assert dumps_record({"v": value}) == '{"v": %s}' % text
    twins = []
    if isinstance(value, bool):
        twins = [np.bool_(value)]
    elif isinstance(value, int) and abs(value) < 2**63:
        twins = [np.int64(value), np.int32(value), _Int(value)]
    elif isinstance(value, float):
        twins = [np.float64(value), _Float(value)]
    for twin in twins:
        assert dumps_record({"v": twin}) == '{"v": %s}' % text, type(twin)
    assert dumps_record({"v": np.float32(0.1)}) == '{"v": 0.100000001}'
    assert dumps_record({"v": np.uint64(2**64 - 1)}) == '{"v": 18446744073709551615}'


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("-inf"), _Float("inf")],
    ids=["nan", "inf", "-inf", "np.float64-nan", "np.float32--inf", "float-subclass-inf"],
)
def test_non_finite_values_raise_value_error(value):
    with pytest.raises(ValueError, match="non-finite value .* cannot be logged"):
        dumps_record({"v": value})


@pytest.mark.parametrize(
    "value",
    [[1, 2], (1,), {"a": 1}, 1j, b"x", np.array(0.5), np.array([1.0])],
    ids=["list", "tuple", "dict", "complex", "bytes", "0-d array", "1-d array"],
)
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError, match="unsupported log value type"):
        dumps_record({"v": value})


def test_passrate_writer_formats_numpy_fields_like_builtin_ones(tmp_path):
    builtin = [rec(3, 7, "unlabeled", 0.375, pseudo_label=5, confidence=0.625, tie=True, tcs=0.1)]
    numpy = [
        rec(np.int64(3), np.int64(7), "unlabeled", np.float64(0.375), pseudo_label=np.int64(5),
            confidence=np.float64(0.625), tie=np.bool_(True), tcs=np.float64(0.1))
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_passrates(a, log_of(*builtin))
    write_passrates(b, log_of(*numpy))
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_passrates(tmp_path / "c.jsonl", log_of(rec(rate=float("nan"))))


# ---------------------------------------------------------------- round trips


def test_passrates_round_trip(tmp_path):
    records = [
        rec(1, 0, "labeled", 0.25),
        rec(1, 5, "unlabeled", 0.75, pseudo_label=3, confidence=0.75, tie=False, selected=True, tcs=0.9),
        rec(2, 0, "labeled", 0.5),
        rec(2, 5, "unlabeled", 0.5, pseudo_label=1, confidence=0.5, tie=True),
    ]
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, log_of(*records))
    assert read_passrates(path) == log_of(*records)
    assert list(read_passrates(path)) == records


def test_passrates_written_bytes_are_reproducible(tmp_path):
    records = [rec(1, 0, "labeled", 1 / 3), rec(1, 1, "unlabeled", 2 / 3, pseudo_label=0, confidence=2 / 3)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_passrates(a, log_of(*records))
    write_passrates(b, log_of(*records))
    assert a.read_bytes() == b.read_bytes()


_RATE = st.floats(0.0, 1.0) | st.floats(0.0, 1e-300)  # the second: subnormals, exponents


def _records(epochs, ids):
    return st.builds(
        PassRateRecord,
        epoch=epochs,
        qid=ids,
        split=st.sampled_from(("labeled", "unlabeled")),
        pass_rate=_RATE,
        pseudo_label=st.none() | ids,
        confidence=st.none() | _RATE,
        tie=st.booleans(),
        selected=st.booleans(),
        tcs=st.none() | _RATE,
    )


_RECORDS = _records(st.integers(1, 2**80), st.integers(0, 2**80))
# Records a run can log: epochs below 2**16, question ids and pseudo-labels below 2**48.
_RUN_RECORDS = _records(st.integers(1, 2**16 - 1), st.integers(0, 2**48 - 1))


@settings(
    max_examples=200, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(records=st.lists(_RECORDS, min_size=1, max_size=4))
def test_any_written_record_reads_back_as_json_reads_it(tmp_path, records):
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, PassRateLog.from_records(records))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(oracle.PASSRATE_LINE.fullmatch(line) for line in lines)
    assert reprs(read_passrates(path)) == reprs(map(from_json, lines))


def _no_json_values(line, lineno):
    raise AssertionError(f"line {lineno} left the layout pattern: {line!r}")


@settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(records=st.lists(_RUN_RECORDS, min_size=1, max_size=8))
def test_every_log_a_run_writes_is_read_by_the_layout_pattern_alone(tmp_path, monkeypatch, records):
    """A pattern stricter than the writer would send its lines through json.loads,
    reading the same values more slowly; this fails instead."""
    monkeypatch.setattr(logio, "_json_values", _no_json_values)
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, PassRateLog.from_records(records))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert reprs(read_passrates(path)) == reprs(map(from_json, lines))


# The writer's layout, the first alternative of the reader's pattern.
_LAYOUT_PATTERN = logio._LINE_KINDS.pattern.removesuffix(r"|(.*)\n")


@settings(max_examples=300, deadline=None, database=None)
@given(line=st.from_regex(_LAYOUT_PATTERN, fullmatch=True))
def test_every_line_the_layout_pattern_admits_reads_as_json_reads_it(line):
    """The pattern admits only lines whose values pass every check of the
    json.loads path, so the layout path needs none."""
    assert _LAYOUT_PATTERN != logio._LINE_KINDS.pattern
    columns = logio._layout_columns(logio._LINE_KINDS.findall(line))
    assert columns is not None
    assert repr(tuple(column[0] for column in columns)) == repr(logio._json_values(line, 1))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_logs_parse_alike_by_pattern_and_by_json(name, golden_logs, monkeypatch):
    path = golden_logs(name) / "passrates.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for lineno, line in enumerate(lines, 1):
        match = oracle.PASSRATE_LINE.fullmatch(line)
        assert match is not None, line
        by_json = oracle.record_from_json(line, lineno)
        assert reprs([oracle.record_from_match(match), by_json]) == reprs([from_json(line)] * 2)
    # Every line of a run's log is read by the layout pattern.
    monkeypatch.setattr(logio, "_json_values", _no_json_values)
    assert reprs(read_passrates(path)) == reprs(map(from_json, lines))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_unlabeled_pass_rate_is_the_vote_confidence(name, golden_logs):
    # An unlabeled pass rate is the share of hits against the vote winner, which is
    # the winner's vote share: both come from the epoch's one hit matrix.
    records = read_passrates(golden_logs(name) / "passrates.jsonl")
    unlabeled = [r for r in records if r.split == "unlabeled"]
    assert unlabeled
    assert [r for r in unlabeled if r.pass_rate != r.confidence] == []


LINE = (
    '{"epoch": 3, "qid": 12, "split": "unlabeled", "pass_rate": 0.375, "pseudo_label": 4, '
    '"confidence": 0.375, "tie": false, "selected": true, "tcs": 0.812345678}'
)


# Valid JSON spellings of a record other than the writer's layout.
OTHER_SPELLINGS = {
    "reordered": json.dumps(dict(reversed(json.loads(LINE).items()))),
    "compact": json.dumps(json.loads(LINE), separators=(",", ":")),
    "spaced": LINE.replace(": ", " :  ").replace(", ", " ,\t"),
    "exponents": LINE.replace("0.812345678", "1e-05").replace('"pass_rate": 0.375', '"pass_rate": 375E-3'),
    "minus-zero": LINE.replace('"pass_rate": 0.375', '"pass_rate": -0').replace('"tcs": 0.812345678', '"tcs": -0.0'),
    "integer-valued": LINE.replace('"qid": 12', '"qid": -0').replace('"pass_rate": 0.375', '"pass_rate": 1'),
    "crlf": LINE + "\r",
    "trailing-space": LINE + " \t ",
    "leading-space": "  " + LINE,
}


@pytest.mark.parametrize("line", OTHER_SPELLINGS.values(), ids=OTHER_SPELLINGS.keys())
def test_other_valid_json_lines_read_as_json_reads_them(tmp_path, line):
    path = tmp_path / "passrates.jsonl"
    path.write_bytes((GOOD + "\r\n" + line + "\n").encode("utf-8"))
    assert reprs(read_passrates(path)) == reprs([from_json(GOOD), from_json(line)])


def test_metrics_round_trip(tmp_path):
    rows = [{"epoch": 1, "loss": -0.5, "acc": None}, {"epoch": 2, "loss": 0.25, "acc": 0.75}]
    path = tmp_path / "metrics.jsonl"
    write_metrics(path, rows)
    assert read_metrics(path) == rows


def test_read_metrics_reports_a_line_that_is_not_utf8_text(tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(b'{"epoch": 1}\n\xe9{"epoch": 2}\n')
    with pytest.raises(LogParseError, match="^line 2: not UTF-8 text$"):
        read_metrics(path)
    # The first bad line is reported, also when a later line is not UTF-8 text.
    path.write_bytes(b'{not json\n\xe9{"epoch": 2}\n')
    with pytest.raises(LogParseError, match="^line 1: invalid JSON"):
        read_metrics(path)


# ---------------------------------------------------------------- parse errors


def write_lines(tmp_path, *lines):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


GOOD = (
    '{"epoch": 1, "qid": 0, "split": "labeled", "pass_rate": 0.5, '
    '"pseudo_label": null, "confidence": null, "tie": false, "selected": false, "tcs": null}'
)


def test_read_reports_line_numbers(tmp_path):
    path = write_lines(tmp_path, GOOD, "{not json")
    with pytest.raises(LogParseError, match="line 2"):
        read_passrates(path)
    # Invalid JSON, a range error in the writer's layout, and a type error.
    for bad in ("{not json", GOOD.replace("0.5", "1.5"), GOOD.replace("0.5", '"0.5"')):
        path = write_lines(tmp_path, *[GOOD] * 1000, bad)
        with pytest.raises(LogParseError, match="^line 1001: "):
            read_passrates(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_bad_line_before_an_undecodable_one_is_reported_first(tmp_path, newline):
    """Line 2 is not JSON and line 5 is not UTF-8 text: line 2 is the first bad line."""
    path = tmp_path / "passrates.jsonl"
    lines = [GOOD.encode(), b"{not json", GOOD.encode(), GOOD.encode(), b"\xe9" + GOOD.encode()]
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(LogParseError, match="^line 2: invalid JSON"):
        read_passrates(path)
    lines[1] = GOOD.encode()  # no bad line before it: the undecodable line is reported
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(LogParseError, match="^line 5: not UTF-8 text$"):
        read_passrates(path)


def test_read_rejects_missing_and_unknown_fields(tmp_path):
    path = write_lines(tmp_path, '{"epoch": 1, "qid": 0}')
    with pytest.raises(LogParseError, match="missing"):
        read_passrates(path)
    path = write_lines(tmp_path, GOOD.replace('"tcs": null', '"tcs": null, "extra": 1'))
    with pytest.raises(LogParseError, match="unknown"):
        read_passrates(path)


def test_read_rejects_semantic_problems(tmp_path):
    bad_split = GOOD.replace('"labeled"', '"validation"')
    with pytest.raises(LogParseError, match="split"):
        read_passrates(write_lines(tmp_path, bad_split))
    bad_rate = GOOD.replace('"pass_rate": 0.5', '"pass_rate": 1.5')
    with pytest.raises(LogParseError, match="pass_rate"):
        read_passrates(write_lines(tmp_path, bad_rate))
    # An integer beyond float range, by the pattern and by json.loads.
    for sep in (": ", ":  "):
        huge = GOOD.replace('"pass_rate": 0.5', f'"pass_rate"{sep}1{"0" * 400}')
        with pytest.raises(LogParseError, match="pass_rate inf outside"):
            read_passrates(write_lines(tmp_path, huge))
    bad_epoch = GOOD.replace('"epoch": 1', '"epoch": 0')
    with pytest.raises(LogParseError, match="epoch"):
        read_passrates(write_lines(tmp_path, bad_epoch))
    bad_tie = GOOD.replace('"tie": false', '"tie": 0')
    with pytest.raises(LogParseError, match="tie"):
        read_passrates(write_lines(tmp_path, bad_tie))
    # Negative ids, by the pattern and by json.loads.
    for sep in (": ", ":  "):
        for key, old in (("qid", '"qid": 0'), ("pseudo_label", '"pseudo_label": null')):
            negative = GOOD.replace(old, f'"{key}"{sep}-1')
            with pytest.raises(LogParseError, match=f"^line 1: {key} must be >= 0"):
                read_passrates(write_lines(tmp_path, negative))


def test_read_skips_blank_lines(tmp_path):
    path = write_lines(tmp_path, GOOD, "", GOOD.replace('"epoch": 1', '"epoch": 2'))
    assert len(read_passrates(path)) == 2


def test_record_count_is_the_count_of_non_blank_lines(tmp_path, golden_logs):
    lines = (golden_logs("small_supervised_g6") / "passrates.jsonl").read_text().splitlines()
    blanks = ["", " ", "\t \x0c", "\xa0"]
    mixed = [x for i, line in enumerate(lines) for x in (line, blanks[i % 4])[: 1 + (i % 3 == 0)]]
    path = tmp_path / "passrates.jsonl"
    path.write_text("\n".join(mixed) + "\n", encoding="utf-8")
    assert len(read_passrates(path)) == sum(1 for line in mixed if line.strip()) == len(lines)


# ---------------------------------------------------------------- the oracle

# Writer-layout lines: each field's usual spellings, and odd ones (negative ids,
# rates above 1, 400-digit numbers, an integer beyond int()'s digit limit, and
# values of the wrong type, which leave the layout).  A line has at most one odd
# field, so that the ones after it still reach the reader.  Valid spellings at
# the edges of the reader's pattern, which it admits or leaves to json.loads,
# are both usual and odd: each then has a case of its own.
_BIG, _HUGE = "1" + "0" * 399, "9" * 5000
_EDGE_UNITS = ["1.0", "0.50", "1E-05", "0e-05"]
_UNIT = st.sampled_from(["0", "1", "0.5", "0.375", "1e-05", "4.94065646e-324", "5E-1", "1e-0", *_EDGE_UNITS])
_FLAG = st.sampled_from(["true", "false"])
_USUAL_TEXT = {
    "epoch": st.integers(1, 30).map(str),
    "qid": st.integers(0, 2**70).map(str),
    "split": st.sampled_from(['"labeled"', '"unlabeled"']),
    "pass_rate": _UNIT,
    "pseudo_label": st.just("null") | st.integers(0, 600).map(str),
    "confidence": st.just("null") | _UNIT,
    "tie": _FLAG,
    "selected": _FLAG,
    "tcs": st.just("null") | _UNIT,
}
# A 19-digit id is the longest the pattern admits.
_EDGE_NUMS, _EDGE_INTS = ["5e-00", *_EDGE_UNITS], ["9" * 19, "1" + "0" * 19]
_ODD_NUMS = ["1.5", "2", _BIG, "-0", "-0.5", "9.5e-0", "true", '"0.5"', *_EDGE_NUMS]
_ODD_INTS = ["-1", "-0", _BIG, _HUGE, "1.5", "true", *_EDGE_INTS]
_ODD_TEXT = {
    "epoch": ["0", *_ODD_INTS],
    "qid": _ODD_INTS,
    "split": ['"validation"', "1"],
    "pass_rate": _ODD_NUMS,
    "pseudo_label": _ODD_INTS,
    "confidence": _ODD_NUMS,
    "tie": ["0", "null"],
    "selected": ["1", '"true"'],
    "tcs": _ODD_NUMS,
}


def layout(texts):
    """The writer's layout with the value texts of ``texts``, a dict by field."""
    return "{" + ", ".join(f'"{key}": {texts[key]}' for key in PASSRATE_FIELDS) + "}"


@st.composite
def _layout_lines(draw):
    odd = draw(st.sampled_from([None, *PASSRATE_FIELDS]))
    return layout({
        key: draw(st.sampled_from(_ODD_TEXT[key]) if key == odd else _USUAL_TEXT[key])
        for key in PASSRATE_FIELDS
    })


_BLANK_LINE = st.sampled_from(["", " ", "\t", " \t  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
_GARBAGE_LINE = st.sampled_from(
    ["{not json", "[1, 2]", '"abc', "{", "null", "1e400", '{"epoch": 1}', GOOD[:40], GOOD + " x"]
) | st.text(st.characters(blacklist_characters="\r\n"), max_size=12)
# Lines that are not UTF-8 text, as bytes: a Latin-1 byte, a UTF-16 byte-order
# mark, an encoded surrogate (which strict UTF-8 refuses), a sequence cut short
# at the end of the line, and a stray continuation byte after a blank.
_UNDECODABLE_LINE = st.sampled_from(
    [b"\xe9" + GOOD.encode(), b"\xff\xfe" + GOOD.encode(), b"\xed\xb2\x80", GOOD.encode() + b"\xc3", b" \x80"]
)
_LINE = (
    _layout_lines() | st.sampled_from(list(OTHER_SPELLINGS.values())) | _BLANK_LINE | _GARBAGE_LINE
    | _UNDECODABLE_LINE
)
# A run of good lines moves the lines after it across the reader's 16 KB chunks.
_GOOD_RUN = st.integers(1, 150).map(lambda n: [GOOD] * n)
# Files of layout lines only, which the reader takes a chunk at a time, and files of any lines.
_FILE = st.lists(_layout_lines().map(lambda line: [line]) | _GOOD_RUN, max_size=8) | st.lists(
    _LINE.map(lambda line: [line]) | _GOOD_RUN, max_size=8
)


def outcome(read, path):
    """The repr of every record read, or the message of the error raised."""
    try:
        return [repr(r) for r in read(path)]
    except LogParseError as exc:
        return f"LogParseError: {exc}"


@settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    segments=_FILE,
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    last_newline=st.booleans(),
)
# A last line that json.loads reads without the newline it does not have.
@example(segments=[[GOOD], ['{"qid": "abc']], newline="\n", last_newline=False)
# An undecodable line after a bad one, both behind a chunk boundary.
@example(segments=[[GOOD] * 150, ["{not json"], [b"\xe9" + GOOD.encode()]], newline="\r", last_newline=True)
def test_reader_agrees_with_the_line_by_line_oracle(tmp_path, segments, newline, last_newline):
    lines = [line if isinstance(line, bytes) else line.encode() for segment in segments for line in segment]
    path = tmp_path / "passrates.jsonl"
    ending = newline.encode()
    path.write_bytes(ending.join(lines) + (ending if lines and last_newline else b""))
    assert outcome(read_passrates, path) == outcome(oracle.read_passrates_by_line, path)


_GOOD_TEXT = {
    "epoch": "1", "qid": "0", "split": '"labeled"', "pass_rate": "0.5", "pseudo_label": "null",
    "confidence": "null", "tie": "false", "selected": "false", "tcs": "null",
}
# The edge spellings come last, so that every other case keeps its id.
_ODD_CASES = sorted(
    ((key, text) for key in PASSRATE_FIELDS for text in _ODD_TEXT[key]),
    key=lambda case: case[1] in _EDGE_NUMS + _EDGE_INTS,
)


@pytest.mark.parametrize(
    "key, text", _ODD_CASES, ids=[f"{key}-{i}" for i, (key, _) in enumerate(_ODD_CASES)]
)
def test_one_odd_value_among_layout_lines_reads_as_the_oracle_reads_it(tmp_path, key, text):
    """Each odd value alone in the second chunk of a file of layout lines, where
    nothing else sends the chunk to the line-by-line path."""
    assert layout(_GOOD_TEXT) == GOOD
    path = write_lines(tmp_path, *[GOOD] * 150, layout({**_GOOD_TEXT, key: text}), *[GOOD] * 50)
    assert outcome(read_passrates, path) == outcome(oracle.read_passrates_by_line, path)


# ---------------------------------------------------------------- the log type


def test_pass_rate_log_rows_slices_and_iteration():
    records = [
        rec(1, 0, "labeled", 0.25),
        rec(1, 5, "unlabeled", 0.75, pseudo_label=3, confidence=0.75, selected=True, tcs=0.9),
        rec(2, 0, "labeled", 0.5),
    ]
    log = log_of(*records)
    assert len(log) == 3
    assert log.qid == (0, 5, 0) and log.confidence == (None, 0.75, None)
    assert log[1] == records[1] and log[-1] == records[-1]
    assert log[1:] == log_of(*records[1:]) and isinstance(log[:0], PassRateLog)
    assert list(log) == records
    assert PassRateLog.concat([log[:1], log[1:2], log[2:]]) == log
    assert PassRateLog.concat([]) == PassRateLog() == log_of()
    assert log != log_of(*records[:2])
    with pytest.raises(ValueError, match="differ in length"):
        PassRateLog(epoch=(1, 2), qid=(0,))


def test_from_records_logs_numpy_scalars_as_builtins():
    log = log_of(
        rec(np.int64(3), np.int32(7), "unlabeled", np.float64(0.375), pseudo_label=np.int64(5),
            confidence=np.float32(0.5), tie=np.bool_(True), tcs=None)
    )
    assert reprs(log) == reprs([rec(3, 7, "unlabeled", 0.375, pseudo_label=5, confidence=0.5, tie=True)])
    with pytest.raises(TypeError, match="unsupported log value type"):
        log_of(rec(rate=[0.5]))


# ---------------------------------------------------------------- store rebuild


def test_store_from_passrates_rebuilds_trajectories():
    records = [
        rec(1, 0, "labeled", 0.1),
        rec(2, 0, "labeled", 0.2),
        rec(1, 7, "unlabeled", 0.3),
        rec(2, 7, "unlabeled", 0.4),
    ]
    store, split_of, n_epochs = store_from_passrates(log_of(*records))
    assert n_epochs == 2
    assert split_of == {0: "labeled", 7: "unlabeled"}
    assert np.array_equal(store.get(0), [0.1, 0.2])
    assert np.array_equal(store.get(7), [0.3, 0.4])


def test_store_from_passrates_rejects_bad_shapes():
    with pytest.raises(LogParseError, match="no pass-rate records"):
        store_from_passrates(log_of())
    with pytest.raises(LogParseError, match="duplicate"):
        store_from_passrates(log_of(rec(1, 0, "labeled", 0.1), rec(1, 0, "labeled", 0.2)))
    with pytest.raises(LogParseError, match="different epoch ranges"):
        store_from_passrates(log_of(rec(1, 0, "labeled", 0.1), rec(1, 1, "labeled", 0.1), rec(2, 1, "labeled", 0.1)))
    with pytest.raises(LogParseError, match="missing epoch"):
        store_from_passrates(log_of(rec(2, 0, "labeled", 0.1), rec(1, 1, "labeled", 0.1), rec(2, 1, "labeled", 0.2)))
    with pytest.raises(LogParseError, match="conflicting splits"):
        store_from_passrates(log_of(rec(1, 0, "labeled", 0.1), rec(2, 0, "unlabeled", 0.1)))


@pytest.mark.parametrize(
    "record, message",
    [
        (rec(1, 2**63 + 5), r"qid 9223372036854775813 lies outside \[0, 2\*\*48\)"),
        (rec(1, 2**48), r"qid 281474976710656 lies outside \[0, 2\*\*48\)"),
        (rec(1, -1), r"qid -1 lies outside \[0, 2\*\*48\)"),
        (rec(0, 1), r"epoch 0 lies outside \[1, 2\*\*16\)"),
        (rec(2**16, 1), r"epoch 65536 lies outside \[1, 2\*\*16\)"),
        (rec(2**70, 1), r"epoch 1180591620717411303424 lies outside \[1, 2\*\*16\)"),
    ],
)
def test_store_from_passrates_rejects_ids_and_epochs_out_of_range(record, message):
    """Checked before any conversion to an array, so an id beyond int64 is a
    parse error like any other, reported ahead of the record's other faults."""
    good = [rec(1, 0, "labeled", 0.5), rec(1, 1, "unlabeled", 0.5), rec(1, 0, "unlabeled", 0.5)]
    with pytest.raises(LogParseError, match=message):
        store_from_passrates(log_of(*good, record))


_FAULTS = ("duplicate", "conflict", "missing", "range")


@st.composite
def _store_logs(draw):
    """A shuffled log of whole trajectories, with up to two injected faults."""
    qids = draw(st.lists(st.integers(0, 7) | st.integers(0, 2**48 - 1), min_size=1, max_size=5, unique=True))
    n_epochs = draw(st.integers(1, 5))
    rate = st.integers(0, 8).map(lambda k: k / 8)
    records = [
        rec(epoch, qid, draw(st.sampled_from(["labeled", "unlabeled"])), draw(rate))
        for qid in qids
        for epoch in range(1, n_epochs + 1)
    ]
    splits = {r.qid: r.split for r in records}
    records = [dataclasses.replace(r, split=splits[r.qid]) for r in records]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        victim = records[draw(st.integers(0, len(records) - 1))]
        if fault == "duplicate":
            records.append(dataclasses.replace(victim, pass_rate=draw(rate)))
        elif fault == "conflict":
            other = "unlabeled" if victim.split == "labeled" else "labeled"
            records.append(dataclasses.replace(victim, epoch=draw(st.integers(1, n_epochs + 1)), split=other))
        elif fault == "missing" and len(records) > 1:
            records.remove(victim)
        elif fault == "range":
            records.append(dataclasses.replace(victim, epoch=n_epochs + draw(st.integers(1, 2))))
    return log_of(*draw(st.permutations(records)))


def _rebuilt(builder, log):
    """The matrix bytes, question ids, split map (in order) and length, or the error."""
    try:
        store, split_of, n_epochs = builder(log)
    except LogParseError as exc:
        return f"LogParseError: {exc}"
    matrix = store.as_matrix(store.question_ids, n_epochs)
    return matrix.tobytes(), matrix.shape, store.question_ids, list(split_of.items()), n_epochs


@settings(max_examples=400, deadline=None, database=None)
@given(log=_store_logs())
@example(log=log_of(rec(2, 5, "labeled"), rec(1, 3), rec(1, 5, "unlabeled"), rec(1, 5)))
def test_store_rebuild_agrees_with_the_dict_oracle(log):
    assert _rebuilt(store_from_passrates, log) == _rebuilt(store_oracle.store_from_passrates, log)
