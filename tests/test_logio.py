"""Log round-trips, byte-stable serialization, and parse-error reporting.

``read_passrates`` parses the writer's own layout with one pattern and any
other JSON line with ``json.loads``; the tests here pin that both give the
record ``json.loads`` gives, to the sign of zero.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN

from trajrl import logio
from trajrl.logio import (
    LogParseError,
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
    write_passrates(a, builtin)
    write_passrates(b, numpy)
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_passrates(tmp_path / "c.jsonl", [rec(rate=float("nan"))])


# ---------------------------------------------------------------- round trips


def test_passrates_round_trip(tmp_path):
    records = [
        rec(1, 0, "labeled", 0.25),
        rec(1, 5, "unlabeled", 0.75, pseudo_label=3, confidence=0.75, tie=False, selected=True, tcs=0.9),
        rec(2, 0, "labeled", 0.5),
        rec(2, 5, "unlabeled", 0.5, pseudo_label=1, confidence=0.5, tie=True),
    ]
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, records)
    assert read_passrates(path) == records


def test_passrates_written_bytes_are_reproducible(tmp_path):
    records = [rec(1, 0, "labeled", 1 / 3), rec(1, 1, "unlabeled", 2 / 3, pseudo_label=0, confidence=2 / 3)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_passrates(a, records)
    write_passrates(b, records)
    assert a.read_bytes() == b.read_bytes()


_UNIT = st.floats(0.0, 1.0) | st.floats(0.0, 1e-300)  # the second: subnormals, exponents
_ID = st.integers(0, 2**80)
_RECORDS = st.builds(
    PassRateRecord,
    epoch=st.integers(1, 2**80),
    qid=_ID,
    split=st.sampled_from(("labeled", "unlabeled")),
    pass_rate=_UNIT,
    pseudo_label=st.none() | _ID,
    confidence=st.none() | _UNIT,
    tie=st.booleans(),
    selected=st.booleans(),
    tcs=st.none() | _UNIT,
)


@settings(
    max_examples=200, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(records=st.lists(_RECORDS, min_size=1, max_size=4))
def test_any_written_record_reads_back_as_json_reads_it(tmp_path, records):
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(logio._PASSRATE_LINE.fullmatch(line) for line in lines)
    assert reprs(read_passrates(path)) == reprs(map(from_json, lines))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_logs_parse_alike_by_pattern_and_by_json(name, golden_logs):
    path = golden_logs(name) / "passrates.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for lineno, line in enumerate(lines, 1):
        match = logio._PASSRATE_LINE.fullmatch(line)
        assert match is not None, line
        by_json = logio._record_from_json(line, lineno)
        assert reprs([logio._record_from_match(match), by_json]) == reprs([from_json(line)] * 2)
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


@pytest.mark.parametrize(
    "line",
    [
        json.dumps(dict(reversed(json.loads(LINE).items()))),
        json.dumps(json.loads(LINE), separators=(",", ":")),
        LINE.replace(": ", " :  ").replace(", ", " ,\t"),
        LINE.replace("0.812345678", "1e-05").replace('"pass_rate": 0.375', '"pass_rate": 375E-3'),
        LINE.replace('"pass_rate": 0.375', '"pass_rate": -0').replace('"tcs": 0.812345678', '"tcs": -0.0'),
        LINE.replace('"qid": 12', '"qid": -0').replace('"pass_rate": 0.375', '"pass_rate": 1'),
        LINE + "\r",
        LINE + " \t ",
        "  " + LINE,
    ],
    ids=["reordered", "compact", "spaced", "exponents", "minus-zero", "integer-valued", "crlf",
         "trailing-space", "leading-space"],
)
def test_other_valid_json_lines_read_as_json_reads_them(tmp_path, line):
    path = tmp_path / "passrates.jsonl"
    path.write_bytes((GOOD + "\r\n" + line + "\n").encode("utf-8"))
    assert reprs(read_passrates(path)) == reprs([from_json(GOOD), from_json(line)])


def test_metrics_round_trip(tmp_path):
    rows = [{"epoch": 1, "loss": -0.5, "acc": None}, {"epoch": 2, "loss": 0.25, "acc": 0.75}]
    path = tmp_path / "metrics.jsonl"
    write_metrics(path, rows)
    assert read_metrics(path) == rows


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


# ---------------------------------------------------------------- store rebuild


def test_store_from_passrates_rebuilds_trajectories():
    records = [
        rec(1, 0, "labeled", 0.1),
        rec(2, 0, "labeled", 0.2),
        rec(1, 7, "unlabeled", 0.3),
        rec(2, 7, "unlabeled", 0.4),
    ]
    store, split_of, n_epochs = store_from_passrates(records)
    assert n_epochs == 2
    assert split_of == {0: "labeled", 7: "unlabeled"}
    assert np.array_equal(store.get(0), [0.1, 0.2])
    assert np.array_equal(store.get(7), [0.3, 0.4])


def test_store_from_passrates_rejects_bad_shapes():
    with pytest.raises(LogParseError, match="no pass-rate records"):
        store_from_passrates([])
    with pytest.raises(LogParseError, match="duplicate"):
        store_from_passrates([rec(1, 0, "labeled", 0.1), rec(1, 0, "labeled", 0.2)])
    with pytest.raises(LogParseError, match="different epoch ranges"):
        store_from_passrates([rec(1, 0, "labeled", 0.1), rec(1, 1, "labeled", 0.1), rec(2, 1, "labeled", 0.1)])
    with pytest.raises(LogParseError, match="missing epoch"):
        store_from_passrates([rec(2, 0, "labeled", 0.1), rec(1, 1, "labeled", 0.1), rec(2, 1, "labeled", 0.2)])
    with pytest.raises(LogParseError, match="conflicting splits"):
        store_from_passrates([rec(1, 0, "labeled", 0.1), rec(2, 0, "unlabeled", 0.1)])
