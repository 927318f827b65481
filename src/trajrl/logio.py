"""Line-oriented log formats: per-question pass rates and per-epoch metrics.

Both formats are JSON Lines with a fixed key order and floats rendered via
``%.9g``, so identical runs produce byte-identical files.  ``None`` maps to
JSON ``null``.  Every text reader, config files included, decodes with
``errors="surrogateescape"`` and checks its lines in order, so the first bad
line is the one reported, and a line that is not UTF-8 text is a bad line
(see :func:`is_utf8_text`).  Log readers raise :class:`LogParseError` naming
that line.  The pass-rate reader takes text blocks cut after their last
newline: one pattern, which admits only the writer's layout with valid values,
parses a block of such lines, each column converted through one table for the
whole read, and ``json.loads`` reads any other block line by line.

A pass-rate log lives as a :class:`PassRateLog`, one tuple per field, from the
training loop or the reader to the writer, the store rebuild and selection
replay.  Rows become :class:`PassRateRecord` objects only when a caller indexes
or iterates the log.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import EPOCH_LIMIT, QUESTION_ID_LIMIT, shown
from .trajectory import TrajectoryStore

__all__ = [
    "LogParseError",
    "PassRateRecord",
    "PassRateLog",
    "PASSRATE_FIELDS",
    "as_logged",
    "dumps_record",
    "write_passrates",
    "read_passrates",
    "write_metrics",
    "read_metrics",
    "store_from_passrates",
    "is_utf8_text",
]

PASSRATE_FIELDS = (
    "epoch",
    "qid",
    "split",
    "pass_rate",
    "pseudo_label",
    "confidence",
    "tie",
    "selected",
    "tcs",
)

_SPLITS = ("labeled", "unlabeled")

# Characters per text block read from a pass-rate log, and rows per write (about
# as much text), so that neither holds the log as text.  On the 3,120-record replay
# log (2 vCPUs, Python 3.11), one read took 4.4-4.5 ms with 4 KB blocks, 4.1-4.7 ms
# with 16 KB and 3.8-4.1 ms with 64 KB, whose tracemalloc peak is 0.65 MB, not 0.50.
_CHUNK = 16 * 1024
_WRITE_ROWS = 100


class LogParseError(ValueError):
    """A log file line is malformed or semantically inconsistent."""


@dataclass(frozen=True)
class PassRateRecord:
    """One question's pass rate at one epoch, plus pseudo-label bookkeeping."""

    epoch: int
    qid: int
    split: str
    pass_rate: float
    pseudo_label: int | None = None
    confidence: float | None = None
    tie: bool = False
    selected: bool = False
    tcs: float | None = None


@dataclass(frozen=True)
class PassRateLog:
    """A pass-rate log as columns: one tuple per :data:`PASSRATE_FIELDS` entry,
    holding the builtin values a :class:`PassRateRecord` holds (``None`` for null).

    ``len(log)`` counts rows, ``log[i]`` is row ``i`` as a record, ``log[a:b]``
    is a log, and iteration yields records.  Equality compares columns.
    """

    epoch: tuple[int, ...] = ()
    qid: tuple[int, ...] = ()
    split: tuple[str, ...] = ()
    pass_rate: tuple[float, ...] = ()
    pseudo_label: tuple[int | None, ...] = ()
    confidence: tuple[float | None, ...] = ()
    tie: tuple[bool, ...] = ()
    selected: tuple[bool, ...] = ()
    tcs: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        # tuple() of a tuple is the tuple itself, so only other sequences are copied.
        for name in PASSRATE_FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(set(map(len, _columns(self)))) > 1:
            raise ValueError("the columns of a pass-rate log differ in length")

    @classmethod
    def from_records(cls, records: Iterable[PassRateRecord]) -> "PassRateLog":
        """The log of ``records``, numpy scalars turned into the builtin values
        they are logged as."""
        records = list(records)
        return cls(*([_builtin(getattr(r, name)) for r in records] for name in PASSRATE_FIELDS))

    @classmethod
    def concat(cls, logs: Iterable["PassRateLog"]) -> "PassRateLog":
        """One log of the rows of ``logs``, in order."""
        return cls(*map(chain.from_iterable, zip(*map(_columns, logs))))

    def __len__(self) -> int:
        return len(self.epoch)

    def __getitem__(self, index):
        values = (column[index] for column in _columns(self))
        return PassRateLog(*values) if isinstance(index, slice) else PassRateRecord(*values)

    def __iter__(self) -> Iterator[PassRateRecord]:
        return map(PassRateRecord, *_columns(self))


_columns = operator.attrgetter(*PASSRATE_FIELDS)


# Every logged float is written as this text: 9 significant digits.
_FLOAT_FORMAT = "%.9g"


def as_logged(values: Sequence[float]) -> list[float]:
    """Each of ``values`` as the log reads it back: the float of its logged text, which
    formats to that text again.  Equal values (0.0 and -0.0 too) share one result."""
    table = {v: float(_FLOAT_FORMAT % v) for v in set(values)}
    return list(map(table.__getitem__, values))


def _fmt_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot be logged")
    return _FLOAT_FORMAT % value


# The formatter of each loggable builtin type, looked up by exact type.
_FORMATTERS = {
    float: _fmt_float,
    int: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _: "null",
    str: json.dumps,
}


def _builtin(value):
    """``value`` as the loggable builtin it is formatted as: numpy scalars and
    subclasses become their bool, int, float or str."""
    if type(value) in _FORMATTERS:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return str(value)
    raise TypeError(f"unsupported log value type {type(value).__name__}")


def _fmt_value(value) -> str:
    """Any loggable value, formatted as its builtin type."""
    value = _builtin(value)
    return _FORMATTERS[type(value)](value)


def _key_prefix(key: str) -> str:
    return f"{json.dumps(key)}: "


# The pass-rate keys are formatted once, into one row template.
_PASSRATE_PREFIXES = tuple(map(_key_prefix, PASSRATE_FIELDS))
_PASSRATE_ROW = "{" + ", ".join(p + "%s" for p in _PASSRATE_PREFIXES) + "}\n"


def _fmt_column(values: tuple) -> list[str]:
    """The text of each value of one column, or of one record, as ``_FORMATTERS`` gives it."""
    kinds = set(map(type, values))
    # filter(None, ...) drops nulls and zeros, which are finite.
    if kinds <= {float, type(None)} and all(map(math.isfinite, filter(None, values))):
        # _fmt_float without a call per value.
        return ["null" if v is None else _FLOAT_FORMAT % v for v in values]
    if kinds == {str}:
        texts = {v: json.dumps(v) for v in set(values)}
        return list(map(texts.__getitem__, values))
    formatter = _FORMATTERS.get
    return [formatter(type(v), _fmt_value)(v) for v in values]


def dumps_record(fields: Mapping[str, object]) -> str:
    """Serialize one record with stable key order and float formatting."""
    texts = _fmt_column(tuple(fields.values()))
    return "{" + ", ".join(map(str.__add__, map(_key_prefix, fields), texts)) + "}"


def write_passrates(path, log: PassRateLog) -> None:
    """Write ``log`` in blocks of rows, formatting each column of a block at once."""
    columns = _columns(log)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(log), _WRITE_ROWS):
            texts = [_fmt_column(column[lo : lo + _WRITE_ROWS]) for column in columns]
            fh.write("".join(map(_PASSRATE_ROW.__mod__, zip(*texts))))


# A byte that is not UTF-8 text, as errors="surrogateescape" decodes it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def is_utf8_text(line: str) -> bool:
    """Whether ``line``, decoded with ``errors="surrogateescape"``, was UTF-8 text.
    That handler turns each undecodable byte into a lone surrogate U+DC80-U+DCFF,
    which valid UTF-8 never decodes to."""
    return _ESCAPED_BYTE.search(line) is None


def _parse_line(line: str, lineno: int) -> dict:
    if not is_utf8_text(line):
        raise LogParseError(f"line {lineno}: not UTF-8 text")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise LogParseError(f"line {lineno}: invalid JSON (nested too deeply)") from exc
    except ValueError as exc:
        # int() refuses to convert more than sys.get_int_max_str_digits()
        # digits with a plain ValueError.
        raise LogParseError(f"line {lineno}: an integer has too many digits") from exc
    if not isinstance(obj, dict):
        raise LogParseError(f"line {lineno}: expected an object, got {type(obj).__name__}")
    return obj


# One line of a pass-rate log, in one of two kinds.  The writer's own layout
# (groups 1-9): its key prefixes and separators, and only values the checks of
# _json_values accept, spelled as the writer spells them: an epoch from 1, a qid
# or pseudo-label from 0, each of at most 19 digits (every id below 2**63, far
# inside int()'s digit limit), a rate in [0, 1] as %.9g writes it, and the
# literals; a null leaves its group empty.  Any other whole line (group 10).
# Digits are spelled [0-9] because \d also matches non-ASCII digits, which JSON
# rejects and int() accepts.
_ID = "(0|[1-9][0-9]{0,18})"
_UNIT = r"(0\.[0-9]+|[01]|[1-9](?:\.[0-9]+)?e-0*[1-9][0-9]*)"
_PASSRATE_VALUES = {
    "epoch": "([1-9][0-9]{0,18})",
    "qid": _ID,
    "split": '"(labeled|unlabeled)"',
    "pass_rate": _UNIT,
    "pseudo_label": f"(?:null|{_ID})",
    "confidence": f"(?:null|{_UNIT})",
    "tie": "(true|false)",
    "selected": "(true|false)",
    "tcs": f"(?:null|{_UNIT})",
}
_LINE_KINDS = re.compile(
    r"\{"
    + ", ".join(re.escape(p) + _PASSRATE_VALUES[k] for k, p in zip(PASSRATE_FIELDS, _PASSRATE_PREFIXES))
    + r"\}\n|(.*)\n"
)
# The conversion of each layout group to its value, the one json applies to the
# same text; an empty group is a null.
_CONVERSIONS = (int, int, str, float, int, float, "true".__eq__, "true".__eq__, float)


def _json_float(value, key: str, lineno: int) -> float:
    # float() would read "0.25" as 0.25 and true as 1.0.
    if type(value) not in (int, float):
        raise LogParseError(f"line {lineno}: {key} must be a number")
    try:
        return float(value)
    except OverflowError:
        # An integer beyond float range, read as its text would be.
        return math.inf if value > 0 else -math.inf


def _json_values(line: str, lineno: int) -> tuple:
    """The values of a pass-rate line read by json.loads, checked field by field."""
    obj = _parse_line(line, lineno)
    missing = [k for k in PASSRATE_FIELDS if k not in obj]
    if missing:
        raise LogParseError(f"line {lineno}: missing fields {missing}")
    extra = [k for k in obj if k not in PASSRATE_FIELDS]
    if extra:
        raise LogParseError(f"line {lineno}: unknown fields {extra}")
    for flag in ("tie", "selected"):
        if not isinstance(obj[flag], bool):
            raise LogParseError(f"line {lineno}: {flag} must be true or false")
    # int() would truncate 1.7, read true as 1 and overflow on 1e400.
    for key in ("epoch", "qid", "pseudo_label"):
        if type(obj[key]) is not int and (key != "pseudo_label" or obj[key] is not None):
            raise LogParseError(f"line {lineno}: {key} must be an integer")
    rate = _json_float(obj["pass_rate"], "pass_rate", lineno)
    confidence, score = (None if obj[k] is None else _json_float(obj[k], k, lineno) for k in ("confidence", "tcs"))
    if obj["split"] not in _SPLITS:
        raise LogParseError(f"line {lineno}: split must be one of {_SPLITS}")
    for key, value in (("pass_rate", rate), ("confidence", confidence), ("tcs", score)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise LogParseError(f"line {lineno}: {key} {value} outside [0, 1]")
    if obj["epoch"] < 1:
        raise LogParseError(f"line {lineno}: epoch must be >= 1")
    for key in ("qid", "pseudo_label"):
        if obj[key] is not None and obj[key] < 0:
            raise LogParseError(f"line {lineno}: {key} must be >= 0")
    values = {**obj, "pass_rate": rate, "confidence": confidence, "tcs": score}
    return tuple(values[k] for k in PASSRATE_FIELDS)


class _Conversions(dict):
    """One layout column's values by text, kept for a whole read: a text is converted
    when first looked up, so its rows share one value.  An empty group is a null."""

    def __init__(self, convert) -> None:
        self.convert = convert

    def __missing__(self, text: str):
        value = self[text] = self.convert(text) if text else None
        return value


def _read_block(text: str, lineno: int, columns: tuple[list, ...], tables: list[_Conversions]) -> int:
    """Append the records of ``text``, the lines after line ``lineno``, to ``columns``
    and return the last one's number.  A block of writer-layout lines is converted by
    column through ``tables``; any other block goes through json.loads line by line."""
    texts = tuple(zip(*_LINE_KINDS.findall(text)))
    # Other lines leave their layout groups empty; a last line without a newline matches neither kind.
    if text.endswith("\n") and "" not in texts[0]:
        for column, table, values in zip(columns, tables, texts):
            column += map(table.__getitem__, values)
        return lineno + len(texts[0])
    # Only a newline ends a line: str.splitlines would also split at \x0b or \x85.
    for lineno, line in enumerate(re.findall(".*\n|.+", text), lineno + 1):
        if line.strip():
            for column, value in zip(columns, _json_values(line, lineno)):
                column.append(value)
    return lineno


def read_passrates(path) -> PassRateLog:
    """Read a pass-rate log in blocks of ``_CHUNK`` characters, each cut after its last
    newline.  Both paths of :func:`_read_block` give the same values; the first bad line raises."""
    columns: tuple[list, ...] = tuple([] for _ in PASSRATE_FIELDS)
    tables = list(map(_Conversions, _CONVERSIONS))
    lineno, pending = 0, []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.read(_CHUNK):
            if end := block.rfind("\n") + 1:
                lineno = _read_block("".join([*pending, block[:end]]), lineno, columns, tables)
                pending.clear()
            pending.append(block[end:])
    _read_block("".join(pending), lineno, columns, tables)
    return PassRateLog(*columns)


def write_metrics(path, metrics: Iterable) -> None:
    """Write dataclass metrics rows; keys follow field declaration order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in metrics:
            fields = dataclasses.asdict(row) if dataclasses.is_dataclass(row) else dict(row)
            fh.write(dumps_record(fields) + "\n")


def read_metrics(path) -> list[dict]:
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rows.append(_parse_line(line, lineno))
    return rows


def store_from_passrates(log: PassRateLog) -> tuple[TrajectoryStore, dict[int, str], int]:
    """Rebuild the (N, T) trajectory matrix from a pass-rate log: the store, rows in qid
    order, a qid -> split map and T.  One stable sort by (qid, epoch) lines the records
    up row by row, so the sorted rate column is the matrix.  Qids must lie in [0, 2**48),
    epochs in [1, 2**16), and each question must cover epochs ``1..T`` once.  The first
    fault raises :class:`LogParseError`, in this order: an id out of range; a conflicting
    split or duplicate epoch, first in log order; unequal ranges; the smallest qid's gap."""
    if not (n := len(log)):
        raise LogParseError("no pass-rate records found")
    for name, column, low, limit in (("qid", log.qid, 0, QUESTION_ID_LIMIT), ("epoch", log.epoch, 1, EPOCH_LIMIT)):
        if min(column) < low or max(column) >= limit:
            bad = next(v for v in column if not low <= v < limit)
            raise LogParseError(f"{name} {shown(bad)} lies outside [{low}, 2**{limit.bit_length() - 1})")
    qid, epoch = (np.fromiter(column, np.int64, n) for column in (log.qid, log.epoch))
    order = np.lexsort((epoch, qid))
    qid, epoch = qid[order], epoch[order]
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    sizes = np.diff(np.r_[starts, n])
    # Each question's first record in log order fixes its split.
    first = np.minimum.reduceat(order, starts)
    splits = np.array(log.split, dtype=object)
    conflict = splits[order] != np.repeat(splits[first], sizes)
    bad = np.flatnonzero(conflict | np.r_[False, (qid[1:] == qid[:-1]) & (epoch[1:] == epoch[:-1])])
    if bad.size:
        k = bad[np.argmin(order[bad])]
        fault = "appears with conflicting splits" if conflict[k] else f"has duplicate records for epoch {epoch[k]}"
        raise LogParseError(f"qid {qid[k]} {fault}")
    lengths = epoch[starts + sizes - 1]
    if (lengths != lengths[0]).any():
        raise LogParseError(f"questions cover different epoch ranges: {np.unique(lengths).tolist()}")
    # Sorted and free of duplicates, a question's epochs are 1, 2, ... up to its first gap.
    expected = np.arange(1, n + 1) - np.repeat(starts, sizes)
    missing = np.flatnonzero(epoch != expected)
    if missing.size:
        raise LogParseError(f"qid {qid[missing[0]]} is missing epoch {expected[missing[0]]}")
    n_epochs = int(lengths[0])
    store = TrajectoryStore(qid[starts].tolist())
    for rates in np.array(log.pass_rate, dtype=float)[order].reshape(-1, n_epochs).T:
        store.record(rates)
    return store, {log.qid[i]: log.split[i] for i in np.sort(first).tolist()}, n_epochs
