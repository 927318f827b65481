"""Line-oriented log formats: per-question pass rates and per-epoch metrics.

Both formats are JSON Lines with a fixed key order and floats rendered via
``%.9g``, so identical runs produce byte-identical files.  ``None`` maps to
JSON ``null``.  Readers raise :class:`LogParseError` with the offending line
number.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .trajectory import TrajectoryStore

__all__ = [
    "LogParseError",
    "PassRateRecord",
    "PASSRATE_FIELDS",
    "dumps_record",
    "write_passrates",
    "read_passrates",
    "write_metrics",
    "read_metrics",
    "store_from_passrates",
    "undecodable_line",
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


def _fmt_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot be logged")
    return format(value, ".9g")


# The formatter of each loggable builtin type, looked up by exact type.
_FORMATTERS = {
    float: _fmt_float,
    int: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    str: json.dumps,
}


def _fmt_value(value) -> str:
    """Any other value: numpy scalars and subclasses, formatted as their builtin type."""
    if isinstance(value, np.bool_):
        value = bool(value)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
    elif isinstance(value, (float, np.floating)):
        value = float(value)
    elif isinstance(value, str):
        value = str(value)
    else:
        raise TypeError(f"unsupported log value type {type(value).__name__}")
    return _FORMATTERS[type(value)](value)


def _dumps(key_prefixes: Iterable[str], values: Iterable[object]) -> str:
    """One JSON object from ``'"key": '`` prefixes and the values they label."""
    formatter = _FORMATTERS.get
    items = [p + formatter(type(v), _fmt_value)(v) for p, v in zip(key_prefixes, values)]
    return "{" + ", ".join(items) + "}"


def _key_prefix(key: str) -> str:
    return f"{json.dumps(key)}: "


def dumps_record(fields: Mapping[str, object]) -> str:
    """Serialize one record with stable key order and float formatting."""
    return _dumps(map(_key_prefix, fields), fields.values())


# The pass-rate keys are formatted once, not once per record.
_PASSRATE_PREFIXES = tuple(map(_key_prefix, PASSRATE_FIELDS))
_passrate_values = operator.attrgetter(*PASSRATE_FIELDS)


def write_passrates(path, records: Iterable[PassRateRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(_dumps(_PASSRATE_PREFIXES, _passrate_values(rec)) + "\n")


def _long_int_error(lineno: int) -> LogParseError:
    # int(), which both parse paths use, refuses to convert more than
    # sys.get_int_max_str_digits() digits with a plain ValueError.
    return LogParseError(f"line {lineno}: an integer has too many digits")


def _parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:
        raise _long_int_error(lineno) from exc
    if not isinstance(obj, dict):
        raise LogParseError(f"line {lineno}: expected an object, got {type(obj).__name__}")
    return obj


# The exact line ``write_passrates`` emits: its key prefixes and separators,
# JSON integers for the integer fields, nonnegative JSON numbers for the float
# fields and the literals.  Digits are spelled [0-9] because \d also matches
# non-ASCII digits, which JSON rejects and int() accepts.
_INT = "(-?(?:0|[1-9][0-9]*))"
_NUM = r"((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_PASSRATE_VALUES = {
    "epoch": _INT,
    "qid": _INT,
    "split": '"(labeled|unlabeled)"',
    "pass_rate": _NUM,
    "pseudo_label": f"(?:null|{_INT})",
    "confidence": f"(?:null|{_NUM})",
    "tie": "(true|false)",
    "selected": "(true|false)",
    "tcs": f"(?:null|{_NUM})",
}
_PASSRATE_LINE = re.compile(
    r"\{"
    + ", ".join(re.escape(p) + _PASSRATE_VALUES[k] for k, p in zip(PASSRATE_FIELDS, _PASSRATE_PREFIXES))
    + r"\}\n?"
)


def _record_from_match(match: re.Match) -> PassRateRecord:
    # int() and float() are the conversions json applies to the same text.
    epoch, qid, split, rate, label, confidence, tie, selected, score = match.groups()
    return PassRateRecord(
        epoch=int(epoch),
        qid=int(qid),
        split=split,
        pass_rate=float(rate),
        pseudo_label=None if label is None else int(label),
        confidence=None if confidence is None else float(confidence),
        tie=tie == "true",
        selected=selected == "true",
        tcs=None if score is None else float(score),
    )


def _json_float(value, key: str, lineno: int) -> float:
    # float() would read "0.25" as 0.25 and true as 1.0.
    if type(value) not in (int, float):
        raise LogParseError(f"line {lineno}: {key} must be a number")
    try:
        return float(value)
    except OverflowError:
        # An integer beyond float range, read as its text would be.
        return math.inf if value > 0 else -math.inf


def _record_from_json(line: str, lineno: int) -> PassRateRecord:
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
    confidence, score = obj["confidence"], obj["tcs"]
    return PassRateRecord(
        epoch=obj["epoch"],
        qid=obj["qid"],
        split=obj["split"],
        pass_rate=_json_float(obj["pass_rate"], "pass_rate", lineno),
        pseudo_label=obj["pseudo_label"],
        confidence=None if confidence is None else _json_float(confidence, "confidence", lineno),
        tie=obj["tie"],
        selected=obj["selected"],
        tcs=None if score is None else _json_float(score, "tcs", lineno),
    )


def _check_values(rec: PassRateRecord, lineno: int) -> None:
    if rec.split not in _SPLITS:
        raise LogParseError(f"line {lineno}: split must be one of {_SPLITS}")
    if not 0.0 <= rec.pass_rate <= 1.0:
        raise LogParseError(f"line {lineno}: pass_rate {rec.pass_rate} outside [0, 1]")
    if rec.confidence is not None and not 0.0 <= rec.confidence <= 1.0:
        raise LogParseError(f"line {lineno}: confidence {rec.confidence} outside [0, 1]")
    if rec.tcs is not None and not 0.0 <= rec.tcs <= 1.0:
        raise LogParseError(f"line {lineno}: tcs {rec.tcs} outside [0, 1]")
    if rec.epoch < 1:
        raise LogParseError(f"line {lineno}: epoch must be >= 1")
    if rec.qid < 0:
        raise LogParseError(f"line {lineno}: qid must be >= 0")
    if rec.pseudo_label is not None and rec.pseudo_label < 0:
        raise LogParseError(f"line {lineno}: pseudo_label must be >= 0")


def read_passrates(path) -> list[PassRateRecord]:
    """Read a pass-rate log.  Lines in the writer's own layout are parsed by one
    pattern; any other line goes through ``json.loads`` with per-field type
    checks.  Both paths give the same record and share the value checks."""
    records: list[PassRateRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                match = _PASSRATE_LINE.fullmatch(line)
                if match is not None:
                    try:
                        rec = _record_from_match(match)
                    except ValueError as exc:
                        raise _long_int_error(lineno) from exc
                elif not line.strip():
                    continue
                else:
                    rec = _record_from_json(line, lineno)
                _check_values(rec, lineno)
                records.append(rec)
    except UnicodeDecodeError as exc:
        raise LogParseError(f"line {undecodable_line(path)}: not UTF-8 text") from exc
    return records


def undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not UTF-8 text, counting lines
    as text mode splits them.  Meant for the error path of a failed read."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    # Not reached after a failed read: line breaks never split a UTF-8 sequence.
    return len(lines)


def write_metrics(path, metrics: Iterable) -> None:
    """Write dataclass metrics rows; keys follow field declaration order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in metrics:
            fields = dataclasses.asdict(row) if dataclasses.is_dataclass(row) else dict(row)
            fh.write(dumps_record(fields) + "\n")


def read_metrics(path) -> list[dict]:
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rows.append(_parse_line(line, lineno))
    return rows


def store_from_passrates(
    records: Iterable[PassRateRecord],
) -> tuple[TrajectoryStore, dict[int, str], int]:
    """Rebuild the (N, T) trajectory matrix from pass-rate records, one epoch per call.

    Returns the store (rows in qid order), a qid -> split map, and the common
    trajectory length.  Every question must cover epochs ``1..T`` exactly once
    for the same ``T``; anything else raises :class:`LogParseError`.
    """
    by_qid: dict[int, dict[int, float]] = {}
    split_of: dict[int, str] = {}
    for rec in records:
        seen = split_of.get(rec.qid)
        if seen is not None and seen != rec.split:
            raise LogParseError(f"qid {rec.qid} appears with conflicting splits")
        split_of[rec.qid] = rec.split
        epochs = by_qid.setdefault(rec.qid, {})
        if rec.epoch in epochs:
            raise LogParseError(f"qid {rec.qid} has duplicate records for epoch {rec.epoch}")
        epochs[rec.epoch] = rec.pass_rate
    if not by_qid:
        raise LogParseError("no pass-rate records found")
    lengths = {max(epochs) for epochs in by_qid.values()}
    if len(lengths) != 1:
        raise LogParseError(f"questions cover different epoch ranges: {sorted(lengths)}")
    n_epochs = lengths.pop()
    qids = sorted(by_qid)
    for qid in qids:
        for epoch in range(1, n_epochs + 1):
            if epoch not in by_qid[qid]:
                raise LogParseError(f"qid {qid} is missing epoch {epoch}")
    store = TrajectoryStore(qids)
    for epoch in range(1, n_epochs + 1):
        store.record([by_qid[qid][epoch] for qid in qids])
    return store, split_of, n_epochs
