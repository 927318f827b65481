"""The line-by-line pass-rate reader, kept as the reference for ``logio.read_passrates``.

It reads the file's bytes, splits them into lines as text mode does (a CR LF
pair or a lone CR ends a line like LF) and decodes each line strictly, so a
line that is not UTF-8 text is a bad line in its place.  A decoded line in the
writer's own layout is parsed by one pattern, a blank line is skipped, and any
other line goes through ``json.loads`` with per-field type checks.  Both parse
paths give the record ``json.loads`` gives and share the value checks; the
first bad line raises :class:`LogParseError`.  ``read_passrates`` must give
the same records, or the same error, for every file.
"""

import json
import math
import re

from trajrl.logio import PASSRATE_FIELDS, LogParseError, PassRateRecord

_SPLITS = ("labeled", "unlabeled")


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


# The exact line the writer emits: its key prefixes and separators, JSON
# integers for the integer fields, nonnegative JSON numbers for the float
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
PASSRATE_LINE = re.compile(
    r"\{"
    + ", ".join(re.escape(f"{json.dumps(k)}: ") + _PASSRATE_VALUES[k] for k in PASSRATE_FIELDS)
    + r"\}\n?"
)


def record_from_match(match: re.Match) -> PassRateRecord:
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


def record_from_json(line: str, lineno: int) -> PassRateRecord:
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


def read_passrates_by_line(path) -> list[PassRateRecord]:
    """Read a pass-rate log one line at a time."""
    records: list[PassRateRecord] = []
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    for lineno, raw in enumerate(data.splitlines(keepends=True), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogParseError(f"line {lineno}: not UTF-8 text") from exc
        match = PASSRATE_LINE.fullmatch(line)
        if match is not None:
            try:
                rec = record_from_match(match)
            except ValueError as exc:
                raise _long_int_error(lineno) from exc
        elif not line.strip():
            continue
        else:
            rec = record_from_json(line, lineno)
        _check_values(rec, lineno)
        records.append(rec)
    return records
