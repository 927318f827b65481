"""Flat ``key=value`` config files covering both trainer and world settings,
and the ``run.json`` record of the configs that produced a run's logs.

Keys are the field names of :class:`TrainerConfig` and :class:`WorldConfig`.
``seed`` appears in both and a single assignment sets both.  ``#`` starts a
comment and blank lines are skipped.  Lines are checked in order, so every
problem raises :class:`ConfigError` naming the first bad line; a line that is
not UTF-8 text is a bad line.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Mapping

from .core import FIELD_TYPES, ConfigError, TrainerConfig
from .logio import LogParseError, is_utf8_text
from .sim import WorldConfig

__all__ = ["RUN_FILE", "parse_assignments", "read_assignments", "build_configs", "write_run_config",
           "read_run_config"]

# The file, beside a run's logs, that records the run's trainer and world configs.
RUN_FILE = "run.json"

_TRAINER_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainerConfig)}
_WORLD_FIELDS = {f.name: f.type for f in dataclasses.fields(WorldConfig)}


def _coerce(key: str, raw: str, kind: str):
    """``raw`` as a value of field type ``kind``: a bool is true/false/1/0, a str may be quoted."""
    try:
        if kind == "bool":
            if raw.lower() not in ("true", "1", "false", "0"):
                raise ValueError("expected true/false")
            return raw.lower() in ("true", "1")
        if kind == "str" and len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
            return raw[1:-1]
        return FIELD_TYPES[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind} ({exc})") from exc


def parse_assignments(lines: Iterable[str]) -> dict[str, str]:
    """Collect raw ``key=value`` pairs, rejecting, in line order, a line that is
    not UTF-8 text (see :func:`~trajrl.logio.is_utf8_text`), a malformed line or
    a duplicate key."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        if not is_utf8_text(line):
            raise ConfigError(f"config line {lineno}: not UTF-8 text")
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line.strip()!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_assignments(path: str) -> dict[str, str]:
    """Raw ``key=value`` pairs of a config file; an unreadable file or a bad line is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return parse_assignments(fh.readlines())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def build_configs(assignments: Mapping[str, str]) -> tuple[TrainerConfig, WorldConfig]:
    """Turn raw assignments into validated trainer and world configs."""
    trainer_kwargs = {}
    world_kwargs = {}
    for key, raw in assignments.items():
        known = False
        if key in _TRAINER_FIELDS:
            trainer_kwargs[key] = _coerce(key, raw, _TRAINER_FIELDS[key])
            known = True
        if key in _WORLD_FIELDS:
            world_kwargs[key] = _coerce(key, raw, _WORLD_FIELDS[key])
            known = True
        if not known:
            raise ConfigError(f"unknown config key {key!r}")
    return TrainerConfig(**trainer_kwargs), WorldConfig(**world_kwargs)


def write_run_config(path: str, trainer: TrainerConfig, world: WorldConfig | None) -> None:
    """Write a ``run.json``: every field of ``trainer`` and of ``world`` (null when None), in
    declaration order and with no wall time, so identical configs write identical bytes."""
    configs = {"trainer": dataclasses.asdict(trainer), "world": world and dataclasses.asdict(world)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(configs, indent=2) + "\n")


def read_run_config(path: str) -> TrainerConfig:
    """The trainer config a ``run.json`` records.  A file that is not JSON, has no
    ``trainer`` object, or whose trainer lacks a field of ``TrainerConfig``, holds one it
    lacks, or holds a value that ``TrainerConfig`` refuses, its type included, raises
    :class:`LogParseError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        fields = record.get("trainer") if isinstance(record, dict) else None
        if not isinstance(fields, dict):
            raise ConfigError("expected an object with a trainer object")
        if missing := [k for k in _TRAINER_FIELDS if k not in fields]:
            raise ConfigError(f"trainer fields missing: {missing}")
        if foreign := sorted(set(fields) - set(_TRAINER_FIELDS)):
            raise ConfigError(f"trainer fields TrainerConfig lacks: {foreign}")
        return TrainerConfig(**fields)
    except RecursionError as exc:
        raise LogParseError(f"{path}: not a run record: JSON nested too deeply") from exc
    except ValueError as exc:  # not UTF-8 or not JSON, or a ConfigError
        raise LogParseError(f"{path}: not a run record: {exc}") from exc
