"""Flat ``key=value`` config files covering both trainer and world settings.

Keys are the field names of :class:`TrainerConfig` and :class:`WorldConfig`.
``seed`` appears in both and a single assignment sets both.  ``#`` starts a
comment, blank lines are skipped, and every problem raises
:class:`ConfigError` with the line number.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from .core import ConfigError, TrainerConfig
from .logio import undecodable_line
from .sim import WorldConfig

__all__ = ["parse_assignments", "read_assignments", "build_configs", "coerce_trainer_value"]

_TRAINER_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainerConfig)}
_WORLD_FIELDS = {f.name: f.type for f in dataclasses.fields(WorldConfig)}


def coerce_trainer_value(key: str, raw: str):
    """Parse one raw string as the named trainer field's type."""
    if key not in _TRAINER_FIELDS:
        raise ConfigError(f"unknown trainer config key {key!r}")
    return _coerce(key, raw, _TRAINER_FIELDS[key])


def _coerce(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
            raise ValueError("expected true/false")
        if kind == "str":
            if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
                return raw[1:-1]
            return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind} ({exc})") from exc
    raise ConfigError(f"config key {key!r} has unsupported type {kind!r}")


def parse_assignments(lines: Iterable[str]) -> dict[str, str]:
    """Collect raw ``key=value`` pairs, rejecting malformed or duplicate keys."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
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
    """Raw ``key=value`` pairs of a config file; an unreadable or non-UTF-8 file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_assignments(fh.readlines())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config line {undecodable_line(path)}: not UTF-8 text") from exc


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
