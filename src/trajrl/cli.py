"""Command line front end.

Subcommands:

- ``simulate``: generate a world, train, optionally write logs; ``--check``
  re-verifies run invariants (determinism, warmup equivalence, log sanity,
  online/offline selection agreement, the replayed risk monitor).
- ``select``: replay trajectory-matching selection from a pass-rate log.
- ``diagnose``: recompute the self-training risk monitor from a pass-rate log.
  Both take each setting they are not given from the ``run.json`` beside the log.
- ``sweep``: re-run training across values of one config key; each value is one
  more assignment, so its run is exactly ``simulate``'s with that value set.

Exit codes: 0 success, 2 configuration error (divergent training included),
3 input parse error, 4 failed ``--check`` verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .configfile import RUN_FILE, build_configs, read_assignments, read_run_config
from .core import DB_POLICIES, EPOCH_LIMIT, MATCHING_MODES, ConfigError, TrainerConfig
# tc_risk is not called here; perfbench wraps this lookup site by name.
from .diagnostics import BoundConfig, bound_report, tc_risk
from .harness import (
    SELECTION_FIELDS, off_grid_record, offline_select, run, sweep, unlabeled_confidences, verify_run, write_run,
)
from .logio import LogParseError, PassRateLog, read_passrates, write_metrics
from .trajectory import write_trajectories_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_CHECK = 4


class CheckFailure(Exception):
    """One or more ``--check`` verifications failed."""


def _assignments_from_args(args) -> dict[str, str]:
    """The raw config assignments: the config file, then each ``--set``, then ``--seed``."""
    assignments = read_assignments(args.config) if args.config else {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {item!r}")
        assignments[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        assignments["seed"] = str(args.seed)
    return assignments


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _print_metrics_row(m) -> None:
    print(
        f"epoch {m.epoch:3d}  acc_L {_fmt(m.labeled_train_acc)}  "
        f"acc_id {_fmt(m.eval_acc_id)}  acc_ood {_fmt(m.eval_acc_ood)}  "
        f"sel {m.n_selected:3d}  conf {_fmt(m.mean_confidence)}  "
        f"rtc {_fmt(m.rtc)}  loss {_fmt(m.loss)}"
    )


def _cmd_simulate(args) -> int:
    trainer, world = build_configs(_assignments_from_args(args))
    result = run(trainer, world, out_dir=args.out)
    if not args.quiet:
        for m in result.metrics:
            _print_metrics_row(m)
    if args.csv:
        split_of = {q.question_id: "labeled" for q in result.dataset.labeled}
        split_of.update({q.question_id: "unlabeled" for q in result.dataset.unlabeled})
        write_trajectories_csv(result.store, split_of, args.csv)
    final = result.metrics[-1]
    print(
        f"done: {trainer.epochs} epochs, paradigm={trainer.paradigm}, "
        f"final acc_L {_fmt(final.labeled_train_acc)} acc_id {_fmt(final.eval_acc_id)} "
        f"acc_ood {_fmt(final.eval_acc_ood)}"
    )
    if args.check:
        problems = verify_run(result)
        if problems:
            raise CheckFailure("; ".join(problems))
        print("check: all run invariants verified")
    return EXIT_OK


# Each replay flag, by the TrainerConfig field it sets.
_REPLAY_FLAGS = {
    "warmup_epochs": "--warmup", "matching_mode": "--matching", "db_policy": "--db-policy",
    "top_p": "--top-p", "gamma": "--gamma", "group_size": "--group-size",
}


def _replay_settings(args, log: PassRateLog) -> tuple[dict, dict]:
    """The replay settings, by field, and where each came from: each flag given, else the
    run's value from the ``run.json`` beside ``--log`` (which must span the log and agree with
    ``--group-size``), else ``TrainerConfig``'s default; checked but for the warmup (``_replay``)."""
    given = {f: v for f in _REPLAY_FLAGS if (v := getattr(args, f, None)) is not None}
    path = os.path.join(os.path.dirname(args.log), RUN_FILE)
    base, origin = TrainerConfig(), "TrainerConfig's default"
    if os.path.exists(path):
        base, origin, epochs = read_run_config(path), f"from {path}", max(log.epoch, default=0)
        if base.epochs != epochs:
            raise LogParseError(f"{path}: epochs {base.epochs} differs from the log's {epochs}")
        if given.get("group_size", base.group_size) != base.group_size:
            raise ConfigError(f"--group-size {args.group_size} contradicts {path}: the run's G is {base.group_size}")
    settings = {f: given.get(f, getattr(base, f)) for f in _REPLAY_FLAGS}
    sources = {f: f"{flag} {given[f]}" if f in given else f"{f} {settings[f]} ({origin})"
               for f, flag in _REPLAY_FLAGS.items()}
    try:
        TrainerConfig(epochs=EPOCH_LIMIT - 1, **{f: v for f, v in settings.items() if f != "warmup_epochs"})
    except ConfigError as exc:  # its message starts with the field it refuses
        raise ConfigError(f"{sources[str(exc).split(' ', 1)[0]]}: {exc}") from exc
    return settings, sources


def _replay(log: PassRateLog, settings: dict, sources: dict):
    """``offline_select`` of ``log`` with the replay settings.  ``--warmup`` meets the log's epoch
    count there, once the log itself has passed its checks; a refusal names the warmup's source."""
    try:
        return offline_select(log, **{f: settings[f] for f in SELECTION_FIELDS})
    except ConfigError as exc:  # the checked settings leave only the warmup bound, the log's epochs
        raise ConfigError(f"{sources['warmup_epochs']}: {exc}") from exc


def _cmd_select(args) -> int:
    log = read_passrates(args.log)
    settings, sources = _replay_settings(args, log)
    selection = _replay(log, settings, sources)
    for mask in selection.masks:
        ids = ",".join(map(str, sorted(mask.selected)))
        print(f"epoch {mask.epoch}: selected {len(mask.selected)} [{ids}]")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            for mask in selection.masks:
                fields = {
                    "epoch": mask.epoch,
                    "selected": sorted(mask.selected),
                    "scores": {str(q): mask.tcs_scores[q] for q in sorted(mask.tcs_scores)},
                }
                fh.write(json.dumps(fields) + "\n")
    if args.csv:
        write_trajectories_csv(selection.store, selection.split_of, args.csv)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    log = read_passrates(args.log)
    settings, sources = _replay_settings(args, log)
    g = settings["group_size"]
    bad = off_grid_record(log, g)
    if bad is not None:
        raise ConfigError(
            f"{sources['group_size']} contradicts the log: pass rate {bad.pass_rate} "
            f"(qid {bad.qid}, epoch {bad.epoch}) is not a multiple of 1/{g}"
        )
    bound = BoundConfig(alpha=args.alpha, label_diameter=args.ly, delta=args.delta)
    confidences = unlabeled_confidences(log)
    masks = _replay(log, settings, sources).masks
    reports = [bound_report(bound, m.epoch, m.tcs_scores, confidences[m.epoch], g) for m in masks]
    for r in reports:
        print(
            f"epoch {r.epoch:3d}  div {r.mean_divergence:.4f}  "
            f"conf {r.mean_confidence:.4f}  hoeff {r.hoeffding_term:.4f}  rtc {r.rtc:.4f}"
        )
    if args.out:
        write_metrics(args.out, reports)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # Each value is one more assignment, so its configs are exactly simulate's for that value.
    assignments = _assignments_from_args(args)
    configs, values = [], []
    for raw in args.values.split(","):
        trainer, world = build_configs({**assignments, args.axis: raw.strip()})
        value = getattr(trainer if hasattr(trainer, args.axis) else world, args.axis)
        if value in values:
            raise ConfigError(f"sweep value {args.axis}={value} is repeated")
        configs.append((trainer, world))
        values.append(value)
    results = sweep(configs)
    summary = []
    for value, result in zip(values, results):
        final = dataclasses.asdict(result.metrics[-1])
        final.pop("epoch")
        summary.append({"axis": args.axis, "value": value, **final})
        print(
            f"{args.axis}={value}  acc_L {_fmt(final['labeled_train_acc'])}  "
            f"acc_id {_fmt(final['eval_acc_id'])}  sel {final['n_selected']}  "
            f"rtc {_fmt(final['rtc'])}"
        )
    if args.out:
        for value, result in zip(values, results):
            write_run(os.path.join(args.out, f"{args.axis}={value}"), result)
        write_metrics(os.path.join(args.out, "summary.jsonl"), summary)
    return EXIT_OK


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file for trainer and world settings")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def _add_replay_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log", required=True, help="pass-rate JSONL; a replay flag not given takes the run's "
        "value from the run.json beside it, else TrainerConfig's default",
    )
    parser.add_argument("--warmup", dest="warmup_epochs", type=int, help="epochs to skip before selecting")
    parser.add_argument("--matching", dest="matching_mode", choices=MATCHING_MODES)
    parser.add_argument("--db-policy", choices=DB_POLICIES)
    parser.add_argument("--top-p", type=float, help="top fraction always selected")
    parser.add_argument("--gamma", type=float, help="similarity admission threshold")


@functools.cache  # built once per process: parsing leaves a parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajrl",
        description="Trajectory-matched semi-supervised RL simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a world and train on it")
    _add_config_options(p)
    p.add_argument("--seed", type=int, help="override the trainer and world seed")
    p.add_argument("--out", help="directory for passrates.jsonl and metrics.jsonl")
    p.add_argument("--csv", help="also export trajectories as CSV")
    p.add_argument("--check", action="store_true", help="verify run invariants (exit 4 on failure)")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="replay selection from logged pass rates")
    _add_replay_options(p)
    p.add_argument("--out", help="write per-epoch selections as JSONL")
    p.add_argument("--csv", help="also export trajectories as CSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("diagnose", help="recompute the self-training risk monitor from logs")
    _add_replay_options(p)
    p.add_argument("--alpha", type=float, default=BoundConfig.alpha, help="divergence weight")
    p.add_argument(
        "--ly", type=float, default=BoundConfig.label_diameter,
        help="label-space diameter constant",
    )
    p.add_argument(
        "--delta", type=float, default=BoundConfig.delta, help="confidence level for the tail term"
    )
    p.add_argument("--group-size", type=int, help="rollouts per question in the log")
    p.add_argument("--out", help="write per-epoch diagnostics as JSONL")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("sweep", help="re-run training over values of one config key")
    _add_config_options(p)
    p.add_argument("--axis", required=True, help="trainer or world config key to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", help="directory for per-value logs and summary.jsonl")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
