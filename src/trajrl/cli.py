"""Command line front end.

Subcommands:

- ``simulate``: generate a world, train, optionally write logs; ``--check``
  re-verifies run invariants (determinism, warmup equivalence, log sanity,
  online/offline selection agreement).
- ``select``: replay trajectory-matching selection from a pass-rate log.
- ``diagnose``: recompute the self-training risk monitor from a pass-rate log.
- ``sweep``: re-run training across values of one trainer setting.

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
from itertools import compress

import numpy as np

from .configfile import build_configs, coerce_trainer_value, read_assignments
from .core import DB_POLICIES, MATCHING_MODES, ConfigError, TrainerConfig
# tc_risk is not called here; perfbench wraps this lookup site by name.
from .diagnostics import BoundConfig, bound_report, tc_risk
from .harness import off_grid_record, offline_select, run, sweep, verify_run
from .logio import LogParseError, read_passrates, write_metrics, write_passrates
from .sim import BiasVerificationError, WorldConfig
from .trajectory import write_trajectories_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_CHECK = 4


class CheckFailure(Exception):
    """One or more ``--check`` verifications failed."""


def _configs_from_args(args) -> tuple[TrainerConfig, WorldConfig]:
    assignments = read_assignments(args.config) if args.config else {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {item!r}")
        assignments[key.strip()] = value.strip()
    trainer, world = build_configs(assignments)
    if getattr(args, "seed", None) is not None:
        trainer = dataclasses.replace(trainer, seed=args.seed)
        world = dataclasses.replace(world, seed=args.seed)
    return trainer, world


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
    trainer, world = _configs_from_args(args)
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


def _replay(args, log):
    return offline_select(
        log,
        top_p=args.top_p,
        gamma=args.gamma,
        warmup_epochs=args.warmup,
        matching_mode=args.matching,
        db_policy=args.db_policy,
    )


def _cmd_select(args) -> int:
    selection = _replay(args, read_passrates(args.log))
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
    g = args.group_size
    if not 1 <= g <= sys.float_info.max:
        raise ConfigError(f"--group-size must lie in [1, {sys.float_info.max:g}]")
    bad = off_grid_record(log, g)
    if bad is not None:
        raise ConfigError(
            f"--group-size {g} contradicts the log: pass rate {bad.pass_rate} "
            f"(qid {bad.qid}, epoch {bad.epoch}) is not a multiple of 1/{g}"
        )
    bound = BoundConfig(alpha=args.alpha, label_diameter=args.ly, delta=args.delta)
    unlabeled = list(map("unlabeled".__eq__, log.split))
    confidences = list(compress(log.confidence, unlabeled))
    if None in confidences:
        qid, epoch = (list(compress(c, unlabeled))[confidences.index(None)] for c in (log.qid, log.epoch))
        raise LogParseError(f"qid {qid} epoch {epoch}: unlabeled record has no confidence")
    if not confidences:
        raise LogParseError("no unlabeled records to diagnose")
    masks = _replay(args, log).masks
    # Each question covers epochs 1..T once (the replay checked): row t - 1 is epoch t, in log order.
    epochs = np.fromiter(compress(log.epoch, unlabeled), np.int64, len(confidences))
    by_epoch = np.array(confidences)[np.argsort(epochs, kind="stable")].reshape(epochs.max(), -1)
    reports = [
        bound_report(bound, m.epoch, m.tcs_scores, by_epoch[m.epoch - 1], by_epoch.shape[1], g)
        for m in masks
    ]
    for r in reports:
        print(
            f"epoch {r.epoch:3d}  div {r.mean_divergence:.4f}  "
            f"conf {r.mean_confidence:.4f}  hoeff {r.hoeffding_term:.4f}  rtc {r.rtc:.4f}"
        )
    if args.out:
        write_metrics(args.out, reports)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    trainer, world = _configs_from_args(args)
    values = [coerce_trainer_value(args.axis, v) for v in args.values.split(",")]
    results = sweep(trainer, args.axis, values, world)
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
        os.makedirs(args.out, exist_ok=True)
        for value, result in zip(values, results):
            subdir = os.path.join(args.out, f"{args.axis}={value}")
            os.makedirs(subdir, exist_ok=True)
            write_passrates(os.path.join(subdir, "passrates.jsonl"), result.records)
            write_metrics(os.path.join(subdir, "metrics.jsonl"), result.metrics)
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
    parser.add_argument("--log", required=True, help="pass-rate JSONL written by simulate")
    parser.add_argument("--warmup", type=int, default=0, help="epochs to skip before selecting")
    parser.add_argument("--matching", choices=MATCHING_MODES, default=TrainerConfig.matching_mode)
    parser.add_argument("--db-policy", choices=DB_POLICIES, default="additive")
    parser.add_argument(
        "--top-p", type=float, default=TrainerConfig.top_p, help="top fraction always selected"
    )
    parser.add_argument(
        "--gamma", type=float, default=TrainerConfig.gamma, help="similarity admission threshold"
    )


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
    p.add_argument(
        "--group-size", type=int, default=TrainerConfig.group_size,
        help="rollouts per question in the log",
    )
    p.add_argument("--out", help="write per-epoch diagnostics as JSONL")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("sweep", help="re-run training over values of one trainer setting")
    _add_config_options(p)
    p.add_argument("--axis", required=True, help="trainer config field to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", help="directory for per-value logs and summary.jsonl")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BiasVerificationError) as exc:
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
