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
import json
import os
import sys

import numpy as np

from .configfile import build_configs, coerce_trainer_value, parse_assignments
from .core import ConfigError, TrainerConfig
from .diagnostics import BoundConfig, hoeffding_term, tc_risk
from .harness import RunResult, TrainState, offline_select, run, sweep, train_epoch
from .logio import (
    LogParseError,
    dumps_record,
    read_passrates,
    write_metrics,
    write_passrates,
)
from .sim import BiasVerificationError, WorldConfig, generate_world, init_policy
from .trajectory import ReliableDatabase, TrajectoryStore, write_trajectories_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_CHECK = 4


class CheckFailure(Exception):
    """One or more ``--check`` verifications failed."""


def _configs_from_args(args) -> tuple[TrainerConfig, WorldConfig]:
    assignments: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                assignments = parse_assignments(fh.readlines())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
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


def _check_run(result: RunResult, trainer: TrainerConfig, world: WorldConfig) -> None:
    problems: list[str] = []

    rerun = run(trainer, world)
    first = [dumps_record(dataclasses.asdict(r)) for r in result.records]
    second = [dumps_record(dataclasses.asdict(r)) for r in rerun.records]
    if first != second:
        problems.append("re-running the same configuration changed the pass-rate log")

    g = trainer.group_size
    for rec in result.records:
        if not 0.0 <= rec.pass_rate <= 1.0:
            problems.append(f"pass rate {rec.pass_rate} outside [0, 1] (qid {rec.qid})")
            break
        if abs(rec.pass_rate * g - round(rec.pass_rate * g)) > 1e-9:
            problems.append(f"pass rate {rec.pass_rate} is not a multiple of 1/{g} (qid {rec.qid})")
            break

    per_question = len(result.records) / len(result.dataset.questions)
    if per_question != trainer.epochs:
        problems.append(
            f"expected {trainer.epochs} records per question, found {per_question:.2f}"
        )

    unlabeled = set(result.dataset.unlabeled_ids)
    union: set[int] = set()
    for epoch in sorted(result.masks):
        mask = result.masks[epoch]
        if not set(mask.selected) <= unlabeled:
            problems.append(f"epoch {epoch} selected ids outside the unlabeled split")
        if set(mask.tcs_scores) != unlabeled:
            problems.append(f"epoch {epoch} did not score every unlabeled question")
        union |= set(mask.selected)
    if result.masks:
        members = set(result.db.member_ids)
        labeled = set(result.dataset.labeled_ids)
        if trainer.db_policy == "additive" and not union <= members:
            problems.append("additive database lost previously selected questions")
        if trainer.db_policy == "recompute":
            last = result.masks[max(result.masks)]
            if members != labeled | set(last.selected):
                problems.append("recompute database does not match the last mask")
        replay = offline_select(
            result.records,
            top_p=trainer.top_p,
            gamma=trainer.gamma,
            warmup_epochs=trainer.warmup_epochs,
            matching_mode=trainer.matching_mode,
            db_policy=trainer.db_policy,
        )
        for mask in replay.masks:
            recorded = result.masks.get(mask.epoch)
            if recorded is None or set(recorded.selected) != set(mask.selected):
                problems.append(f"offline selection disagrees with the run at epoch {mask.epoch}")
                break

    if trainer.paradigm == "trapo" and trainer.warmup_epochs > 0:
        sup = dataclasses.replace(trainer, paradigm="supervised")
        dataset = generate_world(world)
        pol_a = init_policy(dataset, world)
        pol_b = init_policy(dataset, world)
        state_a = TrainState(
            pol_a,
            ReliableDatabase.initial(dataset.labeled_ids),
            TrajectoryStore([q.question_id for q in dataset.questions]),
        )
        state_b = TrainState(
            pol_b,
            ReliableDatabase.initial(dataset.labeled_ids),
            TrajectoryStore([q.question_id for q in dataset.questions]),
        )
        for epoch in range(1, trainer.warmup_epochs + 1):
            train_epoch(dataset, trainer, state_a, epoch)
            train_epoch(dataset, sup, state_b, epoch)
        if not np.array_equal(pol_a.params.weights, pol_b.params.weights):
            problems.append("warmup epochs diverged from the supervised baseline")

    if problems:
        raise CheckFailure("; ".join(problems))


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
        _check_run(result, trainer, world)
        print("check: all run invariants verified")
    return EXIT_OK


def _cmd_select(args) -> int:
    records = read_passrates(args.log)
    selection = offline_select(
        records,
        top_p=args.top_p,
        gamma=args.gamma,
        warmup_epochs=args.warmup,
        matching_mode=args.matching,
        db_policy=args.db_policy,
    )
    for mask in selection.masks:
        ids = ",".join(str(q) for q in sorted(mask.selected))
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
    records = read_passrates(args.log)
    bound = BoundConfig(alpha=args.alpha, label_diameter=args.ly, delta=args.delta)
    by_epoch: dict[int, list] = {}
    for rec in records:
        if rec.split == "unlabeled":
            by_epoch.setdefault(rec.epoch, []).append(rec)
    if not by_epoch:
        raise LogParseError("no unlabeled records to diagnose")
    selection = offline_select(
        records,
        top_p=1.0,
        gamma=0.0,
        warmup_epochs=args.warmup,
        matching_mode=args.matching,
        db_policy=args.db_policy,
    )
    scores_by_epoch = {mask.epoch: mask.tcs_scores for mask in selection.masks}
    rows = []
    for epoch in sorted(by_epoch):
        recs = by_epoch[epoch]
        scores = scores_by_epoch.get(epoch)
        if scores is None:
            continue
        confidences = [r.confidence for r in recs if r.confidence is not None]
        mean_conf = float(np.mean(confidences)) if confidences else 0.0
        mean_div = float(np.mean([1.0 - s for s in scores.values()]))
        n = len(recs)
        rows.append(
            {
                "epoch": epoch,
                "empirical_risk_labeled": None,
                "mean_divergence": mean_div,
                "mean_confidence": mean_conf,
                "hoeffding_term": hoeffding_term(n, args.group_size, bound.delta),
                "rtc": tc_risk(bound, mean_div, mean_conf, n, args.group_size),
                "n": n,
                "G": args.group_size,
            }
        )
    for row in rows:
        print(
            f"epoch {row['epoch']:3d}  div {row['mean_divergence']:.4f}  "
            f"conf {row['mean_confidence']:.4f}  hoeff {row['hoeffding_term']:.4f}  "
            f"rtc {row['rtc']:.4f}"
        )
    if args.out:
        write_metrics(args.out, rows)
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
    parser.add_argument("--matching", choices=("mean", "max"), default="mean")
    parser.add_argument("--db-policy", choices=("additive", "recompute"), default="additive")


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
    p.add_argument("--top-p", type=float, default=0.1, help="top fraction always selected")
    p.add_argument("--gamma", type=float, default=0.4, help="similarity admission threshold")
    p.add_argument("--out", help="write per-epoch selections as JSONL")
    p.add_argument("--csv", help="also export trajectories as CSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("diagnose", help="recompute the self-training risk monitor from logs")
    _add_replay_options(p)
    p.add_argument("--alpha", type=float, default=1.0, help="divergence weight")
    p.add_argument("--ly", type=float, default=1.0, help="label-space diameter constant")
    p.add_argument("--delta", type=float, default=0.05, help="confidence level for the tail term")
    p.add_argument("--group-size", type=int, default=8, help="rollouts per question in the log")
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
