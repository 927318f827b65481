"""The two benchmark workloads and the replay-log generator.

Each workload is built from ``(seed, input_dir)``, makes its inputs from the
seed alone, and exposes:

* ``setup()`` -- one untimed-for-wall repetition of the op's set-up calls,
  returning their seconds;
* ``op(out_dir, clock)`` -- one operation, returning an :class:`OpResult`
  with its wall time, set-up time and output digests;
* ``check(op)`` -- the workload's invariants on that op's output, run
  outside any timing or tracing.

Every call into the package goes through a module attribute at call time
(``harness.run``, ``cli.main``...), so wrappers installed by the tracer see
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from trajrl import cli, harness, logio, sim
from trajrl.core import TrainerConfig


@dataclass
class OpResult:
    wall_s: float
    setup_s: float
    question_epochs: int
    digests: dict[str, str]
    phases_s: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    output: object = None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_pass_rates(records, group_size: int, expected: int, problems: list[str]) -> None:
    if len(records) != expected:
        problems.append(f"expected {expected} pass-rate records, found {len(records)}")
    rates = np.array([r.pass_rate for r in records]) * group_size
    if np.any(np.abs(rates - np.round(rates)) > 1e-9):
        problems.append(f"a pass rate is not a multiple of 1/{group_size}")


class TrainDefault:
    """The README run: ``TrainerConfig()`` (trapo, 26 epochs, G=8) on ``default_v1``."""

    name = "train_default"

    def __init__(self, seed: int, work_dir: str) -> None:
        self.trainer = TrainerConfig(seed=seed)
        self.world = sim.default_v1(seed=seed)
        self.n_questions = self.world.n_labeled + self.world.n_unlabeled

    def setup(self) -> float:
        t0 = perf_counter()
        dataset = sim.generate_world(self.world)
        sim.init_policy(dataset, self.world)
        return perf_counter() - t0

    def op(self, out_dir: str, clock) -> OpResult:
        before = clock.seconds
        t0 = perf_counter()
        dataset = sim.generate_world(self.world)
        policy = sim.init_policy(dataset, self.world)
        result = harness.run(self.trainer, self.world, dataset=dataset, policy=policy, out_dir=out_dir)
        wall = perf_counter() - t0
        op = OpResult(
            wall_s=wall,
            setup_s=clock.seconds - before,
            question_epochs=self.n_questions * self.trainer.epochs,
            digests={
                name: sha256_file(os.path.join(out_dir, name))
                for name in ("passrates.jsonl", "metrics.jsonl")
            },
            output=result,
        )
        return op

    def check(self, op: OpResult) -> None:
        """Run invariants: record shape, and offline replay equals the online masks."""
        result, problems, cfg = op.output, op.problems, self.trainer
        _check_pass_rates(result.records, cfg.group_size, self.n_questions * cfg.epochs, problems)
        replay = harness.offline_select(
            result.records,
            top_p=cfg.top_p,
            gamma=cfg.gamma,
            warmup_epochs=cfg.warmup_epochs,
            matching_mode=cfg.matching_mode,
            db_policy=cfg.db_policy,
        )
        online = {e: m.selected for e, m in result.masks.items()}
        offline = {m.epoch: m.selected for m in replay.masks}
        if online != offline:
            problems.append("offline selection disagrees with the run's masks")


# Shape of the synthetic replay log: half the default world's questions (30
# labeled, 90 unlabeled) over its 26 epochs with G=8 rollouts and K=512
# tokens.  Max-matching select costs O(questions x database x epochs), so half
# the questions makes an op about a quarter as long as on the full world, and a
# run holds a dozen ops instead of two or three.
REPLAY_LABELED = 30
REPLAY_UNLABELED = 90
REPLAY_EPOCHS = 26
REPLAY_G = 8
REPLAY_K = 512
REPLAY_CLUSTERS = 6
REPLAY_POISONED = 0.3
REPLAY_SHIFTED = 0.2
REPLAY_WARMUP = 8
REPLAY_FLAGS = ["--warmup", str(REPLAY_WARMUP), "--db-policy", "recompute"]
# Stream tag that keeps the generator's draws apart from any other use of the seed.
_REPLAY_STREAM = 0x7E91A7


def _line(epoch: int, qid: int, count: int, label: int | None = None, tie: bool = False) -> str:
    """One record of ``count`` hits out of G; ``label`` is None for a labeled question."""
    rate = format(count / REPLAY_G, ".9g")
    if label is None:
        split, pseudo, confidence = "labeled", "null", "null"
    else:
        split, pseudo, confidence = "unlabeled", str(label), rate
    return (
        f'{{"epoch": {epoch}, "qid": {qid}, "split": "{split}", "pass_rate": {rate}, '
        f'"pseudo_label": {pseudo}, "confidence": {confidence}, '
        f'"tie": {"true" if tie else "false"}, "selected": false, "tcs": null}}'
    )


def make_replay_log(seed: int, path: str) -> None:
    """Write a ``passrates.jsonl`` that looks like a naive_semi run of a half-size default world.

    The file is written byte by byte in the documented format (fixed key
    order, ``%.9g`` floats), without calling the package, so training-side
    changes cannot alter it.  As in a non-selecting run, ``selected`` is
    false and ``tcs`` null throughout.  Unlabeled pass rates equal the
    vote confidence, as they do in real logs.  Slices:

    * labeled and in-domain unlabeled questions rise along a logistic curve
      with a random onset, sampled as Binomial(G, p) hits;
    * a poisoned slice is flat and confidently wrong: a constant wrong
      pseudo-label with a strict-majority vote every epoch;
    * a shifted slice is noise: low-confidence votes for random labels.
    """
    rng = np.random.default_rng([seed, _REPLAY_STREAM])
    n_total = REPLAY_LABELED + REPLAY_UNLABELED
    unlabeled = rng.permutation(np.arange(REPLAY_LABELED, n_total))
    n_poison = round(REPLAY_POISONED * REPLAY_UNLABELED)
    n_shift = round(REPLAY_SHIFTED * REPLAY_UNLABELED)
    poisoned = set(unlabeled[:n_poison].tolist())
    shifted = set(unlabeled[n_poison : n_poison + n_shift].tolist())
    gold = {q: (q % REPLAY_CLUSTERS) * (REPLAY_K // REPLAY_CLUSTERS) for q in range(n_total)}
    onset = rng.uniform(4.0, 14.0, n_total)
    onset[REPLAY_LABELED:] += rng.uniform(0.0, 4.0, REPLAY_UNLABELED)
    width = rng.uniform(1.0, 3.0, n_total)
    ceiling = rng.uniform(0.8, 1.0, n_total)
    majority = REPLAY_G // 2 + 1

    lines = []
    for epoch in range(1, REPLAY_EPOCHS + 1):
        p = ceiling / (1.0 + np.exp(-(epoch - onset) / width))
        hits = rng.binomial(REPLAY_G, p)
        lines += [_line(epoch, q, hits[q]) for q in range(REPLAY_LABELED)]
        for q in range(REPLAY_LABELED, n_total):
            if q in poisoned:
                count = max(int(rng.binomial(REPLAY_G, 0.92)), majority)
                label = (gold[q] + 1) % REPLAY_K
            elif q in shifted:
                count = int(rng.integers(1, majority))
                label = int(rng.integers(REPLAY_K))
            else:
                count = max(int(hits[q]), 1)
                label = gold[q] if count >= majority else int(rng.integers(REPLAY_K))
            # With G votes a winner of one is an all-way tie; a winner short
            # of a strict majority may or may not share its count.
            tie = count == 1 or (count < majority and bool(rng.random() < 0.5))
            lines.append(_line(epoch, q, count, label, tie))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class ReplayLogs:
    """``select``, ``diagnose`` and ``select --matching max`` on a synthetic log."""

    name = "replay_logs"
    commands = (
        ("select", ["select", *REPLAY_FLAGS]),
        ("diagnose", ["diagnose", *REPLAY_FLAGS]),
        ("select_max", ["select", *REPLAY_FLAGS, "--matching", "max"]),
    )

    def __init__(self, seed: int, work_dir: str) -> None:
        os.makedirs(work_dir, exist_ok=True)
        self.log = os.path.join(work_dir, "passrates.jsonl")
        make_replay_log(seed, self.log)
        self.input_digest = sha256_file(self.log)
        records = logio.read_passrates(self.log)  # parse check, untimed
        problems: list[str] = []
        _check_pass_rates(records, REPLAY_G, (REPLAY_LABELED + REPLAY_UNLABELED) * REPLAY_EPOCHS, problems)
        if problems:
            raise RuntimeError(f"generated replay log is malformed: {problems}")

    def setup(self) -> float:
        t0 = perf_counter()
        for _ in self.commands:
            logio.read_passrates(self.log)
        return perf_counter() - t0

    def op(self, out_dir: str, clock) -> OpResult:
        before = clock.seconds
        digests = {"input/passrates.jsonl": self.input_digest}
        phases: dict[str, float] = {}
        problems: list[str] = []
        t0 = perf_counter()
        for label, argv in self.commands:
            out = os.path.join(out_dir, f"{label}.jsonl")
            stdout = io.StringIO()
            t = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*argv, "--log", self.log, "--out", out])
            phases[f"{label}_s"] = perf_counter() - t
            if code != 0:
                problems.append(f"{label} exited with {code}")
                continue
            text = stdout.getvalue()
            digests[f"{label}/stdout"] = hashlib.sha256(text.encode()).hexdigest()
            digests[f"{label}/out"] = sha256_file(out)
            rows = REPLAY_EPOCHS - REPLAY_WARMUP
            if len(text.splitlines()) != rows:
                problems.append(f"{label} printed {len(text.splitlines())} rows, expected {rows}")
        wall = perf_counter() - t0
        return OpResult(
            wall_s=wall,
            setup_s=clock.seconds - before,
            question_epochs=len(self.commands) * (REPLAY_LABELED + REPLAY_UNLABELED) * REPLAY_EPOCHS,
            digests=digests,
            phases_s=phases,
            problems=problems,
        )

    def check(self, op: OpResult) -> None:
        """Exit codes and row counts are checked inside ``op``."""


WORKLOADS = {w.name: w for w in (TrainDefault, ReplayLogs)}
