"""The training loop: rollouts, pseudo-labels, selection, updates, metrics.

Each epoch follows a fixed order -- sample rollout groups for every question,
verify their answers and record pass rates, run trajectory-matching selection
(when applicable), build rewards, accumulate one gradient over the training
set in dataset order, and apply a single parameter update.  Skipped questions
contribute nothing at all, which is what makes paradigm comparisons bit-exact:
a warmup epoch of the trajectory-matching paradigm touches exactly the same
numbers as the supervised baseline.

An epoch (``train_epoch``) is a label-free learning step plus one evaluator.
The learning step (``_learning_step``) does all of the above and returns only
its loss: the rows it logs are the epoch's one record, and an unlabeled row's
``confidence`` is its logged pass rate.  The evaluator (``_evaluate``) is the
one function of the package that reads the hidden answers,
``Dataset.eval_answers``: it builds the epoch's ``EpochMetrics`` from those rows
and one greedy pass of the updated policy, and ``run``'s ``initial_eval`` from
one greedy pass of the untouched policy.  Neither the learning step nor the
selection it shares with ``offline_select`` can reach it;
``tests/test_lookup_sites.py`` checks both.

The epoch works on blocks of ``_BLOCK`` questions.  Each block call of a
kernel pays a fixed cost on top of its per-row work, so a larger block pays
it less often, until the block's (B, L, K) temporaries outgrow the L2 cache.
Per question the epoch only runs the gradient matmul (into one reused
buffer), the uniform draws, whose stream keys are computed once per epoch,
and one inverse-CDF ``searchsorted`` per step.  The forward pass is one
stacked matmul per block, greedy evaluation one per policy; both make each
question's own BLAS call, since one product over the stacked rows would
round differently.  The softmax, rollout checks, rewards and the
surrogate/entropy/KL terms run once per block; the votes and the one
verification, ``verify_block``'s (N, G) hit matrix whose row means are the
pass rates and whose rows are the verified rewards, once per epoch.
Every kernel operation is row-wise, so a run's logs are bit-identical to
processing one question at a time (``rollout_group``, ``hybrid_reward`` and
``grpo_loss_and_grad`` are those kernels on a block of one), and a run's
bits do not depend on the block size.  Sampling keeps only the (N, G, L)
tokens; the update recomputes its blocks' step distributions from the same
parameters, which gives the same bits, so no (N, L, K) array lives across
the epoch: a selecting epoch of the default run peaks at about 1.7 MB of
traced allocations, below the 3.9 MB of one such array.

Four training paradigms share the loop.  ``core.PARADIGMS`` is their one definition:
which rows each trains, read by every paradigm decision here (selection, the training
rows, ``run``'s empty-split refusal and ``verify_run``'s warmup check).

- ``supervised``: labeled questions only.
- ``unsupervised``: unlabeled questions only, every epoch.
- ``naive_semi``: labeled plus all unlabeled, every epoch.
- ``trapo``: labeled plus the unlabeled questions whose pass-rate
  trajectories match the reliable set, once warmup ends.  Warmup gates
  only this paradigm; during warmup it is bit-identical to supervised.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .configfile import RUN_FILE, write_run_config
from .core import (
    DOMAIN_OOD,
    PARADIGMS,
    SIZE_LIMIT,
    ConfigError,
    Dataset,
    DivergenceError,
    Question,
    StreamDraws,
    TrainerConfig,
    check_rollouts,
    shown,
    step_inputs,
    stream_keys,
)
from .diagnostics import BoundConfig, bound_report
from .grpo import PolicyParams, block_step_probs, grpo_block
from .logio import LogParseError, PassRateLog, PassRateRecord, as_logged, write_metrics, write_passrates
from .rewards import majority_votes, reward_block, verify_block
from .sim import (
    Policy,
    WorldConfig,
    default_v1,
    generate_world,
    greedy_answers,
    init_policy,
    refuse_saturating_spread,
    sample_block,
)
from .trajectory import (
    ReliableDatabase,
    SelectionMask,
    TrajectoryStore,
    reliable_average,
    select,
    tcs_max_rows,
    tcs_rows,
    update_db,
)

# Not called here: perfbench wraps these lookup sites of this module by name.
from .core import rng_stream
from .diagnostics import tc_risk
from .grpo import grpo_loss_and_grad
from .rewards import hybrid_reward, majority_vote
from .sim import greedy_answer, rollout_group
from .trajectory import pass_rate, tcs, tcs_max

# Questions per block of the training loop.  A block's (B, L, K) arrays are dropped
# before the next block starts.  Every block call of a kernel pays a fixed cost on top
# of its per-row work; ``tools/block_costs.py --repeats 9`` (default world, shared
# 2-vCPU machine, OpenBLAS SkylakeX kernel) read, in µs per call:
#
#   kernel              B=1    B=8   B=16   B=32   fixed  per row
#   block_step_probs   21.4   80.0  137.6  275.5    14.5     8.08
#   sample_block       19.3   88.0  165.1  334.4     6.3    10.19
#   check_rollouts     12.2   17.7   21.9   35.3    11.3     0.74
#   reward_block        5.5    6.6    4.9    5.1     5.4     0.00
#   grpo_block         87.2  242.7  433.3  874.5    48.6    25.42
#
# Blocks of 16 make half the block calls of blocks of 8 (a default run: 692 forward
# passes, 390 samplings, 302 updates).  In one process, default runs in blocks of 16
# and 20 were the fastest and runs slowed from 24 up, where the update's (B, L, K)
# temporaries, 16 KB per question each, outgrow the L2 cache.  ``tools/bench_pairs.py``
# (seeds 0-9, ``--seconds 40``) read train_default wall_s 0.495 s (quartiles
# 0.470-0.514) in blocks of 8 against 0.437 s in blocks of 16 with ``sample_block``'s
# row loop, faster in 10 of 10 pairs, at +0.56 MB (+1.3%) peak RSS.
_BLOCK = 16

__all__ = [
    "EpochMetrics",
    "TrainState",
    "RunResult",
    "OfflineSelection",
    "greedy_accuracy",
    "train_epoch",
    "run",
    "sweep",
    "write_run",
    "offline_select",
    "SELECTION_FIELDS",
    "off_grid_record",
    "unlabeled_confidences",
    "SCORERS",
    "verify_run",
]


@dataclass(frozen=True)
class EpochMetrics:
    """One epoch's summary row.  Field order is the log column order.

    Accuracy fields are greedy-answer accuracy against the hidden gold
    answers, measured after the epoch's parameter update: on the labeled
    split, the in-domain unlabeled split, and the shifted-domain unlabeled
    split.  Fields that need a nonempty population (or a selection step)
    are None until one exists.  ``loss`` is the summed objective of every
    question that contributed to this epoch's gradient.
    """

    epoch: int
    labeled_train_acc: float | None
    eval_acc_id: float | None
    eval_acc_ood: float | None
    n_selected: int
    mean_tcs_selected: float | None
    mean_tcs_unselected: float | None
    pseudo_acc_selected: float | None
    pseudo_acc_unselected: float | None
    mean_confidence: float | None
    mean_divergence: float | None
    rtc: float | None
    loss: float


@dataclass
class TrainState:
    """Everything that evolves across epochs."""

    policy: Policy
    db: ReliableDatabase
    store: TrajectoryStore
    masks: dict[int, SelectionMask] = field(default_factory=dict)
    epoch_logs: list[PassRateLog] = field(default_factory=list)
    metrics: list[EpochMetrics] = field(default_factory=list)

    @property
    def records(self) -> PassRateLog:
        """The pass-rate rows of every epoch so far, as one log."""
        return PassRateLog.concat(self.epoch_logs)

    @classmethod
    def initial(cls, dataset: Dataset, policy: Policy, /, **inputs) -> "TrainState":
        """Epoch-0 state: the reliable set is the labeled split, no trajectories yet.
        ``inputs`` are a subclass's own fields."""
        return cls(
            policy,
            ReliableDatabase.initial(dataset.labeled_ids),
            TrajectoryStore([q.question_id for q in dataset.questions]),
            **inputs,
        )


@dataclass(kw_only=True)
class RunResult(TrainState):
    """The state ``run`` trained, with the run's inputs and its start-of-run evaluation."""

    trainer_config: TrainerConfig
    world_config: WorldConfig | None
    dataset: Dataset
    initial_eval: dict[str, float | None]


@dataclass
class OfflineSelection:
    """Selection replayed from logged pass rates, no policy involved."""

    masks: tuple[SelectionMask, ...]
    db: ReliableDatabase
    store: TrajectoryStore
    split_of: dict[int, str]


def greedy_accuracy(
    params: PolicyParams,
    questions: Sequence[Question],
    answers: Mapping[int, int],
    response_length: int,
) -> float | None:
    """Fraction of questions whose greedy answer matches ``answers``; None when empty."""
    if not questions:
        return None
    inputs = step_inputs(np.array([q.features for q in questions]), response_length)
    gold = np.array([answers[q.question_id] for q in questions])
    return _mean_or_none(greedy_answers(params, inputs) == gold)


def _mean_or_none(values: np.ndarray) -> float | None:
    """Mean of ``values`` (a hit fraction for booleans); None when empty."""
    return float(np.mean(values)) if values.size else None


# Each matching mode's scorer: (unlabeled rows, store, database, epoch) to one score per row.
SCORERS = {
    "max": lambda rows, store, db, epoch: tcs_max_rows(rows, store.as_matrix(db.sorted_members, epoch)),
    "mean": lambda rows, store, db, epoch: tcs_rows(rows, reliable_average(db, store, epoch)),
}


def _select_epoch(
    store: TrajectoryStore,
    db: ReliableDatabase,
    unlabeled_ids: Sequence[int],
    epoch: int,
    config: TrainerConfig,
) -> tuple[SelectionMask, ReliableDatabase]:
    """Score, select and update the database for one epoch: the one selection step
    of both ``train_epoch`` and ``offline_select``."""
    rows = store.as_matrix(unlabeled_ids, epoch)
    scores = SCORERS[config.matching_mode](rows, store, db, epoch)
    mask = select(dict(zip(unlabeled_ids, scores.tolist())), config.top_p, config.gamma, epoch)
    return mask, update_db(db, mask, config.db_policy)


def _learning_step(
    dataset: Dataset, config: TrainerConfig, state: TrainState, epoch: int
) -> float:
    """Steps 1-5 of epoch ``epoch`` (1-indexed): rollouts, the one verification, records,
    selection and the update, applied to ``state``; returns its loss.  Reads no hidden answer."""
    questions = dataset.questions
    ids = [q.question_id for q in questions]
    n, n_labeled = len(questions), len(dataset.labeled)
    g, length, k = config.group_size, dataset.response_length, dataset.num_tokens
    inputs = dataset.step_inputs
    params = state.policy.params
    tau = config.rollout_temperature

    # 1. Rollouts for every question, from its own counter-based stream.
    draws = np.empty((n, g, length))
    streams = StreamDraws()
    for key, out in zip(stream_keys(config.seed, ids, epoch), draws):
        streams.fill(key, out)
    responses = np.empty((n, g, length), dtype=np.int64)
    # An overflowing softmax gives NaN rows, the only rows check_rollouts can reject here.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            probs = block_step_probs(params, inputs[block], tau)
            responses[block] = sample_block(probs, draws[block])
            try:
                check_rollouts(responses[block], probs)
            except ValueError as exc:
                raise DivergenceError(
                    f"epoch {epoch}: a step distribution is not finite ({exc}); lower "
                    "learning_rate or raise rollout_temperature"
                ) from exc
    answers = responses[:, :, -1]

    # 2. The epoch's one verification, against gold when labeled and this epoch's majority
    # when not: pass rates are the hits' row means, verified rewards their rows.
    votes, _, ties = majority_votes(answers[n_labeled:])
    gold = np.array([q.gold_answer for q in dataset.labeled], dtype=np.int64)
    hits = verify_block(answers, np.concatenate([gold, votes]), k)
    # Each rate as the log reads it back, so a replay of the log scores the same numbers.
    rates = as_logged(hits.mean(axis=1).tolist())
    state.store.record(rates)

    # 3. Trajectory-matching selection, once past warmup, if the paradigm trains selected rows.
    # Its membership and scores are read once, in unlabeled order: records and rows share them.
    trains_labeled, trains_unlabeled = PARADIGMS[config.paradigm]
    unlabeled_ids = ids[n_labeled:]
    chosen = np.zeros(len(unlabeled_ids), dtype=bool)
    scores: tuple[float | None, ...] = (None,) * len(unlabeled_ids)
    if trains_unlabeled == "selected" and epoch > config.warmup_epochs:
        mask, state.db = _select_epoch(state.store, state.db, unlabeled_ids, epoch, config)
        state.masks[epoch] = mask
        chosen[:] = [qid in mask.selected for qid in unlabeled_ids]
        scores = tuple(mask.tcs_scores[qid] for qid in unlabeled_ids)

    # The epoch's rows as columns: labeled questions first, with no vote and no selection.
    nulls = (None,) * n_labeled
    state.epoch_logs.append(
        PassRateLog(
            epoch=(epoch,) * n,
            qid=ids,
            split=("labeled",) * n_labeled + ("unlabeled",) * len(unlabeled_ids),
            pass_rate=rates,
            pseudo_label=nulls + tuple(votes.tolist()),
            confidence=nulls + tuple(rates[n_labeled:]),
            tie=(False,) * n_labeled + tuple(ties.tolist()),
            selected=(False,) * n_labeled + tuple(chosen.tolist()),
            tcs=nulls + scores,
        )
    )

    # 4. Which questions train this epoch, as dataset positions in dataset order.
    trains = np.zeros(n, dtype=bool)
    trains[:n_labeled] = trains_labeled
    trains[n_labeled:] = chosen | (trains_unlabeled == "always")
    training = np.flatnonzero(trains)

    # 5. One accumulated gradient step.  The policy that sampled the
    # rollouts is also the one being updated, so ratios start at 1; each
    # block's distributions are recomputed from the same parameters.
    grad = np.zeros_like(params.weights)
    total_loss = 0.0
    ref = state.policy.ref_params if config.kl_beta > 0.0 else None
    for lo in range(0, len(training), _BLOCK):
        rows = training[lo : lo + _BLOCK]
        z, tokens = inputs[rows], responses[rows]
        probs = block_step_probs(params, z, tau)
        probs_ref = block_step_probs(ref, z, tau) if ref is not None else None
        rewards = reward_block(config.reward_kind, tokens, probs, hits[rows], rows < n_labeled)
        losses = grpo_block(z, tokens, rewards, probs, probs, probs_ref, config, grad)
        for loss in losses.tolist():
            total_loss += loss
    if training.size:
        weights = params.weights - config.learning_rate * grad
        if not np.all(np.isfinite(weights)):
            raise DivergenceError(
                f"epoch {epoch}: the parameter update is not finite (the policy's softmax "
                "saturated or the step overflowed); lower learning_rate or raise "
                "rollout_temperature"
            )
        state.policy = Policy(PolicyParams(weights), state.policy.ref_params)
    return total_loss


def _evaluate(
    dataset: Dataset, params: PolicyParams, epoch_log: PassRateLog | None = None, g: int = 0, loss: float = 0.0
) -> EpochMetrics | dict[str, float | None]:
    """The one reader of ``dataset.eval_answers``: greedy accuracy of ``params`` from one
    greedy pass.  Without ``epoch_log``, the labeled, in-domain, shifted and biased accuracies;
    given an epoch's rows, G and the loss, the epoch's ``EpochMetrics``, from its unlabeled rows."""
    if not dataset.eval_answers:
        raise ConfigError("the dataset has no eval_answers: metrics need every question's answer")
    n_labeled = len(dataset.labeled)
    gold = np.array([dataset.eval_answers[q.question_id] for q in dataset.questions])
    correct = greedy_answers(params, dataset.step_inputs) == gold
    unlabeled = correct[n_labeled:]
    shifted = np.array([q.domain_tag == DOMAIN_OOD for q in dataset.unlabeled], dtype=bool)
    accuracies = {
        "labeled_train_acc": _mean_or_none(correct[:n_labeled]),
        "eval_acc_id": _mean_or_none(unlabeled[~shifted]),
        "eval_acc_ood": _mean_or_none(unlabeled[shifted]),
    }
    if epoch_log is None:
        biased = np.array([q.bias_target is not None for q in dataset.unlabeled], dtype=bool)
        return {**accuracies, "eval_acc_biased": _mean_or_none(unlabeled[biased])}

    # The learning step logs labeled rows first, then the unlabeled ones in dataset order.
    epoch, rows = epoch_log.epoch[0], epoch_log[n_labeled:]
    chosen = np.array(rows.selected, dtype=bool)
    confidences = np.array(rows.confidence, dtype=float)
    tcs_sel = tcs_unsel = hits_sel = hits_unsel = report = None
    if rows.tcs and rows.tcs[0] is not None:  # logged in exactly the epochs that select
        right = np.array(rows.pseudo_label) == gold[n_labeled:]
        scores = np.array(rows.tcs, dtype=float)
        tcs_sel, tcs_unsel = _mean_or_none(scores[chosen]), _mean_or_none(scores[~chosen])
        hits_sel, hits_unsel = _mean_or_none(right[chosen]), _mean_or_none(right[~chosen])
        report = bound_report(BoundConfig(), epoch, dict(zip(rows.qid, rows.tcs)), confidences, g)
    return EpochMetrics(
        epoch=epoch,
        **accuracies,
        n_selected=int(chosen.sum()),
        mean_tcs_selected=tcs_sel,
        mean_tcs_unselected=tcs_unsel,
        pseudo_acc_selected=hits_sel,
        pseudo_acc_unselected=hits_unsel,
        mean_confidence=_mean_or_none(confidences),
        mean_divergence=report.mean_divergence if report else None,
        rtc=report.rtc if report else None,
        loss=loss,
    )


def train_epoch(
    dataset: Dataset, config: TrainerConfig, state: TrainState, epoch: int
) -> EpochMetrics:
    """Run one epoch (1-indexed), the learning step then the evaluator, into ``state``."""
    loss = _learning_step(dataset, config, state, epoch)
    metrics = _evaluate(dataset, state.policy.params, state.epoch_logs[-1], config.group_size, loss)
    state.metrics.append(metrics)
    return metrics


def _setup(trainer_config: TrainerConfig, world_config: WorldConfig | None, dataset: Dataset | None,
           policy: Policy | None) -> tuple[WorldConfig | None, Dataset, Policy]:
    """The one setup of a run and its every refusal before training.  Half a ``(dataset, policy)``
    pair raises ``ValueError``; without it, the world is generated from ``world_config``, by
    default the standard world reseeded with the trainer seed."""
    if (dataset is None) != (policy is None):
        raise ValueError("pass both dataset and policy, or neither")
    if dataset is None:
        if world_config is None:
            world_config = default_v1(seed=trainer_config.seed)
        dataset = generate_world(world_config)
        policy = init_policy(dataset, world_config)
    if not dataset.labeled:
        raise ConfigError("n_labeled must be at least 1: the reliable set is seeded from labeled questions")
    if not PARADIGMS[trainer_config.paradigm][0] and not dataset.unlabeled:
        raise ConfigError(f"paradigm={trainer_config.paradigm} trains on the unlabeled split, which is empty")
    # An epoch's (questions, G, L) rollout arrays.
    if len(dataset.questions) * trainer_config.group_size * dataset.response_length >= SIZE_LIMIT:
        raise ConfigError("questions * group_size * response_length must be below 2**60")
    return world_config, dataset, policy


def run(
    trainer_config: TrainerConfig,
    world_config: WorldConfig | None = None,
    *,
    dataset: Dataset | None = None,
    policy: Policy | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Train for ``trainer_config.epochs`` epochs on a world or on a whole ``(dataset, policy)``
    pair, which is never changed, once ``_setup`` has built the run and made its refusals.
    ``out_dir`` receives the run's logs, as ``write_run`` writes them.
    """
    world_config, dataset, policy = _setup(trainer_config, world_config, dataset, policy)
    result = RunResult.initial(
        dataset, policy, trainer_config=trainer_config, world_config=world_config,
        dataset=dataset, initial_eval=_evaluate(dataset, policy.params),
    )
    for epoch in range(1, trainer_config.epochs + 1):
        try:
            train_epoch(dataset, trainer_config, result, epoch)
        except DivergenceError:  # in epoch 1, perhaps from features that saturate the softmax
            if epoch == 1 and world_config is not None:
                refuse_saturating_spread(dataset.step_inputs, policy.params.weights.shape, world_config)
            raise
    if out_dir is not None:
        write_run(out_dir, result)
    return result


# The files ``write_run`` writes into a run's directory, in the order it writes them.
RUN_FILES = ("passrates.jsonl", "metrics.jsonl", RUN_FILE)


def write_run(out_dir: str, result: RunResult) -> None:
    """Write ``result``'s ``passrates.jsonl``, ``metrics.jsonl`` and ``run.json``, its trainer
    and world configs (``world`` null for a bare pair), into ``out_dir``, made if missing."""
    os.makedirs(out_dir, exist_ok=True)
    passrates, metrics, config = (os.path.join(out_dir, name) for name in RUN_FILES)
    write_passrates(passrates, result.records)
    write_metrics(metrics, result.metrics)
    write_run_config(config, result.trainer_config, result.world_config)


def sweep(configs: Sequence[tuple[TrainerConfig, WorldConfig | None]]) -> list[RunResult]:
    """One full run per ``(trainer, world)`` config pair, in order, each set up by ``_setup`` (and
    so refused) before the first run trains; a ``None`` world is the default world, as in ``run``.
    Each given WorldConfig's dataset and initial policy are generated once and shared by its runs,
    which never change them, so each run is byte for byte an independent ``run`` of its pair."""
    pairs: dict[WorldConfig, tuple[Dataset, Policy]] = {}
    setups = []
    for trainer, world in configs:
        world, dataset, policy = _setup(trainer, world, *pairs.get(world, (None, None)))
        pairs[world] = dataset, policy
        setups.append((trainer, world, dataset, policy))
    return [run(trainer, world, dataset=dataset, policy=policy) for trainer, world, dataset, policy in setups]


# The TrainerConfig fields that offline_select takes, by name.
SELECTION_FIELDS = ("top_p", "gamma", "warmup_epochs", "matching_mode", "db_policy")


def offline_select(
    log: PassRateLog,
    *,
    top_p: float,
    gamma: float,
    warmup_epochs: int,
    matching_mode: str,
    db_policy: str,
) -> OfflineSelection:
    """Replay trajectory-matching selection from logged pass rates, with the selection
    settings of a ``TrainerConfig``; a replay of a run passes the run's own.

    Produces one mask per post-warmup epoch, updating the reliable database
    between epochs exactly as the online loop would.
    """
    from .logio import store_from_passrates

    store, split_of, n_epochs = store_from_passrates(log)
    # Replay accepts exactly the settings that a training run of these logs accepts.
    config = TrainerConfig(
        epochs=n_epochs, warmup_epochs=warmup_epochs, top_p=top_p, gamma=gamma,
        matching_mode=matching_mode, db_policy=db_policy,
    )
    labeled_ids = sorted(q for q, s in split_of.items() if s == "labeled")
    unlabeled_ids = sorted(q for q, s in split_of.items() if s == "unlabeled")
    if not labeled_ids:
        raise LogParseError("selection needs labeled trajectories to seed the reliable set")
    db = ReliableDatabase.initial(labeled_ids)
    masks: list[SelectionMask] = []
    for epoch in range(warmup_epochs + 1, n_epochs + 1):
        mask, db = _select_epoch(store, db, unlabeled_ids, epoch, config)
        masks.append(mask)
    return OfflineSelection(tuple(masks), db, store, split_of)


def off_grid_record(log: PassRateLog, group_size: int) -> PassRateRecord | None:
    """First row whose pass rate is not within 1e-9 of ``0, 1/G, ..., 1``, or None.

    The tolerance is in pass-rate units, so a logged (9-digit) ``k/G`` stays on the grid;
    a NaN or infinite rate is off it.  Below G = 2**31, ``rint(r * G) / G`` is Python's
    ``round(r * G) / G`` bit for bit; from there on, every rate in [0, 1] is on the grid.
    """
    rates = np.asarray(log.pass_rate, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        nearest = np.rint(rates * group_size) / group_size
        on_grid = (rates >= 0.0) & (rates <= 1.0) & (np.abs(rates - nearest) <= 1e-9)
    off = np.flatnonzero(~on_grid)
    return log[int(off[0])] if off.size else None


def unlabeled_confidences(log: PassRateLog) -> dict[int, list[float]]:
    """The confidences of ``log``'s unlabeled rows by epoch, in log order, that the risk monitor
    averages.  An unlabeled row without one, or no unlabeled row, raises ``LogParseError``."""
    unlabeled = list(map("unlabeled".__eq__, log.split))
    confidences = list(compress(log.confidence, unlabeled))
    if None in confidences:
        qid, epoch = (list(compress(c, unlabeled))[confidences.index(None)] for c in (log.qid, log.epoch))
        raise LogParseError(f"qid {shown(qid)} epoch {shown(epoch)}: unlabeled record has no confidence")
    if not confidences:
        raise LogParseError("no unlabeled records to diagnose")
    by_epoch: dict[int, list[float]] = {}
    for epoch, confidence in zip(compress(log.epoch, unlabeled), confidences):
        by_epoch.setdefault(epoch, []).append(confidence)
    return by_epoch


def verify_run(result: RunResult) -> list[str]:
    """One message per violated run invariant: determinism, pass-rate grid, record
    count, mask and database arithmetic, offline replay and its risk monitor,
    warmup == supervised.

    The world is regenerated from ``result.world_config``, which must be set.
    """
    trainer, world = result.trainer_config, result.world_config
    if world is None:
        raise ConfigError("verify_run needs the run's world config to regenerate its world")
    problems: list[str] = []

    records = result.records
    if run(trainer, world).records != records:
        problems.append("re-running the same configuration changed the pass-rate log")

    g = trainer.group_size
    bad = off_grid_record(records, g)
    if bad is not None:
        problems.append(f"pass rate {bad.pass_rate} is not a multiple of 1/{g} (qid {bad.qid})")

    per_question = len(records) / len(result.dataset.questions)
    if per_question != trainer.epochs:
        problems.append(f"expected {trainer.epochs} records per question, found {per_question:.2f}")

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
        try:
            replay = offline_select(records, **{f: getattr(trainer, f) for f in SELECTION_FIELDS})
        except LogParseError as exc:
            problems.append(f"offline selection cannot replay the run's records: {exc}")
        else:
            for mask in replay.masks:
                recorded = result.masks.get(mask.epoch)
                if recorded is None or set(recorded.selected) != set(mask.selected):
                    problems.append(f"offline selection disagrees with the run at epoch {mask.epoch}")
                    break
            # diagnose's monitor, of the replayed scores and the confidences as logged, is the run's.
            confidences = unlabeled_confidences(records) if result.dataset.unlabeled else {}
            for mask in replay.masks if confidences else ():
                r = bound_report(BoundConfig(), mask.epoch, mask.tcs_scores, as_logged(confidences[mask.epoch]), g)
                m = result.metrics[mask.epoch - 1]
                if (r.mean_confidence, r.mean_divergence, r.rtc) != (m.mean_confidence, m.mean_divergence, m.rtc):
                    problems.append(f"the replayed risk monitor differs from the run's at epoch {mask.epoch}")
                    break

    if PARADIGMS[trainer.paradigm][1] == "selected" and trainer.warmup_epochs > 0:
        sup = dataclasses.replace(trainer, paradigm="supervised")
        dataset, policy = result.dataset, init_policy(result.dataset, world)
        state_a, state_b = TrainState.initial(dataset, policy), TrainState.initial(dataset, policy)
        for epoch in range(1, trainer.warmup_epochs + 1):
            train_epoch(dataset, trainer, state_a, epoch)
            train_epoch(dataset, sup, state_b, epoch)
        if not np.array_equal(state_a.policy.params.weights, state_b.policy.params.weights):
            problems.append("warmup epochs diverged from the supervised baseline")
    return problems
