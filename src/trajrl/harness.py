"""The training loop: rollouts, pseudo-labels, selection, updates, metrics.

Each epoch follows a fixed order -- sample rollout groups for every question,
record pass rates, run trajectory-matching selection (when applicable), build
rewards, accumulate one gradient over the training set in dataset order, and
apply a single parameter update.  Skipped questions contribute nothing at
all, which is what makes paradigm comparisons bit-exact: a warmup epoch of
the trajectory-matching paradigm touches exactly the same numbers as the
supervised baseline.

The epoch works on blocks of ``_BLOCK`` questions.  Per question it only
runs the gradient matmul (into one reused buffer), the uniform draws, whose
stream keys are computed once per epoch, and one inverse-CDF
``searchsorted`` per step.  The forward pass is one stacked matmul per
block, greedy evaluation one per epoch; both make each question's own BLAS
call, since one product over the stacked rows, or a contiguous copy of the
transposed weights, would round differently.  The softmax, rollout checks,
votes, pass rates, rewards and the surrogate/entropy/KL terms run once per
block in kernels whose every operation is row-wise, so a run's logs are
bit-identical to processing one question at a time (``rollout_group``,
``hybrid_reward`` and ``grpo_loss_and_grad`` are those kernels on a block of
one).  Sampling keeps only the (N, G, L) tokens; the update recomputes its
blocks' step distributions from the same parameters, which gives the same
bits, so no (N, L, K) array lives across the epoch.

Four training paradigms share the loop:

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
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DOMAIN_OOD,
    ConfigError,
    Dataset,
    DivergenceError,
    Question,
    StreamDraws,
    TrainerConfig,
    check_rollouts,
    config_field_names,
    step_inputs,
    stream_keys,
)
from .diagnostics import BoundConfig, bound_report
from .grpo import PolicyParams, block_step_probs, grpo_block
from .logio import LogParseError, PassRateRecord, write_metrics, write_passrates
from .rewards import majority_votes, reward_block
from .sim import (
    Policy,
    WorldConfig,
    default_v1,
    generate_world,
    greedy_answers,
    init_policy,
    sample_block,
)
from .trajectory import (
    ReliableDatabase,
    SelectionMask,
    TrajectoryStore,
    pass_rates,
    reliable_average,
    select,
    tcs_max_rows,
    update_db,
)

# Not called here: perfbench wraps these lookup sites of this module by name.
from .core import rng_stream
from .diagnostics import tc_risk
from .grpo import grpo_loss_and_grad
from .rewards import hybrid_reward, majority_vote
from .sim import greedy_answer, rollout_group
from .trajectory import pass_rate, tcs, tcs_max

# Questions per block of the training loop.  A block's (B, L, K) arrays are
# dropped before the next block starts, so the block size trades per-call
# overhead against peak memory: on the default run, blocks of 16 and 32 raised
# peak RSS by 1.3 and 1.9 MB over blocks of 8, blocks of 4 saved 0.1 MB.
_BLOCK = 8

__all__ = [
    "EpochMetrics",
    "TrainState",
    "RunResult",
    "OfflineSelection",
    "greedy_accuracy",
    "train_epoch",
    "run",
    "sweep",
    "offline_select",
    "off_grid_record",
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
    records: list[PassRateRecord] = field(default_factory=list)
    metrics: list[EpochMetrics] = field(default_factory=list)

    @classmethod
    def initial(cls, dataset: Dataset, policy: Policy) -> "TrainState":
        """Epoch-0 state: the reliable set is the labeled split, no trajectories yet."""
        return cls(
            policy,
            ReliableDatabase.initial(dataset.labeled_ids),
            TrajectoryStore([q.question_id for q in dataset.questions]),
        )


@dataclass
class RunResult:
    trainer_config: TrainerConfig
    world_config: WorldConfig | None
    dataset: Dataset
    policy: Policy
    metrics: tuple[EpochMetrics, ...]
    records: tuple[PassRateRecord, ...]
    store: TrajectoryStore
    db: ReliableDatabase
    masks: dict[int, SelectionMask]
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


def _eval_accuracies(params: PolicyParams, dataset: Dataset) -> dict[str, float | None]:
    """Greedy accuracy on the labeled, in-domain and shifted-domain splits."""
    gold = np.array([dataset.eval_answers[q.question_id] for q in dataset.questions])
    hits = greedy_answers(params, dataset.step_inputs) == gold
    unlabeled_hits = hits[len(dataset.labeled):]
    shifted = np.array([q.domain_tag == DOMAIN_OOD for q in dataset.unlabeled], dtype=bool)
    return {
        "labeled_train_acc": _mean_or_none(hits[: len(dataset.labeled)]),
        "eval_acc_id": _mean_or_none(unlabeled_hits[~shifted]),
        "eval_acc_ood": _mean_or_none(unlabeled_hits[shifted]),
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
    if config.matching_mode == "max":
        members = store.as_matrix(db.sorted_members, epoch)
    else:
        # A mean score is the best tcs against one averaged row: with one member the
        # candidate set is always {0}, so each score is exactly the row's tcs against it.
        members = reliable_average(db, store, epoch)[None, :]
    scores = dict(zip(unlabeled_ids, tcs_max_rows(rows, members).tolist()))
    mask = select(scores, config.top_p, config.gamma, epoch)
    return mask, update_db(db, mask, config.db_policy)


def train_epoch(
    dataset: Dataset, config: TrainerConfig, state: TrainState, epoch: int
) -> EpochMetrics:
    """Run one epoch (1-indexed) and append its records/metrics to ``state``."""
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

    # 2. Pass rates: labeled against gold, unlabeled against this epoch's majority.
    winners, confidences, ties = majority_votes(answers[n_labeled:])
    gold = np.array([q.gold_answer for q in dataset.labeled], dtype=np.int64)
    targets = np.concatenate([gold, winners])
    rates = pass_rates(answers, targets, k).tolist()
    for qid, rate in zip(ids, rates):
        state.store.record(qid, rate)

    # 3. Trajectory-matching selection, once past warmup.  Its membership and scores
    # are read once, in unlabeled order: records, training rows and metrics share them.
    unlabeled_ids = ids[n_labeled:]
    mask: SelectionMask | None = None
    chosen = np.zeros(len(unlabeled_ids), dtype=bool)
    scores: list[float | None] = [None] * len(unlabeled_ids)
    if config.paradigm == "trapo" and epoch > config.warmup_epochs:
        mask, state.db = _select_epoch(state.store, state.db, unlabeled_ids, epoch, config)
        state.masks[epoch] = mask
        chosen[:] = [qid in mask.selected for qid in unlabeled_ids]
        scores = [mask.tcs_scores[qid] for qid in unlabeled_ids]

    for qid, rate in zip(ids[:n_labeled], rates):
        state.records.append(PassRateRecord(epoch, qid, "labeled", rate))
    # The remaining PassRateRecord fields, in order: pseudo_label, confidence, tie, selected, tcs.
    facts = zip(winners.tolist(), confidences.tolist(), ties.tolist(), chosen.tolist(), scores)
    for qid, rate, fields in zip(unlabeled_ids, rates[n_labeled:], facts):
        state.records.append(PassRateRecord(epoch, qid, "unlabeled", rate, *fields))

    # 4. Which questions train this epoch, as dataset positions in dataset order.
    trains = np.zeros(n, dtype=bool)
    trains[:n_labeled] = config.paradigm != "unsupervised"
    trains[n_labeled:] = chosen | (config.paradigm in ("unsupervised", "naive_semi"))
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
        rewards = reward_block(config.reward_kind, tokens, probs, targets[rows], rows < n_labeled)
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
        state.policy.params = PolicyParams(weights)

    # 6. Metrics on the updated policy.
    tcs_sel = tcs_unsel = hits_sel = hits_unsel = report = None
    if mask is not None:
        hits = winners == np.array([dataset.eval_answers[qid] for qid in unlabeled_ids])
        tcs_scores = np.array(scores, dtype=float)
        tcs_sel, tcs_unsel = _mean_or_none(tcs_scores[chosen]), _mean_or_none(tcs_scores[~chosen])
        hits_sel, hits_unsel = _mean_or_none(hits[chosen]), _mean_or_none(hits[~chosen])
        if mask.tcs_scores:
            report = bound_report(
                BoundConfig(), epoch, mask.tcs_scores, confidences, len(confidences), g
            )
    metrics = EpochMetrics(
        epoch=epoch,
        **_eval_accuracies(state.policy.params, dataset),
        n_selected=len(mask.selected) if mask is not None else 0,
        mean_tcs_selected=tcs_sel,
        mean_tcs_unselected=tcs_unsel,
        pseudo_acc_selected=hits_sel,
        pseudo_acc_unselected=hits_unsel,
        mean_confidence=_mean_or_none(confidences),
        mean_divergence=report.mean_divergence if report else None,
        rtc=report.rtc if report else None,
        loss=total_loss,
    )
    state.metrics.append(metrics)
    return metrics


def _initial_eval(policy: Policy, dataset: Dataset) -> dict[str, float | None]:
    """Greedy accuracies of the untouched policy (the "epoch 0" baseline)."""
    biased = [q for q in dataset.unlabeled if q.bias_target is not None]
    return {
        **_eval_accuracies(policy.params, dataset),
        "eval_acc_biased": greedy_accuracy(
            policy.params, biased, dataset.eval_answers, dataset.response_length
        ),
    }


def run(
    trainer_config: TrainerConfig,
    world_config: WorldConfig | None = None,
    *,
    dataset: Dataset | None = None,
    policy: Policy | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Train for ``trainer_config.epochs`` epochs on a (possibly generated) world.

    When ``dataset`` is omitted, a world is generated from ``world_config``
    (falling back to the standard world reseeded with the trainer seed).
    ``out_dir`` receives ``passrates.jsonl`` and ``metrics.jsonl``.
    """
    if dataset is None:
        if world_config is None:
            world_config = default_v1(seed=trainer_config.seed)
        dataset = generate_world(world_config)
        if policy is None:
            policy = init_policy(dataset, world_config)
    if policy is None:
        raise ValueError("a policy must be provided along with an explicit dataset")
    if not dataset.labeled:
        raise ConfigError(
            "n_labeled must be at least 1: the reliable set is seeded from labeled questions"
        )

    state = TrainState.initial(dataset, policy)
    initial_eval = _initial_eval(policy, dataset)
    for epoch in range(1, trainer_config.epochs + 1):
        train_epoch(dataset, trainer_config, state, epoch)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_passrates(os.path.join(out_dir, "passrates.jsonl"), state.records)
        write_metrics(os.path.join(out_dir, "metrics.jsonl"), state.metrics)

    return RunResult(
        trainer_config=trainer_config,
        world_config=world_config,
        dataset=dataset,
        policy=state.policy,
        metrics=tuple(state.metrics),
        records=tuple(state.records),
        store=state.store,
        db=state.db,
        masks=dict(state.masks),
        initial_eval=initial_eval,
    )


def sweep(
    trainer_config: TrainerConfig,
    axis: str,
    values: Sequence,
    world_config: WorldConfig | None = None,
) -> list[RunResult]:
    """One full run per value of one trainer field, all on the same world.

    Every value's config is built, and so checked, before the first run starts.
    """
    if axis not in config_field_names():
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if world_config is None:
        world_config = default_v1(seed=trainer_config.seed)
    configs = [dataclasses.replace(trainer_config, **{axis: value}) for value in values]
    return [run(cfg, world_config) for cfg in configs]


def offline_select(
    records,
    *,
    top_p: float,
    gamma: float,
    warmup_epochs: int = 0,
    matching_mode: str = "mean",
    db_policy: str = "additive",
) -> OfflineSelection:
    """Replay trajectory-matching selection from logged pass rates.

    Produces one mask per post-warmup epoch, updating the reliable database
    between epochs exactly as the online loop would.
    """
    from .logio import store_from_passrates

    store, split_of, n_epochs = store_from_passrates(records)
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


def off_grid_record(records, group_size: int) -> PassRateRecord | None:
    """First record whose pass rate is not within 1e-9 of ``0, 1/G, ..., 1``, or None.

    The tolerance is in pass-rate units, so a logged (9-digit) ``k/G`` stays on the grid.
    """
    for rec in records:
        nearest = round(rec.pass_rate * group_size) / group_size
        if not 0.0 <= rec.pass_rate <= 1.0 or abs(rec.pass_rate - nearest) > 1e-9:
            return rec
    return None


def verify_run(result: RunResult) -> list[str]:
    """One message per violated run invariant: determinism, pass-rate grid, record
    count, mask and database arithmetic, offline replay, warmup == supervised.

    The world is regenerated from ``result.world_config``, which must be set.
    """
    trainer, world = result.trainer_config, result.world_config
    if world is None:
        raise ConfigError("verify_run needs the run's world config to regenerate its world")
    problems: list[str] = []

    if run(trainer, world).records != result.records:
        problems.append("re-running the same configuration changed the pass-rate log")

    g = trainer.group_size
    bad = off_grid_record(result.records, g)
    if bad is not None:
        problems.append(f"pass rate {bad.pass_rate} is not a multiple of 1/{g} (qid {bad.qid})")

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
        try:
            replay = offline_select(
                result.records,
                top_p=trainer.top_p,
                gamma=trainer.gamma,
                warmup_epochs=trainer.warmup_epochs,
                matching_mode=trainer.matching_mode,
                db_policy=trainer.db_policy,
            )
        except LogParseError as exc:
            problems.append(f"offline selection cannot replay the run's records: {exc}")
        else:
            for mask in replay.masks:
                recorded = result.masks.get(mask.epoch)
                if recorded is None or set(recorded.selected) != set(mask.selected):
                    problems.append(
                        f"offline selection disagrees with the run at epoch {mask.epoch}"
                    )
                    break

    if trainer.paradigm == "trapo" and trainer.warmup_epochs > 0:
        sup = dataclasses.replace(trainer, paradigm="supervised")
        dataset = generate_world(world)
        state_a = TrainState.initial(dataset, init_policy(dataset, world))
        state_b = TrainState.initial(dataset, init_policy(dataset, world))
        for epoch in range(1, trainer.warmup_epochs + 1):
            train_epoch(dataset, trainer, state_a, epoch)
            train_epoch(dataset, sup, state_b, epoch)
        if not np.array_equal(state_a.policy.params.weights, state_b.policy.params.weights):
            problems.append("warmup epochs diverged from the supervised baseline")
    return problems
