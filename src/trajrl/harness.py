"""The training loop: rollouts, pseudo-labels, selection, updates, metrics.

Each epoch follows a fixed order -- sample rollout groups for every question,
record pass rates, run trajectory-matching selection (when applicable), build
rewards, accumulate one gradient over the training set in dataset order, and
apply a single parameter update.  Skipped questions contribute nothing at
all, which is what makes paradigm comparisons bit-exact: a warmup epoch of
the trajectory-matching paradigm touches exactly the same numbers as the
supervised baseline.

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
    MATCHING_MODES,
    ConfigError,
    Dataset,
    DivergenceError,
    Question,
    TrainerConfig,
    config_field_names,
    rng_stream,
    validate_config,
)
from .diagnostics import BoundConfig, tc_risk
from .grpo import PolicyParams, grpo_loss_and_grad
from .logio import LogParseError, PassRateRecord, write_metrics, write_passrates
from .rewards import hybrid_reward, majority_vote
from .sim import (
    Policy,
    WorldConfig,
    default_v1,
    generate_world,
    greedy_answer,
    init_policy,
    rollout_group,
)
from .trajectory import (
    ReliableDatabase,
    SelectionMask,
    TrajectoryStore,
    pass_rate,
    reliable_average,
    select,
    tcs,
    tcs_max,  # not called here; perfbench wraps this lookup site by name
    tcs_max_rows,
    update_db,
)

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
    hits = sum(
        greedy_answer(params, q, response_length) == answers[q.question_id] for q in questions
    )
    return hits / len(questions)


def _mean_or_none(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _score_unlabeled(
    unlabeled_ids: Sequence[int],
    store: TrajectoryStore,
    db: ReliableDatabase,
    length: int,
    matching_mode: str,
) -> dict[int, float]:
    if matching_mode == "max":
        rows = store.as_matrix(unlabeled_ids, length)
        members = store.as_matrix(db.sorted_members, length)
        return dict(zip(unlabeled_ids, tcs_max_rows(rows, members).tolist()))
    scores: dict[int, float] = {}
    reference = reliable_average(db, store, length)
    for qid in unlabeled_ids:
        scores[qid] = tcs(store.get(qid)[:length], reference)
    return scores


def train_epoch(
    dataset: Dataset, config: TrainerConfig, state: TrainState, epoch: int
) -> EpochMetrics:
    """Run one epoch (1-indexed) and append its records/metrics to ``state``."""
    length = dataset.response_length
    n_unlabeled = len(dataset.unlabeled)

    # 1. Rollouts for every question, from its own counter-based stream.
    groups = {}
    for q in dataset.questions:
        rng = rng_stream(config.seed, q.question_id, epoch)
        groups[q.question_id] = rollout_group(
            state.policy.params,
            q,
            length,
            config.group_size,
            epoch,
            rng,
            config.rollout_temperature,
        )

    # 2. Pass rates: labeled against gold, unlabeled against this epoch's majority.
    for q in dataset.labeled:
        state.store.record(q.question_id, pass_rate(groups[q.question_id], q.gold_answer))
    votes: dict[int, tuple[int, float, bool]] = {}
    for q in dataset.unlabeled:
        winner, confidence, tie = majority_vote(groups[q.question_id].answers)
        votes[q.question_id] = (winner, confidence, tie)
        state.store.record(q.question_id, pass_rate(groups[q.question_id], winner))

    # 3. Trajectory-matching selection, once past warmup.
    selecting = config.paradigm == "trapo" and epoch > config.warmup_epochs
    scores: dict[int, float] | None = None
    mask: SelectionMask | None = None
    if selecting:
        scores = _score_unlabeled(
            dataset.unlabeled_ids, state.store, state.db, epoch, config.matching_mode
        )
        mask = select(scores, config.top_p, config.gamma, epoch)
        state.masks[epoch] = mask
        state.db = update_db(state.db, mask, config.db_policy)

    for q in dataset.labeled:
        state.records.append(
            PassRateRecord(epoch, q.question_id, "labeled", state.store.get(q.question_id)[-1])
        )
    for q in dataset.unlabeled:
        winner, confidence, tie = votes[q.question_id]
        state.records.append(
            PassRateRecord(
                epoch,
                q.question_id,
                "unlabeled",
                state.store.get(q.question_id)[-1],
                pseudo_label=winner,
                confidence=confidence,
                tie=tie,
                selected=mask is not None and q.question_id in mask.selected,
                tcs=scores[q.question_id] if scores is not None else None,
            )
        )

    # 4. Which questions train this epoch, in dataset order.
    training: list[Question] = []
    if config.paradigm != "unsupervised":
        training.extend(dataset.labeled)
    if config.paradigm in ("unsupervised", "naive_semi"):
        training.extend(dataset.unlabeled)
    elif config.paradigm == "trapo" and mask is not None:
        training.extend(q for q in dataset.unlabeled if q.question_id in mask.selected)

    # 5. One accumulated gradient step.  The policy that sampled the
    # rollouts is also the one being updated, so ratios start at 1 and
    # grpo_loss_and_grad reads both sides' probabilities from the group.
    grad = np.zeros_like(state.policy.params.weights)
    total_loss = 0.0
    for q in training:
        rewards = hybrid_reward(q, groups[q.question_id], config.reward_kind)
        ref = state.policy.ref_params if config.kl_beta > 0.0 else None
        loss, g = grpo_loss_and_grad(
            q, groups[q.question_id], rewards, state.policy.params, state.policy.params, config, ref
        )
        grad += g
        total_loss += loss
    if training:
        weights = state.policy.params.weights - config.learning_rate * grad
        if not np.all(np.isfinite(weights)):
            raise DivergenceError(
                f"epoch {epoch}: the parameter update is not finite (the policy's softmax "
                "saturated or the step overflowed); lower learning_rate or raise "
                "rollout_temperature"
            )
        state.policy.params = PolicyParams(weights)

    # 6. Metrics on the updated policy.
    eval_answers = dataset.eval_answers
    id_questions = [q for q in dataset.unlabeled if q.domain_tag != DOMAIN_OOD]
    ood_questions = [q for q in dataset.unlabeled if q.domain_tag == DOMAIN_OOD]
    pseudo_hits_sel: list[float] = []
    pseudo_hits_unsel: list[float] = []
    tcs_sel: list[float] = []
    tcs_unsel: list[float] = []
    if mask is not None:
        for q in dataset.unlabeled:
            hit = float(votes[q.question_id][0] == eval_answers[q.question_id])
            if q.question_id in mask.selected:
                pseudo_hits_sel.append(hit)
                tcs_sel.append(scores[q.question_id])
            else:
                pseudo_hits_unsel.append(hit)
                tcs_unsel.append(scores[q.question_id])
    confidences = [votes[q.question_id][1] for q in dataset.unlabeled]
    mean_conf = _mean_or_none(confidences)
    mean_div = (
        _mean_or_none([1.0 - s for s in scores.values()]) if scores is not None else None
    )
    rtc = None
    if scores is not None and n_unlabeled > 0:
        rtc = tc_risk(BoundConfig(), mean_div, mean_conf, n_unlabeled, config.group_size)
    metrics = EpochMetrics(
        epoch=epoch,
        labeled_train_acc=greedy_accuracy(
            state.policy.params, dataset.labeled, eval_answers, length
        ),
        eval_acc_id=greedy_accuracy(state.policy.params, id_questions, eval_answers, length),
        eval_acc_ood=greedy_accuracy(state.policy.params, ood_questions, eval_answers, length),
        n_selected=len(mask.selected) if mask is not None else 0,
        mean_tcs_selected=_mean_or_none(tcs_sel),
        mean_tcs_unselected=_mean_or_none(tcs_unsel),
        pseudo_acc_selected=_mean_or_none(pseudo_hits_sel),
        pseudo_acc_unselected=_mean_or_none(pseudo_hits_unsel),
        mean_confidence=mean_conf,
        mean_divergence=mean_div,
        rtc=rtc,
        loss=total_loss,
    )
    state.metrics.append(metrics)
    return metrics


def _initial_eval(policy: Policy, dataset: Dataset) -> dict[str, float | None]:
    """Greedy accuracies of the untouched policy (the "epoch 0" baseline)."""
    length = dataset.response_length
    biased = [q for q in dataset.unlabeled if q.bias_target is not None]
    id_questions = [q for q in dataset.unlabeled if q.domain_tag != DOMAIN_OOD]
    ood = [q for q in dataset.unlabeled if q.domain_tag == DOMAIN_OOD]
    return {
        "labeled_train_acc": greedy_accuracy(
            policy.params, dataset.labeled, dataset.eval_answers, length
        ),
        "eval_acc_id": greedy_accuracy(policy.params, id_questions, dataset.eval_answers, length),
        "eval_acc_ood": greedy_accuracy(policy.params, ood, dataset.eval_answers, length),
        "eval_acc_biased": greedy_accuracy(policy.params, biased, dataset.eval_answers, length),
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
    validate_config(trainer_config)
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
    if (
        trainer_config.reward_kind == "verifiable"
        and trainer_config.paradigm != "supervised"
        and dataset.unlabeled
    ):
        raise ConfigError(
            "reward_kind='verifiable' needs gold answers and cannot train on unlabeled questions"
        )

    state = TrainState(
        policy=policy,
        db=ReliableDatabase.initial(dataset.labeled_ids),
        store=TrajectoryStore([q.question_id for q in dataset.questions]),
    )
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
    """One full run per value of one trainer field, all on the same world."""
    if axis not in config_field_names():
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if world_config is None:
        world_config = default_v1(seed=trainer_config.seed)
    results: list[RunResult] = []
    for value in values:
        cfg = dataclasses.replace(trainer_config, **{axis: value})
        results.append(run(cfg, world_config))
    return results


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

    if matching_mode not in MATCHING_MODES:
        raise ConfigError(f"matching_mode must be one of {MATCHING_MODES}")
    store, split_of, n_epochs = store_from_passrates(records)
    labeled_ids = sorted(q for q, s in split_of.items() if s == "labeled")
    unlabeled_ids = sorted(q for q, s in split_of.items() if s == "unlabeled")
    if not labeled_ids:
        raise LogParseError("selection needs labeled trajectories to seed the reliable set")
    if warmup_epochs < 0 or warmup_epochs >= n_epochs:
        raise ConfigError(f"warmup_epochs must lie in [0, {n_epochs - 1}] for these logs")
    db = ReliableDatabase.initial(labeled_ids)
    masks: list[SelectionMask] = []
    for epoch in range(warmup_epochs + 1, n_epochs + 1):
        scores = _score_unlabeled(unlabeled_ids, store, db, epoch, matching_mode)
        mask = select(scores, top_p, gamma, epoch)
        masks.append(mask)
        db = update_db(db, mask, db_policy)
    return OfflineSelection(tuple(masks), db, store, split_of)
