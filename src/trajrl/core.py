"""Shared domain types, run configuration, and the deterministic RNG contract.

Everything downstream (rewards, policy updates, selection, the training
harness) is built on three ideas fixed here:

* questions are feature vectors with an optional visible gold answer,
* rollouts are recorded together with the exact step distributions that
  produced them -- one (L, K) array per group, because the toy policy is
  not autoregressive and every rollout of a question samples from the same
  per-step distributions -- and
* every random draw comes from a counter-based stream keyed by
  ``(seed, question_id, epoch)``, so any part of a run can be replayed in
  isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

__all__ = [
    "ConfigError",
    "DivergenceError",
    "Question",
    "Dataset",
    "RolloutGroup",
    "TrainerConfig",
    "validate_config",
    "rng_stream",
    "ADVANTAGE_MODES",
    "MATCHING_MODES",
    "REWARD_KINDS",
    "PARADIGMS",
    "DB_POLICIES",
    "DOMAIN_ID",
    "DOMAIN_OOD",
]

# Stream namespace tags for randomness that is not tied to a single question
# (world generation, policy init, construction-time checks).  Question ids in
# generated datasets are small integers, far below this range.
WORLD_STREAM_TAG = 1 << 40
INIT_STREAM_TAG = (1 << 40) + 1
BIAS_CHECK_STREAM_TAG = (1 << 40) + 2

# Exclusive upper bounds of the three fields of an ``rng_stream`` key.
SEED_LIMIT = 1 << 64
QUESTION_ID_LIMIT = 1 << 48
EPOCH_LIMIT = 1 << 16

DOMAIN_ID = "ID"
DOMAIN_OOD = "OOD"

ADVANTAGE_MODES = ("std_normalized", "mean_only")
MATCHING_MODES = ("mean", "max")
REWARD_KINDS = (
    "verifiable",
    "majority",
    "self_certainty",
    "token_entropy",
    "sentence_entropy",
)
PARADIGMS = ("supervised", "unsupervised", "naive_semi", "trapo")
DB_POLICIES = ("additive", "recompute")


class ConfigError(ValueError):
    """Raised when a configuration field violates its invariant."""


class DivergenceError(ConfigError):
    """Training blew up numerically: the settings drove an update to a non-finite value."""


@dataclass(frozen=True)
class Question:
    """A single task instance.

    ``gold_answer`` is present only on labeled questions; unlabeled questions
    carry ``None`` so that reward and selection code cannot peek at the truth.
    ``bias_target`` marks questions whose initial policy has been nudged
    toward a specific wrong answer (consensus-collapse scenarios).
    """

    question_id: int
    features: np.ndarray
    gold_answer: int | None = None
    domain_tag: str = DOMAIN_ID
    bias_target: int | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 1 or not np.all(np.isfinite(feats)):
            raise ValueError(f"question {self.question_id}: features must be a finite 1-D vector")
        object.__setattr__(self, "features", feats)
        if self.question_id < 0:
            raise ValueError("question_id must be nonnegative")
        if self.domain_tag not in (DOMAIN_ID, DOMAIN_OOD):
            raise ValueError(f"unknown domain_tag {self.domain_tag!r}")
        if self.gold_answer is not None and self.gold_answer < 0:
            raise ValueError("gold_answer must be a nonnegative token index")
        if self.bias_target is not None:
            if self.bias_target < 0:
                raise ValueError("bias_target must be a nonnegative token index")
            if self.gold_answer is not None and self.bias_target == self.gold_answer:
                raise ValueError("bias_target must differ from gold_answer")


@dataclass(frozen=True)
class Dataset:
    """Labeled and unlabeled splits plus world-level metadata.

    ``eval_answers`` maps every question id (labeled and unlabeled) to its
    true answer.  It exists solely for evaluation and diagnostics; training
    code only ever sees the ``Question`` objects, whose unlabeled entries
    have no gold field to read.
    """

    labeled: tuple[Question, ...]
    unlabeled: tuple[Question, ...]
    num_features: int
    num_tokens: int
    response_length: int
    eval_answers: Mapping[int, int] = field(default_factory=dict)
    clusters: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_tokens < 2:
            raise ValueError("num_tokens must be at least 2")
        if self.response_length < 1:
            raise ValueError("response_length must be at least 1")
        seen: set[int] = set()
        for q in self.questions:
            if q.question_id in seen:
                raise ValueError(f"duplicate question id {q.question_id}")
            seen.add(q.question_id)
            if q.features.shape[0] != self.num_features:
                raise ValueError(f"question {q.question_id}: expected {self.num_features} features")
        for q in self.labeled:
            if q.gold_answer is None:
                raise ValueError(f"labeled question {q.question_id} is missing a gold answer")
            if q.gold_answer >= self.num_tokens:
                raise ValueError(f"question {q.question_id}: gold answer out of range")
        for q in self.unlabeled:
            if q.gold_answer is not None:
                raise ValueError(f"unlabeled question {q.question_id} must not expose a gold answer")

    @property
    def questions(self) -> tuple[Question, ...]:
        return self.labeled + self.unlabeled

    @property
    def labeled_ids(self) -> tuple[int, ...]:
        return tuple(q.question_id for q in self.labeled)

    @property
    def unlabeled_ids(self) -> tuple[int, ...]:
        return tuple(q.question_id for q in self.unlabeled)

    def question(self, question_id: int) -> Question:
        for q in self.questions:
            if q.question_id == question_id:
                return q
        raise KeyError(question_id)


@dataclass(frozen=True)
class RolloutGroup:
    """G sampled responses for one question, with the step distributions they were drawn from.

    ``responses`` has shape (G, L) of token indices and ``answers`` is the
    final token of each response.  ``step_distributions`` has shape (L, K):
    the policy's per-step distributions are fixed by the question's features
    and the step index, so all G rollouts share that one array (row ``s`` is
    the distribution every rollout sampled its step-``s`` token from).
    """

    question_id: int
    epoch: int
    responses: np.ndarray
    step_distributions: np.ndarray
    answers: np.ndarray

    def __post_init__(self) -> None:
        resp = np.asarray(self.responses)
        dists = np.asarray(self.step_distributions, dtype=float)
        ans = np.asarray(self.answers)
        if resp.ndim != 2:
            raise ValueError("responses must have shape (G, L)")
        g, length = resp.shape
        if dists.ndim != 2 or dists.shape[0] != length:
            raise ValueError("step_distributions must have shape (L, K)")
        if ans.shape != (g,):
            raise ValueError("answers must have shape (G,)")
        if not np.array_equal(ans, resp[:, -1]):
            raise ValueError("answers must equal the final response token")
        if np.any(dists < 0.0):
            raise ValueError("step distributions must be nonnegative")
        if not np.all(np.abs(dists.sum(axis=-1) - 1.0) <= 1e-9):
            raise ValueError("step distributions must sum to 1 within 1e-9")
        if resp.min() < 0 or resp.max() >= dists.shape[1]:
            raise ValueError("response tokens out of range")

    @property
    def group_size(self) -> int:
        return self.responses.shape[0]

    @property
    def response_length(self) -> int:
        return self.responses.shape[1]

    @property
    def num_tokens(self) -> int:
        return self.step_distributions.shape[1]


@dataclass(frozen=True)
class TrainerConfig:
    """Run-level knobs for the training harness.

    ``advantage_mode`` and ``length_normalization`` are independent toggles:
    the default (group-mean-centered advantages, no length normalization)
    matches the variance-reduced flavor of group-relative updates; flipping
    both recovers the classic normalized form.
    """

    seed: int = 0
    epochs: int = 26
    warmup_epochs: int = 8
    group_size: int = 8
    top_p: float = 0.1
    gamma: float = 0.4
    clip_eps: float = 0.2
    kl_beta: float = 0.0
    entropy_coef: float = 0.01
    learning_rate: float = 0.05
    rollout_temperature: float = 1.0
    advantage_mode: str = "mean_only"
    matching_mode: str = "mean"
    reward_kind: str = "majority"
    paradigm: str = "trapo"
    db_policy: str = "recompute"
    length_normalization: bool = False


def validate_config(config: TrainerConfig) -> TrainerConfig:
    """Check every invariant of ``TrainerConfig``; raise ``ConfigError`` naming the bad field."""
    if not 0 <= config.seed < SEED_LIMIT:
        raise ConfigError(f"seed must lie in [0, 2**64), got {config.seed}")
    if not 1 <= config.epochs < EPOCH_LIMIT:
        raise ConfigError(f"epochs must lie in [1, {EPOCH_LIMIT - 1}], got {config.epochs}")
    if not 0.0 < config.top_p <= 1.0:
        raise ConfigError(f"top_p must lie in (0, 1], got {config.top_p}")
    if not 0.0 <= config.gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {config.gamma}")
    if not 0.0 < config.clip_eps < 1.0:
        raise ConfigError(f"clip_eps must lie in (0, 1), got {config.clip_eps}")
    if not 0 <= config.warmup_epochs < config.epochs:
        raise ConfigError(
            f"warmup_epochs must satisfy 0 <= warmup_epochs < epochs, got {config.warmup_epochs} vs {config.epochs}"
        )
    if config.group_size < 2:
        raise ConfigError("group_size must be at least 2")
    if config.kl_beta < 0.0:
        raise ConfigError("kl_beta must be nonnegative")
    if config.entropy_coef < 0.0:
        raise ConfigError("entropy_coef must be nonnegative")
    if config.learning_rate <= 0.0:
        raise ConfigError("learning_rate must be positive")
    if config.rollout_temperature <= 0.0:
        raise ConfigError("rollout_temperature must be positive")
    if config.advantage_mode not in ADVANTAGE_MODES:
        raise ConfigError(f"advantage_mode must be one of {ADVANTAGE_MODES}")
    if config.matching_mode not in MATCHING_MODES:
        raise ConfigError(f"matching_mode must be one of {MATCHING_MODES}")
    if config.reward_kind not in REWARD_KINDS:
        raise ConfigError(f"reward_kind must be one of {REWARD_KINDS}")
    if config.paradigm not in PARADIGMS:
        raise ConfigError(f"paradigm must be one of {PARADIGMS}")
    if config.db_policy not in DB_POLICIES:
        raise ConfigError(f"db_policy must be one of {DB_POLICIES}")
    return config


def config_field_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(TrainerConfig))


def rng_stream(seed: int, question_id: int, epoch: int) -> np.random.Generator:
    """Deterministic counter-based stream for the triple ``(seed, question_id, epoch)``.

    Streams for distinct triples are statistically independent (Philox keyed
    by the triple), and repeated calls with the same triple replay the exact
    same draws.  This is what makes per-question rollouts reproducible no
    matter which subset of questions a caller touches, and in which order.

    The key packs the seed into one 64-bit word and ``question_id`` and
    ``epoch`` into the other (48 and 16 bits), so each must fit its field;
    anything outside raises ``ValueError`` instead of aliasing another stream.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= question_id < QUESTION_ID_LIMIT:
        raise ValueError(f"question_id must lie in [0, 2**48), got {question_id}")
    if not 0 <= epoch < EPOCH_LIMIT:
        raise ValueError(f"epoch must lie in [0, 2**16), got {epoch}")
    key = np.array(
        [np.uint64(seed), (np.uint64(question_id) << np.uint64(16)) ^ np.uint64(epoch)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
