"""Shared domain types, run configuration, and the deterministic RNG contract.

Everything downstream (rewards, policy updates, selection, the training
harness) is built on three ideas fixed here:

* questions are feature vectors with an optional visible gold answer; the
  policy reads question ``q`` at step ``s`` through the row
  ``concat(features, onehot(s))``, and a dataset builds those (N, L, d+L)
  step inputs once;
* rollouts are recorded together with the exact step distributions that
  produced them -- one (L, K) array per group, because the toy policy is
  not autoregressive and every rollout of a question samples from the same
  per-step distributions.  The training loop works on blocks of groups, so
  the checks live in one block kernel, ``check_rollouts``, and a single
  ``RolloutGroup`` runs it on a block of one; and
* every random draw comes from a counter-based stream keyed by
  ``(seed, question_id, epoch)``, so any part of a run can be replayed in
  isolation.  ``StreamDraws`` replays many such streams through one
  re-keyed generator, draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "DivergenceError",
    "Question",
    "Dataset",
    "RolloutGroup",
    "TrainerConfig",
    "check_rollouts",
    "sampled_probs",
    "step_inputs",
    "stream_key",
    "stream_keys",
    "rng_stream",
    "StreamDraws",
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

# numpy indexes at most 2**63 - 1 bytes, so an array of 8-byte values has fewer
# than 2**60 entries.  Every size, and every product of sizes that shapes one of
# a run's arrays, stays below this bound.
SIZE_LIMIT = 1 << 60

DOMAIN_ID = "ID"
DOMAIN_OOD = "OOD"

ADVANTAGE_MODES = ("std_normalized", "mean_only")
MATCHING_MODES = ("mean", "max")
# Label-free rewards of unlabeled questions; labeled ones are always verified against gold.
REWARD_KINDS = ("majority", "self_certainty", "token_entropy", "sentence_entropy")
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
    true answer, a token in [0, K) that equals a labeled question's gold
    answer; a mapping that is not empty must be complete.  It exists solely
    for evaluation: the one function that reads it is ``harness._evaluate``,
    and training code only ever sees the ``Question`` objects, whose
    unlabeled entries have no gold field to read.  ``clusters`` maps question
    ids to cluster ids and must cover every biased question, whose marker
    column it names.
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
            if q.bias_target is not None and q.bias_target >= self.num_tokens:
                raise ValueError(f"question {q.question_id}: bias target out of range")
            if q.bias_target is not None and q.question_id not in self.clusters:
                raise ValueError(f"question {q.question_id}: a biased question needs a clusters entry")
        for q in self.labeled:
            if q.gold_answer is None:
                raise ValueError(f"labeled question {q.question_id} is missing a gold answer")
            if q.gold_answer >= self.num_tokens:
                raise ValueError(f"question {q.question_id}: gold answer out of range")
        for q in self.unlabeled:
            if q.gold_answer is not None:
                raise ValueError(f"unlabeled question {q.question_id} must not expose a gold answer")
        if self.eval_answers:
            unknown = set(self.eval_answers) - seen
            if unknown:
                raise ValueError(f"eval_answers has an answer for unknown question {min(unknown)}")
            for q in self.questions:
                answer = self.eval_answers.get(q.question_id)
                if answer is None:
                    raise ValueError(f"question {q.question_id}: eval_answers has no answer")
                if not 0 <= answer < self.num_tokens:
                    raise ValueError(f"question {q.question_id}: eval answer out of range")
                if q.gold_answer is not None and answer != q.gold_answer:
                    raise ValueError(f"question {q.question_id}: eval answer differs from gold")

    @property
    def questions(self) -> tuple[Question, ...]:
        return self.labeled + self.unlabeled

    @property
    def labeled_ids(self) -> tuple[int, ...]:
        return tuple(q.question_id for q in self.labeled)

    @property
    def unlabeled_ids(self) -> tuple[int, ...]:
        return tuple(q.question_id for q in self.unlabeled)

    @cached_property
    def step_inputs(self) -> np.ndarray:
        """Read-only (N, L, d+L) step inputs of ``questions``, in that order, built once."""
        features = np.array([q.features for q in self.questions]).reshape(-1, self.num_features)
        inputs = step_inputs(features, self.response_length)
        inputs.flags.writeable = False
        return inputs

    def question(self, question_id: int) -> Question:
        for q in self.questions:
            if q.question_id == question_id:
                return q
        raise KeyError(question_id)


def check_rollouts(responses: np.ndarray, dists: np.ndarray) -> None:
    """Validate a block of rollout groups: (B, G, L) responses drawn from (B, L, K) dists.

    Every distribution entry must be nonnegative, every step distribution
    must sum to 1 within an absolute 1e-9, and every token must index one
    of the K tokens; anything else raises ``ValueError``.
    """
    if np.any(dists < 0.0):
        raise ValueError("step distributions must be nonnegative")
    if not np.all(np.abs(dists.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("step distributions must sum to 1 within 1e-9")
    if responses.min() < 0 or responses.max() >= dists.shape[-1]:
        raise ValueError("response tokens out of range")


def sampled_probs(dists: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Probability of each sampled token: (B, L, K) dists, (B, G, L) responses -> (B, G, L)."""
    b, _, length = responses.shape
    return dists[np.arange(b)[:, None, None], np.arange(length), responses]


def step_inputs(features: np.ndarray, response_length: int) -> np.ndarray:
    """Rows ``concat(features[n], onehot(s))`` for every question and step; shape (N, L, d+L)."""
    n, d = features.shape
    inputs = np.zeros((n, response_length, d + response_length))
    inputs[:, :, :d] = features[:, None, :]
    inputs[:, :, d:] = np.eye(response_length)
    return inputs


@dataclass(frozen=True)
class RolloutGroup:
    """G sampled responses for one question, with the step distributions they were drawn from.

    ``responses`` has shape (G, L) of token indices; ``answers`` reads off
    the final token of each response.  ``step_distributions`` has shape (L, K):
    the policy's per-step distributions are fixed by the question's features
    and the step index, so all G rollouts share that one array (row ``s`` is
    the distribution every rollout sampled its step-``s`` token from).
    """

    question_id: int
    epoch: int
    responses: np.ndarray
    step_distributions: np.ndarray

    def __post_init__(self) -> None:
        resp = np.asarray(self.responses)
        dists = np.asarray(self.step_distributions, dtype=float)
        if resp.ndim != 2:
            raise ValueError("responses must have shape (G, L)")
        if dists.ndim != 2 or dists.shape[0] != resp.shape[1]:
            raise ValueError("step_distributions must have shape (L, K)")
        check_rollouts(resp[None], dists[None])

    @property
    def answers(self) -> np.ndarray:
        """The final token of each response, shape (G,)."""
        return self.responses[:, -1]

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

    def __post_init__(self) -> None:
        """Check every invariant; raise ``ConfigError`` naming the bad field."""
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 1 <= self.epochs < EPOCH_LIMIT:
            raise ConfigError(f"epochs must lie in [1, {EPOCH_LIMIT - 1}], got {self.epochs}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p must lie in (0, 1], got {self.top_p}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(
                f"warmup_epochs must satisfy 0 <= warmup_epochs < epochs, got {self.warmup_epochs} vs {self.epochs}"
            )
        if self.group_size < 2:
            raise ConfigError("group_size must be at least 2")
        if self.group_size >= SIZE_LIMIT:
            raise ConfigError(f"group_size must be below 2**60, got {self.group_size}")
        # Written as "not (valid)" so that NaN, which fails every comparison, is rejected.
        if not self.kl_beta >= 0.0:
            raise ConfigError(f"kl_beta must be nonnegative, got {self.kl_beta}")
        if not self.entropy_coef >= 0.0:
            raise ConfigError(f"entropy_coef must be nonnegative, got {self.entropy_coef}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.rollout_temperature > 0.0:
            raise ConfigError(f"rollout_temperature must be positive, got {self.rollout_temperature}")
        if self.advantage_mode not in ADVANTAGE_MODES:
            raise ConfigError(f"advantage_mode must be one of {ADVANTAGE_MODES}")
        if self.matching_mode not in MATCHING_MODES:
            raise ConfigError(f"matching_mode must be one of {MATCHING_MODES}")
        if self.reward_kind not in REWARD_KINDS:
            raise ConfigError(f"reward_kind must be one of {REWARD_KINDS}")
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"paradigm must be one of {PARADIGMS}")
        if self.db_policy not in DB_POLICIES:
            raise ConfigError(f"db_policy must be one of {DB_POLICIES}")


def config_field_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(TrainerConfig))


def stream_keys(seed: int, question_ids: Sequence[int], epoch: int) -> np.ndarray:
    """The Philox keys of the streams ``(seed, q, epoch)`` for each ``q`` of
    ``question_ids``; shape (N, 2).

    A key packs the seed into one 64-bit word and ``question_id`` and
    ``epoch`` into the other (48 and 16 bits), so each must fit its field;
    anything outside raises ``ValueError`` (naming the first bad question id)
    instead of aliasing another stream.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    for question_id in question_ids:
        if not 0 <= question_id < QUESTION_ID_LIMIT:
            raise ValueError(f"question_id must lie in [0, 2**48), got {question_id}")
    if not 0 <= epoch < EPOCH_LIMIT:
        raise ValueError(f"epoch must lie in [0, 2**16), got {epoch}")
    keys = np.empty((len(question_ids), 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.array(question_ids, dtype=np.uint64) << np.uint64(16)
    keys[:, 1] ^= np.uint64(epoch)
    return keys


def stream_key(seed: int, question_id: int, epoch: int) -> np.ndarray:
    """The Philox key of the stream ``(seed, question_id, epoch)``: ``stream_keys`` of one id."""
    return stream_keys(seed, [question_id], epoch)[0]


def rng_stream(seed: int, question_id: int, epoch: int) -> np.random.Generator:
    """Deterministic counter-based stream for the triple ``(seed, question_id, epoch)``.

    Streams for distinct triples are statistically independent (Philox keyed
    by ``stream_key`` of the triple), and repeated calls with the same triple
    replay the exact same draws.  This is what makes per-question rollouts
    reproducible no matter which subset of questions a caller touches, and
    in which order.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, question_id, epoch)))


class StreamDraws:
    """Uniform draws of many ``rng_stream`` triples through one re-keyed Philox generator.

    ``fill(key, out)`` with ``key = stream_key(seed, question_id, epoch)``
    writes exactly the numbers ``rng_stream(seed, question_id, epoch).random(out.shape)``
    returns: it sets the bit generator to the state a freshly keyed one
    starts in (the key, a zero counter, an empty buffer).  That skips the
    ``Philox`` constructor, which pulls OS entropy only to discard it and
    costs about three times as much as the reset.  The keys of a whole epoch
    come from one ``stream_keys`` call.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)
        self._fresh_state = self._bit_generator.state

    def fill(self, key: np.ndarray, out: np.ndarray) -> None:
        """Overwrite the C-contiguous float64 array ``out`` with the first draws of
        the stream keyed by the (2,) uint64 ``key``."""
        self._fresh_state["state"]["key"] = key
        self._bit_generator.state = self._fresh_state
        self._generator.random(out=out)
