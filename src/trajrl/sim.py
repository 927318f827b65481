"""Synthetic clustered worlds and the toy rollout policy.

Questions live in feature clusters that share a gold answer, so training on
one cluster member transfers to the rest through the shared feature
direction.  Cluster centers carry different norms, which makes some clusters
learn faster than others.  A configurable fraction of unlabeled questions is
drawn from shifted ("out of domain") centers with only partial overlap.

Bias scenarios use marker dimensions: a question's feature vector is the
cluster-structure block of ``num_features`` entries followed by
``n_clusters`` marker entries, all zero except that a biased question
carries a 1 in its own cluster's slot.  Nudging the initial weights along a
marker column makes the policy confidently wrong on exactly the biased
questions -- labeled questions have empty markers, so their learning is
untouched -- which is what makes majority-vote self-training dangerous
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BIAS_CHECK_STREAM_TAG,
    DOMAIN_ID,
    DOMAIN_OOD,
    INIT_STREAM_TAG,
    QUESTION_ID_LIMIT,
    SEED_LIMIT,
    SIZE_LIMIT,
    WORLD_STREAM_TAG,
    ConfigError,
    Dataset,
    Question,
    RolloutGroup,
    check_rollouts,
    rng_stream,
    step_inputs,
)
from .grpo import PolicyParams, block_step_probs, step_probs
# majority_vote is not called here; perfbench wraps this lookup site by name.
from .rewards import majority_vote, majority_votes

__all__ = [
    "WorldConfig",
    "Policy",
    "BiasVerificationError",
    "default_v1",
    "generate_world",
    "init_policy",
    "sample_block",
    "rollout_group",
    "greedy_answers",
    "greedy_answer",
]

# How far shifted-cluster centers sit from their parent direction, and the
# relative norms of the easiest and hardest clusters.  Norms gate learning
# speed: with these values the labeled splits of default-sized worlds hover
# near chance through the usual warmup window and take off shortly after,
# which is the regime where trajectory matching has something to grip.
_OOD_SHIFT = 1.5
_CLUSTER_SCALE_RANGE = (3.9, 4.2)
_UNLABELED_SCALE = 0.85
_BASE_WEIGHT_SCALE = 0.02
_BIAS_MARKER = 1.2
_BIAS_CHECK_DRAWS = 256
_BIAS_CHECK_GROUP = 8


class BiasVerificationError(ValueError):
    """The configured bias strength is too small to flip the initial majority."""


@dataclass(frozen=True)
class WorldConfig:
    """Geometry and split sizes of a synthetic world.

    ``num_features`` counts the cluster-structure dimensions; generated
    questions carry ``num_features + n_clusters`` entries because of the
    appended bias-marker block.
    """

    n_labeled: int = 60
    n_unlabeled: int = 180
    num_features: int = 16
    num_tokens: int = 512
    response_length: int = 4
    n_clusters: int = 6
    cluster_spread: float = 0.1
    ood_fraction: float = 0.2
    bias_fraction: float = 0.3
    bias_strength: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Check every invariant; raise ``ConfigError`` naming the bad field."""
        if self.n_labeled < 0 or self.n_unlabeled < 0:
            raise ConfigError("n_labeled and n_unlabeled must be nonnegative")
        if self.n_labeled + self.n_unlabeled < 1:
            raise ConfigError("the world needs at least one question")
        if self.n_labeled + self.n_unlabeled > QUESTION_ID_LIMIT:
            raise ConfigError("n_labeled + n_unlabeled must be at most 2**48, the number of question ids")
        if self.num_features < 1:
            raise ConfigError("num_features must be positive")
        if self.response_length < 1:
            raise ConfigError("response_length must be positive")
        if self.num_tokens < 2:
            raise ConfigError("num_tokens must be at least 2")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be positive")
        if self.n_clusters > self.num_tokens:
            raise ConfigError("n_clusters must not exceed num_tokens (gold answers must be distinct)")
        # The (questions, features) matrix and the (tokens, features + steps) weights.
        width = self.num_features + self.n_clusters
        if (self.n_labeled + self.n_unlabeled) * width >= SIZE_LIMIT:
            raise ConfigError("(n_labeled + n_unlabeled) * (num_features + n_clusters) must be below 2**60")
        if self.num_tokens * (width + self.response_length) >= SIZE_LIMIT:
            raise ConfigError(
                "num_tokens * (num_features + n_clusters + response_length) must be below 2**60"
            )
        # Written as "not (valid)" so that NaN, which fails every comparison, is rejected.
        if not 0.0 <= self.cluster_spread < math.inf:
            raise ConfigError(f"cluster_spread must be finite and nonnegative, got {self.cluster_spread}")
        for name in ("ood_fraction", "bias_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.bias_strength < math.inf:
            raise ConfigError(f"bias_strength must be finite and nonnegative, got {self.bias_strength}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


def default_v1(**overrides) -> WorldConfig:
    """The standard benchmark world (1:3 labeled-to-unlabeled ratio)."""
    return WorldConfig(**overrides)


@dataclass
class Policy:
    """Current parameters plus the frozen reference copy taken at init."""

    params: PolicyParams
    ref_params: PolicyParams


def generate_world(config: WorldConfig) -> Dataset:
    """Build a clustered dataset; deterministic in ``config.seed``."""
    rng = rng_stream(config.seed, WORLD_STREAM_TAG, 0)
    d, k = config.num_features, config.num_tokens
    m = config.n_clusters
    dim = d + m

    centers = rng.standard_normal((m, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    lo, hi = _CLUSTER_SCALE_RANGE
    scales = np.linspace(lo, hi, m) if m > 1 else np.array([(lo + hi) / 2.0])

    shifts = rng.standard_normal((m, d))
    shifts /= np.linalg.norm(shifts, axis=1, keepdims=True)
    ood_centers = centers + _OOD_SHIFT * shifts
    ood_centers /= np.linalg.norm(ood_centers, axis=1, keepdims=True)

    # WorldConfig keeps m <= k, so these golds are distinct tokens.
    golds = np.arange(m) * (k // m)
    bias_targets = (golds + 1) % k

    n_total = config.n_labeled + config.n_unlabeled
    n_ood = int(round(config.ood_fraction * config.n_unlabeled))
    n_bias = int(round(config.bias_fraction * config.n_unlabeled))
    unlabeled_ids = np.arange(config.n_labeled, n_total)
    ood_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_ood]].tolist())
    bias_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_bias]].tolist())
    # One draw for all questions gives the numbers of one draw per question, in order.
    with np.errstate(over="ignore"):  # an overflow is the ConfigError below
        noise = config.cluster_spread * rng.standard_normal((n_total, d))
    if not np.all(np.isfinite(noise)):
        raise ConfigError(f"cluster_spread={config.cluster_spread} overflows the world's features")

    labeled: list[Question] = []
    unlabeled: list[Question] = []
    eval_answers: dict[int, int] = {}
    clusters: dict[int, int] = {}
    for qid in range(n_total):
        c = qid % m
        is_ood = qid in ood_ids
        base = ood_centers[c] if is_ood else centers[c]
        # Labeled questions carry the large cluster norm that drives learning
        # speed; unlabeled questions sit at unit norm so their gradient
        # contributions stay gentle until the cluster signal is established.
        scale = scales[c] if qid < config.n_labeled else _UNLABELED_SCALE
        features = np.zeros(dim)
        features[:d] = scale * base + noise[qid]
        if qid in bias_ids:
            features[d + c] = _BIAS_MARKER
        gold = int(golds[c])
        eval_answers[qid] = gold
        clusters[qid] = c
        if qid < config.n_labeled:
            labeled.append(Question(qid, features, gold_answer=gold))
        else:
            unlabeled.append(
                Question(
                    qid,
                    features,
                    gold_answer=None,
                    domain_tag=DOMAIN_OOD if is_ood else DOMAIN_ID,
                    bias_target=int(bias_targets[c]) if qid in bias_ids else None,
                )
            )
    return Dataset(
        labeled=tuple(labeled),
        unlabeled=tuple(unlabeled),
        num_features=dim,
        num_tokens=k,
        response_length=config.response_length,
        eval_answers=eval_answers,
        clusters=clusters,
    )


def init_policy(dataset: Dataset, config: WorldConfig) -> Policy:
    """Small random weights, plus a deliberate push toward each bias target.

    Each bias target's weight row gains ``config.bias_strength`` on the marker
    column of its cluster, so biased questions start out confidently wrong
    while everything else stays near-uniform.  When any bias is applied, a
    Monte Carlo check (256 sampled rollout groups over the biased
    questions) verifies that the initial majority answer lands on the wrong
    target more than half the time, and raises ``BiasVerificationError``
    otherwise.  A bias so strong that some token of a biased question starts
    at probability exactly 0 raises ``ConfigError`` naming ``bias_strength``;
    a biased question whose cluster has no marker column raises it too.
    """
    rng = rng_stream(config.seed, INIT_STREAM_TAG, 0)
    d = config.num_features
    weights = _BASE_WEIGHT_SCALE * rng.standard_normal(
        (dataset.num_tokens, dataset.num_features + dataset.response_length)
    )

    biased = [q for q in dataset.unlabeled if q.bias_target is not None]
    if biased and config.bias_strength > 0.0:
        markers = dataset.num_features - d
        for q in biased:
            c = dataset.clusters[q.question_id]
            if not 0 <= c < markers:
                raise ConfigError(
                    f"question {q.question_id}: cluster {c} is outside the dataset's "
                    f"{markers} marker columns"
                )
        # One bump per cluster: its bias target's weight on its marker column.
        for target, col in {(q.bias_target, d + dataset.clusters[q.question_id]) for q in biased}:
            weights[target, col] += config.bias_strength
        policy = Policy(PolicyParams(weights), PolicyParams(weights.copy()))
        _verify_bias(policy, biased, dataset.response_length, config.seed, config.bias_strength)
        return policy
    return Policy(PolicyParams(weights), PolicyParams(weights.copy()))


def _verify_bias(
    policy: Policy,
    biased: list[Question],
    response_length: int,
    seed: int,
    strength: float,
) -> float:
    """Sample ``_BIAS_CHECK_DRAWS`` groups, group ``i`` from ``biased[i % len(biased)]``,
    and require the majority to land on the bias target in more than half of them.
    Returns that fraction.

    The groups' uniforms are one ``random`` call on the check stream, which
    gives the same numbers as one call per group.  The vote reads only final
    tokens, so each question samples its final step once, for all of its
    groups; every step's distribution is still checked, and one with a zero
    entry is a saturating ``bias_strength``.
    """
    rng = rng_stream(seed, BIAS_CHECK_STREAM_TAG, 0)
    draws = rng.random((_BIAS_CHECK_DRAWS, _BIAS_CHECK_GROUP, response_length))
    used = biased[:_BIAS_CHECK_DRAWS]
    n = len(used)
    features = np.array([q.features for q in used])
    # An overflowing logit gives NaN entries, which fail the check below as zeros do.
    with np.errstate(over="ignore", invalid="ignore"):
        dists = block_step_probs(policy.params, step_inputs(features, response_length))
    if not np.all(dists > 0.0):
        raise ConfigError(
            f"bias_strength={strength} saturates the initial softmax of a biased question "
            "(some token gets probability 0); lower it"
        )
    answers = np.empty((_BIAS_CHECK_DRAWS, _BIAS_CHECK_GROUP), dtype=np.int64)
    for j in range(n):
        finals = draws[j::n, :, -1]
        tokens = sample_block(dists[j, None, -1:], finals.reshape(1, -1, 1))
        answers[j::n] = tokens.reshape(finals.shape)
    # Every group's final tokens, and every step's distribution.
    check_rollouts(answers[:, :, None], dists)
    winners = majority_votes(answers)[0]
    targets = np.array([q.bias_target for q in used])
    hits = int(np.count_nonzero(winners == np.resize(targets, _BIAS_CHECK_DRAWS)))
    fraction = hits / _BIAS_CHECK_DRAWS
    if fraction <= 0.5:
        raise BiasVerificationError(
            f"bias_strength={strength} flips the initial majority in only "
            f"{fraction:.0%} of sampled groups; increase it"
        )
    return fraction


def sample_block(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of a block: (B, L, K) step distributions, (B, G, L) uniforms
    -> (B, G, L) tokens.

    Rollout ``g`` of row ``b`` takes at step ``s`` the first token whose
    cumulative probability exceeds ``draws[b, g, s]``, or the last token when
    rounding leaves none.
    """
    b, length, k = probs.shape
    cdf = np.cumsum(probs, axis=-1)
    tokens = np.empty(draws.shape, dtype=np.int64)
    for row in range(b):
        for s in range(length):
            tokens[row, :, s] = cdf[row, s].searchsorted(draws[row, :, s], side="right")
    return np.minimum(tokens, k - 1, out=tokens)


def rollout_group(
    params: PolicyParams,
    question: Question,
    response_length: int,
    group_size: int,
    epoch: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
) -> RolloutGroup:
    """Sample ``group_size`` responses and record the (L, K) distributions used.

    This is ``sample_block`` on a block of one question: the group's
    ``(group_size, L)`` uniforms are one call on ``rng``, and each step's
    column is searched in that step's cdf.  The training loop samples blocks
    of questions directly and never builds ``RolloutGroup`` objects; it
    draws from the same per-question streams, so a question's group there
    equals this function's output for ``rng_stream(seed, question_id, epoch)``.
    """
    if group_size < 1:
        raise ValueError("group_size must be positive")
    probs = step_probs(params, question.features, response_length, temperature)
    draws = rng.random((1, group_size, response_length))
    return RolloutGroup(
        question_id=question.question_id,
        epoch=epoch,
        responses=sample_block(probs[None], draws)[0],
        step_distributions=probs,
    )


def greedy_answers(params: PolicyParams, inputs: np.ndarray) -> np.ndarray:
    """Greedy answer of each question of a (B, L, d+L) input block; shape (B,).

    The answer is the most likely final-step token (ties to the smallest
    index).  Softmax is monotone, so this is the argmax of the final-step
    logits and no distribution is built.  The logits are one stacked matmul
    with the transposed view of the weights, which makes each question's own
    ``z[-1] @ weights.T`` gemv call; a contiguous copy of the transpose would
    switch gemv variants and round differently.
    """
    logits = np.matmul(inputs[:, -1:], params.weights.T)
    return np.argmax(logits[:, 0], axis=-1)


def greedy_answer(params: PolicyParams, question: Question, response_length: int) -> int:
    """``greedy_answers`` of one question."""
    inputs = step_inputs(question.features[None], response_length)
    return int(greedy_answers(params, inputs)[0])
