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

from dataclasses import dataclass

import numpy as np

from .core import (
    BIAS_CHECK_STREAM_TAG,
    DOMAIN_ID,
    DOMAIN_OOD,
    INIT_STREAM_TAG,
    SEED_LIMIT,
    WORLD_STREAM_TAG,
    ConfigError,
    Dataset,
    Question,
    RolloutGroup,
    rng_stream,
)
from .grpo import PolicyParams, step_input_matrix, step_probs
from .rewards import majority_vote

__all__ = [
    "WorldConfig",
    "Policy",
    "BiasVerificationError",
    "default_v1",
    "validate_world",
    "generate_world",
    "init_policy",
    "rollout_group",
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


def default_v1(**overrides) -> WorldConfig:
    """The standard benchmark world (1:3 labeled-to-unlabeled ratio)."""
    return WorldConfig(**overrides)


def validate_world(config: WorldConfig) -> None:
    if config.n_labeled < 0 or config.n_unlabeled < 0:
        raise ConfigError("n_labeled and n_unlabeled must be nonnegative")
    if config.n_labeled + config.n_unlabeled < 1:
        raise ConfigError("the world needs at least one question")
    if config.num_features < 1:
        raise ConfigError("num_features must be positive")
    if config.response_length < 1:
        raise ConfigError("response_length must be positive")
    if config.num_tokens < 2:
        raise ConfigError("num_tokens must be at least 2")
    if config.n_clusters < 1:
        raise ConfigError("n_clusters must be positive")
    if config.n_clusters > config.num_tokens:
        raise ConfigError("n_clusters must not exceed num_tokens (gold answers must be distinct)")
    if config.cluster_spread < 0.0:
        raise ConfigError("cluster_spread must be nonnegative")
    for name in ("ood_fraction", "bias_fraction"):
        if not 0.0 <= getattr(config, name) <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1]")
    if config.bias_strength < 0.0:
        raise ConfigError("bias_strength must be nonnegative")
    if not 0 <= config.seed < SEED_LIMIT:
        raise ConfigError(f"seed must lie in [0, 2**64), got {config.seed}")


@dataclass
class Policy:
    """Current parameters plus the frozen reference copy taken at init."""

    params: PolicyParams
    ref_params: PolicyParams


def generate_world(config: WorldConfig) -> Dataset:
    """Build a clustered dataset; deterministic in ``config.seed``."""
    validate_world(config)
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

    golds = (np.arange(m) * (k // m)) % k
    if len(set(golds.tolist())) != m:
        golds = np.arange(m)
    bias_targets = (golds + 1) % k

    n_total = config.n_labeled + config.n_unlabeled
    n_ood = int(round(config.ood_fraction * config.n_unlabeled))
    n_bias = int(round(config.bias_fraction * config.n_unlabeled))
    unlabeled_ids = np.arange(config.n_labeled, n_total)
    ood_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_ood]].tolist())
    bias_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_bias]].tolist())

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
        features[:d] = scale * base + config.cluster_spread * rng.standard_normal(d)
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


def init_policy(
    dataset: Dataset, config: WorldConfig, bias_strength: float | None = None
) -> Policy:
    """Small random weights, plus a deliberate push toward each bias target.

    Each bias target's weight row gains ``bias_strength`` on the marker
    column of its cluster, so biased questions start out confidently wrong
    while everything else stays near-uniform.  When any bias is applied, a
    Monte Carlo check (256 sampled rollout groups over the biased
    questions) verifies that the initial majority answer lands on the wrong
    target more than half the time, and raises ``BiasVerificationError``
    otherwise.
    """
    strength = config.bias_strength if bias_strength is None else bias_strength
    if strength < 0.0:
        raise ValueError("bias strength must be nonnegative")
    rng = rng_stream(config.seed, INIT_STREAM_TAG, 0)
    d = config.num_features
    weights = _BASE_WEIGHT_SCALE * rng.standard_normal(
        (dataset.num_tokens, dataset.num_features + dataset.response_length)
    )

    biased = [q for q in dataset.unlabeled if q.bias_target is not None]
    if biased and strength > 0.0:
        bumped: set[tuple[int, int]] = set()
        for q in biased:
            marker_col = d + dataset.clusters[q.question_id]
            if (q.bias_target, marker_col) not in bumped:
                weights[q.bias_target, marker_col] += strength
                bumped.add((q.bias_target, marker_col))
        policy = Policy(PolicyParams(weights), PolicyParams(weights.copy()))
        _verify_bias(policy, biased, dataset.response_length, config.seed, strength)
        return policy
    return Policy(PolicyParams(weights), PolicyParams(weights.copy()))


def _verify_bias(
    policy: Policy,
    biased: list[Question],
    response_length: int,
    seed: int,
    strength: float,
) -> None:
    rng = rng_stream(seed, BIAS_CHECK_STREAM_TAG, 0)
    hits = 0
    for i in range(_BIAS_CHECK_DRAWS):
        q = biased[i % len(biased)]
        group = rollout_group(
            policy.params, q, response_length, _BIAS_CHECK_GROUP, epoch=0, rng=rng
        )
        if majority_vote(group.answers)[0] == q.bias_target:
            hits += 1
    fraction = hits / _BIAS_CHECK_DRAWS
    if fraction <= 0.5:
        raise BiasVerificationError(
            f"bias_strength={strength} flips the initial majority in only "
            f"{fraction:.0%} of sampled groups; increase it"
        )


def rollout_group(
    params: PolicyParams,
    question: Question,
    response_length: int,
    group_size: int,
    epoch: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
) -> RolloutGroup:
    """Sample ``group_size`` responses step by step and record the (L, K) distributions used."""
    if group_size < 1:
        raise ValueError("group_size must be positive")
    probs = step_probs(params, question.features, response_length, temperature)
    cdf = np.cumsum(probs, axis=1)
    draws = rng.random((group_size, response_length))
    responses = np.empty((group_size, response_length), dtype=np.int64)
    for s in range(response_length):
        responses[:, s] = np.searchsorted(cdf[s], draws[:, s], side="right")
    np.clip(responses, 0, probs.shape[1] - 1, out=responses)
    return RolloutGroup(
        question_id=question.question_id,
        epoch=epoch,
        responses=responses,
        step_distributions=probs,
        answers=responses[:, -1].copy(),
    )


def greedy_answer(params: PolicyParams, question: Question, response_length: int) -> int:
    """Deterministic answer: the most likely final-step token (ties to the smallest index).

    Softmax is monotone, so this is the argmax of the final-step logits; no
    distribution is built.
    """
    z_last = step_input_matrix(question.features, response_length)[-1]
    return int(np.argmax(z_last @ params.weights.T))
