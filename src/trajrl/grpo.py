"""Group-relative policy optimization for the linear-softmax toy policy.

The policy scores token ``k`` at step ``s`` of a question with features ``x``
as ``weights[k] . concat(x, onehot(s)) / temperature`` and samples from the
softmax of those logits.  Because the loss, its exact analytic gradient, the
clipped-surrogate structure, and the sequence-level preference form are all
implemented against this one tiny model, every claim about the update rule
can be checked numerically (finite differences) or symbolically (closed
forms) in milliseconds.

Sign conventions: ``grpo_loss_and_grad`` returns a loss to *minimize*; the
preference objective is a quantity to *maximize*.  With mean-centering
disabled in favor of standard-deviation scaling, no length normalization,
no KL term, and no entropy bonus, the gradient of the negated loss equals
the gradient of the preference objective whenever responses are one step
long, and the two coincide at the rollout parameters for any length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ADVANTAGE_MODES, Question, RolloutGroup, TrainerConfig
from .rewards import RewardVector

__all__ = [
    "PolicyParams",
    "AdvantageVector",
    "step_input_matrix",
    "step_probs",
    "group_advantages",
    "importance_ratios",
    "grpo_loss_and_grad",
    "preference_objective",
    "preference_gradient",
    "kl_penalty",
]


@dataclass(frozen=True)
class PolicyParams:
    """Weight matrix of shape (K, d + L): one row of scores per token."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def num_tokens(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class AdvantageVector:
    """Group-normalized advantages, one per rollout."""

    values: np.ndarray
    mode: str
    question_id: int | None = None


def step_input_matrix(features: np.ndarray, response_length: int) -> np.ndarray:
    """Rows ``concat(features, onehot(s))`` for steps ``s = 0..L-1``; shape (L, d+L)."""
    d = features.shape[0]
    mat = np.zeros((response_length, d + response_length))
    mat[:, :d] = features
    mat[:, d:] = np.eye(response_length)
    return mat


def step_probs(
    params: PolicyParams, features: np.ndarray, response_length: int, temperature: float = 1.0
) -> np.ndarray:
    """Softmax step distributions, shape (L, K)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    z = step_input_matrix(features, response_length)
    logits = z @ params.weights.T / temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def group_advantages(rewards: RewardVector, mode: str) -> AdvantageVector:
    """Center (and optionally scale) rewards within the group.

    ``std_normalized`` divides by the population standard deviation and
    returns all zeros for a degenerate group; ``mean_only`` just subtracts
    the group mean.
    """
    if mode not in ADVANTAGE_MODES:
        raise ValueError(f"advantage mode must be one of {ADVANTAGE_MODES}")
    r = rewards.values
    if r.size < 2:
        raise ValueError("advantages need a group of at least 2 rollouts")
    centered = r - r.mean()
    if mode == "mean_only":
        return AdvantageVector(centered, mode, rewards.question_id)
    std = r.std()
    if std == 0.0:
        return AdvantageVector(np.zeros_like(r), mode, rewards.question_id)
    return AdvantageVector(centered / std, mode, rewards.question_id)


def _sampled_probs(probs: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Probability of each sampled token under (L, K) step probs; shape (G, L)."""
    length = responses.shape[1]
    return probs[np.arange(length)[None, :], responses]


def importance_ratios(
    question: Question,
    group: RolloutGroup,
    old_params: PolicyParams,
    new_params: PolicyParams,
    temperature: float = 1.0,
) -> np.ndarray:
    """Token-level probability ratios new/old for every sampled token; shape (G, L)."""
    probs_old = step_probs(old_params, question.features, group.response_length, temperature)
    probs_new = step_probs(new_params, question.features, group.response_length, temperature)
    p_old = _sampled_probs(probs_old, group.responses)
    if np.any(p_old == 0.0):
        raise ValueError("sampled token has zero probability under the old policy")
    return _sampled_probs(probs_new, group.responses) / p_old


def _scatter_step_coeffs(
    coeffs: np.ndarray, responses: np.ndarray, num_tokens: int
) -> np.ndarray:
    """Sum per-rollout coefficients into token bins per step; shape (L, K)."""
    length = responses.shape[1]
    out = np.zeros((length, num_tokens))
    for s in range(length):
        np.add.at(out[s], responses[:, s], coeffs[:, s])
    return out


def grpo_loss_and_grad(
    question: Question,
    group: RolloutGroup,
    rewards: RewardVector,
    old_params: PolicyParams,
    params: PolicyParams,
    config: TrainerConfig,
    ref_params: PolicyParams | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped-surrogate loss for one group and its exact gradient in ``params``.

    The per-token surrogate is ``min(ratio * A, clip(ratio, 1-eps, 1+eps) * A)``;
    the loss negates its (optionally length-normalized) sum, then adds
    ``kl_beta`` times the mean-step KL to the frozen reference and subtracts
    ``entropy_coef`` times the mean step entropy.  At a clip kink the
    gradient follows the unclipped branch.

    When ``old_params is params`` (the on-policy step ``train_epoch``
    takes), both the current and the old step probabilities are read from
    ``group.step_distributions`` instead of recomputed.  That requires the
    group to have been sampled by ``rollout_group`` from these very
    ``params`` at ``config.rollout_temperature``, which makes the reuse
    bit-identical to recomputing.  Any other call computes ``step_probs``
    for each side.
    """
    if rewards.values.shape[0] != group.group_size:
        raise ValueError("rewards/group size mismatch")
    if config.kl_beta > 0.0 and ref_params is None:
        raise ValueError("kl_beta > 0 requires reference parameters")

    tau = config.rollout_temperature
    eps = config.clip_eps
    g, length = group.responses.shape
    k = group.num_tokens
    z = step_input_matrix(question.features, length)

    if old_params is params:
        probs = probs_old = group.step_distributions
    else:
        probs = step_probs(params, question.features, length, tau)
        probs_old = step_probs(old_params, question.features, length, tau)
    p_new = _sampled_probs(probs, group.responses)
    p_old = _sampled_probs(probs_old, group.responses)
    if np.any(p_old == 0.0):
        raise ValueError("sampled token has zero probability under the old policy")
    ratios = p_new / p_old

    adv = group_advantages(rewards, config.advantage_mode).values
    a = adv[:, None]
    surrogate = np.minimum(ratios * a, np.clip(ratios, 1.0 - eps, 1.0 + eps) * a)
    norm = float(g * length) if config.length_normalization else 1.0
    loss = -surrogate.sum() / norm

    # Gradient of the surrogate part, accumulated in logit space (L, K).
    active = np.where(
        a > 0.0, ratios <= 1.0 + eps, np.where(a < 0.0, ratios >= 1.0 - eps, False)
    )
    coeffs = np.where(active, a * ratios, 0.0)
    d_logits = _scatter_step_coeffs(coeffs, group.responses, k)
    d_logits -= coeffs.sum(axis=0)[:, None] * probs
    d_logits *= -1.0 / norm

    log_p = np.log(probs)
    if config.entropy_coef > 0.0:
        step_entropy = -(probs * log_p).sum(axis=1)
        loss -= config.entropy_coef * step_entropy.mean()
        d_entropy = -probs * (log_p + step_entropy[:, None])
        d_logits -= (config.entropy_coef / length) * d_entropy

    if config.kl_beta > 0.0:
        probs_ref = step_probs(ref_params, question.features, length, tau)
        log_ref = np.log(probs_ref)
        step_kl = (probs * (log_p - log_ref)).sum(axis=1)
        loss += config.kl_beta * step_kl.mean()
        d_kl = probs * ((log_p - log_ref) - step_kl[:, None])
        d_logits += (config.kl_beta / length) * d_kl

    grad = d_logits.T @ z / tau
    return float(loss), grad


def _binary_pass_fraction(rewards: RewardVector) -> float:
    values = rewards.values
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError("preference form requires binary rewards")
    return float(values.mean())


def preference_objective(
    question: Question,
    group: RolloutGroup,
    rewards: RewardVector,
    old_params: PolicyParams,
    params: PolicyParams,
    clip_eps: float,
    temperature: float = 1.0,
) -> float:
    """Sequence-level preference value of the group under binary rewards.

    Correct responses contribute their clipped sequence-probability ratio
    weighted by ``(1-p)/sqrt(p(1-p))`` and incorrect ones subtract theirs
    weighted by ``p/sqrt(p(1-p))``; a degenerate group (all right or all
    wrong) carries no preference signal and scores 0.
    """
    p = _binary_pass_fraction(rewards)
    if p in (0.0, 1.0):
        return 0.0
    ratios = importance_ratios(question, group, old_params, params, temperature)
    seq_ratios = ratios.prod(axis=1)
    scale = np.sqrt(p * (1.0 - p))
    w_pos = (1.0 - p) / scale
    w_neg = p / scale
    correct = rewards.values == 1.0
    gain = np.minimum(seq_ratios[correct], 1.0 + clip_eps).sum()
    drag = np.maximum(seq_ratios[~correct], 1.0 - clip_eps).sum()
    return float(w_pos * gain - w_neg * drag)


def preference_gradient(
    question: Question,
    group: RolloutGroup,
    rewards: RewardVector,
    old_params: PolicyParams,
    params: PolicyParams,
    clip_eps: float,
    temperature: float = 1.0,
) -> np.ndarray:
    """Exact gradient of ``preference_objective`` in ``params``.

    Sequences whose ratio sits beyond its clip bound contribute nothing; at
    the bound itself the unclipped branch is used, mirroring the surrogate's
    kink convention.
    """
    p = _binary_pass_fraction(rewards)
    k = group.num_tokens
    length = group.response_length
    if p in (0.0, 1.0):
        return np.zeros_like(params.weights)
    probs = step_probs(params, question.features, length, temperature)
    ratios = importance_ratios(question, group, old_params, params, temperature)
    seq_ratios = ratios.prod(axis=1)
    scale = np.sqrt(p * (1.0 - p))
    correct = rewards.values == 1.0
    weights = np.where(correct, (1.0 - p) / scale, -p / scale)
    active = np.where(correct, seq_ratios <= 1.0 + clip_eps, seq_ratios >= 1.0 - clip_eps)
    coeffs = (weights * seq_ratios * active)[:, None] * np.ones((1, length))
    d_logits = _scatter_step_coeffs(coeffs, group.responses, k)
    d_logits -= coeffs.sum(axis=0)[:, None] * probs
    z = step_input_matrix(question.features, length)
    return d_logits.T @ z / temperature


def kl_penalty(
    params: PolicyParams,
    ref_params: PolicyParams,
    question: Question,
    response_length: int,
    temperature: float = 1.0,
) -> float:
    """Mean over steps of ``KL(pi_params || pi_ref)`` for one question."""
    p = step_probs(params, question.features, response_length, temperature)
    r = step_probs(ref_params, question.features, response_length, temperature)
    mask = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(mask, np.log(np.where(mask, p, 1.0)), 0.0)
        log_r = np.log(r)
        terms = np.where(mask, p * (log_p - log_r), 0.0)
    return float(terms.sum(axis=1).mean())
