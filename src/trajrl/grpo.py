"""Group-relative policy optimization for the linear-softmax toy policy.

The policy scores token ``k`` at step ``s`` of a question with features ``x`` as
``weights[k] . concat(x, onehot(s)) / temperature`` and samples from the softmax of those
logits.  Because the loss, its exact analytic gradient, the clipped-surrogate structure,
and the sequence-level preference form are all implemented against this one tiny model,
every claim about the update rule can be checked numerically (finite differences) or
symbolically (closed forms) in milliseconds.

Two logit-gradient identities carry the update, one helper each: a sampled-token term
``sum c * log p(token)`` (surrogate, preference form) through ``_sampled_logit_grads``, and
a step expectation ``E_p[f]``, ``f`` held fixed, through ``_expected_logit_grads`` (entropy
bonus: ``f = log p``, negated; KL term: ``f = log p - log p_ref``).

Sign conventions: ``grpo_block`` returns losses to *minimize*; ``preference_block``
returns sequence-level preference values to *maximize*.  With mean-centering disabled in
favor of standard-deviation scaling, no length normalization, no KL term, and no entropy
bonus, the gradient of the negated loss equals the gradient of the preference value
whenever responses are one step long, and the two coincide at the rollout parameters for
any length.

The clip range ``eps`` is the constant ``CLIP_EPS``.  Training makes one on-policy update
per epoch, so its ratios are all exactly 1: the clip binds only in the off-policy forms
(``probs`` other than ``probs_old``).

The forward pass, the ratios, the advantages, the loss and the preference form are block
kernels over B questions (``block_step_probs``, ``block_ratios``, ``block_advantages``,
``grpo_block``, ``preference_block``) whose operations are row-wise or make each
question's own matmul call; every forward product of the policy (rollouts, updates, the
bias check, greedy evaluation) is ``block_logits``.  The per-question ``step_probs``,
``group_advantages`` and ``grpo_loss_and_grad`` call them on a block of one; no other
package code calls those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ADVANTAGE_MODES,
    Question,
    RolloutGroup,
    TrainerConfig,
    sampled_probs,
    step_inputs,
)
from .rewards import RewardVector

CLIP_EPS = 0.2

__all__ = [
    "CLIP_EPS",
    "PolicyParams",
    "AdvantageVector",
    "step_probs",
    "block_logits",
    "block_step_probs",
    "group_advantages",
    "block_advantages",
    "block_ratios",
    "grpo_loss_and_grad",
    "grpo_block",
    "preference_block",
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


@dataclass(frozen=True)
class AdvantageVector:
    """Group-normalized advantages, one per rollout."""

    values: np.ndarray
    mode: str
    question_id: int | None = None


def block_logits(params: PolicyParams, inputs: np.ndarray) -> np.ndarray:
    """Logits at temperature 1 of a (B, L, d+L) input block; shape (B, L, K).

    One stacked matmul with a contiguous copy of the transposed weights, made per call:
    OpenBLAS repacks the transposed view on every per-question call (59 against 25 µs per
    block of 8 at the default shape, SkylakeX kernel), and the weights stay writable, so no
    copy is cached.  It still makes each question's own BLAS call, so each row gets the bits
    it gets alone; one gemm over the B * L stacked rows would round differently.
    """
    return np.matmul(inputs, np.ascontiguousarray(params.weights.T))


def block_step_probs(
    params: PolicyParams, inputs: np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """Step distributions of a (B, L, d+L) input block: the softmax of ``block_logits`` /
    temperature, one row-wise pass over the block, in place; shape (B, L, K)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    probs = block_logits(params, inputs)
    if temperature != 1.0:  # x / 1.0 == x exactly
        probs /= temperature
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def step_probs(
    params: PolicyParams, features: np.ndarray, response_length: int, temperature: float = 1.0
) -> np.ndarray:
    """Softmax step distributions of one question, shape (L, K)."""
    inputs = step_inputs(np.asarray(features)[None], response_length)
    return block_step_probs(params, inputs, temperature)[0]


def block_advantages(rewards: np.ndarray, mode: str) -> np.ndarray:
    """Center (and optionally scale) each row of (B, G) rewards within its group.

    ``mean_only`` subtracts the group mean; ``std_normalized`` also divides by
    the population standard deviation.  A degenerate group, whose rewards are
    all exactly equal, gets exact zeros in both modes: the mean of G equal
    rewards can be off by an ulp when G is not a power of two, and scaling
    that residue would turn a group with no signal into advantages of +-1.
    """
    if mode not in ADVANTAGE_MODES:
        raise ValueError(f"advantage mode must be one of {ADVANTAGE_MODES}")
    if rewards.shape[1] < 2:
        raise ValueError("advantages need a group of at least 2 rollouts")
    centered = rewards - rewards.mean(axis=1, keepdims=True)
    centered[(rewards == rewards[:, :1]).all(axis=1)] = 0.0
    if mode == "mean_only":
        return centered
    std = rewards.std(axis=1, keepdims=True)
    return np.divide(centered, std, out=np.zeros_like(centered), where=std != 0.0)


def group_advantages(rewards: RewardVector, mode: str) -> AdvantageVector:
    """``block_advantages`` of one group's rewards."""
    values = block_advantages(rewards.values[None], mode)[0]
    return AdvantageVector(values, mode, rewards.question_id)


def block_ratios(probs: np.ndarray, probs_old: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Probability ratios new/old of every sampled token of a block; shape (B, G, L)."""
    p_new = sampled_probs(probs, responses)
    p_old = sampled_probs(probs_old, responses)
    if np.any(p_old == 0.0):
        raise ValueError("sampled token has zero probability under the old policy")
    return p_new / p_old


def _sampled_logit_grads(coeffs: np.ndarray, responses: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Logit gradient of ``sum coeffs * log p(sampled token)``, shape (B, L, K): the (B, G, L)
    coefficients binned by token per step with ``np.add.at``, in index order (so each bin sums
    its rollouts in group order whatever the block size), less their sum times ``probs``."""
    b, _, length = responses.shape
    out = np.zeros(probs.shape)
    np.add.at(out, (np.arange(b)[:, None, None], np.arange(length), responses), coeffs)
    out -= coeffs.sum(axis=1)[:, :, None] * probs
    return out


def _expected_logit_grads(probs: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each step's ``E_p[f]`` for a (B, L, K) ``f`` held fixed, and its logit gradient ``p * (f - E_p[f])``."""
    expected = (probs * f).sum(axis=-1)
    return expected, probs * (f - expected[:, :, None])


def _add_logit_grads(
    grad: np.ndarray, d_logits: np.ndarray, inputs: np.ndarray, temperature: float
) -> None:
    """Add each question's weight gradient ``d.T @ z / temperature`` to ``grad``, in block order.

    Each product goes into one reused (K, d+L) buffer.  A stacked matmul
    would make the same BLAS calls, but its (B, K, d+L) result raised the
    default run's peak RSS by about 0.5 MB and ran no faster.
    """
    term = np.empty_like(grad)
    for d, z in zip(d_logits, inputs):
        np.matmul(d.T, z, out=term)
        if temperature != 1.0:  # x / 1.0 == x exactly
            term /= temperature
        grad += term


def grpo_block(
    inputs: np.ndarray,
    responses: np.ndarray,
    rewards: np.ndarray,
    probs: np.ndarray,
    probs_old: np.ndarray,
    probs_ref: np.ndarray | None,
    config: TrainerConfig,
    grad: np.ndarray,
) -> np.ndarray:
    """Clipped-surrogate losses of a block of groups; their gradients are added to ``grad``.

    Shapes: ``inputs`` (B, L, d+L), ``responses`` (B, G, L), ``rewards``
    (B, G), and ``probs``, ``probs_old`` and ``probs_ref`` (B, L, K) step
    distributions under the current, the rollout and the reference
    parameters (``probs_ref`` only when ``config.kl_beta > 0``).  Returns the
    (B,) losses; each group's (K, d+L) weight gradient is added to ``grad``
    in block order.  Every operation is row-wise or a per-question matmul,
    so row ``b`` gets the same bits as a block holding only that group.
    See ``grpo_loss_and_grad`` for the objective.
    """
    b, g, length = responses.shape

    ratios = block_ratios(probs, probs_old, responses)
    a = block_advantages(rewards, config.advantage_mode)[:, :, None]
    surrogate = np.minimum(ratios * a, np.clip(ratios, 1.0 - CLIP_EPS, 1.0 + CLIP_EPS) * a)
    norm = float(g * length) if config.length_normalization else 1.0
    losses = -surrogate.reshape(b, g * length).sum(axis=1) / norm

    # Gradient of the surrogate part, accumulated in logit space (B, L, K).
    active = np.where(
        a > 0.0, ratios <= 1.0 + CLIP_EPS, np.where(a < 0.0, ratios >= 1.0 - CLIP_EPS, False)
    )
    coeffs = np.where(active, a * ratios, 0.0)
    d_logits = _sampled_logit_grads(coeffs, responses, probs)
    d_logits *= -1.0 / norm

    # log(0) of an underflowed softmax surfaces as train_epoch's DivergenceError.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(probs)
        if config.entropy_coef > 0.0:
            neg_entropy, d_neg_entropy = _expected_logit_grads(probs, log_p)
            losses += config.entropy_coef * neg_entropy.mean(axis=1)
            d_logits += (config.entropy_coef / length) * d_neg_entropy

        if config.kl_beta > 0.0:
            step_kl, d_kl = _expected_logit_grads(probs, log_p - np.log(probs_ref))
            losses += config.kl_beta * step_kl.mean(axis=1)
            d_logits += (config.kl_beta / length) * d_kl

    _add_logit_grads(grad, d_logits, inputs, config.rollout_temperature)
    return losses


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
    gradient follows the unclipped branch.  This is ``grpo_block`` on a
    block of one group, with the current and old step distributions
    computed from ``params`` and ``old_params`` at
    ``config.rollout_temperature``.
    """
    if rewards.values.shape[0] != group.group_size:
        raise ValueError("rewards/group size mismatch")
    if config.kl_beta > 0.0 and ref_params is None:
        raise ValueError("kl_beta > 0 requires reference parameters")

    tau = config.rollout_temperature
    inputs = step_inputs(question.features[None], group.response_length)
    probs = block_step_probs(params, inputs, tau)
    probs_old = block_step_probs(old_params, inputs, tau)
    probs_ref = block_step_probs(ref_params, inputs, tau) if config.kl_beta > 0.0 else None
    grad = np.zeros_like(params.weights)
    responses, values = group.responses[None], rewards.values[None]
    losses = grpo_block(inputs, responses, values, probs, probs_old, probs_ref, config, grad)
    return float(losses[0]), grad


def preference_block(
    inputs: np.ndarray,
    responses: np.ndarray,
    rewards: np.ndarray,
    probs: np.ndarray,
    probs_old: np.ndarray,
    temperature: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequence-level preference values of a block of groups under binary rewards.

    Shapes as in ``grpo_block``.  With ``p`` a row's pass fraction, a correct
    rollout weighs its sequence ratio, clipped above at ``1+eps``, by
    ``(1-p)/sqrt(p(1-p))`` and an incorrect one weighs its ratio, clipped
    below at ``1-eps``, by ``-p/sqrt(p(1-p))``; a degenerate row (all right
    or all wrong) carries no preference signal and has weight 0.  Returns
    the (B,) values and the (K, d+L) gradient of their sum in the current
    parameters, added up in block order.  Sequences beyond their clip bound
    contribute nothing to it; at the bound itself the unclipped branch is
    used, mirroring the surrogate's kink convention.
    """
    if not np.all((rewards == 0.0) | (rewards == 1.0)):
        raise ValueError("preference form requires binary rewards")
    seq_ratios = block_ratios(probs, probs_old, responses).prod(axis=2)
    p = rewards.mean(axis=1, keepdims=True)
    scale = np.sqrt(p * (1.0 - p))
    correct = rewards == 1.0
    weights = np.divide(
        np.where(correct, 1.0 - p, -p), scale, out=np.zeros_like(seq_ratios), where=scale != 0.0
    )
    clipped = np.where(
        correct, np.minimum(seq_ratios, 1.0 + CLIP_EPS), np.maximum(seq_ratios, 1.0 - CLIP_EPS)
    )
    values = (weights * clipped).sum(axis=1)

    active = np.where(correct, seq_ratios <= 1.0 + CLIP_EPS, seq_ratios >= 1.0 - CLIP_EPS)
    coeffs = np.repeat((weights * seq_ratios * active)[:, :, None], responses.shape[2], axis=2)
    d_logits = _sampled_logit_grads(coeffs, responses, probs)
    grad = np.zeros((probs.shape[-1], inputs.shape[-1]))
    _add_logit_grads(grad, d_logits, inputs, temperature)
    return values, grad
