"""Gradient and advantage oracles for the group-relative update.

The analytic gradients are checked against central finite differences, the
binary-reward advantages against their closed forms, and the sequence-level
preference objective against the negated surrogate loss in the regime where
the two provably coincide (single-step responses, ratios inside the clip
band, standard-deviation advantages, no KL/entropy/length terms).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from trajrl.core import ADVANTAGE_MODES, Question, TrainerConfig, step_inputs
from trajrl.grpo import (
    PolicyParams,
    block_advantages,
    block_ratios,
    block_step_probs,
    group_advantages,
    grpo_block,
    grpo_loss_and_grad,
    preference_block,
    step_probs,
)
from trajrl.rewards import RewardVector
from trajrl.sim import rollout_group


def make_instance(rng, g=8, k=6, d=4, length=3, perturb=0.0):
    """Random question/group/params; optionally perturbed current params."""
    q = Question(0, rng.standard_normal(d))
    old = PolicyParams(0.3 * rng.standard_normal((k, d + length)))
    group = rollout_group(old, q, length, g, epoch=1, rng=rng)
    new = old
    if perturb:
        new = PolicyParams(old.weights + perturb * rng.standard_normal(old.weights.shape))
    return q, group, old, new


def one_group(q, group, old, params):
    """One group's block arrays: (inputs, responses, probs, probs_old), each a block of one."""
    inputs = step_inputs(q.features[None], group.response_length)
    probs = block_step_probs(params, inputs)
    return inputs, group.responses[None], probs, block_step_probs(old, inputs)


def ratios_of(q, group, old, params):
    """``block_ratios`` of one group, shape (G, L)."""
    _, responses, probs, probs_old = one_group(q, group, old, params)
    return block_ratios(probs, probs_old, responses)[0]


def preference(q, group, rewards, old, params):
    """``preference_block`` of one group: its value and its gradient."""
    inputs, responses, probs, probs_old = one_group(q, group, old, params)
    values, grad = preference_block(inputs, responses, rewards.values[None], probs, probs_old)
    return float(values[0]), grad


def binary_rewards(rng, g, n_ones=None):
    if n_ones is None:
        n_ones = int(rng.integers(1, g))
    values = np.zeros(g)
    values[rng.permutation(g)[:n_ones]] = 1.0
    return RewardVector(0, 1, values)


def fd_gradient(fn, params, h=1e-5):
    """Central finite differences of a scalar function of PolicyParams."""
    w = params.weights
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            grad[i, j] = (fn(PolicyParams(wp)) - fn(PolicyParams(wm))) / (2 * h)
    return grad


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def near_clip_kink(ratios, eps, margin=1e-3):
    return bool(
        np.any(np.abs(ratios - (1.0 + eps)) < margin)
        or np.any(np.abs(ratios - (1.0 - eps)) < margin)
    )


# ---------------------------------------------------------------- advantages


def test_binary_advantage_closed_form_all_pass_counts():
    # For G = 8 and c correct answers, std-normalized advantages are
    # (1-p)/sqrt(p(1-p)) on the correct rollouts and -p/sqrt(p(1-p)) on
    # the rest, with p = c/8.
    g = 8
    for c in range(1, g):
        p = c / g
        values = np.array([1.0] * c + [0.0] * (g - c))
        adv = group_advantages(RewardVector(0, 1, values), "std_normalized").values
        pos = (1.0 - p) / np.sqrt(p * (1.0 - p))
        neg = -p / np.sqrt(p * (1.0 - p))
        assert np.all(np.abs(adv[:c] - pos) < 1e-12)
        assert np.all(np.abs(adv[c:] - neg) < 1e-12)


def test_binary_advantage_sqrt3_at_quarter():
    values = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    adv = group_advantages(RewardVector(0, 1, values), "std_normalized").values
    assert abs(adv[0] - np.sqrt(3.0)) < 1e-12
    assert abs(adv[0] - 1.73205) < 1e-5
    assert abs(adv[2] + 1.0 / np.sqrt(3.0)) < 1e-12


def test_mean_only_advantages():
    values = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    adv = group_advantages(RewardVector(0, 1, values), "mean_only").values
    assert np.allclose(adv, [0.75, 0.75] + [-0.25] * 6, atol=1e-12)


def test_degenerate_group_zero_advantages():
    for mode in ("std_normalized", "mean_only"):
        adv = group_advantages(RewardVector(0, 1, np.ones(4)), mode).values
        assert np.array_equal(adv, np.zeros(4))


@pytest.mark.parametrize("mode", ADVANTAGE_MODES)
def test_equal_rewards_give_exact_zero_advantages_at_any_group_size(mode):
    """The mean of G equal rewards is often an ulp off when G is not a power of two;
    such a group still carries no signal and gets exact (positive) zeros."""
    rng = np.random.default_rng(0)
    for g in (3, 5, 6, 7, 10, 12):
        rewards = np.repeat(rng.uniform(-1.0, 1.0, (500, 1)), g, axis=1)
        assert (rewards.mean(axis=1) != rewards[:, 0]).any()  # the residue is exercised
        adv = block_advantages(rewards, mode)
        assert np.array_equal(adv, np.zeros_like(adv)) and not np.signbit(adv).any()
    adv = block_advantages(np.full((1, 12), -0.7683883705841299), mode)
    assert np.array_equal(adv, np.zeros((1, 12)))


def test_advantage_shift_invariance_and_zero_mean():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.standard_normal(8)
        shifted = RewardVector(0, 1, r + rng.standard_normal())
        base = RewardVector(0, 1, r)
        for mode in ("std_normalized", "mean_only"):
            a = group_advantages(base, mode).values
            b = group_advantages(shifted, mode).values
            assert np.allclose(a, b, atol=1e-9)
            assert abs(a.mean()) < 1e-9


def test_advantages_need_two_rollouts():
    with pytest.raises(ValueError):
        group_advantages(RewardVector(0, 1, np.array([1.0])), "mean_only")


# ---------------------------------------------------------------- ratios


def test_ratios_identity_and_reciprocal():
    rng = np.random.default_rng(1)
    q, group, old, new = make_instance(rng, perturb=0.2)
    ones = ratios_of(q, group, old, old)
    assert np.allclose(ones, 1.0, atol=1e-12)
    fwd = ratios_of(q, group, old, new)
    back = ratios_of(q, group, new, old)
    assert np.all(fwd > 0)
    assert np.allclose(fwd * back, 1.0, atol=1e-9)


def test_ratios_move_with_a_logit_bump():
    rng = np.random.default_rng(2)
    q, group, old, _ = make_instance(rng, length=1)
    token = int(group.responses[0, 0])
    w = old.weights.copy()
    w[token, :] += 0.5 * np.concatenate([q.features, np.ones(1)])
    ratios = ratios_of(q, group, old, PolicyParams(w))
    same = group.responses[:, 0] == token
    assert np.all(ratios[same, 0] > 1.0)
    assert np.all(ratios[~same, 0] < 1.0)


# ---------------------------------------------------------------- loss + gradient


def base_config(**kw):
    defaults = dict(
        kl_beta=0.0, entropy_coef=0.0, advantage_mode="std_normalized",
        length_normalization=False,
    )
    defaults.update(kw)
    return dataclasses.replace(TrainerConfig(), **defaults)


def test_zero_advantages_leave_only_entropy_term():
    rng = np.random.default_rng(3)
    q, group, old, _ = make_instance(rng)
    cfg = base_config(entropy_coef=0.01)
    rewards = RewardVector(0, 1, np.ones(group.group_size))
    loss, grad = grpo_loss_and_grad(q, group, rewards, old, old, cfg)
    probs = step_probs(old, q.features, group.response_length)
    entropy = -(probs * np.log(probs)).sum(axis=1).mean()
    assert abs(loss - (-0.01 * entropy)) < 1e-12
    # The gradient is then the pure (negated) entropy gradient: nonzero.
    assert np.linalg.norm(grad) > 0


def test_loss_at_rollout_params_is_minus_advantage_sum():
    # With ratios at 1 the clip is inactive and every token contributes
    # its advantage: loss = -sum_j L * A_j / Z.
    rng = np.random.default_rng(4)
    for norm in (False, True):
        q, group, old, _ = make_instance(rng, g=8, length=3)
        rewards = binary_rewards(rng, 8)
        cfg = base_config(length_normalization=norm)
        loss, _ = grpo_loss_and_grad(q, group, rewards, old, old, cfg)
        adv = group_advantages(rewards, "std_normalized").values
        z = group.group_size * group.response_length if norm else 1.0
        expected = -group.response_length * adv.sum() / z
        assert abs(loss - expected) < 1e-9


@pytest.mark.parametrize("advantage_mode", ["std_normalized", "mean_only"])
@pytest.mark.parametrize("length_normalization", [False, True])
def test_gradient_matches_finite_differences(advantage_mode, length_normalization):
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 6:
        q, group, old, new = make_instance(rng, g=6, k=5, d=4, length=3, perturb=0.05)
        ratios = ratios_of(q, group, old, new)
        if near_clip_kink(ratios, 0.2):
            continue
        rewards = binary_rewards(rng, 6)
        cfg = base_config(
            advantage_mode=advantage_mode,
            length_normalization=length_normalization,
            entropy_coef=float(rng.choice([0.0, 0.01])),
            kl_beta=float(rng.choice([0.0, 0.1])),
        )
        ref = old if cfg.kl_beta > 0 else None

        def value(p):
            return grpo_loss_and_grad(q, group, rewards, old, p, cfg, ref)[0]

        _, grad = grpo_loss_and_grad(q, group, rewards, old, new, cfg, ref)
        assert rel_err(grad, fd_gradient(value, new)) < 1e-4
        checked += 1


def test_gradient_check_with_clipping_active():
    # Large perturbations push many ratios outside the band; the analytic
    # gradient must still match finite differences away from the kinks.
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 4:
        q, group, old, new = make_instance(rng, g=6, k=5, d=4, length=2, perturb=0.8)
        ratios = ratios_of(q, group, old, new)
        if near_clip_kink(ratios, 0.2, margin=5e-3):
            continue
        if not (np.any(ratios > 1.2) or np.any(ratios < 0.8)):
            continue
        rewards = binary_rewards(rng, 6)
        cfg = base_config()

        def value(p):
            return grpo_loss_and_grad(q, group, rewards, old, p, cfg)[0]

        _, grad = grpo_loss_and_grad(q, group, rewards, old, new, cfg)
        assert rel_err(grad, fd_gradient(value, new)) < 1e-4
        checked += 1


def test_surrogate_respects_clip_caps():
    # Reimplement the per-token surrogate and check the clip bounds on an
    # instance engineered to have extreme ratios.
    rng = np.random.default_rng(7)
    q, group, old, new = make_instance(rng, g=8, length=2, perturb=1.5)
    rewards = binary_rewards(rng, 8)
    eps = 0.2
    adv = group_advantages(rewards, "std_normalized").values
    ratios = ratios_of(q, group, old, new)
    surrogate = np.minimum(ratios * adv[:, None], np.clip(ratios, 1 - eps, 1 + eps) * adv[:, None])
    pos = adv > 0
    assert np.all(surrogate[pos, :] <= (1 + eps) * adv[pos, None] + 1e-12)
    assert np.all(surrogate[~pos, :] <= (1 - eps) * adv[~pos, None] + 1e-12)
    # And the loss is exactly the negated sum of that surrogate.
    loss, _ = grpo_loss_and_grad(q, group, rewards, old, new, base_config())
    assert abs(loss - (-surrogate.sum())) < 1e-9


@pytest.mark.parametrize(
    "sample_temperature, temperature",
    [
        pytest.param(1.0, 1.0, id="1.0"),
        pytest.param(0.7, 0.7, id="0.7"),
        pytest.param(1.0, 0.5, id="sampled-at-1.0-scored-at-0.5"),
    ],
)
def test_on_policy_reuse_matches_recompute_bit_for_bit(sample_temperature, temperature):
    # The result must not depend on whether old_params is params itself or an
    # equal copy, also when the group was sampled at another temperature than
    # the config scores it at.
    rng = np.random.default_rng(16)
    for kw in (
        {},
        dict(entropy_coef=0.01, kl_beta=0.1),
        dict(advantage_mode="mean_only", length_normalization=True, entropy_coef=0.01),
    ):
        cfg = base_config(rollout_temperature=temperature, **kw)
        q = Question(0, rng.standard_normal(4))
        old = PolicyParams(0.3 * rng.standard_normal((6, 7)))
        group = rollout_group(old, q, 3, 8, epoch=1, rng=rng, temperature=sample_temperature)
        ref = PolicyParams(0.3 * rng.standard_normal((6, 7)))
        rewards = binary_rewards(rng, 8)
        loss_reuse, grad_reuse = grpo_loss_and_grad(q, group, rewards, old, old, cfg, ref)
        copy = PolicyParams(old.weights.copy())
        loss_fresh, grad_fresh = grpo_loss_and_grad(q, group, rewards, copy, old, cfg, ref)
        assert loss_reuse == loss_fresh
        assert np.array_equal(grad_reuse, grad_fresh)


def test_kl_beta_requires_reference():
    rng = np.random.default_rng(8)
    q, group, old, _ = make_instance(rng)
    with pytest.raises(ValueError, match="reference"):
        grpo_loss_and_grad(q, group, binary_rewards(rng, 8), old, old, base_config(kl_beta=0.1))


# ---------------------------------------------------------------- preference form


def test_preference_weights_at_quarter_pass():
    rng = np.random.default_rng(9)
    q, group, old, _ = make_instance(rng, g=8, length=1)
    rewards = binary_rewards(rng, 8, n_ones=2)
    # At params = old_params every sequence ratio is 1 and nothing clips:
    # J = p+ * (#correct) - p- * (#incorrect) with p = 1/4.
    val = preference(q, group, rewards, old, old)[0]
    p_plus, p_minus = 1.73205, 0.57735
    assert abs(val - (p_plus * 2 - p_minus * 6)) < 1e-4


def test_preference_balanced_group_scores_zero_at_identity():
    rng = np.random.default_rng(10)
    q, group, old, _ = make_instance(rng, g=4, length=1)
    rewards = RewardVector(0, 1, np.array([1.0, 1.0, 0.0, 0.0]))
    assert abs(preference(q, group, rewards, old, old)[0]) < 1e-12


def test_preference_degenerate_groups_score_zero():
    rng = np.random.default_rng(11)
    q, group, old, new = make_instance(rng, g=4, perturb=0.1)
    for values in (np.zeros(4), np.ones(4)):
        rewards = RewardVector(0, 1, values)
        assert preference(q, group, rewards, old, new)[0] == 0.0
        assert np.array_equal(
            preference(q, group, rewards, old, new)[1], np.zeros_like(old.weights)
        )


def test_preference_rejects_non_binary_rewards():
    rng = np.random.default_rng(12)
    q, group, old, _ = make_instance(rng, g=4)
    with pytest.raises(ValueError, match="binary"):
        preference(q, group, RewardVector(0, 1, np.array([0.5, 1, 0, 0])), old, old)


def test_preference_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 5:
        q, group, old, new = make_instance(rng, g=6, length=2, perturb=0.15)
        rewards = binary_rewards(rng, 6)
        seq = ratios_of(q, group, old, new).prod(axis=1)
        if np.any(np.abs(seq - 1.2) < 1e-2) or np.any(np.abs(seq - 0.8) < 1e-2):
            continue

        def value(p):
            return preference(q, group, rewards, old, p)[0]

        grad = preference(q, group, rewards, old, new)[1]
        assert rel_err(grad, fd_gradient(value, new, h=1e-6)) < 1e-5
        checked += 1


def test_preference_equals_negated_surrogate_gradient_single_step():
    # With single-step responses, std advantages, no KL/entropy/length
    # normalization, and ratios inside the clip band, the two objectives
    # have identical gradients even away from the rollout parameters.
    rng = np.random.default_rng(14)
    cfg = base_config()
    checked = 0
    while checked < 30:
        g = int(rng.choice([4, 8, 16]))
        q, group, old, new = make_instance(rng, g=g, length=1, perturb=0.05)
        ratios = ratios_of(q, group, old, new)
        if np.any(ratios >= 1.2) or np.any(ratios <= 0.8):
            continue
        rewards = binary_rewards(rng, g)
        _, grad_loss = grpo_loss_and_grad(q, group, rewards, old, new, cfg)
        grad_pref = preference(q, group, rewards, old, new)[1]
        assert rel_err(-grad_loss, grad_pref) < 1e-8
        checked += 1


def test_preference_equivalence_at_rollout_params_any_length():
    # For longer responses the equivalence holds at the sampling
    # parameters themselves, where every token and sequence ratio is 1.
    rng = np.random.default_rng(15)
    cfg = base_config()
    for _ in range(10):
        g = int(rng.choice([4, 8, 16]))
        q, group, old, _ = make_instance(rng, g=g, length=4)
        rewards = binary_rewards(rng, g)
        _, grad_loss = grpo_loss_and_grad(q, group, rewards, old, old, cfg)
        grad_pref = preference(q, group, rewards, old, old)[1]
        assert rel_err(-grad_loss, grad_pref) < 1e-8


# ---------------------------------------------------------------- KL penalty


def kl_term(q, group, params, ref, beta):
    """The KL part of the loss: ``loss(kl_beta=beta) - loss(kl_beta=0)``, entropy off."""
    rewards = RewardVector(q.question_id, 1, np.arange(group.group_size) % 2.0)
    with_kl, _ = grpo_loss_and_grad(q, group, rewards, params, params, base_config(kl_beta=beta), ref)
    without, _ = grpo_loss_and_grad(q, group, rewards, params, params, base_config())
    return with_kl - without


def test_kl_zero_on_identical_params():
    rng = np.random.default_rng(16)
    q, group, old, _ = make_instance(rng)
    assert kl_term(q, group, old, PolicyParams(old.weights.copy()), 0.1) == 0.0


def test_kl_nonnegative_on_random_params():
    rng = np.random.default_rng(17)
    for _ in range(20):
        q, group, old, new = make_instance(rng, perturb=0.5)
        assert kl_term(q, group, old, new, 0.1) >= 0.0


def test_kl_onehot_vs_uniform_closed_form():
    # A near-one-hot policy against a uniform reference: mean-step KL -> log K.
    k, d, beta = 8, 3, 0.5
    q = Question(0, np.zeros(d))
    sharp = np.zeros((k, d + 1))
    sharp[0, d] = 40.0  # step-bias column drives token 0 to ~1
    uniform = np.zeros((k, d + 1))
    params = PolicyParams(sharp)
    group = rollout_group(params, q, 1, 8, epoch=1, rng=np.random.default_rng(18))
    val = kl_term(q, group, params, PolicyParams(uniform), beta)
    assert abs(val - beta * np.log(8)) < 1e-4
    assert abs(val / beta - 2.0794) < 1e-3


# ---------------------------------------------------------------------------
# the estimator's mean


def _expected_coefficient(mode, g, p):
    """The ``c`` of the exact mean gradient of one labeled group whose gold token has
    final-step probability ``p``.  ``mean_only``: ``(G - 1) p``.  ``std_normalized``: the
    binomial sum over the k hits of ``k A_hit(k) / (1 - p)``, where a hit's advantage is
    ``A_hit(k) = (1 - k/G) / sqrt(k/G (1 - k/G))`` and a group of equal rewards gets 0."""
    if mode == "mean_only":
        return (g - 1) * p
    c = 0.0
    for k in range(1, g):
        rate = k / g
        a_hit = (1.0 - rate) / math.sqrt(rate * (1.0 - rate))
        c += math.comb(g, k) * p**k * (1.0 - p) ** (g - k) * k * a_hit / (1.0 - p)
    return c


@pytest.mark.parametrize("tau", [1.0, 0.7])
@pytest.mark.parametrize(
    "mode, k, length, g",
    [("mean_only", 3, 1, 2), ("mean_only", 3, 2, 3),
     ("std_normalized", 3, 2, 3), ("std_normalized", 4, 1, 4)],
)
def test_grpo_block_gradient_is_unbiased_in_expectation(mode, k, length, g, tau):
    """Enumerate every rollout outcome of one labeled question: the probability-weighted
    sum of ``grpo_block`` gradients equals ``outer(-c (e_t - probs_L), z_L) / tau``, with
    nothing from the steps before L, whose tokens do not change the reward."""
    rng = np.random.default_rng([k, length, g])
    inputs = step_inputs(rng.standard_normal((1, 2)), length)
    params = PolicyParams(0.5 * rng.standard_normal((k, inputs.shape[-1])))
    config = TrainerConfig(advantage_mode=mode, entropy_coef=0.0, kl_beta=0.0, rollout_temperature=tau)
    probs = block_step_probs(params, inputs, tau)
    gold = 1

    mean = np.zeros_like(params.weights)
    for outcome in itertools.product(range(k), repeat=g * length):
        responses = np.array(outcome).reshape(1, g, length)
        weight = np.prod(probs[0, np.arange(length), responses[0]])
        rewards = (responses[:, :, -1] == gold).astype(float)
        grad = np.zeros_like(params.weights)
        grpo_block(inputs, responses, rewards, probs, probs, None, config, grad)
        mean += weight * grad

    p_final = probs[0, -1]
    c = _expected_coefficient(mode, g, p_final[gold])
    expected = np.outer(-c * (np.eye(k)[gold] - p_final), inputs[0, -1]) / tau
    np.testing.assert_allclose(mean, expected, rtol=0.0, atol=1e-14)
