"""Check the two hand-derived gradients against finite differences.

The trainer never calls an autodiff framework: both the clipped-surrogate
loss and the sequence-level preference objective ship with closed-form
gradients.  This script perturbs random parameter matrices and compares
each analytic gradient against a central finite difference, then checks
that the two objectives' gradients coincide in the single-step regime
where they describe the same update.
"""

import numpy as np

from trajrl import (
    Question,
    TrainerConfig,
    PolicyParams,
    RewardVector,
    grpo_loss_and_grad,
    preference_gradient,
    preference_objective,
    rollout_group,
)

K = 12          # answer tokens
D = 5           # feature dims
FD_STEP = 1e-6


def make_instance(rng, length):
    q = Question(question_id=0, features=rng.standard_normal(D))
    old = PolicyParams(0.3 * rng.standard_normal((K, D + length)))
    group = rollout_group(old, q, length, group_size=8, epoch=0, rng=rng)
    # parameters near (but not at) the rollout parameters
    new = PolicyParams(old.weights + 0.01 * rng.standard_normal(old.weights.shape))
    values = rng.integers(0, 2, size=8).astype(float)
    if values.min() == values.max():
        values = np.array([1.0] + [0.0] * 7)
    return q, group, old, new, RewardVector(0, 0, values)


def fd_grad(f, params):
    w = params.weights
    grad = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w)
        bump[idx] = FD_STEP
        grad[idx] = (f(PolicyParams(w + bump)) - f(PolicyParams(w - bump))) / (2 * FD_STEP)
    return grad


def main():
    rng = np.random.default_rng(2024)
    cfg = TrainerConfig(kl_beta=0.0, entropy_coef=0.01, advantage_mode="std_normalized")

    worst_loss = 0.0
    for trial in range(5):
        q, group, old, new, rewards = make_instance(rng, length=3)
        _, grad = grpo_loss_and_grad(q, group, rewards, old, new, cfg)
        fd = fd_grad(lambda p: grpo_loss_and_grad(q, group, rewards, old, p, cfg)[0], new)
        err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_loss = max(worst_loss, err)
    print(f"clipped-surrogate gradient vs finite differences: max rel err {worst_loss:.2e}")

    worst_pref = 0.0
    for trial in range(5):
        q, group, old, new, rewards = make_instance(rng, length=3)
        grad = preference_gradient(q, group, rewards, old, new)
        fd = fd_grad(lambda p: preference_objective(q, group, rewards, old, p), new)
        err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_pref = max(worst_pref, err)
    print(f"preference-objective gradient vs finite differences: max rel err {worst_pref:.2e}")

    # single-step responses, std-normalized advantages, no entropy bonus:
    # maximizing the preference objective IS minimizing the surrogate loss.
    plain = TrainerConfig(kl_beta=0.0, entropy_coef=0.0, advantage_mode="std_normalized")
    worst_gap = 0.0
    for trial in range(20):
        q, group, old, new, rewards = make_instance(rng, length=1)
        _, grad_loss = grpo_loss_and_grad(q, group, rewards, old, new, plain)
        grad_pref = preference_gradient(q, group, rewards, old, new)
        gap = np.max(np.abs(-grad_loss - grad_pref))
        worst_gap = max(worst_gap, gap)
    print(f"single-step identity  -grad(loss) == grad(preference):  max abs gap {worst_gap:.2e}")

    assert worst_loss < 1e-4 and worst_pref < 1e-4 and worst_gap < 1e-10
    print("all checks passed")


if __name__ == "__main__":
    main()
