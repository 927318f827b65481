"""Check the two hand-derived gradients against finite differences.

The trainer never calls an autodiff framework: both the clipped-surrogate
loss (``grpo_block``) and the sequence-level preference objective
(``preference_block``) ship with closed-form gradients.  This script
perturbs random parameter matrices and compares each analytic gradient
against a central finite difference, then checks that the two objectives'
gradients coincide in the single-step regime where they describe the same
update.  Each instance is a block of one group, as the training loop's
kernels see it.
"""

import numpy as np

from trajrl import PolicyParams, Question, TrainerConfig, preference_block
from trajrl.core import step_inputs
from trajrl.grpo import block_step_probs, grpo_block
from trajrl.sim import sample_block

K = 12          # answer tokens
D = 5           # feature dims
G = 8           # rollouts per group
FD_STEP = 1e-6


def make_instance(rng, length):
    """One group as block arrays (inputs, responses, rewards, rollout probs), and the params."""
    q = Question(question_id=0, features=rng.standard_normal(D))
    old = PolicyParams(0.3 * rng.standard_normal((K, D + length)))
    inputs = step_inputs(q.features[None], length)
    probs_old = block_step_probs(old, inputs)
    responses = sample_block(probs_old, rng.random((1, G, length)))
    # parameters near (but not at) the rollout parameters
    new = PolicyParams(old.weights + 0.01 * rng.standard_normal(old.weights.shape))
    values = rng.integers(0, 2, size=G).astype(float)
    if values.min() == values.max():
        values = np.array([1.0] + [0.0] * (G - 1))
    return (inputs, responses, values[None], probs_old), new


def loss_and_grad(block, params, cfg):
    inputs, responses, rewards, probs_old = block
    grad = np.zeros_like(params.weights)
    probs = block_step_probs(params, inputs)
    losses = grpo_block(inputs, responses, rewards, probs, probs_old, None, cfg, grad)
    return float(losses[0]), grad


def preference(block, params):
    inputs, responses, rewards, probs_old = block
    probs = block_step_probs(params, inputs)
    values, grad = preference_block(inputs, responses, rewards, probs, probs_old)
    return float(values[0]), grad


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
        block, new = make_instance(rng, length=3)
        _, grad = loss_and_grad(block, new, cfg)
        fd = fd_grad(lambda p: loss_and_grad(block, p, cfg)[0], new)
        err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_loss = max(worst_loss, err)
    print(f"clipped-surrogate gradient vs finite differences: max rel err {worst_loss:.2e}")

    worst_pref = 0.0
    for trial in range(5):
        block, new = make_instance(rng, length=3)
        _, grad = preference(block, new)
        fd = fd_grad(lambda p: preference(block, p)[0], new)
        err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_pref = max(worst_pref, err)
    print(f"preference-objective gradient vs finite differences: max rel err {worst_pref:.2e}")

    # single-step responses, std-normalized advantages, no entropy bonus:
    # maximizing the preference objective IS minimizing the surrogate loss.
    plain = TrainerConfig(kl_beta=0.0, entropy_coef=0.0, advantage_mode="std_normalized")
    worst_gap = 0.0
    for trial in range(20):
        block, new = make_instance(rng, length=1)
        _, grad_loss = loss_and_grad(block, new, plain)
        _, grad_pref = preference(block, new)
        gap = np.max(np.abs(-grad_loss - grad_pref))
        worst_gap = max(worst_gap, gap)
    print(f"single-step identity  -grad(loss) == grad(preference):  max abs gap {worst_gap:.2e}")

    assert worst_loss < 1e-4 and worst_pref < 1e-4 and worst_gap < 1e-10
    print("all checks passed")


if __name__ == "__main__":
    main()
