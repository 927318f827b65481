"""Per-call cost of the training loop's block kernels, by block size.

Run from anywhere::

    python3 tools/block_costs.py --sizes 1 2 4 8 16 32 --repeats 7

On the default world (``default_v1()``, its initial policy and
``TrainerConfig()``) it times ``block_step_probs``, ``sample_block``,
``check_rollouts``, ``reward_block`` and ``grpo_block`` on blocks of B
questions, spaced evenly over the dataset so that labeled and unlabeled rows
mix.  Each kernel gets the inputs the training loop gives it: the block's
step inputs, its distributions, tokens sampled from them, their hits against
gold or the block's majority vote, and the rewards.  For each kernel it
prints one row: the median over repeats of the µs per call at each B, then
the fixed cost (µs per call) and the per-row cost (µs per question) of the
least-squares line through those medians.  BLAS runs on one thread, as in
``perfbench/run.py``.  Standard library and numpy only.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from trajrl.core import Dataset, TrainerConfig, check_rollouts  # noqa: E402
from trajrl.grpo import PolicyParams, block_step_probs, grpo_block  # noqa: E402
from trajrl.rewards import majority_votes, reward_block, verify_block  # noqa: E402
from trajrl.sim import default_v1, generate_world, init_policy, sample_block  # noqa: E402

KERNELS = ("block_step_probs", "sample_block", "check_rollouts", "reward_block", "grpo_block")


def block_calls(dataset: Dataset, params: PolicyParams, size: int) -> dict[str, object]:
    """One zero-argument call of each kernel on a block of ``size`` of ``dataset``'s questions."""
    config = TrainerConfig()
    n, n_labeled = len(dataset.questions), len(dataset.labeled)
    rows = np.arange(size) * n // size
    labeled = rows < n_labeled
    inputs = dataset.step_inputs[rows]
    tau = config.rollout_temperature
    probs = block_step_probs(params, inputs, tau)
    draws = np.random.default_rng(0).random((size, config.group_size, dataset.response_length))
    tokens = sample_block(probs, draws)
    gold = np.array([dataset.eval_answers[dataset.questions[r].question_id] for r in rows])
    targets = np.where(labeled, gold, majority_votes(tokens[:, :, -1])[0])
    hits = verify_block(tokens[:, :, -1], targets, dataset.num_tokens)
    rewards = reward_block(config.reward_kind, tokens, probs, hits, labeled)
    grad = np.zeros_like(params.weights)
    return {
        "block_step_probs": lambda: block_step_probs(params, inputs, tau),
        "sample_block": lambda: sample_block(probs, draws),
        "check_rollouts": lambda: check_rollouts(tokens, probs),
        "reward_block": lambda: reward_block(config.reward_kind, tokens, probs, hits, labeled),
        "grpo_block": lambda: grpo_block(inputs, tokens, rewards, probs, probs, None, config, grad),
    }


def costs(sizes: list[int], repeats: int, number: int) -> dict[str, list[float]]:
    """Each kernel's median µs per call at each block size, in ``sizes`` order."""
    world = default_v1()
    dataset = generate_world(world)
    params = init_policy(dataset, world).params
    table: dict[str, list[float]] = {name: [] for name in KERNELS}
    for size in sizes:
        calls = block_calls(dataset, params, size)
        for name in KERNELS:
            times = timeit.repeat(calls[name], number=number, repeat=repeats)
            table[name].append(1e6 * statistics.median(times) / number)
    return table


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32])
    parser.add_argument("--repeats", type=int, default=7, help="timings per size; the median is kept")
    parser.add_argument("--number", type=int, default=200, help="calls per timing")
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or min(args.repeats, args.number) < 1:
        parser.error("--sizes, --repeats and --number must be positive")
    table = costs(args.sizes, args.repeats, args.number)
    print(f"{'kernel':<18}" + "".join(f"{f'B={b}':>9}" for b in args.sizes)
          + f"{'fixed_us':>10}{'per_row_us':>12}")
    for name, micros in table.items():
        if len(set(args.sizes)) > 1:
            per_row, fixed = statistics.linear_regression(args.sizes, micros)
            fit = f"{fixed:>10.1f}{per_row:>12.2f}"
        else:
            fit = f"{'-':>10}{'-':>12}"
        print(f"{name:<18}" + "".join(f"{t:>9.1f}" for t in micros) + fit)


if __name__ == "__main__":
    main()
