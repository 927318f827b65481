"""Tour of the simulator's bottom layer: worlds, rollouts, and rewards.

Generates a small world, samples a few rollout groups from the initial
policy, and walks through what the reward layer sees: exact-match checks
for labeled questions, majority votes for unlabeled ones, and the
pass-rate summaries that later feed the trajectory matcher.  Every step
uses the block kernels the training loop runs, on a block of one question.

Run with:  python demos/01_rewards_and_rollouts.py
"""

import numpy as np

from trajrl import WorldConfig, generate_world, init_policy, rng_stream, verify_block
from trajrl.core import step_inputs
from trajrl.grpo import block_step_probs
from trajrl.rewards import majority_votes, reward_block
from trajrl.sim import sample_block

WORLD = WorldConfig(
    n_labeled=8,
    n_unlabeled=16,
    num_features=8,
    num_tokens=32,
    response_length=3,
    n_clusters=4,
    bias_fraction=0.25,
    ood_fraction=0.25,
    seed=11,
)
GROUP_SIZE = 8


def sample(policy, q, response_length):
    """One group of rollouts of ``q`` from its epoch-1 stream: (1, G, L) tokens, (1, L, K) dists."""
    dists = block_step_probs(policy.params, step_inputs(q.features[None], response_length))
    draws = rng_stream(WORLD.seed, q.question_id, epoch=1).random((1, GROUP_SIZE, response_length))
    return sample_block(dists, draws), dists


def main() -> None:
    dataset = generate_world(WORLD)
    policy = init_policy(dataset, WORLD)

    print(f"world: {len(dataset.labeled)} labeled + {len(dataset.unlabeled)} unlabeled questions")
    print(f"       {dataset.num_tokens} answer tokens, responses of length {dataset.response_length}")
    n_biased = sum(q.bias_target is not None for q in dataset.unlabeled)
    n_ood = sum(q.domain_tag == "OOD" for q in dataset.unlabeled)
    print(f"       {n_biased} unlabeled questions carry a planted wrong consensus, {n_ood} are domain-shifted")
    print()

    # A labeled question: the verifier compares each sampled answer to gold.
    q = dataset.labeled[0]
    answers = sample(policy, q, dataset.response_length)[0][:, :, -1]
    print(f"labeled question {q.question_id} (gold answer = {q.gold_answer})")
    print(f"  sampled answers: {answers[0].tolist()}")
    checks = verify_block(answers, np.array([q.gold_answer]))
    print(f"  verifier output: {checks[0].tolist()}")
    print(f"  pass rate vs gold: {checks.mean():.3f}")
    print()

    # An ordinary unlabeled question: no gold to check, so the group votes.
    q = next(q for q in dataset.unlabeled if q.bias_target is None and q.domain_tag == "ID")
    answers = sample(policy, q, dataset.response_length)[0][:, :, -1]
    winners, confidences, ties = majority_votes(answers)
    winner = int(winners[0])
    print(f"unlabeled question {q.question_id} (no gold visible to training code)")
    print(f"  sampled answers: {answers[0].tolist()}")
    print(f"  majority vote: answer {winner} with confidence {confidences[0]:.3f}"
          + ("  (tie!)" if ties[0] else ""))
    print(f"  pass rate vs the vote itself: {verify_block(answers, winners).mean():.3f}")
    truth = dataset.eval_answers[q.question_id]
    print(f"  (evaluation-only peek: the true answer is {truth}; the vote is "
          + ("right)" if winner == truth else "wrong)"))
    print()

    # A biased question: the initial policy was nudged toward a wrong answer,
    # so its very first consensus is confidently off target.
    biased = next(q for q in dataset.unlabeled if q.bias_target is not None)
    responses, dists = sample(policy, biased, dataset.response_length)
    answers = responses[:, :, -1]
    winners, confidences, _ = majority_votes(answers)
    print(f"biased question {biased.question_id} (planted wrong answer = {biased.bias_target})")
    print(f"  sampled answers: {answers[0].tolist()}")
    print(f"  majority vote: {int(winners[0])} at confidence {confidences[0]:.3f}")
    print(f"  true answer: {dataset.eval_answers[biased.question_id]}")
    print()

    # reward_block routes per row: gold check on a labeled row, majority
    # agreement (hits against the vote winner) on an unlabeled one.
    hits = verify_block(answers, winners)
    rewards = reward_block("majority", responses, dists, hits, labeled=np.array([False]))[0]
    print(f"  hybrid rewards for the biased group: {rewards.tolist()}")
    print(f"  mean reward {rewards.mean():.3f} -- high, because the group agrees with itself.")
    print()
    print("a confidently wrong consensus looks exactly like a confidently right one")
    print("from the inside; separating the two is the selection layer's job (demo 03).")


if __name__ == "__main__":
    main()
