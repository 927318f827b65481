"""Tour of the simulator's bottom layer: worlds, rollouts, and rewards.

Generates a small world, samples a few rollout groups from the initial
policy, and walks through what the reward layer sees: exact-match checks
for labeled questions, majority votes for unlabeled ones, and the
pass-rate summaries that later feed the trajectory matcher.

Run with:  python demos/01_rewards_and_rollouts.py
"""

import numpy as np

from trajrl import (
    WorldConfig,
    generate_world,
    hybrid_reward,
    init_policy,
    majority_vote,
    pass_rate,
    rng_stream,
    rollout_group,
    verify_block,
)

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
    rng = rng_stream(WORLD.seed, q.question_id, epoch=1)
    group = rollout_group(policy.params, q, dataset.response_length, GROUP_SIZE, epoch=1, rng=rng)
    print(f"labeled question {q.question_id} (gold answer = {q.gold_answer})")
    print(f"  sampled answers: {group.answers.tolist()}")
    checks = verify_block(group.answers[None], np.array([q.gold_answer]))[0].tolist()
    print(f"  verifier output: {checks}")
    print(f"  pass rate vs gold: {pass_rate(group, q.gold_answer):.3f}")
    print()

    # An ordinary unlabeled question: no gold to check, so the group votes.
    q = next(q for q in dataset.unlabeled if q.bias_target is None and q.domain_tag == "ID")
    rng = rng_stream(WORLD.seed, q.question_id, epoch=1)
    group = rollout_group(policy.params, q, dataset.response_length, GROUP_SIZE, epoch=1, rng=rng)
    winner, confidence, tie = majority_vote(group.answers)
    print(f"unlabeled question {q.question_id} (no gold visible to training code)")
    print(f"  sampled answers: {group.answers.tolist()}")
    print(f"  majority vote: answer {winner} with confidence {confidence:.3f}" + ("  (tie!)" if tie else ""))
    print(f"  pass rate vs the vote itself: {pass_rate(group, winner):.3f}")
    truth = dataset.eval_answers[q.question_id]
    print(f"  (evaluation-only peek: the true answer is {truth}; the vote is "
          + ("right)" if winner == truth else "wrong)"))
    print()

    # A biased question: the initial policy was nudged toward a wrong answer,
    # so its very first consensus is confidently off target.
    biased = next(q for q in dataset.unlabeled if q.bias_target is not None)
    rng = rng_stream(WORLD.seed, biased.question_id, epoch=1)
    group = rollout_group(policy.params, biased, dataset.response_length, GROUP_SIZE, epoch=1, rng=rng)
    winner, confidence, _ = majority_vote(group.answers)
    print(f"biased question {biased.question_id} (planted wrong answer = {biased.bias_target})")
    print(f"  sampled answers: {group.answers.tolist()}")
    print(f"  majority vote: {winner} at confidence {confidence:.3f}")
    print(f"  true answer: {dataset.eval_answers[biased.question_id]}")
    print()

    # hybrid_reward routes per question: gold check when gold exists,
    # majority agreement otherwise.
    rewards = hybrid_reward(biased, group, kind="majority")
    print(f"  hybrid rewards for the biased group: {rewards.values.tolist()}")
    print(f"  mean reward {float(np.mean(rewards.values)):.3f} -- high, because the group agrees with itself.")
    print()
    print("a confidently wrong consensus looks exactly like a confidently right one")
    print("from the inside; separating the two is the selection layer's job (demo 03).")


if __name__ == "__main__":
    main()
