"""Reward oracles: hand-counted votes, closed-form proxies, hybrid dispatch."""

import numpy as np
import pytest

from trajrl.core import Question, RolloutGroup
from trajrl.grpo import group_advantages
from trajrl.rewards import (
    RewardVector,
    hybrid_reward,
    majority_vote,
    verify_block,
)


def make_group(responses, dists=None, k=4, qid=0, epoch=1):
    responses = np.asarray(responses)
    length = responses.shape[1]
    if dists is None:
        dists = np.full((length, k), 1.0 / k)
    return RolloutGroup(qid, epoch, responses, np.asarray(dists, float))


def group_from_answers(answers, k=4, **kw):
    """Single-step group whose final (only) tokens are the given answers."""
    return make_group(np.asarray(answers).reshape(-1, 1), k=k, **kw)


def proxy_reward(kind, group):
    """The ``kind`` proxy reward: ``hybrid_reward`` of an unlabeled question."""
    return hybrid_reward(Question(group.question_id, np.zeros(3)), group, kind)


# ---------------------------------------------------------------- verify


def test_verify_basic():
    answers = np.array([[3, 2], [2, 2], [0, 1]])
    gold = np.array([3, 3, 0])
    assert verify_block(answers, gold).tolist() == [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_verify_range_checks():
    with pytest.raises(ValueError):
        verify_block(np.array([[-1]]), np.array([0]))
    with pytest.raises(ValueError):
        verify_block(np.array([[4]]), np.array([1]), num_tokens=4)
    with pytest.raises(ValueError):
        verify_block(np.array([[1]]), np.array([9]), num_tokens=4)


# ---------------------------------------------------------------- majority_vote


def test_majority_vote_hand_count():
    # 5 zeros out of 8 -> confidence 5/8, no tie.
    label, conf, tie = majority_vote(np.array([0, 0, 1, 0, 2, 0, 1, 0]))
    assert (label, conf, tie) == (0, 0.625, False)


def test_majority_vote_unanimous():
    assert majority_vote(np.array([1, 1, 1, 1])) == (1, 1.0, False)


def test_majority_vote_tie_breaks_to_smallest():
    assert majority_vote(np.array([0, 0, 1, 1])) == (0, 0.5, True)
    assert majority_vote(np.array([3, 2])) == (2, 0.5, True)


def test_majority_vote_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        majority_vote(np.array([], dtype=int))
    with pytest.raises(ValueError):
        majority_vote(np.array([0, -1]))


def test_majority_vote_brute_force_agreement():
    # Oracle: explicit max over counts with smallest-index tie-break.
    rng = np.random.default_rng(7)
    for _ in range(300):
        answers = rng.integers(0, 5, size=rng.integers(1, 12))
        label, conf, tie = majority_vote(answers)
        counts = {int(t): int((answers == t).sum()) for t in set(answers.tolist())}
        best = max(counts.values())
        winners = sorted(t for t, c in counts.items() if c == best)
        assert label == winners[0]
        assert conf == best / answers.size
        assert tie == (len(winners) > 1)


# ---------------------------------------------------------------- proxy_reward


def test_majority_proxy_values_match_vote():
    group = group_from_answers([0, 0, 1, 0, 2, 0, 1, 0])
    rv = proxy_reward("majority", group)
    assert rv.pseudo_label == 0
    assert rv.confidence == 0.625
    assert not rv.tie_flag
    assert np.array_equal(rv.values, [1, 1, 0, 1, 0, 1, 0, 1])
    # Confidence is by definition the mean of the agreement indicators.
    assert rv.confidence == rv.values.mean()


def test_self_certainty_zero_under_uniform_policy():
    group = make_group([[0, 1], [2, 3], [1, 1]], k=4)
    rv = proxy_reward("self_certainty", group)
    assert np.allclose(rv.values, 0.0, atol=1e-12)
    assert rv.pseudo_label is None and rv.confidence is None


def test_token_entropy_zero_under_onehot_policy():
    k, length = 4, 2
    responses = np.array([[1, 2], [1, 2]])
    dists = np.zeros((length, k))
    dists[0, 1] = 1.0
    dists[1, 2] = 1.0
    rv = proxy_reward("token_entropy", make_group(responses, dists, k=k))
    assert np.allclose(rv.values, 0.0, atol=1e-12)


def test_sentence_entropy_is_sequence_log_probability():
    k = 4
    dists = np.tile(np.array([0.4, 0.3, 0.2, 0.1]), (2, 1))
    group = make_group([[0, 1], [2, 3]], dists, k=k)
    rv = proxy_reward("sentence_entropy", group)
    expected = [np.log(0.4) + np.log(0.3), np.log(0.2) + np.log(0.1)]
    assert np.allclose(rv.values, expected, atol=1e-12)


def test_self_certainty_affine_in_sentence_entropy():
    # self_certainty = sentence_entropy / L + log K for every rollout.
    rng = np.random.default_rng(3)
    k, length = 5, 3
    dists = rng.dirichlet(np.ones(k), size=(length,))
    responses = rng.integers(0, k, size=(4, length))
    group = make_group(responses, dists, k=k)
    sc = proxy_reward("self_certainty", group).values
    se = proxy_reward("sentence_entropy", group).values
    assert np.allclose(sc, se / length + np.log(k), atol=1e-12)


def test_certainty_and_sentence_entropy_share_advantages_at_length_one():
    # At L = 1 the two proxies differ by the constant log K, so their
    # group advantages coincide in both modes.
    rng = np.random.default_rng(11)
    k = 6
    dists = rng.dirichlet(np.ones(k), size=(1,))
    responses = rng.integers(0, k, size=(8, 1))
    group = make_group(responses, dists, k=k)
    sc = proxy_reward("self_certainty", group)
    se = proxy_reward("sentence_entropy", group)
    for mode in ("mean_only", "std_normalized"):
        a = group_advantages(sc, mode).values
        b = group_advantages(se, mode).values
        assert np.allclose(a, b, atol=1e-9)


def test_unknown_proxy_kind():
    with pytest.raises(ValueError, match="unknown proxy"):
        proxy_reward("bleu", group_from_answers([0, 1]))


def test_proxy_rejects_corrupt_zero_probability_rollout():
    dists = np.zeros((1, 4))
    dists[0, 0] = 1.0
    group = RolloutGroup(0, 1, np.array([[1]]), dists)
    with pytest.raises(ValueError, match="zero recorded probability"):
        proxy_reward("self_certainty", group)


# ---------------------------------------------------------------- hybrid_reward


def _labeled(gold, k=4):
    return Question(0, np.zeros(3), gold_answer=gold)


def test_hybrid_labeled_verifies_each_rollout():
    rv = hybrid_reward(_labeled(2), group_from_answers([2, 1, 2, 2]), "majority")
    assert np.array_equal(rv.values, [1, 0, 1, 1])
    assert rv.pseudo_label is None


def test_hybrid_unlabeled_uses_proxy():
    rv = hybrid_reward(Question(0, np.zeros(3)), group_from_answers([1, 1, 0, 1]), "majority")
    assert np.array_equal(rv.values, [1, 1, 0, 1])
    assert rv.pseudo_label == 1


def test_hybrid_unanimous_wrong_scores_zero():
    # Ground truth overrides consensus: a labeled question with a wrong
    # unanimous group earns nothing.
    rv = hybrid_reward(_labeled(3), group_from_answers([1, 1, 1, 1]), "majority")
    assert np.array_equal(rv.values, [0, 0, 0, 0])


def test_hybrid_id_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hybrid_reward(Question(3, np.zeros(3)), group_from_answers([0, 1], qid=0), "majority")


def test_anchoring_labeled_reward_ignores_other_rollouts():
    # Permuting or rewriting the rest of the group must not change a
    # labeled rollout's reward; only (answer_j, gold) matters.
    gold = 2
    base = hybrid_reward(_labeled(gold), group_from_answers([2, 1, 0, 2, 3, 2]), "majority")
    altered = hybrid_reward(_labeled(gold), group_from_answers([2, 3, 3, 2, 3, 2]), "majority")
    # Rollouts 0, 3, 5 kept their answers; their rewards are untouched.
    for j in (0, 3, 5):
        assert base.values[j] == altered.values[j] == 1.0


def test_reward_vector_invariants():
    with pytest.raises(ValueError):
        RewardVector(0, 1, np.array([[1.0]]))
    with pytest.raises(ValueError):
        RewardVector(0, 1, np.array([np.inf]))
    with pytest.raises(ValueError):
        RewardVector(0, 1, np.array([1.0]), pseudo_label=2, confidence=None)
    with pytest.raises(ValueError):
        RewardVector(0, 1, np.array([1.0]), pseudo_label=2, confidence=1.5)
