"""Config validation, RNG stream independence, and domain-type invariants."""

import dataclasses

import numpy as np
import pytest

from trajrl.core import (
    ConfigError,
    Dataset,
    Question,
    RolloutGroup,
    TrainerConfig,
    rng_stream,
)


# ---------------------------------------------------------------- TrainerConfig invariants


def test_default_config_accepted():
    TrainerConfig()


def test_top_p_zero_rejected_by_name():
    with pytest.raises(ConfigError, match="top_p"):
        TrainerConfig(top_p=0.0)


def test_warmup_equal_to_epochs_rejected_by_name():
    with pytest.raises(ConfigError, match="warmup_epochs"):
        TrainerConfig(epochs=8, warmup_epochs=8)


@pytest.mark.parametrize(
    "field,value",
    [
        ("epochs", 0),
        ("top_p", 1.5),
        ("gamma", -0.1),
        ("gamma", 1.2),
        ("group_size", 1),
        ("kl_beta", -0.5),
        ("entropy_coef", -1e-9),
        ("learning_rate", 0.0),
        ("rollout_temperature", 0.0),
        ("advantage_mode", "zscore"),
        ("matching_mode", "median"),
        ("reward_kind", "bleu"),
        ("paradigm", "semi"),
        ("db_policy", "replace"),
        ("seed", -1),
        ("seed", 2**64),
        ("epochs", 65536),
        ("kl_beta", float("nan")),
        ("entropy_coef", float("nan")),
        ("learning_rate", float("nan")),
        ("rollout_temperature", float("nan")),
        ("top_p", float("nan")),
        ("gamma", float("nan")),
    ],
)
def test_each_invariant_rejected(field, value):
    # Construction and dataclasses.replace (the --seed and sweep route) both check.
    with pytest.raises(ConfigError, match=field) as built:
        TrainerConfig(**{field: value})
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(TrainerConfig(), **{field: value})
    assert str(replaced.value) == str(built.value)


def test_boundary_values_accepted():
    # top_p = 1, gamma in {0, 1}, warmup 0 are all legal extremes.
    TrainerConfig(top_p=1.0, gamma=0.0, warmup_epochs=0)
    TrainerConfig(gamma=1.0)
    TrainerConfig(kl_beta=0.0, entropy_coef=0.0)
    TrainerConfig(seed=2**64 - 1, epochs=65535)


# ---------------------------------------------------------------- rng_stream


def test_same_triple_replays_identically():
    a = rng_stream(0, 5, 3).random(100)
    b = rng_stream(0, 5, 3).random(100)
    assert np.array_equal(a, b)


def test_epoch_changes_the_stream():
    a = rng_stream(0, 5, 3).random(100)
    b = rng_stream(0, 5, 4).random(100)
    assert not np.array_equal(a, b)


def test_seed_changes_the_stream():
    a = rng_stream(0, 5, 3).random(100)
    b = rng_stream(1, 5, 3).random(100)
    assert not np.array_equal(a, b)


def test_question_changes_the_stream():
    a = rng_stream(0, 5, 3).random(100)
    b = rng_stream(0, 6, 3).random(100)
    assert not np.array_equal(a, b)


def test_nearby_triples_are_pairwise_distinct():
    # A small neighbourhood of triples must not collide; collisions here
    # would silently correlate rollouts across questions or epochs.
    seen = {}
    for seed in range(3):
        for qid in range(4):
            for epoch in range(4):
                draw = tuple(rng_stream(seed, qid, epoch).random(4).tolist())
                assert draw not in seen, (seed, qid, epoch, seen[draw])
                seen[draw] = (seed, qid, epoch)


def test_negative_ids_rejected():
    with pytest.raises(ValueError):
        rng_stream(0, -1, 0)
    with pytest.raises(ValueError):
        rng_stream(0, 0, -1)


@pytest.mark.parametrize(
    "seed,qid,epoch,field",
    [
        (-1, 5, 1, "seed"),  # used to alias seed 2**64 - 1
        (2**64, 5, 1, "seed"),  # used to alias seed 0
        (0, 2**48, 1, "question_id"),  # used to overflow the shift
        (0, 5, 65536, "epoch"),
        (0, 5, 65537, "epoch"),  # used to replay epoch 1
    ],
)
def test_out_of_range_stream_fields_rejected(seed, qid, epoch, field):
    with pytest.raises(ValueError, match=field):
        rng_stream(seed, qid, epoch)


def test_in_range_stream_keys_are_unchanged():
    # The key is (seed, question_id << 16 ^ epoch); range checks must not re-key.
    for seed, qid, epoch in ((0, 5, 1), (7, 3, 9), (2**64 - 1, 2**48 - 1, 65535)):
        key = np.array([seed, (qid << 16) ^ epoch], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(8)
        assert np.array_equal(rng_stream(seed, qid, epoch).random(8), want)


# ---------------------------------------------------------------- Question / Dataset


def _q(qid, dim=3, **kw):
    return Question(qid, np.zeros(dim), **kw)


def test_question_rejects_bad_features():
    with pytest.raises(ValueError):
        Question(0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Question(0, np.array([1.0, np.nan]))


def test_question_rejects_bias_equal_to_gold():
    with pytest.raises(ValueError):
        Question(0, np.zeros(3), gold_answer=2, bias_target=2)


def test_question_rejects_bad_tags_and_ids():
    with pytest.raises(ValueError):
        Question(-1, np.zeros(3))
    with pytest.raises(ValueError):
        Question(0, np.zeros(3), domain_tag="near")


def test_dataset_unlabeled_cannot_expose_gold():
    labeled = (_q(0, gold_answer=1),)
    with pytest.raises(ValueError, match="must not expose"):
        Dataset(labeled, (_q(1, gold_answer=0),), 3, 4, 2)


def test_dataset_labeled_requires_gold():
    with pytest.raises(ValueError, match="missing a gold"):
        Dataset((_q(0),), (), 3, 4, 2)


def test_dataset_rejects_duplicate_ids_and_bad_dims():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset((_q(0, gold_answer=1),), (_q(0),), 3, 4, 2)
    with pytest.raises(ValueError, match="features"):
        Dataset((_q(0, dim=5, gold_answer=1),), (), 3, 4, 2)


def test_dataset_rejects_out_of_range_tokens():
    with pytest.raises(ValueError, match="question 0: gold answer out of range"):
        Dataset((_q(0, gold_answer=4),), (), 3, 4, 2)
    with pytest.raises(ValueError, match="question 1: bias target out of range"):
        Dataset((_q(0, gold_answer=1),), (_q(1, bias_target=9),), 3, 4, 2)
    with pytest.raises(ValueError, match="question 0: bias target out of range"):
        Dataset((_q(0, gold_answer=1, bias_target=4),), (), 3, 4, 2)


def test_dataset_requires_a_clusters_entry_for_each_biased_question():
    """``init_policy`` reads a biased question's cluster to find its marker column;
    without an entry it died with ``KeyError: 1``."""
    with pytest.raises(ValueError, match="question 1: a biased question needs a clusters entry"):
        Dataset((_q(0, gold_answer=1),), (_q(1, bias_target=2),), 3, 4, 2, clusters={0: 0})
    Dataset((_q(0, gold_answer=1),), (_q(1, bias_target=2),), 3, 4, 2, clusters={1: 0})


EVAL_CASES = {
    # Labeled 0 (gold 1) and 1 (gold 2), unlabeled 5; K = 4.
    "missing_unlabeled": ({0: 1, 1: 2}, "question 5: eval_answers has no answer"),
    "missing_labeled": ({1: 2, 5: 3}, "question 0: eval_answers has no answer"),
    "unknown_question": ({0: 1, 1: 2, 5: 3, 9: 0}, "unknown question 9"),
    "labeled_differs_from_gold": ({0: 3, 1: 2, 5: 3}, "question 0: eval answer differs from gold"),
    "token_out_of_range": ({0: 1, 1: 2, 5: 99}, "question 5: eval answer out of range"),
    "negative_token": ({0: 1, 1: 2, 5: -1}, "question 5: eval answer out of range"),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_dataset_rejects_eval_answers_that_contradict_it(case):
    """A non-empty mapping holds exactly the question ids, tokens in [0, K), and
    the gold answer of each labeled question.  Before, a missing id died later
    with ``KeyError`` and a wrong or out-of-range answer trained and was scored."""
    answers, message = EVAL_CASES[case]
    with pytest.raises(ValueError, match=message):
        Dataset((_q(0, gold_answer=1), _q(1, gold_answer=2)), (_q(5),), 3, 4, 2, answers)
    Dataset((_q(0, gold_answer=1), _q(1, gold_answer=2)), (_q(5),), 3, 4, 2, {0: 1, 1: 2, 5: 3})


def test_dataset_accessors():
    ds = Dataset((_q(0, gold_answer=1), _q(1, gold_answer=2)), (_q(5),), 3, 4, 2)
    assert ds.labeled_ids == (0, 1)
    assert ds.unlabeled_ids == (5,)
    assert ds.question(5).question_id == 5
    with pytest.raises(KeyError):
        ds.question(99)


# ---------------------------------------------------------------- RolloutGroup


def _group(responses, k=4):
    responses = np.asarray(responses)
    length = responses.shape[1]
    dists = np.full((length, k), 1.0 / k)
    return RolloutGroup(0, 1, responses, dists)


def test_rollout_group_shape_checks():
    g = _group([[0, 1], [2, 3]])
    assert g.group_size == 2
    assert g.response_length == 2
    assert g.num_tokens == 4
    assert g.answers.tolist() == [1, 3]  # the final token of each response


def test_rollout_group_rejects_unnormalized_distributions():
    responses = np.array([[0, 1]])
    dists = np.full((2, 4), 0.3)
    with pytest.raises(ValueError, match="sum to 1"):
        RolloutGroup(0, 1, responses, dists)


def test_rollout_group_normalization_tolerance_is_absolute_1e9():
    responses = np.array([[0, 1], [2, 3]])
    dists = np.full((2, 4), 0.25)
    dists[1, 0] += 5e-6  # step 1 sums to 1 + 5e-6: inside numpy's default rtol
    with pytest.raises(ValueError, match="sum to 1 within 1e-9"):
        RolloutGroup(0, 1, responses, dists)
    dists[1, 0] = 0.25 + 5e-10
    assert RolloutGroup(0, 1, responses, dists).num_tokens == 4


def test_rollout_group_stores_one_distribution_per_step():
    responses = np.array([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match=r"shape \(L, K\)"):
        RolloutGroup(0, 1, responses, np.full((2, 2, 4), 0.25))
    with pytest.raises(ValueError, match=r"shape \(L, K\)"):
        RolloutGroup(0, 1, responses, np.full((3, 4), 0.25))


def test_rollout_group_rejects_out_of_range_tokens():
    with pytest.raises(ValueError, match="out of range"):
        _group([[0, 7]], k=4)
