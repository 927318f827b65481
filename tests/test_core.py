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
    shown,
    stream_keys,
)
from trajrl.sim import WorldConfig


# ---------------------------------------------------------------- TrainerConfig invariants


def test_default_config_accepted():
    TrainerConfig()


def test_top_p_zero_rejected_by_name():
    with pytest.raises(ConfigError, match="top_p"):
        TrainerConfig(top_p=0.0)


def test_warmup_equal_to_epochs_rejected_by_name():
    """The one cross-field invariant keeps its own message."""
    with pytest.raises(ConfigError) as refused:
        TrainerConfig(epochs=8, warmup_epochs=8)
    assert str(refused.value) == "warmup_epochs must satisfy 0 <= warmup_epochs < epochs, got 8 vs 8"


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
        ("kl_beta", float("inf")),
        ("entropy_coef", float("inf")),
        ("learning_rate", float("inf")),
        ("rollout_temperature", float("inf")),
        ("seed", 1.5),
        ("seed", True),
        ("group_size", 8.0),
        ("length_normalization", "no"),
        ("length_normalization", 1),
        ("matching_mode", None),
        ("top_p", 10**400),
    ],
)
def test_each_invariant_rejected(field, value):
    """Construction and dataclasses.replace both check, and each refusal of one field
    names it first and shows the value it refuses last."""
    with pytest.raises(ConfigError) as built:
        TrainerConfig(**{field: value})
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(TrainerConfig(), **{field: value})
    assert str(replaced.value) == str(built.value)
    assert str(built.value).startswith(f"{field} must ")
    assert str(built.value).endswith(f", got {shown(value)}")


# Each choice field's choices, in the order its refusal lists them.
CHOICES = {
    "advantage_mode": "('std_normalized', 'mean_only')",
    "matching_mode": "('mean', 'max')",
    "reward_kind": "('majority', 'self_certainty', 'token_entropy', 'sentence_entropy')",
    "paradigm": "('supervised', 'unsupervised', 'naive_semi', 'trapo')",
    "db_policy": "('additive', 'recompute')",
}


@pytest.mark.parametrize("field", list(CHOICES))
def test_a_choice_field_quotes_the_value_it_refuses(field):
    """A stray space makes a valid choice invalid; the refusal shows it after every choice."""
    with pytest.raises(ConfigError) as refused:
        TrainerConfig(**{field: " trapo"})
    assert str(refused.value) == f"{field} must be one of {CHOICES[field]}, got ' trapo'"


def test_a_world_field_of_the_wrong_type_is_refused_by_name():
    with pytest.raises(ConfigError, match="^n_labeled must be of type int, got 6.5$"):
        WorldConfig(n_labeled=6.5)


@pytest.mark.parametrize(
    "config, field",
    [
        (TrainerConfig, "seed"),
        (TrainerConfig, "epochs"),
        (TrainerConfig, "warmup_epochs"),
        (TrainerConfig, "group_size"),
        (TrainerConfig, "top_p"),
        (WorldConfig, "seed"),
        (WorldConfig, "cluster_spread"),
    ],
)
def test_an_int_too_long_for_str_is_refused_by_its_digit_count(config, field):
    """repr refuses an int beyond sys.get_int_max_str_digits() digits, so the
    refusal quotes its digit count instead."""
    with pytest.raises(ConfigError, match=f"^{field} .*, got an int of 5001 digits"):
        config(**{field: 10**5000})
    with pytest.raises(ConfigError, match=f"^{field} "):
        config(**{field: -(10**5000)})


def test_fields_are_stored_as_their_annotated_builtins():
    """A numpy scalar is stored as its item and an int in a float field as a float, so a
    config equals the one built from plain values and writes plain JSON."""
    config = TrainerConfig(seed=np.int64(1), gamma=1, top_p=np.float32(0.5),
                           matching_mode=np.str_("max"), length_normalization=np.bool_(True))
    assert config == TrainerConfig(seed=1, gamma=1.0, top_p=0.5, matching_mode="max", length_normalization=True)
    names = ("seed", "gamma", "top_p", "matching_mode", "length_normalization")
    assert [type(getattr(config, name)) for name in names] == [int, float, float, str, bool]
    world = WorldConfig(cluster_spread=0, seed=np.uint8(2))
    assert (type(world.cluster_spread), type(world.seed)) == (float, int)


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


@pytest.mark.parametrize(
    "seed, ids, epoch, field",
    [(0, [10**5000], 1, "question_id"), (10**5000, [1], 1, "seed"), (0, [1], 10**5000, "epoch")],
    ids=["question_id", "seed", "epoch"],
)
def test_stream_keys_quote_an_int_beyond_the_str_limit_by_digit_count(seed, ids, epoch, field):
    with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 2\*\*\d+\), got an int of 5001 digits$"):
        stream_keys(seed, ids, epoch)


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


@pytest.mark.parametrize(
    "question_id, quoted", [(10**5000, "an int of 5001 digits"), (2**48, "281474976710656")], ids=["10**5000", "2**48"]
)
def test_question_refuses_an_id_beyond_the_stream_key_range(question_id, quoted):
    """Checked before any message quotes the id, so a 5,001-digit id is refused by name too."""
    with pytest.raises(ValueError, match=rf"^question_id must lie in \[0, 2\*\*48\), got {quoted}$"):
        Question(question_id, np.zeros(3))


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
