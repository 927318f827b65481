"""Tests for the synthetic world generator and the toy rollout policy.

The world generator makes hard promises (exact split sizes, shared cluster
golds, marker placement, deterministic regeneration) that downstream modules
lean on, so most tests here assert exact structure.  The two slow tests at
the bottom check emergent behavior: cluster-local transfer from labeled
questions to unlabeled neighbors, and the verified confidently-wrong start
of biased questions.
"""

import dataclasses

import numpy as np
import pytest
import world_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajrl.core import (
    ConfigError,
    Dataset,
    DOMAIN_ID,
    DOMAIN_OOD,
    Question,
    TrainerConfig,
    rng_stream,
)
from trajrl.grpo import PolicyParams, step_probs
from trajrl.harness import TrainState, greedy_accuracy, run, train_epoch
from trajrl.rewards import majority_vote
from trajrl.sim import (
    BiasVerificationError,
    WorldConfig,
    default_v1,
    generate_world,
    greedy_answer,
    init_policy,
    rollout_group,
)
from trajrl.trajectory import ReliableDatabase, TrajectoryStore


SMALL = WorldConfig(
    n_labeled=12,
    n_unlabeled=24,
    num_features=8,
    num_tokens=16,
    response_length=3,
    n_clusters=4,
    bias_fraction=0.25,
    ood_fraction=0.25,
    seed=7,
)


# ---------------------------------------------------------------------------
# generate_world: structure


def test_generate_world_deterministic():
    a = generate_world(SMALL)
    b = generate_world(SMALL)
    for qa, qb in zip(a.questions, b.questions):
        assert qa.question_id == qb.question_id
        assert np.array_equal(qa.features, qb.features)
        assert qa.gold_answer == qb.gold_answer
        assert qa.domain_tag == qb.domain_tag
        assert qa.bias_target == qb.bias_target
    assert a.eval_answers == b.eval_answers
    assert a.clusters == b.clusters


def test_generate_world_seed_changes_features():
    a = generate_world(SMALL)
    c = generate_world(WorldConfig(**{**SMALL.__dict__, "seed": 8}))
    assert not np.array_equal(a.questions[0].features, c.questions[0].features)


def test_default_world_shapes():
    ds = generate_world(default_v1())
    assert len(ds.labeled) == 60
    assert len(ds.unlabeled) == 180
    assert [q.question_id for q in ds.questions] == list(range(240))
    # feature dim = cluster block + one marker slot per cluster
    assert ds.num_features == 16 + 6
    assert all(q.features.shape == (22,) for q in ds.questions)
    assert ds.num_tokens == 512
    assert ds.response_length == 4


def test_cluster_round_robin_and_shared_golds():
    ds = generate_world(default_v1())
    golds = {}
    for q in ds.questions:
        c = ds.clusters[q.question_id]
        assert c == q.question_id % 6
        golds.setdefault(c, ds.eval_answers[q.question_id])
        assert ds.eval_answers[q.question_id] == golds[c]
    assert len(set(golds.values())) == 6  # distinct answers across clusters
    # evenly spaced over the token range
    assert sorted(golds.values()) == [85 * c for c in range(6)]
    for q in ds.labeled:
        assert q.gold_answer == ds.eval_answers[q.question_id]
    for q in ds.unlabeled:
        assert q.gold_answer is None


def test_bias_marker_placement_and_count():
    wc = default_v1()
    ds = generate_world(wc)
    d = wc.num_features
    biased = [q for q in ds.unlabeled if q.bias_target is not None]
    assert len(biased) == round(0.3 * 180)
    for q in biased:
        c = ds.clusters[q.question_id]
        marker = q.features[d:]
        assert marker[c] == pytest.approx(1.2)
        assert np.count_nonzero(marker) == 1
        # the wrong target sits right next to the cluster gold
        assert q.bias_target == (ds.eval_answers[q.question_id] + 1) % 512
    for q in ds.labeled:
        assert np.all(q.features[d:] == 0.0)
    for q in ds.unlabeled:
        if q.bias_target is None:
            assert np.all(q.features[d:] == 0.0)


def test_ood_tagging_and_count():
    ds = generate_world(default_v1())
    n_ood = sum(q.domain_tag == DOMAIN_OOD for q in ds.unlabeled)
    assert n_ood == round(0.2 * 180)
    assert all(q.domain_tag == DOMAIN_ID for q in ds.labeled)


def test_split_norm_separation():
    """Labeled questions carry large cluster norms; unlabeled sit near unit norm."""
    wc = default_v1()
    ds = generate_world(wc)
    d = wc.num_features
    for q in ds.labeled:
        assert np.linalg.norm(q.features[:d]) > 3.0
    for q in ds.unlabeled:
        assert np.linalg.norm(q.features[:d]) < 2.0


def test_world_with_no_labeled_questions():
    wc = WorldConfig(n_labeled=0, n_unlabeled=12, num_features=4, num_tokens=8,
                     n_clusters=2, bias_fraction=0.0, ood_fraction=0.0)
    ds = generate_world(wc)
    assert ds.labeled == ()
    assert [q.question_id for q in ds.unlabeled] == list(range(12))


_FRACTIONS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def _world_facts(dataset):
    """Every fact of a world, as one repr: question order, feature dtype and bytes,
    golds, domain tags, bias targets, ``eval_answers`` and ``clusters``."""
    questions = [
        (q.question_id, q.features.dtype.str, q.features.tobytes(), q.gold_answer,
         q.domain_tag, q.bias_target)
        for q in dataset.questions
    ]
    return repr((questions, len(dataset.labeled), dataset.num_features, dataset.num_tokens,
                 dataset.response_length, dataset.eval_answers, dataset.clusters))


@settings(max_examples=150, deadline=None, database=None)
@given(
    n_labeled=st.integers(0, 20),
    n_unlabeled=st.integers(0, 40),
    n_clusters=st.integers(1, 6),
    ood_fraction=_FRACTIONS,
    bias_fraction=_FRACTIONS,
    cluster_spread=st.just(0.0) | st.floats(0.0, 3.0),
    num_features=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_generate_world_matches_the_per_question_builder(n_labeled, n_unlabeled, **world):
    assume(n_labeled + n_unlabeled >= 1)
    config = WorldConfig(n_labeled=n_labeled, n_unlabeled=n_unlabeled, num_tokens=16, **world)
    assert _world_facts(generate_world(config)) == _world_facts(world_oracle.generate_world(config))


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_labeled": -1},
        {"n_labeled": 0, "n_unlabeled": 0},
        {"num_features": 0},
        {"response_length": 0},
        {"num_tokens": 1},
        {"n_clusters": 0},
        {"n_clusters": 20, "num_tokens": 10},
        {"cluster_spread": -0.1},
        {"ood_fraction": 1.5},
        {"bias_fraction": -0.2},
        {"bias_strength": -1.0},
        {"cluster_spread": float("nan")},
        {"bias_strength": float("nan")},
        {"ood_fraction": float("nan")},
        {"seed": -1},
        {"seed": 2**64},
        {"cluster_spread": float("inf")},
        {"bias_strength": float("inf")},
    ],
)
def test_world_validation_rejects(overrides):
    # Construction and dataclasses.replace both check.
    with pytest.raises(ConfigError) as built:
        WorldConfig(**{**SMALL.__dict__, **overrides})
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(SMALL, **overrides)
    assert str(replaced.value) == str(built.value)


# ---------------------------------------------------------------------------
# init_policy


def test_init_policy_deterministic():
    ds = generate_world(SMALL)
    a = init_policy(ds, SMALL)
    b = init_policy(ds, SMALL)
    assert np.array_equal(a.params.weights, b.params.weights)
    assert np.array_equal(a.ref_params.weights, a.params.weights)
    # the reference copy must be independent storage
    a.params.weights[0, 0] += 1.0
    assert a.ref_params.weights[0, 0] != a.params.weights[0, 0]


def test_init_policy_weight_shape():
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    assert pol.params.weights.shape == (16, 8 + 4 + 3)  # tokens x (features + markers + steps)


def test_bias_bump_touches_exactly_the_marker_cells():
    wc = default_v1()
    ds = generate_world(wc)
    plain = init_policy(ds, dataclasses.replace(wc, bias_strength=0.0))
    bumped = init_policy(ds, wc)
    diff = bumped.params.weights - plain.params.weights
    expected = {
        (q.bias_target, wc.num_features + ds.clusters[q.question_id])
        for q in ds.unlabeled
        if q.bias_target is not None
    }
    rows, cols = np.nonzero(diff)
    assert set(zip(rows.tolist(), cols.tolist())) == expected
    assert np.allclose(diff[diff != 0.0], wc.bias_strength)


def test_init_policy_rejects_a_cluster_without_a_marker_column():
    """A hand-built dataset can name a cluster beyond the world's marker columns;
    the bias bump then died with ``IndexError: index 8 is out of bounds``."""
    wc = WorldConfig(n_labeled=4, n_unlabeled=4, num_features=3, num_tokens=8,
                     response_length=2, n_clusters=2, ood_fraction=0.0, bias_fraction=0.5)
    ds = generate_world(wc)
    qid = next(q.question_id for q in ds.unlabeled if q.bias_target is not None)
    for cluster in (5, 2, -1):
        bad = dataclasses.replace(ds, clusters={**ds.clusters, qid: cluster})
        with pytest.raises(ConfigError, match=f"question {qid}: cluster {cluster} is outside"):
            init_policy(bad, wc)
    init_policy(dataclasses.replace(ds, clusters={**ds.clusters, qid: 1}), wc)


def test_weak_bias_strength_is_rejected():
    wc = default_v1()
    ds = generate_world(wc)
    with pytest.raises(BiasVerificationError):
        init_policy(ds, dataclasses.replace(wc, bias_strength=0.05))
    assert issubclass(BiasVerificationError, ConfigError)


def test_negative_bias_strength_is_rejected():
    wc = default_v1()
    ds = generate_world(wc)
    with pytest.raises(ConfigError, match="bias_strength"):
        init_policy(ds, dataclasses.replace(wc, bias_strength=-0.5))


def test_bias_flip_rate_external_recount():
    """Independent sampling confirms biased questions start confidently wrong."""
    wc = default_v1()
    ds = generate_world(wc)
    pol = init_policy(ds, wc)
    biased = [q for q in ds.unlabeled if q.bias_target is not None]
    rng = np.random.default_rng(12345)
    n = 240
    hits = 0
    for i in range(n):
        q = biased[i % len(biased)]
        group = rollout_group(pol.params, q, ds.response_length, 8, 0, rng)
        hits += int(majority_vote(group.answers)[0] == q.bias_target)
    assert hits / n >= 0.8


# ---------------------------------------------------------------------------
# rollout_group / greedy_answer


def test_rollout_group_replays_under_same_stream():
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    q = ds.questions[0]
    a = rollout_group(pol.params, q, 3, 8, 5, np.random.default_rng(9))
    b = rollout_group(pol.params, q, 3, 8, 5, np.random.default_rng(9))
    assert np.array_equal(a.responses, b.responses)
    assert np.array_equal(a.step_distributions, b.step_distributions)


def test_rollout_group_contract():
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    q = ds.questions[3]
    g = rollout_group(pol.params, q, 3, 16, 2, np.random.default_rng(4))
    assert g.responses.shape == (16, 3)
    assert np.all((g.responses >= 0) & (g.responses < 16))
    assert np.array_equal(g.answers, g.responses[:, -1])
    assert np.allclose(g.step_distributions.sum(axis=-1), 1.0)
    # every rollout in the group sees the same per-step distribution: the
    # group stores it once, as one (L, K) array
    ref = step_probs(pol.params, q.features, 3)
    assert g.step_distributions.shape == ref.shape
    assert np.allclose(g.step_distributions, ref)


@pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
def test_rollout_group_records_step_probs_bit_for_bit(temperature):
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    for q in ds.questions[:8]:
        g = rollout_group(pol.params, q, 3, 8, 1, np.random.default_rng(2), temperature)
        assert g.step_distributions.shape == (3, SMALL.num_tokens)
        assert np.array_equal(
            g.step_distributions, step_probs(pol.params, q.features, 3, temperature)
        )


def test_rollout_group_rejects_empty_group():
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    with pytest.raises(ValueError):
        rollout_group(pol.params, ds.questions[0], 3, 0, 1, np.random.default_rng(0))


def test_low_temperature_sampling_matches_greedy():
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    for q in ds.questions[:6]:
        g = rollout_group(pol.params, q, 3, 8, 1, np.random.default_rng(11),
                          temperature=1e-3)
        expected = greedy_answer(pol.params, q, 3)
        assert np.all(g.answers == expected)
        probs = step_probs(pol.params, q.features, 3)
        per_step = np.argmax(probs, axis=1)
        assert np.all(g.responses == per_step[None, :])


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_greedy_answer_is_argmax_of_final_step_probs(seed):
    world = WorldConfig(**{**SMALL.__dict__, "seed": seed})
    trained = run(TrainerConfig(seed=seed, epochs=3, warmup_epochs=1), world)
    ds = trained.dataset
    for params in (init_policy(ds, world).params, trained.policy.params):
        for q in ds.questions:
            probs = step_probs(params, q.features, ds.response_length)
            assert greedy_answer(params, q, ds.response_length) == int(np.argmax(probs[-1]))


def test_greedy_answer_breaks_logit_ties_toward_smallest_index():
    # Tokens 1 and 2 share the largest final-step logit.
    weights = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [1.0, 2.0, 0.5], [0.5, 1.0, 0.0]])
    q = Question(0, np.array([1.0, 1.0]))
    params = PolicyParams(weights)
    assert greedy_answer(params, q, 1) == 1
    assert int(np.argmax(step_probs(params, q.features, 1)[-1])) == 1


def test_greedy_answer_invariant_to_uniform_step_shift():
    """Adding a constant to a whole step column shifts all logits equally."""
    ds = generate_world(SMALL)
    pol = init_policy(ds, SMALL)
    q = ds.questions[5]
    before = greedy_answer(pol.params, q, 3)
    probs_before = step_probs(pol.params, q.features, 3)
    shifted = pol.params.weights.copy()
    shifted[:, ds.num_features + 1] += 17.0  # step-1 column, every token row
    shifted_params = PolicyParams(shifted)
    assert greedy_answer(shifted_params, q, 3) == before
    assert np.allclose(step_probs(shifted_params, q.features, 3), probs_before)


# ---------------------------------------------------------------------------
# emergent behavior


_EVAL_TAG = 1 << 41  # separate stream family for measurement rollouts


def _mean_gold_pass_rate(params, ds, questions, tag):
    """Sampled pass rate against gold, G=32, from dedicated eval streams."""
    vals = []
    for q in questions:
        rng = rng_stream(999, _EVAL_TAG + q.question_id, tag)
        group = rollout_group(params, q, ds.response_length, 32, 0, rng)
        vals.append(float(np.mean(group.answers == ds.eval_answers[q.question_id])))
    return float(np.mean(vals))


def test_labeled_training_transfers_within_cluster_only():
    """Co-evolution: supervised training on a single cluster's labeled
    questions lifts that cluster's unlabeled questions far more than a
    geometrically distant cluster, both in sampled gold pass rate (mean
    margin over 10 seeds >= 0.1) and in greedy accuracy (near cluster
    solved, far cluster untouched).

    Standard world geometry with bias/shift fractions zeroed, since biased
    questions are pinned wrong by construction and shifted-domain questions
    sit off-cluster -- both would deflate the same-cluster delta for reasons
    unrelated to the transfer mechanism.  Unlabeled questions outside the
    two measured clusters are dropped: under supervised training they never
    contribute gradients, so the dynamics are unchanged.
    """
    rate_margins = []
    greedy_margins: list[float] = []
    for seed in range(10):
        wc = default_v1(seed=seed, bias_fraction=0.0, ood_fraction=0.0)
        full = generate_world(wc)
        d = wc.num_features
        means = {}
        for c in range(wc.n_clusters):
            feats = [q.features[:d] for q in full.unlabeled
                     if full.clusters[q.question_id] == c]
            means[c] = np.mean(feats, axis=0)
        cos = {
            c: abs(np.dot(means[0], means[c]))
            / (np.linalg.norm(means[0]) * np.linalg.norm(means[c]))
            for c in range(1, wc.n_clusters)
        }
        far = min(cos, key=cos.get)
        labeled = tuple(q for q in full.labeled if full.clusters[q.question_id] == 0)
        unlabeled = tuple(q for q in full.unlabeled if full.clusters[q.question_id] in (0, far))
        ds = Dataset(
            labeled, unlabeled, full.num_features, full.num_tokens, full.response_length,
            {q.question_id: full.eval_answers[q.question_id] for q in labeled + unlabeled},
            full.clusters,
        )
        pol = init_policy(ds, wc)
        near_qs = [q for q in ds.unlabeled if ds.clusters[q.question_id] == 0]
        far_qs = [q for q in ds.unlabeled if ds.clusters[q.question_id] == far]

        before_n = _mean_gold_pass_rate(pol.params, ds, near_qs, 0)
        before_f = _mean_gold_pass_rate(pol.params, ds, far_qs, 0)
        g_before_n = greedy_accuracy(pol.params, near_qs, ds.eval_answers, ds.response_length)
        g_before_f = greedy_accuracy(pol.params, far_qs, ds.eval_answers, ds.response_length)

        cfg = TrainerConfig(seed=seed, epochs=30, warmup_epochs=0, paradigm="supervised")
        state = TrainState(pol, ReliableDatabase.initial(ds.labeled_ids),
                           TrajectoryStore([q.question_id for q in ds.questions]))
        for epoch in range(1, cfg.epochs + 1):
            train_epoch(ds, cfg, state, epoch)

        after_n = _mean_gold_pass_rate(state.policy.params, ds, near_qs, 1)
        after_f = _mean_gold_pass_rate(state.policy.params, ds, far_qs, 1)
        g_after_n = greedy_accuracy(state.policy.params, near_qs, ds.eval_answers,
                                    ds.response_length)
        g_after_f = greedy_accuracy(state.policy.params, far_qs, ds.eval_answers,
                                    ds.response_length)
        rate_margins.append((after_n - before_n) - (after_f - before_f))
        greedy_margins.append((g_after_n - g_before_n) - (g_after_f - g_before_f))
    assert float(np.mean(rate_margins)) >= 0.1
    assert min(greedy_margins) >= 0.5
    assert float(np.mean(greedy_margins)) >= 0.9


def test_bias_feedback_loop_locks_planted_labels():
    """While the self-reinforcing loop is in its feedback phase, nearly every
    biased question keeps voting for its planted wrong target."""
    for seed in (0, 1, 2):
        res = run(TrainerConfig(seed=seed, epochs=6, warmup_epochs=0,
                                paradigm="unsupervised"))
        targets = {q.question_id: q.bias_target
                   for q in res.dataset.unlabeled if q.bias_target is not None}
        final = [r for r in res.records if r.epoch == 6 and r.qid in targets]
        keep = np.mean([r.pseudo_label == targets[r.qid] for r in final])
        assert keep >= 0.8


def test_unsupervised_training_never_heals_biased_questions():
    """Over a full-length unsupervised run the majority pseudo-label of a
    biased question may eventually drift off the planted target, but it
    essentially never lands on the true answer: consensus feedback cannot
    self-correct."""
    res = run(TrainerConfig(seed=0, paradigm="unsupervised"))
    ds = res.dataset
    biased = {q.question_id for q in ds.unlabeled if q.bias_target is not None}
    healed_by_epoch: dict[int, list[bool]] = {}
    for r in res.records:
        if r.qid in biased:
            healed_by_epoch.setdefault(r.epoch, []).append(
                r.pseudo_label == ds.eval_answers[r.qid]
            )
    assert len(healed_by_epoch) == res.trainer_config.epochs
    for epoch, flags in healed_by_epoch.items():
        assert np.mean(flags) < 0.05


def test_biased_questions_start_at_zero_greedy_accuracy():
    """The verified bias bump makes every biased question greedily wrong at init."""
    wc = default_v1()
    ds = generate_world(wc)
    pol = init_policy(ds, wc)
    biased = [q for q in ds.unlabeled if q.bias_target is not None]
    acc = greedy_accuracy(pol.params, biased, ds.eval_answers, ds.response_length)
    assert acc == 0.0
    # and the greedy answer is specifically the planted wrong target
    planted = np.mean(
        [greedy_answer(pol.params, q, ds.response_length) == q.bias_target for q in biased]
    )
    assert planted >= 0.95
