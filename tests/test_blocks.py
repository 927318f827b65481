"""The block kernels of the training loop equal their per-question forms bit for bit.

``train_epoch`` samples, votes, rewards and differentiates blocks of
questions at once.  Its logs stay byte-identical to a one-question-at-a-time
loop only if every block kernel gives each row exactly the bits that row
gets alone; these tests pin that, kernel by kernel and for a whole epoch.
"""

import dataclasses
import re

import numpy as np
import pytest

from trajrl import harness, sim
from trajrl.core import (
    StreamDraws,
    TrainerConfig,
    rng_stream,
    sampled_probs,
    stream_key,
    stream_keys,
)
from trajrl.grpo import (
    CLIP_EPS,
    PolicyParams,
    _add_logit_grads,
    block_ratios,
    block_step_probs,
    grpo_block,
    grpo_loss_and_grad,
    preference_block,
    step_probs,
)
from trajrl.harness import TrainState, run, train_epoch
from trajrl.rewards import hybrid_reward, majority_vote, majority_votes
from trajrl.sim import (
    WorldConfig,
    generate_world,
    greedy_answer,
    greedy_answers,
    init_policy,
    rollout_group,
    sample_block,
)
from trajrl.trajectory import pass_rate

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


def small_setup():
    ds = generate_world(SMALL)
    return ds, init_policy(ds, SMALL)


def step_rows(features, length):
    return np.hstack([np.tile(features, (length, 1)), np.eye(length)])


def reference_step_probs(params, z, tau):
    """The per-question forward pass on the (L, d+L) step rows ``z``, written out step by step,
    against a contiguous copy of the transposed weights."""
    logits = z @ np.ascontiguousarray(params.weights.T) / tau
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- draws


TRIPLES = [(0, 0, 1), (0, 5, 3), (7, 123, 9), (3, 2**40 + 2, 0), (2**64 - 1, 2**48 - 1, 65535)]


def test_stream_draws_equal_fresh_streams():
    streams = StreamDraws()
    for shape in [(8, 4), (3,), (5, 7, 2)]:
        for seed, qid, epoch in TRIPLES + TRIPLES[::-1]:
            out = np.empty(shape)
            streams.fill(stream_key(seed, qid, epoch), out)
            assert np.array_equal(out, rng_stream(seed, qid, epoch).random(shape))


@pytest.mark.parametrize(
    "seed,qid,epoch", [(-1, 5, 1), (2**64, 5, 1), (0, 2**48, 1), (0, -1, 1), (0, 5, 65536)]
)
def test_stream_draws_reject_out_of_range_keys(seed, qid, epoch):
    with pytest.raises(ValueError) as single:
        stream_key(seed, qid, epoch)
    with pytest.raises(ValueError):
        rng_stream(seed, qid, epoch)
    # An epoch's keys are checked the same way, with the same message.
    with pytest.raises(ValueError) as many:
        stream_keys(seed, [0, qid, 1], epoch)
    assert str(many.value) == str(single.value)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_stream_keys_equal_stream_key_for_every_triple(seed):
    ids = [q.question_id for q in generate_world(SMALL).questions] + [2**40 + 2, 2**48 - 1]
    for epoch in [0, 1, 2, 26, 65535]:
        keys = stream_keys(seed, ids, epoch)
        assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
        for qid, key in zip(ids, keys):
            assert np.array_equal(key, stream_key(seed, qid, epoch))
            assert key.tolist() == [seed, (qid << 16) ^ epoch]
    assert stream_keys(seed, [], 1).shape == (0, 2)


# ---------------------------------------------------------------- forward and sampling


def test_step_inputs_rows_are_each_questions_step_rows():
    ds, _ = small_setup()
    length = ds.response_length
    for q, block in zip(ds.questions, ds.step_inputs):
        assert np.array_equal(block, step_rows(q.features, length))
    assert not ds.step_inputs.flags.writeable


@pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
def test_block_step_probs_rows_equal_step_probs(temperature):
    ds, pol = small_setup()
    rng = np.random.default_rng(0)
    params = PolicyParams(pol.params.weights + rng.normal(0.0, 2.0, pol.params.weights.shape))
    singles = [step_probs(params, q.features, 3, temperature) for q in ds.questions]
    for size in (1, 3, 8, len(ds.questions)):
        for lo in range(0, len(ds.questions), size):
            block = block_step_probs(params, ds.step_inputs[lo : lo + size], temperature)
            for row, single in zip(block, singles[lo : lo + size]):
                assert np.array_equal(row, single)


# The forward, gradient and greedy matmuls against the per-question formulas,
# written out here rather than taken from a block-of-one kernel call.  Shapes
# (L, d+L, K): the default world, the small world, a one-step two-token
# policy (the forward pass is then a gemv per question), and a K at which the
# contiguous copy of the transposed weights that every forward pass multiplies
# by rounds differently from the view ``z @ W.T`` (OpenBLAS on an AVX-512 CPU;
# so does the one-step shape).
FORMULA_SHAPES = [(4, 26, 512), (3, 15, 16), (1, 7, 2), (3, 26, 100)]


def random_block(length, width, k, b=8):
    rng = np.random.default_rng([length, width, k])
    params = PolicyParams(rng.normal(0.0, 1.5, (k, width)))
    return params, rng.normal(0.0, 1.0, (b, length, width))


def test_formula_shapes_include_the_small_world():
    ds = generate_world(SMALL)
    assert (ds.response_length, ds.step_inputs.shape[2], ds.num_tokens) in FORMULA_SHAPES


@pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("length,width,k", FORMULA_SHAPES)
def test_block_step_probs_equal_the_per_question_formula(length, width, k, temperature):
    params, inputs = random_block(length, width, k)
    for b in (1, 5, 8):
        block = block_step_probs(params, inputs[:b], temperature)
        for row, z in zip(block, inputs[:b]):
            assert np.array_equal(row, reference_step_probs(params, z, temperature))


@pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("length,width,k", FORMULA_SHAPES)
def test_logit_grads_equal_the_ordered_per_question_sum(length, width, k, temperature):
    _, inputs = random_block(length, width, k)
    rng = np.random.default_rng(k)
    d_logits = rng.normal(0.0, 1.0, (8, length, k))
    start = rng.normal(0.0, 1.0, (k, width))
    for b in (1, 5, 8):
        grad, want = start.copy(), start.copy()
        _add_logit_grads(grad, d_logits[:b], inputs[:b], temperature)
        for d, z in zip(d_logits[:b], inputs[:b]):
            want += d.T @ z / temperature
        assert np.array_equal(grad, want)


def near_tie_block(length, width, k):
    """256 random questions and weights whose odd rows lie within rounding of the even
    rows before them: the winner of such a near tie turns on the last bit of two logits,
    so the argmax pins those bits."""
    params, inputs = random_block(length, width, k, b=256)
    weights = params.weights.copy()
    rng = np.random.default_rng(k)
    weights[1::2] = weights[0::2] * (1.0 + rng.normal(0.0, 1e-15, weights[1::2].shape))
    return PolicyParams(weights), inputs


def reference_greedy_answers(params, inputs):
    """The per-question argmax of the final-step logits, against a contiguous copy of the
    transposed weights."""
    return [int(np.argmax(z[-1] @ np.ascontiguousarray(params.weights.T))) for z in inputs]


@pytest.mark.parametrize("length,width,k", FORMULA_SHAPES)
def test_greedy_answers_equal_the_per_question_argmax(length, width, k):
    params, inputs = near_tie_block(length, width, k)
    assert greedy_answers(params, inputs).tolist() == reference_greedy_answers(params, inputs)
    assert greedy_answers(params, inputs[:0]).tolist() == []
    # Exact ties go to the smallest token index.
    flat = PolicyParams(np.zeros((k, width)))
    assert greedy_answers(flat, inputs).tolist() == [0] * len(inputs)


def searchsorted_rows(probs, draws):
    """The per-row reference sampler: searchsorted on each step's cdf."""
    out = np.empty(draws.shape, dtype=np.int64)
    for b, dists in enumerate(probs):
        cdf = np.cumsum(dists, axis=1)
        for s in range(dists.shape[0]):
            out[b, :, s] = np.searchsorted(cdf[s], draws[b, :, s], side="right")
    return np.minimum(out, probs.shape[-1] - 1)


@pytest.mark.parametrize("b,length,k,g", [(1, 1, 2, 1), (8, 4, 512, 8), (3, 200, 7, 5)])
def test_sample_block_equals_searchsorted_per_row(b, length, k, g):
    rng = np.random.default_rng(b * length)
    probs = rng.dirichlet(np.full(k, 0.3), size=(b, length))
    probs[:, :, 0] = 0.0  # zero-probability tokens must never be drawn
    probs /= probs.sum(axis=-1, keepdims=True)
    draws = rng.random((b, g, length))
    # Draws that hit a cumulative probability exactly, and the extremes.
    cdf = np.cumsum(probs, axis=-1)
    on_grid = np.floor(cdf * 2.0**53) / 2.0**53
    draws[:, 0, :] = on_grid[:, :, k // 2]
    draws[:, -1, :] = 1.0 - 2.0**-53
    if g > 2:
        draws[:, 1, :] = 0.0
    # Uniforms off the 2**-53 grid of Generator.random: a decimal, and the
    # doubles just below and just above a cumulative probability.
    near = cdf[:, :, k // 3]
    off_grid = (np.full_like(near, 0.1), np.nextafter(near, 0.0), np.nextafter(near, 1.0))
    for col, u in zip(range(2, g - 1), off_grid):
        draws[:, col, :] = u
    tokens = sample_block(probs, draws)
    assert tokens.shape == (b, g, length)
    assert np.array_equal(tokens, searchsorted_rows(probs, draws))


@pytest.mark.parametrize(
    "shape", [(3, 8, 4), (2, 8, 6), (2, 8), (2, 8, 4, 1)],
    ids=["a-third-row", "steps-4-5", "two-dims", "four-dims"],
)
def test_sample_block_refuses_draws_of_another_shape(shape):
    # Draws for a third row, or for steps 4-5, used to come back as np.empty memory.
    probs = np.full((2, 4, 5), 0.2)
    draws = np.random.default_rng(0).random(shape)
    message = f"draws of shape {shape} do not fit step distributions of shape (2, 4, 5)"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_block(probs, draws)


def test_greedy_answers_equal_greedy_answer():
    ds, pol = small_setup()
    answers = greedy_answers(pol.params, ds.step_inputs)
    assert answers.tolist() == [greedy_answer(pol.params, q, 3) for q in ds.questions]


def test_majority_votes_rows_equal_majority_vote():
    rng = np.random.default_rng(3)
    answers = rng.integers(0, 4, size=(200, 6))
    winners, confidences, ties = majority_votes(answers)
    for row, w, c, t in zip(answers, winners, confidences, ties):
        assert (int(w), float(c), bool(t)) == majority_vote(row)


def test_bias_check_equals_per_group_recount():
    # Group i samples biased[i % n] from one stream, in order, as the check used to.  The
    # worlds: n = 6, 300 (more questions than groups), 54, 1 (one question takes every
    # group) and 64 (256 groups are 4 whole rounds, so nothing is padded).
    worlds = (
        SMALL,
        WorldConfig(n_unlabeled=1000, bias_fraction=0.3, seed=4),
        sim.default_v1(),
        WorldConfig(n_unlabeled=10, bias_fraction=0.1),
        WorldConfig(n_unlabeled=128, bias_fraction=0.5),
    )
    for wc in worlds:
        ds = generate_world(wc)
        pol = init_policy(ds, wc)
        biased = [q for q in ds.unlabeled if q.bias_target is not None]
        rng = rng_stream(wc.seed, sim.BIAS_CHECK_STREAM_TAG, 0)
        hits = 0
        for i in range(sim._BIAS_CHECK_DRAWS):
            q = biased[i % len(biased)]
            group = rollout_group(pol.params, q, wc.response_length, 8, 0, rng)
            hits += majority_vote(group.answers)[0] == q.bias_target
        fraction = sim._verify_bias(pol.params, biased, wc)
        assert fraction == hits / sim._BIAS_CHECK_DRAWS


# ---------------------------------------------------------------- update


CONFIGS = [
    TrainerConfig(kl_beta=0.1),
    TrainerConfig(advantage_mode="std_normalized", length_normalization=True, entropy_coef=0.0),
    TrainerConfig(kl_beta=0.3, entropy_coef=0.2, rollout_temperature=0.7),
]


def sampled_groups(params, ds, tau, epoch=1):
    return [
        rollout_group(params, q, 3, 8, epoch, rng_stream(0, q.question_id, epoch), tau)
        for q in ds.questions
    ]


def reference_loss_and_grad(q, group, values, old, params, config, ref):
    """The per-question objective and gradient, written out for one (G, L) group."""
    tau, eps = config.rollout_temperature, CLIP_EPS
    g, length = group.responses.shape
    z = step_rows(q.features, length)
    probs = reference_step_probs(params, z, tau)
    probs_old = reference_step_probs(old, z, tau)
    steps = np.arange(length)[None, :]
    ratios = probs[steps, group.responses] / probs_old[steps, group.responses]
    centered = values - values.mean()
    if config.advantage_mode == "mean_only":
        adv = centered
    else:
        adv = centered / values.std() if values.std() != 0.0 else np.zeros_like(values)
    a = adv[:, None]
    surrogate = np.minimum(ratios * a, np.clip(ratios, 1.0 - eps, 1.0 + eps) * a)
    norm = float(g * length) if config.length_normalization else 1.0
    loss = -surrogate.sum() / norm
    active = np.where(a > 0.0, ratios <= 1.0 + eps, np.where(a < 0.0, ratios >= 1.0 - eps, False))
    coeffs = np.where(active, a * ratios, 0.0)
    d_logits = np.zeros((length, probs.shape[1]))
    for s in range(length):
        np.add.at(d_logits[s], group.responses[:, s], coeffs[:, s])
    d_logits -= coeffs.sum(axis=0)[:, None] * probs
    d_logits *= -1.0 / norm
    log_p = np.log(probs)
    if config.entropy_coef > 0.0:
        step_entropy = -(probs * log_p).sum(axis=1)
        loss -= config.entropy_coef * step_entropy.mean()
        d_logits -= (config.entropy_coef / length) * (-probs * (log_p + step_entropy[:, None]))
    if config.kl_beta > 0.0:
        log_ref = np.log(reference_step_probs(ref, z, tau))
        step_kl = (probs * (log_p - log_ref)).sum(axis=1)
        loss += config.kl_beta * step_kl.mean()
        d_logits += (config.kl_beta / length) * (probs * ((log_p - log_ref) - step_kl[:, None]))
    return float(loss), d_logits.T @ z / tau


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("on_policy", [True, False])
def test_grpo_loss_and_grad_is_its_row_of_the_block(config, on_policy):
    ds, pol = small_setup()
    tau = config.rollout_temperature
    rng = np.random.default_rng(5)
    old = pol.params
    params = old if on_policy else PolicyParams(old.weights + rng.normal(0, 0.3, old.weights.shape))
    ref = PolicyParams(old.weights + rng.normal(0, 0.3, old.weights.shape))
    groups = sampled_groups(old, ds, tau)
    rewards = [hybrid_reward(q, grp, "self_certainty") for q, grp in zip(ds.questions, groups)]

    singles = [
        grpo_loss_and_grad(q, grp, r, old, params, config, ref)
        for q, grp, r in zip(ds.questions, groups, rewards)
    ]
    inputs = ds.step_inputs
    probs_old = block_step_probs(old, inputs, tau)
    # Recomputing the sampling distributions gives the rollout groups' bits.
    assert np.array_equal(probs_old, np.stack([grp.step_distributions for grp in groups]))
    probs = probs_old if on_policy else block_step_probs(params, inputs, tau)
    responses = np.stack([grp.responses for grp in groups])
    if not on_policy:
        # Most off-policy ratios leave [1 - eps, 1 + eps], so the clipped branch is pinned too.
        ratios = sampled_probs(probs, responses) / sampled_probs(probs_old, responses)
        assert np.mean(np.abs(ratios - 1.0) > CLIP_EPS) > 0.5
    grad = np.zeros_like(old.weights)
    losses = grpo_block(
        inputs,
        responses,
        np.stack([r.values for r in rewards]),
        probs,
        probs_old,
        block_step_probs(ref, inputs, tau),
        config,
        grad,
    )
    expected = np.zeros_like(old.weights)
    for loss, (single_loss, single_grad) in zip(losses.tolist(), singles):
        assert loss == single_loss
        expected += single_grad
    assert np.array_equal(grad, expected)
    # ... and each group's numbers are those of the straight-line formulas.
    for q, grp, r, (single_loss, single_grad) in zip(ds.questions, groups, rewards, singles):
        want_loss, want_grad = reference_loss_and_grad(q, grp, r.values, old, params, config, ref)
        assert single_loss == want_loss
        assert np.array_equal(single_grad, want_grad)
        want_probs = reference_step_probs(params, step_rows(q.features, 3), tau)
        assert np.array_equal(step_probs(params, q.features, 3, tau), want_probs)


@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_preference_block_rows_are_blocks_of_one(temperature):
    ds, pol = small_setup()
    rng = np.random.default_rng(6)
    old = pol.params
    params = PolicyParams(old.weights + rng.normal(0, 0.3, old.weights.shape))
    inputs = ds.step_inputs
    probs_old = block_step_probs(old, inputs, temperature)
    probs = block_step_probs(params, inputs, temperature)
    b = inputs.shape[0]
    responses = sample_block(probs_old, rng.random((b, 8, 3)))
    rewards = (rng.random((b, 8)) < 0.5).astype(float)
    rewards[0], rewards[5] = 0.0, 1.0  # degenerate rows
    # Live rows have sequence ratios on both sides of the clip bounds.
    seq = block_ratios(probs, probs_old, responses).prod(axis=2)
    live = (rewards.min(axis=1) == 0.0) & (rewards.max(axis=1) == 1.0)
    clipped = np.abs(seq[live] - 1.0) > CLIP_EPS
    assert np.any(clipped) and np.any(~clipped)

    values, grad = preference_block(inputs, responses, rewards, probs, probs_old, temperature)
    expected = np.zeros_like(grad)
    for row in range(b):
        one = slice(row, row + 1)
        row_values, row_grad = preference_block(
            inputs[one], responses[one], rewards[one], probs[one], probs_old[one], temperature
        )
        assert values[row] == row_values[0]
        expected += row_grad
    assert values[0] == values[5] == 0.0
    assert np.array_equal(grad, expected)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(paradigm="naive_semi", kl_beta=0.1, reward_kind="token_entropy"),
        dict(paradigm="supervised", group_size=6, rollout_temperature=0.5),
        dict(paradigm="unsupervised", reward_kind="self_certainty", length_normalization=True),
        dict(
            paradigm="naive_semi", advantage_mode="std_normalized", reward_kind="sentence_entropy"
        ),
        dict(paradigm="naive_semi"),
        # The default paradigm's selecting epoch, keeping part of the unlabeled split.
        dict(paradigm="trapo", gamma=1.0, top_p=0.25),
    ],
)
def test_train_epoch_update_equals_per_question_sum(overrides):
    ds, pol = small_setup()
    config = dataclasses.replace(TrainerConfig(seed=3, epochs=4, warmup_epochs=1), **overrides)
    epoch = 2
    state = TrainState.initial(ds, pol)
    if config.paradigm == "trapo":
        train_epoch(ds, config, state, 1)  # the warmup epoch, so that epoch 2 selects
    params = state.policy.params
    ref = pol.ref_params if config.kl_beta > 0.0 else None
    metrics = train_epoch(ds, config, state, epoch)
    selected = tuple(state.masks[epoch].selected) if epoch in state.masks else ()
    trained = {
        "supervised": ds.labeled_ids,
        "unsupervised": ds.unlabeled_ids,
        "naive_semi": ds.labeled_ids + ds.unlabeled_ids,
        "trapo": ds.labeled_ids + selected,
    }[config.paradigm]
    if config.paradigm == "trapo":
        # Some unlabeled questions train and some do not.
        assert 0 < len(selected) < len(ds.unlabeled)

    grad = np.zeros_like(params.weights)
    total_loss = 0.0
    rates = []
    for q in ds.questions:
        rng = rng_stream(config.seed, q.question_id, epoch)
        group = rollout_group(
            params, q, 3, config.group_size, epoch, rng, config.rollout_temperature
        )
        target = q.gold_answer if q.gold_answer is not None else majority_vote(group.answers)[0]
        rates.append(pass_rate(group, target))
        if q.question_id in trained:
            rewards = hybrid_reward(q, group, config.reward_kind)
            loss, g = grpo_loss_and_grad(q, group, rewards, params, params, config, ref)
            grad += g
            total_loss += loss
    expected = params.weights - config.learning_rate * grad

    assert np.array_equal(state.policy.params.weights, expected)
    assert metrics.loss == total_loss
    # The run records each rate as the log reads it back: k/G itself for G = 8, its
    # 9-digit value for G = 6.
    assert list(state.epoch_logs[-1].pass_rate) == [float("%.9g" % r) for r in rates]


# Every paradigm, the KL term's third forward pass and a proxy reward that reads the
# distributions.
BLOCK_CONFIGS = {
    "trapo": TrainerConfig(),
    "naive_semi": TrainerConfig(paradigm="naive_semi"),
    "unsupervised": TrainerConfig(paradigm="unsupervised"),
    "supervised": TrainerConfig(paradigm="supervised"),
    "trapo_kl": TrainerConfig(kl_beta=0.1),
    "naive_semi_token_entropy": TrainerConfig(paradigm="naive_semi", reward_kind="token_entropy"),
}


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
def test_a_runs_bits_do_not_depend_on_the_block_size(name, length, monkeypatch):
    # At L = 3 a question's (L, d+L) step slab is 3 * 25 = 75 doubles, an odd count.
    world = WorldConfig(n_labeled=12, n_unlabeled=30, response_length=length)
    trainer = dataclasses.replace(BLOCK_CONFIGS[name], epochs=6, warmup_epochs=2)
    runs = {}
    for size in (1, 3, 8, 16, 64):
        monkeypatch.setattr(harness, "_BLOCK", size)
        result = run(trainer, world)
        losses = np.array([m.loss for m in result.metrics])
        runs[size] = (result.policy.params.weights.tobytes(), result.records, losses.tobytes())
    assert all(bits == runs[1] for bits in runs.values())
