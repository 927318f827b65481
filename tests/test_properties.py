"""Run-level properties on small random valid configurations.

Every paradigm, matching mode and database policy is drawn, on worlds of
2-8 tokens, 1-3 steps and groups of 2-6.  A run either completes or stops
with a documented config error; a completed run's pass-rate log reads back
to the same bytes and rebuilds the run's trajectory matrix, offline selection
replays its masks, and ``verify_run`` finds nothing.  Examples are derandomized and few, so the suite stays fast
and stable.  The cosine kernel is checked the same way on small nonnegative
matrices against its per-pair definition.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_trajectory import max_oracle

from trajrl.core import DB_POLICIES, MATCHING_MODES, ConfigError, TrainerConfig
from trajrl.harness import offline_select, run, verify_run
from trajrl.logio import read_passrates, store_from_passrates, write_passrates
from trajrl.sim import WorldConfig
from trajrl.trajectory import tcs_max_rows


@st.composite
def worlds(draw):
    k = draw(st.integers(2, 8))
    return WorldConfig(
        n_labeled=draw(st.integers(1, 4)),
        n_unlabeled=draw(st.integers(0, 6)),
        num_features=draw(st.integers(1, 4)),
        num_tokens=k,
        response_length=draw(st.integers(1, 3)),
        n_clusters=draw(st.integers(1, k)),
        cluster_spread=draw(st.sampled_from([0.0, 0.1, 1.0])),
        ood_fraction=draw(st.sampled_from([0.0, 0.5])),
        bias_fraction=draw(st.sampled_from([0.0, 0.5])),
        bias_strength=draw(st.sampled_from([0.5, 5.0, 1e3])),
        seed=draw(st.integers(0, 3)),
    )


# Matching mode and database policy act only in trapo, so trapo gets every
# pair of them and each other paradigm one pair.
SETTINGS = [("trapo", mode, policy) for mode in MATCHING_MODES for policy in DB_POLICIES] + [
    ("supervised", "max", "additive"),
    ("unsupervised", "mean", "recompute"),
    ("naive_semi", "max", "recompute"),
]


@st.composite
def trainers(draw, paradigm, matching_mode, db_policy):
    epochs = draw(st.integers(1, 4))
    return TrainerConfig(
        seed=draw(st.integers(0, 3)),
        epochs=epochs,
        warmup_epochs=draw(st.integers(0, epochs - 1)),
        group_size=draw(st.integers(2, 6)),
        top_p=draw(st.sampled_from([0.1, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.4, 1.0])),
        paradigm=paradigm,
        matching_mode=matching_mode,
        db_policy=db_policy,
    )


@pytest.mark.parametrize("paradigm,matching_mode,db_policy", SETTINGS)
@settings(max_examples=4, derandomize=True, database=None, deadline=None)
@given(data=st.data(), world=worlds())
def test_small_runs_complete_replay_and_verify(paradigm, matching_mode, db_policy, data, world):
    trainer = data.draw(trainers(paradigm, matching_mode, db_policy))
    with tempfile.TemporaryDirectory() as out:
        try:
            result = run(trainer, world, out_dir=out)
        except ConfigError:  # a too-weak bias (BiasVerificationError) included
            return
        path = os.path.join(out, "passrates.jsonl")
        copy = os.path.join(out, "copy.jsonl")
        write_passrates(copy, read_passrates(path))
        with open(path, "rb") as a, open(copy, "rb") as b:
            assert a.read() == b.read()

    rebuilt, _, n_epochs = store_from_passrates(result.records)
    assert n_epochs == trainer.epochs
    assert rebuilt.question_ids == result.store.question_ids
    for qid in result.store.question_ids:
        assert np.array_equal(rebuilt.get(qid), result.store.get(qid))

    if trainer.paradigm == "trapo":
        replay = offline_select(
            result.records,
            top_p=trainer.top_p,
            gamma=trainer.gamma,
            warmup_epochs=trainer.warmup_epochs,
            matching_mode=trainer.matching_mode,
            db_policy=trainer.db_policy,
        )
        assert {m.epoch: m.selected for m in replay.masks} == {
            e: m.selected for e, m in result.masks.items()
        }
    assert verify_run(result) == []


@st.composite
def trajectory_matrices(draw, n, length):
    """Pass rates on the 1/8 grid, or floats whose squares and products stay
    normal: the kernel's rescoring slack assumes that nothing underflows or
    overflows, so entries below 1e-100 become 0."""
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, (n, length), elements=st.integers(0, 8))) / 8
    x = draw(hnp.arrays(float, (n, length), elements=st.floats(0.0, 1e100)))
    x[x < 1e-100] = 0.0
    return x


@st.composite
def rows_and_members(draw):
    length = draw(st.integers(1, 40))
    members = draw(trajectory_matrices(draw(st.integers(1, 12)), length))
    # Multiples of a member point its way, so their scores tie within rounding.
    multiples = draw(st.lists(st.tuples(st.integers(0, len(members) - 1), st.integers(2, 8)), max_size=4))
    members = np.concatenate([k * members[[i]] for i, k in multiples] + [members])[:12]
    rows = draw(trajectory_matrices(draw(st.integers(1, 12)), length))
    # A row that copies a member scores exactly 1.0 against it.
    copies = draw(st.lists(st.integers(0, len(members) - 1), max_size=3))
    return np.concatenate([members[copies], rows])[:12], members


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(matrices=rows_and_members())
def test_tcs_max_rows_equals_the_pairwise_max_bit_for_bit(matrices):
    rows, members = matrices
    assert tcs_max_rows(rows, members).tolist() == max_oracle(rows, members)
