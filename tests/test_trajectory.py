"""Trajectory store, cosine matching, and the top-p / threshold selection mask.

``select`` is compared against an independent brute-force reimplementation
(integer ceil arithmetic, explicit sort) over randomized score maps, which
pins the rounding and tie-break conventions rather than trusting them.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajrl.core import Question, RolloutGroup
from trajrl.rewards import hybrid_reward, majority_vote
from trajrl.trajectory import (
    ReliableDatabase,
    SelectionMask,
    TrajectoryStore,
    pass_rate,
    reliable_average,
    select,
    tcs,
    tcs_max,
    tcs_max_rows,
    tcs_rows,
    update_db,
    write_trajectories_csv,
)


def make_group(answers, k=8):
    answers = np.asarray(answers)
    responses = answers.reshape(-1, 1)
    dists = np.full((1, k), 1.0 / k)
    return RolloutGroup(0, 1, responses, dists)


# ---------------------------------------------------------------- pass rates


def test_pass_rate_counts():
    group = make_group([2, 2, 2, 1, 2, 2, 0, 2])
    assert pass_rate(group, 2) == 0.75
    assert pass_rate(group, 5) == 0.0


def test_pass_rate_against_pseudo_label_equals_confidence():
    group = make_group([0, 0, 1, 0, 2, 0, 1, 0])
    label, conf, _ = majority_vote(group.answers)
    assert pass_rate(group, label) == conf
    unlabeled = Question(group.question_id, np.zeros(1))
    assert pass_rate(group, label) == hybrid_reward(unlabeled, group, "majority").confidence


def test_pass_rate_target_range():
    with pytest.raises(ValueError):
        pass_rate(make_group([0, 1]), 8)


def test_append_grows_and_validates():
    store = TrajectoryStore([0])
    store.record([0.5])
    assert store.get(0).tolist() == [0.5]
    store.record([0.75])
    assert store.get(0).tolist() == [0.5, 0.75]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        store.record([1.2])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        store.record([-0.01])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        store.record([float("nan")])
    with pytest.raises(ValueError, match="shape"):
        store.record([0.5, 0.5])
    assert store.get(0).size == 2


def test_store_is_append_only():
    store = TrajectoryStore([3, 1])
    assert store.question_ids == (1, 3)
    assert store.get(3).size == 0
    # One epoch is one rate per question, in construction order: qid 3, then qid 1.
    store.record([0.125, 0.25])
    first = store.get(1).copy()
    assert first.tolist() == [0.25]
    store.record([0.375, 0.5])
    assert np.array_equal(store.get(1)[:1], first)
    assert store.get(1).size == 2
    assert store.get(3).tolist() == [0.125, 0.375]


def test_store_rejects_repeated_ids():
    with pytest.raises(ValueError, match="question id 1 is repeated"):
        TrajectoryStore([1, 2, 1])


def test_store_matrix_truncates_but_never_pads():
    store = TrajectoryStore([0, 1])
    store.record([0.1, 0.9])
    with pytest.raises(ValueError, match="length"):
        store.as_matrix([], 2)
    store.record([0.2, 0.8])
    mat = store.as_matrix([0, 1], 1)
    assert np.array_equal(mat, [[0.1], [0.9]])
    assert np.array_equal(store.as_matrix([1, 0], 2), [[0.9, 0.8], [0.1, 0.2]])
    with pytest.raises(ValueError, match="length"):
        store.as_matrix([0, 1], 3)
    assert store.as_matrix([], 2).shape == (0, 2)


def test_returned_arrays_do_not_alias_the_store():
    store = TrajectoryStore([0, 1])
    store.record([0.25, 0.5])
    store.record([0.75, 1.0])
    store.get(0)[:] = 0.0
    store.as_matrix([0, 1], 2)[:] = 0.0
    assert store.get(0).tolist() == [0.25, 0.75]
    assert np.array_equal(store.as_matrix([0, 1], 2), [[0.25, 0.75], [0.5, 1.0]])


# ---------------------------------------------------------------- cosine scores


def test_tcs_identity_is_exactly_one():
    t = np.array([0.5, 0.5])
    assert tcs(t, t) == 1.0
    # Exact 1.0 even for awkward floats.
    t2 = np.array([0.1, 0.7, 0.3])
    assert tcs(t2, t2) == 1.0


def test_tcs_orthogonal_and_zero_vectors():
    assert tcs(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert tcs(np.zeros(3), np.array([1.0, 1.0, 1.0])) == 0.0
    assert tcs(np.array([1.0, 1.0, 1.0]), np.zeros(3)) == 0.0


def test_tcs_hand_value():
    assert abs(tcs(np.array([1.0, 0, 0]), np.array([1.0, 1, 1])) - 1 / np.sqrt(3)) < 1e-12
    assert abs(tcs(np.array([1.0, 0, 0]), np.array([1.0, 1, 1])) - 0.57735) < 1e-5


def test_tcs_length_mismatch():
    with pytest.raises(ValueError):
        tcs(np.array([1.0, 0]), np.array([1.0, 0, 0]))


def test_tcs_algebra_on_random_nonnegative_pairs():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        a = rng.random(n)
        b = rng.random(n)
        s = tcs(a, b)
        assert 0.0 <= s <= 1.0
        assert s == tcs(b, a)
        # Positive rescaling of either side changes nothing.
        c = float(rng.uniform(0.1, 10.0))
        assert abs(tcs(c * a, b) - s) < 1e-12


def test_divergence_complements_tcs_exactly():
    from trajrl.diagnostics import BoundConfig, bound_report

    rng = np.random.default_rng(1)
    for _ in range(2000):
        a, b = rng.random(5), rng.random(5)
        s = tcs(a, b)
        assert bound_report(BoundConfig(), 1, {0: s}, [], 1, 8).mean_divergence + s == 1.0


# ---------------------------------------------------------------- reliable database


def test_reliable_average_hand_means():
    store = TrajectoryStore([0, 1, 2])
    # Trajectories 0: (0.4, 0.8), 1: (0.2, 0.4), 2: (0.6, 0.6), one epoch per call.
    store.record([0.4, 0.2, 0.6])
    store.record([0.8, 0.4, 0.6])
    db = ReliableDatabase.initial([0, 1, 2])
    assert np.allclose(reliable_average(db, store, 2), [0.4, 0.6], atol=1e-12)


def test_reliable_average_single_member_is_identity():
    store = TrajectoryStore([7])
    store.record([0.2])
    store.record([0.6])
    db = ReliableDatabase.initial([7])
    assert np.array_equal(reliable_average(db, store, 2), [0.2, 0.6])


def test_db_initial_requires_labeled_ids():
    with pytest.raises(ValueError):
        ReliableDatabase.initial([])


def test_tcs_max_against_members():
    store = TrajectoryStore([0, 1])
    store.record([1.0, 0.0])
    store.record([0.0, 1.0])
    db = ReliableDatabase.initial([0, 1])
    assert tcs_max(np.array([1.0, 0.0]), db, store, 2) == 1.0
    # Single member reduces to plain tcs: [1,0] vs [1,1] -> 1/sqrt(2).
    solo = ReliableDatabase.initial([0])
    store2 = TrajectoryStore([0])
    store2.record([1.0])
    store2.record([1.0])
    assert abs(tcs_max(np.array([1.0, 0.0]), solo, store2, 2) - 0.70711) < 1e-5


def cosine_oracle(a, b):
    """``tcs`` as first written, with ``np.linalg.norm`` and ``np.dot``."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    return float(min(np.dot(a, b) / (na * nb), 1.0))


def max_oracle(rows, members):
    return [max(cosine_oracle(r, mem) for mem in members) for r in rows]


@pytest.mark.parametrize("group_size", [2, 3, 5, 6, 7, 8, 12, 16])
def test_tcs_max_rows_equals_pairwise_max_bit_for_bit(group_size):
    """The matrix-product kernel against its definition, on pass-rate grids
    of every resolution 1/G and off the grid: uniform floats, and the averaged
    member that ``reliable_average`` builds.  A plain matrix product already
    misses by an ulp here, so equality pins the rescoring step, not luck.  With
    the single averaged member as the only member every row is rescored; rows
    proportional to many members tie them all within the rescoring slack, so
    every such pair is rescored."""
    rng = np.random.default_rng(group_size)
    for length in (1, 2, 5, 18, 26, 60, 200):
        for trial in range(6):
            n, m = int(rng.integers(3, 12)), int(rng.integers(4, 12))
            if trial % 2:  # off the grid
                rows, members = rng.random((n, length)), rng.random((m, length))
            else:
                rows = rng.integers(0, group_size + 1, size=(n, length)) / group_size
                members = rng.integers(0, group_size + 1, size=(m, length)) / group_size
            members[0] = 0.0  # zero member
            members[2] = members[1]  # duplicate members
            members[-1] = rng.integers(1, group_size + 1, size=length) / group_size
            rows[0] = 0.0  # zero row
            rows[1] = members[-1]  # row equal to a member: exactly 1.0
            got = tcs_max_rows(rows, members).tolist()
            want = max_oracle(rows, members)
            assert got == want == [max(tcs(r, mem) for mem in members) for r in rows]
            assert got[0] == 0.0 and got[1] == 1.0
            assert all(0.0 <= s <= 1.0 for s in got)

            store = TrajectoryStore(range(m))
            for epoch in members.T:
                store.record(epoch)
            mean = reliable_average(ReliableDatabase.initial(range(m)), store, length)[None]
            assert tcs_max_rows(rows, mean).tolist() == max_oracle(rows, mean)
            # The averaged member among the others, as an off-grid member.
            mixed = np.concatenate([members, mean])
            assert tcs_max_rows(rows, mixed).tolist() == max_oracle(rows, mixed)

            # k * base for k = 1..G are on the grid and all point the same way.
            base = rng.integers(0, 2, size=length) / group_size
            base[0] = 1.0 / group_size
            ties = np.concatenate([np.arange(1, group_size + 1)[:, None] * base, members])
            tied_rows = np.concatenate([ties[: group_size // 2 + 1], rows])
            assert tcs_max_rows(tied_rows, ties).tolist() == max_oracle(tied_rows, ties)


def test_tcs_is_the_kernel_on_one_pair():
    rng = np.random.default_rng(3)
    for trial in range(3000):
        length = int(rng.integers(1, 30))
        if trial % 2:
            a, b = rng.random(length), rng.random(length)
        else:
            a, b = rng.integers(0, 9, size=(2, length)) / 8
        if trial % 5 == 0:
            b = a.copy()  # equal vectors
        if trial % 7 == 0:
            a = np.zeros(length)  # zero vector, alone or equal to a zero b
        assert tcs(a, b) == tcs_max_rows(a[None], b[None])[0] == cosine_oracle(a, b)


@pytest.mark.parametrize("group_size", [1, 2, 3, 5, 8, 16])
def test_tcs_rows_is_tcs_per_row_and_the_one_member_max_bit_for_bit(group_size):
    """The direct mean scorer against ``tcs`` on each row and against the
    rescoring kernel with the reference as its one member, on k/G rows with
    an all-zero row and a row equal to the reference, against a grid
    reference, the averaged members and an all-zero reference."""
    rng = np.random.default_rng(40 + group_size)
    for length in range(1, 41):
        for trial in range(3):
            rows = rng.integers(0, group_size + 1, size=(int(rng.integers(2, 9)), length)) / group_size
            if trial == 0:
                reference = rng.integers(0, group_size + 1, size=length) / group_size
            elif trial == 1:
                store = TrajectoryStore(range(len(rows)))
                for epoch in rows.T:
                    store.record(epoch)
                reference = reliable_average(ReliableDatabase.initial(range(len(rows))), store, length)
            else:
                reference = np.zeros(length)
            rows[0] = 0.0
            rows[-1] = reference
            got = tcs_rows(rows, reference).tolist()
            assert got == tcs_max_rows(rows, reference[None]).tolist() == [tcs(r, reference) for r in rows]


def test_tcs_rows_maps_a_nan_score_to_minus_infinity_as_the_max_kernel_does():
    rows, reference = np.array([[1e300, 1e300], [0.5, 0.0]]), np.array([1e300, 2e300])
    with np.errstate(over="ignore"):  # the squared norms overflow
        assert np.isnan(tcs(rows[0], reference))
        want = [-np.inf, tcs(rows[1], reference)]
        assert tcs_rows(rows, reference).tolist() == tcs_max_rows(rows, reference[None]).tolist() == want


def test_tcs_rows_shapes():
    assert tcs_rows(np.empty((0, 2)), np.ones(2)).shape == (0,)
    with pytest.raises(ValueError, match="as long as the reference"):
        tcs_rows(np.ones((3, 3)), np.ones(2))
    with pytest.raises(ValueError, match="as long as the reference"):
        tcs_rows(np.ones(3), np.ones(3))


def test_tcs_max_rows_shapes():
    members = np.array([[0.5, 0.25], [1.0, 0.0]])
    assert tcs_max_rows(np.empty((0, 2)), members).shape == (0,)
    with pytest.raises(ValueError, match="empty"):
        tcs_max_rows(np.ones((3, 2)), np.empty((0, 2)))
    with pytest.raises(ValueError, match="equal length"):
        tcs_max_rows(np.ones((3, 3)), members)


def test_update_db_policies():
    db = ReliableDatabase.initial([0, 1])
    m1 = SelectionMask(9, frozenset({5}), {5: 0.9, 6: 0.1})
    m2 = SelectionMask(10, frozenset({6}), {5: 0.2, 6: 0.8})

    additive = update_db(update_db(db, m1, "additive"), m2, "additive")
    assert set(additive.member_ids) == {0, 1, 5, 6}
    # Re-selecting a member is idempotent.
    again = update_db(additive, m1, "additive")
    assert set(again.member_ids) == {0, 1, 5, 6}

    recompute = update_db(update_db(db, m1, "recompute"), m2, "recompute")
    assert set(recompute.member_ids) == {0, 1, 6}
    assert 5 in additive.member_ids and 5 not in recompute.member_ids

    with pytest.raises(ValueError):
        update_db(db, m1, "replace")


def test_additive_membership_never_shrinks():
    rng = np.random.default_rng(2)
    db = ReliableDatabase.initial([0])
    size = 1
    for epoch in range(1, 30):
        picked = frozenset(int(q) for q in rng.integers(10, 30, size=3))
        db = update_db(db, SelectionMask(epoch, picked, {q: 1.0 for q in picked}), "additive")
        assert len(db.member_ids) >= size
        size = len(db.member_ids)
        assert db.labeled_ids <= set(db.member_ids)


# ---------------------------------------------------------------- selection


SPEC_SCORES = {
    0: 0.9, 1: 0.5, 2: 0.45, 3: 0.3, 4: 0.2,
    5: 0.1, 6: 0.41, 7: 0.05, 8: 0.39, 9: 0.02,
}


def test_selection_fixture():
    mask = select(SPEC_SCORES, top_p=0.1, gamma=0.4)
    assert set(mask.selected) == {0, 1, 2, 6}


def test_selection_threshold_inert_when_too_high():
    scores = {0: 0.6, 1: 0.9, 2: 0.3, 3: 0.8}
    mask = select(scores, top_p=0.5, gamma=1.0)
    assert set(mask.selected) == {1, 3}


def test_selection_tie_break_ascending_id():
    scores = {q: 0.25 for q in range(8)}
    mask = select(scores, top_p=0.25, gamma=0.9)
    assert set(mask.selected) == {0, 1}


def test_selection_ceil_resists_float_dust():
    # 0.07 * 100 = 7.000000000000001 in binary floating point; the count
    # must still be 7, not 8.
    scores = {q: q / 1000 for q in range(100)}
    mask = select(scores, top_p=0.07, gamma=1.0)
    assert len(mask.selected) == 7


def test_selection_monotone_in_gamma():
    rng = np.random.default_rng(3)
    scores = {q: float(rng.random()) for q in range(15)}
    previous = None
    for gamma in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        chosen = {q for q in scores if scores[q] >= gamma}
        if previous is not None:
            assert chosen <= previous
        previous = chosen


def test_selection_threshold_branch_respects_score_order():
    # If u2 enters via the threshold and u1 scores at least as high,
    # u1 is in the mask too.
    rng = np.random.default_rng(4)
    for _ in range(200):
        scores = {q: float(rng.choice([0.1, 0.3, 0.41, 0.6, 0.9])) for q in range(12)}
        mask = select(scores, top_p=0.1, gamma=0.4)
        threshold_members = [q for q in scores if scores[q] >= 0.4]
        for u2 in threshold_members:
            for u1 in scores:
                if scores[u1] >= scores[u2]:
                    assert u1 in mask.selected


def brute_force_select(scores, top_p_num, top_p_den, gamma):
    """Independent oracle with integer ceil and an explicit stable sort."""
    ids = sorted(scores)
    n = len(ids)
    count = -((-top_p_num * n) // top_p_den)  # ceil(top_p * n) exactly
    count = min(max(count, 1 if top_p_num > 0 else 0), n)
    ranked = sorted(ids, key=lambda q: (-scores[q], q))
    chosen = set(ranked[:count])
    chosen |= {q for q in ids if scores[q] >= gamma}
    return chosen


def test_selection_against_brute_force_oracle():
    rng = np.random.default_rng(5)
    gammas = [0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0]
    trials = 0
    while trials < 1000:
        n = int(rng.integers(1, 21))
        # Scores from a coarse lattice so ties actually happen.
        scores = {int(q): float(rng.integers(0, 21)) / 20.0 for q in rng.choice(500, n, replace=False)}
        k = int(rng.integers(1, 21))  # top_p = k/20 covers 0.05 .. 1.0
        gamma = float(rng.choice(gammas))
        mask = select(scores, top_p=k / 20.0, gamma=gamma)
        expected = brute_force_select(scores, k, 20, gamma)
        assert set(mask.selected) == expected, (scores, k / 20.0, gamma)
        trials += 1


def test_selection_mask_requires_scores_for_selected():
    with pytest.raises(ValueError):
        SelectionMask(1, frozenset({4}), {1: 0.5})


def test_select_validates_arguments():
    with pytest.raises(ValueError):
        select({0: 0.5}, top_p=0.1, gamma=1.5)
    with pytest.raises(ValueError):
        select({0: 0.5}, top_p=1.2, gamma=0.5)


# ---------------------------------------------------------------- csv export


def test_trajectory_csv_format(tmp_path):
    store = TrajectoryStore([0, 5])
    store.record([0.5, 0.125])
    store.record([1.0, 0.25])
    path = tmp_path / "traj.csv"
    write_trajectories_csv(store, {0: "labeled", 5: "unlabeled"}, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "qid,split,epoch,pass_rate"
    assert lines[1] == "0,labeled,1,0.500000"
    assert lines[2] == "0,labeled,2,1.000000"
    assert lines[3] == "5,unlabeled,1,0.125000"
    assert lines[4] == "5,unlabeled,2,0.250000"


def keyed_sort_select(scores, top_p, gamma):
    """``select``'s selected ids as first written: a keyed sort by (-score, id)."""
    ids = sorted(scores)
    count = 0 if top_p <= 0.0 or not ids else min(max(math.ceil(top_p * len(ids) - 1e-12), 1), len(ids))
    ranked = sorted(ids, key=lambda q: (-scores[q], q))
    return set(ranked[:count]) | {q for q in ids if scores[q] >= gamma}


_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -math.inf]) | st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None, database=None)
@given(
    scores=st.dictionaries(st.integers(0, 30) | st.integers(0, 2**70), _SCORES, max_size=40),
    top_p=st.sampled_from([-0.5, 0.0, 0.07, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    gamma=st.sampled_from([0.0, 0.4, 1.0]) | st.floats(0.0, 1.0),
)
@example(scores={q: q / 1000 for q in range(100)}, top_p=0.07, gamma=1.0)
@example(scores={q: 0.0 for q in range(100)}, top_p=0.07, gamma=1.0)
def test_select_equals_the_keyed_sort(scores, top_p, gamma):
    """Ids beyond int64 stay exact, since ranking sorts scores, not ids."""
    assert set(select(scores, top_p, gamma).selected) == keyed_sort_select(scores, top_p, gamma)


def test_select_rejects_a_nan_score():
    with pytest.raises(ValueError, match="NaN"):
        select({0: 0.5, 1: math.nan, 2: 0.9}, top_p=0.1, gamma=0.4)
