"""Tests for the training loop, paradigm equivalences, and offline replay.

The loop's central promise is that paradigms differ only in which questions
train: identical RNG streams per (seed, question, epoch) make the warmup
phase of trajectory matching bit-identical to the supervised baseline, and
make a gamma=0 matcher bit-identical to naive semi-supervision.  These
equivalences are asserted with exact array equality, not tolerances.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import grid_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, SMALL_WORLD

from trajrl import cli, harness
from trajrl.configfile import read_run_config
from trajrl.core import DOMAIN_OOD, MATCHING_MODES, ConfigError, DivergenceError, TrainerConfig
from trajrl.harness import (
    SCORERS,
    OfflineSelection,
    TrainState,
    greedy_accuracy,
    off_grid_record,
    offline_select,
    run,
    sweep,
    train_epoch,
    verify_run,
    write_run,
)
from trajrl.logio import (
    LogParseError,
    PassRateLog,
    PassRateRecord,
    read_passrates,
    store_from_passrates,
    write_passrates,
)
from trajrl.sim import WorldConfig, default_v1, generate_world, init_policy
from trajrl.trajectory import (
    ReliableDatabase,
    SelectionMask,
    reliable_average,
    select,
    tcs,
    update_db,
)


WORLD = WorldConfig(
    n_labeled=12,
    n_unlabeled=24,
    num_features=8,
    num_tokens=32,
    response_length=3,
    n_clusters=4,
    ood_fraction=0.25,
    bias_fraction=0.25,
    seed=3,
)

TRAPO = TrainerConfig(seed=3, epochs=6, warmup_epochs=2, paradigm="trapo")


@pytest.fixture(scope="module")
def trapo_result():
    return run(TRAPO, WORLD)


# ---------------------------------------------------------------------------
# shape and bookkeeping of a run


def test_run_metrics_and_records_shape(trapo_result):
    res = trapo_result
    assert [m.epoch for m in res.metrics] == [1, 2, 3, 4, 5, 6]
    # one record per question per epoch, epoch-major, labeled block first
    assert len(res.records) == 36 * 6
    for e in range(6):
        chunk = res.records[e * 36 : (e + 1) * 36]
        assert all(r.epoch == e + 1 for r in chunk)
        assert [r.split for r in chunk] == ["labeled"] * 12 + ["unlabeled"] * 24
        assert [r.qid for r in chunk] == list(range(36))
    for qid in range(36):
        assert len(res.store.get(qid)) == 6


def test_masks_exist_only_after_warmup(trapo_result):
    assert sorted(trapo_result.masks) == [3, 4, 5, 6]
    for epoch, mask in trapo_result.masks.items():
        assert mask.epoch == epoch


def test_pass_rates_are_multiples_of_group_resolution(trapo_result):
    g = TRAPO.group_size
    for r in trapo_result.records:
        scaled = r.pass_rate * g
        assert abs(scaled - round(scaled)) < 1e-12
        assert 0.0 <= r.pass_rate <= 1.0


def test_record_fields_by_split_and_phase(trapo_result):
    for r in trapo_result.records:
        if r.split == "labeled":
            assert r.pseudo_label is None
            assert r.confidence is None
            assert r.tie is False
            assert r.selected is False
            assert r.tcs is None
        else:
            assert isinstance(r.pseudo_label, int)
            assert 0.0 < r.confidence <= 1.0
            if r.epoch <= TRAPO.warmup_epochs:
                assert r.selected is False
                assert r.tcs is None
            else:
                assert r.tcs is not None
                assert 0.0 <= r.tcs <= 1.0


def test_mask_reproducible_from_its_own_scores(trapo_result):
    res = trapo_result
    unlabeled_ids = set(res.dataset.unlabeled_ids)
    floor = math.ceil(TRAPO.top_p * len(unlabeled_ids) - 1e-9)
    for epoch, mask in res.masks.items():
        assert set(mask.tcs_scores) == unlabeled_ids
        assert mask.selected <= unlabeled_ids
        assert len(mask.selected) >= floor
        replay = select(mask.tcs_scores, TRAPO.top_p, TRAPO.gamma, epoch)
        assert replay.selected == mask.selected
        assert res.metrics[epoch - 1].n_selected == len(mask.selected)


def test_selected_flags_match_masks(trapo_result):
    res = trapo_result
    for r in res.records:
        if r.split == "unlabeled" and r.epoch in res.masks:
            assert r.selected == (r.qid in res.masks[r.epoch].selected)


def test_metrics_value_ranges(trapo_result):
    for m in trapo_result.metrics:
        for name in ("labeled_train_acc", "eval_acc_id", "eval_acc_ood",
                     "pseudo_acc_selected", "pseudo_acc_unselected",
                     "mean_tcs_selected", "mean_tcs_unselected"):
            value = getattr(m, name)
            if value is not None:
                assert 0.0 <= value <= 1.0
        assert 0.0 < m.mean_confidence <= 1.0
        assert np.isfinite(m.loss)
        if m.epoch <= TRAPO.warmup_epochs:
            assert m.n_selected == 0
            assert m.rtc is None
            assert m.mean_divergence is None
        else:
            assert m.n_selected == len(trapo_result.masks[m.epoch].selected)
            assert m.rtc is not None and m.rtc >= 0.0
            assert 0.0 <= m.mean_divergence <= 1.0


def test_initial_eval_reports_biased_start(trapo_result):
    ev = trapo_result.initial_eval
    assert set(ev) == {"labeled_train_acc", "eval_acc_id", "eval_acc_ood", "eval_acc_biased"}
    # verified bias bump: every biased question starts greedily wrong
    assert ev["eval_acc_biased"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_initial_eval_is_one_greedy_pass_that_matches_greedy_accuracy(seed, monkeypatch):
    """The start-of-run evaluation scores all four slices from one greedy pass of
    the untouched policy, with the bits of ``greedy_accuracy`` on each slice."""
    world = default_v1(seed=seed)
    dataset = generate_world(world)
    policy = init_policy(dataset, world)
    slices = {
        "labeled_train_acc": dataset.labeled,
        "eval_acc_id": [q for q in dataset.unlabeled if q.domain_tag != DOMAIN_OOD],
        "eval_acc_ood": [q for q in dataset.unlabeled if q.domain_tag == DOMAIN_OOD],
        "eval_acc_biased": [q for q in dataset.unlabeled if q.bias_target is not None],
    }
    expected = {
        key: greedy_accuracy(policy.params, qs, dataset.eval_answers, dataset.response_length)
        for key, qs in slices.items()
    }
    greedy_answers, passes = harness.greedy_answers, []

    def counted(params, inputs):
        passes.append(len(inputs))
        return greedy_answers(params, inputs)
    monkeypatch.setattr(harness, "greedy_answers", counted)
    result = run(TrainerConfig(seed=seed, epochs=1, warmup_epochs=0), world,
                 dataset=dataset, policy=policy)
    assert result.initial_eval == expected
    # One pass over every question per policy: the untouched one, then epoch 1's.
    assert passes == [len(dataset.questions)] * 2


def test_run_rejects_a_dataset_without_eval_answers():
    """Metrics need every question's true answer, so an empty mapping stops the
    run before its first epoch (it died with ``KeyError: 0`` before)."""
    world = WorldConfig(n_labeled=4, n_unlabeled=4, num_features=3, num_tokens=8,
                        response_length=2, n_clusters=2, ood_fraction=0.0, bias_fraction=0.5)
    dataset = generate_world(world)
    policy = init_policy(dataset, world)
    weights = policy.params.weights
    with pytest.raises(ConfigError, match="no eval_answers"):
        run(TrainerConfig(seed=0, epochs=2, warmup_epochs=1),
            dataset=dataclasses.replace(dataset, eval_answers={}), policy=policy)
    assert policy.params.weights is weights


# ---------------------------------------------------------------------------
# paradigm equivalences (exact)


def test_warmup_is_bit_identical_to_supervised():
    dataset = generate_world(WORLD)
    policy = init_policy(dataset, WORLD)
    cfg_trapo = TrainerConfig(seed=3, epochs=6, warmup_epochs=3, paradigm="trapo")
    cfg_sup = TrainerConfig(seed=3, epochs=6, warmup_epochs=3, paradigm="supervised")
    st_trapo = TrainState.initial(dataset, policy)
    st_sup = TrainState.initial(dataset, policy)
    for epoch in range(1, 4):
        m_trapo = train_epoch(dataset, cfg_trapo, st_trapo, epoch)
        m_sup = train_epoch(dataset, cfg_sup, st_sup, epoch)
        assert np.array_equal(st_trapo.policy.params.weights, st_sup.policy.params.weights)
        assert m_trapo.loss == m_sup.loss
        assert m_trapo.labeled_train_acc == m_sup.labeled_train_acc
    # first post-warmup epoch admits unlabeled questions and breaks the tie
    train_epoch(dataset, cfg_trapo, st_trapo, 4)
    train_epoch(dataset, cfg_sup, st_sup, 4)
    assert not np.array_equal(st_trapo.policy.params.weights, st_sup.policy.params.weights)


def test_gamma_zero_trapo_equals_naive_semi():
    cfg_trapo = TrainerConfig(seed=5, epochs=5, warmup_epochs=0, gamma=0.0, paradigm="trapo")
    cfg_naive = TrainerConfig(seed=5, epochs=5, warmup_epochs=0, gamma=0.0, paradigm="naive_semi")
    res_t = run(cfg_trapo, WORLD)
    res_n = run(cfg_naive, WORLD)
    assert np.array_equal(res_t.policy.params.weights, res_n.policy.params.weights)
    for mt, mn in zip(res_t.metrics, res_n.metrics):
        assert mt.loss == mn.loss
        assert mt.eval_acc_id == mn.eval_acc_id
    # gamma=0 admits every unlabeled question every epoch
    for mask in res_t.masks.values():
        assert mask.selected == set(res_t.dataset.unlabeled_ids)
    # records agree on everything except the selection-only fields
    for rt, rn in zip(res_t.records, res_n.records):
        assert (rt.epoch, rt.qid, rt.split, rt.pass_rate, rt.pseudo_label,
                rt.confidence, rt.tie) == (
            rn.epoch, rn.qid, rn.split, rn.pass_rate, rn.pseudo_label,
            rn.confidence, rn.tie)


def test_supervised_run_never_selects():
    res = run(TrainerConfig(seed=3, epochs=4, warmup_epochs=1, paradigm="supervised"), WORLD)
    assert res.masks == {}
    assert all(m.n_selected == 0 for m in res.metrics)
    assert all(m.rtc is None for m in res.metrics)
    assert all(r.selected is False for r in res.records)
    assert all(r.tcs is None for r in res.records)


def test_unsupervised_with_no_unlabeled_is_inert():
    world = WorldConfig(n_labeled=8, n_unlabeled=0, num_features=6, num_tokens=16,
                        n_clusters=2, ood_fraction=0.0, bias_fraction=0.0, seed=1)
    dataset = generate_world(world)
    policy = init_policy(dataset, world)
    initial = policy.params.weights.copy()
    res = run(TrainerConfig(seed=1, epochs=3, warmup_epochs=0, paradigm="unsupervised"),
              dataset=dataset, policy=policy)
    assert np.array_equal(res.policy.params.weights, initial)
    assert all(m.loss == 0.0 for m in res.metrics)
    assert all(m.eval_acc_id is None for m in res.metrics)
    assert all(m.mean_confidence is None for m in res.metrics)


def test_run_needs_at_least_one_labeled_question():
    """The reliable set is seeded from labeled questions unconditionally, so a
    world without any labeled questions cannot be run (though it is a valid
    dataset for the lower-level building blocks)."""
    world = WorldConfig(n_labeled=0, n_unlabeled=10, num_features=6, num_tokens=16,
                        n_clusters=2, ood_fraction=0.0, bias_fraction=0.0, seed=1)
    dataset = generate_world(world)
    policy = init_policy(dataset, world)
    with pytest.raises(ConfigError, match="n_labeled"):
        run(TrainerConfig(seed=1, epochs=3, warmup_epochs=0, paradigm="supervised"),
            dataset=dataset, policy=policy)


def test_non_finite_update_raises_divergence_error():
    """A step that leaves the weights non-finite stops the run with a config
    error naming the epoch and the knobs to change."""
    with pytest.raises(DivergenceError, match="epoch 2: .*learning_rate"):
        run(dataclasses.replace(TRAPO, learning_rate=1e4), WORLD)
    assert issubclass(DivergenceError, ConfigError)


# ---------------------------------------------------------------------------
# determinism and logs


def test_one_dataset_and_policy_seed_identical_runs():
    """A run never changes the policy it is given: two runs from one (dataset, policy)
    pair agree, the caller's weights keep their bits, and the trained policy is new."""
    dataset = generate_world(WORLD)
    policy = init_policy(dataset, WORLD)
    initial = policy.params.weights.copy()
    first = run(TRAPO, dataset=dataset, policy=policy)
    second = run(TRAPO, dataset=dataset, policy=policy)
    assert first.records == second.records
    assert first.metrics == second.metrics
    assert policy.params.weights.tobytes() == initial.tobytes()
    assert first.policy is not policy and second.policy is not policy
    assert not np.array_equal(first.policy.params.weights, initial)
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.params = first.policy.params


def test_rerun_writes_byte_identical_logs(tmp_path):
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    res_a = run(TRAPO, WORLD, out_dir=dir_a)
    res_b = run(TRAPO, WORLD, out_dir=dir_b)
    assert np.array_equal(res_a.policy.params.weights, res_b.policy.params.weights)
    for name in ("passrates.jsonl", "metrics.jsonl", "run.json"):
        with open(os.path.join(dir_a, name), "rb") as fa:
            payload_a = fa.read()
        with open(os.path.join(dir_b, name), "rb") as fb:
            payload_b = fb.read()
        assert payload_a == payload_b
        assert payload_a  # nonempty


def test_write_run_records_the_runs_configs(tmp_path, trapo_result):
    """``run.json`` holds the run's trainer and world config fields, with a null world for
    a run handed a bare ``(dataset, policy)`` pair, and reads back as the run's trainer."""
    run(TRAPO, WORLD, out_dir=str(tmp_path / "world"))
    record = json.loads((tmp_path / "world" / "run.json").read_text(encoding="utf-8"))
    assert record == {"trainer": dataclasses.asdict(TRAPO), "world": dataclasses.asdict(WORLD)}
    assert read_run_config(str(tmp_path / "world" / "run.json")) == TRAPO
    dataset = trapo_result.dataset
    run(TRAPO, dataset=dataset, policy=init_policy(dataset, WORLD), out_dir=str(tmp_path / "pair"))
    record = json.loads((tmp_path / "pair" / "run.json").read_text(encoding="utf-8"))
    assert record == {"trainer": dataclasses.asdict(TRAPO), "world": None}


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_golden_run_json_reads_back_as_its_configs(name, golden_logs):
    """Each golden run's ``run.json`` is strict JSON (no Infinity or NaN) and reads back as
    the trainer config that produced the run."""
    trainer = GOLDEN[name][0]
    path = os.path.join(golden_logs(name), "run.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh, parse_constant=_refuse_constant)["trainer"] == dataclasses.asdict(trainer)
    assert read_run_config(path) == trainer


def test_a_run_with_numpy_scalar_settings_writes_a_replayable_run_json(tmp_path, capsys):
    """A numpy seed is stored as an int, so ``run.json`` is written whole and a replay
    with no flags selects what the run selected."""
    trainer = TrainerConfig(seed=np.int64(1), epochs=6, warmup_epochs=2)
    result = run(trainer, dataclasses.replace(WORLD, seed=np.int64(1)), out_dir=str(tmp_path))
    assert read_run_config(str(tmp_path / "run.json")) == dataclasses.replace(trainer, seed=1)
    capsys.readouterr()
    assert cli.main(["select", "--log", str(tmp_path / "passrates.jsonl")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        f"epoch {e}: selected {len(m.selected)} [{','.join(map(str, sorted(m.selected)))}]"
        for e, m in sorted(result.masks.items())
    ]


@pytest.mark.parametrize("group_size", [3, 6])
def test_replay_of_the_written_log_reproduces_the_run(tmp_path, group_size):
    """Off a power of two, k/G needs 17 digits and the log keeps 9: the run records
    each rate as the log reads it back, so a replay of the file scores the same numbers
    and selects what the run selected."""
    cfg = TrainerConfig(seed=7, epochs=8, warmup_epochs=2, group_size=group_size,
                        gamma=1.0, top_p=0.25)
    result = run(cfg, SMALL_WORLD, out_dir=str(tmp_path))
    replay = offline_select(
        read_passrates(tmp_path / "passrates.jsonl"),
        top_p=cfg.top_p,
        gamma=cfg.gamma,
        warmup_epochs=cfg.warmup_epochs,
        matching_mode=cfg.matching_mode,
        db_policy=cfg.db_policy,
    )
    assert [m.epoch for m in replay.masks] == sorted(result.masks)
    for mask in replay.masks:
        assert mask.selected == result.masks[mask.epoch].selected
        assert mask.tcs_scores == result.masks[mask.epoch].tcs_scores


def test_log_paths_build_no_records(tmp_path, monkeypatch):
    """Training, writing, reading, the store rebuild and the grid check handle the
    pass-rate log as columns: none of them builds a PassRateRecord."""
    built = []
    init = PassRateRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PassRateRecord, "__init__", counting_init)
    dataset = generate_world(WORLD)
    state = TrainState.initial(dataset, init_policy(dataset, WORLD))
    for epoch in range(1, TRAPO.epochs + 1):
        train_epoch(dataset, TRAPO, state, epoch)
    path = tmp_path / "passrates.jsonl"
    write_passrates(path, state.records)
    log = read_passrates(path)
    store_from_passrates(log)
    assert off_grid_record(log, TRAPO.group_size) is None
    assert built == []
    # Iteration does build records, and the counter sees them.
    assert len(list(log)) == len(built) == 36 * TRAPO.epochs


def rates_log(rates):
    """A log of epoch-1 unlabeled rows, qids 0, 1, ..., with these pass rates."""
    n = len(rates)
    nulls, no = (None,) * n, (False,) * n
    return PassRateLog((1,) * n, range(n), ("unlabeled",) * n, rates, nulls, nulls, no, no, nulls)


@st.composite
def grid_cases(draw):
    """A group size and rates on its grid, 1e-9 or 1e-8 off it, half-way between two
    points, or anywhere in [-2, 2]; some group sizes lie beyond 2**31 and 2**53."""
    g = draw(st.one_of(
        st.integers(1, 64),
        st.sampled_from([1000, 2**20, 2**31 - 1, 2**31, 2**40, 2**53, 2**60, 10**300]),
    ))
    k = st.integers(0, min(g, 2**53))
    rate = st.one_of(
        k.map(lambda i: i / g),
        st.tuples(k, st.sampled_from([-1e-8, -1e-9, 1e-9, 1e-8])).map(lambda t: t[0] / g + t[1]),
        k.map(lambda i: (i + 0.5) / g),
        st.floats(-2.0, 2.0),
    )
    return g, draw(st.lists(rate, max_size=6))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=grid_cases())
def test_off_grid_record_equals_the_per_record_loop(case):
    g, rates = case
    log = rates_log(rates)
    assert off_grid_record(log, g) == grid_oracle.off_grid_record(log, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_off_grid_record_reports_a_non_finite_rate(bad):
    """The per-record loop's ``round`` raises on a non-finite rate; the grid check
    reports its row, the first one off the grid."""
    log = rates_log([0.5, bad, 2.0])
    assert off_grid_record(log, 8) == log[1]
    with pytest.raises((ValueError, OverflowError)):
        grid_oracle.off_grid_record(log, 8)


def test_no_epoch_array_of_every_questions_distributions_lives_across_an_epoch():
    # Sampling keeps only the tokens and the update recomputes each block's distributions,
    # so a selecting epoch of the default run peaks below one (N, L, K) float64 array.
    world, trainer = default_v1(seed=0), TrainerConfig(seed=0)
    dataset = generate_world(world)
    state = TrainState.initial(dataset, init_policy(dataset, world))
    for epoch in range(1, 10):
        train_epoch(dataset, trainer, state, epoch)
    tracemalloc.start()
    try:
        train_epoch(dataset, trainer, state, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.masks[10].selected
    n, length, k = len(dataset.questions), dataset.response_length, dataset.num_tokens
    assert peak < n * length * k * 8  # 240 * 4 * 512 * 8 B = 3.93 MB


def test_oversized_rollouts_are_a_config_error():
    """Questions * G * L beyond what numpy can shape fails at run start, before any
    rollout array is allocated."""
    with pytest.raises(ConfigError, match="group_size"):
        run(dataclasses.replace(TRAPO, group_size=2**59), WORLD)


def test_written_passrates_parse_back(tmp_path, trapo_result):
    out = str(tmp_path / "logs")
    run(TRAPO, WORLD, out_dir=out)
    parsed = read_passrates(os.path.join(out, "passrates.jsonl"))
    assert len(parsed) == len(trapo_result.records)
    for got, want in zip(parsed, trapo_result.records):
        assert (got.epoch, got.qid, got.split) == (want.epoch, want.qid, want.split)
        assert got.pass_rate == want.pass_rate  # eighths are exact in decimal
        assert got.selected == want.selected


# ---------------------------------------------------------------------------
# offline replay


def test_offline_select_reproduces_online_masks(trapo_result):
    res = trapo_result
    offline = offline_select(
        res.records,
        top_p=TRAPO.top_p,
        gamma=TRAPO.gamma,
        warmup_epochs=TRAPO.warmup_epochs,
        matching_mode=TRAPO.matching_mode,
        db_policy=TRAPO.db_policy,
    )
    assert isinstance(offline, OfflineSelection)
    assert len(offline.masks) == TRAPO.epochs - TRAPO.warmup_epochs
    for mask in offline.masks:
        online = res.masks[mask.epoch]
        assert mask.selected == online.selected
        assert mask.tcs_scores == online.tcs_scores
    assert offline.db.sorted_members == res.db.sorted_members
    assert offline.split_of == {
        q.question_id: ("labeled" if q.gold_answer is not None else "unlabeled")
        for q in res.dataset.questions
    }


def test_offline_select_from_parsed_file(tmp_path, trapo_result):
    out = str(tmp_path / "logs")
    run(TRAPO, WORLD, out_dir=out)
    parsed = read_passrates(os.path.join(out, "passrates.jsonl"))
    offline = offline_select(
        parsed,
        top_p=TRAPO.top_p,
        gamma=TRAPO.gamma,
        warmup_epochs=TRAPO.warmup_epochs,
        matching_mode=TRAPO.matching_mode,
        db_policy=TRAPO.db_policy,
    )
    for mask in offline.masks:
        assert mask.selected == trapo_result.masks[mask.epoch].selected


def test_offline_select_validates_inputs(trapo_result):
    records = trapo_result.records
    # offline_select has no defaults of its own: every call names all five settings.
    valid = {"top_p": 0.1, "gamma": 0.4, "warmup_epochs": 0, "matching_mode": "mean",
             "db_policy": "additive"}
    with pytest.raises(ConfigError):
        offline_select(records, **{**valid, "warmup_epochs": 6})
    unlabeled_only = PassRateLog.from_records(r for r in records if r.split == "unlabeled")
    with pytest.raises(LogParseError):
        offline_select(unlabeled_only, **valid)
    with pytest.raises((ConfigError, LogParseError)):
        offline_select(PassRateLog.from_records([]), **valid)
    with pytest.raises(ConfigError, match="matching_mode"):
        offline_select(records, **{**valid, "matching_mode": "median"})
    # Replay accepts exactly the top_p and gamma ranges that training accepts.
    for settings in ({"top_p": 1.5, "gamma": 0.4}, {"top_p": 0.0, "gamma": 0.4},
                     {"top_p": 0.1, "gamma": 2.0}):
        with pytest.raises(ConfigError, match="top_p|gamma"):
            offline_select(records, **{**valid, **settings})
    with pytest.raises(TypeError, match="db_policy"):
        offline_select(records, top_p=0.1, gamma=0.4, warmup_epochs=0, matching_mode="mean")


# ---------------------------------------------------------------------------
# run verification


def test_verify_run_passes_an_untouched_run(trapo_result):
    assert verify_run(trapo_result) == []


def test_verify_run_needs_the_world_config(trapo_result):
    with pytest.raises(ConfigError, match="world config"):
        verify_run(dataclasses.replace(trapo_result, world_config=None))


def test_verify_run_reports_a_dropped_record(trapo_result):
    tampered = dataclasses.replace(trapo_result, epoch_logs=[trapo_result.records[:-1]])
    problems = verify_run(tampered)
    assert f"expected {TRAPO.epochs} records per question, found 5.97" in problems
    assert any(p.startswith("offline selection cannot replay") for p in problems)


def test_verify_run_reports_an_off_grid_pass_rate(trapo_result):
    records = list(trapo_result.records)
    records[5] = dataclasses.replace(records[5], pass_rate=0.3)
    tampered = PassRateLog.from_records(records)
    problems = verify_run(dataclasses.replace(trapo_result, epoch_logs=[tampered]))
    assert f"pass rate 0.3 is not a multiple of 1/8 (qid {records[5].qid})" in problems


def test_verify_run_reports_a_labeled_id_in_a_mask(trapo_result):
    epoch = TRAPO.warmup_epochs + 1
    mask = trapo_result.masks[epoch]
    labeled_id = trapo_result.dataset.labeled_ids[0]
    scores = {**mask.tcs_scores, labeled_id: 1.0}
    masks = {**trapo_result.masks,
             epoch: SelectionMask(epoch, mask.selected | {labeled_id}, scores)}
    problems = verify_run(dataclasses.replace(trapo_result, masks=masks))
    assert f"epoch {epoch} selected ids outside the unlabeled split" in problems


def test_verify_run_reports_an_offline_online_mismatch(trapo_result):
    epoch = TRAPO.warmup_epochs + 2
    mask = trapo_result.masks[epoch]
    toggled = mask.selected ^ {trapo_result.dataset.unlabeled_ids[0]}
    masks = {**trapo_result.masks, epoch: SelectionMask(epoch, toggled, mask.tcs_scores)}
    problems = verify_run(dataclasses.replace(trapo_result, masks=masks))
    assert problems == [f"offline selection disagrees with the run at epoch {epoch}"]


def test_verify_run_checks_the_risk_monitor_at_a_group_size_of_6():
    """An unlabeled row's confidence is its logged pass rate, so the monitor of the replayed
    scores and the logged confidences is the run's bit for bit, also where k/6 has more
    digits than the log writes."""
    result = run(dataclasses.replace(TRAPO, group_size=6), WORLD)
    assert verify_run(result) == []


def test_verify_run_reports_a_risk_monitor_one_ulp_off(trapo_result):
    epoch = TRAPO.warmup_epochs + 2
    metrics = list(trapo_result.metrics)
    rtc = metrics[epoch - 1].rtc
    metrics[epoch - 1] = dataclasses.replace(metrics[epoch - 1], rtc=float(np.nextafter(rtc, np.inf)))
    problems = verify_run(dataclasses.replace(trapo_result, metrics=metrics))
    assert problems == [f"the replayed risk monitor differs from the run's at epoch {epoch}"]


def test_verify_run_of_a_run_without_unlabeled_questions_has_no_monitor_to_check():
    result = run(TRAPO, dataclasses.replace(WORLD, n_unlabeled=0, bias_fraction=0.0, ood_fraction=0.0))
    assert result.masks and all(m.rtc is None for m in result.metrics)
    assert verify_run(result) == []


@pytest.mark.parametrize("matching_mode", ["mean", "max"])
def test_online_equals_offline(matching_mode):
    """Online and offline selection share one scoring path, and the scores are
    the per-question definitions: ``mean`` is tcs against the reliable average,
    ``max`` the best tcs against any single member."""
    cfg = dataclasses.replace(TRAPO, matching_mode=matching_mode)
    res = run(cfg, WORLD)
    offline = offline_select(
        res.records, top_p=cfg.top_p, gamma=cfg.gamma, warmup_epochs=cfg.warmup_epochs,
        matching_mode=matching_mode, db_policy=cfg.db_policy,
    )
    assert [m.epoch for m in offline.masks] == sorted(res.masks)
    db = ReliableDatabase.initial(res.dataset.labeled_ids)
    for mask in offline.masks:
        online = res.masks[mask.epoch]
        assert mask.selected == online.selected
        assert mask.tcs_scores == online.tcs_scores
        for qid, score in online.tcs_scores.items():
            traj = res.store.get(qid)[: mask.epoch]
            if matching_mode == "mean":
                want = tcs(traj, reliable_average(db, res.store, mask.epoch))
            else:
                want = max(tcs(traj, res.store.get(m)[: mask.epoch]) for m in db.sorted_members)
            assert score == want
        db = update_db(db, mask, cfg.db_policy)
    assert offline.db.sorted_members == res.db.sorted_members


def test_every_matching_mode_has_one_scorer():
    assert set(SCORERS) == set(MATCHING_MODES)


def test_inert_threshold_gives_exact_keep_fraction():
    """With the admission threshold too high to fire, every post-warmup mask
    has exactly ceil(top_p * n_unlabeled) members."""
    cfg = TrainerConfig(seed=4, epochs=6, warmup_epochs=2, paradigm="trapo",
                        top_p=0.25, gamma=1.0)
    res = run(cfg, WORLD)
    n = len(res.dataset.unlabeled_ids)
    exact = 0
    for mask in res.masks.values():
        if max(mask.tcs_scores.values()) < 1.0:  # threshold truly inert
            assert len(mask.selected) == math.ceil(cfg.top_p * n)
            exact += 1
    assert exact >= 2  # the property was actually exercised


# ---------------------------------------------------------------------------
# run/sweep argument handling


def test_run_requires_policy_with_explicit_dataset():
    """Half a ``(dataset, policy)`` pair raises, with or without a world.  The config
    is valid and built first, so only the half pair can raise."""
    config = TrainerConfig(seed=3, epochs=2, warmup_epochs=0)
    dataset = generate_world(WORLD)
    with pytest.raises(ValueError, match="both dataset and policy"):
        run(config, dataset=dataset)
    with pytest.raises(ValueError, match="both dataset and policy"):
        run(config, WORLD, policy=init_policy(dataset, WORLD))


def test_verifiable_reward_kind_is_rejected():
    # Labeled rows are always verified against gold; reward_kind names only
    # the unlabeled proxy, so "verifiable" is not one of its values.
    for paradigm in ("supervised", "trapo"):
        with pytest.raises(ConfigError, match="reward_kind"):
            TrainerConfig(seed=3, epochs=2, reward_kind="verifiable", paradigm=paradigm,
                          warmup_epochs=1)


def test_invalid_trainer_config_rejected_before_running():
    with pytest.raises(ConfigError):
        run(TrainerConfig(seed=3, epochs=2, warmup_epochs=5), WORLD)


def test_sweep_varies_one_axis_on_a_shared_world():
    base = TrainerConfig(seed=3, epochs=3, warmup_epochs=1, paradigm="trapo")
    results = sweep([(dataclasses.replace(base, top_p=v), WORLD) for v in (0.1, 0.5)])
    assert [r.trainer_config.top_p for r in results] == [0.1, 0.5]
    assert results[0].dataset.eval_answers == results[1].dataset.eval_answers
    assert np.array_equal(results[0].dataset.questions[0].features,
                          results[1].dataset.questions[0].features)
    # a larger keep fraction can only grow each epoch's selected set
    for m0, m1 in zip(results[0].metrics, results[1].metrics):
        if m0.epoch > base.warmup_epochs:
            assert m1.n_selected >= m0.n_selected


@pytest.fixture
def world_calls(monkeypatch):
    """The names of the ``generate_world`` and ``init_policy`` calls that ``harness`` makes."""
    calls = []
    for name in ("generate_world", "init_policy"):
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return calls


def _assert_logs_as_independent_runs(tmp_path, configs, results):
    for i, ((trainer, world), result) in enumerate(zip(configs, results)):
        swept, alone = tmp_path / "sweep" / str(i), tmp_path / "run" / str(i)
        write_run(str(swept), result)
        run(trainer, world, out_dir=str(alone))
        for name in ("passrates.jsonl", "metrics.jsonl", "run.json"):
            assert (swept / name).read_bytes() == (alone / name).read_bytes()


def test_sweep_shares_one_world_and_policy_and_logs_as_independent_runs(tmp_path, world_calls):
    """A sweep generates its world and initial policy once for all its configs, and each
    config's logs are byte for byte those of an independent run of that config."""
    base = TrainerConfig(seed=3, epochs=4, warmup_epochs=1, paradigm="trapo")
    configs = [(dataclasses.replace(base, group_size=v), WORLD) for v in (4, 6, 8)]
    results = sweep(configs)
    assert world_calls == ["generate_world", "init_policy"]
    _assert_logs_as_independent_runs(tmp_path, configs, results)


def test_sweep_generates_each_distinct_world_once(tmp_path, world_calls):
    """Two worlds by two trainer configs, interleaved: each world is generated, and its
    policy drawn, once, and each run keeps to its own world."""
    other = dataclasses.replace(WORLD, seed=4)
    trainers = [TrainerConfig(seed=3, epochs=3, warmup_epochs=1, top_p=p) for p in (0.1, 0.5)]
    configs = [(trainer, world) for trainer in trainers for world in (WORLD, other)]
    results = sweep(configs)
    assert world_calls == ["generate_world", "init_policy"] * 2
    assert results[0].dataset is results[2].dataset is not results[1].dataset
    assert results[1].dataset is results[3].dataset
    assert [r.world_config for r in results] == [WORLD, other, WORLD, other]
    _assert_logs_as_independent_runs(tmp_path, configs, results)


def test_greedy_accuracy_empty_population_is_none():
    dataset = generate_world(WORLD)
    policy = init_policy(dataset, WORLD)
    assert greedy_accuracy(policy.params, [], dataset.eval_answers, 3) is None
