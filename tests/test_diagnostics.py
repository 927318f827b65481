"""Risk-monitor oracles: the Hoeffding slack, bound composition, monotonicity."""

import math

import numpy as np
import pytest

from trajrl.core import Question, RolloutGroup
from trajrl.diagnostics import (
    BoundConfig,
    BoundReport,
    empirical_risk,
    hoeffding_term,
    make_bound_report,
    mean_voting_confidence,
    tc_risk,
    trajectory_divergence,
)
from trajrl.grpo import PolicyParams


def make_group(answers, k=8):
    answers = np.asarray(answers)
    responses = answers.reshape(-1, 1)
    dists = np.full((1, k), 1.0 / k)
    return RolloutGroup(0, 1, responses, dists, answers)


# ---------------------------------------------------------------- hoeffding


def test_hoeffding_reference_value():
    # sqrt(ln(2*100/0.05) / 16) = sqrt(ln 4000 / 16)
    val = hoeffding_term(100, 8, 0.05)
    assert abs(val - math.sqrt(math.log(4000.0) / 16.0)) < 1e-15
    assert abs(val - 0.71999) <= 1e-5


def test_hoeffding_vanishes_for_large_groups():
    assert hoeffding_term(1, 10**6, 0.05) < 0.002


def test_hoeffding_grows_as_delta_shrinks():
    assert hoeffding_term(100, 8, 0.01) > hoeffding_term(100, 8, 0.05)
    # And strictly increases with n at fixed delta, G.
    assert hoeffding_term(200, 8, 0.05) > hoeffding_term(100, 8, 0.05)


def test_hoeffding_domain():
    for bad in ((0, 8, 0.05), (10, 0, 0.05), (10, 8, 0.0), (10, 8, 1.0)):
        with pytest.raises(ValueError):
            hoeffding_term(*bad)


# ---------------------------------------------------------------- divergence


def test_divergence_examples():
    assert trajectory_divergence(np.array([0.3, 0.3]), np.array([0.3, 0.3])) == 0.0
    assert trajectory_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    val = trajectory_divergence(np.array([1.0, 0, 0]), np.array([1.0, 1, 1]))
    assert abs(val - (1 - 1 / math.sqrt(3))) < 1e-12
    assert abs(val - 0.42265) < 1e-5


# ---------------------------------------------------------------- confidence


def test_mean_voting_confidence():
    groups = [make_group([0, 0, 1, 0, 2, 0, 1, 0]), make_group([3, 3, 3, 3])]
    assert mean_voting_confidence(groups) == (0.625 + 1.0) / 2
    assert mean_voting_confidence([make_group([1, 1])]) == 1.0
    assert mean_voting_confidence([make_group([0, 1]), make_group([2, 3])]) == 0.5
    with pytest.raises(ValueError):
        mean_voting_confidence([])


# ---------------------------------------------------------------- composition


def test_tc_risk_null_bound():
    cfg = BoundConfig(alpha=0.0, label_diameter=0.0)
    assert tc_risk(cfg, 0.9, 0.1, 5, 2) == 0.0


def test_tc_risk_composition_oracle():
    cfg = BoundConfig(alpha=1.0, label_diameter=1.0, delta=0.05)
    val = tc_risk(cfg, 0.2, 0.8, 100, 8)
    assert abs(val - (0.2 + 0.2 + hoeffding_term(100, 8, 0.05))) < 1e-12
    assert abs(val - 1.11999) < 2e-5


def test_tc_risk_limit_under_perfect_consistency():
    cfg = BoundConfig()
    assert tc_risk(cfg, 0.0, 1.0, 1, 10**8) < 1e-3


def test_tc_risk_monotonicity_signs():
    # Non-decreasing in divergence, non-increasing in confidence, on 1000
    # random paired evaluations.
    rng = np.random.default_rng(0)
    cfg = BoundConfig(alpha=rng.uniform(0.1, 2.0), label_diameter=rng.uniform(0.1, 2.0))
    for _ in range(1000):
        div = rng.random()
        conf = rng.random()
        n = int(rng.integers(1, 500))
        g = int(rng.integers(1, 64))
        bump = rng.uniform(0.0, 1.0 - div)
        drop = rng.uniform(0.0, conf)
        base = tc_risk(cfg, div, conf, n, g)
        assert tc_risk(cfg, div + bump, conf, n, g) >= base - 1e-15
        assert tc_risk(cfg, div, conf - drop, n, g) >= base - 1e-15


def test_tc_risk_input_validation():
    cfg = BoundConfig()
    with pytest.raises(ValueError):
        tc_risk(cfg, 1.5, 0.5, 10, 8)
    with pytest.raises(ValueError):
        tc_risk(cfg, 0.5, -0.1, 10, 8)


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        BoundConfig(delta=0.0)
    with pytest.raises(ValueError):
        BoundConfig(delta=1.0)


def test_bound_report_straight_line_recomputation():
    # An independent flat recomputation of every report field must agree
    # to 1e-12 -- this guards the composition against accumulation-order
    # drift inside make_bound_report.
    rng = np.random.default_rng(1)
    cfg = BoundConfig(alpha=0.7, label_diameter=1.3, delta=0.02)
    groups = [make_group(rng.integers(0, 4, size=8)) for _ in range(12)]
    divergences = rng.random(12).tolist()
    report = make_bound_report(cfg, epoch=5, divergences=divergences, groups=groups, n=12, group_size=8)

    confs = []
    for g in groups:
        counts = np.bincount(g.answers)
        confs.append(counts.max() / g.answers.size)
    mean_conf = sum(confs) / len(confs)
    mean_div = sum(divergences) / len(divergences)
    slack = math.sqrt(math.log(2 * 12 / 0.02) / (2 * 8))
    rtc = 0.7 * mean_div + 1.3 * (1 - mean_conf + slack)

    assert isinstance(report, BoundReport)
    assert abs(report.mean_confidence - mean_conf) < 1e-12
    assert abs(report.mean_divergence - mean_div) < 1e-12
    assert abs(report.hoeffding_term - slack) < 1e-12
    assert abs(report.rtc - rtc) < 1e-12
    assert report.n == 12 and report.G == 8 and report.epoch == 5


# ---------------------------------------------------------------- empirical risk


def _question(qid, features):
    return Question(qid, features)


def test_empirical_risk_extremes():
    k, d, length = 4, 2, 1
    q = _question(0, np.zeros(d))
    sharp = np.zeros((k, d + length))
    sharp[2, d] = 30.0
    params = PolicyParams(sharp)
    assert empirical_risk(params, [q], {0: 2}, length) == 0.0
    assert empirical_risk(params, [q], {0: 3}, length) == 1.0
    with pytest.raises(ValueError):
        empirical_risk(params, [], {}, length)


def test_empirical_risk_uniform_policy_simulation():
    # Uniform policy => greedy always answers token 0 (smallest-index
    # tie-break); random gold over K=8 gives expected risk 7/8.
    rng = np.random.default_rng(2)
    k, d, length = 8, 3, 1
    n = 10_000
    questions = [_question(i, np.zeros(d)) for i in range(n)]
    answers = {i: int(rng.integers(0, k)) for i in range(n)}
    params = PolicyParams(np.zeros((k, d + length)))
    risk = empirical_risk(params, questions, answers, length)
    assert abs(risk - 7 / 8) < 0.02
