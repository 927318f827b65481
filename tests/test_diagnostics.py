"""Risk-monitor oracles: the Hoeffding slack, bound composition, monotonicity.

The evaluation-side counterpart, the greedy 0-1 risk, is ``1 - greedy_accuracy``.
"""

import math

import numpy as np
import pytest

from trajrl import diagnostics
from trajrl.core import ConfigError, Question, RolloutGroup
from trajrl.diagnostics import (
    BoundConfig,
    BoundReport,
    bound_report,
    hoeffding_term,
    tc_risk,
)
from trajrl.grpo import PolicyParams
from trajrl.harness import greedy_accuracy
from trajrl.rewards import majority_vote
from trajrl.trajectory import tcs


def make_group(answers, k=8):
    answers = np.asarray(answers)
    responses = answers.reshape(-1, 1)
    dists = np.full((1, k), 1.0 / k)
    return RolloutGroup(0, 1, responses, dists)


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


def test_a_delta_whose_slack_overflows_is_refused_by_name():
    """2 n / delta overflows for a subnormal delta; the refusal names delta, not alpha or
    label_diameter, in the slack and in the report alike."""
    with pytest.raises(ConfigError, match=r"^delta 1e-320 is too small"):
        hoeffding_term(180, 8, 1e-320)
    with pytest.raises(ConfigError, match=r"^delta 1e-320 is too small"):
        bound_report(BoundConfig(delta=1e-320), 1, {0: 0.5}, [0.5] * 180, 8)
    assert math.isfinite(hoeffding_term(180, 8, 1e-300))


# ---------------------------------------------------------------- divergence


def divergence(a, b):
    """The monitor's divergence of one trajectory pair: ``1 - tcs`` as ``bound_report`` takes it."""
    return bound_report(BoundConfig(), 1, {0: tcs(a, b)}, [1.0], 8).mean_divergence


def test_divergence_examples():
    assert divergence(np.array([0.3, 0.3]), np.array([0.3, 0.3])) == 0.0
    assert divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    val = divergence(np.array([1.0, 0, 0]), np.array([1.0, 1, 1]))
    assert abs(val - (1 - 1 / math.sqrt(3))) < 1e-12
    assert abs(val - 0.42265) < 1e-5


# ---------------------------------------------------------------- confidence


def vote_confidence(groups):
    """A bound report's mean confidence over the groups' majority-vote confidences."""
    confidences = [majority_vote(g.answers)[1] for g in groups]
    return bound_report(BoundConfig(), 1, {0: 1.0}, confidences, 8).mean_confidence


def test_mean_voting_confidence():
    groups = [make_group([0, 0, 1, 0, 2, 0, 1, 0]), make_group([3, 3, 3, 3])]
    assert vote_confidence(groups) == (0.625 + 1.0) / 2
    assert vote_confidence([make_group([1, 1])]) == 1.0
    assert vote_confidence([make_group([0, 1]), make_group([2, 3])]) == 0.5
    # n is the number of confidences, and the Hoeffding term needs n >= 1.
    with pytest.raises(ValueError, match="one confidence"):
        vote_confidence([])


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
        BoundConfig(alpha=float("nan"))
    with pytest.raises(ValueError):
        BoundConfig(delta=0.0)
    with pytest.raises(ValueError):
        BoundConfig(delta=1.0)


def test_bound_config_refuses_a_wrong_type_by_name():
    with pytest.raises(ConfigError, match=r"^alpha must be of type float, got True$"):
        BoundConfig(alpha=True)
    with pytest.raises(ConfigError, match=r"^delta must be of type float, got '0.1'$"):
        BoundConfig(delta="0.1")
    assert type(BoundConfig(label_diameter=2).label_diameter) is float


def test_bound_report_computes_the_slack_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return hoeffding_term(*args)

    monkeypatch.setattr(diagnostics, "hoeffding_term", counted)
    report = bound_report(BoundConfig(), 1, {0: 0.5}, [0.75, 1.0], 8)
    assert calls == [(2, 8, 0.05)]
    assert report.rtc == tc_risk(BoundConfig(), 0.5, 0.875, 2, 8)


def test_bound_report_straight_line_recomputation():
    # An independent flat recomputation of every report field must agree
    # to 1e-12 -- this guards the composition against accumulation-order
    # drift inside bound_report.
    rng = np.random.default_rng(1)
    cfg = BoundConfig(alpha=0.7, label_diameter=1.3, delta=0.02)
    groups = [make_group(rng.integers(0, 4, size=8)) for _ in range(12)]
    divergences = rng.random(12).tolist()
    scores = {qid: 1.0 - d for qid, d in enumerate(divergences)}
    confidences = [majority_vote(g.answers)[1] for g in groups]
    report = bound_report(cfg, epoch=5, scores=scores, confidences=confidences, group_size=8)

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
    assert report.empirical_risk_labeled is None


def test_bound_report_refuses_a_risk_that_overflows():
    """Each weight is finite, but the rtc they give is not: a config error naming both."""
    config = BoundConfig(alpha=1e308, label_diameter=1e308)
    with pytest.raises(ConfigError, match=r"alpha 1e\+308 and label_diameter 1e\+308"):
        bound_report(config, 1, {0: 0.0}, [0.0], 8)


def test_bound_report_needs_scores():
    with pytest.raises(ValueError):
        bound_report(BoundConfig(), 1, {}, [0.5], 8)


# ---------------------------------------------------------------- empirical risk (1 - greedy accuracy)


def _question(qid, features):
    return Question(qid, features)


def test_empirical_risk_extremes():
    k, d, length = 4, 2, 1
    q = _question(0, np.zeros(d))
    sharp = np.zeros((k, d + length))
    sharp[2, d] = 30.0
    params = PolicyParams(sharp)
    assert 1 - greedy_accuracy(params, [q], {0: 2}, length) == 0.0
    assert 1 - greedy_accuracy(params, [q], {0: 3}, length) == 1.0
    assert greedy_accuracy(params, [], {}, length) is None


def test_empirical_risk_uniform_policy_simulation():
    # Uniform policy => greedy always answers token 0 (smallest-index
    # tie-break); random gold over K=8 gives expected risk 7/8.
    rng = np.random.default_rng(2)
    k, d, length = 8, 3, 1
    n = 10_000
    questions = [_question(i, np.zeros(d)) for i in range(n)]
    answers = {i: int(rng.integers(0, k)) for i in range(n)}
    params = PolicyParams(np.zeros((k, d + length)))
    risk = 1 - greedy_accuracy(params, questions, answers, length)
    assert abs(risk - 7 / 8) < 0.02
