"""Computable pieces of the trajectory-consistency risk bound.

The monitored quantity decomposes into a trajectory-mismatch term and a
pseudo-label term:

    rtc = alpha * mean_divergence + label_diameter * (1 - mean_confidence + hoeffding)

with ``hoeffding = sqrt(ln(2 n / delta) / (2 G))``.  All four ingredients are
observable during a run, so the bound can be tracked without ever touching
hidden answers.  :func:`bound_report` combines them, both for the ``rtc`` that
``train_epoch`` logs and for ``trajrl diagnose``, which recomputes it offline.

``rtc`` claims to bound, with probability ``1 - delta``, the pseudo-label error: the
share of the ``n`` unlabeled questions whose majority vote is wrong.  The slack bounds
each vote share's deviation over ``G`` independent rollouts; reading ``1 - mean_confidence``
as an error assumes each vote is the true answer.  It measures disagreement with the
model's own vote, not error against the truth: on the default run, seeds 0-9, ``rtc`` lay
below the true pseudo-label error in 47 of 180 post-warmup epochs; ``delta = 0.05`` allows 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ConfigError, check_field_types, shown

__all__ = [
    "BoundConfig",
    "BoundReport",
    "hoeffding_term",
    "tc_risk",
    "bound_report",
]


@dataclass(frozen=True)
class BoundConfig:
    """Free constants of the bound: mismatch weight, label-space diameter, confidence level."""

    alpha: float = 1.0
    label_diameter: float = 1.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        check_field_types(self)
        for name, value in (("alpha", self.alpha), ("label_diameter", self.label_diameter)):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {shown(value)}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {shown(self.delta)}")


@dataclass(frozen=True)
class BoundReport:
    """One epoch's bound ingredients and the assembled risk value."""

    epoch: int
    empirical_risk_labeled: float | None
    mean_divergence: float
    mean_confidence: float
    hoeffding_term: float
    rtc: float
    n: int
    G: int


def hoeffding_term(n: int, group_size: int, delta: float) -> float:
    """Finite-sample pseudo-label slack ``sqrt(ln(2 n / delta) / (2 G))``; a delta so small
    that ``2 n / delta`` overflows is a ``ConfigError``."""
    if n < 1 or group_size < 1:
        raise ValueError("n and group_size must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    slack = math.sqrt(math.log(2.0 * n / delta) / (2.0 * group_size))
    if math.isfinite(slack):
        return slack
    raise ConfigError(f"delta {delta!r} is too small: 2 n / delta overflows at n = {n}")


def _risk(config: BoundConfig, mean_divergence: float, mean_confidence: float, slack: float) -> float:
    """``rtc`` from its observable ingredients and the slack; refuse an overflow."""
    if not 0.0 <= mean_divergence <= 1.0:
        raise ValueError("mean divergence must lie in [0, 1]")
    if not 0.0 <= mean_confidence <= 1.0:
        raise ValueError("mean confidence must lie in [0, 1]")
    risk = config.alpha * mean_divergence + config.label_diameter * (1.0 - mean_confidence + slack)
    if math.isfinite(risk):
        return risk
    raise ConfigError(f"rtc overflows with alpha {config.alpha!r} and label_diameter {config.label_diameter!r}")


def tc_risk(
    config: BoundConfig,
    mean_divergence: float,
    mean_confidence: float,
    n: int,
    group_size: int,
) -> float:
    """Assemble the monitored risk value from its observable ingredients and ``n`` and ``G``."""
    return _risk(config, mean_divergence, mean_confidence, hoeffding_term(n, group_size, config.delta))


def bound_report(
    config: BoundConfig,
    epoch: int,
    scores: Mapping[int, float],
    confidences: Sequence[float],
    group_size: int,
) -> BoundReport:
    """One epoch's risk-monitor report from its trajectory scores and vote confidences.

    ``n`` is the number of confidences, one per voted question.  ``mean_divergence``
    averages ``1 - tcs`` in the iteration order of ``scores`` (the last bit depends on
    it).  ``empirical_risk_labeled`` needs hidden answers, so it is always None.
    """
    n = len(confidences)
    if not scores or not n:
        raise ValueError("a bound report needs at least one trajectory score and one confidence")
    mean_div = float(np.mean([1.0 - s for s in scores.values()]))
    mean_conf = float(np.mean(confidences))
    slack = hoeffding_term(n, group_size, config.delta)
    return BoundReport(
        epoch=epoch,
        empirical_risk_labeled=None,
        mean_divergence=mean_div,
        mean_confidence=mean_conf,
        hoeffding_term=slack,
        rtc=_risk(config, mean_div, mean_conf, slack),
        n=n,
        G=group_size,
    )
