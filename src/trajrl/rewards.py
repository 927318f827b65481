"""Reward signals for rollout groups.

Labeled questions are scored against their gold answer.  Unlabeled questions
get one of four self-supervised proxies:

* ``majority``: agreement with the group's majority-voted answer,
* ``self_certainty``: mean log-probability of the sampled tokens relative to
  a uniform baseline, ``(1/L) * sum_s (log p_s(t_s) + log K)``,
* ``token_entropy``: negative mean step entropy (confident groups score high),
* ``sentence_entropy``: total log-probability of the sampled response.

The hybrid entry point dispatches on whether the question carries a gold
answer, so the same training loop works for both splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import REWARD_KINDS, Question, RolloutGroup

__all__ = [
    "RewardVector",
    "verify",
    "majority_vote",
    "proxy_reward",
    "hybrid_reward",
]


@dataclass(frozen=True)
class RewardVector:
    """Per-rollout rewards for one group.

    ``pseudo_label`` and ``confidence`` are populated only by the majority
    proxy; ``tie_flag`` records whether the vote had to break a tie (lowest
    token index wins).
    """

    question_id: int
    epoch: int
    values: np.ndarray
    pseudo_label: int | None = None
    confidence: float | None = None
    tie_flag: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("reward values must be a 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("reward values must be finite")
        object.__setattr__(self, "values", vals)
        if (self.pseudo_label is None) != (self.confidence is None):
            raise ValueError("confidence must be present exactly when pseudo_label is")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")


def verify(answer: int, gold: int, num_tokens: int | None = None) -> float:
    """Binary correctness of a single answer against the gold token."""
    if answer < 0 or gold < 0:
        raise ValueError("token indices must be nonnegative")
    if num_tokens is not None and (answer >= num_tokens or gold >= num_tokens):
        raise ValueError("token index out of range")
    return 1.0 if answer == gold else 0.0


def majority_vote(answers: np.ndarray) -> tuple[int, float, bool]:
    """Return ``(winner, confidence, tie_flag)`` for a vector of answers.

    ``confidence`` is the winning fraction; ties are broken toward the
    smallest token index and flagged.
    """
    ans = np.asarray(answers)
    if ans.ndim != 1 or ans.size == 0:
        raise ValueError("answers must be a nonempty 1-D vector")
    if ans.min() < 0:
        raise ValueError("token indices must be nonnegative")
    counts = np.bincount(ans)
    top = counts.max()
    winners = np.flatnonzero(counts == top)
    return int(winners[0]), float(top) / float(ans.size), bool(winners.size > 1)


def _majority_values(group: RolloutGroup) -> tuple[np.ndarray, int, float, bool]:
    label, conf, tie = majority_vote(group.answers)
    values = (group.answers == label).astype(float)
    return values, label, conf, tie


def _sampled_log_probs(group: RolloutGroup) -> np.ndarray:
    """Log-probability of each sampled token, shape (G, L)."""
    s_idx = np.arange(group.response_length)[None, :]
    probs = group.step_distributions[s_idx, group.responses]
    if np.any(probs <= 0.0):
        raise ValueError("sampled token has zero recorded probability; group is corrupted")
    return np.log(probs)


def proxy_reward(kind: str, group: RolloutGroup) -> RewardVector:
    """Self-supervised reward vector of the requested kind for an unlabeled group."""
    if kind == "majority":
        values, label, conf, tie = _majority_values(group)
        return RewardVector(group.question_id, group.epoch, values, label, conf, tie)
    if kind == "self_certainty":
        log_k = np.log(group.num_tokens)
        values = _sampled_log_probs(group).mean(axis=1) + log_k
        return RewardVector(group.question_id, group.epoch, values)
    if kind == "token_entropy":
        # Every rollout samples from the same (L, K) distributions, so they
        # all get the same value.
        d = group.step_distributions
        step_entropy = -np.sum(np.where(d > 0.0, d * np.log(np.where(d > 0.0, d, 1.0)), 0.0), axis=-1)
        values = np.full(group.group_size, -step_entropy.mean())
        return RewardVector(group.question_id, group.epoch, values)
    if kind == "sentence_entropy":
        return RewardVector(group.question_id, group.epoch, _sampled_log_probs(group).sum(axis=1))
    raise ValueError(f"unknown proxy reward kind {kind!r}; expected one of {REWARD_KINDS[1:]}")


def hybrid_reward(question: Question, group: RolloutGroup, kind: str) -> RewardVector:
    """Verify against gold when the question is labeled, otherwise use the proxy.

    The labeled branch depends only on each rollout's own answer, so a
    labeled question can never be dragged by what the rest of the group
    happened to sample.
    """
    if question.question_id != group.question_id:
        raise ValueError("question/group id mismatch")
    if question.gold_answer is not None:
        values = np.array(
            [verify(int(a), question.gold_answer, group.num_tokens) for a in group.answers]
        )
        return RewardVector(group.question_id, group.epoch, values)
    if kind == "verifiable":
        raise ValueError("verifiable rewards require a labeled question")
    return proxy_reward(kind, group)
