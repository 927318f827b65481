"""Reward signals for rollout groups.

Labeled questions are scored against their gold answer.  Unlabeled questions
get one of four self-supervised proxies:

* ``majority``: agreement with the group's majority-voted answer,
* ``self_certainty``: mean log-probability of the sampled tokens relative to
  a uniform baseline, ``(1/L) * sum_s (log p_s(t_s) + log K)``,
* ``token_entropy``: negative mean step entropy (confident groups score high),
* ``sentence_entropy``: total log-probability of the sampled response.

The hybrid entry point dispatches on whether the question carries a gold
answer, so the same training loop works for both splits.  Each formula is a
block kernel over B groups (``verify_block``, ``majority_votes``,
``reward_block``); the per-group functions call it on a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import REWARD_KINDS, Question, RolloutGroup, sampled_probs

__all__ = [
    "RewardVector",
    "verify_block",
    "majority_vote",
    "majority_votes",
    "reward_block",
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


def verify_block(
    answers: np.ndarray, gold: np.ndarray, num_tokens: int | None = None
) -> np.ndarray:
    """Binary correctness of (B, G) answers against each row's gold token; shape (B, G)."""
    if answers.min() < 0 or gold.min() < 0:
        raise ValueError("token indices must be nonnegative")
    if num_tokens is not None and (answers.max() >= num_tokens or gold.max() >= num_tokens):
        raise ValueError("token index out of range")
    return (answers == gold[:, None]).astype(float)


def majority_votes(answers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vote of each row of (B, G) answers: ``(winners, confidences, tie_flags)``, each (B,).

    ``confidence`` is the winning fraction; ties are broken toward the
    smallest token index and flagged.
    """
    if answers.min(initial=0) < 0:
        raise ValueError("token indices must be nonnegative")
    votes = (answers[:, :, None] == answers[:, None, :]).sum(axis=2)  # votes for each answer
    top = votes.max(axis=1)
    is_top = votes == top[:, None]
    winners = np.where(is_top, answers, answers.max(initial=0)).min(axis=1)
    ties = np.any(is_top & (answers != winners[:, None]), axis=1)
    return winners, top / answers.shape[1], ties


def majority_vote(answers: np.ndarray) -> tuple[int, float, bool]:
    """``majority_votes`` of one vector of answers, as ``(winner, confidence, tie_flag)``."""
    ans = np.asarray(answers)
    if ans.ndim != 1 or ans.size == 0:
        raise ValueError("answers must be a nonempty 1-D vector")
    winners, confidences, ties = majority_votes(ans[None])
    return int(winners[0]), float(confidences[0]), bool(ties[0])


def _proxy_values(kind: str, responses: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """The label-free proxies of a block: (B, G, L) responses from (B, L, K) dists -> (B, G)."""
    if kind == "token_entropy":
        # Every rollout samples from the same (L, K) distributions, so they
        # all get the same value.
        d = dists
        step_entropy = -np.sum(np.where(d > 0.0, d * np.log(np.where(d > 0.0, d, 1.0)), 0.0), axis=-1)
        return np.repeat(-step_entropy.mean(axis=1)[:, None], responses.shape[1], axis=1)
    if kind not in ("self_certainty", "sentence_entropy"):
        raise ValueError(f"unknown proxy reward kind {kind!r}; expected one of {REWARD_KINDS}")
    probs = sampled_probs(dists, responses)
    if np.any(probs <= 0.0):
        raise ValueError("sampled token has zero recorded probability; group is corrupted")
    log_probs = np.log(probs)
    if kind == "self_certainty":
        return log_probs.mean(axis=2) + np.log(dists.shape[-1])
    return log_probs.sum(axis=2)


def reward_block(
    kind: str,
    responses: np.ndarray,
    dists: np.ndarray,
    hits: np.ndarray,
    labeled: np.ndarray,
) -> np.ndarray:
    """Per-rollout rewards of a block of groups, shape (B, G).

    ``responses`` (B, G, L) were drawn from ``dists`` (B, L, K); ``hits``
    (B, G) is ``verify_block`` of their answers against each row's target.  A
    labeled row (``labeled[b]``) is rewarded with its hits against gold, so it
    never depends on what the rest of its group sampled.  An unlabeled row gets
    the ``kind`` proxy; ``majority`` rewards its hits against the vote winner.
    """
    values = np.array(hits, dtype=float)
    proxied = ~labeled if kind != "majority" else np.zeros_like(labeled)
    if proxied.any():
        values[proxied] = _proxy_values(kind, responses[proxied], dists[proxied])
    if not np.all(np.isfinite(values)):
        raise ValueError("reward values must be finite")
    return values


def hybrid_reward(question: Question, group: RolloutGroup, kind: str) -> RewardVector:
    """Verify against gold when the question is labeled, otherwise use the ``kind`` proxy.

    This is ``verify_block`` and ``reward_block`` on a block of one group, so
    the labeled branch depends only on each rollout's own answer: a labeled
    question can never be dragged by what the rest of the group happened to
    sample.  The majority proxy also reports its vote.
    """
    if question.question_id != group.question_id:
        raise ValueError("question/group id mismatch")
    gold = question.gold_answer
    vote, target = None, 0 if gold is None else gold  # a proxy reads no target
    if gold is None and kind == "majority":
        vote = majority_vote(group.answers)
        target = vote[0]
    hits = verify_block(group.answers[None], np.array([target]), group.num_tokens)
    responses, dists = group.responses[None], group.step_distributions[None]
    values = reward_block(kind, responses, dists, hits, np.array([gold is not None]))[0]
    if vote is None:
        return RewardVector(group.question_id, group.epoch, values)
    return RewardVector(group.question_id, group.epoch, values, *vote)
