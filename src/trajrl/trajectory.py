"""Pass-rate trajectories, the reliable database, and cosine-matched selection.

Each question accumulates one pass rate per epoch: labeled questions score
against their gold answer, unlabeled ones against that epoch's majority
pseudo-label.  A database of "reliable" members (all labeled questions plus
whatever unlabeled questions have been admitted) defines a reference
trajectory; unlabeled questions are admitted when the cosine between their
trajectory and the reference clears a threshold, or when they rank in the
top fraction by that score.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import RolloutGroup
from .rewards import verify_block

__all__ = [
    "pass_rate",
    "TrajectoryStore",
    "ReliableDatabase",
    "SelectionMask",
    "tcs",
    "tcs_max",
    "tcs_max_rows",
    "tcs_rows",
    "reliable_average",
    "select",
    "update_db",
    "write_trajectories_csv",
]

# Absolute slack when turning top_p * n into a count, so that binary float
# artifacts like 0.07 * 100 = 7.000000000000001 do not admit an extra id.
_CEIL_SLACK = 1e-12


def pass_rate(group: RolloutGroup, target: int) -> float:
    """Fraction of the group's answers that equal ``target``: the mean of its hits."""
    return float(verify_block(group.answers[None], np.array([target]), group.num_tokens).mean())


class TrajectoryStore:
    """Pass-rate trajectories as one (N, T) matrix, recorded one epoch per call.

    Row i belongs to the i-th question id given to the constructor and column t
    is epoch t + 1, so every trajectory has the same length by construction.
    The matrix is the first T columns of a buffer whose column capacity doubles
    when full, so recording T epochs copies O(N·T) floats in all.
    """

    def __init__(self, question_ids: Iterable[int]) -> None:
        self._row: dict[int, int] = {}
        for q in map(int, question_ids):
            if q in self._row:
                raise ValueError(f"question id {q} is repeated")
            self._row[q] = len(self._row)
        if not self._row:
            raise ValueError("a trajectory store needs at least one question")
        self._buffer = np.empty((len(self._row), 0))
        self._epochs = 0

    @property
    def question_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._row))

    def record(self, rates: np.ndarray) -> None:
        """Append one epoch: one pass rate in [0, 1] per question, in construction order."""
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (len(self._row),):
            raise ValueError(f"an epoch has {len(self._row)} pass rates, got shape {rates.shape}")
        outside = ~((rates >= 0.0) & (rates <= 1.0))
        if outside.any():
            raise ValueError(f"pass rate must lie in [0, 1], got {rates[outside][0]}")
        if self._epochs == self._buffer.shape[1]:
            grown = np.empty((len(self._row), max(1, 2 * self._epochs)))
            grown[:, : self._epochs] = self._buffer
            self._buffer = grown
        self._buffer[:, self._epochs] = rates
        self._epochs += 1

    def get(self, question_id: int) -> np.ndarray:
        return self._buffer[self._row[question_id], : self._epochs].copy()

    def as_matrix(self, question_ids: Sequence[int], length: int) -> np.ndarray:
        """The first ``length`` epochs of each question's row, as a new array of shape
        ``(len(question_ids), length)``.  A ``length`` beyond the recorded epochs raises."""
        if not 0 <= length <= self._epochs:
            raise ValueError(f"length {length} lies outside the {self._epochs} recorded epochs")
        return self._buffer[[self._row[q] for q in question_ids], :length]


@dataclass
class ReliableDatabase:
    """Membership (by question id) in the reliable set.

    Labeled questions are permanent members from epoch 0.  Unlabeled members
    come and go according to the update policy: ``additive`` keeps every id
    ever selected, ``recompute`` rebuilds membership from the latest mask.
    """

    labeled_ids: frozenset[int]
    member_ids: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, labeled_ids: Iterable[int]) -> "ReliableDatabase":
        ids = frozenset(int(q) for q in labeled_ids)
        if not ids:
            raise ValueError("the reliable database needs at least one labeled question")
        return cls(ids, set(ids))

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_ids))


@dataclass(frozen=True)
class SelectionMask:
    """Selected unlabeled ids for one epoch, plus the scores behind the choice."""

    epoch: int
    selected: frozenset[int]
    tcs_scores: Mapping[int, float]

    def __post_init__(self) -> None:
        unknown = self.selected - set(self.tcs_scores)
        if unknown:
            raise ValueError(f"selected ids without scores: {sorted(unknown)}")


def tcs(trajectory: np.ndarray, reference: np.ndarray) -> float:
    """Cosine similarity between two pass-rate trajectories.

    Both inputs must have the same length; an all-zero vector on either side
    scores 0.  For nonnegative trajectories the result lies in [0, 1], and
    a trajectory always scores exactly 1 against itself.
    """
    a = np.asarray(trajectory, dtype=float, order="C")
    b = np.asarray(reference, dtype=float, order="C")
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("trajectories must be 1-D and of equal length")
    a, b = a[None], b[None]
    return float(_cosines(a, b, _norms(a), _norms(b))[0])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i].dot(b[i])`` for each row pair of two (P, T) float arrays, bit for bit.

    A stack of vector-by-vector products runs BLAS ``ddot`` once per pair, as
    ``ndarray.dot`` does; a plain matrix product may round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a C-contiguous (P, T) float array, bit for bit."""
    return np.sqrt(_dots(x, x))


def _cosines(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """``tcs`` of each row pair of two (P, T) float arrays whose row norms are
    ``na`` and ``nb``: 0 when either norm is 0, else 1.0 when the rows are
    equal, else ``min(dot / (na * nb), 1.0)``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores = np.minimum(_dots(a, b) / (na * nb), 1.0)
    scores[(a == b).all(axis=1)] = 1.0
    scores[(na == 0.0) | (nb == 0.0)] = 0.0
    return scores


def reliable_average(
    db: ReliableDatabase, store: TrajectoryStore, length: int
) -> np.ndarray:
    """Elementwise mean trajectory over current database members."""
    members = db.sorted_members
    if not members:
        raise ValueError("the reliable database is empty")
    return store.as_matrix(members, length).mean(axis=0)


def tcs_max_rows(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Best ``tcs`` of each row against any member, shape ``(N,)``.

    Equals ``max(tcs(row, m) for m in members)`` for every row, bit for bit.
    One matrix product scores every (row, member) pair approximately; only
    the pairs whose approximate score lies within rounding slack of the
    row's best are rescored, all at once, with ``tcs``'s own arithmetic on
    norms computed once per row and per member, and the row's result is
    their max.
    """
    rows = np.asarray(rows, dtype=float, order="C")
    members = np.asarray(members, dtype=float, order="C")
    if rows.ndim != 2 or members.ndim != 2 or rows.shape[1] != members.shape[1]:
        raise ValueError("rows and members must be 2-D with trajectories of equal length")
    if members.shape[0] == 0:
        raise ValueError("the reliable database is empty")
    row_norms = _norms(rows)
    member_norms = _norms(members)
    with np.errstate(divide="ignore", invalid="ignore"):
        approx = (rows @ members.T) / np.outer(row_norms, member_norms)
    # A zero norm on either side scores 0, as in ``tcs``.
    approx[~np.isfinite(approx)] = 0.0
    np.minimum(approx, 1.0, out=approx)
    # Rescoring slack.  With unit roundoff u = eps / 2, each way of computing
    # the cosine of two length-T vectors lies within (2T + 4)u of the exact
    # value when nothing underflows (pass rates k/G never do): the dot product
    # errs by at most T*u*|a||b| in any summation order, each norm by about
    # (T/2 + 1)u relative, the product and quotient by u each, and clamping
    # at 1 only shrinks errors.  So this score and
    # ``tcs`` differ by at most (2T + 4)eps, and the member that ``tcs`` ranks
    # best scores within twice that of the row's best here.  8(T + 4)eps
    # doubles that again.
    slack = 8.0 * (rows.shape[1] + 4) * np.finfo(float).eps
    cutoff = approx.max(axis=1) - slack
    pair_rows, pair_members = np.nonzero(approx >= cutoff[:, None])
    scores = _cosines(
        rows[pair_rows], members[pair_members], row_norms[pair_rows], member_norms[pair_members]
    )
    # fmax, like Python's max, never lets a NaN score (inputs beyond float
    # range) replace a row's best.
    best = np.full(rows.shape[0], -np.inf)
    np.fmax.at(best, pair_rows, scores)
    return best


def tcs_rows(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``tcs`` of each row against one reference, shape ``(N,)``: ``tcs``'s own arithmetic
    once per row, except that a NaN score becomes -inf, as in ``tcs_max_rows``."""
    rows = np.asarray(rows, dtype=float, order="C")
    reference = np.asarray(reference, dtype=float, order="C")[None]
    if rows.ndim != 2 or reference.shape != (1, rows.shape[1]):
        raise ValueError("rows must be 2-D with trajectories as long as the reference")
    scores = _cosines(rows, reference, _norms(rows), _norms(reference))
    return np.where(np.isnan(scores), -np.inf, scores)


def tcs_max(
    trajectory: np.ndarray, db: ReliableDatabase, store: TrajectoryStore, length: int
) -> float:
    """Best cosine match against any single database member's trajectory."""
    members = store.as_matrix(db.sorted_members, length)
    row = np.asarray(trajectory, dtype=float).reshape(1, -1)
    return float(tcs_max_rows(row, members)[0])


def select(
    tcs_scores: Mapping[int, float], top_p: float, gamma: float, epoch: int = 0
) -> SelectionMask:
    """Union of the top-``ceil(top_p * n)`` scorers and everything at or above ``gamma``.

    Ranking is a stable sort of the negated scores over ascending ids, so ties go to
    the smaller id and the mask is a pure function of the score map; a NaN raises.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if top_p > 1.0:
        raise ValueError("top_p must not exceed 1")
    ids, n = sorted(tcs_scores), len(tcs_scores)
    scores = np.fromiter(map(tcs_scores.__getitem__, ids), float, n)
    if np.isnan(scores).any():
        raise ValueError("a selection score is NaN")
    count = min(max(math.ceil(top_p * n - _CEIL_SLACK), 1), n) if top_p > 0.0 and n else 0
    chosen = scores >= gamma
    chosen[np.argsort(-scores, kind="stable")[:count]] = True
    return SelectionMask(epoch, frozenset(compress(ids, chosen.tolist())), dict(tcs_scores))


def update_db(db: ReliableDatabase, mask: SelectionMask, policy: str) -> ReliableDatabase:
    """Fold a selection mask into the database under the given policy.

    ``additive`` is monotone (ids are only ever added); ``recompute`` keeps
    exactly the labeled ids plus the currently selected ones.
    """
    if policy == "additive":
        members = set(db.member_ids) | set(mask.selected)
    elif policy == "recompute":
        members = set(db.labeled_ids) | set(mask.selected)
    else:
        raise ValueError(f"unknown database policy {policy!r}")
    return ReliableDatabase(db.labeled_ids, members)


def write_trajectories_csv(
    store: TrajectoryStore, split_of: Mapping[int, str], path: str
) -> None:
    """Dump every (question, epoch) pass rate as csv rows ``qid,split,epoch,pass_rate``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["qid", "split", "epoch", "pass_rate"])
        for qid in store.question_ids:
            split = split_of[qid]
            for epoch, rate in enumerate(store.get(qid), start=1):
                writer.writerow([qid, split, epoch, f"{rate:.6f}"])
