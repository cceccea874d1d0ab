"""Commuting graphs of partial/full transformation semigroups as implicit graphs.

The vertex set of the graph of a semigroup is the semigroup minus its center
({empty, identity} for all partial maps, {identity} for full maps).  Scans are
vectorised over dense element-id matrices; the backtracking enumerator builds
centralizer members point by point instead of scanning the whole universe.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .ptrans import UNDEF, ElementId, PTrans, SizeMismatchError, compose, empty, identity

DEFAULT_ELEMENT_BUDGET = 300_000
BUDGET_ENV_VAR = "COMMGRAPH_BUDGET_ELEMS"


class BudgetExceededError(RuntimeError):
    """A scan would touch more elements than the configured budget allows."""


class NotAVertexError(ValueError):
    """The element is central (or outside the ambient semigroup)."""


class Universe(Enum):
    """Which elements a query ranges over."""

    ALL_PARTIAL = "partial"
    FULL = "full"
    PERMUTATIONS = "permutations"
    STRICTLY_PARTIAL = "strictly-partial"


def element_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    return int(raw) if raw else DEFAULT_ELEMENT_BUDGET


def universe_size(n: int, universe: Universe) -> int:
    if universe is Universe.ALL_PARTIAL:
        return (n + 1) ** n
    if universe is Universe.FULL:
        return n**n
    if universe is Universe.PERMUTATIONS:
        return math.factorial(n)
    return (n + 1) ** n - n**n


def pick_strategy(n: int, universe: Universe, strategy: str = "auto") -> str:
    """Resolve a neighbor strategy: ``auto`` scans while the universe fits the
    element budget and backtracks beyond it."""
    if strategy == "auto":
        return "scan" if universe_size(n, universe) <= element_budget() else "backtrack"
    if strategy not in ("scan", "backtrack"):
        raise ValueError(f"unknown neighbor strategy {strategy!r}")
    return strategy


def check_scan_budget(n: int, universe: Universe, *, long_run: bool = False) -> None:
    size = universe_size(n, universe)
    if long_run:
        return
    budget = element_budget()
    if size > budget:
        raise BudgetExceededError(
            f"scanning {size} elements exceeds the budget of {budget}; "
            f"set {BUDGET_ENV_VAR} or pass long_run=True to allow it"
        )


# -- dense element matrices ------------------------------------------------------
#
# Row t of the ALL_PARTIAL matrix holds the images of element id t, with the
# value n standing for an undefined image.  The row index equals the element id.


def row_of(t: PTrans) -> np.ndarray:
    return np.array([t.n if v == UNDEF else v for v in t.images], dtype=np.uint8)


def ptrans_of_row(row: np.ndarray, n: int) -> PTrans:
    return PTrans(n, tuple(UNDEF if int(v) == n else int(v) for v in row))


def ids_of_rows(rows: np.ndarray, n: int) -> np.ndarray:
    weights = (n + 1) ** np.arange(n, dtype=np.int64)
    return rows.astype(np.int64) @ weights


def decode_id_range(n: int, start: int, stop: int) -> np.ndarray:
    """Image rows for the contiguous id range [start, stop)."""
    ids = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, n), dtype=np.uint8)
    for x in range(n):
        out[:, x] = (ids // (n + 1) ** x) % (n + 1)
    return out


@lru_cache(maxsize=16)
def _universe_elements(n: int, universe: Universe) -> tuple[np.ndarray, np.ndarray]:
    """(rows, ids) of every element of the universe, in increasing id order."""
    if universe is Universe.ALL_PARTIAL:
        rows = decode_id_range(n, 0, (n + 1) ** n)
        return rows, np.arange(len(rows), dtype=np.int64)
    if universe is Universe.FULL:
        ids = np.arange(n**n, dtype=np.int64)
        rows = np.empty((n**n, n), dtype=np.uint8)
        for x in range(n):
            rows[:, x] = (ids // n**x) % n
        return rows, ids_of_rows(rows, n)
    if universe is Universe.PERMUTATIONS:
        rows = np.fromiter(permutations(range(n)), dtype=np.dtype((np.uint8, n)),
                           count=math.factorial(n))
        ids = ids_of_rows(rows, n)
        order = np.argsort(ids)
        return rows[order], ids[order]
    rows, ids = _universe_elements(n, Universe.ALL_PARTIAL)
    strict = (rows == n).any(axis=1)
    return rows[strict], ids[strict]


def universe_elements(n: int, universe: Universe, *, long_run: bool = False) -> tuple[np.ndarray, np.ndarray]:
    check_scan_budget(n, universe, long_run=long_run)
    return _universe_elements(n, universe)


def commute_mask(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Boolean mask over ``rows``: which elements commute with ``u``."""
    n = rows.shape[1]
    u_ext = np.append(u, n).astype(rows.dtype)
    tu = u_ext[rows]
    ut = np.full_like(rows, n)
    defined = u != n
    if defined.any():
        ut[:, defined] = rows[:, u[defined]]
    return (tu == ut).all(axis=1)


def commute_masks_batch(rows: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """(k, V) mask: batch[i] commutes with rows[t].  Memory is k*V*n bytes twice."""
    n = rows.shape[1]
    k = len(batch)
    fill = np.full((k, 1), n, dtype=batch.dtype)
    batch_ext = np.concatenate([batch, fill], axis=1)
    tu = batch_ext[:, rows]
    rows_ext = np.concatenate([rows, np.full((len(rows), 1), n, rows.dtype)], axis=1)
    ut = rows_ext[:, batch].transpose(1, 0, 2)
    return (tu == ut).all(axis=2)


# -- semigroup-level queries ------------------------------------------------------


def commutes(a: PTrans, b: PTrans) -> bool:
    return compose(a, b) == compose(b, a)


def center(n: int, semigroup: Universe, mode: str = "analytic") -> list[PTrans]:
    """Central elements of the chosen semigroup, sorted by element id.

    ``analytic`` returns the known closed form; ``brute`` verifies it by
    definition and is guarded to n <= 5.
    """
    if semigroup not in (Universe.ALL_PARTIAL, Universe.FULL):
        raise ValueError("center is defined for the partial or full semigroup")
    if mode == "analytic":
        if semigroup is Universe.ALL_PARTIAL:
            return [identity(n), empty(n)]
        return [identity(n)]
    if mode != "brute":
        raise ValueError(f"unknown center mode {mode!r}")
    if n > 5:
        raise BudgetExceededError(f"brute-force center is limited to n <= 5, got n={n}")
    rows, ids = _universe_elements(n, semigroup)
    cand = np.arange(len(rows))
    for j in range(len(rows)):
        cand = cand[commute_mask(rows[cand], rows[j])]
    return [ptrans_of_row(rows[i], n) for i in cand[np.argsort(ids[cand])]]


def center_ids(g: "CommGraph") -> frozenset[ElementId]:
    ids = {identity(g.n).encode()}
    if g.semigroup is Universe.ALL_PARTIAL:
        ids.add(empty(g.n).encode())
    return frozenset(ids)


@dataclass(frozen=True)
class CommGraph:
    """Implicit commuting graph of the partial (or full) transformation semigroup."""

    n: int
    semigroup: Universe = Universe.ALL_PARTIAL

    def __post_init__(self) -> None:
        if self.semigroup not in (Universe.ALL_PARTIAL, Universe.FULL):
            raise ValueError("the ambient semigroup must be ALL_PARTIAL or FULL")
        if self.n < 2:
            raise ValueError("the commuting graph needs n >= 2 (smaller semigroups are commutative)")

    def vertex_count(self) -> int:
        return universe_size(self.n, self.semigroup) - len(center_ids(self))


def is_vertex(g: CommGraph, t: PTrans) -> bool:
    if t.n != g.n:
        raise SizeMismatchError(f"element on {t.n} points vs graph on {g.n} points")
    if g.semigroup is Universe.FULL and not t.is_full():
        raise NotAVertexError(f"{t!r} is not a full transformation, so not in this semigroup")
    return t.encode() not in center_ids(g)


def _backtrack_images(
    subjects: Sequence[PTrans], universe: Universe, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All image tuples commuting with every subject, found by constraint-guided search.

    Setting g(x) forces, for each subject s, g(xs) = (g(x))s when that value is
    defined and g(xs) undefined otherwise; points outside dom(s) may not map
    into dom(s).  Every subject prunes every branch, so the cost tracks the
    size of the joint centralizer, not that of any one subject's centralizer
    or of the universe.  A single subject is the one-element case.

    With a ``budget``, BudgetExceededError is raised once the search has
    visited more than that many nodes.
    """
    n = subjects[0].n
    imgs = [s.images for s in subjects]
    full_only = universe in (Universe.FULL, Universe.PERMUTATIONS)
    perm_only = universe is Universe.PERMUTATIONS
    NOT_SET = -2
    val = [NOT_SET] * n
    used = [0] * n
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def try_assign(p: int, w: int, trail: list[int]) -> bool:
        stack = [(p, w)]
        while stack:
            q, u = stack.pop()
            cur = val[q]
            if cur != NOT_SET:
                if cur != u:
                    return False
                continue
            if u == UNDEF:
                if full_only:
                    return False
            else:
                if perm_only and used[u]:
                    return False
                for s in imgs:
                    if s[q] == UNDEF and s[u] != UNDEF:
                        return False
            val[q] = u
            trail.append(q)
            if u != UNDEF:
                used[u] += 1
            for s in imgs:
                if s[q] != UNDEF:
                    stack.append((s[q], UNDEF if u == UNDEF else s[u]))
        return True

    def unwind(trail: list[int]) -> None:
        for q in trail:
            if val[q] != UNDEF:
                used[val[q]] -= 1
            val[q] = NOT_SET

    def dfs(pos: int) -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"backtracking search visited more than {budget} nodes; "
                f"set {BUDGET_ENV_VAR} or pass long_run=True to allow it"
            )
        while pos < n and val[pos] != NOT_SET:
            pos += 1
        if pos == n:
            sol = tuple(val)
            if universe is not Universe.STRICTLY_PARTIAL or UNDEF in sol:
                solutions.append(sol)
            return
        first = [] if full_only else [UNDEF]
        for w in first + list(range(n)):
            trail: list[int] = []
            if try_assign(pos, w, trail):
                dfs(pos + 1)
            unwind(trail)

    dfs(0)
    return solutions


def centralizer(
    a: PTrans | Sequence[PTrans],
    universe: Universe = Universe.ALL_PARTIAL,
    strategy: str = "auto",
    *,
    long_run: bool = False,
) -> list[PTrans]:
    """Every element of the universe commuting with ``a``, sorted by element id.

    ``a`` may also be a sequence of elements; the result is then their joint
    centralizer.  The scan strategy is bounded by the element budget, the
    backtrack strategy by the same number of search nodes; ``long_run``
    lifts both.
    """
    subjects = [a] if isinstance(a, PTrans) else list(a)
    if not subjects:
        raise ValueError("a centralizer needs at least one element")
    n = subjects[0].n
    if any(s.n != n for s in subjects):
        raise SizeMismatchError("the elements of a joint centralizer must share one ground set")
    if pick_strategy(n, universe, strategy) == "scan":
        rows, ids = universe_elements(n, universe, long_run=long_run)
        mask = np.ones(len(rows), dtype=bool)
        for s in subjects:
            mask &= commute_mask(rows, row_of(s))
        picked = rows[mask]
        order = np.argsort(ids[mask])
        return [ptrans_of_row(picked[i], n) for i in order]
    sols = _backtrack_images(subjects, universe, None if long_run else element_budget())
    elems = [PTrans(n, s) for s in sols]
    elems.sort(key=lambda t: t.encode())
    return elems


def neighbors(g: CommGraph, a: PTrans, strategy: str = "auto") -> Iterator[PTrans]:
    """Vertices adjacent to ``a``, in increasing element id order."""
    if not is_vertex(g, a):
        raise NotAVertexError(f"{a!r} is central, not a vertex")
    skip = set(center_ids(g)) | {a.encode()}
    for t in centralizer(a, g.semigroup, strategy):
        if t.encode() not in skip:
            yield t
