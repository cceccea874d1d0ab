"""Independent reference for the benchmark's correctness checks.

Nothing here imports commgraph.  An element is a tuple of images on the
points 0..n-1, with None for an undefined image; composition applies the left
operand first, by definition.  Whole graphs use a numpy matrix of codes (0 for
an undefined image, 1 + image otherwise) and a dense boolean adjacency, which
is itself cross-checked against plain tuple composition on sampled pairs.
"""

from __future__ import annotations

import itertools
import random

import numpy as np


def parse_tabular(text: str) -> tuple:
    """``"2 - 1"`` (1-based, ``-`` undefined) -> ``(1, None, 0)``."""
    return tuple(None if tok == "-" else int(tok) - 1 for tok in text.split())


def fmt(t: tuple) -> str:
    return " ".join("-" if v is None else str(v + 1) for v in t)


def compose(a: tuple, b: tuple) -> tuple:
    """x(ab) = (xa)b: ``a`` acts first."""
    return tuple(None if v is None else b[v] for v in a)


def commutes(a: tuple, b: tuple) -> bool:
    return compose(a, b) == compose(b, a)


def identity(n: int) -> tuple:
    return tuple(range(n))


def empty(n: int) -> tuple:
    return (None,) * n


def is_full(t: tuple) -> bool:
    return None not in t


def is_central(t: tuple, full: bool) -> bool:
    """The center is {identity} in T(n) and {identity, empty} in P(n)."""
    n = len(t)
    return t == identity(n) or (not full and t == empty(n))


def conjugate(t: tuple, sigma: tuple) -> tuple:
    """Relabel the points by the permutation sigma; a graph automorphism."""
    out = [None] * len(t)
    for x, v in enumerate(t):
        out[sigma[x]] = None if v is None else sigma[v]
    return tuple(out)


def power(t: tuple, k: int) -> tuple:
    acc = t
    for _ in range(k - 1):
        acc = compose(acc, t)
    return acc


def is_idempotent(t: tuple) -> bool:
    return compose(t, t) == t


def check_path(vertices: list[tuple], a: tuple, b: tuple, full: bool) -> str | None:
    """Edge-by-edge check of a path from a to b; returns a reason or None."""
    if not vertices or vertices[0] != a or vertices[-1] != b:
        return "path does not join the queried endpoints"
    if len(set(vertices)) != len(vertices):
        return "path repeats a vertex"
    for t in vertices:
        if len(t) != len(a) or is_central(t, full) or (full and not is_full(t)):
            return f"{fmt(t)} is not a vertex"
    for u, v in zip(vertices, vertices[1:]):
        if not commutes(u, v):
            return f"{fmt(u)} and {fmt(v)} do not commute"
    return None


_UNSET = object()


def joint_commuters(subjects: list[tuple], *, full_only: bool) -> list[tuple]:
    """Every map commuting with all the (full) subjects, by point-wise search.

    For a full subject s, g commutes with s iff x in dom g <=> s(x) in dom g and
    g(s(x)) = s(g(x)); so a value for g(x) forces g(s(x)).  Each solution is
    re-checked by composition.
    """
    n = len(subjects[0])
    if not all(is_full(s) for s in subjects):
        raise ValueError("joint_commuters handles full subjects only")
    values = list(range(n)) if full_only else [None] + list(range(n))
    out = []

    def assign(g: list, x: int, v) -> bool:
        todo = [(x, v)]
        while todo:
            p, w = todo.pop()
            if g[p] is not _UNSET:
                if g[p] != w:
                    return False
                continue
            if w is None and full_only:
                return False
            g[p] = w
            for s in subjects:
                todo.append((s[p], None if w is None else s[w]))
        return True

    def search(g: list) -> None:
        try:
            x = g.index(_UNSET)
        except ValueError:
            t = tuple(g)
            if all(commutes(t, s) for s in subjects):
                out.append(t)
            return
        for v in values:
            h = list(g)
            if assign(h, x, v):
                search(h)

    search([_UNSET] * n)
    return out


class Graph:
    """The commuting graph of P(n) (or T(n) when ``full``), built whole."""

    def __init__(self, n: int, full: bool, chunk: int = 64):
        self.n, self.full = n, full
        digits = range(1, n + 1) if full else range(n + 1)
        codes = np.array(list(itertools.product(digits, repeat=n)), dtype=np.uint8)
        elems = [tuple(None if d == 0 else int(d) - 1 for d in row) for row in codes]
        keep = [i for i, t in enumerate(elems) if not is_central(t, full)]
        self.codes = codes[keep]
        self.elems = [elems[i] for i in keep]
        self.index = {t: i for i, t in enumerate(self.elems)}
        V = len(self.elems)
        ext = np.concatenate([np.zeros((V, 1), np.uint8), self.codes], axis=1)
        adj = np.empty((V, V), dtype=bool)
        for lo in range(0, V, chunk):
            c = self.codes[lo : lo + chunk]
            c_ext = ext[lo : lo + chunk]
            c_then_t = ext[:, c].transpose(1, 0, 2)
            t_then_c = c_ext[np.arange(len(c))[:, None, None], self.codes[None, :, :]]
            adj[lo : lo + chunk] = (c_then_t == t_then_c).all(axis=2)
        np.fill_diagonal(adj, False)
        self.adj = adj

    def cross_check(self, samples: int, rng: random.Random) -> None:
        """Raise if the vectorised adjacency disagrees with tuple composition."""
        V = len(self.elems)
        for _ in range(samples):
            i, j = rng.randrange(V), rng.randrange(V)
            want = i != j and commutes(self.elems[i], self.elems[j])
            if bool(self.adj[i, j]) != want:
                raise AssertionError(f"reference adjacency wrong at {fmt(self.elems[i])}, {fmt(self.elems[j])}")

    def bfs(self, src: int) -> np.ndarray:
        dist = np.full(len(self.elems), -1, dtype=np.int64)
        dist[src] = 0
        frontier = np.array([src])
        level = 0
        while len(frontier):
            reach = self.adj[frontier].any(axis=0) & (dist < 0)
            frontier = np.nonzero(reach)[0]
            level += 1
            dist[frontier] = level
        return dist

    def distance(self, a: tuple, b: tuple) -> int | None:
        d = int(self.bfs(self.index[a])[self.index[b]])
        return None if d < 0 else d

    def components(self) -> list[list[int]]:
        label = np.full(len(self.elems), -1, dtype=np.int64)
        comps = []
        for s in range(len(self.elems)):
            if label[s] < 0:
                members = np.nonzero(self.bfs(s) >= 0)[0]
                label[members] = len(comps)
                comps.append(members.tolist())
        return comps

    def diameter(self) -> int | None:
        """Largest finite eccentricity, or None when disconnected."""
        best = 0
        for s in range(len(self.elems)):
            dist = self.bfs(s)
            if (dist < 0).any():
                return None
            best = max(best, int(dist.max()))
        return best
