"""Distances, components and diameters over the implicit commuting graph.

Two searches cover every query, and neither materialises the graph:

* the pair search behind ``bfs_distance`` and ``shortest_path`` grows level
  sets from both endpoints, always the side with the smaller frontier, until
  they meet; the path is rebuilt by walking back from b, each step to the
  minimum-index neighbour one level closer to a;
* the single-source sweep ``_bfs`` runs one endpoint's BFS over its whole
  component, for ``connected_components`` and lower-only ``diameter``.

Both expand a level either by vectorised whole-universe scans (fast at small
n) or by the backtracking centralizer enumerator (wins when centralizers are
tiny compared to the universe).  Only the exact diameter of a connected graph
builds the dense adjacency matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .commuting import (
    BudgetExceededError,
    CommGraph,
    NotAVertexError,
    Universe,
    center_ids,
    check_scan_budget,
    commute_mask,
    commute_masks_batch,
    commutes,
    is_vertex,
    pick_strategy,
    ptrans_of_row,
    _backtrack_images,
    _universe_elements,
)
from .ptrans import PTrans

INFINITE = math.inf


class _ExceedsCap:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXCEEDS_CAP"


EXCEEDS_CAP = _ExceedsCap()

_BATCH = 128


@dataclass(frozen=True)
class PathCertificate:
    """A checked walk in the commuting graph; consecutive vertices must commute."""

    vertices: tuple[PTrans, ...]
    claimed_length: int

    @classmethod
    def from_vertices(cls, vertices: Sequence[PTrans]) -> "PathCertificate":
        return cls(tuple(vertices), len(vertices) - 1)


def verify_path(g: CommGraph, cert: PathCertificate) -> bool:
    """True iff the certificate is a genuine path of its claimed length in ``g``."""
    vs = cert.vertices
    if not vs or cert.claimed_length != len(vs) - 1:
        return False
    centers = center_ids(g)
    ids = []
    for t in vs:
        if t.n != g.n:
            return False
        if g.semigroup is Universe.FULL and not t.is_full():
            return False
        tid = t.encode()
        if tid in centers:
            return False
        ids.append(tid)
    interior = ids[1:-1]
    if len(set(interior)) != len(interior):
        return False
    if len(ids) > 1 and (ids[0] in interior or ids[-1] in interior):
        return False
    edges = set()
    for a, b in zip(vs, vs[1:]):
        if a == b or not commutes(a, b):
            return False
        edge = frozenset((a.encode(), b.encode()))
        if edge in edges:
            return False
        edges.add(edge)
    return True


# -- BFS machinery ---------------------------------------------------------------


class _GraphContext:
    """Vertex rows/ids of a graph, in increasing element id order."""

    def __init__(self, g: CommGraph):
        rows, ids = _universe_elements(g.n, g.semigroup)
        centers = np.fromiter(sorted(center_ids(g)), dtype=np.int64)
        keep = ~np.isin(ids, centers)
        self.g = g
        self.rows = rows[keep]
        self.ids = ids[keep]

    def index_of(self, t: PTrans) -> int:
        pos = int(np.searchsorted(self.ids, t.encode()))
        if pos >= len(self.ids) or self.ids[pos] != t.encode():
            raise NotAVertexError(f"{t!r} is not a vertex")
        return pos

    def ptrans_at(self, idx: int) -> PTrans:
        return ptrans_of_row(self.rows[idx], self.g.n)


def _expand_scan(ctx: _GraphContext, frontier: np.ndarray, dist: np.ndarray, parent: np.ndarray | None):
    """One BFS level via batched commute scans restricted to unvisited columns."""
    unvisited = np.nonzero(dist < 0)[0]
    if len(unvisited) == 0:
        return np.empty(0, dtype=np.int64)
    sub = ctx.rows[unvisited]
    found = np.zeros(len(unvisited), dtype=bool)
    for start in range(0, len(frontier), _BATCH):
        chunk = frontier[start : start + _BATCH]
        masks = commute_masks_batch(sub, ctx.rows[chunk])
        anym = masks.any(axis=0)
        new = anym & ~found
        if parent is not None and new.any():
            first = masks[:, new].argmax(axis=0)
            parent[unvisited[new]] = chunk[first]
        found |= anym
    return unvisited[found]


def _expand_backtrack(ctx: _GraphContext, frontier: np.ndarray, dist: np.ndarray, parent: np.ndarray | None):
    out = []
    for v in frontier:
        t = ctx.ptrans_at(int(v))
        for sol in _backtrack_images([t], ctx.g.semigroup):
            u = PTrans(ctx.g.n, sol)
            uid = u.encode()
            pos = int(np.searchsorted(ctx.ids, uid))
            if pos >= len(ctx.ids) or ctx.ids[pos] != uid:
                continue
            if dist[pos] == -1:
                dist[pos] = -2  # claimed this level, final value set by caller
                if parent is not None:
                    parent[pos] = v
                out.append(pos)
    res = np.array(sorted(out), dtype=np.int64)
    dist[res] = -1
    return res


def _bfs(ctx: _GraphContext, source: int, *, need_parents: bool = False, strategy: str = "scan"):
    """Level BFS from ``source`` over its whole component; returns (dist, parent).

    ``parent[v]`` is the minimum-index neighbour of ``v`` one level closer to
    the source.
    """
    V = len(ctx.rows)
    dist = np.full(V, -1, dtype=np.int64)
    parent = np.full(V, -1, dtype=np.int64) if need_parents else None
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    expand = _expand_scan if strategy == "scan" else _expand_backtrack
    while len(frontier):
        nxt = expand(ctx, frontier, dist, parent)
        level += 1
        dist[nxt] = level
        frontier = nxt
    return dist, parent


def _touching(ctx: _GraphContext, cand: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The vertices of ``cand`` that commute with some vertex of ``frontier``."""
    sub = ctx.rows[cand]
    hit = np.zeros(len(cand), dtype=bool)
    for start in range(0, len(frontier), _BATCH):
        hit |= commute_masks_batch(sub, ctx.rows[frontier[start : start + _BATCH]]).any(axis=0)
    return cand[hit]


def _meet(ctx: _GraphContext, src: int, tgt: int, cap: int | None, strategy: str):
    """Bidirectional level search between two distinct vertices.

    Each step grows the side with the smaller frontier by one level.  Until
    the sides meet no vertex is reached from both, so the distance exceeds
    la + lb, and only the other side's frontier can hold neighbours of this
    one.  So the step first scans its frontier against the other frontier: a
    hit puts the distance at exactly la + lb + 1, and the hits become this
    side's last level (the meeting set).  Otherwise it expands one complete
    level.  Returns (distance, a's levels, b's levels), each level a sorted
    array of vertex indices; the distance is INFINITE (levels None) once
    either side exhausts its component, and EXCEEDS_CAP once la + lb reaches
    ``cap`` unmet.
    """
    V = len(ctx.rows)
    expand = _expand_scan if strategy == "scan" else _expand_backtrack
    sides = []
    for s in (src, tgt):
        dist = np.full(V, -1, dtype=np.int64)
        dist[s] = 0
        sides.append((dist, [np.array([s], dtype=np.int64)]))
    (_, levels_a), (_, levels_b) = sides
    while True:
        reach = len(levels_a) + len(levels_b) - 2
        if cap is not None and reach >= cap:
            return EXCEEDS_CAP, None, None
        grow = 0 if len(levels_a[-1]) <= len(levels_b[-1]) else 1
        (dist, levels), (_, facing) = sides[grow], sides[1 - grow]
        met = _touching(ctx, facing[-1], levels[-1])
        if len(met):
            levels.append(met)
            return reach + 1, levels_a, levels_b
        nxt = expand(ctx, levels[-1], dist, None)
        if not len(nxt):
            return INFINITE, None, None
        dist[nxt] = len(levels)
        levels.append(nxt)


def _walk_back(ctx: _GraphContext, levels_a: list, levels_b: list) -> list[int]:
    """The shortest path that steps back from b to the minimum-index
    neighbour one level closer to a each time, as vertex indices from a.

    Layer k holds the candidates at distance k from a: a's own levels below
    the meeting level, then the meeting set, then the part of each of b's
    levels that commutes with some vertex of the layer before it (exactly the
    vertices at distance k from a on a shortest path).
    """
    layers = levels_a[:-1] + [np.intersect1d(levels_a[-1], levels_b[-1], assume_unique=True)]
    for cand in reversed(levels_b[:-1]):
        layers.append(_touching(ctx, cand, layers[-1]))
    chain = [int(layers[-1][0])]
    for layer in reversed(layers[:-1]):
        chain.append(int(layer[commute_mask(ctx.rows[layer], ctx.rows[chain[-1]]).argmax()]))
    return chain[::-1]


def bfs_distance(
    g: CommGraph,
    a: PTrans,
    b: PTrans,
    cap: int | None = None,
    strategy: str = "auto",
):
    """Distance between two vertices, by a bidirectional level search.

    The answer is exact whenever the distance is at most ``cap`` (always,
    without a cap).  Otherwise it is EXCEEDS_CAP, meaning the distance is
    greater than ``cap`` or infinite, or INFINITE, meaning no path exists.
    INFINITE is returned as soon as either endpoint's component is exhausted,
    which under a cap can happen before the two search levels add up to it.
    """
    for t in (a, b):
        if not is_vertex(g, t):
            raise NotAVertexError(f"{t!r} is central, not a vertex")
    if a == b:
        return 0
    ctx = _GraphContext(g)
    src, tgt = ctx.index_of(a), ctx.index_of(b)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    return _meet(ctx, src, tgt, cap, strategy)[0]


def shortest_path(
    g: CommGraph,
    a: PTrans,
    b: PTrans,
    strategy: str = "auto",
) -> Optional[PathCertificate]:
    """A shortest path as a certificate, or None when no path exists.

    Walking back from ``b``, each step takes the minimum-id neighbour one
    level closer to ``a``, so the path does not depend on the strategy.
    """
    for t in (a, b):
        if not is_vertex(g, t):
            raise NotAVertexError(f"{t!r} is central, not a vertex")
    if a == b:
        return PathCertificate.from_vertices([a])
    ctx = _GraphContext(g)
    src, tgt = ctx.index_of(a), ctx.index_of(b)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    d, levels_a, levels_b = _meet(ctx, src, tgt, None, strategy)
    if d is INFINITE:
        return None
    chain = _walk_back(ctx, levels_a, levels_b)
    return PathCertificate.from_vertices([ctx.ptrans_at(i) for i in chain])


@dataclass(frozen=True)
class ComponentSummary:
    count: int
    sizes: tuple[int, ...]
    representatives: tuple[PTrans, ...]
    labels: np.ndarray  # component index per vertex, aligned with vertex id order


def connected_components(g: CommGraph, strategy: str = "auto") -> ComponentSummary:
    """Partition of the vertex set by reachability; representatives are the
    minimum-id vertices, components ordered by representative."""
    check_scan_budget(g.n, g.semigroup)
    ctx = _GraphContext(g)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    V = len(ctx.rows)
    labels = np.full(V, -1, dtype=np.int64)
    reps = []
    sizes = []
    comp = 0
    for seed in range(V):
        if labels[seed] >= 0:
            continue
        dist, _ = _bfs(ctx, seed, strategy=strategy)
        members = dist >= 0
        labels[members] = comp
        reps.append(ctx.ptrans_at(seed))
        sizes.append(int(members.sum()))
        comp += 1
    return ComponentSummary(comp, tuple(sizes), tuple(reps), labels)


# -- diameter --------------------------------------------------------------------


@dataclass(frozen=True)
class DiameterReport:
    n: int
    semigroup: Universe
    exact: bool
    diameter: int | None  # exact value, or the certified lower bound in lower-only mode
    connected: bool | None
    component_count: int | None
    component_sizes: tuple[int, ...] | None
    witness_pair: tuple[PTrans, PTrans] | None
    elapsed_s: float


def _adjacency(ctx: _GraphContext) -> np.ndarray:
    V = len(ctx.rows)
    adj = np.zeros((V, V), dtype=bool)
    for start in range(0, V, _BATCH):
        adj[start : start + _BATCH] = commute_masks_batch(ctx.rows, ctx.rows[start : start + _BATCH])
    np.fill_diagonal(adj, False)
    return adj


def _ecc_block(adj: np.ndarray, sources: range) -> tuple[int, int, int]:
    """(ecc, source, target) maximised over the sources, smallest ids on ties."""
    best = (-1, -1, -1)
    V = len(adj)
    for s in sources:
        visited = np.zeros(V, dtype=bool)
        visited[s] = True
        frontier = visited.copy()
        level = 0
        last_new = np.array([s])
        while True:
            nxt = adj[np.nonzero(frontier)[0]].any(axis=0) & ~visited
            if not nxt.any():
                break
            level += 1
            visited |= nxt
            frontier = nxt
            last_new = np.nonzero(nxt)[0]
        if level > best[0]:
            best = (level, s, int(last_new.min()))
    return best


def diameter(
    g: CommGraph,
    mode: str = "exact",
    seeds: Sequence[PTrans] = (),
    long_run: bool = False,
    strategy: str = "auto",
) -> DiameterReport:
    """Exact diameter, or a certified lower bound from seeds.

    Exact mode first partitions the vertices into components; a disconnected
    graph is reported with its component count and sizes and no diameter.
    Only a connected graph gets the all-sources eccentricity sweep over the
    dense adjacency matrix.
    """
    t0 = time.perf_counter()
    if mode == "exact":
        limit = 5 if g.semigroup is Universe.FULL else 4
        if g.n > limit and not long_run:
            raise BudgetExceededError(
                f"exact diameter for this semigroup is budgeted to n <= {limit}; "
                "pass long_run=True to force it"
            )
        comps = connected_components(g, strategy=strategy)
        if comps.count > 1:
            return DiameterReport(
                g.n, g.semigroup, True, None, False, comps.count, comps.sizes, None,
                time.perf_counter() - t0,
            )
        ctx = _GraphContext(g)
        ecc, s, t = _ecc_block(_adjacency(ctx), range(len(ctx.rows)))
        return DiameterReport(
            g.n, g.semigroup, True, ecc, True, 1, comps.sizes,
            (ctx.ptrans_at(s), ctx.ptrans_at(t)), time.perf_counter() - t0,
        )
    if mode != "lower-only":
        raise ValueError(f"unknown diameter mode {mode!r}")
    if not seeds:
        raise ValueError("lower-only mode needs at least one seed vertex")
    ctx = _GraphContext(g)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    bound = -1
    witness: tuple[PTrans, PTrans] | None = None
    connected: bool | None = None
    for seed in seeds:
        if not is_vertex(g, seed):
            raise NotAVertexError(f"{seed!r} is central, not a vertex")
        src = ctx.index_of(seed)
        dist, _ = _bfs(ctx, src, strategy=strategy)
        reached = dist >= 0
        connected = bool(reached.all()) if connected is None else connected and bool(reached.all())
        ecc = int(dist.max())
        if ecc > bound:
            bound = ecc
            far = int(np.nonzero(dist == ecc)[0].min())
            witness = (seed, ctx.ptrans_at(far))
    return DiameterReport(
        g.n, g.semigroup, False, bound, connected, None, None, witness,
        time.perf_counter() - t0,
    )
