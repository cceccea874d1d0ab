"""Distances, components and diameters over the implicit commuting graph.

Two kinds of search cover every query:

* the pair search behind ``bfs_distance`` and ``shortest_path`` grows level
  sets from both endpoints, always the side with the smaller frontier, until
  they meet; the path is rebuilt by walking back from b, each step to the
  minimum-index neighbour one level closer to a.  It never materialises the
  graph: a level is expanded either by vectorised whole-universe scans (fast
  at small n) or by the backtracking centralizer enumerator (wins when
  centralizers are tiny compared to the universe);
* the whole-graph sweeps behind ``connected_components`` and ``diameter``
  run single-source level BFSes over one int32 neighbour table built from
  the S_n orbit representatives: conjugation by a permutation of the points
  is a graph automorphism, so each vertex's row is a conjugate of its
  representative's centralizer.

Each strategy has one neighbour primitive, ``_GraphContext.row``, which feeds
both the backtracking level expansion and the table; the scan strategy's
set-against-set form is ``_touching``.  ``_bfs`` and the dense matrix
(``_adjacency``/``_ecc_block``) serve no query: they are the tests' named
oracles, kept in this module because the benchmark's tracer resolves them by
name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Optional, Sequence

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
    ids_of_rows,
    is_vertex,
    pick_strategy,
    ptrans_of_row,
    _backtrack_images,
    _universe_elements,
)
from .ptrans import UNDEF, PTrans

INFINITE = math.inf


class _ExceedsCap:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXCEEDS_CAP"


EXCEEDS_CAP = _ExceedsCap()


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

    def row(self, v: int, strategy: str) -> np.ndarray:
        """The neighbours of vertex ``v`` as ascending vertex indices: one
        ``commute_mask`` over every vertex under the scan strategy, the
        backtracking centralizer of ``v`` located by element id under
        backtrack."""
        if strategy == "scan":
            mask = commute_mask(self.rows, self.rows[v])
            mask[v] = False
            return np.flatnonzero(mask)
        sols = np.array(_backtrack_images([self.ptrans_at(v)], self.g.semigroup))
        ids = ids_of_rows(np.where(sols == UNDEF, self.g.n, sols), self.g.n)
        pos = np.searchsorted(self.ids, ids)
        found = pos[self.ids[np.minimum(pos, len(self.ids) - 1)] == ids]  # drops the center
        return np.sort(found[found != v])


def _touching(ctx: _GraphContext, cand: np.ndarray, frontier: np.ndarray,
              parent: np.ndarray | None = None) -> np.ndarray:
    """The vertices of ``cand`` that commute with some vertex of the sorted
    ``frontier``, by one ``commute_mask`` per vertex of the smaller side
    (commuting is symmetric).  With ``parent``, each hit's entry is set to its
    minimum-index neighbour in ``frontier``."""
    hit = np.zeros(len(cand), dtype=bool)
    if len(frontier) <= len(cand):
        sub = ctx.rows[cand]
        for v in frontier:
            mask = commute_mask(sub, ctx.rows[v])
            if parent is not None:
                parent[cand[mask & ~hit]] = v
            hit |= mask
    else:
        sub = ctx.rows[frontier]
        for i, c in enumerate(cand):
            mask = commute_mask(sub, ctx.rows[c])
            hit[i] = mask.any()
            if parent is not None and hit[i]:
                parent[c] = frontier[mask.argmax()]
    return cand[hit]


def _expand_scan(ctx: _GraphContext, frontier: np.ndarray, dist: np.ndarray, parent: np.ndarray | None):
    """One BFS level: the unvisited vertices touching the frontier."""
    return _touching(ctx, np.flatnonzero(dist < 0), frontier, parent)


def _expand_backtrack(ctx: _GraphContext, frontier: np.ndarray, dist: np.ndarray, parent: np.ndarray | None):
    """One BFS level: the unvisited vertices in the backtracking rows of the
    sorted frontier."""
    rows = [ctx.row(int(v), "backtrack") for v in frontier]
    owner = np.repeat(frontier, [len(row) for row in rows])
    found = np.concatenate(rows)
    fresh = dist[found] == -1
    new, first = np.unique(found[fresh], return_index=True)
    if parent is not None:
        parent[new] = owner[fresh][first]
    return new


def _bfs(ctx: _GraphContext, source: int, *, need_parents: bool = False, strategy: str = "scan"):
    """Level BFS from ``source`` over its whole component; returns (dist, parent).

    ``parent[v]`` is the minimum-index neighbour of ``v`` one level closer to
    the source.  No query calls this: it is the tests' oracle for the pair
    search and the sweeps, kept here until the benchmark's tracer stops
    resolving it by name (ROADMAP item 1).
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


class _NeighborCSR(NamedTuple):
    """Every vertex's neighbours: row v is ``indices[indptr[v]:indptr[v + 1]]``."""

    indptr: np.ndarray  # int32, V + 1 entries
    indices: np.ndarray  # int32
    reps: np.ndarray  # the orbit representatives, ascending


def _conjugations(ctx: _GraphContext):
    """For each permutation p of the points, identity first, the int32 table
    taking every vertex index to the index of its conjugate (each point x
    relabelled p(x)).  Indices are looked up by element id in a dense array."""
    n = ctx.g.n
    lookup = np.full((n + 1) ** n, -1, dtype=np.int32)
    lookup[ctx.ids] = np.arange(len(ctx.ids), dtype=np.int32)
    weight = (n + 1) ** np.arange(n, dtype=np.intp)
    columns = [ctx.rows[:, x].astype(np.intp) for x in range(n)]
    for p in permutations(range(n)):
        # the conjugate's digit at point p(x) is p(t(x)), so image value v at
        # point x adds p(v) * weight[p(x)] to its id (undefined stays n)
        ext = np.array(p + (n,), dtype=np.intp)
        ids = (ext * weight[p[0]])[columns[0]]
        for x in range(1, n):
            ids += (ext * weight[p[x]])[columns[x]]
        yield lookup[ids]


def _segments(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions of the CSR rows ``rows`` (at least one) in ``indices``,
    concatenated."""
    starts = indptr[rows].astype(np.int64)
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])


def _neighbor_csr(ctx: _GraphContext, strategy: str) -> _NeighborCSR:
    """The neighbour table of the whole graph, from one ``ctx.row`` per S_n
    orbit.

    Conjugation by a permutation maps the vertex set onto itself and commuting
    pairs onto commuting pairs.  So each vertex is labelled with the minimum
    index over its conjugates (its orbit representative) and the permutation
    that reaches it; the representatives' rows are found, and every other
    vertex's row is its representative's row mapped back through the inverse
    of that permutation's table.  Nothing is kept between calls.
    """
    V = len(ctx.rows)
    rep = np.arange(V, dtype=np.int32)
    via = np.zeros(V, dtype=np.int32)
    for k, conj in enumerate(_conjugations(ctx)):
        better = conj < rep
        rep[better] = conj[better]
        via[better] = k
    reps = np.flatnonzero(rep == np.arange(V))
    rows = [ctx.row(int(r), strategy).astype(np.int32) for r in reps]
    degree = np.zeros(V, dtype=np.int32)
    degree[reps] = [len(row) for row in rows]
    indptr = np.zeros(V + 1, dtype=np.int32)
    np.cumsum(degree[rep], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[_segments(indptr, reps)] = np.concatenate(rows)
    inverse = np.empty(V, dtype=np.int32)
    for k, conj in enumerate(_conjugations(ctx)):
        members = np.flatnonzero(via == k)
        if k == 0 or not len(members):  # the identity reaches only the representatives
            continue
        inverse[conj] = np.arange(V, dtype=np.int32)
        indices[_segments(indptr, members)] = inverse[indices[_segments(indptr, rep[members])]]
    return _NeighborCSR(indptr, indices, reps)


_CHUNK = 1024  # frontier vertices expanded at a time by ``_sweep``


def _sweep(csr: _NeighborCSR, source: int) -> np.ndarray:
    """Level BFS over the neighbour table from ``source``: int32 distances,
    -1 where unreached."""
    dist = np.full(len(csr.indptr) - 1, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        reached = []
        for start in range(0, len(frontier), _CHUNK):
            nbrs = csr.indices[_segments(csr.indptr, frontier[start : start + _CHUNK])]
            nbrs = nbrs[dist[nbrs] < 0]
            dist[nbrs] = level
            reached.append(nbrs)
        frontier = np.unique(np.concatenate(reached))
    return dist


def _label_components(csr: _NeighborCSR) -> tuple[np.ndarray, list[int], list[int]]:
    """(int32 component label per vertex, minimum index and size per component),
    one sweep per component."""
    V = len(csr.indptr) - 1
    labels = np.full(V, -1, dtype=np.int32)
    seeds: list[int] = []
    sizes: list[int] = []
    for seed in range(V):
        if labels[seed] >= 0:
            continue
        members = _sweep(csr, seed) >= 0
        labels[members] = len(seeds)
        seeds.append(seed)
        sizes.append(int(members.sum()))
    return labels, seeds, sizes


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
    labels: np.ndarray  # int32 component index per vertex, aligned with vertex id order


def connected_components(g: CommGraph, strategy: str = "auto") -> ComponentSummary:
    """Partition of the vertex set by reachability; representatives are the
    minimum-id vertices, components ordered by representative."""
    check_scan_budget(g.n, g.semigroup)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    ctx = _GraphContext(g)
    labels, seeds, sizes = _label_components(_neighbor_csr(ctx, strategy))
    return ComponentSummary(len(seeds), tuple(sizes), tuple(ctx.ptrans_at(s) for s in seeds),
                            labels)


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
    """The dense V x V adjacency matrix, from one batch scan of V * V * n bytes
    twice, so only for small graphs.  No query builds it: with ``_ecc_block``
    it is the tests' oracle for ``diameter``, kept here until the benchmark's
    tracer stops resolving both names (ROADMAP item 1)."""
    adj = commute_masks_batch(ctx.rows, ctx.rows)
    np.fill_diagonal(adj, False)
    return adj


def _ecc_block(adj: np.ndarray, sources: range) -> tuple[int, int, int]:
    """(ecc, source, target) maximised over the sources, smallest ids on ties;
    the tests' dense oracle for exact ``diameter`` (see ``_adjacency``)."""
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

    Exact mode builds the orbit neighbour table once and partitions the
    vertices into components from it; a disconnected graph is reported with
    its component count and sizes and no diameter.  A connected graph is swept
    only from the orbit representatives, since conjugation preserves
    eccentricity; the witness is the smallest vertex of maximum eccentricity
    (always a representative) and the smallest vertex farthest from it.
    Lower-only mode sweeps the same table once per seed.  ``strategy`` picks
    how the table's representative rows are found; both modes answer the
    same under either.
    """
    t0 = time.perf_counter()
    if mode == "exact":
        limit = 5 if g.semigroup is Universe.FULL else 4
        if g.n > limit and not long_run:
            raise BudgetExceededError(
                f"exact diameter for this semigroup is budgeted to n <= {limit}; "
                "pass long_run=True to force it"
            )
        check_scan_budget(g.n, g.semigroup)
        ctx = _GraphContext(g)
        csr = _neighbor_csr(ctx, pick_strategy(g.n, g.semigroup, strategy))
        _, _, sizes = _label_components(csr)
        if len(sizes) > 1:
            return DiameterReport(
                g.n, g.semigroup, True, None, False, len(sizes), tuple(sizes), None,
                time.perf_counter() - t0,
            )
        ecc, s, t = -1, -1, -1
        for r in csr.reps:
            dist = _sweep(csr, int(r))
            if dist.max() > ecc:
                ecc, s, t = int(dist.max()), int(r), int(np.flatnonzero(dist == dist.max())[0])
        return DiameterReport(
            g.n, g.semigroup, True, ecc, True, 1, tuple(sizes),
            (ctx.ptrans_at(s), ctx.ptrans_at(t)), time.perf_counter() - t0,
        )
    if mode != "lower-only":
        raise ValueError(f"unknown diameter mode {mode!r}")
    if not seeds:
        raise ValueError("lower-only mode needs at least one seed vertex")
    for seed in seeds:
        if not is_vertex(g, seed):
            raise NotAVertexError(f"{seed!r} is central, not a vertex")
    check_scan_budget(g.n, g.semigroup, long_run=long_run)
    strategy = pick_strategy(g.n, g.semigroup, strategy)
    ctx = _GraphContext(g)
    csr = _neighbor_csr(ctx, strategy)
    bound, witness, connected = -1, None, True
    for seed in seeds:
        dist = _sweep(csr, ctx.index_of(seed))
        connected = connected and bool((dist >= 0).all())
        ecc = int(dist.max())
        if ecc > bound:
            bound = ecc
            far = int(np.nonzero(dist == ecc)[0].min())
            witness = (seed, ctx.ptrans_at(far))
    return DiameterReport(
        g.n, g.semigroup, False, bound, connected, None, None, witness,
        time.perf_counter() - t0,
    )
