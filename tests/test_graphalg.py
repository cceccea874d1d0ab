import dataclasses
import math
import random

import networkx as nx
import numpy as np
import pytest

from commgraph import graphalg
from commgraph.commuting import commute_mask, commute_masks_batch
from commgraph import (
    BudgetExceededError,
    CommGraph,
    EXCEEDS_CAP,
    INFINITE,
    NotAVertexError,
    PathCertificate,
    PTrans,
    Universe,
    bfs_distance,
    centralizer,
    connected_components,
    diameter,
    empty,
    identity,
    parse_element,
    point_map,
    power,
    shortest_path,
    verify_path,
)

from oracles import commuting_graph_nx, node_of

ALPHA = parse_element("(1 2 3 4)")
BETA = parse_element("[1 2 3](3 4)")


@pytest.fixture(scope="module")
def nx4():
    return commuting_graph_nx(4)


@pytest.fixture(scope="module")
def g4():
    return CommGraph(4)


class TestDistance:
    def test_witness_distance_is_four(self, g4):
        assert bfs_distance(g4, ALPHA, BETA) == 4

    def test_adjacent_power(self, g4):
        assert bfs_distance(g4, ALPHA, power(ALPHA, 2)) == 1

    def test_zero_iff_equal(self, g4):
        assert bfs_distance(g4, ALPHA, ALPHA) == 0

    def test_matches_reference_graph(self, g4, nx4):
        rng = random.Random(41)
        verts = list(nx4.nodes)
        for _ in range(25):
            u, v = rng.sample(verts, 2)
            a = PTrans.from_pairs(4, {x - 1: y - 1 for x, y in dict(u).items()})
            b = PTrans.from_pairs(4, {x - 1: y - 1 for x, y in dict(v).items()})
            try:
                expected = nx.shortest_path_length(nx4, u, v)
            except nx.NetworkXNoPath:
                expected = INFINITE
            assert bfs_distance(g4, a, b) == expected

    def test_cap_early_exit(self, g4):
        assert bfs_distance(g4, ALPHA, BETA, cap=3) is EXCEEDS_CAP
        assert bfs_distance(g4, ALPHA, BETA, cap=4) == 4

    def test_infinite_across_components(self):
        g3 = CommGraph(3)
        three_cycle = parse_element("(1 2 3)")
        assert bfs_distance(g3, three_cycle, point_map(3, 0, 1)) == INFINITE

    def test_rejects_central_endpoint(self, g4):
        with pytest.raises(NotAVertexError):
            bfs_distance(g4, ALPHA, identity(4))

    def test_symmetry_and_triangle(self, g4):
        rng = random.Random(43)
        vs = []
        while len(vs) < 6:
            t = PTrans.decode(rng.randrange(5**4), 4)
            if t not in (identity(4), empty(4)):
                vs.append(t)
        d = {}
        for a in vs:
            for b in vs:
                d[a, b] = bfs_distance(g4, a, b)
        for a in vs:
            for b in vs:
                assert d[a, b] == d[b, a]
                for c in vs:
                    assert d[a, c] <= d[a, b] + d[b, c]

    def test_strategies_agree(self, g4):
        assert bfs_distance(g4, ALPHA, BETA, strategy="backtrack") == 4
        assert bfs_distance(g4, ALPHA, BETA, strategy="scan") == 4

    def test_backtrack_levels_distinct_and_match_scan(self, g4, monkeypatch):
        levels = []
        expand = graphalg._expand_backtrack

        def recording(*args):
            out = expand(*args)
            levels.append(out)
            return out

        monkeypatch.setattr(graphalg, "_expand_backtrack", recording)
        ctx = graphalg._GraphContext(g4)
        src = ctx.index_of(ALPHA)
        back, _ = graphalg._bfs(ctx, src, strategy="backtrack")
        scan, _ = graphalg._bfs(ctx, src, strategy="scan")
        assert len(levels) >= 4
        for level in levels:
            assert len(np.unique(level)) == len(level)
        assert np.array_equal(back, scan)

    def test_subgraph_relation_full_pairs(self):
        gP, gT = CommGraph(4), CommGraph(4, Universe.FULL)
        rng = random.Random(47)
        for _ in range(15):
            a = PTrans(4, tuple(rng.randrange(4) for _ in range(4)))
            b = PTrans(4, tuple(rng.randrange(4) for _ in range(4)))
            if identity(4) in (a, b):
                continue
            dp, dt = bfs_distance(gP, a, b), bfs_distance(gT, a, b)
            assert dp <= dt


class TestShortestPath:
    def test_single_vertex(self, g4):
        cert = shortest_path(g4, ALPHA, ALPHA)
        assert cert.claimed_length == 0 and verify_path(g4, cert)

    def test_adjacent(self, g4):
        cert = shortest_path(g4, ALPHA, power(ALPHA, 2))
        assert cert.claimed_length == 1 and verify_path(g4, cert)

    def test_witness_pair(self, g4):
        cert = shortest_path(g4, ALPHA, BETA)
        assert cert.claimed_length == 4
        assert verify_path(g4, cert)
        assert cert.vertices[0] == ALPHA and cert.vertices[-1] == BETA

    def test_no_path(self):
        g3 = CommGraph(3)
        assert shortest_path(g3, parse_element("(1 2 3)"), point_map(3, 0, 1)) is None


# The kept oracle for the bidirectional pair search: one full single-source
# sweep ``_bfs(ctx, src, need_parents=True)`` from a, then the parent walk back
# from b, which steps to the minimum-index neighbour one level closer to a.
CAPS = (None, 0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def oracle_bfs():
    """``_bfs(ctx, src, need_parents=True)``, cached per graph, source and
    strategy, so the tests of this module that check against one sweep share
    it (one P(5) sweep takes about 0.5 s)."""
    cache = {}

    def sweep(ctx, src, strategy):
        key = (ctx.g, src, strategy)
        if key not in cache:
            cache[key] = graphalg._bfs(ctx, src, need_parents=True, strategy=strategy)
        return cache[key]

    return sweep


def _oracle_sweeps(ctx, strategy, oracle_bfs):
    def answer(src, tgt):
        dist, parent = oracle_bfs(ctx, src, strategy)
        if dist[tgt] < 0:
            return INFINITE, None
        chain = [tgt]
        while chain[-1] != src:
            chain.append(int(parent[chain[-1]]))
        return int(dist[tgt]), chain[::-1]

    return answer


def _check_pairs(g, pairs, strategy, oracle_bfs):
    ctx = graphalg._GraphContext(g)
    oracle = _oracle_sweeps(ctx, strategy, oracle_bfs)
    for i, j in pairs:
        a, b = ctx.ptrans_at(i), ctx.ptrans_at(j)
        want, chain = oracle(i, j)
        for cap in CAPS:
            got = bfs_distance(g, a, b, cap=cap, strategy=strategy)
            if want != INFINITE and (cap is None or want <= cap):
                assert got == want, (a, b, cap)
            elif got is not EXCEEDS_CAP:
                assert got == INFINITE and want == INFINITE, (a, b, cap, got)
            else:
                assert cap is not None and want > cap, (a, b, cap)
        cert = shortest_path(g, a, b, strategy=strategy)
        if chain is None:
            assert cert is None, (a, b)
        else:
            assert [t.encode() for t in cert.vertices] == [int(ctx.ids[k]) for k in chain], (a, b)


def _sample_pairs(g, sources, targets, seed):
    """Seeded pairs sharing few sources, so the oracle sweeps stay few."""
    rng = random.Random(seed)
    V = g.vertex_count()
    return [(s, t) for s in rng.sample(range(V), sources) for t in rng.sample(range(V), targets)]


class TestPairSearchMatchesSweep:
    @pytest.mark.parametrize("strategy", ["scan", "backtrack"])
    def test_every_pair_of_p3(self, strategy, oracle_bfs):
        V = CommGraph(3).vertex_count()
        _check_pairs(CommGraph(3), [(i, j) for i in range(V) for j in range(V)], strategy,
                     oracle_bfs)

    @pytest.mark.parametrize("strategy", ["scan", "backtrack"])
    @pytest.mark.parametrize("semigroup", [Universe.ALL_PARTIAL, Universe.FULL], ids=["P4", "T4"])
    def test_sampled_pairs_n4(self, semigroup, strategy, oracle_bfs):
        g = CommGraph(4, semigroup)
        _check_pairs(g, _sample_pairs(g, 6, 5, 53), strategy, oracle_bfs)

    @pytest.mark.parametrize("semigroup", [Universe.ALL_PARTIAL, Universe.FULL], ids=["P5", "T5"])
    def test_sampled_pairs_n5_scan(self, semigroup, oracle_bfs):
        g = CommGraph(5, semigroup)
        _check_pairs(g, _sample_pairs(g, 3, 5, 59), "scan", oracle_bfs)


SMALL_GRAPHS = [CommGraph(2), CommGraph(3), CommGraph(4),
                CommGraph(3, Universe.FULL), CommGraph(4, Universe.FULL)]
SWEEP_GRAPHS = [CommGraph(3), CommGraph(4), CommGraph(4, Universe.FULL)]


def _graph_id(g):
    return f"{'T' if g.semigroup is Universe.FULL else 'P'}{g.n}"


def _bfs_labels(ctx):
    """Component labels by one scan ``_bfs`` per component, minimum index first."""
    labels = np.full(len(ctx.rows), -1)
    for seed in range(len(ctx.rows)):
        if labels[seed] < 0:
            labels[graphalg._bfs(ctx, seed)[0] >= 0] = labels.max() + 1
    return labels


class TestOrbitTable:
    """The orbit-conjugated neighbour table against the kernels it replaces."""

    @staticmethod
    def _check_rows(g, strategy):
        ctx = graphalg._GraphContext(g)
        csr = graphalg._neighbor_csr(ctx, strategy)
        assert csr.indptr.dtype == csr.indices.dtype == np.int32
        for v in range(len(ctx.rows)):
            mask = commute_mask(ctx.rows, ctx.rows[v])
            mask[v] = False
            row = np.sort(csr.indices[csr.indptr[v] : csr.indptr[v + 1]])
            assert np.array_equal(row, np.flatnonzero(mask)), v

    @pytest.mark.parametrize("g", SMALL_GRAPHS + [CommGraph(5, Universe.FULL)], ids=_graph_id)
    def test_rows_equal_commute_mask(self, g):
        self._check_rows(g, "scan")

    @pytest.mark.parametrize("g", SMALL_GRAPHS + [CommGraph(5, Universe.FULL)], ids=_graph_id)
    def test_backtrack_rows_equal_commute_mask(self, g):
        self._check_rows(g, "backtrack")

    @pytest.mark.parametrize("g", SWEEP_GRAPHS, ids=_graph_id)
    def test_touching_equals_batch_kernel(self, g):
        # frontier smaller than the candidates, larger, and empty; the
        # parents are each hit's minimum-index neighbour in the frontier
        ctx = graphalg._GraphContext(g)
        rng = np.random.default_rng(67)
        V = len(ctx.rows)
        for nf, nc in [(8, 60), (60, 8), (0, 60)]:
            frontier = np.sort(rng.choice(V, nf, replace=False))
            cand = np.sort(rng.choice(V, nc, replace=False))
            masks = commute_masks_batch(ctx.rows[cand], ctx.rows[frontier])
            parent = np.full(V, -1)
            got = graphalg._touching(ctx, cand, frontier, parent)
            hit = masks.any(axis=0)
            assert np.array_equal(got, cand[hit]), (nf, nc)
            if nf:
                assert np.array_equal(parent[got], frontier[masks[:, hit].argmax(axis=0)]), nf
            assert (parent[cand[~hit]] == -1).all()
            assert np.array_equal(graphalg._touching(ctx, cand, frontier), got)

    @pytest.mark.parametrize("g,sources", [
        (CommGraph(4), 14), (CommGraph(5, Universe.FULL), 3), (CommGraph(5), 3),
    ], ids=["P4", "T5", "P5"])
    def test_sweep_equals_bfs(self, g, sources, oracle_bfs):
        # 20 sources in all.  At n = 5 they are the sampled pair test's
        # sources, so the slow oracle sweeps are shared through the cache.
        ctx = graphalg._GraphContext(g)
        csr = graphalg._neighbor_csr(ctx, "scan")
        if g.n == 5:
            picked = sorted({s for s, _ in _sample_pairs(g, 3, 5, 59)})
        else:
            picked = random.Random(61).sample(range(len(ctx.rows)), sources)
        assert len(picked) == sources
        for src in picked:
            assert np.array_equal(graphalg._sweep(csr, src), oracle_bfs(ctx, src, "scan")[0]), src

    @pytest.mark.parametrize("g", SMALL_GRAPHS, ids=_graph_id)
    def test_exact_diameter_equals_dense_oracle(self, g):
        ctx = graphalg._GraphContext(g)
        adj = graphalg._adjacency(ctx)
        rep = diameter(g)
        comps = sorted(nx.connected_components(nx.from_numpy_array(adj)), key=min)
        sizes = [len(c) for c in comps]
        if len(sizes) > 1:
            assert rep.connected is False and rep.diameter is None
            assert (rep.component_count, rep.component_sizes) == (len(sizes), tuple(sizes))
            return
        ecc, s, t = graphalg._ecc_block(adj, range(len(ctx.rows)))
        assert rep.connected and rep.diameter == ecc
        assert rep.witness_pair == (ctx.ptrans_at(s), ctx.ptrans_at(t))

    def test_exact_diameter_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense oracle was called")

        monkeypatch.setattr(graphalg, "_adjacency", refuse)
        monkeypatch.setattr(graphalg, "_ecc_block", refuse)
        rep = diameter(CommGraph(4))
        assert rep.diameter == 4 and rep.connected

    @pytest.mark.parametrize("g", [CommGraph(4), CommGraph(5, Universe.FULL)], ids=["P4", "T5"])
    def test_component_labels_int32_and_equal_bfs(self, g):
        labels = connected_components(g).labels
        assert labels.dtype == np.int32
        assert np.array_equal(labels, _bfs_labels(graphalg._GraphContext(g)))


def _sweep_queries(g, strategy):
    """Components, exact and lower-only diameter of ``g``, timing dropped."""
    comps = connected_components(g, strategy=strategy)
    seeds = [ALPHA] if g.n == 4 else [parse_element("(1 2 3)"), point_map(3, 0, 1)]
    reports = [diameter(g, strategy=strategy),
               diameter(g, mode="lower-only", seeds=seeds, strategy=strategy)]
    return ((comps.count, comps.sizes, comps.representatives, comps.labels.tolist()),
            *(dataclasses.replace(r, elapsed_s=0.0) for r in reports))


class TestSweepEngine:
    """Every whole-graph query reads the orbit table under either strategy."""

    @pytest.mark.parametrize("g", SWEEP_GRAPHS, ids=_graph_id)
    def test_strategies_give_identical_reports(self, g):
        assert _sweep_queries(g, "backtrack") == _sweep_queries(g, "scan")

    @pytest.mark.parametrize("g", SWEEP_GRAPHS, ids=_graph_id)
    def test_backtrack_runs_no_bfs(self, g, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a query called _bfs")

        monkeypatch.setattr(graphalg, "_bfs", refuse)
        _sweep_queries(g, "backtrack")

    def test_lower_only_checks_budget_before_building(self, monkeypatch):
        # the P(7) table would take about 1.8 GB; only the refusal is tested
        def refuse(g):
            raise AssertionError("a graph context was built")

        monkeypatch.setattr(graphalg, "_GraphContext", refuse)
        seed = PTrans(7, (1, 0, 2, 3, 4, 5, 6))
        with pytest.raises(BudgetExceededError):
            diameter(CommGraph(7), mode="lower-only", seeds=[seed])


class TestVerifyPath:
    def test_rejects_repeated_interior(self, g4):
        a2 = power(ALPHA, 2)
        cert = PathCertificate.from_vertices([ALPHA, a2, ALPHA, a2])
        assert not verify_path(g4, cert)

    def test_rejects_noncommuting_step(self, g4):
        cert = PathCertificate.from_vertices([ALPHA, BETA])
        assert not verify_path(g4, cert)

    def test_rejects_wrong_length(self, g4):
        cert = PathCertificate((ALPHA, power(ALPHA, 2)), 2)
        assert not verify_path(g4, cert)

    def test_rejects_central_vertex(self, g4):
        cert = PathCertificate.from_vertices([ALPHA, identity(4)])
        assert not verify_path(g4, cert)

    def test_rejects_back_and_forth_edge(self, g4):
        cert = PathCertificate.from_vertices([ALPHA, power(ALPHA, 2), ALPHA])
        assert not verify_path(g4, cert)

    def test_allows_closed_walks_with_distinct_edges(self, g4):
        a2, a3 = power(ALPHA, 2), power(ALPHA, 3)
        cert = PathCertificate.from_vertices([ALPHA, a2, a3, ALPHA])
        assert verify_path(g4, cert)

    def test_rejects_partial_vertex_in_full_graph(self):
        gt = CommGraph(4, Universe.FULL)
        cert = PathCertificate.from_vertices([point_map(4, 0, 1)])
        assert not verify_path(gt, cert)


class TestComponents:
    def test_n2_matches_reference(self):
        summary = connected_components(CommGraph(2))
        ref = commuting_graph_nx(2)
        ref_sizes = sorted(len(c) for c in nx.connected_components(ref))
        assert sorted(summary.sizes) == ref_sizes
        assert summary.count == nx.number_connected_components(ref)

    def test_n3_structure(self):
        summary = connected_components(CommGraph(3))
        assert summary.count == 2
        assert sorted(summary.sizes) == [2, 60]

    def test_n4_connected(self):
        summary = connected_components(CommGraph(4))
        assert summary.count == 1
        assert summary.sizes == (623,)

    def test_representatives_are_minimal(self):
        summary = connected_components(CommGraph(3))
        reps = [t.encode() for t in summary.representatives]
        assert reps == sorted(reps)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            connected_components(CommGraph(7))


class TestDiameter:
    def test_n4_partial_exact(self):
        rep = diameter(CommGraph(4))
        assert rep.exact and rep.connected
        assert rep.diameter == 4
        a, b = rep.witness_pair
        assert bfs_distance(CommGraph(4), a, b) == 4

    def test_n4_full_exact(self):
        rep = diameter(CommGraph(4, Universe.FULL))
        assert rep.diameter == 4 and rep.connected

    def test_prime_disconnected(self):
        rep = diameter(CommGraph(3))
        assert rep.exact and rep.connected is False
        assert rep.diameter is None
        assert rep.component_count == 2

    def test_lower_only(self):
        rep = diameter(CommGraph(4), mode="lower-only", seeds=[ALPHA])
        assert not rep.exact
        assert rep.diameter == 4
        assert rep.connected is True
        assert rep.witness_pair[0] == ALPHA

    def test_lower_only_needs_seed(self):
        with pytest.raises(ValueError):
            diameter(CommGraph(4), mode="lower-only")

    def test_exact_guard(self):
        with pytest.raises(BudgetExceededError):
            diameter(CommGraph(5))
        # allowed for the full semigroup up to n=5
        rep = diameter(CommGraph(5, Universe.FULL))
        assert rep.exact

    def test_full_n5_disconnected(self):
        # 5 is prime, so the full-transformation graph is disconnected too
        rep = diameter(CommGraph(5, Universe.FULL))
        assert rep.connected is False

    @pytest.mark.parametrize("n,semigroup", [
        (2, Universe.ALL_PARTIAL), (3, Universe.ALL_PARTIAL),
        (3, Universe.FULL), (4, Universe.FULL),
    ])
    def test_matches_networkx(self, n, semigroup):
        g = CommGraph(n, semigroup)
        ref = commuting_graph_nx(n, full_only=semigroup is Universe.FULL)
        rep = diameter(g)
        assert rep.exact
        if nx.is_connected(ref):
            assert rep.connected and rep.component_count == 1
            assert rep.diameter == nx.diameter(ref)
            a, b = rep.witness_pair
            assert nx.shortest_path_length(ref, node_of(a), node_of(b)) == rep.diameter
        else:
            assert rep.connected is False and rep.diameter is None
            assert rep.component_count == nx.number_connected_components(ref)
            assert sorted(rep.component_sizes) == sorted(
                len(c) for c in nx.connected_components(ref))

    @pytest.mark.parametrize("g", [CommGraph(5, Universe.FULL), CommGraph(3)], ids=["T5", "P3"])
    def test_disconnected_skips_dense_matrix(self, g, monkeypatch):
        def refuse(ctx):
            raise AssertionError("the dense adjacency matrix was built")

        monkeypatch.setattr(graphalg, "_adjacency", refuse)
        rep = diameter(g)
        assert rep.connected is False and rep.component_count > 1


@pytest.mark.parametrize("query", [
    lambda s: centralizer(ALPHA, Universe.ALL_PARTIAL, s),
    lambda s: bfs_distance(CommGraph(4), ALPHA, BETA, strategy=s),
    lambda s: connected_components(CommGraph(3), strategy=s),
], ids=["centralizer", "bfs_distance", "connected_components"])
def test_unknown_strategy_rejected(query):
    with pytest.raises(ValueError, match="unknown neighbor strategy"):
        query("bogus")


def test_infinite_constant():
    assert INFINITE == math.inf
    assert repr(EXCEEDS_CAP) == "EXCEEDS_CAP"
