import random
from itertools import permutations

import numpy as np
import pytest

from commgraph import (
    BudgetExceededError,
    CommGraph,
    NotAVertexError,
    PTrans,
    SizeMismatchError,
    Universe,
    center,
    centralizer,
    commutes,
    compose,
    empty,
    identity,
    neighbors,
    parse_element,
    point_map,
    power,
)
from commgraph.commuting import (
    _backtrack_images,
    _universe_elements,
    center_ids,
    commute_mask,
    ids_of_rows,
    is_vertex,
    row_of,
    universe_elements,
)

from oracles import commutes_naive, to_dict

ALPHA4 = parse_element("(1 2 3 4)")
BETA4 = parse_element("[1 2 3](3 4)")


class TestCommutes:
    def test_witness_pair_does_not_commute(self):
        assert not commutes(ALPHA4, BETA4)

    def test_identity_commutes_with_anything(self):
        assert commutes(identity(4), BETA4)

    def test_disjoint_point_maps(self):
        # both products are the empty map
        assert commutes(point_map(4, 0, 1), point_map(4, 2, 3))

    def test_symmetry_and_powers(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            a = PTrans.decode(rng.randrange((n + 1) ** n), n)
            b = PTrans.decode(rng.randrange((n + 1) ** n), n)
            assert commutes(a, b) == commutes(b, a)
            assert commutes(a, compose(a, a))


class TestCenter:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partial_center_brute_matches_analytic(self, n):
        brute = center(n, Universe.ALL_PARTIAL, "brute")
        analytic = center(n, Universe.ALL_PARTIAL, "analytic")
        assert {t.encode() for t in brute} == {t.encode() for t in analytic}
        assert {t.encode() for t in brute} == {identity(n).encode(), empty(n).encode()}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_center_is_identity(self, n):
        assert [t.encode() for t in center(n, Universe.FULL, "brute")] == [identity(n).encode()]

    def test_n1_center_is_whole_semigroup(self):
        assert len(center(1, Universe.ALL_PARTIAL, "brute")) == 2
        assert len(center(1, Universe.FULL, "brute")) == 1

    def test_brute_guard(self):
        with pytest.raises(BudgetExceededError):
            center(6, Universe.ALL_PARTIAL, "brute")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            center(3, Universe.ALL_PARTIAL, "guess")
        with pytest.raises(ValueError):
            center(3, Universe.PERMUTATIONS)


class TestGraphAndVertices:
    def test_graph_needs_two_points(self):
        with pytest.raises(ValueError):
            CommGraph(1)

    def test_center_excluded(self):
        g = CommGraph(4)
        assert not is_vertex(g, empty(4))
        assert not is_vertex(g, identity(4))
        assert is_vertex(g, ALPHA4)

    def test_full_graph_rejects_partial(self):
        g = CommGraph(4, Universe.FULL)
        with pytest.raises(NotAVertexError):
            is_vertex(g, point_map(4, 0, 1))

    def test_vertex_counts(self):
        assert CommGraph(2).vertex_count() == 7
        assert CommGraph(4, Universe.FULL).vertex_count() == 255

    def test_center_ids(self):
        assert center_ids(CommGraph(3)) == {identity(3).encode(), empty(3).encode()}
        assert center_ids(CommGraph(3, Universe.FULL)) == {identity(3).encode()}


class TestCentralizer:
    def test_full_cycle_centralizer(self):
        got = centralizer(ALPHA4, Universe.ALL_PARTIAL)
        expected = {empty(4).encode()} | {power(ALPHA4, k).encode() for k in range(1, 5)}
        assert {t.encode() for t in got} == expected
        assert len(got) == 5

    def test_chain_cycle_permutation_exclusion(self):
        assert centralizer(BETA4, Universe.PERMUTATIONS) == [identity(4)]

    def test_chain_cycle_strict_exclusion(self):
        assert centralizer(BETA4, Universe.STRICTLY_PARTIAL) == [empty(4)]

    def test_sorted_by_element_id(self):
        got = centralizer(BETA4, Universe.ALL_PARTIAL)
        ids = [t.encode() for t in got]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("n", [4, 5])
    def test_scan_backtrack_agree(self, n):
        rng = random.Random(n)
        for _ in range(50):
            a = PTrans.decode(rng.randrange((n + 1) ** n), n)
            for universe in Universe:
                scan = centralizer(a, universe, "scan")
                back = centralizer(a, universe, "backtrack")
                assert scan == back

    def test_centralizer_closed_under_composition(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 4)
            a = PTrans.decode(rng.randrange((n + 1) ** n), n)
            cent = centralizer(a, Universe.ALL_PARTIAL)
            ids = {t.encode() for t in cent}
            for u in cent[:20]:
                for v in cent[:20]:
                    assert compose(u, v).encode() in ids

    def test_scan_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            centralizer(identity(7), Universe.ALL_PARTIAL, "scan")

    def test_backtrack_size_guard(self):
        with pytest.raises(BudgetExceededError):
            centralizer(identity(13), Universe.ALL_PARTIAL, "backtrack")

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            centralizer(ALPHA4, Universe.ALL_PARTIAL, "magic")

    def test_backtrack_matches_naive_filter(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 4)
            a = PTrans.decode(rng.randrange((n + 1) ** n), n)
            got = {t.encode() for t in centralizer(a, Universe.ALL_PARTIAL, "backtrack")}
            ad = to_dict(a)
            brute = set()
            for v in range((n + 1) ** n):
                t = PTrans.decode(v, n)
                if commutes_naive(ad, to_dict(t)):
                    brute.add(v)
            assert got == brute


class TestJointCentralizer:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scan_mask_intersection(self, n):
        rng = random.Random(100 + n)
        for universe in Universe:
            rows, ids = universe_elements(n, universe)
            for _ in range(30):
                a = PTrans.decode(rng.randrange((n + 1) ** n), n)
                if rng.random() < 0.5:
                    b = rng.choice(centralizer(a, Universe.ALL_PARTIAL, "scan"))
                else:
                    b = PTrans.decode(rng.randrange((n + 1) ** n), n)
                mask = commute_mask(rows, row_of(a)) & commute_mask(rows, row_of(b))
                got = sorted(PTrans(n, s).encode() for s in _backtrack_images([a, b], universe))
                assert got == sorted(ids[mask].tolist())
                assert centralizer([a, b], universe, "backtrack") == \
                    centralizer([a, b], universe, "scan")

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_filtered_single_centralizer(self, n):
        # the single-subject centralizer filtered by the second subject is
        # the enumeration the joint search replaced; it stays as the oracle
        rng = random.Random(200 + n)
        for universe in (Universe.FULL, Universe.PERMUTATIONS, Universe.ALL_PARTIAL):
            for _ in range(8):
                a = PTrans(n, tuple(rng.randrange(n) for _ in range(n)))
                if universe is Universe.PERMUTATIONS:
                    b = PTrans(n, tuple(rng.sample(range(n), n)))
                else:
                    b = power(a, rng.randrange(2, 5)) if rng.random() < 0.5 else \
                        PTrans(n, tuple(rng.randrange(n) for _ in range(n)))
                joint = centralizer([a, b], universe, "backtrack")
                oracle = [t for t in centralizer(a, universe, "backtrack") if commutes(b, t)]
                assert joint == oracle

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            centralizer([], Universe.FULL)
        with pytest.raises(SizeMismatchError):
            centralizer([ALPHA4, identity(5)], Universe.FULL, "backtrack")


class TestNeighbors:
    def test_four_cycle_has_two_neighbors(self):
        g = CommGraph(4)
        got = list(neighbors(g, ALPHA4))
        assert got == sorted(
            [power(ALPHA4, 2), power(ALPHA4, 3)], key=lambda t: t.encode()
        )

    def test_central_element_rejected(self):
        with pytest.raises(NotAVertexError):
            list(neighbors(CommGraph(4), empty(4)))

    def test_degree_below_vertex_count(self):
        g = CommGraph(3)
        rng = random.Random(5)
        for _ in range(10):
            t = PTrans.decode(rng.randrange(4**3), 3)
            if not is_vertex(g, t):
                continue
            degree = len(list(neighbors(g, t)))
            assert degree < g.vertex_count()


def test_budget_env_override(monkeypatch):
    from commgraph.commuting import check_scan_budget

    monkeypatch.setenv("COMMGRAPH_BUDGET_ELEMS", "100")
    with pytest.raises(BudgetExceededError):
        check_scan_budget(4, Universe.ALL_PARTIAL)
    monkeypatch.setenv("COMMGRAPH_BUDGET_ELEMS", "3000000")
    check_scan_budget(7, Universe.ALL_PARTIAL)
    check_scan_budget(7, Universe.ALL_PARTIAL, long_run=True)


def test_backtrack_node_budget(monkeypatch):
    monkeypatch.setenv("COMMGRAPH_BUDGET_ELEMS", "50")
    with pytest.raises(BudgetExceededError):
        centralizer(identity(4), Universe.ALL_PARTIAL, "backtrack")
    lifted = centralizer(identity(4), Universe.ALL_PARTIAL, "backtrack", long_run=True)
    assert len(lifted) == 5**4


def test_universe_sizes():
    from commgraph.commuting import universe_size

    for n in (2, 3, 4, 5):
        assert universe_size(n, Universe.ALL_PARTIAL) == (n + 1) ** n
        assert universe_size(n, Universe.FULL) == n**n
        assert universe_size(n, Universe.STRICTLY_PARTIAL) == (n + 1) ** n - n**n
    assert universe_size(4, Universe.PERMUTATIONS) == 24


def test_strictly_partial_is_all_minus_full():
    rows, ids = universe_elements(3, Universe.STRICTLY_PARTIAL)
    all_ids = set(universe_elements(3, Universe.ALL_PARTIAL)[1].tolist())
    full_ids = set(universe_elements(3, Universe.FULL)[1].tolist())
    assert set(ids.tolist()) == all_ids - full_ids


@pytest.mark.parametrize("n", [6, 8])
def test_permutation_table_matches_sorted_tuples(n):
    """The table streamed from ``permutations`` equals the one built from a
    sorted list of tuples, row for row and id for id."""
    rows = np.array(sorted(permutations(range(n))), dtype=np.uint8)
    ids = ids_of_rows(rows, n)
    order = np.argsort(ids)
    got_rows, got_ids = _universe_elements(n, Universe.PERMUTATIONS)
    assert got_rows.dtype == np.uint8 and got_rows.shape == (len(rows), n)
    assert np.array_equal(got_rows, rows[order])
    assert np.array_equal(got_ids, ids[order])


def test_commute_mask_matches_pointwise():
    rng = random.Random(31)
    for n in (2, 3, 4):
        rows, ids = universe_elements(n, Universe.ALL_PARTIAL)
        for _ in range(5):
            u = PTrans.decode(rng.randrange((n + 1) ** n), n)
            mask = commute_mask(rows, row_of(u))
            for _ in range(30):
                v = rng.randrange((n + 1) ** n)
                assert bool(mask[v]) == commutes(u, PTrans.decode(v, n))
