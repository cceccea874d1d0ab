import random

import pytest

from commgraph import (
    CommGraph,
    PathCertificate,
    PTrans,
    Universe,
    bfs_distance,
    centralizer,
    certify_no_partial_connector,
    chain_cycle_parts,
    commutes,
    empty,
    forced_idempotent,
    identity,
    make_chain_cycle,
    parse_chain_cycle,
    parse_element,
    parse_idempotent,
    point_map,
    power,
    replay_lower_bound,
    scan_common_commuters,
    upper_bound_limit,
    upper_bound_path,
    verify_path,
    witness_pair,
)
from commgraph import witness
from commgraph.witness import WitnessFamily, audit_imported_full_side, is_prime

from oracles import all_partial_dicts, commutes_naive, from_dict, to_dict


class TestWitnessPairs:
    def test_n4(self):
        w = witness_pair(4)
        assert w.alpha == parse_element("(1 2 3 4)")
        assert w.beta == parse_element("[1 2 3](3 4)")
        assert w.forced_e == parse_element("3 4 3 4")
        assert w.forced_f is None
        assert w.expected_lower_bound == 4

    def test_n6(self):
        w = witness_pair(6)
        assert w.beta == parse_chain_cycle("[6 4 1 2](2 3 5)", 6)
        assert w.forced_e == parse_idempotent("{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}")

    def test_n8(self):
        w = witness_pair(8)
        assert w.alpha == parse_chain_cycle("(1 2 3 4 5 6 7 8)")
        assert w.beta == parse_chain_cycle("[7 6 8 5 4 1](1 2 3)", 8)
        assert w.forced_e == parse_idempotent("{1 8 -> 1}{2 5 7 -> 2}{3 4 6 -> 3}")

    def test_n9_odd_family(self):
        w = witness_pair(9)
        assert w.family is WitnessFamily.ODD_COMPOSITE and w.m == 4
        # x_i = i, y_i = 4+i, z = 9
        assert w.alpha == parse_chain_cycle("[9 5 6 7 8 1](1 2 3 4)", 9)
        assert w.beta == parse_chain_cycle("[2 3 4 1 9 6](6 7 8 5)", 9)
        assert w.forced_e == parse_idempotent("{1 5 -> 1}{2 6 -> 2}{3 7 -> 3}{4 8 9 -> 4}")
        assert w.forced_f == parse_idempotent("{5 2 9 -> 5}{6 3 -> 6}{7 4 -> 7}{8 1 -> 8}")

    def test_n10_even_family(self):
        w = witness_pair(10)
        assert w.family is WitnessFamily.EVEN_COMPOSITE and w.m == 4
        # x_i = i, y_i = 4+i, z = 9, w = 10
        assert w.alpha == parse_chain_cycle("[9 5 6 7 8 10 2](2 3 4 1)", 10)
        assert w.beta == parse_chain_cycle("[10 2 4 1 3 9 6](6 7 8 5)", 10)
        assert w.forced_e == parse_idempotent("{1 5 10 -> 1}{2 6 -> 2}{3 7 -> 3}{4 8 9 -> 4}")
        assert w.forced_f == parse_idempotent("{5 2 9 -> 5}{6 4 -> 6}{7 1 -> 7}{8 3 10 -> 8}")

    @pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12, 15])
    def test_invariants(self, n):
        w = witness_pair(n)
        assert w.alpha.is_full() and w.beta.is_full()
        assert not commutes(w.alpha, w.beta)
        for t in (w.alpha, w.beta):
            assert t != identity(n)
        if w.forced_e is not None:
            assert w.forced_e.is_idempotent() and commutes(w.alpha if w.m else w.beta, w.forced_e)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 11])
    def test_rejects_prime_or_small(self, n):
        with pytest.raises(ValueError):
            witness_pair(n)

    def test_is_prime(self):
        assert [k for k in range(2, 20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestChainCycleParts:
    def test_round_trip(self):
        t = make_chain_cycle(6, [5, 3, 0], [1, 2, 4])
        assert chain_cycle_parts(t) == ([5, 3, 0], [1, 2, 4])

    def test_permutation_has_no_tail(self):
        assert chain_cycle_parts(parse_element("(1 2 3 4)")) is None

    def test_partial_rejected(self):
        assert chain_cycle_parts(point_map(4, 0, 1)) is None

    def test_two_tails_rejected(self):
        t = PTrans(4, (1, 0, 0, 1))
        assert chain_cycle_parts(t) is None

    def test_two_cycles_rejected(self):
        t = PTrans(5, (1, 0, 3, 2, 0))
        assert chain_cycle_parts(t) is None

    def test_label_reuse_rejected(self):
        with pytest.raises(ValueError):
            make_chain_cycle(4, [0, 1], [1, 2, 3])


class TestForcedIdempotent:
    def test_matches_n4_display(self):
        assert forced_idempotent(4, [2, 3], [0, 1]) == parse_element("3 4 3 4")

    def test_matches_n6_display(self):
        e = forced_idempotent(6, [1, 2, 4], [5, 3, 0])
        assert e == parse_idempotent("{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}")

    def test_matches_n8_display(self):
        e = forced_idempotent(8, [0, 1, 2], [6, 5, 7, 4, 3])
        assert e == parse_idempotent("{1 8 -> 1}{2 5 7 -> 2}{3 4 6 -> 3}")

    @pytest.mark.parametrize("n", [4, 6, 8, 9, 10])
    def test_idempotent_and_commuting(self, n):
        w = witness_pair(n)
        subject = w.alpha if w.forced_f is not None else w.beta
        tail, cycle = chain_cycle_parts(subject)
        e = forced_idempotent(n, cycle, tail)
        assert e.is_idempotent()
        assert commutes(subject, e)

    @pytest.mark.parametrize("n,expr", [
        (4, "[1 2 3](3 4)"),
        (5, "[5 1](1 2 3 4)"),
        (6, "[6 4 1 2](2 3 5)"),
    ])
    def test_uniqueness_among_full_idempotents(self, n, expr):
        subject = parse_chain_cycle(expr, n)
        tail, cycle = chain_cycle_parts(subject)
        e = forced_idempotent(n, cycle, tail)
        commuting_idems = {
            t.encode()
            for t in centralizer(subject, Universe.FULL, "scan")
            if t.is_idempotent()
        }
        assert commuting_idems == {identity(n).encode(), e.encode()}

    def test_validates_partition(self):
        with pytest.raises(ValueError):
            forced_idempotent(4, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            forced_idempotent(4, [0, 1, 2, 3], [])


def random_strictly_partial(rng, n):
    while True:
        t = PTrans.decode(rng.randrange((n + 1) ** n), n)
        if not t.is_full() and not t.is_empty():
            return t


def random_full_nonperm(rng, n):
    while True:
        t = PTrans(n, tuple(rng.randrange(n) for _ in range(n)))
        if not t.is_permutation():
            return t


def random_perm(rng, n):
    while True:
        images = list(range(n))
        rng.shuffle(images)
        t = PTrans(n, tuple(images))
        if t != identity(n):
            return t


class TestUpperBoundPath:
    def test_two_strictly_partial(self):
        g = CommGraph(4)
        a = PTrans.from_pairs(4, {0: 0})
        b = PTrans.from_pairs(4, {1: 2})
        cert = upper_bound_path(g, a, b)
        assert cert.claimed_length <= 4
        assert verify_path(g, cert)
        assert cert.vertices[0] == a and cert.vertices[-1] == b

    def test_rank_one_idempotent_endpoint(self):
        g = CommGraph(4)
        a = PTrans(4, (0, 0, 0, 0))
        b = PTrans.from_pairs(4, {1: 2, 2: 3})
        cert = upper_bound_path(g, a, b)
        assert cert.claimed_length <= 3
        assert verify_path(g, cert)

    def test_four_cycle_crossing_pattern(self):
        g = CommGraph(4)
        a = parse_element("(1 2 3 4)")
        b = PTrans.from_pairs(4, {0: 2, 2: 3})  # misses 1 in im, 1 in dom: crossing hop
        cert = upper_bound_path(g, a, b)
        assert cert.claimed_length <= 4
        assert verify_path(g, cert)

    def test_both_full_rejected(self):
        g = CommGraph(4)
        with pytest.raises(ValueError):
            upper_bound_path(g, parse_element("(1 2 3 4)"), parse_element("3 4 3 4"))

    def test_full_cycle_needs_composite(self):
        g = CommGraph(5)
        with pytest.raises(ValueError):
            upper_bound_path(g, parse_element("(1 2 3 4 5)"), point_map(5, 0, 1))

    def test_central_endpoint_rejected(self):
        g = CommGraph(4)
        with pytest.raises(ValueError):
            upper_bound_path(g, empty(4), point_map(4, 0, 1))

    def test_needs_partial_graph(self):
        g = CommGraph(4, Universe.FULL)
        with pytest.raises(ValueError):
            upper_bound_path(g, parse_element("(1 2 3 4)"), point_map(4, 0, 1))

    @pytest.mark.parametrize("n", [4, 6])
    def test_random_pairs_quick(self, n):
        g = CommGraph(n)
        rng = random.Random(n * 100)
        gens = [
            lambda: (random_strictly_partial(rng, n), random_strictly_partial(rng, n)),
            lambda: (random_full_nonperm(rng, n), random_strictly_partial(rng, n)),
            lambda: (random_perm(rng, n), random_strictly_partial(rng, n)),
        ]
        for gen in gens:
            for _ in range(60):
                a, b = gen()
                if rng.random() < 0.5:
                    a, b = b, a
                cert = upper_bound_path(g, a, b)
                assert verify_path(g, cert)
                assert cert.claimed_length <= upper_bound_limit(a, b)
                assert cert.vertices[0] == a and cert.vertices[-1] == b

    def test_deterministic(self):
        g = CommGraph(6)
        a = random_perm(random.Random(1), 6)
        b = random_strictly_partial(random.Random(2), 6)
        assert upper_bound_path(g, a, b) == upper_bound_path(g, a, b)


class TestLimits:
    def test_limit_table(self):
        idem = PTrans(4, (0, 0, 0, 0))
        nonidem = PTrans(4, (1, 0, 0, 0))
        perm = parse_element("(1 2 3 4)")
        sp = point_map(4, 0, 1)
        assert upper_bound_limit(sp, sp) == 4
        assert upper_bound_limit(idem, sp) == 3
        assert upper_bound_limit(nonidem, sp) == 4
        assert upper_bound_limit(perm, sp) == 4  # n == 4 refinement
        assert upper_bound_limit(parse_element("(1 2 3 4 5 6)"), point_map(6, 0, 1)) == 5


class TestReplay:
    @pytest.mark.parametrize("n,bound", [(4, 4), (6, 5), (8, 5)])
    def test_named_cases_fully_machine_checked(self, n, bound):
        report = replay_lower_bound(witness_pair(n))
        assert report.passed and report.lower_bound == bound
        assert not hasattr(report, "imported_claims")
        assert "imported_claims" not in report.to_dict()
        assert [s.name for s in report.steps] == [
            "endpoints-noncommuting",
            "neighbor-characterization",
            "forced-idempotent",
            "middle-noncommuting",
            "no-common-neighbor",
            "lower-bound",
        ]

    @pytest.mark.parametrize("n", [9, 10, 12, 14, 15, 16])
    def test_family_cases_pass_with_explicit_import(self, n):
        # nothing is imported: one joint enumeration over all partial maps
        # settles the full and the strictly partial side of the step
        report = replay_lower_bound(witness_pair(n))
        assert "imported_claims" not in report.to_dict()
        step = {s.name: s for s in report.steps}["no-common-neighbor"]
        assert step.method == "backtrack-enumeration of the joint centralizer, move-graph cross-check"
        assert step.claim == "no vertex commutes with both e and f (distance >= 5)"
        if n == 10:
            # the involution commutes with both e and f (see the audit tests)
            assert not report.passed and report.lower_bound is None
            assert not step.passed
            assert "4 3 2 1 8 7 6 5 10 9" in step.detail
        else:
            assert report.passed and report.lower_bound == 5
            assert step.passed and step.detail == ""

    def test_report_serializes(self):
        d = replay_lower_bound(witness_pair(4)).to_dict()
        assert d["n"] == 4 and d["passed"] is True
        assert len(d["steps"]) == 6

    @pytest.mark.parametrize("n", [4, 6])
    def test_forced_idempotent_unique_by_scan(self, n):
        # the scan over T(n) agrees with the replay's backtracking enumeration
        w = witness_pair(n)
        scanned = centralizer(w.beta, Universe.FULL, "scan")
        idems = {t.encode() for t in scanned if t.is_idempotent()}
        assert idems == {identity(n).encode(), w.forced_e.encode()}

    @pytest.mark.parametrize("n", [4, 6])
    def test_joint_centralizers_match_sweep(self, n):
        w = witness_pair(n)
        for k in range(2, n):
            subjects = [power(w.alpha, k), w.forced_e]
            swept = scan_common_commuters(n, subjects)
            for strategy in ("scan", "backtrack"):
                got = centralizer(subjects, Universe.ALL_PARTIAL, strategy)
                assert [t.encode() for t in got] == swept, (k, strategy)

    def test_scan_common_commuters_matches_centralizer(self):
        w = witness_pair(4)
        ids = scan_common_commuters(4, [w.forced_e])
        expected = {t.encode() for t in centralizer(w.forced_e, Universe.ALL_PARTIAL)}
        assert set(ids) == expected

    def test_scan_common_commuters_across_chunks(self, monkeypatch):
        # 625 ids in chunks of 100: the last chunk is short
        w = witness_pair(4)
        whole = scan_common_commuters(4, [w.forced_e, w.alpha])
        monkeypatch.setattr(witness, "SCAN_CHUNK", 100)
        assert scan_common_commuters(4, [w.forced_e, w.alpha]) == whole
        expected = [t.encode() for t in centralizer([w.forced_e, w.alpha], Universe.ALL_PARTIAL)]
        assert whole == expected


def _common_vertices(u, v):
    """Non-central maps commuting with both: the dict oracle at n=4, joint
    backtracking beyond."""
    n = u.n
    if n == 4:
        du, dv = to_dict(u), to_dict(v)
        ident = {x: x for x in range(1, n + 1)}
        found = [from_dict(n, d) for d in all_partial_dicts(n)
                 if d not in ({}, ident) and commutes_naive(d, du) and commutes_naive(d, dv)]
        return sorted(found, key=PTrans.encode)
    both = centralizer([u, v], Universe.ALL_PARTIAL, "backtrack")
    return [t for t in both if not (t.is_empty() or t.is_identity())]


def _no_common_pairs():
    rng = random.Random(20260718)
    pairs = [tuple(PTrans(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(2))
             for n in (4, 5, 6) for _ in range(15)]
    # permutations fixing 4: the partial identity on {4} commutes with both
    pairs.append((PTrans(4, (1, 2, 0, 3)), PTrans(4, (2, 0, 1, 3))))
    return pairs


class TestNoCommonVertex:
    @pytest.mark.parametrize("u,v", _no_common_pairs(), ids=lambda t: str(t))
    def test_matches_oracle(self, u, v):
        ok, detail = witness._no_common_vertex_backtrack(u, v)
        common = _common_vertices(u, v)
        cert = certify_no_partial_connector(u, v)
        if cert.gamma_connected:  # the certificate's one-sided claim
            assert all(t.is_full() for t in common)
        assert ok == (cert.gamma_connected and not common)
        assert detail == ("" if ok else f"counterexamples: {[str(t) for t in common[:3]]}")

    def test_pairs_include_strictly_partial_commuter(self):
        assert any(not t.is_full()
                   for u, v in _no_common_pairs() for t in _common_vertices(u, v))


class TestImportedFullSideAudit:
    def test_odd_family_import_holds(self):
        audit = audit_imported_full_side(witness_pair(9))
        assert audit.holds and audit.counterexamples == ()

    def test_even_n12_import_holds(self):
        audit = audit_imported_full_side(witness_pair(12))
        assert audit.holds

    def test_even_n10_import_refuted(self):
        # Known defect in the displayed n=10 witnesses: the block systems of e
        # and f are symmetric under one involution, which commutes with both,
        # giving a verified path of length 4 between the endpoints.  The
        # replay runs the same enumeration and fails its no-common-neighbor step.
        w = witness_pair(10)
        audit = audit_imported_full_side(w)
        assert not audit.holds
        gamma = parse_element("4 3 2 1 8 7 6 5 10 9")
        assert gamma in audit.counterexamples
        assert commutes(gamma, w.forced_e) and commutes(gamma, w.forced_f)
        cert = PathCertificate.from_vertices([w.alpha, w.forced_e, gamma, w.forced_f, w.beta])
        assert verify_path(CommGraph(10), cert)
        assert verify_path(CommGraph(10, Universe.FULL), cert)

    @pytest.mark.parametrize("n", [9, 10, 12, 15, 16])
    def test_joint_full_centralizer_pinned(self, n):
        w = witness_pair(n)
        got = {str(t) for t in centralizer([w.forced_e, w.forced_f], Universe.FULL, "backtrack")}
        expected = {str(identity(n))}
        if n == 10:
            expected.add("4 3 2 1 8 7 6 5 10 9")
        assert got == expected

    def test_rejects_named_cases(self):
        with pytest.raises(ValueError):
            audit_imported_full_side(witness_pair(6))
