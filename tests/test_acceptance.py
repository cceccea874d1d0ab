"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s``; the two long sweeps (the n=6
witness distance and the n=8 exhaustive oracle sweep) need ``--long-run``.
"""

import json
import random
import re
import time

import pytest

from commgraph import (
    CommGraph,
    PTrans,
    Universe,
    bfs_distance,
    center,
    centralizer,
    commutes,
    connected_components,
    diameter,
    empty,
    identity,
    parse_chain_cycle,
    parse_element,
    parse_idempotent,
    partial_connector_bruteforce,
    build_unified,
    certify_no_partial_connector,
    power,
    replay_lower_bound,
    scan_common_commuters,
    upper_bound_limit,
    upper_bound_path,
    verify_path,
    witness_pair,
)
from commgraph.commuting import center_ids
from commgraph.cli import main as cli_main

from test_witness import random_full_nonperm, random_perm, random_strictly_partial


def report(num, desc, cond, elapsed=None):
    status = "PASS" if cond else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {status}: {desc}{timing}")
    assert cond, f"criterion {num} failed: {desc}"


def test_criterion_01_center():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5):
        brute_p = {t.encode() for t in center(n, Universe.ALL_PARTIAL, "brute")}
        brute_t = {t.encode() for t in center(n, Universe.FULL, "brute")}
        ok &= brute_p == {empty(n).encode(), identity(n).encode()}
        ok &= brute_t == {identity(n).encode()}
        ok &= brute_p == {t.encode() for t in center(n, Universe.ALL_PARTIAL, "analytic")}
        ok &= brute_t == {t.encode() for t in center(n, Universe.FULL, "analytic")}
    elapsed = time.perf_counter() - t0
    report(1, "brute-force centers for n=2..5 match the closed form", ok and elapsed < 10, elapsed)


def test_criterion_02_prime_disconnection():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 5):
        g = CommGraph(n)
        summary = connected_components(g)
        ok &= summary.count > 1
        centers = center_ids(g)
        vertex_ids = [v for v in range((n + 1) ** n) if v not in centers]
        full_cycle_flags = [
            PTrans.decode(v, n).is_permutation() and PTrans.decode(v, n).is_full_cycle()
            for v in vertex_ids
        ]
        for comp in range(summary.count):
            members = [i for i, lab in enumerate(summary.labels) if lab == comp]
            flags = {full_cycle_flags[i] for i in members}
            if True in flags:
                ok &= flags == {True}
    elapsed = time.perf_counter() - t0
    report(2, "prime sizes disconnect; full-cycle components are pure", ok and elapsed < 60, elapsed)


def test_criterion_03_n4_exact_diameters():
    t0 = time.perf_counter()
    rep_p = diameter(CommGraph(4))
    rep_t = diameter(CommGraph(4, Universe.FULL))
    ok = rep_p.diameter == 4 and rep_t.diameter == 4
    a, b = rep_p.witness_pair
    ok &= bfs_distance(CommGraph(4), a, b) == 4
    elapsed = time.perf_counter() - t0
    report(3, "exact diameters at n=4 are 4 (partial and full), witness re-checked",
           ok and elapsed < 60, elapsed)


def test_criterion_04_n4_witness_distance():
    w = witness_pair(4)
    d = bfs_distance(CommGraph(4), w.alpha, w.beta)
    report(4, "n=4 witness pair sits at distance exactly 4", d == 4)


def test_criterion_05_n6_replay_without_long_flag():
    t0 = time.perf_counter()
    rep = replay_lower_bound(witness_pair(6))
    ok = rep.passed and rep.lower_bound == 5 and "imported_claims" not in rep.to_dict()
    report(5, "n=6 replay passes all six steps within default budgets",
           ok, time.perf_counter() - t0)


@pytest.mark.longrun
def test_criterion_05_n6_witness_distance_long():
    t0 = time.perf_counter()
    w = witness_pair(6)
    d = bfs_distance(CommGraph(6), w.alpha, w.beta, strategy="scan")
    report(5, "n=6 witness distance is exactly 5 (full sweep)", d == 5,
           time.perf_counter() - t0)


def test_criterion_06_cycle_centralizers():
    ok = True
    for n in (4, 5, 6):
        alpha = PTrans(n, tuple((x + 1) % n for x in range(n)))
        expected = {empty(n).encode()} | {power(alpha, k).encode() for k in range(1, n + 1)}
        got = centralizer(alpha, Universe.ALL_PARTIAL, "scan")
        ok &= {t.encode() for t in got} == expected and len(got) == n + 1
        if n in (4, 5):
            ok &= got == centralizer(alpha, Universe.ALL_PARTIAL, "backtrack")
    report(6, "full-cycle centralizers are exactly the empty map plus the n powers", ok)


def test_criterion_07_chain_cycle_exclusions():
    subjects = {
        4: parse_chain_cycle("[1 2 3](3 4)", 4),
        5: parse_chain_cycle("[5 1](1 2 3 4)", 5),
        6: parse_chain_cycle("[6 4 1 2](2 3 5)", 6),
    }
    ok = True
    for n, t in subjects.items():
        ok &= centralizer(t, Universe.PERMUTATIONS, "scan") == [identity(n)]
        ok &= centralizer(t, Universe.STRICTLY_PARTIAL, "scan") == [empty(n)]
    report(7, "tail+cycle maps commute only with the identity permutation and the empty map", ok)


def test_criterion_08_forced_idempotent_uniqueness():
    displays = {
        4: ("3 4 3 4", None),
        6: (None, "{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}"),
    }
    ok = True
    for n, (tab, blocks) in displays.items():
        w = witness_pair(n)
        shown = parse_element(tab) if tab else parse_idempotent(blocks)
        ok &= w.forced_e == shown
        commuting_idems = {
            t.encode()
            for t in centralizer(w.beta, Universe.FULL, "scan")
            if t.is_idempotent()
        }
        ok &= commuting_idems == {identity(n).encode(), w.forced_e.encode()}
    report(8, "the displayed idempotent is the unique non-identity idempotent "
              "commuting with the witness", ok)


def test_criterion_09_move_graph_oracle():
    t0 = time.perf_counter()
    violations = 0
    for n, wanted in ((4, 200), (5, 100)):
        rng = random.Random(90 + n)
        connected_seen = 0
        attempts = 0
        while connected_seen < wanted and attempts < wanted * 20:
            attempts += 1
            a = PTrans(n, tuple(rng.randrange(n) for _ in range(n)))
            b = PTrans(n, tuple(rng.randrange(n) for _ in range(n)))
            cert = certify_no_partial_connector(a, b)
            connectors = partial_connector_bruteforce(a, b)
            if cert.gamma_connected:
                connected_seen += 1
                if connectors != [empty(n)]:
                    violations += 1
            edges = build_unified(a, b).edges
            for gamma in connectors:
                dom = gamma.dom()
                if any((x in dom) != (y in dom) for x, y in edges):
                    violations += 1
        assert connected_seen == wanted, f"only {connected_seen} connected pairs at n={n}"
    report(9, "certificate vs brute force: zero violations, domain propagation holds "
              "on every connector", violations == 0, time.perf_counter() - t0)


def test_criterion_10_upper_bound_constructors():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for n in (4, 6):
        g = CommGraph(n)
        rng = random.Random(100 + n)
        classes = [
            lambda: (random_strictly_partial(rng, n), random_strictly_partial(rng, n)),
            lambda: (random_full_nonperm(rng, n), random_strictly_partial(rng, n)),
            lambda: (random_perm(rng, n), random_strictly_partial(rng, n)),
        ]
        for gen in classes:
            for i in range(1000):
                a, b = gen()
                if rng.random() < 0.5:
                    a, b = b, a
                cert = upper_bound_path(g, a, b)
                checked += 1
                if not verify_path(g, cert):
                    violations += 1
                if cert.claimed_length > upper_bound_limit(a, b):
                    violations += 1
                if n == 4 and cert.claimed_length > 4:
                    violations += 1
                if n == 4 and i < 120:
                    if bfs_distance(g, a, b) > cert.claimed_length:
                        violations += 1
    elapsed = time.perf_counter() - t0
    report(10, f"{checked} constructive paths verified within their case bounds "
               "(BFS cross-checked on the n=4 sample)",
           violations == 0 and elapsed < 300, elapsed)


def test_criterion_11_family_replays():
    t0 = time.perf_counter()
    ok = True
    for n in (9, 10, 12, 14, 15, 16):
        rep = replay_lower_bound(witness_pair(n))
        ok &= "imported_claims" not in rep.to_dict()  # both sides proved, nothing imported
        steps = {s.name: s for s in rep.steps}
        ok &= steps["no-common-neighbor"].method == (
            "backtrack-enumeration of the joint centralizer, move-graph cross-check")
        ok &= steps["middle-noncommuting"].passed  # the ef != fe check
        if n == 10:
            # the joint enumeration finds the involution commuting with e and f
            ok &= not rep.passed and rep.lower_bound is None
            ok &= not steps["no-common-neighbor"].passed
            ok &= "4 3 2 1 8 7 6 5 10 9" in steps["no-common-neighbor"].detail
        else:
            ok &= rep.passed and rep.lower_bound == 5
    elapsed = time.perf_counter() - t0
    report(11, "family replays (n=9, 12, 14, 15, 16) pass by one joint enumeration; "
               "the n=10 replay finds a common neighbor of e and f and gives no bound",
           ok and elapsed < 10, elapsed)


@pytest.mark.longrun
def test_criterion_11_n8_exhaustive_scan_long():
    # the 9^8 sweep is the independent oracle for the replay's joint enumerations
    t0 = time.perf_counter()
    w = witness_pair(8)
    ok = True
    for k in range(2, 8):
        subjects = [power(w.alpha, k), w.forced_e]
        swept = scan_common_commuters(8, subjects)
        ok &= swept == [t.encode() for t in centralizer(subjects, Universe.ALL_PARTIAL)]
        ok &= set(swept) == {empty(8).encode(), identity(8).encode()}
    rep = replay_lower_bound(w)
    ok &= rep.passed and rep.lower_bound == 5
    report(11, "n=8: the 9^8 sweep matches the replay's joint enumerations, and the replay passes",
           ok, time.perf_counter() - t0)


ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')
WORKERS = re.compile(r'"workers": \d+')


def test_criterion_12_json_determinism(capsys):
    commands = [
        ["center", "--n", "4", "--mode", "brute"],
        ["centralizer", "--a", "[1 2 3](3 4)"],
        ["distance", "--n", "4", "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)"],
        ["components", "--n", "3"],
        ["diameter", "--n", "4"],
        ["gamma", "--n", "6", "--a", "(1 2 3 4 5 6)^2", "--b", "{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}"],
        ["witness", "--n", "10"],
        ["replay", "--n", "9"],
        ["oracle", "--a", "(1 2 3 4)", "--b", "(1 2 3 4)^2"],
    ]
    ok = True
    for argv in commands:
        outs = []
        worker_variants = (["--workers", "1"], ["--workers", "2"]) if argv[0] in (
            "diameter", "replay") else ([], [])
        for extra in worker_variants:
            code = cli_main(argv + ["--format", "json"] + extra)
            captured = capsys.readouterr().out
            assert code == 0
            json.loads(captured)
            outs.append(WORKERS.sub('"workers": W', ELAPSED.sub('"elapsed_s": X', captured)))
        ok &= outs[0] == outs[1]
    report(12, "JSON output is byte-stable across repeated runs and worker counts", ok)
