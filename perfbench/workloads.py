"""The three workloads: seeded inputs, the timed operations and their checks.

Every workload is a fixed list of operations drawn once from ``MASTER_SEED``.
``--seed`` relabels the points of every input by a random permutation.
Relabelling is an automorphism of the commuting graph, so each run asks
different questions of the same shape: every run has the same mix of cheap and
costly operations, in the same order (which keeps the memory high-water mark
from depending on the seed), and the answers stay checkable against the
reference.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import reference as R

MASTER_SEED = 20251110

# Outcome of a check: None when the output is right, FAILED when the operation
# returned a verdict the reference refutes (counted as failed), otherwise a
# message saying what is wrong (the run is then not correct).
FAILED = "failed"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]  # the timed call into commgraph
    check: Callable[[Any, "Refs"], str | None]  # its result, after the timed passes


class Refs:
    """Reference answers, computed by ``reference`` only, built on first use."""

    def __init__(self) -> None:
        self._graphs: dict[tuple[int, bool], R.Graph] = {}
        self._dist: dict[tuple, Any] = {}
        self._comps: dict[tuple[int, bool], list[list[int]]] = {}

    def graph(self, n: int, full: bool) -> R.Graph:
        if (n, full) not in self._graphs:
            g = R.Graph(n, full)
            g.cross_check(2000, random.Random(n))
            self._graphs[n, full] = g
        return self._graphs[n, full]

    def bfs(self, n: int, full: bool, a: tuple):
        key = (n, full, a)
        if key not in self._dist:
            g = self.graph(n, full)
            self._dist[key] = g.bfs(g.index[a])
        return self._dist[key]

    def distance(self, n: int, full: bool, a: tuple, b: tuple) -> int | None:
        d = int(self.bfs(n, full, a)[self.graph(n, full).index[b]])
        return None if d < 0 else d

    def components(self, n: int, full: bool) -> list[list[int]]:
        if (n, full) not in self._comps:
            self._comps[n, full] = self.graph(n, full).components()
        return self._comps[n, full]


# -- inputs ---------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _is_full_cycle(t: tuple) -> bool:
    if not R.is_full(t) or len(set(t)) != len(t):
        return False
    x, steps = t[0], 1
    while x != 0:
        x, steps = t[x], steps + 1
    return steps == len(t)


def _random_vertex(rng: random.Random, n: int, full: bool) -> tuple:
    """Uniform over the vertices outside the isolated full-cycle components
    that every prime n has (each full cycle's centralizer is its own powers
    plus the center)."""
    values = list(range(n)) if full else [None] + list(range(n))
    while True:
        t = tuple(rng.choice(values) for _ in range(n))
        if R.is_central(t, full) or (_is_prime(n) and _is_full_cycle(t)):
            continue
        return t


def _random_perm(rng: random.Random, n: int) -> tuple:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _relabel(rng: random.Random, *elems: tuple) -> tuple:
    sigma = _random_perm(rng, len(elems[0]))
    return tuple(R.conjugate(t, sigma) for t in elems)


def _to_ptrans(cg, t: tuple):
    return cg.PTrans(len(t), tuple(cg.UNDEF if v is None else v for v in t))


# -- pair-queries ------------------------------------------------------------------

# (n, full, strategy, pairs per pass).  P(4) is asked with backtracking
# neighbours; P(5) and T(5) with the default strategy (a vectorised scan).
PAIR_GRAPHS = ((5, False, "auto", 5), (5, True, "auto", 5), (4, False, "backtrack", 5))


def _cli_op(cg, command: str, n: int, full: bool, strategy: str, a: tuple, b: tuple) -> Op:
    argv = [command, "--n", str(n), "--semigroup", "full" if full else "partial",
            "--strategy", strategy, "--a", R.fmt(a), "--b", R.fmt(b), "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cg.cli.main(argv)
        return code, out.getvalue()

    def check(raw, refs: Refs) -> str | None:
        code, env = raw[0], json.loads(raw[1])
        want = refs.distance(n, full, a, b)
        if code != 0:
            return f"exit code {code}, reference distance {want}"
        if env["inputs"] != {"a": R.fmt(a), "b": R.fmt(b)}:
            return f"inputs echoed as {env['inputs']}"
        res = env["result"]
        if command == "distance":
            return None if res["distance"] == want else f"distance {res['distance']}, reference {want}"
        verts = [R.parse_tabular(s) for s in res["vertices"]]
        bad = R.check_path(verts, a, b, full)
        if bad:
            return bad
        if res["length"] != len(verts) - 1 or res["length"] != want or res["verified"] is not True:
            return f"path length {res['length']} (verified {res['verified']}), reference {want}"
        return None

    return Op(f"{command} {'T' if full else 'P'}({n}) {strategy} {R.fmt(a)} | {R.fmt(b)}",
              run, check)


def pair_queries(cg, seed: int) -> list[Op]:
    master, rng = random.Random(MASTER_SEED), random.Random(seed)
    ops = []
    for n, full, strategy, count in PAIR_GRAPHS:
        for _ in range(count):
            a = _random_vertex(master, n, full)
            b = _random_vertex(master, n, full)
            while b == a:
                b = _random_vertex(master, n, full)
            a, b = _relabel(rng, a, b)
            for command in ("distance", "path"):
                ops.append(_cli_op(cg, command, n, full, strategy, a, b))
    return ops


# -- whole-graph ------------------------------------------------------------------

LOWER_ONLY_SEEDS = 3  # P(5) lower-only diameters, one seed each


def _check_components(refs: Refs, n: int, full: bool, count: int, sizes: list[int],
                      reps: list[str]) -> str | None:
    comps = refs.components(n, full)
    g = refs.graph(n, full)
    if count != len(comps) or sorted(sizes) != sorted(map(len, comps)):
        return f"{count} components of sizes {sorted(sizes)}, reference {sorted(map(len, comps))}"
    where = {v: i for i, c in enumerate(comps) for v in c}
    rep_comps = [where[g.index[R.parse_tabular(r)]] for r in reps]
    if len(set(rep_comps)) != count or [len(comps[i]) for i in rep_comps] != sizes:
        return "component representatives do not match their sizes"
    if _is_prime(n):
        # the paper: (n-2)! isolated components of size n-1 plus one giant one
        small = sorted(sizes)[:-1]
        if small != [n - 1] * len(small) or len(small) != math.factorial(n - 2):
            return f"prime n={n} component sizes {sorted(sizes)} break the (n-2)! x (n-1) law"
    return None


def _exact_diameter_op(cg, n: int, full: bool) -> Op:
    semigroup = cg.Universe.FULL if full else cg.Universe.ALL_PARTIAL

    def run():
        return cg.graphalg.diameter(cg.CommGraph(n, semigroup), mode="exact")

    def check(rep, refs: Refs) -> str | None:
        diam, connected = rep.diameter, rep.connected
        comps = refs.components(n, full)
        if connected != (len(comps) == 1):
            return f"connected={connected}, reference has {len(comps)} components"
        if not connected:
            sizes = sorted(rep.component_sizes or ())
            if diam is not None or rep.component_count != len(comps) or sizes != sorted(map(len, comps)):
                return f"disconnected report {rep} disagrees with the reference components"
            return None
        want = refs.graph(n, full).diameter()
        if n == 4 and want != 4:
            return f"reference diameter of P(4)/T(4) is {want}, the paper says 4"
        if diam != want:
            return f"diameter {diam}, reference {want}"
        a, b = (R.parse_tabular(str(t)) for t in rep.witness_pair)
        if refs.distance(n, full, a, b) != diam:
            return "witness pair is not at the reported distance"
        return None

    return Op(f"diameter exact {'T' if full else 'P'}({n})", run, check)


def _components_op(cg, n: int, full: bool) -> Op:
    semigroup = cg.Universe.FULL if full else cg.Universe.ALL_PARTIAL

    def run():
        return cg.graphalg.connected_components(cg.CommGraph(n, semigroup))

    def check(s, refs: Refs) -> str | None:
        return _check_components(refs, n, full, s.count, list(s.sizes),
                                 [str(t) for t in s.representatives])

    return Op(f"components {'T' if full else 'P'}({n})", run, check)


def _lower_only_op(cg, seed_elem: tuple) -> Op:
    n = len(seed_elem)
    seed_pt = _to_ptrans(cg, seed_elem)

    def run():
        return cg.graphalg.diameter(cg.CommGraph(n), mode="lower-only", seeds=[seed_pt])

    def check(rep, refs: Refs) -> str | None:
        bound, connected = rep.diameter, rep.connected
        seed_out, far = (R.parse_tabular(str(t)) for t in rep.witness_pair)
        dist = refs.bfs(n, False, seed_elem)
        ecc = int(dist.max())
        if bound != ecc or connected != bool((dist >= 0).all()):
            return f"bound {bound} connected {connected}, reference eccentricity {ecc}"
        if seed_out != seed_elem or refs.distance(n, False, seed_elem, far) != ecc:
            return "witness pair is not at the reported distance from the seed"
        return None

    return Op(f"diameter lower-only P({n}) seed {R.fmt(seed_elem)}", run, check)


def whole_graph(cg, seed: int) -> list[Op]:
    master, rng = random.Random(MASTER_SEED), random.Random(seed)
    ops = [
        _exact_diameter_op(cg, 4, False),
        _exact_diameter_op(cg, 5, True),
        _components_op(cg, 5, False),
        _components_op(cg, 5, True),
    ]
    for _ in range(LOWER_ONLY_SEEDS):
        (s,) = _relabel(rng, _random_vertex(master, 5, False))
        ops.append(_lower_only_op(cg, s))
    return ops


# -- proof-replay -----------------------------------------------------------------

REPLAY_NS = (4, 6, 8, 9, 10, 12)
AUDIT_NS = (9, 10)
PATH_NS = range(6, 13)
PATHS_PER_N = 8


def _case_parts(case) -> tuple:
    parts = [case.alpha, case.beta, case.forced_e, case.forced_f]
    return tuple(None if t is None else R.parse_tabular(str(t)) for t in parts)


def _short_path(alpha, beta, e, f, n: int) -> list[tuple] | None:
    """A verified alpha-beta path of length 4 through the forced idempotents,
    found by reference search, or None.  At n = 4 the replay bound is 4 and
    the reference distance decides instead."""
    if f is None:
        candidates = ([alpha, R.power(alpha, k), t, e, beta]
                      for k in range(2, n)
                      for t in R.joint_commuters([R.power(alpha, k), e], full_only=False))
    else:
        candidates = ([alpha, e, t, f, beta]
                      for t in R.joint_commuters([e, f], full_only=False))
    for path in candidates:
        if R.check_path(path, alpha, beta, full=False) is None:
            return path
    return None


def _replay_op(cg, n: int) -> Op:
    case = cg.witness.witness_pair(n)

    def run():
        return cg.witness.replay_lower_bound(case)

    def check(rep, refs: Refs) -> str | None:
        passed, bound = rep.passed, rep.lower_bound
        alpha, beta, e, f = _case_parts(rep.case)
        if R.commutes(alpha, beta):
            return "the endpoints commute"
        for idem, end in ((e, beta if f is None else alpha), (f, beta)):
            if idem is not None and not (R.is_idempotent(idem) and R.commutes(idem, end)):
                return f"{R.fmt(idem)} is not an idempotent commuting with {R.fmt(end)}"
        if n == 4:
            want = refs.distance(4, False, alpha, beta)
            return None if passed and bound == want == 4 else f"bound {bound}, reference distance {want}"
        if _short_path(alpha, beta, e, f, n) is not None:
            # the reference holds a verified length-4 path: bound 5 is refuted
            return FAILED if passed or bound is not None else None
        return None if passed and bound == 5 else f"passed={passed} bound={bound}, nothing refutes 5"

    return Op(f"replay n={n}", run, check)


def _audit_op(cg, n: int) -> Op:
    case = cg.witness.witness_pair(n)

    def run():
        return cg.witness.audit_imported_full_side(case)

    def check(audit, refs: Refs) -> str | None:
        holds, found = audit.holds, sorted(str(t) for t in audit.counterexamples)
        _, _, e, f = _case_parts(audit.case)
        want = sorted(R.fmt(t) for t in R.joint_commuters([e, f], full_only=True)
                      if t != R.identity(n))
        if found != want or holds != (not want):
            return f"audit found {found} (holds={holds}), reference {want}"
        return None

    return Op(f"audit n={n}", run, check)


def _path_limit(a: tuple, b: tuple) -> int:
    """The constructive bounds: both strictly partial 4; a permutation end 5
    (4 at n = 4); an idempotent full end 3; any other full end 4."""
    if not R.is_full(a) and not R.is_full(b):
        return 4
    full = a if R.is_full(a) else b
    if len(set(full)) == len(full):
        return 4 if len(a) == 4 else 5
    return 3 if R.is_idempotent(full) else 4


def _random_path_pair(rng: random.Random, n: int, kind: int) -> tuple:
    """kind 0: two strictly partial maps; 1: a permutation and a strictly
    partial map; 2: a full non-permutation and a strictly partial map."""
    def strictly_partial():
        while True:
            t = _random_vertex(rng, n, False)
            if not R.is_full(t):
                return t

    if kind == 0:
        return strictly_partial(), strictly_partial()
    while True:
        t = _random_perm(rng, n) if kind == 1 else _random_vertex(rng, n, True)
        is_perm = len(set(t)) == n
        if is_perm == (kind == 1) and not R.is_central(t, True) and not (
                _is_prime(n) and _is_full_cycle(t)):
            break
    pair = (t, strictly_partial())
    return pair if rng.random() < 0.5 else pair[::-1]


def _path_op(cg, a: tuple, b: tuple) -> Op:
    n = len(a)
    pa, pb = _to_ptrans(cg, a), _to_ptrans(cg, b)
    graph = cg.CommGraph(n)

    def run():
        return cg.witness.upper_bound_path(graph, pa, pb)

    def check(cert, refs: Refs) -> str | None:
        length, verts = cert.claimed_length, [R.parse_tabular(str(t)) for t in cert.vertices]
        bad = R.check_path(verts, a, b, full=False)
        if bad:
            return bad
        if length != len(verts) - 1 or length > _path_limit(a, b):
            return f"length {length} over the bound {_path_limit(a, b)}"
        return None

    return Op(f"upper_bound_path n={n} {R.fmt(a)} | {R.fmt(b)}", run, check)


def proof_replay(cg, seed: int) -> list[Op]:
    master, rng = random.Random(MASTER_SEED), random.Random(seed)
    ops = [_replay_op(cg, n) for n in REPLAY_NS] + [_audit_op(cg, n) for n in AUDIT_NS]
    for n, kind in itertools.product(PATH_NS, range(PATHS_PER_N)):
        a, b = _relabel(rng, *_random_path_pair(master, n, kind % 3))
        ops.append(_path_op(cg, a, b))
    return ops


# -- registry ----------------------------------------------------------------------

# (builder, the (n, universe name) tables the operations fill lazily)
WORKLOADS = {
    "pair-queries": (pair_queries, [(5, "ALL_PARTIAL"), (5, "FULL"), (4, "ALL_PARTIAL")]),
    "whole-graph": (whole_graph, [(4, "ALL_PARTIAL"), (5, "FULL"), (5, "ALL_PARTIAL")]),
    "proof-replay": (proof_replay, [(n, u) for n in (4, 6) for u in
                                    ("ALL_PARTIAL", "FULL", "PERMUTATIONS", "STRICTLY_PARTIAL")]),
}
