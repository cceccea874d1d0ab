"""Named witness pairs, forced idempotents, constructive upper-bound paths and
machine-checked replays of the lower-bound arguments.

The distance lower bounds for the commuting graph of the partial
transformation semigroup rest on a handful of concrete element pairs (one per
ground-set size family).  ``replay_lower_bound`` re-derives every step of the
corresponding argument computationally and reports one verdict per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .commuting import (
    CommGraph,
    Universe,
    centralizer,
    commute_mask,
    commutes,
    decode_id_range,
    pick_strategy,
    row_of,
)
from .graphalg import PathCertificate, verify_path
from .ptrans import (
    PTrans,
    empty,
    identity,
    idempotent_power,
    partial_identity,
    point_map,
    power,
)
# partial_connector_bruteforce is not called here; perfbench/tracing.py patches
# it under this module's name too, so the name stays importable from witness.
from .unified import certify_no_partial_connector, partial_connector_bruteforce  # noqa: F401


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- chain+cycle structure ---------------------------------------------------------


def chain_cycle_parts(t: PTrans) -> tuple[list[int], list[int]] | None:
    """Decompose a full map shaped as one tail feeding one cycle.

    Returns ``(tail, cycle)`` with ``tail[0] -> tail[1] -> ... -> cycle[0]``
    and the cycle rotated to start at the attachment point, or None when the
    functional graph is not of that shape (the tail must be non-empty).
    """
    if not t.is_full():
        return None
    n = t.n
    on_cycles = set(power(t, n).images)
    tail_nodes = [x for x in range(n) if x not in on_cycles]
    if not tail_nodes:
        return None
    start = min(on_cycles)
    cyc = [start]
    x = t.images[start]
    while x != start:
        cyc.append(x)
        x = t.images[x]
    if len(cyc) != len(on_cycles):
        return None
    indeg = [0] * n
    for v in t.images:
        indeg[v] += 1
    heads = [x for x in tail_nodes if indeg[x] == 0]
    if len(heads) != 1:
        return None
    tail = []
    x = heads[0]
    while x not in on_cycles:
        tail.append(x)
        x = t.images[x]
    if len(tail) != len(tail_nodes):
        return None
    i = cyc.index(x)
    return tail, cyc[i:] + cyc[:i]


def make_chain_cycle(n: int, tail: Sequence[int], cycle: Sequence[int]) -> PTrans:
    """The full map with ``tail[0] -> ... -> tail[-1] -> cycle[0]`` and the cycle closed."""
    if len(set(tail)) != len(tail) or len(set(cycle)) != len(cycle):
        raise ValueError("tail and cycle labels must be distinct")
    mapping: dict[int, int] = {}
    for a, b in zip(tail, list(tail[1:]) + [cycle[0]]):
        mapping[a] = b
    for i, c in enumerate(cycle):
        if c in mapping:
            raise ValueError(f"label {c} used twice")
        mapping[c] = cycle[(i + 1) % len(cycle)]
    if len(mapping) != n:
        raise ValueError("tail and cycle must cover the ground set exactly once")
    return PTrans.from_pairs(n, mapping)


def forced_idempotent(n: int, cycle: Sequence[int], tail: Sequence[int]) -> PTrans:
    """The unique non-identity idempotent commuting with the tail+cycle map.

    Cycle points are fixed; the tail point at distance j from the attachment
    lands on cycle[(m - j) % m] where m is the cycle length.
    """
    m, k = len(cycle), len(tail)
    if m < 1 or k < 1 or m + k != n:
        raise ValueError(f"need m,k >= 1 with m+k = n; got m={m}, k={k}, n={n}")
    if len(set(cycle) | set(tail)) != n:
        raise ValueError("cycle and tail must partition the ground set")
    imgs = [0] * n
    for x in cycle:
        imgs[x] = x
    for j in range(1, k + 1):
        imgs[tail[k - j]] = cycle[(m - j) % m]
    return PTrans(n, tuple(imgs))


# -- witness cases -----------------------------------------------------------------


class WitnessFamily(Enum):
    N4 = "n4"
    N6 = "n6"
    N8 = "n8"
    ODD_COMPOSITE = "odd"
    EVEN_COMPOSITE = "even"


@dataclass(frozen=True)
class WitnessCase:
    n: int
    family: WitnessFamily
    m: int | None
    alpha: PTrans
    beta: PTrans
    forced_e: PTrans | None
    forced_f: PTrans | None
    expected_lower_bound: int


def _full_cycle(n: int) -> PTrans:
    return PTrans(n, tuple((x + 1) % n for x in range(n)))


def witness_pair(n: int) -> WitnessCase:
    """The hard pair for ground-set size n (n >= 4 composite), with the
    idempotents that any connecting path is forced through."""
    if n < 4 or is_prime(n):
        raise ValueError(f"witness pairs exist only for composite n >= 4, got n={n}")
    if n == 4:
        beta_tail, beta_cycle = [0, 1], [2, 3]
        alpha = _full_cycle(4)
        beta = make_chain_cycle(4, beta_tail, beta_cycle)
        e = forced_idempotent(4, beta_cycle, beta_tail)
        return WitnessCase(4, WitnessFamily.N4, None, alpha, beta, e, None, 4)
    if n == 6:
        beta_tail, beta_cycle = [5, 3, 0], [1, 2, 4]
        alpha = _full_cycle(6)
        beta = make_chain_cycle(6, beta_tail, beta_cycle)
        e = forced_idempotent(6, beta_cycle, beta_tail)
        return WitnessCase(6, WitnessFamily.N6, None, alpha, beta, e, None, 5)
    if n == 8:
        beta_tail, beta_cycle = [6, 5, 7, 4, 3], [0, 1, 2]
        alpha = _full_cycle(8)
        beta = make_chain_cycle(8, beta_tail, beta_cycle)
        e = forced_idempotent(8, beta_cycle, beta_tail)
        return WitnessCase(8, WitnessFamily.N8, None, alpha, beta, e, None, 5)
    if n % 2 == 1:
        m = (n - 1) // 2
        xs = list(range(m))
        ys = list(range(m, 2 * m))
        z = 2 * m
        a_tail, a_cycle = [z] + ys, xs
        b_tail = xs[1:] + [xs[0], z]
        b_cycle = ys[1:] + [ys[0]]
        family = WitnessFamily.ODD_COMPOSITE
    else:
        m = (n - 2) // 2
        xs = list(range(m))
        ys = list(range(m, 2 * m))
        z, w = 2 * m, 2 * m + 1
        a_tail, a_cycle = [z] + ys + [w], xs[1:] + [xs[0]]
        b_tail = [w] + xs[1 : m - 2] + [xs[m - 1], xs[0], xs[m - 2], z]
        b_cycle = ys[1:] + [ys[0]]
        family = WitnessFamily.EVEN_COMPOSITE
    if m < 4:
        raise ValueError(f"the witness families need at least 9 points, got n={n}")
    alpha = make_chain_cycle(n, a_tail, a_cycle)
    beta = make_chain_cycle(n, b_tail, b_cycle)
    e = forced_idempotent(n, a_cycle, a_tail)
    f = forced_idempotent(n, b_cycle, b_tail)
    return WitnessCase(n, family, m, alpha, beta, e, f, 5)


# -- constructive upper-bound paths ------------------------------------------------


def upper_bound_limit(a: PTrans, b: PTrans) -> int:
    """The guaranteed path-length bound for an admissible pair, by case."""
    n = a.n
    if not a.is_full() and not b.is_full():
        return 4
    full = a if a.is_full() else b
    if full.is_permutation():
        return 4 if n == 4 else 5
    if full.is_idempotent():
        return 3
    return 4


def _shortcut(vertices: list[PTrans]) -> list[PTrans]:
    """Remove repeated vertices by splicing out the segment between occurrences."""
    out = list(vertices)
    changed = True
    while changed:
        changed = False
        seen: dict[PTrans, int] = {}
        for idx, v in enumerate(out):
            if v in seen:
                out = out[: seen[v] + 1] + out[idx + 1 :]
                changed = True
                break
            seen[v] = idx
    return out


def _sorted_complement(n: int, taken: set[int]) -> list[int]:
    return [x for x in range(n) if x not in taken]


def _paths_both_partial(n: int, a: PTrans, b: PTrans) -> Iterator[list[PTrans]]:
    for x in _sorted_complement(n, set(a.im())):
        for xp in _sorted_complement(n, set(a.dom())):
            for y in _sorted_complement(n, set(b.im())):
                for yp in _sorted_complement(n, set(b.dom())):
                    for z in _sorted_complement(n, {xp, yp}):
                        for zp in _sorted_complement(n, {x, y}):
                            yield [
                                a,
                                point_map(n, x, xp),
                                point_map(n, z, zp),
                                point_map(n, y, yp),
                                b,
                            ]


def _paths_full_nonperm(n: int, a: PTrans, b: PTrans) -> Iterator[list[PTrans]]:
    """a full and not a permutation, b strictly partial."""
    hops = [point_map(n, x, xp)
            for x in _sorted_complement(n, set(b.im()))
            for xp in _sorted_complement(n, set(b.dom()))]
    if not a.is_idempotent():
        head = idempotent_power(a)
        for rest in _paths_full_nonperm(n, head, b):
            yield [a] + rest
        return
    if a.rank() == 1:
        (y,) = a.im()
        for hop in hops:
            (x,) = hop.dom()
            (xp,) = hop.im()
            fixed = {x, xp, y}
            targets = _sorted_complement(n, fixed) + [y, xp]
            for tgt in targets:
                mid = PTrans(n, tuple(v if v in fixed else tgt for v in range(n)))
                yield [a, mid, hop, b]
        return
    for hop in hops:
        (x,) = hop.dom()
        (xp,) = hop.im()
        inner = []
        for y in sorted(a.im()):
            pre = a.preimage(y)
            if x not in pre and xp not in pre:
                inner.append(PTrans.from_pairs(n, {zz: y for zz in pre}))
        if not inner and a.rank() == 2:
            y, yp = a.images[x], a.images[xp]
            if y != yp:
                inner.append(PTrans.from_pairs(n, {zz: yp for zz in a.preimage(y)}))
        for mid in inner:
            yield [a, mid, hop, b]


def _paths_permutation(n: int, a: PTrans, b: PTrans) -> Iterator[list[PTrans]]:
    """a an off-identity permutation, b strictly partial; n composite if a is a full cycle."""
    hops = [point_map(n, x, xp)
            for x in _sorted_complement(n, set(b.im()))
            for xp in _sorted_complement(n, set(b.dom()))]
    cycles = a.cycle_decomposition()
    if len(cycles) >= 2:
        for hop in hops:
            (x,) = hop.dom()
            (xp,) = hop.im()
            for cyc in cycles:
                for y in _sorted_complement(n, {x, xp}):
                    yield [a, partial_identity(n, cyc), partial_identity(n, [y]), hop, b]
        return
    if n == 4:
        x1, x2, x3, x4 = cycles[0]
        sq = power(a, 2)
        odd_pair, even_pair = (x1, x3), (x2, x4)
        for hop in hops:
            (x,) = hop.dom()
            (xp,) = hop.im()
            if x in odd_pair and xp in odd_pair:
                mid = partial_identity(n, even_pair)
            elif x in even_pair and xp in even_pair:
                mid = partial_identity(n, odd_pair)
            else:
                inv = power(a, 3)
                mid = inv.restrict(odd_pair if x in odd_pair else even_pair)
            yield [a, sq, mid, hop, b]
        return
    divisor = next(d for d in range(2, n) if n % d == 0)
    for rest in _paths_permutation(n, power(a, divisor), b):
        yield [a] + rest


def upper_bound_path(g: CommGraph, a: PTrans, b: PTrans) -> PathCertificate:
    """A verified path between the endpoints within the constructive bound.

    At least one endpoint must be strictly partial; full/full pairs belong to
    BFS.  Choices are tried in ascending label order, so output is
    deterministic.
    """
    if g.semigroup is not Universe.ALL_PARTIAL:
        raise ValueError("constructive paths use strictly partial hops; need the partial-map graph")
    n = g.n
    if n < 4:
        raise ValueError("the constructive bounds need n >= 4")
    for t in (a, b):
        if t.n != n:
            raise ValueError("endpoint ground-set size does not match the graph")
        if t.encode() in (empty(n).encode(), identity(n).encode()):
            raise ValueError(f"{t!r} is central, not a vertex")
    if a.is_full() and b.is_full():
        raise ValueError("both endpoints are full transformations; use BFS for those")

    if not a.is_full() and not b.is_full():
        candidates = _paths_both_partial(n, a, b)
    else:
        full_first = a.is_full()
        fullend, partend = (a, b) if full_first else (b, a)
        if fullend.is_permutation():
            if fullend.is_full_cycle() and is_prime(n):
                raise ValueError("a full-cycle endpoint needs a composite ground-set size")
            gen = _paths_permutation(n, fullend, partend)
        else:
            gen = _paths_full_nonperm(n, fullend, partend)
        candidates = gen if full_first else (list(reversed(p)) for p in gen)

    limit = upper_bound_limit(a, b)
    for raw in candidates:
        cert = PathCertificate.from_vertices(_shortcut(raw))
        if cert.claimed_length <= limit and verify_path(g, cert):
            return cert
    raise RuntimeError("no constructive path found; this should be unreachable for admissible pairs")


# -- lower-bound replays -------------------------------------------------------


@dataclass(frozen=True)
class ReplayStep:
    name: str
    claim: str
    method: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ReplayReport:
    """Machine-checked verdicts, one per proof step.

    Every step is proved here; nothing is taken from outside.  Each exhaustive
    question is one exact ``centralizer`` enumeration, so ``passed`` is False
    and no bound is given when any step is refuted.
    """

    case: WitnessCase
    steps: tuple[ReplayStep, ...]
    lower_bound: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.case.n,
            "family": self.case.family.value,
            "alpha": str(self.case.alpha),
            "beta": str(self.case.beta),
            "expected_lower_bound": self.case.expected_lower_bound,
            "steps": [
                {
                    "name": s.name,
                    "claim": s.claim,
                    "method": s.method,
                    "passed": s.passed,
                    "detail": s.detail,
                }
                for s in self.steps
            ],
            "lower_bound": self.lower_bound,
            "passed": self.passed,
        }


SCAN_CHUNK = 1 << 20


def scan_common_commuters(n: int, subjects: Sequence[PTrans]) -> list[int]:
    """Ids of every partial transformation commuting with all the subjects,
    by a sweep over the whole universe, SCAN_CHUNK ids at a time.

    Each chunk is decoded from its ids and dropped after use, so memory stays
    flat however large (n+1)^n is.  The replay does not use it: it is the
    independent exhaustive oracle the tests compare the replay's joint
    centralizer enumerations with (n <= 6, and n = 8 under ``--long-run``).
    """
    total = (n + 1) ** n
    subject_rows = [row_of(s) for s in subjects]
    out: list[int] = []
    for lo in range(0, total, SCAN_CHUNK):
        rows = decode_id_range(n, lo, min(lo + SCAN_CHUNK, total))
        mask = np.ones(len(rows), dtype=bool)
        for u in subject_rows:
            mask &= commute_mask(rows, u)
        out.extend((lo + np.nonzero(mask)[0]).tolist())
    return out


def _ids(elems: Sequence[PTrans]) -> set[int]:
    return {t.encode() for t in elems}


def _full_commuters(*subjects: PTrans) -> list[PTrans]:
    """The full transformations commuting with every subject, by joint backtracking."""
    return centralizer(subjects, Universe.FULL, "backtrack")


def _exclusion_checks(t: PTrans) -> tuple[bool, bool, str]:
    """Only the identity permutation and only the empty strictly-partial map
    commute with a tail+cycle map; verified by enumeration."""
    n = t.n
    perm_ok = _ids(centralizer(t, Universe.PERMUTATIONS)) == {identity(n).encode()}
    strict_ok = _ids(centralizer(t, Universe.STRICTLY_PARTIAL)) == {empty(n).encode()}
    gamma = certify_no_partial_connector(t, t)
    method = (f"{pick_strategy(n, Universe.PERMUTATIONS)}+"
              f"{pick_strategy(n, Universe.STRICTLY_PARTIAL)}-enumeration, move-graph cross-check")
    return perm_ok and gamma.gamma_connected, strict_ok, method


def _forced_idempotent_step(subject: PTrans, expected: PTrans) -> tuple[bool, str]:
    """The displayed idempotent is idempotent, commutes with the subject, matches
    the closed-form construction, and is the only non-identity full idempotent
    commuting with the subject."""
    n = subject.n
    parts = chain_cycle_parts(subject)
    if parts is None:
        return False, "structure check: subject is not a tail+cycle map"
    tail, cycle = parts
    rebuilt = forced_idempotent(n, cycle, tail)
    basic = (
        rebuilt == expected
        and expected.is_idempotent()
        and commutes(subject, expected)
        and not expected.is_identity()
    )
    idems = {
        u.encode() for u in _full_commuters(subject) if u.is_idempotent()
    }
    unique = idems == {identity(n).encode(), expected.encode()}
    return basic and unique, "closed-form + backtrack-enumeration"


def _no_common_vertex_backtrack(u: PTrans, v: PTrans) -> tuple[bool, str]:
    """No vertex commutes with both: the joint centralizer of u and v over all
    partial maps holds only the center, and the move-graph certificate agrees
    on the strictly partial side.  The enumeration follows the library's
    strategy rule, so it scans the cached universe while that fits the budget."""
    cert = certify_no_partial_connector(u, v)
    extras = [t for t in centralizer([u, v], Universe.ALL_PARTIAL)
              if not (t.is_empty() or t.is_identity())]
    ok = cert.gamma_connected and not extras
    detail = "" if ok else f"counterexamples: {[str(t) for t in extras[:3]]}"
    return ok, detail


@dataclass(frozen=True)
class FullSideAudit:
    """Result of enumerating the full transformations commuting with e and f."""

    case: WitnessCase
    holds: bool
    counterexamples: tuple[PTrans, ...]


def audit_imported_full_side(case: WitnessCase) -> FullSideAudit:
    """Enumerate the full transformations commuting with both middle idempotents
    of a family case: the full-side claim the family argument used to import.

    The replay no longer imports it: its no-common-neighbor step enumerates
    the joint centralizer of e and f over all partial maps, which settles the
    full and the strictly partial side at once.  This audit keeps the full
    side on its own.  The enumeration is exact: one backtracking search
    propagates e and f together, so it visits a handful of nodes at any n.  A
    non-empty counterexample list refutes the claim outright: each
    counterexample yields a verified length-4 path between the endpoints.
    The displayed pair for n=10 fails this audit.
    """
    if case.family not in (WitnessFamily.ODD_COMPOSITE, WitnessFamily.EVEN_COMPOSITE):
        raise ValueError("the full-side claim only occurs in the odd/even family replays")
    e, f = case.forced_e, case.forced_f
    assert e is not None and f is not None
    extras = tuple(t for t in _full_commuters(e, f) if not t.is_identity())
    return FullSideAudit(case, not extras, extras)


def replay_lower_bound(case: WitnessCase) -> ReplayReport:
    """Re-derive every step of the distance lower bound for a witness case.

    Each exhaustive question is one ``centralizer`` call under the library's
    one strategy rule; nothing is imported at any n.
    """
    n = case.n
    alpha, beta, e, f = case.alpha, case.beta, case.forced_e, case.forced_f
    named = case.family in (WitnessFamily.N4, WitnessFamily.N6, WitnessFamily.N8)
    partial_strategy = pick_strategy(n, Universe.ALL_PARTIAL)
    steps: list[ReplayStep] = []

    def add(name: str, claim: str, method: str, passed: bool, detail: str = "") -> None:
        steps.append(ReplayStep(name, claim, method, bool(passed), detail))

    add(
        "endpoints-noncommuting",
        "alpha and beta do not commute, so their distance is at least 2",
        "direct-composition",
        not commutes(alpha, beta),
    )

    if named:
        expected_cent = {empty(n).encode(), *(power(alpha, k).encode() for k in range(1, n + 1))}
        cyc_ok = _ids(centralizer(alpha, Universe.ALL_PARTIAL)) == expected_cent
        perm_ok, strict_ok, method = _exclusion_checks(beta)
        add(
            "neighbor-characterization",
            "alpha commutes exactly with the empty map and its own powers; "
            "only the identity permutation and the empty map commute with beta "
            "(so the second and second-to-last path vertices differ: distance >= 3)",
            f"{partial_strategy}-enumeration, {method}",
            cyc_ok and perm_ok and strict_ok,
        )
    else:
        a_perm_ok, a_strict_ok, a_method = _exclusion_checks(alpha)
        b_perm_ok, b_strict_ok, _ = _exclusion_checks(beta)
        add(
            "neighbor-characterization",
            "only the identity permutation and the empty map commute with either "
            "endpoint, so inner path vertices next to them are full non-permutations",
            a_method,
            a_perm_ok and a_strict_ok and b_perm_ok and b_strict_ok,
        )

    if named:
        ok3, method3 = _forced_idempotent_step(beta, e)
        add(
            "forced-idempotent",
            "the idempotent power of any neighbor of beta is the displayed idempotent e",
            method3,
            ok3,
        )
    else:
        ok_e, method3 = _forced_idempotent_step(alpha, e)
        ok_f, _ = _forced_idempotent_step(beta, f)
        add(
            "forced-idempotent",
            "the idempotent powers of the neighbors of alpha and beta are the "
            "displayed idempotents e and f, and e differs from f (distance >= 3)",
            method3,
            ok_e and ok_f and e != f,
        )

    if named:
        bad = [k for k in range(2, n) if commutes(power(alpha, k), e)]
        add(
            "middle-noncommuting",
            "no nontrivial power of alpha commutes with e, so no path of length 3 "
            "exists (distance >= 4)",
            "direct-composition",
            not bad,
            "" if not bad else f"alpha^{bad} commute with e",
        )
    else:
        add(
            "middle-noncommuting",
            "e and f do not commute, so no path of length 3 exists (distance >= 4)",
            "direct-composition",
            not commutes(e, f),
        )

    if case.family is WitnessFamily.N4:
        hits = {power(alpha, 2).encode(), power(alpha, 3).encode()}
        add(
            "no-common-neighbor",
            "neither alpha^2 nor alpha^3 commutes with e",
            f"{partial_strategy}-enumeration",
            not hits & _ids(centralizer(e, Universe.ALL_PARTIAL)),
        )
    else:
        if named:
            pairs = [(power(alpha, k), e) for k in range(2, n)]
            claim = "no vertex commutes with both a nontrivial power of alpha and e (distance >= 5)"
        else:
            pairs = [(e, f)]
            claim = "no vertex commutes with both e and f (distance >= 5)"
        results = [_no_common_vertex_backtrack(u, v) for u, v in pairs]
        add(
            "no-common-neighbor",
            claim,
            f"{partial_strategy}-enumeration of the joint centralizer, move-graph cross-check",
            all(ok for ok, _ in results),
            "; ".join(d for _, d in results if d),
        )

    all_passed = all(s.passed for s in steps)
    add("lower-bound", f"distance(alpha, beta) >= {case.expected_lower_bound}", "conclusion",
        all_passed)
    return ReplayReport(
        case,
        tuple(steps),
        case.expected_lower_bound if all_passed else None,
        all_passed,
    )
