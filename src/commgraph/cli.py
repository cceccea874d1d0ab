"""Command-line surface.

Every command prints either human-readable text or a stable JSON envelope
(``--format json``): command, n, inputs in canonical tabular form, parameters,
result, strategy and elapsed seconds.  Exit codes: 0 computed/verified,
1 refuted (no path, infinite or capped distance, failed replay, inconsistent
oracle, disconnected graph in exact-diameter mode), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .commuting import (
    BudgetExceededError,
    CommGraph,
    Universe,
    center,
    centralizer,
    universe_size,
)
from .graphalg import (
    EXCEEDS_CAP,
    INFINITE,
    bfs_distance,
    connected_components,
    diameter,
    shortest_path,
    verify_path,
)
from .notation import ParseError, parse_element
from .ptrans import PTrans
from .unified import (
    build_unified,
    certify_no_partial_connector,
    export_dot,
    is_connected,
    partial_connector_bruteforce,
)
from .witness import replay_lower_bound, witness_pair

GRAMMAR_HINT = (
    'element grammars: tabular "2 3 4 1" (use "-" for an undefined image), '
    'chains/cycles "[1 2 3](3 4)", idempotent blocks "{2 6 -> 2}{3 4 -> 3}"; '
    'any element accepts a power suffix like "(1 2 3 4 5 6)^3"'
)

SWEEP_GATE = 200_000_000  # vertex-pairs a command may touch without --long-run

_SEMIGROUPS = {"partial": Universe.ALL_PARTIAL, "full": Universe.FULL}
_UNIVERSES = {
    "partial": Universe.ALL_PARTIAL,
    "full": Universe.FULL,
    "permutations": Universe.PERMUTATIONS,
    "strictly-partial": Universe.STRICTLY_PARTIAL,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _element(text: str, n: int | None) -> PTrans:
    try:
        return parse_element(text, n)
    except (ParseError, ValueError) as exc:
        raise CliError(f"bad element {text!r}: {exc}\n{GRAMMAR_HINT}") from exc


def _require_sweep_budget(n: int, semigroup: Universe, long_run: bool, what: str) -> None:
    v = universe_size(n, semigroup)
    cost = v * v
    if cost > SWEEP_GATE and not long_run:
        raise CliError(
            f"{what} may sweep ~{v} vertices x {v} candidates (~{cost:.1e} pair checks); "
            "rerun with --long-run to accept the cost",
        )
    if cost > SWEEP_GATE:
        print(f"# long run accepted: ~{cost:.1e} pair checks ahead", file=sys.stderr)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _envelope(args, command: str, inputs: dict, parameters: dict, result: dict,
              strategy: str | None, elapsed: float) -> dict:
    return {
        "command": command,
        "n": parameters.get("n"),
        "inputs": inputs,
        "parameters": parameters,
        "result": result,
        "strategy": strategy,
        "elapsed_s": round(elapsed, 6),
    }


def cmd_center(args) -> int:
    t0 = time.perf_counter()
    semigroup = _SEMIGROUPS[args.semigroup]
    elems = center(args.n, semigroup, args.mode)
    result = {"center": [str(t) for t in elems]}
    payload = _envelope(args, "center", {}, {"n": args.n, "semigroup": args.semigroup,
                                             "mode": args.mode}, result, args.mode,
                        time.perf_counter() - t0)
    _emit(args, payload, [f"center: {', '.join(result['center'])}"])
    return 0


def cmd_commutes(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    from .commuting import commutes as _commutes

    res = _commutes(a, b)
    payload = _envelope(args, "commutes", {"a": str(a), "b": str(b)},
                        {"n": a.n}, {"commutes": res}, None, time.perf_counter() - t0)
    _emit(args, payload, [f"commutes: {res}"])
    return 0


def cmd_centralizer(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    universe = _UNIVERSES[args.universe]
    elems = centralizer(a, universe, args.strategy, long_run=args.long_run)
    result = {"size": len(elems), "centralizer": [str(t) for t in elems]}
    payload = _envelope(args, "centralizer", {"a": str(a)},
                        {"n": a.n, "universe": args.universe, "strategy": args.strategy},
                        result, args.strategy, time.perf_counter() - t0)
    _emit(args, payload, [f"size: {len(elems)}"] + [f"  {t}" for t in elems])
    return 0


def cmd_distance(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_sweep_budget(a.n, semigroup, args.long_run, "a distance query")
    g = CommGraph(a.n, semigroup)
    d = bfs_distance(g, a, b, cap=args.cap, strategy=args.strategy)
    if d is EXCEEDS_CAP:
        result: dict = {"distance": "exceeds-cap", "cap": args.cap}
        code = 1
    elif d == INFINITE:
        result = {"distance": "infinite"}
        code = 1
    else:
        result = {"distance": int(d)}
        code = 0
    payload = _envelope(args, "distance", {"a": str(a), "b": str(b)},
                        {"n": a.n, "semigroup": args.semigroup, "cap": args.cap,
                         "strategy": args.strategy},
                        result, args.strategy, time.perf_counter() - t0)
    _emit(args, payload, [f"distance: {result['distance']}"])
    return code


def cmd_path(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_sweep_budget(a.n, semigroup, args.long_run, "a shortest-path query")
    g = CommGraph(a.n, semigroup)
    cert = shortest_path(g, a, b, strategy=args.strategy)
    if cert is None:
        payload = _envelope(args, "path", {"a": str(a), "b": str(b)},
                            {"n": a.n, "semigroup": args.semigroup, "strategy": args.strategy},
                            {"path": None, "verified": False}, args.strategy,
                            time.perf_counter() - t0)
        _emit(args, payload, ["no path"])
        return 1
    verified = verify_path(g, cert)
    result = {"length": cert.claimed_length, "vertices": [str(t) for t in cert.vertices],
              "verified": verified}
    payload = _envelope(args, "path", {"a": str(a), "b": str(b)},
                        {"n": a.n, "semigroup": args.semigroup, "strategy": args.strategy},
                        result, args.strategy, time.perf_counter() - t0)
    _emit(args, payload, [f"length: {cert.claimed_length} (verified: {verified})"]
          + [f"  {t}" for t in cert.vertices])
    return 0 if verified else 1


def cmd_components(args) -> int:
    t0 = time.perf_counter()
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_sweep_budget(args.n, semigroup, args.long_run, "a component sweep")
    summary = connected_components(CommGraph(args.n, semigroup), strategy=args.strategy)
    result = {
        "count": summary.count,
        "sizes": list(summary.sizes),
        "representatives": [str(t) for t in summary.representatives],
    }
    payload = _envelope(args, "components", {}, {"n": args.n, "semigroup": args.semigroup,
                                                 "strategy": args.strategy},
                        result, args.strategy, time.perf_counter() - t0)
    _emit(args, payload, [f"components: {summary.count}", f"sizes: {list(summary.sizes)}"])
    return 0


def cmd_diameter(args) -> int:
    t0 = time.perf_counter()
    semigroup = _SEMIGROUPS[args.semigroup]
    if args.mode == "lower-only":
        seeds = [_element(s, args.n) for s in args.seed or []]
        if not seeds:
            raise CliError("lower-only mode needs at least one --seed element")
        _require_sweep_budget(args.n, semigroup, args.long_run, "a seeded eccentricity sweep")
    else:
        seeds = []
    rep = diameter(CommGraph(args.n, semigroup), mode=args.mode, seeds=seeds,
                   long_run=args.long_run)
    result = {
        "exact": rep.exact,
        "diameter": rep.diameter,
        "connected": rep.connected,
        "component_count": rep.component_count,
        "component_sizes": list(rep.component_sizes) if rep.component_sizes else None,
        "witness_pair": [str(t) for t in rep.witness_pair] if rep.witness_pair else None,
    }
    payload = _envelope(args, "diameter", {}, {"n": args.n, "semigroup": args.semigroup,
                                               "mode": args.mode, "workers": args.workers},
                        result, args.mode, time.perf_counter() - t0)
    kind = "diameter" if rep.exact else "diameter lower bound"
    lines = [f"{kind}: {rep.diameter}", f"connected: {rep.connected}"]
    if rep.witness_pair:
        lines.append(f"witness: {rep.witness_pair[0]}  |  {rep.witness_pair[1]}")
    _emit(args, payload, lines)
    return 0 if rep.connected or not rep.exact else 1


def cmd_gamma(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    graph = build_unified(a, b)
    connected = is_connected(graph)
    cert = certify_no_partial_connector(a, b)
    dot = export_dot(graph)
    if args.format == "dot":
        print(f"// connected: {str(connected).lower()}")
        print(dot, end="")
        return 0
    result = {
        "connected": connected,
        "certificate": cert.verdict.value,
        "edges": [list(e) for e in sorted(graph.edges)],
    }
    payload = _envelope(args, "gamma", {"a": str(a), "b": str(b)},
                        {"n": a.n}, result, None, time.perf_counter() - t0)
    _emit(args, payload, [f"connected: {connected}", f"certificate: {cert.verdict.value}",
                          f"edges: {result['edges']}"])
    return 0


def cmd_witness(args) -> int:
    t0 = time.perf_counter()
    case = witness_pair(args.n)
    result = {
        "family": case.family.value,
        "alpha": str(case.alpha),
        "beta": str(case.beta),
        "forced_e": str(case.forced_e) if case.forced_e else None,
        "forced_f": str(case.forced_f) if case.forced_f else None,
        "expected_lower_bound": case.expected_lower_bound,
    }
    payload = _envelope(args, "witness", {}, {"n": args.n}, result, None,
                        time.perf_counter() - t0)
    _emit(args, payload, [f"{k}: {v}" for k, v in result.items()])
    return 0


def cmd_replay(args) -> int:
    t0 = time.perf_counter()
    case = witness_pair(args.n)
    report = replay_lower_bound(case, long_run=args.long_run)
    result = report.to_dict()
    payload = _envelope(args, "replay", {"alpha": str(case.alpha), "beta": str(case.beta)},
                        {"n": args.n, "long_run": args.long_run, "workers": args.workers},
                        result, None, time.perf_counter() - t0)
    lines = []
    for s in report.steps:
        lines.append(f"[{'ok' if s.passed else 'FAIL'}] {s.name}: {s.claim}")
        if s.detail:
            lines.append(f"    {s.detail}")
    for claim in report.imported_claims:
        lines.append(f"[imported] {claim}")
    lines.append(f"lower bound: {report.lower_bound} (passed: {report.passed})")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    cert = certify_no_partial_connector(a, b)
    found = partial_connector_bruteforce(a, b)
    # the certificate is one-sided: only a connected move graph makes a claim
    consistent = not cert.gamma_connected or (len(found) == 1 and found[0].is_empty())
    result = {
        "certificate": cert.verdict.value,
        "gamma_connected": cert.gamma_connected,
        "strictly_partial_commuters": [str(t) for t in found],
        "consistent": consistent,
    }
    payload = _envelope(args, "oracle", {"a": str(a), "b": str(b)}, {"n": a.n},
                        result, None, time.perf_counter() - t0)
    _emit(args, payload, [f"certificate: {cert.verdict.value}",
                          f"brute-force connectors: {len(found)}",
                          f"consistent: {consistent}"])
    return 0 if consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commgraph",
        description="Commuting graphs of finite partial transformation semigroups.",
        epilog=GRAMMAR_HINT,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_n=False, semigroup=False, strategy=False, workers=False,
               formats=("text", "json")):
        p.add_argument("--n", type=int, required=needs_n, default=None,
                       help="ground-set size (inferred from elements when omitted)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--long-run", action="store_true", dest="long_run",
                       help="accept sweeps beyond the default budget")
        if semigroup:
            p.add_argument("--semigroup", choices=tuple(_SEMIGROUPS), default="partial")
        if strategy:
            p.add_argument("--strategy", choices=("auto", "scan", "backtrack"), default="auto")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility and echoed in the output; "
                                "has no effect")

    p = sub.add_parser("center", help="central elements of the semigroup")
    common(p, needs_n=True, semigroup=True)
    p.add_argument("--mode", choices=("analytic", "brute"), default="analytic")
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("commutes", help="do two elements commute?")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_commutes)

    p = sub.add_parser("centralizer", help="all elements of a universe commuting with --a")
    common(p, strategy=True)
    p.add_argument("--a", required=True)
    p.add_argument("--universe", choices=tuple(_UNIVERSES), default="partial")
    p.set_defaults(fn=cmd_centralizer)

    p = sub.add_parser("distance", help="graph distance between two vertices")
    common(p, semigroup=True, strategy=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("path", help="a shortest path, self-verified before printing")
    common(p, semigroup=True, strategy=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("components", help="connected components of the commuting graph")
    common(p, needs_n=True, semigroup=True, strategy=True)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("diameter", help="exact diameter or a seeded lower bound")
    common(p, needs_n=True, semigroup=True, workers=True)
    p.add_argument("--mode", choices=("exact", "lower-only"), default="exact")
    p.add_argument("--seed", action="append", help="seed element (repeatable, lower-only mode)")
    p.set_defaults(fn=cmd_diameter)

    p = sub.add_parser("gamma", help="move graph of two full maps, with connectivity certificate")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("witness", help="the named hard pair for a composite ground-set size")
    common(p, needs_n=True)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("replay", help="machine-check every step of the lower-bound argument")
    common(p, needs_n=True, workers=True)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("oracle", help="compare the move-graph certificate with brute force")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}\n{GRAMMAR_HINT}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
