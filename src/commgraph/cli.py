"""Command-line surface.

Every command prints either human-readable text or a stable JSON envelope
(``--format json``): command, n, inputs in canonical tabular form, parameters,
result, strategy and elapsed seconds.  Exit codes: 0 computed/verified,
1 refuted (no path, infinite or capped distance, failed replay, inconsistent
oracle, disconnected graph in exact-diameter mode), 2 usage errors and refused
or exhausted resources (element budget, sweep gate, memory).  ``distance`` and
``path`` need ``--long-run`` beyond the element budget; ``components`` and
lower-only ``diameter`` beyond the sweep gate.

Each ``cmd_*`` handler only computes and returns an :class:`Outcome`; ``main``
times it, builds the envelope, prints, and maps every failure to an exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .commuting import (
    CommGraph,
    Universe,
    center,
    centralizer,
    commutes,
    element_budget,
    pick_strategy,
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
from .notation import parse_element
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


@dataclass
class Outcome:
    """What a command computed: envelope fields, text lines and exit code."""

    parameters: dict
    result: dict
    lines: list[str]
    inputs: dict = field(default_factory=dict)
    strategy: str | None = None
    code: int = 0


def _element(text: str, n: int | None) -> PTrans:
    try:
        return parse_element(text, n)
    except ValueError as exc:
        raise CliError(f"bad element {text!r}: {exc}\n{GRAMMAR_HINT}") from exc


def _pair(args) -> tuple[PTrans, PTrans, dict]:
    a = _element(args.a, args.n)
    b = _element(args.b, a.n)
    return a, b, {"a": str(a), "b": str(b)}


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


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


def _require_pair_budget(n: int, semigroup: Universe, long_run: bool, what: str) -> None:
    """The pair search needs --long-run only when the universe exceeds the
    element budget, the bound at which ``pick_strategy`` stops scanning."""
    v, budget = universe_size(n, semigroup), element_budget()
    if v > budget and not long_run:
        raise CliError(
            f"{what} searches a universe of {v} elements, over the element budget of "
            f"{budget}; rerun with --long-run to accept the cost",
        )
    if v > budget:
        print(f"# long run accepted: a universe of {v} elements", file=sys.stderr)


def cmd_center(args) -> Outcome:
    elems = [str(t) for t in center(args.n, _SEMIGROUPS[args.semigroup], args.mode)]
    return Outcome({"n": args.n, "semigroup": args.semigroup, "mode": args.mode},
                   {"center": elems}, [f"center: {', '.join(elems)}"], strategy=args.mode)


def cmd_commutes(args) -> Outcome:
    a, b, inputs = _pair(args)
    res = commutes(a, b)
    return Outcome({"n": a.n}, {"commutes": res}, [f"commutes: {res}"], inputs)


def cmd_centralizer(args) -> Outcome:
    a = _element(args.a, args.n)
    universe = _UNIVERSES[args.universe]
    elems = centralizer(a, universe, args.strategy, long_run=args.long_run)
    return Outcome({"n": a.n, "universe": args.universe, "strategy": args.strategy},
                   {"size": len(elems), "centralizer": [str(t) for t in elems]},
                   [f"size: {len(elems)}"] + [f"  {t}" for t in elems],
                   {"a": str(a)}, pick_strategy(a.n, universe, args.strategy))


def cmd_distance(args) -> Outcome:
    a, b, inputs = _pair(args)
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_pair_budget(a.n, semigroup, args.long_run, "a distance query")
    strategy = pick_strategy(a.n, semigroup, args.strategy)
    d = bfs_distance(CommGraph(a.n, semigroup), a, b, cap=args.cap, strategy=strategy)
    if d is EXCEEDS_CAP:
        result: dict = {"distance": "exceeds-cap", "cap": args.cap}
    elif d == INFINITE:
        result = {"distance": "infinite"}
    else:
        result = {"distance": int(d)}
    return Outcome({"n": a.n, "semigroup": args.semigroup, "cap": args.cap,
                    "strategy": args.strategy},
                   result, [f"distance: {result['distance']}"], inputs, strategy,
                   0 if isinstance(result["distance"], int) else 1)


def cmd_path(args) -> Outcome:
    a, b, inputs = _pair(args)
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_pair_budget(a.n, semigroup, args.long_run, "a shortest-path query")
    parameters = {"n": a.n, "semigroup": args.semigroup, "strategy": args.strategy}
    strategy = pick_strategy(a.n, semigroup, args.strategy)
    g = CommGraph(a.n, semigroup)
    cert = shortest_path(g, a, b, strategy=strategy)
    if cert is None:
        return Outcome(parameters, {"path": None, "verified": False}, ["no path"],
                       inputs, strategy, 1)
    verified = verify_path(g, cert)
    return Outcome(parameters,
                   {"length": cert.claimed_length, "vertices": [str(t) for t in cert.vertices],
                    "verified": verified},
                   [f"length: {cert.claimed_length} (verified: {verified})"]
                   + [f"  {t}" for t in cert.vertices],
                   inputs, strategy, 0 if verified else 1)


def cmd_components(args) -> Outcome:
    semigroup = _SEMIGROUPS[args.semigroup]
    _require_sweep_budget(args.n, semigroup, args.long_run, "a component sweep")
    summary = connected_components(CommGraph(args.n, semigroup), strategy=args.strategy)
    return Outcome({"n": args.n, "semigroup": args.semigroup, "strategy": args.strategy},
                   {"count": summary.count, "sizes": list(summary.sizes),
                    "representatives": [str(t) for t in summary.representatives]},
                   [f"components: {summary.count}", f"sizes: {list(summary.sizes)}"],
                   strategy=pick_strategy(args.n, semigroup, args.strategy))


def cmd_diameter(args) -> Outcome:
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
    kind = "diameter" if rep.exact else "diameter lower bound"
    lines = [f"{kind}: {rep.diameter}", f"connected: {rep.connected}"]
    if rep.witness_pair:
        lines.append(f"witness: {rep.witness_pair[0]}  |  {rep.witness_pair[1]}")
    return Outcome(
        {"n": args.n, "semigroup": args.semigroup, "mode": args.mode, "workers": args.workers},
        {
            "exact": rep.exact,
            "diameter": rep.diameter,
            "connected": rep.connected,
            "component_count": rep.component_count,
            "component_sizes": list(rep.component_sizes) if rep.component_sizes else None,
            "witness_pair": [str(t) for t in rep.witness_pair] if rep.witness_pair else None,
        },
        lines, strategy=args.mode, code=0 if rep.connected or not rep.exact else 1)


def cmd_gamma(args) -> Outcome:
    a, b, inputs = _pair(args)
    graph = build_unified(a, b)
    connected = is_connected(graph)
    cert = certify_no_partial_connector(a, b)
    edges = [list(e) for e in sorted(graph.edges)]
    if args.format == "dot":
        lines = [f"// connected: {str(connected).lower()}", export_dot(graph).removesuffix("\n")]
    else:
        lines = [f"connected: {connected}", f"certificate: {cert.verdict.value}",
                 f"edges: {edges}"]
    return Outcome({"n": a.n}, {"connected": connected, "certificate": cert.verdict.value,
                                "edges": edges}, lines, inputs)


def cmd_witness(args) -> Outcome:
    case = witness_pair(args.n)
    result = {
        "family": case.family.value,
        "alpha": str(case.alpha),
        "beta": str(case.beta),
        "forced_e": str(case.forced_e) if case.forced_e else None,
        "forced_f": str(case.forced_f) if case.forced_f else None,
        "expected_lower_bound": case.expected_lower_bound,
    }
    return Outcome({"n": args.n}, result, [f"{k}: {v}" for k, v in result.items()])


def cmd_replay(args) -> Outcome:
    case = witness_pair(args.n)
    report = replay_lower_bound(case)
    lines = []
    for s in report.steps:
        lines.append(f"[{'ok' if s.passed else 'FAIL'}] {s.name}: {s.claim}")
        if s.detail:
            lines.append(f"    {s.detail}")
    lines.append(f"lower bound: {report.lower_bound} (passed: {report.passed})")
    return Outcome({"n": args.n, "long_run": args.long_run, "workers": args.workers},
                   report.to_dict(), lines,
                   {"alpha": str(case.alpha), "beta": str(case.beta)},
                   code=0 if report.passed else 1)


def cmd_oracle(args) -> Outcome:
    a, b, inputs = _pair(args)
    cert = certify_no_partial_connector(a, b)
    found = partial_connector_bruteforce(a, b)
    # the certificate is one-sided: only a connected move graph makes a claim
    consistent = not cert.gamma_connected or (len(found) == 1 and found[0].is_empty())
    return Outcome({"n": a.n},
                   {"certificate": cert.verdict.value, "gamma_connected": cert.gamma_connected,
                    "strictly_partial_commuters": [str(t) for t in found],
                    "consistent": consistent},
                   [f"certificate: {cert.verdict.value}",
                    f"brute-force connectors: {len(found)}", f"consistent: {consistent}"],
                   inputs, code=0 if consistent else 1)


# Shared options a command may take, in the order they are added.  Every command
# also takes --n, --format and --long-run; "n" makes --n required and "dot" adds
# the dot format.
_SHARED = {
    "semigroup": ("--semigroup", dict(choices=tuple(_SEMIGROUPS), default="partial")),
    "strategy": ("--strategy", dict(choices=("auto", "scan", "backtrack"), default="auto")),
    "workers": ("--workers", dict(type=int, default=1,
                                  help="accepted for compatibility and echoed in the output; "
                                       "has no effect")),
    "a": ("--a", dict(required=True)),
    "b": ("--b", dict(required=True)),
}

# (name, handler, help, shared options, own options)
COMMANDS = (
    ("center", cmd_center, "central elements of the semigroup", "n semigroup",
     {"--mode": dict(choices=("analytic", "brute"), default="analytic")}),
    ("commutes", cmd_commutes, "do two elements commute?", "a b", {}),
    ("centralizer", cmd_centralizer, "all elements of a universe commuting with --a",
     "strategy a", {"--universe": dict(choices=tuple(_UNIVERSES), default="partial")}),
    ("distance", cmd_distance, "graph distance between two vertices",
     "semigroup strategy a b", {"--cap": dict(type=_cap, default=None)}),
    ("path", cmd_path, "a shortest path, self-verified before printing",
     "semigroup strategy a b", {}),
    ("components", cmd_components, "connected components of the commuting graph",
     "n semigroup strategy", {}),
    ("diameter", cmd_diameter, "exact diameter or a seeded lower bound", "n semigroup workers",
     {"--mode": dict(choices=("exact", "lower-only"), default="exact"),
      "--seed": dict(action="append", help="seed element (repeatable, lower-only mode)")}),
    ("gamma", cmd_gamma, "move graph of two full maps, with connectivity certificate",
     "dot a b", {}),
    ("witness", cmd_witness, "the named hard pair for a composite ground-set size", "n", {}),
    ("replay", cmd_replay, "machine-check every step of the lower-bound argument",
     "n workers", {}),
    ("oracle", cmd_oracle, "compare the move-graph certificate with brute force", "a b", {}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commgraph",
        description="Commuting graphs of finite partial transformation semigroups.",
        epilog=GRAMMAR_HINT,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, shared, own in COMMANDS:
        shared = shared.split()
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required="n" in shared, default=None,
                       help="ground-set size (inferred from elements when omitted)")
        p.add_argument("--format", default="text",
                       choices=("text", "json", "dot") if "dot" in shared else ("text", "json"))
        p.add_argument("--long-run", action="store_true", dest="long_run",
                       help="accept sweeps beyond the default budget")
        for key, (flag, kwargs) in _SHARED.items():
            if key in shared:
                p.add_argument(flag, **kwargs)
        for flag, kwargs in own.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        t0 = time.perf_counter()
        out = args.fn(args)
        elapsed = time.perf_counter() - t0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError as exc:
        print(f"error: out of memory ({exc or 'allocation failed'}); "
              "rerun with a smaller n or without --long-run", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:  # budgets, parse and vertex errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({
            "command": args.command,
            "n": out.parameters.get("n"),
            "inputs": out.inputs,
            "parameters": out.parameters,
            "result": out.result,
            "strategy": out.strategy,
            "elapsed_s": round(elapsed, 6),
        }, indent=2, sort_keys=True))
    else:
        for line in out.lines:
            print(line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
