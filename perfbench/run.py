"""Benchmark for commgraph: three workloads, timed end to end and per module.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload pair-queries --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout.  One process, one
thread.  A run sets up, then repeats whole passes over the workload's fixed
list of operations until ``--seconds`` have gone by, then checks every output
against ``reference`` and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones from a traced run).  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # a --setup-only run times its set-up from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

from workloads import FAILED, WORKLOADS, Refs

SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def setup(workload: str, seed: int, tracer=None):
    """Import commgraph, build the operations and fill the lazy tables they
    use.  Returns the operations."""
    import commgraph
    import commgraph.cli  # the package does not import its CLI itself

    if tracer is not None:
        tracer.install()
    build, tables = WORKLOADS[workload]
    ops = build(commgraph, seed)
    for n, universe in tables:
        commgraph.commuting.universe_elements(n, commgraph.Universe[universe])
    return ops


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another, each
    timed from the top of this file: the benchmark's own modules, commgraph
    with numpy, the inputs and the lazy tables."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_passes(ops, seconds: float):
    """Whole passes until ``seconds`` have gone by: (op times, raw outputs,
    passes, wall seconds).  An operation that raises is kept as its error."""
    times, outputs = [], []
    clock = time.perf_counter
    start = clock()
    passes = 0
    while passes == 0 or clock() - start < seconds:
        for op in ops:
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a failed operation, reported below
                out = exc
            times.append(clock() - t0)
            outputs.append(out)
        passes += 1
    return times, outputs, passes, clock() - start


def check_outputs(ops, outputs) -> tuple[int, list[str]]:
    """(failed count, errors) over every output of every pass."""
    refs = Refs()
    failed, errors = 0, []
    for i, out in enumerate(outputs):
        op = ops[i % len(ops)]
        if isinstance(out, Exception):
            failed += 1
            print(f"# {op.label}: raised {out!r}", file=sys.stderr)
            continue
        verdict = op.check(out, refs)
        if verdict == FAILED:
            failed += 1
            if i < len(ops):
                print(f"# {op.label}: failed (verdict refuted by the reference)", file=sys.stderr)
        elif verdict is not None:
            errors.append(f"{op.label}: {verdict}")
    return failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "commgraph")):
        print("error: run from the root of a commgraph checkout (no src/commgraph here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.setup_only:
        setup(args.workload, args.seed)
        print(repr(time.perf_counter() - T0))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        setups = setup_samples(args.workload, args.seed, SETUP_SAMPLES)
    ops = setup(args.workload, args.seed, tracer)
    if tracer is not None:
        universe_build_s = tracer.seconds["commuting.universe.self"]
        tracer.reset_totals()

    times, outputs, passes, wall = timed_passes(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failed, errors = check_outputs(ops, outputs)
    for e in errors[:20]:
        print(f"# wrong: {e}", file=sys.stderr)
    print(f"# {args.workload}: {passes} passes of {len(ops)} operations in {wall:.3f} s",
          file=sys.stderr)

    if tracer is not None:
        from tracing import layer_metrics

        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, passes, universe_build_s, wall / passes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / wall, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
