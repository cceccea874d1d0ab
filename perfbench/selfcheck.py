"""Quick self-check of the benchmark: one pass of each workload, untraced and
traced, with every output checked.

    python3 perfbench/selfcheck.py        # from the root of the checkout

It fails unless every run exits 0 with ``correct: true``, prints exactly the
metrics that BENCHMARK.json names, each with the unit given there, and fails
no operation other than the n = 10 replay, whose verdict the reference refutes
(a known fault of ``witness.replay_lower_bound``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ALLOWED_FAILURES = {"replay n=10"}


def run_once(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("correct is not true: " + proc.stderr.strip()[-2000:])
    if not 0 <= result["failed"] < result["attempted"]:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    failed_ops = {line[2:].split(":")[0] for line in proc.stderr.splitlines()
                  if line.startswith("# ") and (": failed" in line or ": raised" in line)}
    if failed_ops - ALLOWED_FAILURES:
        problems.append(f"unexpected failed operations {sorted(failed_ops - ALLOWED_FAILURES)}")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                        f"units {[(k, got[k], wanted[k]) for k in got if k in wanted and got[k] != wanted[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            problems.append(f"metric {name} = {m['value']!r}")
    return problems


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    bad = 0
    for workload in workloads:
        for trace in (0, 1):
            problems = run_once(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
