"""Tracing for the per-layer metrics, applied from outside the program.

``Tracer.install`` replaces each traced commgraph function by a wrapper, in
every module that looks the function up (``graphalg`` imports
``_backtrack_images`` from ``commuting``, so both names are patched).  A
wrapper either opens a span, kept in memory with a link to the span open
around it, or, for the hot leaf functions that call nothing traced, adds its
call count and time to an aggregate and to the enclosing span's child time.
Self time is a span's duration minus its children's.  ``write`` dumps the
spans as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

from workloads import REPLAY_NS

# (metric base, [(module, attribute), ...], leaf?)  The attribute "PTrans.encode"
# names the method on the class.
TRACED = [
    ("ptrans.compose", [("ptrans", "compose"), ("commuting", "compose")], True),
    ("ptrans.encode", [("ptrans", "PTrans.encode")], True),
    ("notation.parse_element", [("notation", "parse_element"), ("cli", "parse_element")], False),
    ("commuting.commute_masks_batch",
     [("commuting", "commute_masks_batch"), ("graphalg", "commute_masks_batch")], True),
    ("commuting.commute_mask",
     [("commuting", "commute_mask"), ("unified", "commute_mask"), ("witness", "commute_mask")], True),
    ("commuting.backtrack",
     [("commuting", "_backtrack_images"), ("graphalg", "_backtrack_images")], True),
    ("commuting.centralizer",
     [("commuting", "centralizer"), ("witness", "centralizer"), ("cli", "centralizer")], False),
    ("commuting.universe",
     [("commuting", "_universe_elements"), ("graphalg", "_universe_elements")], False),
    ("graphalg.bfs", [("graphalg", "_bfs")], False),
    ("graphalg.expand_scan", [("graphalg", "_expand_scan")], False),
    ("graphalg.expand_backtrack", [("graphalg", "_expand_backtrack")], False),
    ("graphalg.adjacency", [("graphalg", "_adjacency")], False),
    ("graphalg.ecc", [("graphalg", "_ecc_block")], False),
    ("graphalg.components", [("graphalg", "connected_components")], False),
    ("graphalg.verify_path",
     [("graphalg", "verify_path"), ("cli", "verify_path"), ("witness", "verify_path")], False),
    ("unified.certify", [("unified", "certify_no_partial_connector"),
                         ("witness", "certify_no_partial_connector"),
                         ("cli", "certify_no_partial_connector")], False),
    ("unified.bruteforce", [("unified", "partial_connector_bruteforce"),
                            ("witness", "partial_connector_bruteforce"),
                            ("cli", "partial_connector_bruteforce")], False),
    ("witness.replay", [("witness", "replay_lower_bound")], False),
    ("witness.exclusion_checks", [("witness", "_exclusion_checks")], False),
    ("witness.forced_idempotent", [("witness", "_forced_idempotent_step")], False),
    ("witness.no_common_backtrack", [("witness", "_no_common_vertex_backtrack")], False),
    ("witness.scan_common", [("witness", "scan_common_commuters")], False),
    ("witness.audit", [("witness", "audit_imported_full_side")], False),
    ("witness.full_commuters", [("witness", "_full_commuters")], False),
    ("witness.upper_bound_path", [("witness", "upper_bound_path")], False),
    ("cli.main", [("cli", "main")], False),
]


def _span_name(base: str, args: tuple) -> str:
    """Spans split by input where a metric is reported per input."""
    if base == "witness.replay":
        return f"witness.replay.n{args[0].n}"
    if base == "cli.main":
        return f"cli.main.{args[0][0] if args and args[0] else 'none'}"
    return base


def _counts(base: str, args: tuple, result) -> dict[str, float]:
    """Work counts of one call, taken from its arguments and result."""
    if base == "commuting.commute_masks_batch":
        return {"pairs": len(args[0]) * len(args[1])}
    if base == "commuting.commute_mask":
        return {"rows": len(args[0])}
    if base == "commuting.backtrack":
        return {"solutions": len(result)}
    if base == "graphalg.bfs":
        return {"levels": int(result[0].max())}
    if base.startswith("graphalg.expand"):
        return {"frontier_in": len(args[1]), "raw_out": len(result),
                "unique_out": len(np.unique(result))}
    if base == "graphalg.ecc":
        return {"sources": len(args[1])}
    if base == "witness.scan_common":
        return {"elements": (args[0] + 1) ** args[0]}
    if base == "witness.full_commuters":
        return {"enumerated": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        # span: [name, parent index or -1, start, end, child seconds]
        self.spans: list[list] = []
        self.open: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list = []

    def _wrap(self, base: str, fn, leaf: bool):
        tracer = self
        clock = time.perf_counter

        if leaf:
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                tracer.calls[base] += 1
                tracer.seconds[base] += dt
                if tracer.open:
                    tracer.spans[tracer.open[-1]][4] += dt
                for key, v in _counts(base, args, result).items():
                    tracer.counts[f"{base}.{key}"] += v
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            name = _span_name(base, args)
            idx = len(tracer.spans)
            span = [name, tracer.open[-1] if tracer.open else -1, clock(), None, 0.0]
            tracer.spans.append(span)
            tracer.open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.open.pop()
                span[3] = clock()
                dt = span[3] - span[2]
                tracer.calls[name] += 1
                tracer.seconds[name] += dt
                tracer.seconds[name + ".self"] += dt - span[4]
                if span[1] >= 0:
                    tracer.spans[span[1]][4] += dt
            for key, v in _counts(base, args, result).items():
                tracer.counts[f"{base}.{key}"] += v
            return result
        return wrapper

    def install(self) -> None:
        for base, sites, leaf in TRACED:
            wrapped = {}
            for module_name, attr in sites:
                owner = importlib.import_module(f"commgraph.{module_name}")
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(base, original, leaf)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset_totals(self) -> None:
        """Start counting afresh (spans are kept for ``write``)."""
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": start,
                                     "end": end, "self_s": end - start - child}) + "\n")


def layer_metrics(tracer: Tracer, passes: int, universe_build_s: float, pass_s: float) -> dict:
    """Every per-layer metric, per timed pass unless its unit says otherwise."""
    c, s, k = tracer.calls, tracer.seconds, tracer.counts

    def per(v):
        return v / passes

    raw = sum(k[f"graphalg.expand_{w}.raw_out"] for w in ("scan", "backtrack"))
    unique = sum(k[f"graphalg.expand_{w}.unique_out"] for w in ("scan", "backtrack"))
    bt_raw = k["graphalg.expand_backtrack.raw_out"]
    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for base in ("ptrans.compose", "ptrans.encode", "notation.parse_element",
                 "commuting.commute_masks_batch", "commuting.commute_mask",
                 "commuting.backtrack", "commuting.centralizer", "graphalg.bfs",
                 "graphalg.verify_path", "unified.certify"):
        add(f"{base}.calls", per(c[base]), "count/pass")
        add(f"{base}.s", per(s[base]), "s/pass")
    add("commuting.commute_masks_batch.pairs", per(k["commuting.commute_masks_batch.pairs"]), "count/pass")
    add("commuting.commute_mask.rows", per(k["commuting.commute_mask.rows"]), "count/pass")
    add("commuting.backtrack.solutions", per(k["commuting.backtrack.solutions"]), "count/pass")
    add("commuting.universe.build_s", universe_build_s, "s")
    add("graphalg.bfs.levels", per(k["graphalg.bfs.levels"]), "count/pass")
    add("graphalg.expand.frontier_in",
        per(k["graphalg.expand_scan.frontier_in"] + k["graphalg.expand_backtrack.frontier_in"]),
        "count/pass")
    add("graphalg.expand.raw_out", per(raw), "count/pass")
    add("graphalg.expand.unique_ratio", unique / raw if raw else 1.0, "ratio")
    add("graphalg.expand_backtrack.raw_out", per(bt_raw), "count/pass")
    add("graphalg.expand_backtrack.unique_ratio",
        k["graphalg.expand_backtrack.unique_out"] / bt_raw if bt_raw else 1.0, "ratio")
    add("graphalg.adjacency.s", per(s["graphalg.adjacency"]), "s/pass")
    add("graphalg.ecc.s", per(s["graphalg.ecc"]), "s/pass")
    add("graphalg.ecc.sources", per(k["graphalg.ecc.sources"]), "count/pass")
    add("graphalg.components.s", per(s["graphalg.components"]), "s/pass")
    add("unified.bruteforce.s", per(s["unified.bruteforce"]), "s/pass")
    for n in REPLAY_NS:
        add(f"witness.replay.n{n}.s", per(s[f"witness.replay.n{n}"]), "s/pass")
    for base in ("exclusion_checks", "forced_idempotent", "no_common_backtrack", "scan_common",
                 "audit", "upper_bound_path"):
        add(f"witness.{base}.s", per(s[f"witness.{base}"]), "s/pass")
    add("witness.scan_common.elements", per(k["witness.scan_common.elements"]), "count/pass")
    add("witness.full_commuters.enumerated", per(k["witness.full_commuters.enumerated"]), "count/pass")
    for command in ("distance", "path"):
        add(f"cli.main.{command}.self_s", per(s[f"cli.main.{command}.self"]), "s/pass")
    add("bench.pass_s", pass_s, "s/pass")
    return out

