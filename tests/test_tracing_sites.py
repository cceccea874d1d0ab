"""Every name ``perfbench/tracing.py`` patches must resolve on commgraph.

The tracer looks each (module, attribute) of its ``TRACED`` table up with
``getattr``, so deleting or renaming one of them in the library breaks
``perfbench/run.py --trace 1``.  The benchmark is loaded by path; it is not an
installed package.
"""

import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports workloads and reference
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    missing = []
    for _, sites, _ in tracing.TRACED:
        for module_name, attr in sites:
            owner = importlib.import_module(f"commgraph.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"commgraph.{module_name}.{attr}")
    assert len(tracing.TRACED) > 20
    assert missing == []
