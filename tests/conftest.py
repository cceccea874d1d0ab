import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--long-run",
        action="store_true",
        default=False,
        help="run the long sweeps (the n=8 exhaustive oracle sweep)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "longrun: long sweeps, enabled with --long-run or COMMGRAPH_LONG_RUN=1"
    )


def pytest_collection_modifyitems(config, items):
    enabled = config.getoption("--long-run") or os.environ.get("COMMGRAPH_LONG_RUN") == "1"
    if enabled:
        return
    skip = pytest.mark.skip(reason="long run; enable with --long-run or COMMGRAPH_LONG_RUN=1")
    for item in items:
        if "longrun" in item.keywords:
            item.add_marker(skip)
