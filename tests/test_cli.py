import json
import pathlib
import re
import subprocess
import sys

import pytest

import commgraph.cli
from commgraph.cli import main

ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def masked(text: str) -> str:
    return ELAPSED.sub('"elapsed_s": X', text)


class TestCommands:
    def test_distance_witness(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--n", "4",
                               "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)")
        assert code == 0
        assert "distance: 4" in out

    def test_distance_infinite_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--n", "3",
                               "--a", "(1 2 3)", "--b", "- 1 -")
        assert code == 1
        assert "infinite" in out

    def test_distance_cap(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--n", "4", "--cap", "2",
                               "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)")
        assert code == 1
        assert "exceeds-cap" in out

    def test_commutes(self, capsys):
        code, out, _ = run_cli(capsys, "commutes", "--a", "(1 2 3 4)", "--b", "(1 2 3 4)^2")
        assert code == 0 and "True" in out

    def test_center_brute(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--n", "3", "--mode", "brute")
        assert code == 0
        assert "- - -" in out

    def test_centralizer(self, capsys):
        code, out, _ = run_cli(capsys, "centralizer", "--a", "(1 2 3 4)")
        assert code == 0
        assert "size: 5" in out

    def test_path_self_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--n", "4",
                               "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)")
        assert code == 0
        assert "verified: True" in out

    def test_components(self, capsys):
        code, out, _ = run_cli(capsys, "components", "--n", "3")
        assert code == 0
        assert "components: 2" in out

    def test_diameter_exact(self, capsys):
        code, out, _ = run_cli(capsys, "diameter", "--n", "4")
        assert code == 0
        assert "diameter: 4" in out

    def test_diameter_disconnected_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "diameter", "--n", "3")
        assert code == 1
        assert "connected: False" in out

    def test_diameter_lower_only(self, capsys):
        code, out, _ = run_cli(capsys, "diameter", "--n", "4", "--mode", "lower-only",
                               "--seed", "(1 2 3 4)")
        assert code == 0
        assert "lower bound: 4" in out

    def test_gamma_dot(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--n", "6", "--format", "dot",
                               "--a", "(1 2 3 4 5 6)^3",
                               "--b", "{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}")
        assert code == 0
        assert out.startswith("// connected: true\ngraph G {")
        assert '"1" -- "4";' in out

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "6")
        assert code == 0
        assert "beta: 2 3 5 1 2 4" in out

    def test_replay_passes(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--n", "6")
        assert code == 0
        assert "lower bound: 5 (passed: True)" in out

    def test_replay_family_prints_import(self, capsys):
        # the n=10 replay's joint enumeration finds the involution commuting
        # with e and f; no claim is imported, so none is printed
        code, out, _ = run_cli(capsys, "replay", "--n", "10")
        assert code == 1
        assert "[imported]" not in out
        assert "[FAIL] no-common-neighbor" in out
        assert "4 3 2 1 8 7 6 5 10 9" in out
        assert "lower bound: None (passed: False)" in out

    def test_replay_n14_passes(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--n", "14")
        assert code == 0
        assert "lower bound: 5 (passed: True)" in out

    def test_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--a", "(1 2 3 4)", "--b", "(1 2 3 4)^2")
        assert code == 0
        assert "consistent: True" in out


class TestErrors:
    def test_bad_element_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "distance", "--a", "oops!", "--b", "1 2")
        assert code == 2
        assert "element grammars" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_scan_budget_error(self, capsys):
        code, _, err = run_cli(capsys, "centralizer", "--n", "7", "--strategy", "scan",
                               "--a", "2 3 4 5 6 7 1")
        assert code == 2
        assert "budget" in err

    def test_sweep_gate_requires_long_run(self, capsys):
        code, _, err = run_cli(capsys, "distance", "--n", "6",
                               "--a", "(1 2 3 4 5 6)", "--b", "[6 4 1 2](2 3 5)")
        assert code == 2
        assert "--long-run" in err

    def test_witness_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--n", "5")
        assert code == 2
        assert "composite" in err

    def test_negative_cap_is_usage_error(self, capsys):
        argv = ["distance", "--n", "4", "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)"]
        code, out, err = run_cli(capsys, *argv, "--cap", "-3")
        assert code == 2
        assert out == "" and "--cap" in err
        code, out, _ = run_cli(capsys, *argv, "--cap", "0")
        assert code == 1 and "exceeds-cap" in out

    def test_grammar_hint_only_for_element_errors(self, capsys):
        code, _, err = run_cli(capsys, "components", "--n", "1")
        assert code == 2
        assert err.startswith("error: ") and "n >= 2" in err
        assert "element grammars" not in err
        code, _, err = run_cli(capsys, "distance", "--a", "oops!", "--b", "1 2")
        assert code == 2
        assert "element grammars" in err

    @pytest.mark.parametrize("exc", [MemoryError("cannot allocate"), RuntimeError("boom")],
                             ids=["memory", "runtime"])
    def test_failures_map_to_exit_two(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(commgraph.cli, "diameter", fail)
        code, out, err = run_cli(capsys, "diameter", "--n", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1


JSON_COMMANDS = [
    ("center", "--n", "3", "--mode", "brute"),
    ("commutes", "--a", "(1 2 3 4)", "--b", "3 4 3 4"),
    ("centralizer", "--a", "[1 2 3](3 4)"),
    ("distance", "--n", "4", "--a", "(1 2 3 4)", "--b", "[1 2 3](3 4)"),
    ("path", "--n", "4", "--a", "(1 2 3 4)", "--b", "3 4 3 4"),
    ("components", "--n", "3"),
    ("diameter", "--n", "4"),
    ("gamma", "--n", "6", "--a", "(1 2 3 4 5 6)^2", "--b", "{2 6 -> 2}{3 4 -> 3}{5 1 -> 5}"),
    ("witness", "--n", "9"),
    ("replay", "--n", "4"),
    ("oracle", "--a", "(1 2 3 4)", "--b", "(1 2 3 4)^3"),
]


class TestJsonDeterminism:
    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: a[0])
    def test_repeated_runs_byte_stable(self, capsys, argv):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            json.loads(out)  # must be valid JSON
            runs.append(masked(out))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cmd", ["diameter", "replay"])
    def test_worker_counts_byte_stable(self, capsys, cmd):
        n = "4"
        base = [cmd, "--n", n, "--format", "json"]
        outs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(capsys, *base, "--workers", workers)
            assert code == 0
            outs.append(masked(out))
        # the workers parameter itself is echoed; mask it before comparing
        norm = [re.sub(r'"workers": \d+', '"workers": W', o) for o in outs]
        assert norm[0] == norm[1]


# Exit code and stdout (elapsed_s masked as ELAPSED) of each invocation, recorded
# before the command handlers were reduced to returning what they computed.  The
# file pins the output contract across versions; do not regenerate it to make a
# change pass.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_output(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["code"]
    assert ELAPSED.sub('"elapsed_s": ELAPSED', out) == case["stdout"]


def test_console_script_wired():
    out = subprocess.run(
        [sys.executable, "-m", "commgraph.cli", "commutes", "--a", "(1 2)", "--b", "2 1"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "True" in out.stdout
