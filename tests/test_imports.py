"""Import contract of the command line: each verb loads only the heavy
libraries it runs. numpy and scipy cost most of a CLI call's start-up, so a
stray top-level import would slow every verb without failing anything else.

Every case runs in a fresh interpreter, since this test process has long
since imported both. No timings are compared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
from gaitforge import cli
argv = json.loads(sys.argv[1])
rc = cli.main(argv) if argv else 0
print(json.dumps({"rc": rc, "loaded": [m for m in ("numpy", "scipy") if m in sys.modules]}))
"""


def loaded_after(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0, done.stderr
    return set(result["loaded"])


def write_inputs(base: Path) -> None:
    rows = ["t,x,y,z"] + [f"{i * 0.01:.2f},{6.0 + 0.1 * (i % 7):.6f},2.0,0.0"
                          for i in range(20)]
    (base / "acc.csv").write_text("\n".join(rows) + "\n")
    rows = ["f0,f1,label"] + [f"{c + 0.1 * i:.6f},{c:.6f},{label}"
                              for label, c in (("a", 0.0), ("b", 8.0)) for i in range(4)]
    for name in ("train.csv", "test.csv"):
        (base / name).write_text("\n".join(rows) + "\n")


def test_importing_the_cli_loads_neither_numpy_nor_scipy(tmp_path):
    assert loaded_after([], tmp_path) == set()


@pytest.mark.parametrize("argv", [
    ["push", "--force", "5", "--dir", "left"],
    ["ca-predict", "--init", "0101", "--n", "4"],
])
def test_verb_runs_without_numpy(argv, tmp_path):
    assert loaded_after(argv, tmp_path) == set()


@pytest.mark.parametrize("argv", [
    ["gen-gait", "--out", "cycle.tsv"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["ingest", "--in", "acc.csv", "--out", "angles.csv", "--ik", "alg1"],
    ["classify", "--train", "train.csv", "--test", "test.csv", "--method", "knn",
     "--out", "metrics.json"],
])
def test_verb_runs_without_scipy(argv, tmp_path):
    write_inputs(tmp_path)
    assert "scipy" not in loaded_after(argv, tmp_path)
