"""Import contract of the command line: each verb loads only the heavy
libraries it runs, and none needs scipy. numpy costs most of a CLI call's
start-up and scipy far more, so a stray import would slow every verb without
failing anything else. ``push``, ``ca-predict``, ``simulate-block`` and
``gen-gait`` (and ``gaitforge.gait_model`` itself) load no numpy, and
``ca-predict``, ``simulate-block`` and ``gen-gait`` do not load
``gaitforge.push_fuzzy`` either. A verb that loads numpy loads it with
``OPENBLAS_THREAD_TIMEOUT`` set, to 4 unless the caller set it.

Every case runs in a fresh interpreter, since this test process has long
since imported both. The probe blocks scipy (``sys.modules["scipy"] = None``)
before it imports the CLI, so any scipy import in a verb fails the case, as
it would on an install without scipy. No timings are compared.
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
sys.modules["scipy"] = None
from gaitforge import cli
argv = json.loads(sys.argv[1])
rc = cli.main(argv) if argv else 0
print(json.dumps({"rc": rc, "loaded": [m for m in ("numpy", "scipy")
                                       if sys.modules.get(m) is not None]}))
"""


def probe_result(argv, cwd, probe=PROBE, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0, done.stderr
    return result


def loaded_after(argv, cwd, probe=PROBE):
    return set(probe_result(argv, cwd, probe)["loaded"])


def write_inputs(base: Path) -> None:
    rows = ["t,x,y,z"] + [f"{i * 0.01:.2f},{6.0 + 0.1 * (i % 7):.6f},2.0,0.0"
                          for i in range(20)]
    (base / "acc.csv").write_text("\n".join(rows) + "\n")
    rows = ["f0,f1,label"] + [f"{c + 0.1 * i:.6f},{c:.6f},{label}"
                              for label, c in (("a", 0.0), ("b", 8.0)) for i in range(4)]
    for name in ("train.csv", "test.csv"):
        (base / name).write_text("\n".join(rows) + "\n")
    rows = ["t,theta1_deg,theta2_deg"] + [f"{i * 0.01:.2f},{(i * 7) % 11:.6f},{(i * 5) % 9:.6f}"
                                          for i in range(40)]
    (base / "angles.csv").write_text("\n".join(rows) + "\n")


def test_importing_the_cli_loads_neither_numpy_nor_scipy(tmp_path):
    assert loaded_after([], tmp_path) == set()


def test_importing_the_gait_model_loads_no_numpy(tmp_path):
    probe = PROBE.replace("from gaitforge import cli", "import gaitforge.gait_model")
    assert loaded_after([], tmp_path, probe) == set()


@pytest.mark.parametrize("argv", [
    ["push", "--force", "5", "--dir", "left"],
    ["ca-predict", "--init", "0101", "--n", "4"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["gen-gait", "--out", "cycle.tsv"],
    ["gen-gait", "--schedule", "percent", "--tc", "1e-4", "--cross-fade", "--out", "cycle.tsv"],
    ["gen-gait", "--model-bank", "bank.json", "--out", "cycle.tsv"],
])
def test_verb_runs_without_numpy(argv, tmp_path):
    from gaitforge.gait_model import FieldBank

    FieldBank.default().save(tmp_path / "bank.json")
    assert loaded_after(argv, tmp_path) == set()


@pytest.mark.parametrize("argv", [
    ["gen-gait", "--out", "cycle.tsv"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["ca-predict", "--init", "0101", "--n", "4"],
])
def test_verb_runs_without_push_fuzzy(argv, tmp_path):
    probe = PROBE.replace('("numpy", "scipy")', '("gaitforge.push_fuzzy",)')
    assert loaded_after(argv, tmp_path, probe) == set()


@pytest.mark.parametrize("argv", [
    ["gen-gait", "--out", "cycle.tsv"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["ingest", "--in", "acc.csv", "--out", "angles.csv", "--ik", "alg1"],
    ["classify", "--train", "train.csv", "--test", "test.csv", "--method", "knn",
     "--out", "metrics.json"],
    ["ingest", "--in", "acc.csv", "--out", "angles.csv", "--ik", "exact",
     "--smooth", "spline", "--knot-stride", "3"],
    ["features", "--in", "angles.csv", "--out", "features.csv"],
    ["plot-data", "--tc", "0.01", "--out-dir", "plots"],
    # fold accuracies that differ, so the ANOVA computes a p-value
    ["cv", "--method", "mlp", "--epochs", "2", "--baseline", "knn", "--out", "cv.json"],
])
def test_verb_runs_without_scipy(argv, tmp_path):
    write_inputs(tmp_path)
    assert "scipy" not in loaded_after(argv, tmp_path)


# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it; the spy
# records the variable at that moment
BLAS_PROBE = PROBE.replace("from gaitforge import cli", """import os
seen = []

class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, NumpyImportSpy())
from gaitforge import cli""").replace('"rc": rc,', '"rc": rc, "seen": seen,')


@pytest.mark.parametrize("preset, seen", [(None, "4"), ("28", "28")])
def test_numpy_verbs_load_openblas_with_a_short_idle_spin(preset, seen, tmp_path):
    write_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    result = probe_result(["features", "--in", "angles.csv", "--out", "features.csv"],
                          tmp_path, BLAS_PROBE, env)
    assert result["seen"] == [seen]
