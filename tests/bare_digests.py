"""The numpy-free verbs on other interpreters: byte-identical outputs and
the start-up allow-list.

Runs every ``push``, ``ca-predict``, ``gen-gait`` and ``simulate-block``
invocation of the ``cli_short`` and ``gait_dense`` workloads, and their
missing-input case, at seeds 1-3 as ``PYTHON -S -m gaitforge.cli`` from
``src``: ``-S`` skips site, so the interpreter sees no site-packages and
could not import numpy. Each invocation must exit as scripted and pass the
workload's own check, and each file it writes must have the SHA-256 digest
recorded in ``perfbench/digests.json`` (seed 1) or
``tests/digests_seeds_2_3.json`` (seeds 2 and 3). Each of the four verbs
then runs once under ``START_UP_PROBE``, also with ``-S``, and must load no
module beyond ``START_UP_MODULES`` and its own set in ``START_UP_VERBS``,
the allow-list that ``tests/test_imports.py`` checks in process.

The argv and inputs come from ``perfbench/workloads.py``, which needs numpy,
so this script runs under an interpreter that has it, and takes the
interpreters to check as arguments:

    python3 tests/bare_digests.py python3.10 python3.13

It prints one line per interpreter and exits with status 1 if any
invocation, file or start-up set does not match. ``tests/test_digests.py``
loads the workloads and the recorded digests through this script's
:func:`load_workloads` and :func:`recorded`.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NUMPY_FREE = ("push", "ca-predict", "gen-gait", "simulate-block")
WORKLOADS = ("cli_short", "gait_dense")
SEEDS = (1, 2, 3)

# Every module a numpy-free verb may load under -S beyond those the probe has
# loaded before it imports the CLI (json and what json needs), as CPython
# 3.11 loads them: argparse brings gettext and locale, and shutil (with bz2,
# lzma, zlib and fnmatch) for the terminal width. test_imports.py names what
# other versions leave out.
START_UP_MODULES = {
    "__future__", "_bz2", "_compression", "_locale", "_lzma", "_stat", "argparse", "bz2",
    "collections.abc", "contextlib", "errno", "fnmatch", "gaitforge", "gaitforge.cli",
    "gaitforge.records", "gaitforge.tables", "genericpath", "gettext", "locale", "lzma",
    "math", "os", "os.path", "posixpath", "shutil", "stat", "warnings", "zlib",
}
# each numpy-free verb's argv and the modules it alone may load
START_UP_VERBS = (
    (["push", "--force", "5", "--dir", "left"], {"gaitforge.push_fuzzy"}),
    (["ca-predict", "--init", "0101", "--n", "4"], {"gaitforge.gait_ca"}),
    (["simulate-block", "--t-end", "1", "--out", "trace.csv"],
     {"array", "gaitforge.rocking_block"}),
    (["gen-gait", "--out", "cycle.tsv"], {"_bisect", "array", "bisect", "gaitforge.gait_model"}),
)
START_UP_PROBE = """
import json, sys
before = set(sys.modules)
from gaitforge import cli
rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "loaded": sorted(set(sys.modules) - before)}))
"""


def load_workloads():
    """``perfbench/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def recorded(seed: int) -> dict:
    """The recorded digest of every output, by workload, at ``seed``."""
    if seed == 1:
        return json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    table = json.loads((ROOT / "tests" / "digests_seeds_2_3.json").read_text(encoding="utf-8"))
    return table[str(seed)]


def check(python: str, workloads) -> tuple[int, list[str]]:
    """The number of files compared and the problems found under ``python``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    files, problems = 0, []
    for seed in SEEDS:
        digests = recorded(seed)
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as work:
                script = workloads.WORKLOADS[name](seed, Path(work))
                for inv in script.invocations:
                    # the missing-input case exits before any verb loads numpy
                    if inv.argv[0] not in NUMPY_FREE and inv.rc != 2:
                        continue
                    label = f"{name} seed {seed}: {' '.join(inv.argv)}"
                    proc = subprocess.run([python, "-S", "-m", "gaitforge.cli", *inv.argv],
                                          cwd=work, env=env, stdin=subprocess.DEVNULL,
                                          capture_output=True, text=True, timeout=120)
                    if proc.returncode != inv.rc:
                        problems.append(f"{label}: exit {proc.returncode}, expected {inv.rc}: "
                                        f"{proc.stderr.strip()}")
                        continue
                    outcome = workloads.Outcome(proc.returncode, proc.stdout, proc.stderr)
                    problems += [f"{label}: {p}" for p in inv.check(outcome, Path(work))]
                    for out in inv.outputs:
                        files += 1
                        digest = hashlib.sha256(Path(work, out).read_bytes()).hexdigest()
                        if digest != digests[name][out]:
                            problems.append(f"{label}: {out}: digest {digest}")
    return files, problems


def check_start_up(python: str) -> list[str]:
    """The modules each numpy-free verb loads under ``python -S`` beyond the
    allow-list, one problem per verb that loads any or fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    problems = []
    for argv, own in START_UP_VERBS:
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run([python, "-S", "-c", START_UP_PROBE, json.dumps(argv)],
                                  cwd=work, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            problems.append(f"start-up {argv[0]}: exit {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        extra = set(result["loaded"]) - START_UP_MODULES - own
        if result["rc"] != 0 or extra:
            problems.append(f"start-up {argv[0]}: rc {result['rc']}, beyond the allow-list: "
                            f"{sorted(extra)}")
    return problems


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__, file=sys.stderr)
        return 2
    # the workloads' checks call into the package in this process
    sys.path.insert(0, str(SRC))
    workloads = load_workloads()
    failed = False
    for python in pythons:
        version = subprocess.run([python, "-S", "-c", "import sys; print(sys.version.split()[0])"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        files, problems = check(python, workloads)
        problems += check_start_up(python)
        print(f"{python} ({version}): {files} files, {len(START_UP_VERBS)} start-up sets, "
              f"{len(problems)} mismatches")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
