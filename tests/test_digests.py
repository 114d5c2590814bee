"""Byte-identical outputs: each benchmark workload's scripted verbs, run
once in process at seeds 1-3, exit as the script expects and write files
whose SHA-256 digests equal a committed table. Seed 1's table is the
benchmark's own, ``perfbench/digests.json``; seeds 2 and 3 are in
``tests/digests_seeds_2_3.json``, written with

    PYTHONPATH=src python tests/test_digests.py > tests/digests_seeds_2_3.json

Deselect these tests with ``-m "not digests"``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gaitforge import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_1 = os.path.join(ROOT, "perfbench", "digests.json")
SEEDS_2_3 = os.path.join(ROOT, "tests", "digests_seeds_2_3.json")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def outputs(workload: str, seed: int, work: str) -> tuple[dict, list[str]]:
    """The digest of every output of ``workload``'s scripted verbs at
    ``seed``, run once in ``work``, and the verbs that exited other than as
    scripted."""
    script = WORKLOADS[workload](seed, Path(work))
    digests, wrong_exit = {}, []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for inv in script.invocations:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(inv.argv))
            if rc != inv.rc:
                wrong_exit.append(f"{' '.join(inv.argv)}: exit {rc}, expected {inv.rc}")
            for name in inv.outputs:
                with open(name, "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(cwd)
    return digests, wrong_exit


def _recorded(seed: int) -> dict:
    if seed == 1:
        with open(SEED_1, encoding="utf-8") as fh:
            return json.load(fh)
    with open(SEEDS_2_3, encoding="utf-8") as fh:
        return json.load(fh)[str(seed)]


@pytest.mark.digests
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_recorded_digests(workload, seed, tmp_path):
    digests, wrong_exit = outputs(workload, seed, str(tmp_path))
    assert wrong_exit == []
    assert digests == _recorded(seed)[workload]


if __name__ == "__main__":
    table = {}
    for seed in (2, 3):
        table[str(seed)] = {}
        for workload in sorted(WORKLOADS):
            with tempfile.TemporaryDirectory() as work:
                digests, wrong_exit = outputs(workload, seed, work)
            if wrong_exit:
                sys.exit("\n".join(wrong_exit))
            table[str(seed)][workload] = digests
    print(json.dumps(table, indent=1, sort_keys=True))
