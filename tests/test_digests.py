"""Byte-identical outputs: each benchmark workload's scripted verbs, run
once in process at seeds 1-3, exit as the script expects and write files
whose SHA-256 digests equal a committed table. At seed 1 they are also run
as ``python -m gaitforge.cli`` processes, as the benchmark runs them, so the
process entry's exit is checked too. Seed 1's table is the benchmark's own,
``perfbench/digests.json``; seeds 2 and 3 are in
``tests/digests_seeds_2_3.json``, written with

    PYTHONPATH=src python tests/test_digests.py > tests/digests_seeds_2_3.json

Deselect these tests with ``-m "not digests"``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from gaitforge import cli

from bare_digests import load_workloads, recorded
from conftest import src_env

WORKLOADS = load_workloads().WORKLOADS


def in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def as_process(argv: list[str]) -> int:
    return subprocess.run([sys.executable, "-m", "gaitforge.cli", *argv], env=src_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120).returncode


def outputs(workload: str, seed: int, work: str, verb=in_process) -> tuple[dict, list[str]]:
    """The digest of every output of ``workload``'s scripted verbs at
    ``seed``, each run once in ``work`` by ``verb(argv)``, which returns the
    exit status, and the verbs that exited other than as scripted."""
    script = WORKLOADS[workload](seed, Path(work))
    digests, wrong_exit = {}, []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for inv in script.invocations:
            rc = verb(list(inv.argv))
            if rc != inv.rc:
                wrong_exit.append(f"{' '.join(inv.argv)}: exit {rc}, expected {inv.rc}")
            for name in inv.outputs:
                with open(name, "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(cwd)
    return digests, wrong_exit


@pytest.mark.digests
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_recorded_digests(workload, seed, tmp_path):
    digests, wrong_exit = outputs(workload, seed, str(tmp_path))
    assert wrong_exit == []
    assert digests == recorded(seed)[workload]


@pytest.mark.digests
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_verb_processes_match_recorded_digests(workload, tmp_path):
    digests, wrong_exit = outputs(workload, 1, str(tmp_path), as_process)
    assert wrong_exit == []
    assert digests == recorded(1)[workload]


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
