"""Smoke check of the benchmark itself, about a minute on two cores.

    python3 perfbench/smoke.py

For every workload it makes one run of a single pass untraced and one
traced, and asserts that the result line has exactly the keys correct,
attempted, failed and metrics, every metric of BENCHMARK.json with its
unit, and no failed invocation.
It then asserts that the benchmark refuses to run, with a non-zero exit and
no result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, w, trace)
            assert done.returncode == 0, f"{w} trace {trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w} trace {trace}: metrics {got} != {want}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{w} trace {trace}: failed_frac {result['failed']}/{result['attempted']}\n" \
                + done.stdout
            print(f"ok {w} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} invocations, failed_frac 0", flush=True)

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and "correct" not in done.stdout, done.stdout
    print(f"ok refuses to run without sources: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
