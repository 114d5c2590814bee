"""Steadiness mode: repeat one commit's benchmark runs and report, per
workload and metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 --out .perfbench_work/steady-a.json
    python3 perfbench/steady.py --seeds 11-20 --baseline .perfbench_work/steady-a.json

With ``--baseline`` it also reports how far each median moved from the
baseline's, in the metric's worse direction, against the same bound.
Runs go one at a time, each seed through every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "n": len(values),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--baseline", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads, seeds = args.workloads.split(","), parse_seeds(args.seeds)
    values = {w: {name: [] for name in metrics} for w in workloads}
    failures = 0
    for seed in seeds:
        for w in workloads:
            result = run_once(w, seed, args.seconds, args.trace)
            failures += result["failed"]
            print(f"{w} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace or k in ("cli.main_ms", "trace.overhead_frac")), flush=True)
            for name in metrics:
                values[w][name].append(result["metrics"][name]["value"])

    summary = {w: {name: summarize(v) for name, v in per.items()} for w, per in values.items()}
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    print(f"\n{'workload':13s} {'metric':32s} {'median':>13s} {'q1':>13s} {'q3':>13s}"
          f" {'spread':>8s} {'bound':>6s}" + ("  vs baseline" if base else ""))
    for w, per in summary.items():
        for name, s in per.items():
            bound = metrics[name].get("bound")
            line = (f"{w:13s} {name:32s} {s['median']:13.6g} {s['q1']:13.6g} {s['q3']:13.6g}"
                    f" {s['spread']:8.4f} {bound if bound is not None else '-':>6}")
            if bound is not None:
                line += "  ok" if s["spread"] < bound / 3 else "  WIDE"
            if base and bound is not None:
                old = base[w][name]["median"]
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (s["median"] - old) / old
                line += f"  {worse:+.4f} {'ok' if worse <= bound else 'WORSE'}"
            print(line)
    print(f"\nfailed invocations: {failures}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
