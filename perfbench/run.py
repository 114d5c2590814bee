"""gaitforge benchmark: seeded CLI workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_short --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's scripted verb list as ``python -m
gaitforge.cli`` subprocesses, one at a time (closed loop, one client), in
whole passes until ``--seconds`` have gone by, and reports the end-to-end
metrics. ``--trace 1`` replays the same invocations in-process through
``cli.main(argv)``, alternating untraced and traced replays, and reports the
per-layer metrics plus the tracing overhead. Every output is checked either
way. The last line of standard output is the JSON result; the line before
it, starting with ``record``, describes the run: versions, inputs, verb
list, the output digests and the sample count behind each median.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUPS = 5          # set-ups per run; setup_s is their median
IMPORT_REPS = 3     # fresh interpreters behind each import.* metric

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Invocation, Outcome, Script  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GAITFORGE_FIXTURES"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_verb(inv: Invocation, work: Path, env: dict):
    """One verb as a subprocess; returns (outcome, seconds, cpu seconds, max RSS KiB)."""
    with open(work / ".stdout", "wb") as out, open(work / ".stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gaitforge.cli", *inv.argv],
                                cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        # wait4 reaps the child and hands back its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(proc.returncode,
                      (work / ".stdout").read_text(encoding="utf-8", errors="replace"),
                      (work / ".stderr").read_text(encoding="utf-8", errors="replace"))
    return outcome, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def reference_start() -> float:
    """Wall time of an isolated ``python -I -c pass``. No change to the
    package can move it, so it shows how fast the machine was during a run;
    it goes into the record, never into a metric."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def clear_outputs(script: Script, work: Path) -> None:
    for inv in script.invocations:
        for name in inv.outputs:
            (work / name).unlink(missing_ok=True)


class Judge:
    """Checks every invocation's result.

    The first pass runs each invocation's own check; later passes must
    reproduce the first pass byte for byte. At the default seed the output
    files must also match the digests recorded with the benchmark.
    """

    def __init__(self, workload: str, seed: int, script: Script, work: Path):
        self.script, self.work = script, work
        self.first: list[tuple] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.golden = recorded.get(workload) if seed == DEFAULT_SEED else None
        self.digests: dict[str, str] = {}

    def fingerprint(self, inv: Invocation, o: Outcome) -> tuple:
        files = tuple((n, sha256(self.work / n) if (self.work / n).is_file() else None)
                      for n in inv.outputs)
        return o.rc, o.stdout, o.stderr, files

    def judge_pass(self, outcomes: list[Outcome]) -> None:
        prints = [self.fingerprint(inv, o) for inv, o in zip(self.script.invocations, outcomes)]
        for i, (inv, o, fp) in enumerate(zip(self.script.invocations, outcomes, prints)):
            self.attempted += 1
            if self.first is None:
                found = [] if o.rc == inv.rc else [f"exit {o.rc}, expected {inv.rc}: {o.stderr[-300:]}"]
                try:
                    found += inv.check(o, self.work)
                except Exception as exc:  # a broken oracle fails the invocation, not the run
                    found.append(f"check raised {type(exc).__name__}: {exc}")
                for name, digest in fp[3]:
                    self.digests[name] = digest
                    if self.golden is not None and self.golden.get(name) != digest:
                        found.append(f"{name}: digest differs from the recorded one")
            else:
                found = [] if fp == self.first[i] else ["output differs from the first pass"]
            if found:
                self.failed += 1
                self.problems.append(f"{' '.join(inv.argv)}: {'; '.join(found)}")
        if self.first is None:
            self.first = prints


def setup(workload: str, seed: int, work: Path, env: dict, judge_warmup: bool):
    """Generate the inputs and make one warm-up invocation; returns the script,
    the seconds it took and any warm-up problem."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    script = WORKLOADS[workload](seed, work)
    outcome, *_ = run_verb(script.warmup, work, env)
    elapsed = time.perf_counter() - t0
    problems = []
    if judge_warmup:
        if outcome.rc != script.warmup.rc:
            problems.append(f"exit {outcome.rc}: {outcome.stderr[-300:]}")
        try:
            problems += script.warmup.check(outcome, work)
        except Exception as exc:  # as in Judge.judge_pass
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    return script, elapsed, [f"warm-up {' '.join(script.warmup.argv)}: {'; '.join(problems)}"
                             ] if problems else []


def end_to_end(script: Script, judge: Judge, work: Path, env: dict, seconds: float,
               refs: list[float]):
    """Whole passes until ``seconds`` have gone by; a reference start precedes
    every pass and is appended to ``refs``. A pass's wall time is the sum of
    its invocations' wall times."""
    walls, cpus, verbs, rss = [], [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        clear_outputs(script, work)
        outcomes, wall, cpu = [], 0.0, 0.0
        refs.append(reference_start())
        for inv in script.invocations:
            outcome, elapsed, used, maxrss = run_verb(inv, work, env)
            outcomes.append(outcome)
            verbs.append(elapsed)
            wall += elapsed
            cpu += used
            rss = max(rss, maxrss)
        walls.append(wall)
        cpus.append(cpu)
        judge.judge_pass(outcomes)
    metrics = {
        "wall_s": statistics.median(walls),
        "verb_p50_ms": statistics.median(verbs) * 1e3,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss / 1024.0,
    }
    samples = {"wall_s": len(walls), "verb_p50_ms": len(verbs), "cpu_s": len(cpus),
               "peak_rss_mb": len(verbs)}
    return metrics, samples


def clear_caches() -> None:
    """Drop the package's memoised tables so each replay loads them like a
    fresh process does."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gaitforge."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def replay(script: Script, work: Path, tracer=None, request=""):
    """Each invocation as one in-process ``cli.main(argv)`` call; returns the
    outcomes and the summed seconds inside ``main``."""
    from gaitforge import cli
    outcomes, total = [], 0.0
    clear_outputs(script, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for i, inv in enumerate(script.invocations):
            clear_caches()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = cli.main(list(inv.argv))
                    else:
                        with tracer.span("cli.main", request=f"{request}-i{i}"):
                            rc = cli.main(list(inv.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a traceback in a subprocess is exit 1
                    rc = 1
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                total += time.perf_counter() - t0
            outcomes.append(Outcome(rc, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    return outcomes, total


def per_layer(workload: str, seed: int, script: Script, judge: Judge, work: Path,
              env: dict, seconds: float):
    from layers import import_metrics, install, replay_metrics
    from tracer import Tracer

    untraced, traced, layer_runs, tracers, missing = [], [], [], [], set()

    def traced_replay():
        tracer = Tracer()
        missing.update(install(tracer))
        try:
            outcomes, total = replay(script, work, tracer,
                                     request=f"{workload}-s{seed}-r{len(traced)}")
        finally:
            tracer.unwrap_all()
        missing.update(tracer.broken)
        tracers.append(tracer)
        layer_runs.append(replay_metrics(tracer.spans))
        traced.append(total)
        return outcomes

    def untraced_replay():
        outcomes, total = replay(script, work)
        untraced.append(total)
        return outcomes

    # an untimed first replay pays the one-off costs: lazy imports, first calls
    judge.judge_pass(replay(script, work)[0])
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # alternate which goes first, so drift in machine speed cancels
        order = (untraced_replay, traced_replay) if len(traced) % 2 == 0 else \
            (traced_replay, untraced_replay)
        for run in order:
            judge.judge_pass(run())

    metrics = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    metrics.update(import_metrics(env, work, IMPORT_REPS))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    with open(WORK_ROOT / f"spans-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span), sort_keys=True) + "\n")
    samples = {"layers": len(layer_runs), "untraced_replays": len(untraced),
               "import": IMPORT_REPS}
    return metrics, samples, sorted(missing)


def run_record(workload: str, seed: int, script: Script, work: Path) -> dict:
    import numpy
    import scipy
    commit = "unknown"   # a checkout without git metadata
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "gaitforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "inputs": [{"name": n, "bytes": (work / n).stat().st_size, "sha256": sha256(work / n)}
                   for n in script.inputs],
        "warmup": script.warmup.argv,
        "verbs": [inv.argv for inv in script.invocations],
    }


def load_metric_spec(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaitforge" / "cli.py").is_file():
        print(f"error: no gaitforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = load_metric_spec(bool(args.trace))
    sys.path.insert(0, str(SRC))
    env = child_env()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, warmup_problems, refs = [], [], []
        for i in range(1 if args.trace else SETUPS):
            refs.append(reference_start())
            script, elapsed, problems = setup(args.workload, args.seed, work, env, i == 0)
            setups.append(elapsed)
            warmup_problems += problems
        judge = Judge(args.workload, args.seed, script, work)
        if args.trace:
            values, samples, missing = per_layer(args.workload, args.seed, script, judge,
                                                 work, env, args.seconds)
        else:
            values, samples = end_to_end(script, judge, work, env, args.seconds, refs)
            values["setup_s"] = statistics.median(setups)
            samples.update(setup_s=len(setups), reference_start=len(refs))
            missing = []
        record = run_record(args.workload, args.seed, script, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = judge.attempted + 1       # the checked warm-up counts once
    failed = judge.failed + bool(warmup_problems)
    problems = warmup_problems + judge.problems
    # values the result does not carry: workload counters of the traced run
    counts = {name: v for name, v in values.items() if name not in units}
    record.update(samples=samples, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, problems=problems[:20],
                  untraced_targets=missing, counts=counts,
                  digests=dict(sorted(judge.digests.items())),
                  reference_start_ms=statistics.median(refs) * 1e3)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} invocations, {failed} failed")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6f} {unit}")
    for name, value in counts.items():
        print(f"  {name:32s} {value:14.0f} count (workload)")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6f} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
