"""Per-layer metrics of gaitforge: where the traced replay puts its spans
and how the per-layer numbers are read back out of them.

A layer is one module of the package. Every span wraps a public function or
method that the CLI (or another module) calls across a module boundary.
Self-calls inside a module are never wrapped.
"""

from __future__ import annotations

import importlib
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

from tracer import Span, Tracer, self_times


def _size(arguments, _value):
    return {"bytes": os.path.getsize(arguments["path"])}


# (module, owner inside the module or "", attribute, span name, counts)
TARGETS = [
    ("cli", "", "fixture_path", "fixtures.fixture_path", None),
    ("gait_model", "", "fixture_path", "fixtures.fixture_path", None),
    ("gait_ca", "", "fixture_path", "fixtures.fixture_path", None),
    ("push_fuzzy", "", "fixture_path", "fixtures.fixture_path", None),
    ("gait_model", "FieldBank", "default", "gait_model.FieldBank.default", None),
    ("gait_model", "", "generate_gait_cycle", "gait_model.generate_gait_cycle",
     lambda a, v: {"samples": len(v)}),
    ("gait_model", "", "validate_ranges", "gait_model.validate_ranges",
     lambda a, v: {"violations": len(v.violations)}),
    ("gait_model", "JointTrajectorySet", "write_tsv", "gait_model.write_tsv", _size),
    ("gait_model", "", "limit_cycle", "gait_model.limit_cycle", None),
    ("rocking_block", "", "simulate", "rocking_block.simulate",
     lambda a, v: {"states": len(v.states), "impacts": len(v.impacts)}),
    ("rocking_block", "BlockTrace", "write_csv", "rocking_block.write_csv", _size),
    ("gait_ca", "", "predict_sequence", "gait_ca.predict_sequence",
     lambda a, v: {"steps": len(v)}),
    ("push_fuzzy", "", "recover", "push_fuzzy.recover", None),
    ("capture", "", "load_accelerometer_csv", "capture.load_accelerometer_csv",
     lambda a, v: {"rows": len(v["x"])}),
    ("capture", "", "load_joint_angle_csv", "capture.load_joint_angle_csv",
     lambda a, v: {"rows": len(v[0])}),
    ("capture", "", "ik_alg1_batch", "capture.ik_alg1_batch", None),
    ("capture", "", "ik_two_link", "capture.ik_two_link", None),
    ("capture", "", "smooth_cubic_spline", "capture.smooth_cubic_spline", None),
    ("capture", "", "smooth_moving_average", "capture.smooth_moving_average", None),
    ("capture", "", "write_joint_angle_csv", "capture.write_joint_angle_csv",
     lambda a, v: {"rows": len(a["t"])}),
    ("capture", "", "fk_two_link", "capture.fk_two_link", None),
    ("features", "", "emd_decompose", "features.emd_decompose",
     lambda a, v: {"imfs": len(v[0])}),
    ("features", "", "feature_vector", "features.feature_vector", None),
    ("features", "", "quartile_stats", "features.quartile_stats", None),
    ("features", "", "write_feature_matrix_csv", "features.write_feature_matrix_csv", None),
    ("learn", "Dataset", "from_csv", "learn.Dataset.from_csv", lambda a, v: {"rows": len(v)}),
    ("learn", "", "kfold_cv", "learn.kfold_cv", None),
    ("learn", "", "anova_single_factor", "learn.anova_single_factor", None),
]


def _module(name: str):
    try:
        return importlib.import_module(f"gaitforge.{name}")
    except ImportError:
        return None


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the names of missing ones."""
    missing = []
    for module, owner, attr, name, counts in TARGETS:
        obj = _module(module)
        if owner and obj is not None:
            obj = getattr(obj, owner, None)
        if obj is None or not tracer.wrap(obj, attr, name, counts=counts):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")

    # The trainer factories hand closures to kfold_cv; trace the closures.
    def rows(args, _value):
        return {"queries": len(np.atleast_2d(args[0]))}

    def mlp_result(trainer, arguments):
        epochs = arguments["epochs"]
        return tracer.traced_callable(
            trainer, "learn.mlp_train", lambda args, _v: {"updates": len(args[0]) * epochs})

    def knn_result(trainer, _arguments):
        def fit(train):
            return tracer.traced_callable(trainer(train), "learn.knn_predict", rows)
        return fit

    learn = _module("learn")
    for attr, result in (("mlp_trainer", mlp_result), ("knn_trainer", knn_result)):
        if learn is None or not tracer.wrap(learn, attr, f"learn.{attr}", result=result):
            missing.append(f"learn.{attr}")
    return missing


JOINTS = 6   # hips, knees and ankles: every gait sample holds six angles


def replay_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one replay of a workload."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def chosen(names):
        return [i for n in names for i in by_name.get(n, [])]

    def ms(*names):
        # nested spans of the same set count once
        picked = set(chosen(names))
        total = 0.0
        for i in picked:
            p = spans[i].parent
            while p is not None and p not in picked:
                p = spans[p].parent
            if p is None:
                total += spans[i].duration
        return total * 1e3

    def count(key, *names):
        return sum(spans[i].counts.get(key, 0) for i in chosen(names))

    def calls(*names):
        return len(chosen(names))

    def per(num, den):
        return num / den if den else 0.0

    roots = [i for i, s in enumerate(spans) if s.parent is None]
    m = {
        "cli.main_ms": sum(spans[i].duration for i in roots) * 1e3,
        "cli.glue_ms": sum(own[i] for i in roots) * 1e3,
        "fixtures.load_ms": ms("gait_model.FieldBank.default", "fixtures.fixture_path"),
        "fixtures.loads": calls("fixtures.fixture_path"),
        "gait_model.generate_ms": ms("gait_model.generate_gait_cycle"),
        "gait_model.samples": count("samples", "gait_model.generate_gait_cycle"),
        "gait_model.validate_ms": ms("gait_model.validate_ranges"),
        "gait_model.violations": count("violations", "gait_model.validate_ranges"),
        "gait_model.write_ms": ms("gait_model.write_tsv"),
        "gait_model.bytes_written": count("bytes", "gait_model.write_tsv"),
        "gait_model.limit_cycle_ms": ms("gait_model.limit_cycle"),
        "rocking_block.simulate_ms": ms("rocking_block.simulate"),
        "rocking_block.states": count("states", "rocking_block.simulate"),
        "rocking_block.impacts": count("impacts", "rocking_block.simulate"),
        "rocking_block.write_ms": ms("rocking_block.write_csv"),
        "rocking_block.bytes_written": count("bytes", "rocking_block.write_csv"),
        "gait_ca.predict_us": ms("gait_ca.predict_sequence") * 1e3,
        "gait_ca.steps": count("steps", "gait_ca.predict_sequence"),
        "push_fuzzy.recover_us": ms("push_fuzzy.recover") * 1e3,
        "push_fuzzy.calls": calls("push_fuzzy.recover"),
        "push_fuzzy.impossible": sum(spans[i].error == "RecoveryImpossible"
                                     for i in chosen(["push_fuzzy.recover"])),
        "capture.read_ms": ms("capture.load_accelerometer_csv", "capture.load_joint_angle_csv"),
        "capture.rows_read": count("rows", "capture.load_accelerometer_csv",
                                   "capture.load_joint_angle_csv"),
        "capture.ik_ms": ms("capture.ik_alg1_batch", "capture.ik_two_link"),
        "capture.smooth_ms": ms("capture.smooth_cubic_spline", "capture.smooth_moving_average"),
        "capture.write_ms": ms("capture.write_joint_angle_csv"),
        "capture.rows_written": count("rows", "capture.write_joint_angle_csv"),
        "capture.fk_ms": ms("capture.fk_two_link"),
        "features.emd_ms": ms("features.emd_decompose"),
        "features.imfs": count("imfs", "features.emd_decompose"),
        "features.feature_vector_ms": ms("features.feature_vector"),
        "features.quartile_ms": ms("features.quartile_stats"),
        "features.write_ms": ms("features.write_feature_matrix_csv"),
        "learn.read_ms": ms("learn.Dataset.from_csv"),
        "learn.rows_read": count("rows", "learn.Dataset.from_csv"),
        "learn.kfold_cv_ms": ms("learn.kfold_cv"),
        "learn.mlp_train_ms": ms("learn.mlp_train"),
        "learn.mlp_updates": count("updates", "learn.mlp_train"),
        "learn.knn_predict_ms": ms("learn.knn_predict"),
        "learn.knn_queries": count("queries", "learn.knn_predict"),
        "learn.anova_us": ms("learn.anova_single_factor") * 1e3,
    }
    m["gait_model.ns_per_sample_joint"] = per(m["gait_model.generate_ms"] * 1e6,
                                              m["gait_model.samples"] * JOINTS)
    m["rocking_block.us_per_state"] = per(m["rocking_block.simulate_ms"] * 1e3,
                                          m["rocking_block.states"])
    m["learn.us_per_update"] = per(m["learn.mlp_train_ms"] * 1e3, m["learn.mlp_updates"])
    return m


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_profile(stderr: str) -> dict[str, float]:
    """Milliseconds from one ``-X importtime`` report.

    numpy and scipy take the cumulative time of each outermost import of
    the package (so what they pull in counts); gaitforge takes the self
    time of its own modules only."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    totals = {"numpy": 0, "scipy": 0, "gaitforge": 0}
    # importtime prints children before their parent; walking backwards
    # visits every parent before its children
    stack: list[tuple[int, str]] = []
    for self_us, cum_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == "gaitforge":
            totals["gaitforge"] += self_us
        elif top in totals and all(t != top for _, t in stack):
            totals[top] += cum_us
        stack.append((depth, top))
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def import_metrics(env: dict, cwd, reps: int = 3) -> dict[str, float]:
    """Bare interpreter start and the import cost of the CLI module, each
    the median over ``reps`` fresh subprocesses."""
    starts, profiles = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gaitforge.cli"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True)
        profiles.append(import_profile(done.stderr))
    out = {"import.python_ms": statistics.median(starts)}
    for key in profiles[0]:
        out[key] = statistics.median(p[key] for p in profiles)
    return out
