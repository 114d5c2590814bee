import io
import math
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gaitforge.tables import fixture_dir

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(env=None) -> dict:
    """A copy of ``env`` (by default this process's environment) whose
    ``PYTHONPATH`` starts with this checkout's ``src``, so that a Python
    subprocess imports the package under test."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def ik_point(x: float, y: float, l1: float, l2: float, elbow: str):
    """Two-link joint angles (theta1, theta2) reaching one point, written out
    with :mod:`math`: the reference that ``capture.ik_two_link`` must equal
    bit for bit. None for a point more than 1e-9 outside the reach, or with a
    NaN coordinate."""
    rho = math.hypot(x, y)
    if not abs(l1 - l2) - 1e-9 <= rho <= l1 + l2 + 1e-9:
        return None
    c = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    c = min(1.0, max(-1.0, c))
    s = math.sqrt(1.0 - c * c)
    if elbow == "up":
        s = -s
    return math.atan2(y, x) - math.atan2(l2 * s, l1 + l2 * c), math.atan2(s, c)


def fk_point(theta1: float, theta2: float, l1: float, l2: float):
    """The (elbow, tip) points of one pair of joint angles, written out with
    :mod:`math`: the reference for ``capture.fk_two_link``."""
    ex, ey = l1 * math.cos(theta1), l1 * math.sin(theta1)
    return (ex, ey), (ex + l2 * math.cos(theta1 + theta2), ey + l2 * math.sin(theta1 + theta2))


def check_read_only_sequence(view, items):
    """``view`` holds ``items`` in order, reads them back as a sequence does
    and refuses item assignment."""
    n = len(items)
    assert len(view) == n > 3
    assert view[0] == items[0]
    assert view[-1] == items[-1]
    assert view[-3:] == items[-3:] and isinstance(view[-3:], list)
    assert list(view) == items
    assert view == items
    assert view == tuple(items)
    assert view != items[:-1]
    assert view != tuple(items[1:]) + (items[0],)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = items[0]


@pytest.fixture
def read_only_sequence():
    """The :func:`check_read_only_sequence` assertion."""
    return check_read_only_sequence


def _clear_table_caches():
    """Drop every memoised table of the package, as a fresh process has none."""
    for name, module in list(sys.modules.items()):
        if name.startswith("gaitforge."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def bundled_tables(tmp_path, monkeypatch):
    """A writable copy of the bundled tables in ``tmp_path / "fx"``, which
    ``GAITFORGE_FIXTURES`` points the package at for the test. Memoised
    tables are dropped before and after, so the test reads the copy and
    later tests the originals."""
    fixtures = tmp_path / "fx"
    shutil.copytree(fixture_dir(), fixtures)
    monkeypatch.setenv("GAITFORGE_FIXTURES", str(fixtures))
    _clear_table_caches()
    yield fixtures
    _clear_table_caches()


@pytest.fixture(scope="session")
def alg1_cuts(tmp_path_factory):
    """The seed-1 ``signal_learn`` accelerometer export, from the benchmark's
    own generator, through ``ingest`` with its default ``alg1``, cut to the
    header and its first 200 and 5,000 rows: the path of each cut, by rows.
    On these raw angles EMD runs out of sifts on some joints."""
    from bare_digests import load_workloads
    from gaitforge import cli

    work = tmp_path_factory.mktemp("alg1")
    load_workloads().WORKLOADS["signal_learn"](1, work)
    angles = work / "angles.csv"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ingest", "--in", str(work / "accel.csv"), "--out", str(angles)]) == 0
    lines = angles.read_text(encoding="utf-8").splitlines(keepends=True)
    cuts = {rows: work / f"alg1-{rows}.csv" for rows in (200, 5000)}
    for rows, path in cuts.items():
        path.write_text("".join(lines[:rows + 1]), encoding="utf-8")
    return cuts
