import shutil
import sys

import pytest

from gaitforge.fixtures import fixture_dir


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
    shutil.copytree(fixture_dir(), fixtures, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    monkeypatch.setenv("GAITFORGE_FIXTURES", str(fixtures))
    _clear_table_caches()
    yield fixtures
    _clear_table_caches()
