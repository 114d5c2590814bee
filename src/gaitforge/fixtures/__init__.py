"""Bundled data tables (model bank, rule tables, angle ranges).

The JSON files here are the single source of truth for both the runtime and
the test suite. They are found next to this module, so the package must be
installed as files, not imported from a zip. Set ``GAITFORGE_FIXTURES`` to
point at a directory with replacement files. The variable stays, as the
README documents: it is the only way to give the program other tables
without editing the installed package, and so the way tests and CI check
that a malformed table exits 2 with one line naming the file.
"""

import os


def fixture_dir() -> str:
    return os.environ.get("GAITFORGE_FIXTURES") or os.path.dirname(__file__)


def fixture_path(name: str) -> str:
    path = os.path.join(fixture_dir(), name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"fixture {name!r} not found in {os.path.dirname(path)}")
    return path
