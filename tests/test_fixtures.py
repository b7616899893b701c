"""The committed mock fixtures are exactly what ``tests/fixtures/build_fixtures.py`` writes.

A hand edit to a fixture file would be undone, silently, the next time that
script runs; this test reports it instead.
"""

import importlib.util
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def _load_fixture_script():
    spec = importlib.util.spec_from_file_location("build_fixtures", FIXTURES / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BUILT = _load_fixture_script().build_files()


@pytest.mark.parametrize("name", sorted(BUILT))
def test_committed_fixture_matches_build_fixtures(name):
    committed = (FIXTURES / name).read_text(encoding="utf-8")
    assert committed == BUILT[name], (
        f"tests/fixtures/{name} differs from what build_fixtures.py writes; "
        "change build_fixtures.py and run it instead of editing the file"
    )
