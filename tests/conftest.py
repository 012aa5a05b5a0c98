import os
from pathlib import Path

import pytest

from gompkit import harness, rip

# pyproject.toml puts src/ on this process's path; the CLI tests' subprocesses
# (python -m gompkit) get it through PYTHONPATH, so a checkout runs uninstalled.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty support-table, index and seed-state caches,
    so no test passes only because an earlier one warmed them."""
    caches = (rip._small_support_tables, rip._large_support_tables, rip._layout,
              harness._range_states)
    for cache in caches:
        cache.cache_clear()
