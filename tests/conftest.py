import os
from pathlib import Path

import pytest

from gompkit import rip

# pyproject.toml puts src/ on this process's path; the CLI tests' subprocesses
# (python -m gompkit) get it through PYTHONPATH, so a checkout runs uninstalled.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def cold_enumeration_caches():
    """Start every test with empty support-table and index caches, so no test
    passes only because an earlier one warmed them."""
    for cache in (rip._small_support_tables, rip._large_support_tables, rip._layout):
        cache.cache_clear()
