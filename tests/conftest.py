import os
from pathlib import Path

import pytest

from gompkit import harness, rip

# pyproject.toml puts src/ on this process's path; the CLI tests' subprocesses
# (python -m gompkit) get it through PYTHONPATH, so a checkout runs uninstalled.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


# every functools.lru_cache of the package; test_caches.py checks that none is missing
CACHES = (rip._small_support_tables, rip._large_support_tables, rip._layout,
          harness._seed_words)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty support-table, index and seed-word caches,
    so no test passes only because an earlier one warmed them."""
    clear_caches()
