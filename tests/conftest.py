from __future__ import annotations

import pytest

from edgereg import suites


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Never read or write a developer's disk cache: a stale regularity
    there could hide a mutant.  A test that wants one sets the variable
    itself."""
    monkeypatch.delenv(suites.CACHE_ENV_VAR, raising=False)


@pytest.fixture
def fresh_memo():
    """Clear the one memo and the per-graph table before and after the test.

    A test that patches or recompiles code below the memo uses it, so no
    value computed by a mutated kernel (a complex's homology, a regularity,
    an invariant or a colon) serves a later test, and no earlier value
    hides the mutant."""
    suites.clear_all_caches()
    yield
    suites.clear_all_caches()
