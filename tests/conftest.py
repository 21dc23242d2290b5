from __future__ import annotations

import pytest

from edgereg import homology


@pytest.fixture
def fresh_memo():
    """Clear the one memo before and after the test.

    A test that patches or recompiles code below the memo uses it, so no
    value computed by a mutated kernel (a complex's homology, a regularity
    or an invariant) serves a later test, and no earlier value hides the
    mutant."""
    homology.clear_caches()
    yield
    homology.clear_caches()
