"""Every test starts with the per-group memos empty, as each run_suite group
does, so a result memoized by an earlier test cannot hide a patched engine."""

import pytest

from genpos.graphs import clear_memos


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_memos()
