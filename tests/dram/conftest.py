"""Fixtures shared by the DRAM controller tests."""

from __future__ import annotations

import pytest

from repro.dram import ckernel


@pytest.fixture(scope="module", params=["c", "python"])
def drain_impl(request):
    """Pin the per-channel drain to the compiled kernel (``c``) or the
    Python generator (``python``, which swaps the kernel loader for
    one that returns ``None``).

    Module-scoped so hypothesis tests can use it.  The ``c`` case is
    skipped where the kernel cannot be built (no gcc)."""
    if request.param == "c":
        if ckernel.load() is None:
            pytest.skip("C drain kernel unavailable")
        yield request.param
    else:
        with ckernel.python_drain():
            yield request.param
