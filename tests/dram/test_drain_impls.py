"""The scheduler equivalence suites under each drain implementation.

Their own modules run with whatever :func:`repro.dram.ckernel.load`
provides (the C kernel wherever gcc works).  Here every one of their
tests runs again with the drain pinned by the ``drain_impl`` fixture
-- once on the C kernel, once on the Python generator -- so each
implementation is checked against ``dram/reference.py`` on its own.
Each test is collected as ``<test name>__<suite>``.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

pytestmark = pytest.mark.usefixtures("drain_impl")

_SUITES = (
    "test_scheduler_equivalence",
    "test_arrivals",
    "test_simulate_arrays",
    "test_properties",
)

for _suite in _SUITES:
    _module = importlib.import_module(f"tests.dram.{_suite}")
    for _name, _test in vars(_module).items():
        if _name.startswith("test_") and inspect.isfunction(_test):
            globals()[f"{_name}__{_suite[len('test_'):]}"] = _test
del _suite, _module, _name, _test
