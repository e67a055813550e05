#!/usr/bin/env python
"""Standalone runner for the controller throughput benchmark.

Pass-through form (``python benchmarks/perf/run_controller_bench.py
--smoke``) is equivalent to ``python -m repro bench``; kept as a
script so the perf harness is discoverable next to its committed
baseline and README.  Run from the repository root with
``PYTHONPATH=src``.

``--refresh-baseline`` regenerates the committed
``benchmarks/perf/BENCH_controller.json``: a four-section document
(``full`` 1M-request batch runs with the O(n^2) reference, the
``open_loop_poisson`` 1M random trace, a CI-comparable ``smoke``
section that ``check_regression.py`` gates pull requests against, the
``parallel`` section -- serial vs parallel-drain wall clock on the 1M
and 10M random traces across a worker grid -- and ``cluster_smoke``,
the ``cluster_smoke`` preset end to end with serial drains vs a
2-worker drain pool).  The parallel traces and worker grid are tunable
(``--parallel-traces 1000000,10000000``, ``--parallel-workers 2,4``)
since the 10M runs dominate refresh time.
"""

from __future__ import annotations

import pathlib
import sys

from repro.cli import main

BASELINE = pathlib.Path(__file__).parent / "BENCH_controller.json"


def _csv_ints(argv: list[str], flag: str, default: tuple[int, ...]) -> tuple[int, ...]:
    if flag in argv:
        raw = argv[argv.index(flag) + 1]
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return default


def cluster_smoke_section(workers: int = 2) -> dict:
    """Wall clock of the ``cluster_smoke`` preset with serial drains
    and with a ``workers``-process drain pool (pool start-up included),
    each the best of two runs, plus whether the two sweeps agree."""
    import os
    import platform
    import time
    from dataclasses import replace

    from repro.experiments import runner
    from repro.experiments.presets import get_preset

    base = get_preset("cluster_smoke")
    runner.build_components(base)
    seconds = {}
    results = {}
    for w in (0, workers):
        config = replace(base, loop=replace(base.loop, dram_workers=w))
        times = []
        for _ in range(2):
            start = time.perf_counter()
            results[w] = runner.run_experiment(config)[0]
            times.append(time.perf_counter() - start)
        seconds[w] = min(times)
    return {
        "benchmark": "cluster-smoke-drain-pool",
        "preset": "cluster_smoke",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "serial_seconds": seconds[0],
        "pool_workers": workers,
        "pool_seconds": seconds[workers],
        "pool_speedup": seconds[0] / seconds[workers],
        "identical": results[0] == results[workers],
    }


def refresh_baseline(argv: list[str]) -> int:
    import json
    import os

    from repro.dram.bench import (
        bench_controller,
        bench_parallel_section,
        format_bench,
        write_bench,
    )

    full = bench_controller(n_requests=1_000_000, reference_requests=1_000_000)
    print(format_bench(full))
    poisson = bench_controller(
        n_requests=1_000_000,
        patterns=("random",),
        include_reference=False,
        arrival="poisson",
        arrival_gap=8.0,
    )
    print(format_bench(poisson))
    smoke = bench_controller(n_requests=20_000, reference_requests=5_000)
    print(format_bench(smoke))
    parallel = bench_parallel_section(
        trace_sizes=_csv_ints(argv, "--parallel-traces", (1_000_000, 10_000_000)),
        workers_grid=_csv_ints(argv, "--parallel-workers", (2, 4)),
    )
    print(json.dumps(parallel, indent=2))
    cluster = cluster_smoke_section()
    print(json.dumps(cluster, indent=2))
    payload = {
        "benchmark": "dram-controller-baseline",
        # Stamped so consumers (check_regression.py) can tell whether
        # the parallel section's speedups were measured on hardware
        # where a process pool could possibly win (a 1-core container
        # cannot beat the serial drain).
        "cpu_count": os.cpu_count() or 1,
        "full": full,
        "open_loop_poisson": poisson,
        "smoke": smoke,
        "parallel": parallel,
        "cluster_smoke": cluster,
    }
    write_bench(payload, str(BASELINE))
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    if "--refresh-baseline" in sys.argv[1:]:
        raise SystemExit(refresh_baseline(sys.argv[1:]))
    raise SystemExit(main(["bench", *sys.argv[1:]]))
