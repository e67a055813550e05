"""The layers the traced run attributes time to, and their metrics.

:func:`install` wraps each layer's entry points on a
:class:`~spans.Tracer`; :func:`layer_metrics` folds the recorded spans
into the per-layer metrics ``BENCHMARK.json`` lists, and
:func:`op_counts` into the per-operation counts the determinism check
compares.  README.md maps every metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import numpy as np

DRAINS = frozenset({"SingleDeviceBackend.simulate", "ShardedDramBackend.simulate"})
ISOLATION = frozenset(
    {"CosimDriver._isolated_makespans", "CosimDriver._isolated_element_latencies"}
)
SERVING = frozenset({"ServingSimulator.run", "BatchingEngine.run"})
SWEEPS = frozenset({"run_load_sweep", "run_cluster_sweep"})
REPLAY = "replay"


#: Per-layer metric -> (unit, which direction is better).  The
#: per_layer list in BENCHMARK.json mirrors this table.  Layer times
#: are shares of the traced job's wall clock (``_pct``): a share does
#: not depend on the host's speed, and a layer a workload never
#: reaches reads 0%.
METRICS = {
    "experiments.build_pct": ("%", "lower"),
    "cosim.iterations": ("count", "lower"),
    "cosim.unconverged_points": ("count", "lower"),
    "cosim.driver_self_pct": ("%", "lower"),
    "cosim.sweep_self_pct": ("%", "lower"),
    "cosim.isolation_pct": ("%", "lower"),
    "cosim.isolation_calls": ("count", "lower"),
    "cosim.isolation_requests": ("count", "lower"),
    "cosim.isolation_share": ("ratio", "lower"),
    "dram.drain_calls": ("count", "lower"),
    "dram.drain_pct": ("%", "lower"),
    "dram.requests": ("count", "lower"),
    "dram.requests_per_s": ("1/s", "higher"),
    "dram.row_hit_rate": ("ratio", "higher"),
    "dram.queue_delay_p99_cycles": ("cycles", "lower"),
    "dram.pool_calls": ("count", "lower"),
    "dram.pool_drain_pct": ("%", "lower"),
    "dram.pool_retries": ("count", "lower"),
    "dram.pool_fallbacks": ("count", "lower"),
    "serving.calls": ("count", "lower"),
    "serving.pct": ("%", "lower"),
    "replay.calls": ("count", "lower"),
    "replay.pct": ("%", "lower"),
    "replay.requests_emitted": ("count", "lower"),
    "cluster.balance_pct": ("%", "lower"),
    "cluster.transfer_pct": ("%", "lower"),
    "cluster.device_drains": ("count", "lower"),
    "core.result_calls": ("count", "lower"),
    "core.result_self_pct": ("%", "lower"),
    "core.alpha_observe_calls": ("count", "lower"),
    "core.alpha_observe_pct": ("%", "lower"),
    "core.expert_cache_hit_rate": ("ratio", "higher"),
    "ndp.gemm_calls": ("count", "lower"),
    "ndp.gemm_pct": ("%", "lower"),
    "ndp.gemm_distinct": ("count", "lower"),
    "ndp.gemm_distinct_ratio": ("ratio", "higher"),
    "paper_err_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}


def _drain_note(args, result):
    stats, timings = result
    return {
        "requests": len(args[1]),
        "row_hits": stats.row_hits,
        "row_accesses": stats.row_hits + stats.row_misses + stats.row_conflicts,
        "queue_delays": timings.queue_delays,
    }


def _gemm_note(args, result):
    engine, m, n, k = args[:4]
    # The engine object itself (not its id) keeps ids from being
    # reused by a later engine while the traced run lasts.
    return (engine, int(m), int(n), int(k))


def install(tracer) -> None:
    """Wrap every traced entry point (see README.md for the list)."""
    from repro.cluster import sweep as cluster_sweep
    from repro.cluster.backend import ShardedDramBackend
    from repro.core.load_balancer import AlphaAutoTuner
    from repro.core.runtime import MoNDERuntime
    from repro.cosim import sweep as cosim_sweep
    from repro.cosim.driver import CosimDriver, SingleDeviceBackend
    from repro.cosim.replay import ExpertReplayPlanner, SyntheticReplayPlanner
    from repro.dram.controller import MemoryController
    from repro.dram.parallel import ParallelDrainExecutor
    from repro.dram.resilience import ResilienceReport
    from repro.experiments import runner
    from repro.ndp.engine import NDPGemmEngine
    from repro.serving.engine import BatchingEngine
    from repro.serving.simulator import ServingSimulator
    from workloads import point_id

    # Module-level names are wrapped where they are looked up: the
    # runner and the cluster sweep import them by name.
    tracer.span(runner, "run_experiment", "run_experiment")
    tracer.span(runner, "build_components", "build_components")
    tracer.span(runner, "run_load_sweep", "run_load_sweep")
    tracer.span(runner, "run_cluster_sweep", "run_cluster_sweep")
    tracer.span(CosimDriver, "run", "CosimDriver.run")
    for attr in ("_isolated_makespans", "_isolated_element_latencies"):
        tracer.span(CosimDriver, attr, f"CosimDriver.{attr}")
    tracer.span(SingleDeviceBackend, "simulate", "SingleDeviceBackend.simulate", _drain_note)
    tracer.span(ShardedDramBackend, "simulate", "ShardedDramBackend.simulate", _drain_note)
    tracer.span(ParallelDrainExecutor, "drain", "ParallelDrainExecutor.drain")
    tracer.span(cluster_sweep, "assign_replicas", "assign_replicas")
    tracer.span(ShardedDramBackend, "transfer_seconds", "ShardedDramBackend.transfer_seconds")
    for planner in (ExpertReplayPlanner, SyntheticReplayPlanner):
        tracer.span(planner, "replay", REPLAY, lambda args, trace: len(trace))
    tracer.span(ServingSimulator, "run", "ServingSimulator.run")
    tracer.span(BatchingEngine, "run", "BatchingEngine.run")
    tracer.span(MoNDERuntime, "result", "MoNDERuntime.result", lambda args, res: res)
    tracer.span(AlphaAutoTuner, "observe", "AlphaAutoTuner.observe")
    tracer.span(NDPGemmEngine, "gemm_execution", "NDPGemmEngine.gemm_execution", _gemm_note)

    tracer.count(
        MemoryController,
        "simulate_arrays",
        lambda args, parent: "device_drains"
        if parent == "ShardedDramBackend.simulate"
        else None,
    )
    tracer.count(ResilienceReport, "record", lambda args, parent: f"resilience.{args[1]}")

    tracer.mark_ops(
        cosim_sweep, "_run_rate_point", lambda args: point_id(args[4])
    )
    tracer.mark_ops(
        cluster_sweep,
        "_run_cluster_point",
        lambda args: point_id(args[7], args[5], args[6]),
    )


def _spans_named(tracer, names) -> list[int]:
    return [i for i, s in enumerate(tracer.spans) if s[0] in names]


def layer_metrics(
    tracer, raw_traced: float, wall_traced: float, wall_untraced: float, summary: dict
) -> dict:
    """Per-layer metric values of one traced repetition.

    ``raw_traced`` is the traced job's wall clock, the span times'
    clock; ``wall_traced`` and ``wall_untraced`` are the host-speed-
    adjusted times (see ``hostspeed.py``) of the traced and the
    untraced repetition, which the overhead and the drain throughput
    use.  ``summary`` carries the values the workload reads off its
    own results: ``iterations``, ``unconverged_points`` and
    ``paper_err_pct``.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    own = tracer.self_times()
    in_iso = tracer.inside(ISOLATION)
    in_serving = tracer.inside(SERVING)

    def share(idx, values=dur):
        return 100.0 * float(sum(values[i] for i in idx)) / raw_traced

    drains = _spans_named(tracer, DRAINS)
    fixed = [i for i in drains if not in_iso[i]]
    iso = [i for i in drains if in_iso[i]]
    fixed_requests = sum(spans[i][5]["requests"] for i in fixed)
    iso_requests = sum(spans[i][5]["requests"] for i in iso)
    row_accesses = sum(spans[i][5]["row_accesses"] for i in fixed)
    delays = [spans[i][5]["queue_delays"] for i in fixed]
    drain_s = sum(dur[i] for i in drains) * wall_traced / raw_traced

    serving = [i for i in _spans_named(tracer, SERVING) if not in_serving[i]]
    replays = _spans_named(tracer, {REPLAY})
    gemms = _spans_named(tracer, {"NDPGemmEngine.gemm_execution"})
    distinct = {(id(e), m, n, k) for e, m, n, k in (spans[i][5] for i in gemms)}
    results = _spans_named(tracer, {"MoNDERuntime.result"})
    # result() hands back cached SchemeResults on repeat calls; count
    # each simulated layer once.
    simulated = {
        id(layer): layer
        for i in results
        for layer in spans[i][5].layer_results
    }.values()
    cache_hits = sum(layer.cache_hits for layer in simulated)
    cache_lookups = cache_hits + sum(layer.cache_misses for layer in simulated)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]

    return {
        "experiments.build_pct": share(_spans_named(tracer, {"build_components"})),
        "cosim.iterations": summary["iterations"],
        "cosim.unconverged_points": summary["unconverged_points"],
        "cosim.driver_self_pct": share(_spans_named(tracer, {"CosimDriver.run"}), own),
        "cosim.sweep_self_pct": share(_spans_named(tracer, SWEEPS), own),
        "cosim.isolation_pct": share(_spans_named(tracer, ISOLATION)),
        "cosim.isolation_calls": len(iso),
        "cosim.isolation_requests": iso_requests,
        "cosim.isolation_share": (
            iso_requests / (iso_requests + fixed_requests)
            if iso_requests + fixed_requests
            else 0.0
        ),
        "dram.drain_calls": len(fixed),
        "dram.drain_pct": share(fixed),
        "dram.requests": fixed_requests,
        "dram.requests_per_s": (
            (fixed_requests + iso_requests) / drain_s if drain_s > 0 else 0.0
        ),
        "dram.row_hit_rate": (
            sum(spans[i][5]["row_hits"] for i in fixed) / row_accesses
            if row_accesses
            else 0.0
        ),
        "dram.queue_delay_p99_cycles": (
            float(np.percentile(np.concatenate(delays), 99)) if delays else 0.0
        ),
        "dram.pool_calls": len(_spans_named(tracer, {"ParallelDrainExecutor.drain"})),
        "dram.pool_drain_pct": share(_spans_named(tracer, {"ParallelDrainExecutor.drain"})),
        "dram.pool_retries": tracer.counters["resilience.task_retry"],
        "dram.pool_fallbacks": tracer.counters["resilience.serial_fallback"],
        "serving.calls": len(serving),
        "serving.pct": share(serving),
        "replay.calls": len(replays),
        "replay.pct": share(replays),
        "replay.requests_emitted": sum(spans[i][5] for i in replays),
        "cluster.balance_pct": share(_spans_named(tracer, {"assign_replicas"})),
        "cluster.transfer_pct": share(
            _spans_named(tracer, {"ShardedDramBackend.transfer_seconds"})
        ),
        "cluster.device_drains": tracer.counters["device_drains"],
        "core.result_calls": len(results),
        "core.result_self_pct": share(results, own),
        "core.alpha_observe_calls": len(_spans_named(tracer, {"AlphaAutoTuner.observe"})),
        "core.alpha_observe_pct": share(_spans_named(tracer, {"AlphaAutoTuner.observe"})),
        "core.expert_cache_hit_rate": (
            cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "ndp.gemm_calls": len(gemms),
        "ndp.gemm_pct": share(gemms),
        "ndp.gemm_distinct": len(distinct),
        "ndp.gemm_distinct_ratio": len(distinct) / len(gemms) if gemms else 0.0,
        "paper_err_pct": summary["paper_err_pct"],
        "trace.overhead_pct": 100.0 * (wall_traced / wall_untraced - 1.0),
        "trace.unattributed_pct": 100.0 - share(roots),
    }


def self_time_by_name(tracer) -> dict[str, float]:
    """Total self time per span name, largest first."""
    out: dict[str, float] = {}
    for s, t in zip(tracer.spans, tracer.self_times()):
        out[s[0]] = out.get(s[0], 0.0) + t
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def op_counts(tracer) -> dict[str, dict]:
    """Per-operation counts that must repeat exactly between runs of
    one commit and seed: drained and isolation requests, their row
    hits and summed queue delay, GEMM calls and distinct shapes."""
    in_iso = tracer.inside(ISOLATION)
    out: dict[str, dict] = {}
    shapes: dict[str, set] = {}
    for i, (name, _, _, _, op, note) in enumerate(tracer.spans):
        counts = out.setdefault(
            op,
            {
                "dram.requests": 0,
                "cosim.isolation_requests": 0,
                "dram.row_hits": 0,
                "dram.queue_delay_sum": 0,
                "ndp.gemm_calls": 0,
                "ndp.gemm_distinct": 0,
            },
        )
        if name in DRAINS:
            key = "cosim.isolation_requests" if in_iso[i] else "dram.requests"
            counts[key] += note["requests"]
            if not in_iso[i]:
                counts["dram.row_hits"] += note["row_hits"]
                counts["dram.queue_delay_sum"] += int(note["queue_delays"].sum())
        elif name == "NDPGemmEngine.gemm_execution":
            counts["ndp.gemm_calls"] += 1
            engine, m, n, k = note
            shapes.setdefault(op, set()).add((id(engine), m, n, k))
    for op, seen in shapes.items():
        out[op]["ndp.gemm_distinct"] = len(seen)
    return out
