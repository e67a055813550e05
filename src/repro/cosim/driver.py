"""Closed-loop serving <-> DRAM fixed-point driver.

The serving simulator prices a request with a :class:`CostModel`
calibrated at *unloaded* memory; the cycle-level DRAM controller then
shows how much queueing the serving run's bursts actually suffer.
:class:`CosimDriver` closes that loop:

1. run the serving simulation with the current cost model;
2. replay the run as a DRAM arrival stream (expert-faithful regions
   via :class:`~repro.cosim.replay.ExpertReplayPlanner`) and measure
   each serving request's *memory contention*: the cycles by which its
   burst's makespan exceeds what the same burst achieves in isolation
   (so intrinsic self-queueing inside a burst is not double-counted);
3. convert contention into a per-token surcharge on the cost model
   (damped fixed-point update) and repeat until the serving p99
   latency stops moving.

At low offered load bursts never overlap, contention is zero, and the
loop converges immediately to the open-loop result; near saturation
the surcharge spreads service starts until the serving layer's issue
rate matches what the memory system actually sustains -- the
closed-loop hockey stick the open-loop replay could not produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.strategies import Scheme
from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import ControllerStats, MemoryController
from repro.serving.simulator import CostModel, ServingResult, ServingSimulator
from repro.serving.workload import Request

from repro.cosim.replay import ReplayTrace


def small_cosim_dram(n_channels: int = 2) -> DRAMConfig:
    """A deliberately small DRAM config (LPDDR5X timing, few channels
    and rows) whose bandwidth saturates at test- and smoke-sized
    serving loads, so closed-loop effects show up in seconds of
    simulation rather than hours."""
    return DRAMConfig(
        organization=DRAMOrganization(
            n_channels=n_channels,
            n_ranks=1,
            n_bankgroups=2,
            banks_per_group=2,
            n_rows=8192,
            row_bytes=2048,
            access_bytes=64,
        ),
        timing=LPDDR5X_8533.timing,
    )


class SingleDeviceBackend:
    """Default DRAM backend: one memory device behind the cosim loop.

    The driver measures contention by simulating a replay trace on a
    *fresh* :class:`~repro.dram.controller.MemoryController` per
    measurement (controllers carry channel state across ``simulate``
    calls, and each measurement must start cold).  This class owns
    that construction -- DRAM config, scheduler window, and the shared
    per-channel drain pool (a :class:`~repro.dram.parallel.
    DeviceDrainPool`; ``dram_workers`` >= 2) that outlives the
    per-measurement controllers, so the fixed-point loop pays worker
    startup once.

    The backend protocol (duck-typed; :class:`repro.cluster.backend.
    ShardedDramBackend` is the multi-device implementation):

    - ``simulate(addrs, arrive_cycles, flags, request_ids=None)`` ->
      ``(ControllerStats, RequestTimings)`` with per-element timings in
      input order;
    - ``transfer_seconds(trace)`` -> per-request inter-device transfer
      seconds (``{}`` when nothing crosses a device boundary -- the
      single-device case by construction);
    - ``close()`` releases any worker pool.
    """

    def __init__(self, dram_config, window: int = 64, dram_workers: int = 0) -> None:
        from repro.dram.parallel import DeviceDrainPool

        self.config = dram_config
        self.window = window
        self._pool = DeviceDrainPool(dram_workers)
        # (addrs, its decode) of the last read-only addrs array drained
        self._last_decode = None

    def simulate(self, addrs, arrive_cycles, flags, request_ids=None):
        """Simulate one arrival stream on a cold controller; returns
        ``(stats, per-element timings)`` in input order."""
        controller = MemoryController(
            self.config, window=self.window, executor=self._pool.executor()
        )
        return controller.simulate_arrays(
            addrs,
            arrive_cycles,
            flags,
            detail=True,
            decoded=self._decode(controller, addrs),
        )

    def _decode(self, controller: MemoryController, addrs):
        """The address decode of ``addrs``, reused while the same
        read-only array comes back: the driver drains each trace twice
        (fixed point, then isolation) at different arrival cycles but
        the same addresses.  An array that is writeable, or views a
        writeable one, is never memoized: its contents may change
        between drains."""
        if not isinstance(addrs, np.ndarray):
            return None
        base = addrs
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                return None
            base = base.base
        if self._last_decode is None or self._last_decode[0] is not addrs:
            self._last_decode = (addrs, controller.mapper.decode_batch(addrs))
        return self._last_decode[1]

    def transfer_seconds(self, trace) -> dict[int, float]:
        """Per-request inter-device activation-transfer seconds.  One
        device, no boundaries to cross: always empty."""
        return {}

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "SingleDeviceBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass(frozen=True)
class CosimConfig:
    """Fixed-point loop knobs.

    ``damping`` scales each update toward the newly measured per-token
    surcharge (1.0 = undamped) while the loop is still searching for
    an upper bound on the fixed point.  The measured surcharge is
    monotone *decreasing* in the applied surcharge (more surcharge
    spreads bursts apart, so they contend less), so once some
    iteration measures less contention than it applied the fixed
    point is bracketed and the driver switches to bisection -- near
    memory saturation the map is stiff (a small surcharge change
    flips bursts between fully packed and fully spread) and plain
    damped iteration limit-cycles where bisection contracts
    geometrically.  ``damping_decay`` shrinks the damped step each
    iteration (step_k = damping / (1 + k * damping_decay)) as a
    safety net when a noisy measurement breaks the bracket.  The loop
    stops once the relative change in serving p99 between iterations
    falls below ``p99_tolerance`` (or after ``max_iterations``).
    """

    damping: float = 0.6
    damping_decay: float = 0.5
    max_iterations: int = 8
    p99_tolerance: float = 0.02
    queue_limit: int = 4096
    scheduler_window: int = 64
    #: >= 2 fans each DRAM replay's per-channel drains out over one
    #: shared worker pool (repro.dram.parallel) -- bit-identical
    #: stats, so convergence trajectories do not change.
    dram_workers: int = 0
    #: serving model inside the loop: "fifo" (seed behavior, one
    #: scalar surcharge) or "batching" (continuous batching with
    #: distinct prefill/decode surcharges measured from phase bursts)
    engine: str = "fifo"
    #: batching-engine admission knobs (ignored on the fifo path);
    #: see :class:`repro.serving.engine.BatchConfig`
    max_batch: int = 8
    prefill_token_budget: int = 4096
    priority: str = "prefill"
    #: fraction of a decode step's serving cost that scales per
    #: request (the rest is the fixed, batch-amortized weight-stream
    #: share); see :class:`repro.serving.engine.PhaseCostModel`
    decode_marginal_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.damping_decay < 0:
            raise ValueError("damping_decay must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.p99_tolerance < 0:
            raise ValueError("p99_tolerance must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.dram_workers < 0:
            raise ValueError("dram_workers must be non-negative")
        if self.engine not in ("fifo", "batching"):
            raise ValueError(f"engine must be 'fifo' or 'batching', got {self.engine!r}")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.prefill_token_budget < 1:
            raise ValueError("prefill_token_budget must be >= 1")
        if not 0.0 <= self.decode_marginal_fraction <= 1.0:
            raise ValueError("decode_marginal_fraction must be in [0, 1]")

    def step(self, iteration: int) -> float:
        """Update step size for the given iteration index."""
        return self.damping / (1.0 + iteration * self.damping_decay)


class _SurchargeSearch:
    """Scalar fixed-point search on one per-token surcharge.

    The measured surcharge is monotone decreasing in the applied one,
    so the search runs damped iteration until the fixed point is
    bracketed, then bisects; a collapsed bracket (noise) restarts the
    damped phase.  Extracted verbatim from the seed loop -- the fifo
    path's float arithmetic is unchanged -- and instantiated twice
    (prefill, decode) by the batching path.
    """

    def __init__(self, config: "CosimConfig") -> None:
        self.cfg = config
        self.extra = 0.0
        # Bisection bracket on the self-consistency residual
        # measured(extra) - extra: lo under-corrects, hi over-corrects.
        self.lo = 0.0
        self.hi: Optional[float] = None

    def update(self, index: int, measured: float) -> float:
        """Fold in one measurement; returns the next surcharge."""
        extra = self.extra
        if measured > extra:
            self.lo = max(self.lo, extra)
        elif self.hi is None or extra < self.hi:
            self.hi = extra
        if self.hi is None:
            extra += self.cfg.step(index) * (measured - extra)
        elif self.hi > self.lo:
            extra = 0.5 * (self.lo + self.hi)
        else:
            # Noise collapsed the bracket; restart the damped
            # search from the latest measurement.
            self.lo, self.hi = 0.0, None
            extra = measured
        self.extra = extra
        return extra


def _check_conservation(stage: str, stats: ControllerStats, trace: ReplayTrace) -> None:
    """Every replayed request must come out of the drain: a backend
    that drops or duplicates requests would skew the contention
    measured from it without any other symptom."""
    if stats.requests != len(trace):
        raise RuntimeError(
            f"{stage}: drained {stats.requests} DRAM requests but "
            f"replayed {len(trace)}"
        )


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Index of the first element of each contiguous run of ``ids``."""
    return np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1))


@dataclass(frozen=True)
class CosimIteration:
    """One serving + DRAM pass of the loop."""

    index: int
    #: per-token cost surcharge (seconds) the serving pass ran with
    extra_seconds_per_token: float
    #: per-token surcharge the DRAM measurement asks for next
    measured_seconds_per_token: float
    serving_p50: float
    serving_p99: float
    serving_max: float
    serving_mean: float
    utilization: float
    completed: int
    rejected: int
    dram_queue_delay_mean: float
    dram_queue_delay_p99: float
    dram_queue_delay_max: int
    dram_idle_cycles: int
    dram_total_cycles: int
    #: relative p99 change vs the previous iteration (inf for the first)
    p99_delta: float
    # Additive per-phase fields (batching engine; the fifo path leaves
    # them at their defaults, where the scalar fields above are the
    # whole story).
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0
    measured_prefill_seconds_per_token: float = 0.0
    measured_decode_seconds_per_token: float = 0.0
    serving_ttft_p99: float = 0.0
    serving_queue_delay_p99: float = 0.0


@dataclass
class CosimResult:
    """Outcome of one closed-loop run."""

    scheme: Scheme
    iterations: list[CosimIteration] = field(default_factory=list)
    converged: bool = False
    #: iteration 0 -- the open-loop serving result (no feedback)
    open_loop: Optional[ServingResult] = None
    #: final iteration's serving result (feedback applied)
    closed_loop: Optional[ServingResult] = None
    #: final iteration's DRAM trace (exportable via write_trace)
    final_trace: Optional[ReplayTrace] = None
    final_dram_stats: Optional[ControllerStats] = None
    #: converged per-token surcharge (seconds); on the batching path
    #: this is the token-weighted combination of the per-phase values
    extra_seconds_per_token: float = 0.0
    #: self-consistency residual |measured - applied| of the reported
    #: iterate (0 means a true fixed point; meaningful mostly when
    #: ``converged`` is False, where it sizes how far off the best
    #: iterate still was)
    residual_seconds_per_token: float = 0.0
    #: distinct per-phase surcharges (batching engine; zero on fifo)
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


class CosimDriver:
    """Alternates serving runs and DRAM replays to a fixed point."""

    def __init__(
        self,
        cost_model: CostModel,
        scheme: Scheme,
        planner,
        config: Optional[CosimConfig] = None,
        backend=None,
    ) -> None:
        self.cost_model = cost_model
        self.scheme = scheme
        self.planner = planner
        self.config = config or CosimConfig()
        if backend is None:
            backend = SingleDeviceBackend(
                planner.config,
                window=self.config.scheduler_window,
                dram_workers=self.config.dram_workers,
            )
            self._owns_backend = True
        else:
            self._owns_backend = False
        self.backend = backend
        self._iso_cache: dict[int, int] = {}

    def close(self) -> None:
        """Shut down the DRAM backend's worker pool, when the driver
        built the backend itself (injected backends are caller-owned
        and may be shared across drivers)."""
        if self._owns_backend:
            self.backend.close()

    # -- contention measurement -------------------------------------------

    def _transfer_surcharge(
        self, trace: ReplayTrace, contention: np.ndarray, uniq: np.ndarray
    ) -> np.ndarray:
        """Fold the backend's per-request inter-device transfer costs
        (seconds) into per-request contention (cycles).  Empty
        transfer maps -- always, for the single-device backend --
        leave the contention array untouched, byte for byte."""
        xfer = self.backend.transfer_seconds(trace)
        if not xfer:
            return contention
        cycle_time = self.planner.config.timing.cycle_time
        extra = np.array(
            [xfer.get(int(r), 0.0) / cycle_time for r in uniq.tolist()],
            dtype=np.float64,
        )
        return contention + extra

    @staticmethod
    def _burst_makespans(
        ids: np.ndarray, arrive: np.ndarray, complete: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(unique burst ids, burst makespan in cycles per id)."""
        uniq, inverse = np.unique(ids, return_inverse=True)
        makespans = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(makespans, inverse, complete - arrive)
        return uniq, makespans

    def _per_request_makespans(
        self, trace: ReplayTrace, complete: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(unique request ids, burst makespan in cycles per id)."""
        return self._burst_makespans(
            trace.request_ids, trace.arrive_cycles, complete
        )

    def _isolated_makespans(
        self, trace: ReplayTrace, ids: Optional[np.ndarray] = None
    ) -> dict[int, int]:
        """Makespan of each burst when it has the memory system to
        itself: the same addresses, with bursts serialized far enough
        apart that they can never overlap.  The difference between an
        iteration's measured makespan and this baseline is pure
        cross-burst contention.  Bursts are the contiguous runs of
        ``ids`` (the trace's request ids by default; phase-aware
        traces pass their finer-grained ``burst_ids``)."""
        t = self.planner.config.timing
        # Loose per-access upper bound (full row cycle + read latency
        # + data) so consecutive bursts cannot interact; idle-gap
        # jumping makes the stretched timeline free to simulate.
        per_access = t.tRC + t.tCL + t.burst_cycles + 2
        if ids is None:
            ids = trace.request_ids
        run_starts = _run_starts(ids)
        run_lengths = np.diff(np.concatenate((run_starts, [len(ids)])))
        gaps = run_lengths * per_access + 64
        run_arrivals = np.concatenate(([0], np.cumsum(gaps)[:-1]))
        arrive = np.repeat(run_arrivals, run_lengths)
        last = self._drain_isolated(trace, arrive, run_starts)[1]
        makespans = last - run_arrivals
        run_ids = ids[run_starts].tolist()
        return {int(i): int(mk) for i, mk in zip(run_ids, makespans.tolist())}

    def _isolated_element_latencies(self, trace: ReplayTrace) -> np.ndarray:
        """Per-element DRAM latencies when each REQUEST has the memory
        system to itself: requests are serialized far enough apart
        that they can never overlap, but each request's bursts keep
        their real relative arrival offsets.  A request pipelining its
        own decode steps faster than DRAM drains them is therefore
        part of the baseline, and the difference from a measured
        latency is cross-request interference only -- the same
        quantity the fifo path's per-request baseline measures."""
        t = self.planner.config.timing
        per_access = t.tRC + t.tCL + t.burst_cycles + 2
        run_starts = _run_starts(trace.request_ids)
        run_ends = np.concatenate((run_starts[1:], [len(trace)]))
        run_lengths = run_ends - run_starts
        # Offsets from each run's first arrival; each run starts where
        # the previous one's last offset plus a no-overlap gap ends.
        offsets = trace.arrive_cycles - np.repeat(
            trace.arrive_cycles[run_starts], run_lengths
        )
        spans = offsets[run_ends - 1] + run_lengths * per_access + 64
        run_bases = np.concatenate(([0], np.cumsum(spans)[:-1]))
        arrive = np.repeat(run_bases, run_lengths) + offsets
        complete = self._drain_isolated(trace, arrive, run_starts)[0]
        return complete - arrive

    def _drain_isolated(
        self, trace: ReplayTrace, arrive: np.ndarray, run_starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drain ``trace`` with its runs serialized at ``arrive``;
        returns per-element completion cycles and each run's last
        completion.  Checks conservation and the isolation premise:
        a run that is still completing when the next one arrives
        shares the memory system with it, and its baseline would
        carry the very contention it is meant to exclude."""
        stats, timings = self.backend.simulate(
            trace.addrs, arrive, trace.flags, trace.request_ids
        )
        _check_conservation("isolation drain", stats, trace)
        complete = timings.complete_cycles
        last = np.maximum.reduceat(complete, run_starts)
        overlap = np.flatnonzero(last[:-1] >= arrive[run_starts[1:]])
        if overlap.size:
            k = int(overlap[0])
            lo, nxt = int(run_starts[k]), int(run_starts[k + 1])
            raise RuntimeError(
                f"isolation drain: the run of request "
                f"{int(trace.request_ids[lo])} completes at cycle "
                f"{int(last[k])}, not before the next run (request "
                f"{int(trace.request_ids[nxt])}) arrives at cycle "
                f"{int(arrive[nxt])}"
            )
        return complete, last

    def _isolation_baseline(self, trace: ReplayTrace) -> dict[int, int]:
        stable = getattr(self.planner, "stable_addresses", True)
        if not stable:
            return self._isolated_makespans(trace)
        missing = set(np.unique(trace.request_ids).tolist()) - set(self._iso_cache)
        if missing:
            # Calibrate only the uncached bursts (normally all of them
            # on iteration 0, then none -- the cached baselines stay
            # valid because the planner's addresses are
            # arrival-independent).
            mask = np.isin(trace.request_ids, np.fromiter(missing, dtype=np.int64))
            subset = ReplayTrace(
                addrs=trace.addrs[mask],
                arrive_cycles=trace.arrive_cycles[mask],
                flags=trace.flags[mask],
                request_ids=trace.request_ids[mask],
                tokens_by_request=trace.tokens_by_request,
            )
            self._iso_cache.update(self._isolated_makespans(subset))
        return self._iso_cache

    # -- the loop ----------------------------------------------------------

    def _replay(self, serving: ServingResult) -> ReplayTrace:
        """The serving run as a DRAM trace, its address column made
        read-only so the backend may decode it once for both the
        fixed-point drain and the isolation drain."""
        trace = self.planner.replay(serving)
        if isinstance(trace.addrs, np.ndarray):
            trace.addrs.flags.writeable = False
        return trace

    def run(self, requests: list[Request]) -> CosimResult:
        """Run the fixed-point loop over one serving request list."""
        if not requests:
            raise ValueError("cosim needs at least one serving request")
        if self.config.engine == "batching":
            return self._run_batching(requests)
        # Baselines are only reusable across the iterations of one
        # run: a different request list can reuse request_ids with
        # different token counts (and so different bursts).
        self._iso_cache.clear()
        cfg = self.config
        base_enc = self.cost_model.encode_seconds_per_token
        base_dec = self.cost_model.decode_seconds_per_token
        cycle_time = self.planner.config.timing.cycle_time
        result = CosimResult(scheme=self.scheme)
        extra = 0.0
        prev_p99 = None
        search = _SurchargeSearch(cfg)
        # Best iterate so far by |measured - extra|: what the run
        # reports if it exhausts max_iterations without converging
        # (the last iterate of a limit cycle can be the worst one).
        best = None
        best_residual = float("inf")

        for index in range(cfg.max_iterations):
            cost = CostModel(base_enc + extra, base_dec + extra)
            serving = ServingSimulator(
                cost, self.scheme, queue_limit=cfg.queue_limit
            ).run(requests)
            if index == 0:
                result.open_loop = serving
            result.closed_loop = serving

            trace = self._replay(serving)
            if len(trace) == 0:
                result.converged = True
                break
            stats, timings = self.backend.simulate(
                trace.addrs, trace.arrive_cycles, trace.flags, trace.request_ids
            )
            _check_conservation(f"cosim iteration {index}", stats, trace)
            result.final_trace = trace
            result.final_dram_stats = stats

            iso = self._isolation_baseline(trace)
            uniq, makespans = self._per_request_makespans(
                trace, timings.complete_cycles
            )
            iso_arr = np.array([iso[int(r)] for r in uniq.tolist()], dtype=np.int64)
            contention = np.maximum(makespans - iso_arr, 0).astype(np.float64)
            contention = self._transfer_surcharge(trace, contention, uniq)
            tokens = np.array(
                [trace.tokens_by_request[int(r)] for r in uniq.tolist()],
                dtype=np.float64,
            )
            measured = float(contention.sum() * cycle_time / tokens.sum())
            residual = abs(measured - extra)
            result.residual_seconds_per_token = residual
            if residual < best_residual:
                best_residual = residual
                best = (serving, trace, stats, extra)

            p99 = serving.latency_percentile(99)
            delta = (
                float("inf")
                if prev_p99 is None
                else abs(p99 - prev_p99) / max(prev_p99, 1e-12)
            )
            result.iterations.append(
                CosimIteration(
                    index=index,
                    extra_seconds_per_token=extra,
                    measured_seconds_per_token=measured,
                    serving_p50=serving.latency_percentile(50),
                    serving_p99=p99,
                    serving_max=serving.latency_percentile(100),
                    serving_mean=serving.mean_latency,
                    utilization=serving.utilization,
                    completed=serving.n_completed,
                    rejected=serving.rejected,
                    dram_queue_delay_mean=stats.queue_delay_mean,
                    dram_queue_delay_p99=stats.queue_delay_p99,
                    dram_queue_delay_max=stats.queue_delay_max,
                    dram_idle_cycles=sum(stats.idle_channel_cycles.values()),
                    dram_total_cycles=stats.total_cycles,
                    p99_delta=delta,
                )
            )
            result.extra_seconds_per_token = extra
            if prev_p99 is not None and delta <= cfg.p99_tolerance:
                result.converged = True
                break
            prev_p99 = p99
            extra = search.update(index, measured)
        if not result.converged and best is not None:
            # Ran out of iterations: report the iterate with the
            # smallest self-consistency residual, not whichever one a
            # limit cycle happened to end on.
            serving_b, trace_b, stats_b, extra_b = best
            result.closed_loop = serving_b
            result.final_trace = trace_b
            result.final_dram_stats = stats_b
            result.extra_seconds_per_token = extra_b
            result.residual_seconds_per_token = best_residual
        return result

    # -- the batching loop -------------------------------------------------

    def _run_batching(self, requests: list[Request]) -> CosimResult:
        """Fixed-point loop over the continuous-batching engine with
        distinct prefill/decode surcharges.

        Contention is measured against an isolation baseline that
        serializes requests but preserves each request's intra-step
        arrival offsets; each request's extra wait is charged once
        (the fifo estimator) and split between the phases by the
        phase's share of the request's emitted traffic, and each
        phase runs its own scalar surcharge search.  Isolation
        baselines are recalibrated every iteration: decode-burst
        traffic and arrival offsets depend on the step batch
        composition, which shifts as the surcharges reshape the
        serving timeline, so the fifo path's per-request baseline
        cache does not apply.
        """
        from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel

        cfg = self.config
        base = PhaseCostModel.from_cost_model(
            self.cost_model,
            decode_marginal_fraction=cfg.decode_marginal_fraction,
        )
        batch_config = BatchConfig(
            max_batch=cfg.max_batch,
            prefill_token_budget=cfg.prefill_token_budget,
            priority=cfg.priority,
            queue_limit=cfg.queue_limit,
        )
        cycle_time = self.planner.config.timing.cycle_time
        result = CosimResult(scheme=self.scheme)
        extra_p = extra_d = 0.0
        prev_p99 = None
        search_p = _SurchargeSearch(cfg)
        search_d = _SurchargeSearch(cfg)
        best = None
        best_residual = float("inf")

        for index in range(cfg.max_iterations):
            serving = BatchingEngine(
                base,
                self.scheme,
                batch_config,
                extra_prefill_seconds_per_token=extra_p,
                extra_decode_seconds_per_token=extra_d,
            ).run(requests)
            if index == 0:
                result.open_loop = serving
            result.closed_loop = serving

            trace = self._replay(serving)
            if len(trace) == 0:
                result.converged = True
                break
            stats, timings = self.backend.simulate(
                trace.addrs, trace.arrive_cycles, trace.flags, trace.request_ids
            )
            _check_conservation(f"cosim iteration {index}", stats, trace)
            result.final_trace = trace
            result.final_dram_stats = stats

            prompt_tokens = float(
                sum(c.request.prompt_tokens for c in serving.completed)
            )
            decode_tokens = float(
                sum(c.request.decode_tokens for c in serving.completed)
            )
            if trace.phases is not None:
                # The fifo estimator, phase-attributed: each request's
                # extra DRAM wait (worst element latency vs the
                # isolated baseline) is charged exactly once -- one
                # congestion episode delays a request once, however
                # many of its step-bursts overlap it -- and split
                # between the phases by each phase's share of the
                # request's *emitted* traffic.  Batch-amortized decode
                # bursts carry 1/batch of the weight stream, so at
                # high batch the split automatically shifts the charge
                # toward prefill, whose traffic is not amortizable.
                lat = timings.complete_cycles - trace.arrive_cycles
                lat_iso = self._isolated_element_latencies(trace)
                uniq, inverse = np.unique(trace.request_ids, return_inverse=True)
                measured_max = np.zeros(len(uniq), dtype=np.int64)
                np.maximum.at(measured_max, inverse, lat)
                iso_max = np.zeros(len(uniq), dtype=np.int64)
                np.maximum.at(iso_max, inverse, lat_iso)
                waits = np.maximum(measured_max - iso_max, 0).astype(np.float64)
                waits = self._transfer_surcharge(trace, waits, uniq)
                pre_counts = np.bincount(
                    inverse, weights=(trace.phases == 0), minlength=len(uniq)
                )
                tot_counts = np.bincount(inverse, minlength=len(uniq))
                pre_share = pre_counts / np.maximum(tot_counts, 1)
                prefill_cycles = float((waits * pre_share).sum())
                decode_cycles = float(waits.sum()) - prefill_cycles
            else:
                # Planner without phase bursts (synthetic replay): the
                # fifo per-request estimator, with the lump contention
                # split by token share.
                uniq, makespans = self._per_request_makespans(
                    trace, timings.complete_cycles
                )
                iso = self._isolated_makespans(trace)
                iso_arr = np.array(
                    [iso[int(b)] for b in uniq.tolist()], dtype=np.int64
                )
                contention = np.maximum(makespans - iso_arr, 0).astype(np.float64)
                contention = self._transfer_surcharge(trace, contention, uniq)
                total = float(contention.sum())
                total_tokens = max(prompt_tokens + decode_tokens, 1.0)
                prefill_cycles = total * prompt_tokens / total_tokens
                decode_cycles = total - prefill_cycles
            measured_p = (
                prefill_cycles * cycle_time / prompt_tokens if prompt_tokens else 0.0
            )
            measured_d = (
                decode_cycles * cycle_time / decode_tokens if decode_tokens else 0.0
            )
            total_tokens = max(prompt_tokens + decode_tokens, 1.0)
            measured = (prefill_cycles + decode_cycles) * cycle_time / total_tokens
            extra_scalar = (
                extra_p * prompt_tokens + extra_d * decode_tokens
            ) / total_tokens
            residual = abs(measured_p - extra_p) + abs(measured_d - extra_d)
            result.residual_seconds_per_token = residual
            if residual < best_residual:
                best_residual = residual
                best = (serving, trace, stats, extra_scalar, extra_p, extra_d)

            p99 = serving.latency_percentile(99)
            delta = (
                float("inf")
                if prev_p99 is None
                else abs(p99 - prev_p99) / max(prev_p99, 1e-12)
            )
            result.iterations.append(
                CosimIteration(
                    index=index,
                    extra_seconds_per_token=extra_scalar,
                    measured_seconds_per_token=measured,
                    serving_p50=serving.latency_percentile(50),
                    serving_p99=p99,
                    serving_max=serving.latency_percentile(100),
                    serving_mean=serving.mean_latency,
                    utilization=serving.utilization,
                    completed=serving.n_completed,
                    rejected=serving.rejected,
                    dram_queue_delay_mean=stats.queue_delay_mean,
                    dram_queue_delay_p99=stats.queue_delay_p99,
                    dram_queue_delay_max=stats.queue_delay_max,
                    dram_idle_cycles=sum(stats.idle_channel_cycles.values()),
                    dram_total_cycles=stats.total_cycles,
                    p99_delta=delta,
                    extra_prefill_seconds_per_token=extra_p,
                    extra_decode_seconds_per_token=extra_d,
                    measured_prefill_seconds_per_token=measured_p,
                    measured_decode_seconds_per_token=measured_d,
                    serving_ttft_p99=serving.ttft_percentile(99),
                    serving_queue_delay_p99=serving.queue_delay_percentile(99),
                )
            )
            result.extra_seconds_per_token = extra_scalar
            result.extra_prefill_seconds_per_token = extra_p
            result.extra_decode_seconds_per_token = extra_d
            if prev_p99 is not None and delta <= cfg.p99_tolerance:
                result.converged = True
                break
            prev_p99 = p99
            extra_p = search_p.update(index, measured_p)
            extra_d = search_d.update(index, measured_d)
        if not result.converged and best is not None:
            serving_b, trace_b, stats_b, scalar_b, extra_p_b, extra_d_b = best
            result.closed_loop = serving_b
            result.final_trace = trace_b
            result.final_dram_stats = stats_b
            result.extra_seconds_per_token = scalar_b
            result.extra_prefill_seconds_per_token = extra_p_b
            result.extra_decode_seconds_per_token = extra_d_b
            result.residual_seconds_per_token = best_residual
        return result
