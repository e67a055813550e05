"""Discrete-event serving simulator.

One inference server processes requests FIFO (no preemption): each
request costs an encoder pass over its prompt plus an auto-regressive
decode of its generated tokens, with per-token costs supplied by a
:class:`CostModel` built from the scheme runtimes.  Queueing dynamics
come from :class:`~repro.serving.engine.BatchingEngine` at
``max_batch=1``, which replays the event order of the seed
:class:`~repro.sim.engine.SimEngine` loop kept in
:mod:`repro.serving.reference` without an event heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.engine import Platform
from repro.core.runtime import InferenceConfig, MoNDERuntime
from repro.core.strategies import Scheme
from repro.moe.config import MoEModelConfig
from repro.serving.workload import Request
from repro.workloads.traces import RoutingProfile


@dataclass(frozen=True)
class CostModel:
    """Per-request service time: encode + decode, scaled by length.

    Calibrated once per (model, scheme) from the runtime at a
    reference geometry, then scaled linearly in prompt/decode length
    -- adequate for queueing studies where relative scheme costs and
    load response matter, not per-token microstructure.
    """

    encode_seconds_per_token: float
    decode_seconds_per_token: float

    def service_time(self, request: Request) -> float:
        return (
            self.encode_seconds_per_token * request.prompt_tokens
            + self.decode_seconds_per_token * request.decode_tokens
        )

    @classmethod
    def from_runtime(
        cls,
        model: MoEModelConfig,
        scheme: Scheme,
        platform: Optional[Platform] = None,
        profile: Optional[RoutingProfile] = None,
        ref_batch: int = 1,
        ref_decode_steps: int = 8,
    ) -> "CostModel":
        config = InferenceConfig(
            model=model,
            batch=ref_batch,
            decode_steps=ref_decode_steps,
            profile=profile,
        )
        runtime = MoNDERuntime(config, platform=platform)
        enc = runtime.encoder_result(scheme)
        dec = runtime.decoder_result(scheme)
        return cls(
            encode_seconds_per_token=enc.seconds / enc.n_tokens,
            decode_seconds_per_token=dec.seconds / dec.n_tokens,
        )

    @classmethod
    def from_dram_calibrated(
        cls,
        model: MoEModelConfig,
        scheme: Scheme,
        dram_config=None,
        profile: Optional[RoutingProfile] = None,
        ref_batch: int = 1,
        ref_decode_steps: int = 8,
    ) -> "CostModel":
        """Cost model whose MoNDE-side bandwidth comes from the
        cycle-level DRAM controller (streamed once per config, cached)
        rather than the spec constant -- the end-to-end path for
        large serving studies riding on the memory simulator."""
        from repro.dram.config import LPDDR5X_8533

        platform = Platform(
            dram_config=dram_config if dram_config is not None else LPDDR5X_8533
        )
        return cls.from_runtime(
            model,
            scheme,
            platform=platform,
            profile=profile,
            ref_batch=ref_batch,
            ref_decode_steps=ref_decode_steps,
        )


@dataclass
class CompletedRequest:
    """Bookkeeping for one finished request.

    ``first_token`` is when the request's prefill produced its first
    output token (``None`` for records built by code predating the
    phase-aware engine, where TTFT falls back to end-to-end latency).
    ``decode_step_starts``/``decode_step_batches`` record, for each
    engine step in which this request decoded, the time the step's
    decode stream begins (after the step's admitted prefills) and the
    decode batch size -- what the co-simulation replay uses to emit
    per-step decode bursts with batch-amortized weight traffic.
    ``prefill_start`` is when this request's prefill actually begins
    within its admission step (prefills run sequentially, so later
    admits start later); ``None`` means "same as ``start``".
    """

    request: Request
    start: float
    finish: float
    first_token: Optional[float] = None
    prefill_start: Optional[float] = None
    decode_step_starts: list = field(default_factory=list)
    decode_step_batches: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival

    @property
    def queue_delay(self) -> float:
        return self.start - self.request.arrival

    @property
    def ttft(self) -> float:
        """Time to first token (arrival -> end of prefill)."""
        anchor = self.finish if self.first_token is None else self.first_token
        return anchor - self.request.arrival

    @property
    def tpot(self) -> float:
        """Mean time per output token across the decode phase (0 for
        prefill-only requests)."""
        if self.request.decode_tokens == 0 or self.first_token is None:
            return 0.0
        return (self.finish - self.first_token) / self.request.decode_tokens


@dataclass
class ServingResult:
    """Aggregate serving metrics for one simulation."""

    scheme: Scheme
    completed: list[CompletedRequest] = field(default_factory=list)
    rejected: int = 0
    horizon: float = 0.0
    busy_seconds: float = 0.0
    #: which serving model produced this result: "fifo" (one request
    #: per step, the seed behavior) or "batching" (stepped continuous
    #: batching with per-step decode records)
    engine: str = "fifo"
    #: inference steps executed (0 on the fifo path)
    n_steps: int = 0

    @property
    def n_completed(self) -> int:
        return len(self.completed)

    @property
    def throughput_rps(self) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.n_completed / self.horizon

    @property
    def utilization(self) -> float:
        if self.horizon <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / self.horizon)

    def latency_percentile(self, q: float) -> float:
        if not self.completed:
            return 0.0
        return float(np.percentile([c.latency for c in self.completed], q))

    @property
    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return float(np.mean([c.latency for c in self.completed]))

    # -- per-phase views --------------------------------------------------

    def ttft_percentile(self, q: float) -> float:
        """Time-to-first-token percentile (the prefill phase's tail)."""
        if not self.completed:
            return 0.0
        return float(np.percentile([c.ttft for c in self.completed], q))

    def queue_delay_percentile(self, q: float) -> float:
        """Admission-delay percentile (arrival -> first scheduled)."""
        if not self.completed:
            return 0.0
        return float(np.percentile([c.queue_delay for c in self.completed], q))

    def tpot_percentile(self, q: float) -> float:
        """Per-output-token decode latency percentile, over requests
        that decoded at least one token."""
        samples = [c.tpot for c in self.completed if c.request.decode_tokens > 0]
        if not samples:
            return 0.0
        return float(np.percentile(samples, q))

    @property
    def mean_ttft(self) -> float:
        if not self.completed:
            return 0.0
        return float(np.mean([c.ttft for c in self.completed]))


class ServingSimulator:
    """FIFO single-server queue over a scheme's cost model.

    Since the continuous-batching refactor this is a thin
    ``max_batch=1`` configuration of
    :class:`~repro.serving.engine.BatchingEngine`, pinned bit-identical
    (same completions, starts, finishes, horizon, busy seconds,
    rejects) to the seed FIFO loop preserved in
    :class:`~repro.serving.reference.ReferenceFIFOSimulator` by the
    equivalence suite.
    """

    def __init__(self, cost_model: CostModel, scheme: Scheme, queue_limit: int = 512) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.cost_model = cost_model
        self.scheme = scheme
        self.queue_limit = queue_limit

    def run(self, requests: list[Request]) -> ServingResult:
        """Simulate the full request list; returns aggregate metrics."""
        from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel

        engine = BatchingEngine(
            PhaseCostModel.from_cost_model(self.cost_model),
            self.scheme,
            BatchConfig(max_batch=1, queue_limit=self.queue_limit),
        )
        return engine.run(requests)


def dram_replay_trace_arrays(
    result: ServingResult,
    dram_config=None,
    bytes_per_token: int = 2048,
    max_blocks_per_request: int = 4096,
    region_bytes: int = 1 << 22,
    n_regions: int = 128,
    seed: int = 0,
    return_request_ids: bool = False,
):
    """Replay a serving run as native DRAM trace columns.

    Each completed serving request becomes a burst of sequential
    64-byte weight-fetch reads -- ``bytes_per_token`` per prompt and
    decode token, capped at ``max_blocks_per_request`` blocks -- whose
    ``arrive_cycle`` is the request's *service-start* time converted
    to controller cycles.  Bursts stream from one of ``n_regions``
    contiguous expert-weight regions (seeded pick, resuming where that
    region's previous burst left off), so the DRAM-level trace
    inherits both the serving layer's burstiness and the MoE access
    shape.

    Returns ``(addrs, arrive_cycles, flags)`` columns (all reads, so
    ``flags`` is zero) ready for
    :meth:`repro.dram.controller.MemoryController.simulate_arrays` or
    a ``.dramtrace`` export -- the ROADMAP's serving-to-DRAM entry
    point, array-native so the co-simulation loop never round-trips
    through Request objects.  With ``return_request_ids=True`` a
    fourth ``request_ids`` column maps every DRAM request back to the
    serving ``request_id`` whose burst emitted it (what
    :mod:`repro.cosim` uses to attribute measured queueing delay to
    individual serving requests).

    For expert-faithful replay driven by actual routing decisions, see
    :class:`repro.cosim.ExpertReplayPlanner`, which replaces this
    function's seeded synthetic region pick with the weight regions of
    the experts each request activated.
    """
    from repro.dram.config import LPDDR5X_8533

    if (
        bytes_per_token < 1
        or max_blocks_per_request < 1
        or region_bytes < 1
        or n_regions < 1
    ):
        raise ValueError(
            "bytes_per_token, max_blocks_per_request, region_bytes, "
            "n_regions must be >= 1"
        )
    config = dram_config if dram_config is not None else LPDDR5X_8533
    org = config.organization
    step = org.access_bytes
    region_blocks = max(
        1, min(region_bytes, org.total_capacity_bytes // n_regions) // step
    )
    clock_hz = config.timing.clock_hz

    rng = np.random.default_rng(seed)
    resume: dict[int, int] = {}
    addr_chunks: list[np.ndarray] = []
    arrive_chunks: list[np.ndarray] = []
    id_chunks: list[np.ndarray] = []
    for completed in sorted(result.completed, key=lambda c: c.start):
        start_cycle = int(round(completed.start * clock_hz))
        tokens = completed.request.prompt_tokens + completed.request.decode_tokens
        n_blocks = min(max_blocks_per_request, -(-(tokens * bytes_per_token) // step))
        region = int(rng.integers(n_regions))
        offset = resume.get(region, 0)
        base_block = region * region_blocks
        offs = (offset + np.arange(n_blocks, dtype=np.int64)) % region_blocks
        blocks = base_block + offs
        addr_chunks.append(blocks * step)
        arrive_chunks.append(np.full(n_blocks, start_cycle, dtype=np.int64))
        id_chunks.append(
            np.full(n_blocks, completed.request.request_id, dtype=np.int64)
        )
        resume[region] = (offset + n_blocks) % region_blocks
    if addr_chunks:
        addrs = np.concatenate(addr_chunks)
        arrive = np.concatenate(arrive_chunks)
        request_ids = np.concatenate(id_chunks)
    else:
        addrs = np.zeros(0, dtype=np.int64)
        arrive = np.zeros(0, dtype=np.int64)
        request_ids = np.zeros(0, dtype=np.int64)
    flags = np.zeros(len(addrs), dtype=np.uint8)
    if return_request_ids:
        return addrs, arrive, flags, request_ids
    return addrs, arrive, flags


def dram_replay_trace(
    result: ServingResult,
    dram_config=None,
    bytes_per_token: int = 2048,
    max_blocks_per_request: int = 4096,
    region_bytes: int = 1 << 22,
    n_regions: int = 128,
    seed: int = 0,
):
    """Request-object form of :func:`dram_replay_trace_arrays` (thin
    adapter; the array form is the source of truth and both are
    bit-identical trace-for-trace).  Feed the result to
    :meth:`repro.dram.controller.MemoryController.simulate` for
    tail-latency studies of queueing *inside* the memory system."""
    from repro.dram.request import requests_from_arrays

    addrs, arrive, flags = dram_replay_trace_arrays(
        result,
        dram_config=dram_config,
        bytes_per_token=bytes_per_token,
        max_blocks_per_request=max_blocks_per_request,
        region_bytes=region_bytes,
        n_regions=n_regions,
        seed=seed,
    )
    return requests_from_arrays(addrs, arrive, flags)
