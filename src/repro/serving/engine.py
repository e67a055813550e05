"""Phase-aware continuous-batching serving engine.

The seed serving model priced a whole request with one scalar
``service_time`` and ran it through a FIFO single-server queue.  Real
MoE serving is phase-structured -- the encoder (prefill) pass is
compute-shaped and batches over prompt tokens, while each
auto-regressive decode step is bandwidth-shaped and batches over
in-flight requests (the asymmetry at the core of the paper).  This
module models that directly:

- :class:`PhaseCostModel` prices prefill and decode separately, with a
  ``decode_marginal_fraction`` splitting each decode step into a fixed
  bandwidth-bound part (expert weights stream once per step,
  amortized over the batch) and a marginal per-request part.
- :class:`RuntimePhaseCostModel` calibrates those prices from
  :class:`~repro.core.runtime.MoNDERuntime` encoder/decoder results at
  the batch geometry each step actually composes (quantized to powers
  of two so calibration stays cheap), not a fixed reference geometry.
- :class:`BatchingEngine` runs discrete inference *steps*: each step
  admits new prefills from the waiting queue (token-budget and
  batch-size bounded, prefill- or decode-priority) alongside one
  decode token for every in-flight request, charges the step from the
  cost model, and records per-request TTFT, queue delay, per-step
  decode batches, and end-to-end latency.  Time advances by a two-way
  merge of the arrival-sorted requests and the one pending step end,
  with no event heap: on equal times the arrival fires first, the
  order the heap of :class:`~repro.sim.engine.SimEngine` gives the
  reference loop.

At ``max_batch=1`` the engine coalesces each request's prefill and
full decode into one fused step whose cost is the exact seed
``CostModel.service_time`` expression -- the configuration behind
:class:`~repro.serving.simulator.ServingSimulator`, pinned
bit-identical to :class:`~repro.serving.reference.ReferenceFIFOSimulator`
by the equivalence suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.core.engine import Platform
from repro.core.runtime import InferenceConfig, MoNDERuntime
from repro.core.strategies import Scheme
from repro.moe.config import MoEModelConfig
from repro.serving.simulator import CompletedRequest, CostModel, ServingResult
from repro.serving.workload import Request, RequestPhase
from repro.workloads.traces import RoutingProfile

BATCH_PRIORITIES = ("prefill", "decode")

_arrival = attrgetter("arrival")


def _check_duration(seconds: float, now: float) -> None:
    """A step may not end before it starts (a negative surcharge
    would run the clock backwards)."""
    if seconds < 0:
        raise ValueError(
            f"step starting at {now!r} s has negative duration {seconds!r} s"
        )


@dataclass(frozen=True)
class PhaseCostModel:
    """Per-phase serving costs.

    ``prefill_seconds_per_token`` prices the encoder pass linearly in
    prompt tokens.  A decode step costs
    ``decode_seconds_per_token * ((1 - mf) + mf * batch)`` where
    ``mf = decode_marginal_fraction``: the ``(1 - mf)`` share is the
    fixed bandwidth-bound cost of streaming expert weights once per
    step (amortized over the whole decode batch), the ``mf`` share
    scales per request.  ``mf = 1`` recovers the seed model where a
    batch of B decodes costs exactly B serial decodes.
    """

    prefill_seconds_per_token: float
    decode_seconds_per_token: float
    decode_marginal_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.prefill_seconds_per_token < 0 or self.decode_seconds_per_token < 0:
            raise ValueError("per-token costs must be non-negative")
        if not 0.0 <= self.decode_marginal_fraction <= 1.0:
            raise ValueError("decode_marginal_fraction must be in [0, 1]")

    def prefill_seconds(self, prompt_tokens: int) -> float:
        return self.prefill_seconds_per_token * prompt_tokens

    def decode_step_seconds(self, batch: int) -> float:
        """Cost of one decode step producing one token for each of
        ``batch`` in-flight requests."""
        if batch < 1:
            return 0.0
        mf = self.decode_marginal_fraction
        return self.decode_seconds_per_token * ((1.0 - mf) + mf * batch)

    def request_seconds(self, request: Request) -> float:
        """Whole-request cost at batch 1 -- kept as the exact float
        expression of :meth:`CostModel.service_time` so the fused
        ``max_batch=1`` engine path is bit-identical to the seed FIFO
        simulator."""
        return (
            self.prefill_seconds_per_token * request.prompt_tokens
            + self.decode_seconds_per_token * request.decode_tokens
        )

    @classmethod
    def from_cost_model(
        cls, cost_model: CostModel, decode_marginal_fraction: float = 1.0
    ) -> "PhaseCostModel":
        """Adopt a scalar :class:`CostModel`'s per-token prices."""
        return cls(
            prefill_seconds_per_token=cost_model.encode_seconds_per_token,
            decode_seconds_per_token=cost_model.decode_seconds_per_token,
            decode_marginal_fraction=decode_marginal_fraction,
        )


def _quantize_pow2(n: int) -> int:
    """Smallest power of two >= n (>= 1)."""
    return 1 << max(0, int(n - 1).bit_length())


class RuntimePhaseCostModel:
    """Phase costs calibrated from the scheme runtime at the composed
    batch geometry.

    Instead of pricing every step from one reference geometry, each
    ``prefill_seconds`` / ``decode_step_seconds`` call calibrates
    :class:`~repro.core.runtime.MoNDERuntime` at the (power-of-two
    quantized) geometry the engine actually composed and interpolates
    linearly inside the quantization bucket.  Results are memoized per
    geometry, so a serving run touches the runtime a handful of times
    however many steps it executes.  Decode amortization needs no
    ``decode_marginal_fraction`` knob here -- it emerges from the
    runtime itself, which prices a batched decode step with its
    expert weights fetched once.
    """

    def __init__(
        self,
        model: MoEModelConfig,
        scheme: Scheme,
        platform: Optional[Platform] = None,
        profile: Optional[RoutingProfile] = None,
        calib_decode_steps: int = 4,
    ) -> None:
        if calib_decode_steps < 1:
            raise ValueError("calib_decode_steps must be >= 1")
        self.model = model
        self.scheme = scheme
        self.platform = platform
        self.profile = profile
        self.calib_decode_steps = calib_decode_steps
        self._prefill_cache: dict[int, float] = {}
        self._decode_cache: dict[int, float] = {}

    def _runtime(self, batch: int, seq_len: int) -> MoNDERuntime:
        config = InferenceConfig(
            model=self.model,
            batch=batch,
            seq_len=seq_len,
            decode_steps=self.calib_decode_steps,
            profile=self.profile,
        )
        return MoNDERuntime(config, platform=self.platform)

    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Encoder-pass seconds for one prompt, calibrated at the
        quantized prompt length."""
        if prompt_tokens < 1:
            return 0.0
        q = _quantize_pow2(prompt_tokens)
        if q not in self._prefill_cache:
            enc = self._runtime(batch=1, seq_len=q).encoder_result(self.scheme)
            self._prefill_cache[q] = enc.seconds / enc.n_tokens
        return self._prefill_cache[q] * prompt_tokens

    def decode_step_seconds(self, batch: int) -> float:
        """One decode step's seconds at the quantized decode batch."""
        if batch < 1:
            return 0.0
        q = _quantize_pow2(batch)
        if q not in self._decode_cache:
            dec = self._runtime(batch=q, seq_len=q).decoder_result(self.scheme)
            # decoder_result covers calib_decode_steps steps of q
            # tokens each; keep the whole-step cost at batch q.
            self._decode_cache[q] = dec.seconds / self.calib_decode_steps
        # Linear in batch inside the bucket (exact at the bucket top).
        return self._decode_cache[q] * (batch / q)

    def request_seconds(self, request: Request) -> float:
        return self.prefill_seconds(request.prompt_tokens) + (
            request.decode_tokens * self.decode_step_seconds(1)
        )


@dataclass(frozen=True)
class BatchConfig:
    """Admission policy for the batching engine.

    ``max_batch`` bounds the number of requests in one step (decode
    slots plus newly admitted prefills).  ``prefill_token_budget``
    caps the prompt tokens admitted per step (a Sarathi-style chunk
    bound keeping mixed steps short); a request larger than the whole
    budget is still admitted alone rather than starved.  ``priority``
    selects what a step prefers: ``"prefill"`` admits new requests
    into free slots every step (optimizes TTFT), ``"decode"`` admits
    only when no decode is in flight (optimizes per-token decode
    latency).  ``queue_limit`` bounds the waiting queue; arrivals
    beyond it are rejected, exactly like the seed FIFO simulator.
    """

    max_batch: int = 8
    prefill_token_budget: int = 4096
    priority: str = "prefill"
    queue_limit: int = 512

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.prefill_token_budget < 1:
            raise ValueError("prefill_token_budget must be >= 1")
        if self.priority not in BATCH_PRIORITIES:
            raise ValueError(
                f"priority must be one of {BATCH_PRIORITIES}, got {self.priority!r}"
            )
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


@dataclass
class _DecodeSlot:
    """One request mid-decode: tokens left and its completion record."""

    request: Request
    record: CompletedRequest
    remaining: int


class BatchingEngine:
    """Continuous-batching server over a phase cost model.

    ``extra_prefill_seconds_per_token`` / ``extra_decode_seconds_per_token``
    are the co-simulation loop's per-phase surcharges: each step is
    charged ``extra_prefill * admitted_prompt_tokens`` and
    ``extra_decode * decode_batch`` on top of the cost model (both
    zero outside the loop, which is a float no-op).
    """

    def __init__(
        self,
        cost_model,
        scheme: Scheme,
        config: Optional[BatchConfig] = None,
        extra_prefill_seconds_per_token: float = 0.0,
        extra_decode_seconds_per_token: float = 0.0,
    ) -> None:
        self.cost_model = cost_model
        self.scheme = scheme
        self.config = config or BatchConfig()
        self.extra_prefill = extra_prefill_seconds_per_token
        self.extra_decode = extra_decode_seconds_per_token

    # -- event order ---------------------------------------------------------
    #
    # Both paths replay the event order of a discrete-event heap without
    # one.  Every arrival is known before the run starts and at most one
    # step end is ever pending, so the next event is whichever of the
    # next arrival (in stable arrival order) and the pending step end
    # comes first; on equal times the arrival fires first, as it would
    # in a heap that scheduled every arrival before the run began.

    # -- fused path: max_batch=1 == the seed FIFO ---------------------------

    def _run_fused(self, requests: list[Request]) -> ServingResult:
        """One request per step, prefill+decode coalesced: the seed
        FIFO simulator's exact event order and float arithmetic (the
        surcharge terms add 0.0 when unused)."""
        result = ServingResult(scheme=self.scheme, engine="fifo")
        cost = self.cost_model
        extra_p, extra_d = self.extra_prefill, self.extra_decode
        queue_limit = self.config.queue_limit
        arrivals = sorted(requests, key=_arrival)
        n = len(arrivals)
        queue: deque[Request] = deque()
        # The request in service (None when idle), its start, its
        # first-token time and the end of its step.
        serving: Optional[Request] = None
        start = first_token = end = 0.0
        now = 0.0
        i = 0
        while True:
            if i < n and (serving is None or arrivals[i].arrival <= end):
                request = arrivals[i]
                i += 1
                now = request.arrival
                request.lifecycle.reset()
                if serving is not None:
                    if len(queue) >= queue_limit:
                        result.rejected += 1
                    else:
                        queue.append(request)
                    continue
            elif serving is not None:
                now = end
                lifecycle = serving.lifecycle
                lifecycle.phase = RequestPhase.FINISHED
                lifecycle.first_token = min(first_token, now)
                lifecycle.finished = now
                result.completed.append(
                    CompletedRequest(
                        request=serving,
                        start=start,
                        finish=now,
                        first_token=lifecycle.first_token,
                    )
                )
                if not queue:
                    serving = None
                    continue
                request = queue.popleft()
            else:
                break
            serving = request
            start = now
            service = (
                cost.request_seconds(request)
                + extra_p * request.prompt_tokens
                + extra_d * request.decode_tokens
            )
            _check_duration(service, now)
            result.busy_seconds += service
            request.lifecycle.phase = RequestPhase.PREFILL
            request.lifecycle.admitted = start
            # TTFT bookkeeping only -- computed arithmetically so it
            # never perturbs the event timeline the seed FIFO produces.
            first_token = start + (
                cost.prefill_seconds(request.prompt_tokens)
                + extra_p * request.prompt_tokens
            )
            end = now + service
        result.horizon = now
        return result

    # -- stepped path: continuous batching ----------------------------------

    def _compose(self, waiting: deque, running: list[_DecodeSlot]) -> list[Request]:
        """Pick the prefills this step admits (popped from waiting)."""
        cfg = self.config
        admitted: list[Request] = []
        if cfg.priority == "decode" and running:
            return admitted
        free = cfg.max_batch - len(running)
        budget = cfg.prefill_token_budget
        while waiting and len(admitted) < free:
            nxt = waiting[0]
            if admitted and nxt.prompt_tokens > budget:
                break
            admitted.append(waiting.popleft())
            budget -= nxt.prompt_tokens
            if budget <= 0:
                break
        return admitted

    def _run_stepped(self, requests: list[Request]) -> ServingResult:
        result = ServingResult(scheme=self.scheme, engine="batching")
        cost = self.cost_model
        extra_p, extra_d = self.extra_prefill, self.extra_decode
        queue_limit = self.config.queue_limit
        completed = result.completed
        arrivals = sorted(requests, key=_arrival)
        n = len(arrivals)
        waiting: deque[Request] = deque()
        running: list[_DecodeSlot] = []
        # The step in flight: its admitted prefills, where each prefill
        # starts, and when the step ends.
        busy = False
        admitted: list[Request] = []
        prefill_starts: list[float] = []
        end = 0.0
        now = 0.0
        i = 0
        while True:
            if i < n and (not busy or arrivals[i].arrival <= end):
                request = arrivals[i]
                i += 1
                now = request.arrival
                request.lifecycle.reset()
                if busy:
                    if len(waiting) >= queue_limit:
                        result.rejected += 1
                    else:
                        waiting.append(request)
                    continue
                waiting.append(request)
            elif busy:
                now = end
                decoding: list[_DecodeSlot] = []
                for slot in running:
                    slot.remaining -= 1
                    if slot.remaining == 0:
                        slot.request.lifecycle.phase = RequestPhase.FINISHED
                        slot.request.lifecycle.finished = now
                        slot.record.finish = now
                        completed.append(slot.record)
                    else:
                        decoding.append(slot)
                running = decoding
                for request, prefill_start in zip(admitted, prefill_starts):
                    lifecycle = request.lifecycle
                    lifecycle.first_token = now
                    record = CompletedRequest(
                        request=request,
                        start=lifecycle.admitted,
                        finish=now,
                        first_token=now,
                        prefill_start=prefill_start,
                    )
                    if request.decode_tokens == 0:
                        lifecycle.phase = RequestPhase.FINISHED
                        lifecycle.finished = now
                        completed.append(record)
                    else:
                        lifecycle.phase = RequestPhase.DECODE
                        running.append(
                            _DecodeSlot(
                                request=request,
                                record=record,
                                remaining=request.decode_tokens,
                            )
                        )
            else:
                break
            # Start the next step at `now`, or go idle.
            admitted = self._compose(waiting, running)
            if not admitted and not running:
                busy = False
                continue
            busy = True
            duration = 0.0
            # Prefills run back to back within the step; remember where
            # each one lands so the DRAM replay can emit its weight
            # traffic when the compute actually touches it instead of
            # spiking the whole step's traffic at the step start.
            prefill_starts = []
            for request in admitted:
                request.lifecycle.phase = RequestPhase.PREFILL
                request.lifecycle.admitted = now
                prefill_starts.append(now + duration)
                duration += (
                    cost.prefill_seconds(request.prompt_tokens)
                    + extra_p * request.prompt_tokens
                )
            decode_batch = len(running)
            if decode_batch:
                # The shared decode pass streams weights after the
                # step's prefills.
                decode_start = now + duration
                duration += (
                    cost.decode_step_seconds(decode_batch) + extra_d * decode_batch
                )
                for slot in running:
                    slot.record.decode_step_starts.append(decode_start)
                    slot.record.decode_step_batches.append(decode_batch)
            _check_duration(duration, now)
            result.busy_seconds += duration
            result.n_steps += 1
            end = now + duration
        result.horizon = now
        return result

    def run(self, requests: list[Request]) -> ServingResult:
        """Simulate the full request list; returns aggregate metrics."""
        if self.config.max_batch == 1:
            return self._run_fused(requests)
        return self._run_stepped(requests)
