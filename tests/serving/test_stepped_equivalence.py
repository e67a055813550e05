"""Equivalence suite: the heap-free serving loops against the event heap.

:class:`BatchingEngine` advances time by merging the arrival-sorted
requests with its one pending step end.  :class:`HeapBatchingEngine`
below keeps the loops it replaced -- every arrival and step end pushed
through :class:`~repro.sim.engine.SimEngine` -- as a test-local oracle.
Both must agree exactly (``==`` on floats) on every completion record,
on the per-request lifecycle, and on the run totals.  Integer-valued
costs and arrivals make step ends land exactly on arrival times, so
the same-time tie-break (arrival first) is exercised, not just
reachable.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import Scheme
from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel
from repro.serving.reference import ReferenceFIFOSimulator
from repro.serving.simulator import CompletedRequest, CostModel, ServingResult
from repro.serving.workload import Request, RequestGenerator, RequestPhase
from repro.sim.engine import SimEngine

SCHEME = Scheme.MD_LB


class _Slot:
    def __init__(self, request, record, remaining):
        self.request = request
        self.record = record
        self.remaining = remaining


class HeapBatchingEngine(BatchingEngine):
    """The event-heap serving loops, kept verbatim as the oracle."""

    def _run_fused(self, requests):
        engine = SimEngine()
        result = ServingResult(scheme=self.scheme, engine="fifo")
        cost = self.cost_model
        queue = []
        state = {"busy": False}

        def start_service(request):
            state["busy"] = True
            start = engine.now
            service = (
                cost.request_seconds(request)
                + self.extra_prefill * request.prompt_tokens
                + self.extra_decode * request.decode_tokens
            )
            result.busy_seconds += service
            request.lifecycle.phase = RequestPhase.PREFILL
            request.lifecycle.admitted = start
            first_token = start + (
                cost.prefill_seconds(request.prompt_tokens)
                + self.extra_prefill * request.prompt_tokens
            )

            def finish():
                request.lifecycle.phase = RequestPhase.FINISHED
                request.lifecycle.first_token = min(first_token, engine.now)
                request.lifecycle.finished = engine.now
                result.completed.append(
                    CompletedRequest(
                        request=request,
                        start=start,
                        finish=engine.now,
                        first_token=request.lifecycle.first_token,
                    )
                )
                if queue:
                    start_service(queue.pop(0))
                else:
                    state["busy"] = False

            engine.schedule_in(service, finish)

        def arrive(request):
            request.lifecycle.reset()
            if state["busy"]:
                if len(queue) >= self.config.queue_limit:
                    result.rejected += 1
                    return
                queue.append(request)
            else:
                start_service(request)

        for request in sorted(requests, key=lambda r: r.arrival):
            engine.schedule(request.arrival, lambda r=request: arrive(r))
        result.horizon = engine.run()
        return result

    def _compose_list(self, waiting, running):
        cfg = self.config
        admitted = []
        if cfg.priority == "decode" and running:
            return admitted
        free = cfg.max_batch - len(running)
        budget = cfg.prefill_token_budget
        while waiting and len(admitted) < free:
            nxt = waiting[0]
            if admitted and nxt.prompt_tokens > budget:
                break
            admitted.append(waiting.pop(0))
            budget -= nxt.prompt_tokens
            if budget <= 0:
                break
        return admitted

    def _run_stepped(self, requests):
        engine = SimEngine()
        result = ServingResult(scheme=self.scheme, engine="batching")
        cost = self.cost_model
        waiting = []
        running = []
        state = {"busy": False}

        def start_step():
            admitted = self._compose_list(waiting, running)
            if not admitted and not running:
                state["busy"] = False
                return
            state["busy"] = True
            now = engine.now
            duration = 0.0
            prefill_starts = []
            for request in admitted:
                request.lifecycle.phase = RequestPhase.PREFILL
                request.lifecycle.admitted = now
                prefill_starts.append(now + duration)
                duration += (
                    cost.prefill_seconds(request.prompt_tokens)
                    + self.extra_prefill * request.prompt_tokens
                )
            decode_batch = len(running)
            if decode_batch:
                decode_start = now + duration
                duration += (
                    cost.decode_step_seconds(decode_batch)
                    + self.extra_decode * decode_batch
                )
                for slot in running:
                    slot.record.decode_step_starts.append(decode_start)
                    slot.record.decode_step_batches.append(decode_batch)
            result.busy_seconds += duration
            result.n_steps += 1

            def step_end():
                end = engine.now
                for slot in list(running):
                    slot.remaining -= 1
                    if slot.remaining == 0:
                        running.remove(slot)
                        slot.request.lifecycle.phase = RequestPhase.FINISHED
                        slot.request.lifecycle.finished = end
                        slot.record.finish = end
                        result.completed.append(slot.record)
                for request, prefill_start in zip(admitted, prefill_starts):
                    request.lifecycle.first_token = end
                    record = CompletedRequest(
                        request=request,
                        start=request.lifecycle.admitted,
                        finish=end,
                        first_token=end,
                        prefill_start=prefill_start,
                    )
                    if request.decode_tokens == 0:
                        request.lifecycle.phase = RequestPhase.FINISHED
                        request.lifecycle.finished = end
                        result.completed.append(record)
                    else:
                        request.lifecycle.phase = RequestPhase.DECODE
                        running.append(_Slot(request, record, request.decode_tokens))
                start_step()

            engine.schedule_in(duration, step_end)

        def arrive(request):
            request.lifecycle.reset()
            if state["busy"]:
                if len(waiting) >= self.config.queue_limit:
                    result.rejected += 1
                    return
                waiting.append(request)
            else:
                waiting.append(request)
                start_step()

        for request in sorted(requests, key=lambda r: r.arrival):
            engine.schedule(request.arrival, lambda r=request: arrive(r))
        result.horizon = engine.run()
        return result


def _lifecycles(requests):
    return [dataclasses.astuple(r.lifecycle) for r in requests]


def assert_same_run(cost, config, requests, extra_p=0.0, extra_d=0.0):
    """Run both engines on one request list; demand exact agreement."""
    kwargs = dict(
        extra_prefill_seconds_per_token=extra_p,
        extra_decode_seconds_per_token=extra_d,
    )
    want = HeapBatchingEngine(cost, SCHEME, config, **kwargs).run(requests)
    want_lifecycles = _lifecycles(requests)
    got = BatchingEngine(cost, SCHEME, config, **kwargs).run(requests)
    assert _lifecycles(requests) == want_lifecycles
    assert len(got.completed) == len(want.completed)
    for g, w in zip(got.completed, want.completed):
        assert g.request is w.request
        for f in dataclasses.fields(CompletedRequest):
            if f.name != "request":
                assert getattr(g, f.name) == getattr(w, f.name), f.name
    for name in ("engine", "n_steps", "busy_seconds", "rejected", "horizon"):
        assert getattr(got, name) == getattr(want, name), name
    return got


@st.composite
def request_lists(draw, max_size=40):
    """Requests on a coarse integer arrival grid: many share an
    arrival time and many land exactly on a step end."""
    n = draw(st.integers(0, max_size))
    grid = draw(st.sampled_from([1, 2, 5]))
    requests = []
    for i in range(n):
        requests.append(
            Request(
                request_id=i,
                arrival=float(grid * draw(st.integers(0, 30))),
                prompt_tokens=draw(st.integers(1, 12)),
                decode_tokens=draw(st.integers(0, 5)),
            )
        )
    return requests


configs = st.builds(
    BatchConfig,
    # max_batch=1 is the fused path behind ServingSimulator.
    max_batch=st.one_of(st.just(1), st.integers(2, 8)),
    prefill_token_budget=st.sampled_from([1, 4, 16, 4096]),
    priority=st.sampled_from(["prefill", "decode"]),
    queue_limit=st.sampled_from([1, 2, 3, 512]),
)

# Integer and dyadic prices keep every step end an exact float, so
# collisions with the integer arrival grid really happen.
costs = st.builds(
    PhaseCostModel,
    prefill_seconds_per_token=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    decode_seconds_per_token=st.sampled_from([0.0, 1.0, 3.0]),
    decode_marginal_fraction=st.sampled_from([0.0, 0.5, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    requests=request_lists(),
    config=configs,
    cost=costs,
    extra_p=st.sampled_from([0.0, 0.25]),
    extra_d=st.sampled_from([0.0, 0.5]),
)
def test_merge_matches_event_heap(requests, config, cost, extra_p, extra_d):
    assert_same_run(cost, config, requests, extra_p, extra_d)


@settings(max_examples=40, deadline=None)
@given(
    config=configs,
    arrival=st.sampled_from(["poisson", "batched", "onoff"]),
    seed=st.integers(0, 2**16),
)
def test_merge_matches_event_heap_at_realistic_prices(config, arrival, seed):
    requests = RequestGenerator(
        rate=2e6,
        mean_prompt_tokens=24,
        mean_decode_tokens=6,
        seed=seed,
        arrival=arrival,
    ).generate(120)
    cost = PhaseCostModel(2e-9, 2e-8, decode_marginal_fraction=0.3)
    assert_same_run(cost, config, requests, extra_p=1e-10, extra_d=3e-9)


@pytest.mark.parametrize("priority", ["prefill", "decode"])
def test_arrival_on_a_step_end_joins_the_next_step(priority):
    # Request 0's prefill step ends at t=4, exactly when request 1
    # arrives.  The arrival fires first, so request 1 is waiting when
    # the next step is composed and is admitted at t=4.
    requests = [
        Request(request_id=0, arrival=0.0, prompt_tokens=4, decode_tokens=2),
        Request(request_id=1, arrival=4.0, prompt_tokens=2, decode_tokens=0),
    ]
    cost = PhaseCostModel(1.0, 1.0)
    config = BatchConfig(max_batch=4, priority=priority)
    result = assert_same_run(cost, config, requests)
    start = {c.request.request_id: c.start for c in result.completed}
    if priority == "prefill":
        assert start[1] == 4.0
    else:
        # Decode priority holds new prefills while request 0 decodes.
        assert start[1] == 6.0


def test_fused_arrival_on_a_finish_meets_the_full_queue():
    # Request 0 finishes at t=4, exactly when request 2 arrives; the
    # one queue slot still holds request 1, so the arrival (which
    # fires first) is rejected -- as in the seed FIFO loop.
    requests = [
        Request(request_id=0, arrival=0.0, prompt_tokens=4, decode_tokens=0),
        Request(request_id=1, arrival=1.0, prompt_tokens=4, decode_tokens=0),
        Request(request_id=2, arrival=4.0, prompt_tokens=4, decode_tokens=0),
    ]
    config = BatchConfig(max_batch=1, queue_limit=1)
    cost = PhaseCostModel(1.0, 1.0)
    result = assert_same_run(cost, config, requests)
    fifo = ReferenceFIFOSimulator(CostModel(1.0, 1.0), SCHEME, queue_limit=1)
    assert result.rejected == fifo.run(requests).rejected == 1
    assert [c.request.request_id for c in result.completed] == [0, 1]


def test_duplicate_arrivals_and_tiny_queue():
    requests = [
        Request(request_id=i, arrival=1.0, prompt_tokens=3, decode_tokens=i % 3)
        for i in range(10)
    ]
    config = BatchConfig(max_batch=2, prefill_token_budget=4, queue_limit=2)
    result = assert_same_run(PhaseCostModel(1.0, 1.0), config, requests)
    assert result.rejected > 0
    # Same-time arrivals keep their input order.
    assert result.completed[0].request.request_id == 0


def test_zero_cost_steps_end_where_they_start():
    requests = [
        Request(request_id=i, arrival=float(i // 2), prompt_tokens=1, decode_tokens=1)
        for i in range(6)
    ]
    config = BatchConfig(max_batch=3)
    result = assert_same_run(PhaseCostModel(0.0, 0.0), config, requests)
    assert all(c.finish == c.request.arrival for c in result.completed)


def test_empty_request_list():
    for max_batch in (1, 4):
        result = assert_same_run(
            PhaseCostModel(1.0, 1.0), BatchConfig(max_batch=max_batch), []
        )
        assert result.horizon == 0.0 and not result.completed


@pytest.mark.parametrize("max_batch", [1, 4])
def test_negative_step_duration_is_rejected(max_batch):
    requests = [Request(request_id=0, arrival=0.0, prompt_tokens=4, decode_tokens=1)]
    engine = BatchingEngine(
        PhaseCostModel(1.0, 1.0),
        SCHEME,
        BatchConfig(max_batch=max_batch),
        extra_prefill_seconds_per_token=-2.0,
    )
    with pytest.raises(ValueError, match="negative duration"):
        engine.run(requests)
