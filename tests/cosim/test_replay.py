"""Expert-faithful replay: routing-derived regions, determinism, and
equivalence with the per-burst replay it replaced."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import Scheme
from repro.cosim import (
    PHASE_DECODE,
    PHASE_PREFILL,
    ExpertReplayPlanner,
    SyntheticReplayPlanner,
    small_cosim_dram,
)
from repro.moe.gating import Router
from repro.serving.simulator import (
    CompletedRequest,
    CostModel,
    ServingResult,
    ServingSimulator,
)
from repro.serving.workload import Request
from repro.traffic.drift import DriftingReplayPlanner


def serve(n=6, prompt=20, decode=5):
    cost = CostModel(encode_seconds_per_token=1e-7, decode_seconds_per_token=1e-6)
    requests = [
        Request(
            request_id=i, arrival=0.001 * (i + 1),
            prompt_tokens=prompt, decode_tokens=decode,
        )
        for i in range(n)
    ]
    return ServingSimulator(cost, Scheme.MD_LB).run(requests)


def planner(**kwargs):
    defaults = dict(
        n_experts=8, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, expert_bytes=1 << 16, seed=5,
    )
    defaults.update(kwargs)
    return ExpertReplayPlanner(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        planner(n_experts=0)
    with pytest.raises(ValueError):
        planner(top_k=9)  # > n_experts
    with pytest.raises(ValueError):
        planner(n_moe_layers=0)
    with pytest.raises(ValueError):
        planner(bytes_per_token=0)
    with pytest.raises(ValueError):
        planner(max_blocks_per_request=0)
    with pytest.raises(ValueError):
        planner(expert_bytes=0)
    with pytest.raises(ValueError):
        planner(max_routed_tokens=0)
    with pytest.raises(ValueError):
        p = planner()
        p.request_blocks(0, tokens=0)


def test_replay_shape_and_arrivals():
    result = serve()
    trace = planner().replay(result)
    n = len(trace)
    assert n > 0
    assert trace.addrs.shape == (n,)
    assert trace.arrive_cycles.shape == (n,)
    assert trace.flags.shape == (n,)
    assert trace.request_ids.shape == (n,)
    assert not trace.flags.any()  # weight fetches are reads
    # Arrivals are the serving service-start cycles.
    clock = small_cosim_dram().timing.clock_hz
    starts = {
        c.request.request_id: int(round(c.start * clock)) for c in result.completed
    }
    for rid in np.unique(trace.request_ids):
        burst = trace.arrive_cycles[trace.request_ids == rid]
        assert (burst == starts[int(rid)]).all()


def test_block_count_follows_tokens():
    p = planner()
    # 25 tokens * 1024 B/token / 64 B = 400 blocks, capped at 256.
    assert len(p.request_blocks(0, tokens=25)) == 256
    assert len(p.request_blocks(0, tokens=4)) == 64


def test_addresses_deterministic_and_stable():
    p = planner()
    a = p.request_blocks(3, tokens=25)
    b = p.request_blocks(3, tokens=25)
    assert (a == b).all()
    # Stable across planner instances with the same seed...
    assert (planner().request_blocks(3, tokens=25) == a).all()
    # ...and different under another seed or request id.
    assert not (planner(seed=6).request_blocks(3, tokens=25) == a).all()
    assert not (p.request_blocks(4, tokens=25) == a).all()
    assert p.stable_addresses


def test_blocks_land_in_activated_expert_regions():
    p = planner()
    region_blocks = p._region_blocks
    total_regions = p.n_moe_layers * p.n_experts
    blocks = p.request_blocks(1, tokens=25)
    regions = set((blocks // region_blocks).tolist())
    # A top-2-of-8 request touches a handful of regions, not all.
    assert 1 <= len(regions) < total_regions
    assert all(0 <= r < total_regions for r in regions)


def test_router_driven_replay_targets_routed_experts():
    """With real gating networks, a burst targets exactly the experts
    the top-k router selected for the request's tokens."""
    rng = np.random.default_rng(11)
    routers = [Router(d_model=8, n_experts=4, top_k=1, rng=rng) for _ in range(2)]
    p = ExpertReplayPlanner(
        n_experts=4, top_k=1, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=64, expert_bytes=1 << 16,
        routers=routers, max_routed_tokens=8, seed=5,
    )
    # Recompute the routing the planner will see (same seeded rng).
    req_rng = np.random.default_rng((5, 2))
    active = set()
    for layer, router in enumerate(routers):
        plan = router.route(req_rng.standard_normal((8, 8)))
        active.update(layer * 4 + e for e in plan.active_experts.tolist())
    blocks = p.request_blocks(2, tokens=8)
    touched = set((blocks // p._region_blocks).tolist())
    assert touched <= active

    with pytest.raises(ValueError):
        ExpertReplayPlanner(
            n_experts=4, top_k=1, n_moe_layers=3, routers=routers,
            dram_config=small_cosim_dram(),
        )


def test_for_model_geometry():
    from repro.moe.zoo import switch_large_128

    model = switch_large_128()
    p = ExpertReplayPlanner.for_model(model, dram_config=small_cosim_dram())
    assert p.n_experts == model.n_experts
    assert p.top_k == model.top_k
    assert p.n_moe_layers == max(1, model.n_moe_encoder_layers)


def test_synthetic_planner_matches_serving_replay():
    from repro.serving.simulator import dram_replay_trace_arrays

    result = serve()
    p = SyntheticReplayPlanner(
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, seed=5,
    )
    trace = p.replay(result)
    addrs, arrive, flags = dram_replay_trace_arrays(
        result, dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, seed=5,
    )
    assert (trace.addrs == addrs).all()
    assert (trace.arrive_cycles == arrive).all()
    assert not p.stable_addresses
    assert trace.tokens_by_request == {
        c.request.request_id: c.request.prompt_tokens + c.request.decode_tokens
        for c in result.completed
    }


# -- oracle: the per-burst replay the vectorized planner replaced ----------


def reference_request_blocks(p, request_id, tokens):
    """Per-region chunk construction, one arange per activated region."""
    n_blocks = min(
        p.max_blocks_per_request, -(-(tokens * p.bytes_per_token) // p._step)
    )
    rng = np.random.default_rng((p.seed, request_id))
    layer_counts = p._layer_counts(rng, tokens, p._popularity_for(request_id))
    total_events = sum(int(c.sum()) for c in layer_counts)
    if total_events == 0:
        layer_counts[0][0] = 1
        total_events = 1
    pairs = []
    for layer, counts in enumerate(layer_counts):
        for expert in np.flatnonzero(counts):
            pairs.append((layer, int(expert), int(counts[expert])))
    shares = np.array([c for _, _, c in pairs], dtype=np.float64)
    raw = shares * (n_blocks / total_events)
    alloc = np.floor(raw).astype(np.int64)
    shortfall = n_blocks - int(alloc.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - alloc), kind="stable")
        alloc[order[:shortfall]] += 1
    chunks = []
    for (layer, expert, _), b in zip(pairs, alloc.tolist()):
        if b == 0:
            continue
        region_id = layer * p.n_experts + expert
        base = (region_id * p._region_blocks) % p._total_blocks
        offs = np.arange(b, dtype=np.int64) % p._region_blocks
        chunks.append((base + offs) % p._total_blocks)
    return np.concatenate(chunks)


def reference_replay(p, result):
    """One np.full per column per burst, concatenated at the end."""
    clock_hz = p.config.timing.clock_hz
    phased = result.engine == "batching"
    cols = {"addrs": [], "arrive": [], "rids": [], "bursts": [], "phases": []}
    tokens_by_request = {}
    burst_id = 0

    def emit(blocks, cycle, rid, phase):
        nonlocal burst_id
        if len(blocks) == 0:
            return
        cols["addrs"].append(blocks * p._step)
        cols["arrive"].append(np.full(len(blocks), cycle, dtype=np.int64))
        cols["rids"].append(np.full(len(blocks), rid, dtype=np.int64))
        cols["bursts"].append(np.full(len(blocks), burst_id, dtype=np.int64))
        cols["phases"].append(np.full(len(blocks), phase, dtype=np.uint8))
        burst_id += 1

    for completed in sorted(result.completed, key=lambda c: c.request.request_id):
        request = completed.request
        tokens = request.prompt_tokens + request.decode_tokens
        blocks = reference_request_blocks(p, request.request_id, tokens)
        tokens_by_request[request.request_id] = tokens
        if not phased:
            emit(blocks, int(round(completed.start * clock_hz)), request.request_id, 0)
            continue
        n_pre = min(
            len(blocks), -(-(request.prompt_tokens * p.bytes_per_token) // p._step)
        )
        prefill_at = completed.prefill_start
        if prefill_at is None:
            prefill_at = completed.start
        emit(
            blocks[:n_pre], int(round(prefill_at * clock_hz)),
            request.request_id, PHASE_PREFILL,
        )
        rest = blocks[n_pre:]
        steps = completed.decode_step_starts
        batches = completed.decode_step_batches
        if len(rest) == 0 or not steps:
            continue
        base, remainder = divmod(len(rest), len(steps))
        offset = 0
        for s, (start, batch) in enumerate(zip(steps, batches)):
            share = base + (1 if s < remainder else 0)
            if share == 0:
                continue
            chunk = rest[offset : offset + share]
            offset += share
            emit(
                chunk[: -(-share // max(1, batch))], int(round(start * clock_hz)),
                request.request_id, PHASE_DECODE,
            )
    empty = {"phases": np.zeros(0, dtype=np.uint8)}
    out = {
        k: np.concatenate(v) if v else empty.get(k, np.zeros(0, dtype=np.int64))
        for k, v in cols.items()
    }
    return out, tokens_by_request


def assert_matches_reference(p, result):
    trace = p.replay(result)
    ref, tokens_by_request = reference_replay(p, result)
    columns = [
        (trace.addrs, ref["addrs"]),
        (trace.arrive_cycles, ref["arrive"]),
        (trace.request_ids, ref["rids"]),
        (trace.flags, np.zeros(len(ref["addrs"]), dtype=np.uint8)),
    ]
    if result.engine == "batching":
        columns += [(trace.burst_ids, ref["bursts"]), (trace.phases, ref["phases"])]
    else:
        assert trace.burst_ids is None and trace.phases is None
    for got, want in columns:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert trace.tokens_by_request == tokens_by_request
    assert list(trace.tokens_by_request) == list(tokens_by_request)


def completed_request(rid, prompt, decode, start, prefill_start, steps, batches):
    # A stand-in request: Request forbids prompt_tokens == 0, which the
    # planner must still handle (an empty prefill burst).
    request = SimpleNamespace(
        request_id=rid, prompt_tokens=prompt, decode_tokens=decode
    )
    return CompletedRequest(
        request=request, start=start, finish=start + 1e-3,
        prefill_start=prefill_start,
        decode_step_starts=list(steps), decode_step_batches=list(batches),
    )


times = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)

#: Region size (~1/3 of small_cosim_dram) whose later regions start a
#: few blocks before the end of memory, so their streams wrap to 0.
WRAP_EXPERT_BYTES = (2097152 // 3 - 1) * 64


@st.composite
def completed_requests(draw, rid):
    prompt = draw(st.integers(0, 12))
    decode = draw(st.integers(0 if prompt else 1, 40))
    n_steps = draw(st.integers(0, 30))
    steps = sorted(draw(st.lists(times, min_size=n_steps, max_size=n_steps)))
    # The engine records one batch per step; a shorter batch list
    # truncates the decode bursts, as zip() did.
    n_batches = draw(st.integers(max(0, n_steps - 2), n_steps))
    batches = draw(st.lists(st.integers(1, 9), min_size=n_batches, max_size=n_batches))
    start = draw(times)
    prefill_start = draw(st.one_of(st.none(), times))
    return completed_request(rid, prompt, decode, start, prefill_start, steps, batches)


@st.composite
def serving_results(draw, engine):
    rids = draw(st.lists(st.integers(0, 200), unique=True, max_size=12))
    completed = [draw(completed_requests(rid)) for rid in rids]
    return ServingResult(scheme=Scheme.MD_LB, completed=completed, engine=engine)


@st.composite
def oracle_planners(draw):
    kind = draw(st.sampled_from(["profile", "drift", "routers"]))
    n_experts = draw(st.integers(2, 8))
    top_k = draw(st.integers(1, n_experts))
    n_layers = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 50))
    kwargs = dict(
        n_experts=n_experts, top_k=top_k, n_moe_layers=n_layers,
        dram_config=small_cosim_dram(),
        bytes_per_token=draw(st.sampled_from([64, 256, 1024])),
        max_blocks_per_request=draw(st.integers(1, 96)),
        # Small regions wrap long allocations within the region; the
        # last size puts region starts just below the end of memory.
        expert_bytes=draw(st.sampled_from([64, 1 << 10, 1 << 16, WRAP_EXPERT_BYTES])),
        max_routed_tokens=draw(st.integers(1, 16)),
        seed=seed,
    )
    if kind == "drift":
        return DriftingReplayPlanner(
            drift_window_requests=draw(st.integers(1, 8)), drift_mix=0.7, **kwargs
        )
    if kind == "routers":
        rng = np.random.default_rng(seed)
        kwargs["routers"] = [
            Router(d_model=4, n_experts=n_experts, top_k=top_k, rng=rng)
            for _ in range(n_layers)
        ]
    return ExpertReplayPlanner(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    p=oracle_planners(),
    engine=st.sampled_from(["fifo", "batching"]),
    data=st.data(),
)
def test_replay_matches_per_burst_reference(p, engine, data):
    result = data.draw(serving_results(engine))
    assert_matches_reference(p, result)
    # Twice: the second replay runs from the routing cache.
    assert_matches_reference(p, result)


@pytest.mark.parametrize("engine", ["fifo", "batching"])
def test_empty_serving_result_replays_empty(engine):
    p = planner()
    result = ServingResult(scheme=Scheme.MD_LB, engine=engine)
    assert_matches_reference(p, result)
    trace = p.replay(result)
    assert len(trace) == 0 and trace.tokens_by_request == {}


def test_decode_steps_outnumber_remaining_blocks():
    """Later decode steps get a zero share: no burst, no burst id."""
    p = planner(bytes_per_token=64, max_blocks_per_request=6)
    steps = [1e-5 * i for i in range(10)]
    result = ServingResult(
        scheme=Scheme.MD_LB, engine="batching",
        completed=[
            completed_request(0, 2, 4, 0.0, None, steps, [3] * 10),
            completed_request(1, 0, 6, 1e-4, 2e-4, [1e-4, 2e-4], [1, 2]),
        ],
    )
    assert_matches_reference(p, result)
    trace = p.replay(result)
    # Request 0: 2 prefill blocks, 4 decode blocks over 10 steps -> 4
    # one-block bursts; request 1: no prefill, 2 decode bursts.
    assert trace.burst_ids.tolist() == [0, 0, 1, 2, 3, 4, 5, 5, 5, 6, 6]
    assert trace.phases.tolist() == [PHASE_PREFILL] * 2 + [PHASE_DECODE] * 9


class _NoRoutingPlanner(ExpertReplayPlanner):
    def _layer_counts(self, rng, tokens, popularity=None):
        zeros = np.zeros(self.n_experts, dtype=np.int64)
        return [zeros.copy() for _ in range(self.n_moe_layers)]


@pytest.mark.parametrize("engine", ["fifo", "batching"])
def test_degenerate_routing_streams_first_expert(engine):
    p = _NoRoutingPlanner(
        n_experts=4, top_k=1, n_moe_layers=2, dram_config=small_cosim_dram(),
        bytes_per_token=1024, max_blocks_per_request=40, expert_bytes=1 << 10,
    )
    blocks = p.request_blocks(3, tokens=7)
    assert len(blocks) == 40
    # Region 0 of 16 blocks, re-streamed from its start as it wraps.
    assert blocks.tolist() == [i % 16 for i in range(40)]
    result = ServingResult(
        scheme=Scheme.MD_LB, engine=engine,
        completed=[completed_request(3, 3, 4, 0.0, None, [1e-5, 2e-5], [2, 1])],
    )
    assert_matches_reference(p, result)


def test_streams_wrap_past_the_end_of_memory():
    p = planner(n_experts=4, expert_bytes=WRAP_EXPERT_BYTES)
    assert p._total_blocks == 2097152
    blocks = p.request_blocks(0, tokens=25)
    assert np.array_equal(blocks, reference_request_blocks(p, 0, 25))
    # Region 3 starts 5 blocks before the end and wraps to block 0.
    assert {2097151, 0, 1}.issubset(blocks.tolist())


def test_request_blocks_returns_a_fresh_array():
    p = planner()
    first = p.request_blocks(2, tokens=25)
    expected = first.copy()
    first[:] = -1
    assert np.array_equal(p.request_blocks(2, tokens=25), expected)
    reference = reference_request_blocks(p, 2, 25)
    assert np.array_equal(p.request_blocks(2, tokens=25), reference)


@pytest.mark.parametrize("drift", [False, True])
def test_pickle_drops_routing_cache(drift):
    p = (
        DriftingReplayPlanner(
            n_experts=8, top_k=2, n_moe_layers=2, dram_config=small_cosim_dram(),
            bytes_per_token=1024, max_blocks_per_request=256,
            expert_bytes=1 << 16, seed=5, drift_window_requests=2,
        )
        if drift
        else planner()
    )
    warm = {rid: p.request_blocks(rid, tokens=10 + rid) for rid in range(6)}
    assert p._segment_cache
    clone = pickle.loads(pickle.dumps(p))
    assert clone._segment_cache == {}
    if drift:
        assert clone._drift_cache == {}
    for rid, blocks in warm.items():
        assert np.array_equal(clone.request_blocks(rid, tokens=10 + rid), blocks)
    # The original keeps its warm cache.
    assert len(p._segment_cache) == 6
