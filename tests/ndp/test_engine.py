"""NDP GEMM engine: cycle model + functional execution."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.specs import MONDE_DEVICE
from repro.ndp.engine import GEMMExecution, NDPGemmEngine, _gemm_cost


@pytest.fixture(scope="module")
def engine() -> NDPGemmEngine:
    return NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)


def test_zero_gemm_is_free(engine):
    ex = engine.gemm_execution(0, 10, 10)
    assert ex.seconds == 0.0 and ex.n_tiles == 0


def _walk(engine: NDPGemmEngine, m: int, n: int, k: int) -> GEMMExecution:
    """The engine's cost, recomputed by iterating the tile stream."""
    comp = mem = pipe = traffic = tiles = 0
    first = None
    for t in engine.tiler.tiles(m, n, k):
        c = engine.cluster.stripe_cycles(t.k)
        b = t.act_bytes + t.wgt_bytes + t.out_bytes
        mc = int(np.ceil(b / engine.bytes_per_cycle))
        if first is None:
            first = mc
        comp += c
        mem += mc
        pipe += max(c, mc)
        traffic += b
        tiles += 1
    total = (first or 0) + pipe
    return GEMMExecution(
        m, n, k, tiles, comp, mem, total, traffic, total / engine.spec.clock_hz
    )


BW = MONDE_DEVICE.effective_bandwidth
SPECS = [
    MONDE_DEVICE.ndp,
    dataclasses.replace(MONDE_DEVICE.ndp, exp_buffer_bytes=8 * 1024),
    dataclasses.replace(MONDE_DEVICE.ndp, n_arrays=24),
]


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 40),
    n=st.integers(0, 1100),
    k=st.integers(0, 600),
    spec=st.sampled_from(SPECS),
    bandwidth=st.sampled_from([BW, 137.3e9]),
    dtype_bytes=st.sampled_from([1, 2]),
)
@example(m=1, n=256, k=64, spec=SPECS[0], bandwidth=BW, dtype_bytes=2)
@example(m=4, n=512, k=100, spec=SPECS[0], bandwidth=BW, dtype_bytes=2)
@example(m=7, n=300, k=129, spec=SPECS[0], bandwidth=BW, dtype_bytes=2)
@example(m=33, n=768, k=200, spec=SPECS[0], bandwidth=BW, dtype_bytes=2)
@example(m=3, n=100, k=50, spec=SPECS[0], bandwidth=BW, dtype_bytes=2)
def test_grouped_matches_tile_stream(m, n, k, spec, bandwidth, dtype_bytes):
    """The closed-form cost equals iterating the tiler's stream, field
    for field, over ragged m/n/k, n < 256, single- and multi-chunk K,
    other bandwidths, buffer sizes, array counts and dtypes."""
    engine = NDPGemmEngine(spec, bandwidth, dtype_bytes=dtype_bytes)
    assert engine.gemm_execution(m, n, k) == _walk(engine, m, n, k)


@pytest.mark.parametrize(
    "dims, name", [((-1, 256, 64), "m"), ((4, -2, 64), "n"), ((4, 256, -3), "k")]
)
def test_negative_dims_rejected(engine, dims, name):
    before = _gemm_cost.cache_info()
    with pytest.raises(ValueError, match=f"dim {name} "):
        engine.gemm_execution(*dims)
    # Rejected before the cache is consulted: nothing looked up or stored.
    assert _gemm_cost.cache_info() == before


def test_cache_is_keyed_on_configuration():
    """Engines that differ only in bandwidth, or only in spec, each get
    their own result for one shape, and a repeated (cached) call equals
    a fresh computation."""
    shape = (9, 700, 300)
    engines = [
        NDPGemmEngine(MONDE_DEVICE.ndp, BW),
        NDPGemmEngine(MONDE_DEVICE.ndp, 2 * BW),
        NDPGemmEngine(SPECS[1], BW),
        NDPGemmEngine(SPECS[2], BW),
    ]
    results = [e.gemm_execution(*shape) for e in engines]
    assert len({dataclasses.astuple(r) for r in results}) == len(engines)
    for e, first in zip(engines, results):
        fresh = _walk(e, *shape)
        assert first == fresh
        assert e.gemm_execution(*shape) == fresh


def test_cold_expert_is_bandwidth_bound(engine):
    """Cold experts (M <= 4) stream the weights once: time ~=
    expert_bytes / device bandwidth (the Eq. 4 approximation)."""
    ex1 = engine.gemm_execution(1, 8192, 2048)
    ex2 = engine.gemm_execution(4, 8192, 2048)
    stream = 2 * 8192 * 2048 / MONDE_DEVICE.effective_bandwidth
    assert ex1.seconds == pytest.approx(stream, rel=0.12)
    assert ex2.seconds == pytest.approx(stream, rel=0.12)
    # Compute and memory are within the rate-matched band; the time is
    # set by the weight stream, not by MAC throughput.
    assert ex1.compute_cycles < 1.1 * ex1.memory_cycles


def test_rate_matched_design_point(engine):
    """Section 3.1's intent: at M = 4 the 4x256 stripes keep both the
    MAC arrays and the DRAM stream near-fully utilized."""
    ex = engine.gemm_execution(4, 8192, 2048)
    ratio = ex.compute_cycles / ex.memory_cycles
    assert 0.5 < ratio < 1.5


def test_hot_expert_is_compute_bound(engine):
    ex = engine.gemm_execution(2048, 8192, 2048)
    assert not ex.is_memory_bound
    assert ex.achieved_flops < MONDE_DEVICE.ndp.peak_flops


def test_monotonic_in_tokens(engine):
    times = [
        engine.expert_ffn_time(t, 2048, 8192) for t in (1, 4, 16, 64, 256, 2048)
    ]
    for a, b in zip(times, times[1:]):
        assert b >= a


def test_expert_batch_time_sums_actives(engine):
    counts = [3, 0, 5, 0]
    expected = engine.expert_ffn_time(3, 1024, 4096) + engine.expert_ffn_time(
        5, 1024, 4096
    )
    assert engine.expert_batch_time(counts, 1024, 4096) == pytest.approx(expected)


def test_run_gemm_functional(engine):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 40))
    b = rng.normal(size=(40, 300))
    out, ex = engine.run_gemm(a, b)
    np.testing.assert_allclose(out, a @ b)
    assert ex.m == 6 and ex.n == 300 and ex.k == 40


def test_run_gemm_fused_relu(engine):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 8))
    b = rng.normal(size=(8, 16))
    out, _ = engine.run_gemm(a, b, activation="relu")
    np.testing.assert_allclose(out, np.maximum(a @ b, 0))


def test_run_gemm_fused_gelu(engine):
    from repro.moe.functional import gelu

    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 8))
    b = rng.normal(size=(8, 16))
    out, _ = engine.run_gemm(a, b, activation="gelu")
    np.testing.assert_allclose(out, gelu(a @ b))


def test_run_gemm_rejects_bad_shapes(engine):
    with pytest.raises(ValueError):
        engine.run_gemm(np.zeros((2, 3)), np.zeros((4, 5)))


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        NDPGemmEngine(MONDE_DEVICE.ndp, 0)


def test_paper_fig7b_bandwidth_scaling():
    """Doubling device bandwidth (with rate-matched compute) roughly
    halves cold-expert latency -- the Fig. 7(b) mechanism."""
    base = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    fast_spec = MONDE_DEVICE.scaled_bandwidth(2.0)
    fast = NDPGemmEngine(fast_spec.ndp, fast_spec.effective_bandwidth)
    t_base = base.expert_ffn_time(4, 2048, 8192)
    t_fast = fast.expert_ffn_time(4, 2048, 8192)
    speedup = t_base / t_fast
    assert 1.6 < speedup < 2.2


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 512), k=st.integers(1, 256))
def test_functional_equals_matmul_property(m, n, k):
    engine = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    rng = np.random.default_rng(m + 31 * n + 997 * k)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    out, ex = engine.run_gemm(a, b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-9)
    assert ex.pipelined_cycles >= ex.compute_cycles or ex.is_memory_bound
