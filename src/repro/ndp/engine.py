"""The NDP GEMM engine: cycle-level timing plus functional execution.

This is the "cycle-level expert computation simulator" of Section 4.1.
It costs the output-stationary tile schedule, charging each tile

- compute cycles on the systolic cluster (K + pipeline skew), and
- memory cycles against the device's DRAM bandwidth (as calibrated by
  the cycle-level DRAM simulator),

overlapping the two under double buffering: the engine's total is the
pipelined makespan  fill + sum(max(compute_i, mem_i)) + drain, exactly
the behaviour of an operand-prefetching tile pipeline.

The sum is not walked.  Tiles come in at most 2 widths x 2 depths x 3
heights (see :func:`_gemm_cost`), so one GEMM costs O(1), and each
distinct (configuration, m, n, k) is costed once per process.

For the paper's dimensions the design point is rate-matched: a 4x256
stripe needs K compute cycles and K*256*2 bytes of weights, which at
512 B/cycle is also ~K cycles -- the hardware neither starves nor
stalls for M <= 4 (cold experts), which is the paper's efficiency
argument for small-height PE arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.hw.specs import BF16_BYTES, NDPCoreSpec
from repro.moe.functional import ACTIVATIONS
from repro.ndp.buffers import DoubleBuffer
from repro.ndp.systolic import SystolicCluster
from repro.ndp.tiling import OutputStationaryTiler


@dataclass(frozen=True)
class GEMMExecution:
    """Timing breakdown of one GEMM on the NDP core."""

    m: int
    n: int
    k: int
    n_tiles: int
    compute_cycles: int
    memory_cycles: int
    pipelined_cycles: int
    dram_bytes: int
    seconds: float

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles

    @property
    def achieved_flops(self) -> float:
        if self.seconds == 0:
            return 0.0
        return 2.0 * self.m * self.n * self.k / self.seconds


def _schedule(
    spec: NDPCoreSpec, dtype_bytes: int
) -> tuple[SystolicCluster, OutputStationaryTiler]:
    """The cluster and tile schedule an engine with ``spec`` runs."""
    cluster = SystolicCluster(spec.n_arrays, spec.array_rows, spec.array_cols)
    tiler = OutputStationaryTiler(
        tile_rows=cluster.tile_rows,
        tile_cols=cluster.tile_cols,
        wgt_buffer_bytes=spec.exp_buffer_bytes,
        dtype_bytes=dtype_bytes,
    )
    return cluster, tiler


@lru_cache(maxsize=4096)
def _gemm_cost(
    spec: NDPCoreSpec,
    bytes_per_cycle: float,
    dtype_bytes: int,
    m: int,
    n: int,
    k: int,
) -> GEMMExecution:
    """Timing of the :class:`OutputStationaryTiler` stream, closed form.

    Every tile is one of at most 12 variants: 2 n-stripe widths (full,
    ragged last) x 2 k-chunk depths (every chunk but the last, and the
    last, which also writes the outputs back) x 3 m-stripe heights
    (the first, which also fetches the weight chunk; the full middle
    ones; the last).  The totals are each variant's cost times its
    count, plus the first tile's memory cycles as pipeline fill.  The
    arithmetic is integer apart from the per-tile
    ``ceil(bytes / bytes_per_cycle)``, so the result equals the
    tile-by-tile walk exactly.

    The cache key is every input the cost depends on: the engine's
    cluster and tiler are built from ``spec`` and ``dtype_bytes`` alone
    (:func:`_schedule`) and ``NDPCoreSpec`` is frozen, so an entry
    cannot go stale, and engines of equal configuration share entries.
    """
    if m == 0 or n == 0 or k == 0:
        return GEMMExecution(m, n, k, 0, 0, 0, 0, 0, 0.0)
    cluster, tiler = _schedule(spec, dtype_bytes)
    rows, cols = tiler.tile_rows, tiler.tile_cols
    # (count, size) in walk order, so the first nonzero-count variant
    # of each dimension holds the first tile.
    n_stripes = -(-n // cols)
    n_variants = ((n_stripes - 1, cols), (1, n - (n_stripes - 1) * cols))
    m_stripes = -(-m // rows)
    m_variants = (
        (1, min(rows, m)),
        (max(0, m_stripes - 2), rows),
        (min(1, m_stripes - 1), m - (m_stripes - 1) * rows),
    )

    compute_total = mem_total = pipelined = dram_bytes = n_tiles = first_mem = 0
    for n_count, nn in n_variants:
        chunk = tiler.k_chunk(nn)
        n_chunks = -(-k // chunk)
        k_variants = ((n_chunks - 1, chunk), (1, k - (n_chunks - 1) * chunk))
        for ki, (k_count, kk) in enumerate(k_variants):
            compute_cycles = cluster.stripe_cycles(kk)
            for mi, (m_count, mm) in enumerate(m_variants):
                count = n_count * k_count * m_count
                if count == 0:
                    continue
                # Activations stream on every tile, the weight chunk on
                # the first m-stripe, outputs on the last k-chunk.
                tile_bytes = dtype_bytes * (
                    mm * kk
                    + (kk * nn if mi == 0 else 0)
                    + (mm * nn if ki == 1 else 0)
                )
                mc = math.ceil(tile_bytes / bytes_per_cycle)
                if n_tiles == 0:
                    first_mem = mc
                compute_total += count * compute_cycles
                mem_total += count * mc
                pipelined += count * max(compute_cycles, mc)
                dram_bytes += count * tile_bytes
                n_tiles += count
    # Pipeline fill (the first operand fetch) is not hidden by the
    # steady-state overlap; the last tile's compute (drain) is already
    # inside the final max() term.
    total = first_mem + pipelined
    return GEMMExecution(
        m=m,
        n=n,
        k=k,
        n_tiles=n_tiles,
        compute_cycles=compute_total,
        memory_cycles=mem_total,
        pipelined_cycles=total,
        dram_bytes=dram_bytes,
        seconds=total / spec.clock_hz,
    )


class NDPGemmEngine:
    """Cycle-level GEMM timing and functional execution for one device.

    ``mem_bandwidth`` is the *effective* device bandwidth in bytes/s
    (pass the DRAM calibrator's sequential-stream result, or the spec
    default which matches it).
    """

    def __init__(
        self,
        spec: NDPCoreSpec,
        mem_bandwidth: float,
        dtype_bytes: int = BF16_BYTES,
    ) -> None:
        if mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")
        self.spec = spec
        self.mem_bandwidth = mem_bandwidth
        self.dtype_bytes = dtype_bytes
        self.cluster, self.tiler = _schedule(spec, dtype_bytes)
        self.wgt_buffer = DoubleBuffer("exp-buffer", spec.exp_buffer_bytes)
        #: Bytes the DRAM can stream per NDP clock cycle.
        self.bytes_per_cycle = mem_bandwidth / spec.clock_hz

    @classmethod
    def from_dram(
        cls,
        spec: NDPCoreSpec,
        dram_config=None,
        dtype_bytes: int = BF16_BYTES,
        nbytes: int = 1 << 20,
    ) -> "NDPGemmEngine":
        """Engine whose effective bandwidth comes from a cycle-level
        run of the FR-FCFS controller on ``dram_config`` (defaults to
        the paper's LPDDR5X module) instead of the spec constant.

        The calibration is cached per config, so constructing many
        engines (multi-device platforms, serving sweeps) simulates the
        DRAM once.
        """
        from repro.dram.calibrate import calibrated_effective_bandwidth
        from repro.dram.config import LPDDR5X_8533

        config = dram_config if dram_config is not None else LPDDR5X_8533
        bandwidth = calibrated_effective_bandwidth(config, nbytes=nbytes)
        return cls(spec, bandwidth, dtype_bytes=dtype_bytes)

    # -- timing --------------------------------------------------------------

    def gemm_execution(self, m: int, n: int, k: int) -> GEMMExecution:
        """Cycle-level timing for C[m,n] = A[m,k] @ B[k,n].

        Equal, field for field, to walking ``self.tiler.tiles`` tile by
        tile, but closed form and cached; see :func:`_gemm_cost`.
        """
        for name, dim in (("m", m), ("n", n), ("k", k)):
            if dim < 0:
                raise ValueError(f"GEMM dim {name} must be non-negative, got {dim}")
        return _gemm_cost(self.spec, self.bytes_per_cycle, self.dtype_bytes, m, n, k)

    def gemm_time(self, m: int, n: int, k: int) -> float:
        """Seconds for one GEMM, excluding host dispatch."""
        return self.gemm_execution(m, n, k).seconds

    def expert_ffn_time(self, tokens: int, d_model: int, d_ff: int) -> float:
        """Seconds for one expert FFN (gemm + gemm+relu kernels) over
        ``tokens`` routed tokens, including the NDP dispatch overhead."""
        if tokens == 0:
            return 0.0
        t1 = self.gemm_time(tokens, d_ff, d_model)
        t2 = self.gemm_time(tokens, d_model, d_ff)
        return t1 + t2 + self.spec.dispatch_overhead

    def expert_batch_time(
        self, token_counts: list[int] | np.ndarray, d_model: int, d_ff: int
    ) -> float:
        """Seconds for a batch of expert FFNs run back to back on one
        NDP core (the MD+AM workflow's device-side total)."""
        return float(
            sum(self.expert_ffn_time(int(t), d_model, d_ff) for t in token_counts if t)
        )

    # -- functional ------------------------------------------------------------

    def run_gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        activation: Optional[str] = None,
    ) -> tuple[np.ndarray, GEMMExecution]:
        """Functionally execute a GEMM tile-by-tile through the
        systolic cluster (bit-identical to a plain matmul) and return
        (result, timing).  ``activation`` fuses relu/gelu into the
        epilogue, the paper's ``gemm+relu`` kernel."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad GEMM operands: {a.shape} x {b.shape}")
        m, k = a.shape
        _, n = b.shape
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        rows = self.cluster.tile_rows
        cols = self.cluster.tile_cols
        for m0 in range(0, m, rows):
            for n0 in range(0, n, cols):
                stripe = self.cluster.compute_stripe(
                    a[m0 : m0 + rows], b[:, n0 : n0 + cols]
                )
                out[m0 : m0 + rows, n0 : n0 + cols] = stripe
        if activation is not None:
            fn: Callable[[np.ndarray], np.ndarray] = ACTIVATIONS[activation]
            out = fn(out)
        return out, self.gemm_execution(m, n, k)
