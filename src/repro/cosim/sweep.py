"""Offered-load sweep over the closed serving <-> DRAM loop.

Drives :class:`~repro.cosim.driver.CosimDriver` across an
arrival-rate grid and records, per rate, the open-loop (iteration-0)
and converged closed-loop serving latency curves plus the DRAM-side
queueing measurements -- the memory-level tail-latency hockey stick.
Results serialize to a versioned JSON document (same versioning
conventions as :mod:`repro.workloads.serialization`) and render as a
table via :mod:`repro.analysis.report`.

Fault tolerance: with a ``checkpoint_path``, every completed rate
point is durably appended to a ``*.sweep.ckpt`` sidecar (JSONL, one
fsynced line per point) the moment it finishes, SIGINT/SIGTERM raise
:class:`SweepInterrupted` *between* points (never mid-checkpoint), and
``resume=True`` loads the checkpoint, skips its completed points, and
produces output bit-identical to an uninterrupted sweep -- each point
is seeded independently, so partial progress composes exactly.  A
point that *fails* (its cosim run raises) is isolated: it is recorded
as a ``failed`` point with the error string and the sweep continues.
The same grid loop (:func:`_run_grid`) runs
:func:`repro.cluster.sweep.run_cluster_sweep`, whose grid points are
(replicas, policy, rate) rather than rates.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import pathlib
import signal
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.core.strategies import Scheme
from repro.serving.simulator import CostModel
from repro.serving.workload import RequestGenerator
from repro.util.atomic_io import atomic_write_json, durable_append
from repro.workloads.serialization import check_format_version

from repro.cosim.driver import CosimConfig, CosimDriver, CosimResult

SWEEP_FORMAT_VERSION = 1
SWEEP_CKPT_VERSION = 1
SWEEP_CKPT_SUFFIX = ".sweep.ckpt"

logger = logging.getLogger(__name__)


class SweepInterrupted(RuntimeError):
    """A load sweep stopped early -- a SIGINT/SIGTERM landed between
    rate points, or an injected interruption fired.  Every completed
    point was already durably checkpointed when this is raised, so
    rerunning with ``resume=True`` continues where the sweep left
    off."""


@dataclass(frozen=True)
class SweepPoint:
    """One offered-load point: open-loop vs converged closed-loop."""

    rate: float
    open_p50: float
    open_p99: float
    open_max: float
    closed_p50: float
    closed_p99: float
    closed_max: float
    utilization: float
    completed: int
    rejected: int
    n_iterations: int
    converged: bool
    extra_seconds_per_token: float
    dram_queue_delay_mean: float
    dram_queue_delay_p99: float
    dram_idle_cycles: int
    dram_total_cycles: int
    # Additive fields with defaults (same format version: old readers
    # never see them missing, old documents load with the defaults).
    #: |measured - applied| surcharge of the reported iterate; sizes
    #: how far from a true fixed point a non-converged point stopped
    residual_seconds_per_token: float = 0.0
    #: True when this point's cosim run raised instead of completing
    #: (all metric fields are zero); the sweep carried on without it
    failed: bool = False
    #: the raising exception, as ``TypeName: message`` (empty if ok)
    error: str = ""
    # Per-phase closed-loop latency columns (batching engine; the
    # fifo path fills TTFT/queue-delay from its coalesced steps and
    # leaves the surcharge split at zero).
    #: closed-loop time-to-first-token p99 (seconds)
    closed_ttft_p99: float = 0.0
    #: closed-loop admission-delay p99 (seconds)
    closed_queue_delay_p99: float = 0.0
    #: closed-loop per-output-token decode latency p99 (seconds)
    closed_tpot_p99: float = 0.0
    #: distinct per-phase surcharges of the reported iterate
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0
    # Traffic-scenario columns (populated only for sweeps driven by an
    # active repro.traffic configuration; empty/zero otherwise).
    #: per-tenant closed-loop latency p99 (seconds), keyed by tenant
    tenant_closed_p99: dict = field(default_factory=dict)
    #: per-tenant completed-request counts, keyed by tenant
    tenant_completed: dict = field(default_factory=dict)
    #: closed-loop latency p99 of requests arriving inside the
    #: flash-crowd window (flash_crowd shapes only)
    closed_flash_p99: float = 0.0
    #: closed-loop latency p99 of requests arriving outside the window
    closed_steady_p99: float = 0.0


@dataclass
class SweepResult:
    """A full rate grid, serializable and renderable."""

    scheme: str
    arrival: str
    n_requests: int
    seed: int
    points: list[SweepPoint] = field(default_factory=list)
    #: free-form provenance (cost model, planner geometry, loop knobs)
    config: dict = field(default_factory=dict)
    # Additive fields with defaults (format version unchanged).
    #: serving model the sweep ran: "fifo" or "batching"
    engine: str = "fifo"
    #: closed-loop p99 threshold the capacity answer used (seconds;
    #: auto-derived as 5x the lowest-rate closed p99 unless given)
    slo_p99_seconds: float = 0.0
    #: max sustained offered load with closed p99 under the threshold
    #: (req/s, linearly interpolated to the crossing; 0 when even the
    #: lowest grid rate violates the SLO)
    slo_capacity_rps: float = 0.0
    #: True when the threshold was auto-derived rather than user-given
    slo_auto: bool = True
    #: per-tenant closed-loop p99 SLO thresholds (milliseconds) from
    #: the traffic scenario, keyed by tenant name (empty when the
    #: sweep ran without tenants)
    tenant_slo_p99_ms: dict = field(default_factory=dict)

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SWEEP_FORMAT_VERSION,
            "kind": "cosim_sweep",
            "scheme": self.scheme,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "engine": self.engine,
            "slo_p99_seconds": self.slo_p99_seconds,
            "slo_capacity_rps": self.slo_capacity_rps,
            "slo_auto": self.slo_auto,
            "tenant_slo_p99_ms": self.tenant_slo_p99_ms,
            "config": self.config,
            "points": [asdict(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        check_format_version(data.get("version"), SWEEP_FORMAT_VERSION, "cosim sweep")
        if data.get("kind") != "cosim_sweep":
            raise ValueError(
                f"not a cosim sweep document (kind={data.get('kind')!r})"
            )
        return cls(
            scheme=data["scheme"],
            arrival=data["arrival"],
            n_requests=int(data["n_requests"]),
            seed=int(data["seed"]),
            engine=str(data.get("engine", "fifo")),
            slo_p99_seconds=float(data.get("slo_p99_seconds", 0.0)),
            slo_capacity_rps=float(data.get("slo_capacity_rps", 0.0)),
            slo_auto=bool(data.get("slo_auto", True)),
            tenant_slo_p99_ms=dict(data.get("tenant_slo_p99_ms", {})),
            config=dict(data.get("config", {})),
            points=[SweepPoint(**p) for p in data["points"]],
        )

    def save(self, path) -> None:
        # Atomic + durable: a sweep that ran for hours never loses its
        # previous result to a crash mid-serialize.
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "SweepResult":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def format_sweep(result: SweepResult) -> str:
    """The hockey-stick table: open vs closed tails across the grid,
    with the closed loop's per-phase tails (TTFT, queue delay)."""
    rows = []
    for p in result.points:
        rows.append(
            [
                p.rate,
                p.open_p50,
                p.open_p99,
                p.closed_p50,
                p.closed_p99,
                p.closed_ttft_p99,
                p.closed_queue_delay_p99,
                round(p.closed_p99 / p.open_p99, 3) if p.open_p99 > 0 else 1.0,
                p.n_iterations,
                "FAILED" if p.failed else ("yes" if p.converged else "NO"),
                round(p.dram_queue_delay_p99, 1),
                p.dram_idle_cycles,
            ]
        )
    header = [
        "req/s",
        "open p50",
        "open p99",
        "closed p50",
        "closed p99",
        "ttft p99",
        "qdelay p99",
        "p99 ratio",
        "iters",
        "conv",
        "dram qd p99",
        "dram idle",
    ]
    return format_table(header, rows)


def slo_capacity(points: list[SweepPoint], p99_threshold: float) -> float:
    """Max sustained offered load (req/s) whose closed-loop p99 stays
    under ``p99_threshold`` seconds.

    Walks the (ascending) rate grid to the first point violating the
    threshold and interpolates the crossing rate linearly between the
    last compliant point and the violator -- the standard way an SLO
    capacity is read off a load-sweep curve.  Returns the highest grid
    rate when every point complies, and 0.0 when even the lowest rate
    violates (failed points are treated as violations).
    """
    if p99_threshold <= 0:
        raise ValueError("p99_threshold must be positive")
    last_ok: Optional[SweepPoint] = None
    for p in points:
        if p.failed or p.closed_p99 >= p99_threshold:
            if last_ok is None:
                return 0.0
            if p.failed or p.closed_p99 <= last_ok.closed_p99:
                return last_ok.rate
            frac = (p99_threshold - last_ok.closed_p99) / (
                p.closed_p99 - last_ok.closed_p99
            )
            return last_ok.rate + frac * (p.rate - last_ok.rate)
        last_ok = p
    return last_ok.rate if last_ok is not None else 0.0


def _requests(
    rate: float,
    n_requests: int,
    seed: int,
    arrival: str,
    mean_prompt_tokens: int,
    mean_decode_tokens: int,
    traffic=None,
):
    """One grid point's request stream.

    Offered load is a property of the outside world, not of the fleet
    shape: every point at ``rate`` regenerates the same seeded stream,
    whichever sweep or curve it belongs to.  An active ``traffic``
    config (tenants / load shape) swaps generation to
    :func:`repro.traffic.generate.generate_requests`; ``traffic=None``
    keeps the legacy single-tenant stream exactly.
    """
    if traffic is not None:
        from repro.traffic.generate import generate_requests

        return generate_requests(
            rate,
            n_requests,
            mean_prompt_tokens=mean_prompt_tokens,
            mean_decode_tokens=mean_decode_tokens,
            seed=seed,
            arrival=arrival,
            traffic=traffic,
        )
    return RequestGenerator(
        rate,
        mean_prompt_tokens=mean_prompt_tokens,
        mean_decode_tokens=mean_decode_tokens,
        seed=seed,
        arrival=arrival,
    ).generate(n_requests)


def _run_rate_point(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    cfg: CosimConfig,
    rate: float,
    requests,
    traffic=None,
) -> tuple[SweepPoint, CosimResult]:
    """Run the closed loop at one offered-load point.

    With ``planner=None`` the point runs serving-only (open loop, no
    DRAM feedback): the configured engine simulates the rate once and
    the result is wrapped as a trivially-converged
    :class:`CosimResult` whose open and closed loops coincide -- the
    engine-aware successor of the old standalone serving load sweep
    (the removed ``repro.serving.load_sweep``).
    """
    if planner is None:
        from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel
        from repro.serving.simulator import ServingSimulator

        if cfg.engine == "batching":
            serving = BatchingEngine(
                PhaseCostModel.from_cost_model(
                    cost_model,
                    decode_marginal_fraction=cfg.decode_marginal_fraction,
                ),
                scheme,
                BatchConfig(
                    max_batch=cfg.max_batch,
                    prefill_token_budget=cfg.prefill_token_budget,
                    priority=cfg.priority,
                    queue_limit=cfg.queue_limit,
                ),
            ).run(requests)
        else:
            serving = ServingSimulator(
                cost_model, scheme, queue_limit=cfg.queue_limit
            ).run(requests)
        run = CosimResult(
            scheme=scheme,
            converged=True,
            open_loop=serving,
            closed_loop=serving,
        )
    else:
        driver = CosimDriver(cost_model, scheme, planner, config=cfg)
        try:
            run = driver.run(requests)
        finally:
            driver.close()
    return _point_from_runs(rate, [run], traffic), run


def _traffic_columns(completed, traffic) -> dict:
    """Per-tenant and flash-window latency columns over one point's
    closed-loop completions.

    Empty when the sweep ran without an active traffic config (the
    legacy path), so the plain columns are untouched.  The flash
    window is expressed in fractions of the request horizon -- the
    same coordinates :class:`~repro.traffic.shapes.FlashCrowdShape`
    warped the arrivals into.
    """
    cols: dict = {}
    if traffic is None or not completed:
        return cols
    if traffic.tenants:
        by_tenant: dict[str, list[float]] = {}
        for c in completed:
            by_tenant.setdefault(c.request.tenant, []).append(c.latency)
        cols["tenant_closed_p99"] = {
            name: float(np.percentile(lats, 99))
            for name, lats in sorted(by_tenant.items())
        }
        cols["tenant_completed"] = {
            name: len(lats) for name, lats in sorted(by_tenant.items())
        }
    if traffic.shape == "flash_crowd":
        horizon = max(c.request.arrival for c in completed)
        lo = traffic.flash_at * horizon
        hi = (traffic.flash_at + traffic.flash_duration) * horizon
        flash = [c.latency for c in completed if lo <= c.request.arrival < hi]
        steady = [
            c.latency for c in completed if not (lo <= c.request.arrival < hi)
        ]
        if flash:
            cols["closed_flash_p99"] = float(np.percentile(flash, 99))
        if steady:
            cols["closed_steady_p99"] = float(np.percentile(steady, 99))
    return cols


def _point_from_runs(rate: float, runs: list[CosimResult], traffic=None) -> SweepPoint:
    """Collapse one rate's closed-loop run(s) -- one per replica --
    into its sweep-grid point.  Latency tails are percentiles over the
    *union* of all replicas' completed requests (a per-replica
    percentile-of-percentiles would understate the fleet tail); a
    single run's fields come through unchanged, so a one-replica
    cluster point is bit-identical to the single-device sweep's."""

    def union(loop: str, value) -> list:
        return [value(c) for run in runs for c in getattr(run, loop).completed]

    def pct(samples, q) -> float:
        return float(np.percentile(samples, q)) if samples else 0.0

    open_lat = union("open_loop", lambda c: c.latency)
    closed_lat = union("closed_loop", lambda c: c.latency)
    tpot = [
        c.tpot
        for run in runs
        for c in run.closed_loop.completed
        if c.request.decode_tokens > 0
    ]
    total_tokens = [
        float(
            sum(
                c.request.prompt_tokens + c.request.decode_tokens
                for c in run.closed_loop.completed
            )
        )
        or 1.0
        for run in runs
    ]
    weight = sum(total_tokens)

    def token_weighted(attr: str) -> float:
        if len(runs) == 1:
            return getattr(runs[0], attr)
        return sum(getattr(r, attr) * t for r, t in zip(runs, total_tokens)) / weight

    lasts = [run.iterations[-1] for run in runs if run.iterations]
    return SweepPoint(
        rate=rate,
        open_p50=pct(open_lat, 50),
        open_p99=pct(open_lat, 99),
        open_max=pct(open_lat, 100),
        closed_p50=pct(closed_lat, 50),
        closed_p99=pct(closed_lat, 99),
        closed_max=pct(closed_lat, 100),
        # Replicas run concurrently; the fleet is as utilized as its
        # average replica.
        utilization=float(np.mean([run.closed_loop.utilization for run in runs])),
        completed=sum(run.closed_loop.n_completed for run in runs),
        rejected=sum(run.closed_loop.rejected for run in runs),
        n_iterations=max(run.n_iterations for run in runs),
        converged=all(run.converged for run in runs),
        extra_seconds_per_token=token_weighted("extra_seconds_per_token"),
        dram_queue_delay_mean=(
            float(np.mean([it.dram_queue_delay_mean for it in lasts]))
            if lasts
            else 0.0
        ),
        dram_queue_delay_p99=(
            max(it.dram_queue_delay_p99 for it in lasts) if lasts else 0.0
        ),
        dram_idle_cycles=sum(it.dram_idle_cycles for it in lasts),
        dram_total_cycles=max(it.dram_total_cycles for it in lasts) if lasts else 0,
        residual_seconds_per_token=max(
            run.residual_seconds_per_token for run in runs
        ),
        closed_ttft_p99=pct(union("closed_loop", lambda c: c.ttft), 99),
        closed_queue_delay_p99=pct(union("closed_loop", lambda c: c.queue_delay), 99),
        closed_tpot_p99=pct(tpot, 99),
        extra_prefill_seconds_per_token=token_weighted(
            "extra_prefill_seconds_per_token"
        ),
        extra_decode_seconds_per_token=token_weighted("extra_decode_seconds_per_token"),
        **_traffic_columns(
            [c for run in runs for c in run.closed_loop.completed], traffic
        ),
    )


def _failed_point(rate: float, exc: BaseException) -> SweepPoint:
    """The all-zero placeholder recorded when one grid point's cosim
    run raises: the failure is named, the sweep goes on."""
    return SweepPoint(
        rate=rate,
        open_p50=0.0,
        open_p99=0.0,
        open_max=0.0,
        closed_p50=0.0,
        closed_p99=0.0,
        closed_max=0.0,
        utilization=0.0,
        completed=0,
        rejected=0,
        n_iterations=0,
        converged=False,
        extra_seconds_per_token=0.0,
        dram_queue_delay_mean=0.0,
        dram_queue_delay_p99=0.0,
        dram_idle_cycles=0,
        dram_total_cycles=0,
        failed=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def load_checkpoint(
    path, fingerprint: dict, kind: str = "cosim_sweep"
) -> dict[tuple, SweepPoint]:
    """Read a ``*.sweep.ckpt`` sidecar; returns completed points keyed
    by grid point (the record's key fields, ending with the rate).

    The checkpoint's ``kind`` must be this sweep's (a cluster sweep
    never resumes from a single-device sidecar, nor the reverse), and
    its fingerprint (scheme / grid / seed / config) must match this
    sweep's exactly -- resuming against a different configuration
    would splice incomparable points into one document.  A torn final
    line (the crash-mid-append shape; each line is fsynced *after* it
    is fully written, so only the tail can tear) is ignored: that
    point simply reruns.
    """
    path = pathlib.Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty sweep checkpoint")
    header = json.loads(lines[0])
    check_format_version(
        header.get("version"), SWEEP_CKPT_VERSION, "sweep checkpoint"
    )
    if header.get("kind") != f"{kind}_ckpt":
        raise ValueError(
            f"{path}: not a sweep checkpoint of this kind "
            f"(kind={header.get('kind')!r}, expected {kind + '_ckpt'!r})"
        )
    if header.get("fingerprint") != fingerprint:
        raise ValueError(
            f"{path}: checkpoint fingerprint does not match this sweep "
            "(different grid, seed, or config); delete the checkpoint or "
            "rerun without resume"
        )
    done: dict[tuple, SweepPoint] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            point = SweepPoint(**record.pop("point"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            if i == len(lines):
                logger.warning(
                    "%s: ignoring torn final checkpoint line (%s); "
                    "that point will rerun",
                    path,
                    exc,
                )
                break
            raise ValueError(f"{path}: corrupt checkpoint line {i}: {exc}") from exc
        done[tuple(record.values())] = point
    return done


def _grid_point(point_fn: Callable, args: tuple, stream: dict):
    """Generate one grid point's request stream and run ``point_fn`` on
    it.  ``args`` ends with the point's rate.  Module-level and built
    only from picklable pieces, so a process-pool worker runs it
    exactly as the serial loop does."""
    return point_fn(*args, _requests(args[-1], **stream), stream["traffic"])


def _pool_worker_init() -> None:
    """Forked pool workers inherit the sweep's raising SIGINT/SIGTERM
    handlers.  Under ``Pool.terminate`` such a worker could turn the
    SIGTERM into a ``SweepInterrupted`` it survives (caught as a task
    failure, or delivered while blocked on a lock), and the pool's
    join then hung.  Restore the defaults: the parent alone turns a
    signal into ``SweepInterrupted``, and SIGTERM ends a worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_grid(
    point_fn: Callable,
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    cfg: CosimConfig,
    curves: list[dict],
    rates: list[float],
    stream: dict,
    *,
    kind: str,
    workers: int,
    checkpoint_path,
    resume: bool,
    on_point: Optional[Callable[[float, SweepPoint], None]],
    slo_p99_seconds: Optional[float],
    point_args: tuple = (),
    identity: Optional[dict] = None,
) -> tuple[dict, list[tuple[list[SweepPoint], float, list[Optional[CosimResult]]]]]:
    """The one sweep loop: every curve in ``curves`` at every rate.

    A grid point is keyed by its curve's values plus its rate
    (``(rate,)`` for the single-device sweep's one empty curve,
    ``(replicas, policy, rate)`` for a cluster curve).  Each point
    regenerates its request stream from ``stream`` (the request
    generator's keyword arguments plus ``traffic``) and calls
    ``point_fn(cost_model, scheme, planner, cfg, *point_args,
    *curve.values(), rate, requests, traffic)``, which returns the
    point's :class:`SweepPoint` and its live :class:`CosimResult` (or
    ``None``).  See :func:`run_load_sweep` for the failure isolation,
    ``workers``, checkpoint/resume and ``on_point`` contract.  The
    checkpoint header carries ``kind`` and a fingerprint of the
    provenance plus ``identity`` (entries that distinguish one grid of
    this kind from another beyond the provenance).

    Returns the result fields both sweep documents share (``scheme``,
    ``arrival``, ``n_requests``, ``seed``, ``config``, the SLO
    threshold, ``tenant_slo_p99_ms``) and, per curve, ``(points,
    slo_capacity_rps, runs)``.  The SLO threshold is given or
    auto-derived as 5x the first curve's lowest-rate closed p99, and
    every curve's capacity is read against it.
    """
    if not rates:
        raise ValueError("rates must be non-empty")
    if sorted(rates) != list(rates):
        raise ValueError("rates must be sorted ascending")
    if workers < 0:
        raise ValueError("workers must be non-negative")
    traffic = stream["traffic"]
    config = {
        "damping": cfg.damping,
        "max_iterations": cfg.max_iterations,
        "p99_tolerance": cfg.p99_tolerance,
        "bytes_per_token": planner.bytes_per_token if planner is not None else 0,
        "max_blocks_per_request": (
            planner.max_blocks_per_request if planner is not None else 0
        ),
        "dram_channels": (
            planner.config.organization.n_channels if planner is not None else 0
        ),
        "encode_seconds_per_token": cost_model.encode_seconds_per_token,
        "decode_seconds_per_token": cost_model.decode_seconds_per_token,
        "mean_prompt_tokens": stream["mean_prompt_tokens"],
        "mean_decode_tokens": stream["mean_decode_tokens"],
        "engine": cfg.engine,
        "serving_only": planner is None,
    }
    if cfg.engine == "batching":
        config.update(
            {
                "max_batch": cfg.max_batch,
                "priority": cfg.priority,
                "prefill_token_budget": cfg.prefill_token_budget,
                "decode_marginal_fraction": cfg.decode_marginal_fraction,
            }
        )
    if traffic is not None:
        # Scenario provenance; key absent on legacy sweeps so their
        # checkpoint fingerprints are unchanged.
        config["traffic"] = traffic.to_dict()
    common = {
        "scheme": scheme.value,
        "arrival": stream["arrival"],
        "n_requests": stream["n_requests"],
        "seed": stream["seed"],
        "config": config,
        "tenant_slo_p99_ms": (
            {t.name: t.slo_p99_ms for t in traffic.tenants}
            if traffic is not None
            else {}
        ),
    }
    fingerprint = {
        "scheme": common["scheme"],
        "arrival": common["arrival"],
        "n_requests": common["n_requests"],
        "seed": common["seed"],
        "rates": [float(r) for r in rates],
        "config": config,
        **(identity or {}),
    }
    names = (*curves[0], "rate")
    keys = [(*curve.values(), rate) for curve in curves for rate in rates]
    done: dict[tuple, SweepPoint] = {}
    if checkpoint_path is not None:
        checkpoint_path = pathlib.Path(checkpoint_path)
        if resume and checkpoint_path.exists():
            done = load_checkpoint(checkpoint_path, fingerprint, kind)
            if done:
                logger.info(
                    "%s: resuming sweep; %d of %d point(s) already complete",
                    checkpoint_path,
                    len(done),
                    len(keys),
                )
    todo = [key for key in keys if key not in done]
    runs: dict[tuple, CosimResult] = {}
    use_pool = workers >= 2 and len(todo) >= 2
    if use_pool:
        # Pool workers are daemonic and cannot spawn the nested DRAM
        # drain pool.
        cfg = dataclasses.replace(cfg, dram_workers=0)
    head = (cost_model, scheme, planner, cfg, *point_args)

    ckpt_fh = None
    if checkpoint_path is not None:
        # Append when resuming onto an existing compatible checkpoint;
        # otherwise start it fresh with a fingerprinted header line.
        if done:
            ckpt_fh = open(checkpoint_path, "ab")
        else:
            ckpt_fh = open(checkpoint_path, "wb")
            header = {
                "version": SWEEP_CKPT_VERSION,
                "kind": f"{kind}_ckpt",
                "fingerprint": fingerprint,
            }
            durable_append(ckpt_fh, (json.dumps(header) + "\n").encode())

    def record(key: tuple, outcome) -> None:
        if isinstance(outcome, BaseException):
            logger.warning(
                "sweep point %s failed: %s",
                " ".join(f"{n}={v}" for n, v in zip(names, key)),
                outcome,
            )
            point = _failed_point(key[-1], outcome)
        else:
            point, run = outcome
            if run is not None:
                runs[key] = run
        done[key] = point
        if ckpt_fh is not None:
            line = {**dict(zip(names, key)), "point": asdict(point)}
            durable_append(ckpt_fh, (json.dumps(line) + "\n").encode())
        if on_point is not None:
            on_point(key[-1], point)

    # SIGINT/SIGTERM land as SweepInterrupted between points (the
    # durable append for the in-flight point either fully happened or
    # the point reruns on resume).  Handlers only exist for the
    # duration of the loop, and only on the main thread -- signal
    # installation is illegal elsewhere.
    installed = []
    if checkpoint_path is not None and (
        threading.current_thread() is threading.main_thread()
    ):

        def _interrupt(signum, frame):
            raise SweepInterrupted(f"received signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((sig, signal.signal(sig, _interrupt)))
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
    try:
        if use_pool:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = ctx.Pool(min(workers, len(todo)), initializer=_pool_worker_init)
            try:
                pending = {
                    key: pool.apply_async(
                        _grid_point, (point_fn, (*head, *key), stream)
                    )
                    for key in todo
                }
                # Checkpoint in completion order (resume assembles the
                # grid order from the keys, so order on disk is
                # irrelevant); a failed point is recorded and skipped.
                while pending:
                    next(iter(pending.values())).wait(0.05)
                    for key in [k for k, ar in pending.items() if ar.ready()]:
                        try:
                            outcome = pending.pop(key).get(0)
                        except SweepInterrupted:
                            raise
                        except Exception as exc:
                            outcome = exc
                        record(key, outcome)
            finally:
                pool.terminate()
                pool.join()
        else:
            for key in todo:
                try:
                    outcome = _grid_point(point_fn, (*head, *key), stream)
                except SweepInterrupted:
                    raise
                except Exception as exc:
                    outcome = exc
                record(key, outcome)
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)
        if ckpt_fh is not None:
            ckpt_fh.close()

    n = len(rates)
    per_curve = [keys[i : i + n] for i in range(0, len(keys), n)]
    anchor = [done[key] for key in per_curve[0] if not done[key].failed]
    threshold, auto = 0.0, True
    if slo_p99_seconds is not None:
        threshold, auto = float(slo_p99_seconds), False
    elif anchor:
        # "How far can load grow before the tail is 5x the uncongested
        # tail" -- anchor on the first curve's lowest-rate point.
        threshold = 5.0 * anchor[0].closed_p99
    common.update(slo_p99_seconds=threshold, slo_auto=auto)
    out = []
    for curve_keys in per_curve:
        points = [done[key] for key in curve_keys]
        ok = [p for p in points if not p.failed]
        capacity = slo_capacity(ok, threshold) if ok and threshold > 0 else 0.0
        out.append((points, capacity, [runs.get(key) for key in curve_keys]))
    if checkpoint_path is not None:
        # The grid is complete; the sidecar has served its purpose.
        checkpoint_path.unlink(missing_ok=True)
    return common, out


def run_load_sweep(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    rates: list[float],
    n_requests: int = 100,
    seed: int = 0,
    arrival: str = "poisson",
    mean_prompt_tokens: int = 512,
    mean_decode_tokens: int = 32,
    cosim_config: Optional[CosimConfig] = None,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
    on_point: Optional[Callable[[float, SweepPoint], None]] = None,
    slo_p99_seconds: Optional[float] = None,
    traffic=None,
) -> tuple[SweepResult, list[Optional[CosimResult]]]:
    """Run the closed loop at every rate in the grid.

    ``planner=None`` runs the grid serving-only (no DRAM feedback):
    every point is a trivially-converged open-loop run of the
    configured engine -- the one sweep implementation behind the
    co-simulation CLI and the serving-only benches.

    The result carries an SLO capacity answer: the max sustained
    offered load whose closed-loop p99 stays under ``slo_p99_seconds``
    (interpolated between grid points; see :func:`slo_capacity`).
    When no threshold is given, one is auto-derived as 5x the
    lowest-rate point's closed p99 -- "how far can load grow before
    the tail is 5x the uncongested tail".

    Returns the serializable :class:`SweepResult` plus the per-rate
    :class:`CosimResult` objects (which keep the full iteration
    history and the final DRAM trace for ``.dramtrace`` export).
    Entries of that list are ``None`` for points restored from a
    checkpoint or recorded as failed -- only freshly-run points carry
    a live :class:`CosimResult`.

    ``workers`` >= 2 runs the (independent) grid points over a process
    pool instead of serially -- each worker gets its own pickled copy
    of the cost model / planner / config, and the per-point seeding is
    identical either way, so the sweep output is bit-identical to the
    serial run.  Pool workers are daemonic and cannot spawn the
    nested DRAM drain pool, so ``dram_workers`` is forced to 0 inside
    parallel grid points (use one or the other level of parallelism).

    ``checkpoint_path`` enables durable progress: each completed point
    is fsync-appended to the sidecar the moment it finishes, SIGINT /
    SIGTERM raise :class:`SweepInterrupted` between points, and
    ``resume=True`` loads matching completed points (fingerprint-
    checked) instead of rerunning them -- the assembled result is
    bit-identical to an uninterrupted sweep.  The sidecar is removed
    once the whole grid completes.  A grid point whose run raises is
    recorded as a ``failed`` point (and checkpointed as such, so
    resume does not retry it); the rest of the sweep continues.
    ``on_point(rate, point)`` is called after each completed point's
    checkpoint is durable -- the hook the fault-injection harness uses
    to interrupt at exact point counts.

    ``traffic`` (a :class:`~repro.experiments.config.TrafficConfig`,
    or ``None``) drives scenario request generation: tenant mixes and
    load shapes swap in :func:`repro.traffic.generate.generate_requests`
    per point, per-tenant / flash-window latency columns are filled,
    and the traffic dict joins the checkpoint fingerprint (so a resume
    against a different scenario is rejected).  ``None`` keeps the
    legacy single-tenant path bit-identical.
    """
    cfg = cosim_config or CosimConfig()
    common, [(points, capacity, runs)] = _run_grid(
        _run_rate_point,
        cost_model,
        scheme,
        planner,
        cfg,
        [{}],
        rates,
        dict(
            n_requests=n_requests,
            seed=seed,
            arrival=arrival,
            mean_prompt_tokens=mean_prompt_tokens,
            mean_decode_tokens=mean_decode_tokens,
            traffic=traffic,
        ),
        kind="cosim_sweep",
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        on_point=on_point,
        slo_p99_seconds=slo_p99_seconds,
    )
    sweep = SweepResult(
        **common, points=points, engine=cfg.engine, slo_capacity_rps=capacity
    )
    return sweep, runs
