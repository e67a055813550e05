"""Replica-count x sharding-policy capacity sweep.

The millions-of-users question asked directly: for each (replica
count, sharding policy) pair in the grid, run the closed
serving<->DRAM loop at every offered load -- requests split across
replicas by the balancer, each replica's experts sharded across its
NDP devices by the policy, per-device contention and inter-device
activation transfers fed back through the fixed point -- and read off
the SLO capacity ("max req/s with closed p99 under X seconds") per
curve.  The capacity-vs-replicas table answers *how many devices serve
offered load R at p99 <= X*.

Degenerate anchor: one replica, ``replicated`` sharding, one device
per replica, zero activation bytes is bit-identical to
:func:`repro.cosim.sweep.run_load_sweep` on the same arguments (the
equivalence CI asserts it), so cluster curves and single-device curves
live on the same scale.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.analysis.report import format_table
from repro.core.strategies import Scheme
from repro.serving.simulator import CostModel
from repro.util.atomic_io import atomic_write_json
from repro.workloads.serialization import check_format_version

from repro.cluster.balancer import assign_replicas
from repro.cluster.backend import ShardedDramBackend
from repro.cluster.config import ClusterConfig
from repro.cosim.driver import CosimConfig, CosimDriver, CosimResult
from repro.cosim.sweep import SweepPoint, _point_from_runs, _run_grid

CLUSTER_SWEEP_FORMAT_VERSION = 1


@dataclass
class ClusterCurve:
    """One (replica count, sharding policy) capacity curve."""

    replicas: int
    policy: str
    points: list[SweepPoint] = field(default_factory=list)
    #: max sustained req/s with fleet closed p99 under the shared SLO
    slo_capacity_rps: float = 0.0


@dataclass
class ClusterSweepResult:
    """A full replica x policy x rate grid, serializable."""

    scheme: str
    arrival: str
    n_requests: int
    seed: int
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    curves: list[ClusterCurve] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    #: shared closed-loop p99 threshold all curves were read against
    slo_p99_seconds: float = 0.0
    slo_auto: bool = True
    #: per-tenant closed-loop p99 SLO thresholds (milliseconds) from
    #: the traffic scenario, keyed by tenant name (empty when the
    #: sweep ran without tenants)
    tenant_slo_p99_ms: dict = field(default_factory=dict)

    def curve(self, replicas: int, policy: str) -> ClusterCurve:
        for c in self.curves:
            if c.replicas == replicas and c.policy == policy:
                return c
        raise KeyError(f"no curve for replicas={replicas} policy={policy!r}")

    def devices_for_load(
        self, rate: float, policy: Optional[str] = None
    ) -> Optional[int]:
        """Smallest device count whose curve sustains ``rate`` within
        the SLO (``replicas * devices_per_replica``), or ``None`` if
        no swept size does."""
        best: Optional[int] = None
        for c in self.curves:
            if policy is not None and c.policy != policy:
                continue
            if c.slo_capacity_rps >= rate:
                devices = c.replicas * self.cluster.devices_per_replica
                if best is None or devices < best:
                    best = devices
        return best

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": CLUSTER_SWEEP_FORMAT_VERSION,
            "kind": "cluster_sweep",
            "scheme": self.scheme,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "slo_p99_seconds": self.slo_p99_seconds,
            "slo_auto": self.slo_auto,
            "tenant_slo_p99_ms": self.tenant_slo_p99_ms,
            "cluster": self.cluster.to_dict(),
            "config": self.config,
            "curves": [
                {
                    "replicas": c.replicas,
                    "policy": c.policy,
                    "slo_capacity_rps": c.slo_capacity_rps,
                    "points": [asdict(p) for p in c.points],
                }
                for c in self.curves
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSweepResult":
        check_format_version(
            data.get("version"), CLUSTER_SWEEP_FORMAT_VERSION, "cluster sweep"
        )
        if data.get("kind") != "cluster_sweep":
            raise ValueError(
                f"not a cluster sweep document (kind={data.get('kind')!r})"
            )
        return cls(
            scheme=data["scheme"],
            arrival=data["arrival"],
            n_requests=int(data["n_requests"]),
            seed=int(data["seed"]),
            slo_p99_seconds=float(data.get("slo_p99_seconds", 0.0)),
            slo_auto=bool(data.get("slo_auto", True)),
            tenant_slo_p99_ms=dict(data.get("tenant_slo_p99_ms", {})),
            cluster=ClusterConfig.from_dict(data.get("cluster", {})),
            config=dict(data.get("config", {})),
            curves=[
                ClusterCurve(
                    replicas=int(c["replicas"]),
                    policy=str(c["policy"]),
                    slo_capacity_rps=float(c.get("slo_capacity_rps", 0.0)),
                    points=[SweepPoint(**p) for p in c["points"]],
                )
                for c in data.get("curves", [])
            ],
        )

    def save(self, path) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ClusterSweepResult":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def format_cluster_sweep(result: ClusterSweepResult) -> str:
    """Capacity table: one row per (replicas, policy) curve, plus the
    device-count answer at each curve's knee and the curve's failed and
    unconverged (completed, but not at a fixed point) point counts."""
    rows = []
    for c in result.curves:
        worst = max((p.closed_p99 for p in c.points if not p.failed), default=0.0)
        rows.append(
            [
                c.replicas,
                c.replicas * result.cluster.devices_per_replica,
                c.policy,
                c.slo_capacity_rps,
                worst,
                sum(1 for p in c.points if p.failed),
                sum(1 for p in c.points if not (p.failed or p.converged)),
            ]
        )
    header = [
        "replicas",
        "devices",
        "policy",
        "slo cap (req/s)",
        "worst closed p99",
        "failed pts",
        "unconv pts",
    ]
    return format_table(header, rows)


def run_cluster_sweep(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    rates: list[float],
    cluster: Optional[ClusterConfig] = None,
    n_requests: int = 100,
    seed: int = 0,
    arrival: str = "poisson",
    mean_prompt_tokens: int = 512,
    mean_decode_tokens: int = 32,
    cosim_config: Optional[CosimConfig] = None,
    slo_p99_seconds: Optional[float] = None,
    on_point: Optional[Callable[[float, SweepPoint], None]] = None,
    traffic=None,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
) -> tuple[ClusterSweepResult, dict[tuple[int, str], list[Optional[CosimResult]]]]:
    """Sweep the full replica x policy x rate grid.

    Every (curve, rate) point regenerates the request stream with the
    *same* seeded generator the single-device sweep uses -- offered
    load is a property of the outside world, not of the fleet shape --
    then splits it across replicas with the configured balancer and
    runs each replica's closed loop on its own
    :class:`~repro.cluster.backend.ShardedDramBackend`.  Per-curve SLO
    capacities are read against one shared threshold (given, or
    auto-derived from the *first* curve's lowest-rate point) so curves
    are comparable.

    Returns the serializable result plus per-curve lists of the live
    per-rate :class:`CosimResult` s (single-replica curves; multi-
    replica rates carry ``None`` -- their per-replica runs were merged
    into the recorded point).

    The grid runs through the same loop as
    :func:`~repro.cosim.sweep.run_load_sweep`, so ``traffic``,
    ``workers``, ``checkpoint_path``, ``resume`` and ``on_point(rate,
    point)`` mean exactly what they mean there; the checkpoint
    fingerprint adds the cluster config, so a resume against a
    different fleet (or a single-device sidecar) is rejected.
    """
    if planner is None:
        raise ValueError("cluster sweeps need a replay planner")
    cluster = cluster or ClusterConfig()
    curves = [
        {"replicas": n_replicas, "policy": policy}
        for policy in cluster.policies
        for n_replicas in cluster.replicas
    ]
    common, grid = _run_grid(
        _run_cluster_point,
        cost_model,
        scheme,
        planner,
        cosim_config or CosimConfig(),
        curves,
        rates,
        dict(
            n_requests=n_requests,
            seed=seed,
            arrival=arrival,
            mean_prompt_tokens=mean_prompt_tokens,
            mean_decode_tokens=mean_decode_tokens,
            traffic=traffic,
        ),
        kind="cluster_sweep",
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        on_point=on_point,
        slo_p99_seconds=slo_p99_seconds,
        point_args=(cluster,),
        identity={"cluster": cluster.to_dict()},
    )
    common["config"]["rates"] = [float(r) for r in rates]
    result = ClusterSweepResult(**common, cluster=cluster)
    runs_by_curve: dict[tuple[int, str], list[Optional[CosimResult]]] = {}
    for curve, (points, capacity, runs) in zip(curves, grid):
        result.curves.append(
            ClusterCurve(**curve, points=points, slo_capacity_rps=capacity)
        )
        runs_by_curve[(curve["replicas"], curve["policy"])] = runs
    return result, runs_by_curve


def _run_cluster_point(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    cfg: CosimConfig,
    cluster: ClusterConfig,
    n_replicas: int,
    policy: str,
    rate: float,
    requests,
    traffic=None,
) -> tuple[SweepPoint, Optional[CosimResult]]:
    """One (curve, rate) point: balance, run each replica's closed
    loop, merge."""
    assignment = assign_replicas(
        requests,
        n_replicas,
        cluster.balancer,
        cost_model=cost_model,
        planner=planner,
    )
    runs: list[CosimResult] = []
    for replica in range(n_replicas):
        subset = [r for r, a in zip(requests, assignment) if a == replica]
        if not subset:
            continue
        backend = ShardedDramBackend(
            planner.config,
            n_devices=cluster.devices_per_replica,
            policy=policy,
            planner=planner,
            window=cfg.scheduler_window,
            activation_bytes_per_token=cluster.activation_bytes_per_token,
            hot_fraction=cluster.hot_fraction,
            dram_workers=cfg.dram_workers,
        )
        driver = CosimDriver(
            cost_model, scheme, planner, config=cfg, backend=backend
        )
        try:
            runs.append(driver.run(subset))
        finally:
            backend.close()
    if not runs:
        raise ValueError(f"no replica received requests at rate {rate}")
    # Single-replica curves keep their live run (the bit-identity
    # anchor against the single-device sweep); merged points have none.
    live = runs[0] if len(runs) == 1 else None
    return _point_from_runs(rate, runs, traffic), live
