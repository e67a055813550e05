"""Cluster sweep: single-replica equivalence anchor, fleet physics,
serialization."""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSweepResult,
    format_cluster_sweep,
    run_cluster_sweep,
)
from repro.core.strategies import Scheme
from repro.cosim import (
    CosimConfig,
    ExpertReplayPlanner,
    SweepInterrupted,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments.config import TenantConfig, TrafficConfig
from repro.faults import interrupt_after
from repro.serving.simulator import CostModel

RATES = [2e4, 1e6, 4e6]
SWEEP_KWARGS = dict(
    n_requests=60, seed=1,
    mean_prompt_tokens=20, mean_decode_tokens=5,
    cosim_config=CosimConfig(max_iterations=16),
)


@pytest.fixture(scope="module")
def cost():
    return CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)


@pytest.fixture(scope="module")
def planner():
    return ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )


CLUSTER = ClusterConfig(
    replicas=(1, 2),
    devices_per_replica=1,
    policies=("replicated",),
    balancer="round_robin",
    activation_bytes_per_token=0,
)


def run_cluster(cost, planner, **overrides):
    return run_cluster_sweep(
        cost, Scheme.MD_LB, planner, RATES, cluster=CLUSTER,
        **dict(SWEEP_KWARGS, **overrides),
    )


@pytest.fixture(scope="module")
def cluster_sweep(cost, planner):
    return run_cluster(cost, planner)


TWO_TENANTS = TrafficConfig(
    tenants=(
        TenantConfig(name="chat", share=0.6, mean_prompt_tokens=8,
                     mean_decode_tokens=10, slo_p99_ms=1.0),
        TenantConfig(name="batch", share=0.4, mean_prompt_tokens=30,
                     mean_decode_tokens=2),
    )
)


@pytest.mark.parametrize(
    ("engine", "traffic"),
    [("fifo", None), ("fifo", TWO_TENANTS),
     ("batching", None), ("batching", TWO_TENANTS)],
    ids=["fifo-legacy", "fifo-tenants", "batching-legacy", "batching-tenants"],
)
def test_single_replica_bit_identical_to_cosim_sweep(cost, planner, engine, traffic):
    """The pinned equivalence anchor: one replica, replicated sharding,
    one device, zero activation bytes reproduces the single-device
    sweep bit for bit -- same SweepPoint dataclasses, field by field --
    under either engine, with or without a tenant mix."""
    kwargs = dict(
        SWEEP_KWARGS,
        cosim_config=CosimConfig(max_iterations=16, engine=engine),
        traffic=traffic,
    )
    single, _ = run_load_sweep(cost, Scheme.MD_LB, planner, RATES, **kwargs)
    result, _ = run_cluster_sweep(
        cost, Scheme.MD_LB, planner, RATES,
        cluster=ClusterConfig(replicas=(1,), policies=("replicated",)),
        **kwargs,
    )
    anchor = result.curve(1, "replicated")
    assert anchor.points == single.points


def test_replicas_add_capacity(cluster_sweep):
    """Two replicas split the same offered load, so every grid point's
    fleet tail is no worse than the single replica's and the SLO
    capacity is monotone non-decreasing in replica count."""
    result, _ = cluster_sweep
    one = result.curve(1, "replicated")
    two = result.curve(2, "replicated")
    assert len(two.points) == len(RATES)
    for p1, p2 in zip(one.points, two.points):
        assert p2.rate == p1.rate
        assert p2.closed_p99 <= p1.closed_p99
    assert two.slo_capacity_rps >= one.slo_capacity_rps
    # The saturating top rate is where replication actually pays.
    assert two.points[-1].closed_p99 < one.points[-1].closed_p99


def test_shared_slo_and_devices_for_load(cluster_sweep):
    result, _ = cluster_sweep
    assert result.slo_p99_seconds > 0.0
    assert result.slo_auto
    # The lowest rate is sustained by the smallest fleet swept.
    assert result.devices_for_load(RATES[0]) == 1
    # An absurd offered load is beyond every curve.
    assert result.devices_for_load(1e12) is None
    with pytest.raises(KeyError):
        result.curve(3, "replicated")


def test_json_round_trip(cluster_sweep, tmp_path):
    result, _ = cluster_sweep
    path = tmp_path / "cluster.json"
    result.save(path)
    loaded = ClusterSweepResult.load(path)
    assert loaded.scheme == result.scheme
    assert loaded.cluster == result.cluster
    assert loaded.slo_p99_seconds == result.slo_p99_seconds
    assert [c.replicas for c in loaded.curves] == [c.replicas for c in result.curves]
    for got, want in zip(loaded.curves, result.curves):
        assert got.policy == want.policy
        assert got.slo_capacity_rps == want.slo_capacity_rps
        assert got.points == want.points


def test_version_and_kind_rejection(cluster_sweep, tmp_path):
    result, _ = cluster_sweep
    doc = result.to_dict()
    doc["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        ClusterSweepResult.load(path)
    doc["version"] = 1
    doc["kind"] = "cosim_sweep"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="cluster sweep"):
        ClusterSweepResult.load(path)


def test_format_cluster_sweep(cluster_sweep):
    result, _ = cluster_sweep
    table = format_cluster_sweep(result)
    assert "replicas" in table and "slo cap (req/s)" in table
    assert "replicated" in table


def test_validation(cost, planner):
    with pytest.raises(ValueError, match="rates"):
        run_cluster_sweep(cost, Scheme.MD_LB, planner, [])
    with pytest.raises(ValueError, match="sorted"):
        run_cluster_sweep(cost, Scheme.MD_LB, planner, [2.0, 1.0])
    with pytest.raises(ValueError, match="planner"):
        run_cluster_sweep(cost, Scheme.MD_LB, None, [1.0])


def test_interrupted_cluster_sweep_resumes_identically(
    cost, planner, cluster_sweep, tmp_path
):
    """The cluster grid rides the same checkpoint/resume path as the
    single-device sweep: an interrupted run leaves its sidecar, and
    resuming reproduces the uninterrupted document exactly."""
    ckpt = tmp_path / "cluster.sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run_cluster(cost, planner, checkpoint_path=ckpt, on_point=interrupt_after(1))
    assert ckpt.exists()
    resumed, _ = run_cluster(cost, planner, checkpoint_path=ckpt, resume=True)
    baseline, _ = cluster_sweep
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())
    assert not ckpt.exists()


def test_cosim_sidecar_rejected_by_cluster_sweep(cost, planner, tmp_path):
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run_load_sweep(
            cost, Scheme.MD_LB, planner, RATES, checkpoint_path=ckpt,
            on_point=interrupt_after(1), **SWEEP_KWARGS,
        )
    with pytest.raises(ValueError, match="not a sweep checkpoint"):
        run_cluster(cost, planner, checkpoint_path=ckpt, resume=True)


def test_pooled_cluster_sweep_matches_serial(cost, planner, cluster_sweep):
    pooled, _ = run_cluster(cost, planner, workers=2)
    baseline, _ = cluster_sweep
    assert json.dumps(pooled.to_dict()) == json.dumps(baseline.to_dict())


def test_run_experiment_forwards_on_point_in_cluster_mode():
    from repro.experiments import get_preset, run_experiment

    config = get_preset("cluster_smoke").replaced(
        rates=(2e4, 1e6), n_requests=20,
        cluster=ClusterConfig(replicas=(1,), policies=("replicated",)),
    )
    with pytest.raises(SweepInterrupted):
        run_experiment(config, on_point=interrupt_after(1))


def test_batching_cluster_config_records_batching_knobs(cost, planner):
    result, _ = run_cluster_sweep(
        cost, Scheme.MD_LB, planner, [2e4],
        cluster=ClusterConfig(replicas=(1,), policies=("replicated",)),
        n_requests=20,
        cosim_config=CosimConfig(engine="batching", max_batch=4),
    )
    config = result.config
    assert config["engine"] == "batching"
    assert config["max_batch"] == 4
    for knob in ("priority", "prefill_token_budget", "decode_marginal_fraction"):
        assert knob in config
    assert config["rates"] == [2e4]


def test_single_run_surcharges_pass_through_unweighted(cluster_sweep):
    """Token-weighting one run's surcharge (v * t / t) can round away
    from v, so a single run must report its own values exactly -- the
    1-replica anchor depends on it."""
    from dataclasses import replace

    from repro.cosim.sweep import _point_from_runs

    _, runs = cluster_sweep
    run = runs[(1, "replicated")][0]
    tokens = float(sum(
        c.request.prompt_tokens + c.request.decode_tokens
        for c in run.closed_loop.completed
    ))
    v = next(
        0.1 * k for k in range(1, 1000) if 0.1 * k * tokens / tokens != 0.1 * k
    )
    point = _point_from_runs(
        RATES[0],
        [replace(run, extra_seconds_per_token=v, extra_prefill_seconds_per_token=v,
                 extra_decode_seconds_per_token=v)],
    )
    assert point.extra_seconds_per_token == v
    assert point.extra_prefill_seconds_per_token == v
    assert point.extra_decode_seconds_per_token == v
