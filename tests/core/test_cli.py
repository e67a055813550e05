"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_characterize(capsys):
    assert main(["characterize"]) == 0
    out = capsys.readouterr().out
    assert "Switch-Large-128" in out and "NLLB-MoE" in out
    assert "transfer ms" in out


def test_area_power(capsys):
    assert main(["area-power"]) == 0
    out = capsys.readouterr().out
    assert "systolic_pe" in out
    assert "1.6%" in out


def test_skew(capsys):
    assert main(["skew", "--workload", "flores", "--batch", "1"]) == 0
    out = capsys.readouterr().out
    assert "active" in out and "128+" in out


def test_evaluate_small(capsys):
    assert main([
        "evaluate", "--workload", "xsum", "--batch", "1", "--decode-steps", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "md+lb" in out and "vs Ideal" in out
    assert "MD+LB over GPU+PM" in out


def test_dram(capsys):
    assert main(["dram"]) == 0
    out = capsys.readouterr().out
    assert "sequential-read" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


COSIM_SMALL = [
    "--encode-us", "0.002", "--decode-us", "0.02", "--small-dram",
    "--bytes-per-token", "8192", "--max-blocks", "512",
    "--mean-prompt-tokens", "20", "--mean-decode-tokens", "5",
    "--requests", "30", "--max-iters", "12",
]


def test_cosim_single_run(capsys, tmp_path):
    trace = tmp_path / "cosim.dramtrace"
    code = main(
        ["cosim", "--rate", "1e6", "--export-trace", str(trace)] + COSIM_SMALL
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "closed-loop p99" in out
    assert "converged" in out
    assert "exported" in out
    from repro.workloads.trace_io import read_header

    _, n = read_header(trace)
    assert n > 0


def test_cosim_sweep(capsys, tmp_path):
    from repro.cosim import SweepResult

    output = tmp_path / "sweep.json"
    code = main(
        ["cosim", "sweep", "--rates", "2e4,1e6", "--output", str(output)]
        + COSIM_SMALL
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "closed p99" in out
    loaded = SweepResult.load(output)
    assert [p.rate for p in loaded.points] == [2e4, 1e6]


def test_cosim_mismatched_cost_flags(capsys):
    assert main(["cosim", "--encode-us", "1.0"]) == 2
    assert "together" in capsys.readouterr().err


def test_cosim_preset_and_config_are_exclusive(capsys, tmp_path):
    assert main(["cosim", "sweep", "--preset", "smoke", "--config", "x.json"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["cosim", "sweep", "--config", str(tmp_path / "no.json")]) == 2


def test_cosim_preset_flag_overrides(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    code = main([
        "cosim", "sweep", "--preset", "smoke",
        "--rates", "2e4,1e6", "--requests", "30", "--output", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    from repro.cosim import SweepResult

    loaded = SweepResult.load(output)
    assert [p.rate for p in loaded.points] == [2e4, 1e6]
    assert loaded.n_requests == 30


def test_cluster_sweep_from_config_file(capsys, tmp_path):
    from repro.cluster import ClusterSweepResult
    from repro.experiments import get_preset

    config = tmp_path / "cluster.json"
    get_preset("cluster_smoke").replaced(
        rates=(2e4, 1e6), n_requests=30
    ).save(config)
    output = tmp_path / "cluster_sweep.json"
    code = main([
        "cluster", "sweep", "--config", str(config),
        "--replicas", "1,2", "--policies", "replicated",
        "--output", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "slo cap (req/s)" in out
    loaded = ClusterSweepResult.load(output)
    assert [c.replicas for c in loaded.curves] == [1, 2]
    assert all(len(c.points) == 2 for c in loaded.curves)


def test_cluster_sweep_rejects_export_trace(capsys, tmp_path):
    """A merged multi-replica point has no single DRAM trace, so the
    flag is refused up front instead of being silently ignored."""
    trace = tmp_path / "cluster.dramtrace"
    code = main([
        "cluster", "sweep", "--preset", "cluster_smoke",
        "--export-trace", str(trace), "--output", str(tmp_path / "c.json"),
    ])
    assert code == 2
    assert "--export-trace" in capsys.readouterr().err
    assert not trace.exists()


def _small_cluster_config(tmp_path):
    from repro.experiments import get_preset

    config = tmp_path / "cluster.json"
    get_preset("cluster_smoke").replaced(rates=(2e4, 1e6), n_requests=30).save(config)
    return str(config)


def test_cluster_sweep_reports_unconverged_points(capsys, tmp_path):
    """One iteration cannot reach a fixed point: each such point gets a
    stderr line, the table counts them, and a curve whose lowest rate
    did not converge fails the run."""
    code = main([
        "cluster", "sweep", "--config", _small_cluster_config(tmp_path),
        "--replicas", "1", "--policies", "replicated", "--max-iters", "1",
        "--output", str(tmp_path / "c.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "unconv pts" in captured.out
    assert captured.err.count("did not converge") == 2


def test_cosim_sweep_of_cluster_config_runs_single_device(capsys, tmp_path):
    from repro.cosim import SweepResult

    output = tmp_path / "sweep.json"
    code = main([
        "cosim", "sweep", "--config", _small_cluster_config(tmp_path),
        "--output", str(output),
    ])
    assert code == 0, capsys.readouterr().err
    assert [p.rate for p in SweepResult.load(output).points] == [2e4, 1e6]
