"""The benchmark's workloads and the checks on their outputs.

Each workload is a batch job run by one process, one job at a time.
``prepare(seed)`` is the set-up a user pays before the job starts
(preset resolution and component construction; imports happen on the
way in), ``run(prepared, tracer)`` is the timed job, and
``evaluate(prepared, output)`` turns the job's output into operations
-- grid points or figure cells -- each with the failures its checks
found and a JSON value whose digest must repeat exactly between runs of
one commit and seed.  ``nominal_seconds`` is the job's length on the
2-core reference box when the host is not contended; the runner uses
it only to turn ``--seconds`` into a fixed number of jobs per run.

Why these four (see also BENCHMARK.json, which lists all but
``cosim_fifo``; README.md says why):

- ``paper_figs``: the analytical harness behind Figs. 6 and 9; nearly
  all of its time is NDP GEMM costing and it never reaches the DRAM
  controller.
- ``cosim_fifo``: the ``smoke`` preset, the cosim clock; most of its
  time is fixed-point drains, isolation baselines are cached per
  request, and it makes no GEMM calls.
- ``cosim_batching``: the ``decode_heavy`` preset; isolation is
  recalibrated every iteration and the stepped batching engine and
  phase-burst replay run.
- ``cluster_pool``: ``cluster_smoke`` with two drain workers; the only
  workload that reaches the cluster layer and the drain pool.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, replace

HERE = pathlib.Path(__file__).resolve().parent

#: Fig. 6 text-quoted MD+LB-over-GPU+PM averages across B.
PAPER_FIG6 = {
    ("SL-128", "encoder"): 3.1,
    ("SL-128", "decoder"): 1.1,
    ("N-MoE", "encoder"): 6.7,
    ("N-MoE", "decoder"): 1.9,
}
#: Shape bands on those averages (the Fig. 6 harness's bands).
FIG6_BANDS = {
    ("SL-128", "encoder"): (2.0, 7.0),
    ("SL-128", "decoder"): (0.85, 1.6),
    ("N-MoE", "encoder"): (4.0, 12.0),
    ("N-MoE", "decoder"): (1.1, 3.0),
}
PARTS = ("encoder", "decoder")
PINNED_CELLS = HERE / "paper_figs_seed0.json"


@dataclass
class Op:
    """One operation's deterministic output and its check failures."""

    value: object
    failures: list = field(default_factory=list)


def point_id(rate: float, replicas=None, policy=None) -> str:
    """Operation id of a sweep grid point (cluster points name their
    curve too)."""
    if replicas is None:
        return f"rate={rate:g}"
    return f"{replicas}x{policy}/rate={rate:g}"


class CosimWorkload:
    """A preset run through ``run_experiment`` (cosim or cluster mode)."""

    default_seed = 1

    def __init__(self, preset: str, nominal_seconds: float, dram_workers: int = 0) -> None:
        self.preset = preset
        self.nominal_seconds = nominal_seconds
        self.dram_workers = dram_workers

    def prepare(self, seed: int):
        from repro.experiments import runner
        from repro.experiments.presets import get_preset

        config = get_preset(self.preset)
        config = replace(
            config,
            seed=seed,
            loop=replace(config.loop, dram_workers=self.dram_workers),
        )
        # run_experiment builds its own components; building them
        # here too puts their one-time costs (lazy imports, the DRAM
        # config) into set-up rather than into the first timed job.
        runner.build_components(config)
        return config

    def run(self, config, tracer=None):
        from repro.experiments import runner

        return runner.run_experiment(config)

    def evaluate(self, config, output):
        from repro.experiments import runner

        result, runs = output
        cost = runner.build_components(config)[0]
        if config.mode == "cluster":
            curves = [
                ((c.replicas, c.policy), c.points, runs[(c.replicas, c.policy)])
                for c in result.curves
            ]
        else:
            curves = [((), result.points, runs)]
        ops = {}
        for curve, points, curve_runs in curves:
            previous = None
            for point, run in zip(points, curve_runs):
                failures = _point_failures(config, point, run, previous)
                single = not curve or curve[0] == 1
                if config.serving.engine == "fifo" and single and not point.failed:
                    failures += _reference_failures(config, cost, point)
                ops[point_id(point.rate, *curve)] = Op(asdict(point), failures)
                if not point.failed:
                    previous = point
        points = [p for _, pts, _ in curves for p in pts]
        summary = {
            "iterations": sum(p.n_iterations for p in points),
            "unconverged_points": sum(not p.converged for p in points),
            "paper_err_pct": 0.0,
            "notes": [],
        }
        return ops, summary


def _point_failures(config, point, run, previous) -> list:
    if point.failed:
        return [f"point raised: {point.error}"]
    failures = []
    if not point.converged:
        failures.append("fixed point did not converge")
    if point.completed + point.rejected != config.n_requests:
        failures.append(
            f"completed {point.completed} + rejected {point.rejected} "
            f"!= {config.n_requests} requests"
        )
    if point.closed_p99 < point.open_p99:
        failures.append(
            f"closed p99 {point.closed_p99!r} < open p99 {point.open_p99!r}"
        )
    if previous is not None and point.closed_p99 < previous.closed_p99:
        failures.append(
            f"closed p99 fell from {previous.closed_p99!r} at rate "
            f"{previous.rate:g} to {point.closed_p99!r}"
        )
    if run is not None and run.final_trace is not None:
        drained, emitted = run.final_dram_stats.requests, len(run.final_trace)
        if drained != emitted:
            failures.append(
                f"final iterate drained {drained} requests of {emitted} replayed"
            )
    return failures


def _reference_failures(config, cost, point) -> list:
    """Open-loop columns must equal the seed FIFO loop
    (``ReferenceFIFOSimulator``) on the same requests at base cost."""
    from repro.core.strategies import Scheme
    from repro.serving.reference import ReferenceFIFOSimulator
    from repro.serving.workload import RequestGenerator

    requests = RequestGenerator(
        point.rate,
        mean_prompt_tokens=config.serving.mean_prompt_tokens,
        mean_decode_tokens=config.serving.mean_decode_tokens,
        seed=config.seed,
        arrival=config.serving.arrival,
    ).generate(config.n_requests)
    reference = ReferenceFIFOSimulator(
        cost, Scheme(config.scheme), queue_limit=config.serving.queue_limit
    ).run(requests)
    expected = tuple(reference.latency_percentile(q) for q in (50, 99, 100))
    got = (point.open_p50, point.open_p99, point.open_max)
    if got != expected:
        return [f"open-loop p50/p99/max {got!r} != reference FIFO {expected!r}"]
    return []


class PaperFigs:
    """The Fig. 6 grid plus the Fig. 9 four-device point.

    Fig. 6: {SL-128, N-MoE} x B in {1, 4} x {encoder, decoder} x
    {GPU+PM, MD+AM, MD+LB, IDEAL}, 24 decode steps.  Fig. 9: N-MoE at
    B=16, 8 decode steps, GPU+PM on one device against MD+LB on
    ``Platform(n_monde_devices=4)``.  Every cell is a pure function of
    its inputs, so at the default seed each is pinned exactly.

    The Fig. 6 shape bands compare the model with the paper, and the
    paper's numbers come from one routing sample: they are enforced at
    the default seed (the harness's own ``InferenceConfig.seed=0``) and
    reported as notes at any other seed, where ``paper_err_pct`` still
    measures the distance.  The orderings and the Fig. 9 gain hold at
    every seed.
    """

    default_seed = 0
    nominal_seconds = 37.0

    def prepare(self, seed: int):
        from repro.workloads import flores_like, xsum_like

        fig6 = [
            (tag, batch, make(batch=batch))
            for tag, make in (("SL-128", xsum_like), ("N-MoE", flores_like))
            for batch in (1, 4)
        ]
        return seed, fig6, flores_like(batch=16)

    def run(self, prepared, tracer=None):
        from repro.core.engine import Platform
        from repro.core.runtime import InferenceConfig, MoNDERuntime
        from repro.core.strategies import Scheme

        seed, fig6, fig9 = prepared
        cells = {}

        def cell(op, compute):
            if tracer is not None:
                tracer.op = op
            cells[op] = compute()

        for tag, batch, scenario in fig6:
            runtime = MoNDERuntime(
                InferenceConfig(
                    model=scenario.model,
                    batch=batch,
                    decode_steps=24,
                    profile=scenario.profile,
                    seed=seed,
                )
            )
            for part in PARTS:
                # IDEAL first: every later cell's normalization reuses
                # its cached result, so each cell's spans are its own.
                for scheme in (Scheme.IDEAL, Scheme.GPU_PM, Scheme.MD_AM, Scheme.MD_LB):
                    cell(
                        f"fig6/{tag}/B{batch}/{part}/{scheme.value}",
                        lambda: {
                            "seconds": runtime.result(scheme, part).seconds,
                            "normalized": runtime.normalized_throughput(scheme, part),
                        },
                    )
        config = InferenceConfig(
            model=fig9.model, batch=16, decode_steps=8, profile=fig9.profile, seed=seed
        )
        baseline = MoNDERuntime(config)
        devices = MoNDERuntime(config, platform=Platform(n_monde_devices=4))
        for part in PARTS:
            for op, runtime, scheme in (
                (f"fig9/N-MoE/B16/{part}/gpu+pm-1dev", baseline, Scheme.GPU_PM),
                (f"fig9/N-MoE/B16/{part}/md+lb-4dev", devices, Scheme.MD_LB),
            ):
                cell(op, lambda: {"moe_seconds": runtime.result(scheme, part).moe_seconds})
        if tracer is not None:
            tracer.op = ""
        return cells

    def evaluate(self, prepared, cells):
        seed = prepared[0]
        ops = {op: Op(value) for op, value in cells.items()}

        def fail(op_ids, message):
            for op in op_ids:
                ops[op].failures.append(message)

        rows = sorted({op.rsplit("/", 1)[0] for op in cells if op.startswith("fig6/")})
        speedups: dict = {}
        for row in rows:
            _, tag, batch, part = row.split("/")
            ideal, pm, am, lb = (
                f"{row}/{s}" for s in ("ideal", "gpu+pm", "md+am", "md+lb")
            )
            if cells[ideal]["normalized"] != 1.0:
                fail([ideal], "IDEAL is not 1.0 of itself")
            norm = [cells[op]["normalized"] for op in (pm, am, lb)]
            if part == "encoder" and not norm[0] < norm[1] < norm[2] <= 1.0:
                fail([pm, am, lb], f"encoder ordering PM < AM < LB <= 1 broken: {norm}")
            speedups.setdefault((tag, part), []).append(
                (cells[pm]["seconds"] / cells[lb]["seconds"], [pm, lb])
            )
        averages = {}
        notes = []
        pinned_seed = seed == self.default_seed

        def band(op_ids, message):
            if pinned_seed:
                fail(op_ids, message)
            else:
                notes.append(message)

        for key, entries in speedups.items():
            avg = sum(s for s, _ in entries) / len(entries)
            averages[key] = avg
            lo, hi = FIG6_BANDS[key]
            if not lo < avg < hi:
                band(
                    [op for _, ids in entries for op in ids],
                    f"{key} MD+LB/GPU+PM average {avg:.3f} outside ({lo}, {hi})",
                )
        if not averages[("N-MoE", "encoder")] > averages[("SL-128", "encoder")]:
            band(
                [op for _, ids in speedups[("N-MoE", "encoder")] for op in ids],
                "N-MoE encoder gain does not exceed SL-128's",
            )
        for part in PARTS:
            base, multi = (
                f"fig9/N-MoE/B16/{part}/{s}" for s in ("gpu+pm-1dev", "md+lb-4dev")
            )
            if not cells[base]["moe_seconds"] > cells[multi]["moe_seconds"]:
                fail([base, multi], "4-device MD+LB does not beat GPU+PM")
        if pinned_seed:
            pinned = json.loads(PINNED_CELLS.read_text())
            for op, value in cells.items():
                if pinned.get(op) != value:
                    fail([op], f"{value!r} != pinned {pinned.get(op)!r}")
        err = sum(abs(averages[k] - p) / p for k, p in PAPER_FIG6.items())
        summary = {
            "iterations": 0,
            "unconverged_points": 0,
            "paper_err_pct": 100.0 * err / len(PAPER_FIG6),
            "notes": notes,
        }
        return ops, summary


WORKLOADS = {
    "paper_figs": PaperFigs(),
    "cosim_fifo": CosimWorkload("smoke", nominal_seconds=4.5),
    "cosim_batching": CosimWorkload("decode_heavy", nominal_seconds=6.5),
    "cluster_pool": CosimWorkload("cluster_smoke", nominal_seconds=10.5, dram_workers=2),
}
