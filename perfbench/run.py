"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cosim_batching --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the program is imported from
``src/`` of that checkout.

A run makes ``K = max(1, floor(seconds / nominal job seconds))`` jobs,
one per sub-seed ``seed, seed + 1000, ...``; ``K`` depends only on
``--seconds`` and the workload, never on how fast the program is, so
two commits always run the same inputs.  With ``--trace 0`` every job
runs untraced and the end-to-end metrics are printed: the mean job
time, the median set-up time of fresh processes, and the peak
resident memory.  Times are host seconds adjusted for the host's
measured speed (see ``hostspeed.py``); the raw wall clocks are printed
and recorded too.  With ``--trace 1`` the first job runs once
untraced and once traced and the per-layer metrics are printed.
Either way every operation's output is checked, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Spans, per-run records and the determinism ledger are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEED_STRIDE = 1000
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def _source_hash() -> str:
    """Identifies the commit under test: the program's and the
    benchmark's own sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.*")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def _timed(workload, prepared, tracer=None):
    """(host-speed-adjusted seconds, raw seconds, output) of one job."""
    with HostSpeed() as speed:
        start = time.perf_counter()
        output = workload.run(prepared, tracer)
        wall = time.perf_counter() - start
    return wall * speed.factor(), wall, output


def _setup_seconds(name: str, seed: int) -> float:
    """Host-speed-adjusted seconds from launching a fresh interpreter
    until it has run the workload's set-up (imports, preset
    resolution, components)."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name]
    cmd += ["--seed", str(seed), "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    word, _, factor = line.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {line!r}")
    return elapsed * float(factor)


def _peak_rss_mb() -> float:
    """This process's high-water RSS plus that of its largest reaped
    child (the drain-pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check_ledger(key: str, digests: dict, counts: dict) -> list:
    """Compare this job's per-operation digests and counts with those
    an earlier run of the same sources, workload and seed recorded;
    record new ones.  Returns ``(op, message)`` for every mismatch."""
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    entry = ledger.setdefault(key, {"digests": {}, "counts": {}})
    mismatches = []
    for kind, values in (("digests", digests), ("counts", counts)):
        for op, value in values.items():
            before = entry[kind].setdefault(op, value)
            if before != value:
                mismatches.append(
                    (op, f"{kind} differ from an earlier run: {value} != {before}")
                )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def _stop_resource_tracker() -> None:
    """Shared-memory drains start multiprocessing's resource tracker;
    stop it so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Set-up probes time everything from here on, imports included.
    with HostSpeed() as setup_speed:
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import numpy
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
                  file=sys.stderr)
            return 2
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        seed = workload.default_seed if args.seed is None else args.seed
        if args.probe_setup:
            workload.prepare(seed)
    if args.probe_setup:
        print(f"ready {setup_speed.factor()!r}", flush=True)
        return 0
    import layers
    from spans import Tracer

    n_jobs = 1 if args.trace else max(1, int(args.seconds // workload.nominal_seconds))
    sub_seeds = [seed + SEED_STRIDE * i for i in range(n_jobs)]
    prepared = [workload.prepare(s) for s in sub_seeds]

    # Each entry: (sub-seed, ops, summary) of one evaluated job.
    jobs, walls, raw_walls = [], [], []
    for sub, prep in zip(sub_seeds, prepared):
        wall, raw, output = _timed(workload, prep)
        walls.append(wall)
        raw_walls.append(raw)
        jobs.append((sub, *workload.evaluate(prep, output)))
        del output
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            wall_traced, raw, output = _timed(workload, prepared[0], tracer)
        finally:
            tracer.restore()
        raw_walls.append(raw)
        jobs.append((sub_seeds[0], *workload.evaluate(prepared[0], output)))
        del output

    # Determinism: a job's per-operation outputs (and, when traced, its
    # per-operation counts) must repeat exactly between repetitions
    # and between runs of the same sources and seed.
    OUT.mkdir(exist_ok=True)
    source = _source_hash()
    first = {}
    for sub, ops, _ in jobs:
        digests = {op: _digest(o.value) for op, o in ops.items()}
        for op, d in digests.items():
            if first.setdefault((sub, op), d) != d:
                ops[op].failures.append("output differs between repetitions of this run")
        counts = {}
        if tracer is not None and ops is jobs[-1][1]:
            counts = {op: c for op, c in layers.op_counts(tracer).items() if op in ops}
        key = f"{source}/{args.workload}/{sub}"
        for op, message in _check_ledger(key, digests, counts):
            ops[op].failures.append(message)

    attempted = sum(len(ops) for _, ops, _ in jobs)
    failures = [
        (f"seed={sub}/{op}", f)
        for sub, ops, _ in jobs
        for op, o in ops.items()
        for f in o.failures
    ]
    failed = sum(1 for _, ops, _ in jobs for o in ops.values() if o.failures)
    notes = [(sub, n) for sub, _, summary in jobs for n in summary["notes"]]
    summary = jobs[-1][2]

    if tracer is None:
        peak = _peak_rss_mb()
        setup = statistics.median(
            _setup_seconds(args.workload, seed) for _ in range(SETUP_PROBES)
        )
        values = {"wall_s": statistics.fmean(walls), "setup_s": setup, "peak_rss_mb": peak}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        values = layers.layer_metrics(tracer, raw, wall_traced, walls[0], summary)
        metrics = {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in values.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{seed}.jsonl")

    env = {
        "workload": args.workload,
        "seed": seed,
        "sub_seeds": sub_seeds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "walls_s": walls,
        "raw_walls_s": raw_walls,
    }
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_share':<28} {failed / attempted:>16.6g} "
          f"({failed}/{attempted} operations)")
    if "paper_err_pct" not in metrics:
        print(f"  {'paper_err_pct':<28} {summary['paper_err_pct']:>16.6g} %")
    if tracer is not None:
        print("  self time by span (adjusted seconds, share of the traced job):")
        for name, seconds in layers.self_time_by_name(tracer).items():
            print(f"    {name:<44} {seconds * wall_traced / raw:10.3f} s "
                  f"{100 * seconds / raw:6.1f} %")
    for sub, note in notes:
        print(f"  NOTE seed={sub}: {note}")
    for op, message in failures:
        print(f"  FAILED {op}: {message}")
    record = {
        "env": env,
        "metrics": metrics,
        "failed_share": failed / attempted,
        "paper_err_pct": summary["paper_err_pct"],
        "notes": notes,
        "failures": failures,
    }
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    _stop_resource_tracker()
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
