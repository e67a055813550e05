"""The compiled drain kernel: equivalence with the Python generator,
build fallback, cache safety and the drain's conservation checks."""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import logging
import multiprocessing
import os
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import ckernel
from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import MemoryController, SchedulerPolicy
from repro.dram.timing import DRAMTiming

SMALL_CONFIG = DRAMConfig(
    organization=DRAMOrganization(
        n_channels=2,
        n_ranks=1,
        n_bankgroups=2,
        banks_per_group=2,
        n_rows=64,
        row_bytes=512,
        access_bytes=64,
    ),
    timing=DRAMTiming(
        clock_hz=1e9,
        tRCD=5,
        tRP=4,
        tCL=7,
        tCWL=3,
        tRAS=11,
        tCCD_S=2,
        tCCD_L=5,
        tRRD=3,
        tFAW=20,
        tWR=9,
        tWTR=4,
        burst_cycles=2,
    ),
)

needs_kernel = pytest.mark.skipif(
    ckernel.load() is None, reason="C drain kernel unavailable"
)


def make_columns(config, n, seed, pattern, arrival):
    rng = np.random.default_rng(seed)
    org = config.organization
    blocks_total = org.total_capacity_bytes // org.access_bytes
    if pattern == "random":
        blocks = rng.integers(0, blocks_total, size=n)
    elif pattern == "stream":
        blocks = np.arange(n) % blocks_total
    else:  # pingpong between two far-apart regions of the same banks
        half = blocks_total // 2
        idx = np.arange(n)
        blocks = np.where(idx % 2 == 0, idx % half, half + idx % half)
    flags = (rng.random(n) < 0.3).astype(np.uint8)
    if arrival == "zero":
        arrive = np.zeros(n, dtype=np.int64)
    elif arrival == "poisson":
        arrive = np.floor(np.cumsum(rng.exponential(6.0, n))).astype(np.int64)
    else:  # bursty: tight batches, long silences, jitter
        arrive = np.sort((np.arange(n) // 12) * 300 + rng.integers(0, 7, size=n))
    return blocks.astype(np.int64) * org.access_bytes, arrive, flags


def channel_state(controller):
    return [
        (
            ch._cmd_bus_next,
            ch._data_bus_next,
            ch._last_col_cycle,
            ch._last_col_bankgroup,
            ch._last_was_write,
            ch._read_after_write_ok,
            ch._last_act_cycle,
            list(ch._act_history),
            [(b.open_row, b.earliest_act, b.earliest_pre, b.earliest_col, b.row_hits)
             for b in ch.banks],
        )
        for ch in controller.channels
    ]  # fmt: skip


def run_twice(config, ctrl_kwargs, feeds, record):
    """Two successive ``simulate_arrays`` calls on one controller."""
    controller = MemoryController(config, **ctrl_kwargs)
    for ch in controller.channels:
        ch.record_commands = record
    runs = []
    for addrs, arrive, flags in feeds:
        stats, timings = controller.simulate_arrays(addrs, arrive, flags, detail=True)
        runs.append(
            (
                dataclasses.asdict(stats),
                timings.first_command_cycles.tolist(),
                timings.complete_cycles.tolist(),
                timings.row_hits.tolist(),
            )
        )
    commands = [list(ch.commands) for ch in controller.channels]
    return runs, channel_state(controller), commands


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 250),
    pattern=st.sampled_from(["random", "stream", "pingpong"]),
    arrival=st.sampled_from(["zero", "poisson", "bursty"]),
    policy=st.sampled_from(list(SchedulerPolicy)),
    window=st.sampled_from([1, 3, 8, 64]),
    cap=st.sampled_from([1, 3, 512]),
    record=st.booleans(),
)
def test_kernel_matches_generator(
    seed, n, pattern, arrival, policy, window, cap, record
):
    """Stats, per-request outputs, carried channel state and command
    streams match across two successive drains on one controller."""
    feeds = [
        make_columns(SMALL_CONFIG, n, seed, pattern, arrival),
        make_columns(SMALL_CONFIG, max(1, n // 2), seed + 1, "random", arrival),
    ]
    kwargs = dict(policy=policy, window=window, starvation_cap=cap)
    kernel = run_twice(SMALL_CONFIG, kwargs, feeds, record)
    with ckernel.python_drain():
        generator = run_twice(SMALL_CONFIG, kwargs, feeds, record)
    assert kernel == generator


@needs_kernel
def test_kernel_matches_generator_paper_config():
    feeds = [make_columns(LPDDR5X_8533, 3000, 5, "random", "poisson")]
    kernel = run_twice(LPDDR5X_8533, {}, feeds, record=True)
    with ckernel.python_drain():
        generator = run_twice(LPDDR5X_8533, {}, feeds, record=True)
    assert kernel == generator


# -- build fallback and cache safety ----------------------------------------


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A cold kernel loader over an empty cache directory; the real
    loader is restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    ckernel.load.cache_clear()
    yield tmp_path / "cache" / "repro"
    ckernel.load.cache_clear()


def _fallback_run(caplog):
    """Two drains through a loader that cannot build: both must match
    the Python generator exactly, with one warning between them."""
    addrs, arrive, flags = make_columns(SMALL_CONFIG, 300, 3, "pingpong", "poisson")
    with caplog.at_level(logging.WARNING, logger=ckernel.logger.name):
        runs = [
            dataclasses.asdict(
                MemoryController(SMALL_CONFIG).simulate_arrays(addrs, arrive, flags)
            )
            for _ in range(2)
        ]
    assert ckernel.load() is None
    with ckernel.python_drain():
        expected = dataclasses.asdict(
            MemoryController(SMALL_CONFIG).simulate_arrays(addrs, arrive, flags)
        )
    assert runs == [expected, expected]
    warnings = [r for r in caplog.records if r.name == ckernel.logger.name]
    assert len(warnings) == 1
    assert "using the Python drain" in warnings[0].getMessage()
    return warnings[0].getMessage()


def test_fallback_without_gcc(fresh_loader, monkeypatch, caplog):
    monkeypatch.setenv("PATH", "")
    assert "gcc not found" in _fallback_run(caplog)
    assert not fresh_loader.exists() or not list(fresh_loader.iterdir())


def test_fallback_on_compile_error(fresh_loader, monkeypatch, caplog):
    monkeypatch.setattr(ckernel, "SOURCE", "this is not C;\n")
    assert "gcc exited" in _fallback_run(caplog)
    # The failed build leaves no temp sources or objects behind.
    assert list(fresh_loader.iterdir()) == []


def test_fallback_on_unwritable_cache_dir(monkeypatch, tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    ckernel.load.cache_clear()
    try:
        _fallback_run(caplog)
    finally:
        ckernel.load.cache_clear()


@needs_kernel
def test_stale_cache_key_never_loaded(fresh_loader, monkeypatch):
    """Objects cached under any other key are ignored: the loader
    opens exactly the path named by the current source's key."""
    path = ckernel.library_path()
    with monkeypatch.context() as mp:
        mp.setattr(ckernel, "SOURCE", ckernel.SOURCE + "\n/* edited */\n")
        stale = ckernel.library_path()
    assert stale != path
    fresh_loader.mkdir(parents=True)
    stale.write_bytes(b"not a shared object")
    opened = []
    real_cdll = ctypes.CDLL

    def recording_cdll(name, *args, **kwargs):
        opened.append(name)
        return real_cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", recording_cdll)
    assert ckernel.load() is not None
    assert opened == [str(path)]
    assert stale.read_bytes() == b"not a shared object"


def _load_in_child(cache_home):
    os.environ["XDG_CACHE_HOME"] = cache_home
    ckernel.load.cache_clear()
    return ckernel.load() is not None


@needs_kernel
def test_concurrent_cold_builds_all_load(tmp_path):
    """More processes than cores race to build into one empty cache;
    the temp-file + rename build lets every one of them load."""
    ctx = multiprocessing.get_context("spawn")
    workers = 2 * (os.cpu_count() or 1) + 1
    with ctx.Pool(workers) as pool:
        result = pool.map_async(_load_in_child, [str(tmp_path)] * workers)
        loaded = result.get(timeout=120)
    assert loaded == [True] * workers
    assert [p.name for p in (tmp_path / "repro").iterdir()] == [
        ckernel.library_path().name
    ]


def test_cache_key_covers_source_flags_and_platform(monkeypatch):
    key = ckernel.cache_key()
    monkeypatch.setattr(ckernel, "FLAGS", ckernel.FLAGS + ("-g",))
    assert ckernel.cache_key() != key
    monkeypatch.undo()
    monkeypatch.setattr(platform, "machine", lambda: "other-arch")
    assert ckernel.cache_key() != key


# -- kernel errors and conservation checks ---------------------------------


@needs_kernel
def test_command_buffer_overflow_is_an_error(monkeypatch):
    monkeypatch.setattr(ckernel, "COMMANDS_PER_REQUEST", 0)
    controller = MemoryController(SMALL_CONFIG)
    for ch in controller.channels:
        ch.record_commands = True
    addrs, arrive, flags = make_columns(SMALL_CONFIG, 50, 1, "random", "zero")
    match = r"channel \d+: C drain kernel failed \(command buffer overflow\)"
    with pytest.raises(RuntimeError, match=match):
        controller.simulate_arrays(addrs, arrive, flags)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda f, c, h: f.__setitem__(0, -5), "first command before arrival"),
        (
            lambda f, c, h: c.__setitem__(0, f[0]),
            "completion not after the first command",
        ),
        (lambda f, c, h: h.__setitem__(0, -1), "row-hit class not 0 or 1"),
    ],
)
def test_conservation_violation_names_the_channel(monkeypatch, corrupt, message):
    real = MemoryController._drain_channel

    def corrupting(self, channel, *columns_outputs_stats):
        result = real(self, channel, *columns_outputs_stats)
        if channel.index == 1:
            corrupt(*columns_outputs_stats[5:8])
        return result

    monkeypatch.setattr(MemoryController, "_drain_channel", corrupting)
    addrs, arrive, flags = make_columns(SMALL_CONFIG, 200, 2, "random", "poisson")
    with pytest.raises(RuntimeError, match=rf"channel 1: {message}"):
        MemoryController(SMALL_CONFIG).simulate_arrays(addrs, arrive, flags)


@pytest.mark.parametrize("impl", ["c", "python"])
def test_row_class_count_mismatch_names_the_channel(monkeypatch, impl):
    real_gen = MemoryController._drain_channel_gen
    real_kernel = MemoryController._drain_channel_kernel

    def gen(self, channel, stats, delays_out=None):
        result = yield from real_gen(self, channel, stats, delays_out)
        stats.row_hits += channel.index == 0
        return result

    def kernel(self, kern, channel, *args):
        result = real_kernel(self, kern, channel, *args)
        args[-1].row_hits += channel.index == 0
        return result

    monkeypatch.setattr(MemoryController, "_drain_channel_gen", gen)
    monkeypatch.setattr(MemoryController, "_drain_channel_kernel", kernel)
    if impl == "c" and ckernel.load() is None:
        pytest.skip("C drain kernel unavailable")
    addrs, arrive, flags = make_columns(SMALL_CONFIG, 200, 2, "random", "zero")
    with ckernel.python_drain() if impl == "python" else contextlib.nullcontext():
        with pytest.raises(RuntimeError, match=r"channel 0: \d+ row hit/miss/conflict"):
            MemoryController(SMALL_CONFIG).simulate_arrays(addrs, arrive, flags)
