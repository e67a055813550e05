"""Compiled form of the per-channel FR-FCFS drain.

:meth:`~repro.dram.controller.MemoryController._drain_channel_gen` is
the scheduler's Python form; this module holds the same single-feed
drain as a small C kernel, compiled with the local ``gcc`` and loaded
through :mod:`ctypes`.  The C source is the :data:`SOURCE` string
below, so any hash over the package's ``*.py`` files covers it.

Build and cache:

- nothing is compiled at import; :func:`load` builds on its first call
  (the controller calls it on the first drain) and memoizes the result
  for the life of the process;
- the shared object is cached outside the source tree, in
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else a temp
  directory, under a name derived from the sha256 of the source, the
  compiler flags and the platform -- an object built from other source
  is never loaded;
- a build writes a temp file in the cache directory and then
  ``os.replace``-s it into place, so concurrent processes (drain pool
  workers) never see a partial object.

If ``gcc`` is missing, the build fails or the cache directory is not
writable, :func:`load` logs one warning and returns ``None``, and the
controller keeps using the Python generator.  That generator, and the
seed scheduler in :mod:`repro.dram.reference`, stay as oracles the
kernel is tested against.

Kernel arbitration is a linear scan over the channel's banks.  It
reproduces the generator's floor-split heaps exactly: the ACT winner
is the minimum of ``(max(bank_ready, act_floor), seq)``, the PRE
winner the minimum of ``(max(bank_ready, cmd_bus), seq)``, the two
classes compare on the same key, and a column candidate wins only when
strictly earlier, ordered among its class by ``(ready, seq)``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import sys
from pathlib import Path

logger = logging.getLogger(__name__)

#: Compiler flags; part of the cache key.
FLAGS = ("-O2", "-shared", "-fPIC")

#: The ``ch`` state vector holds these scalars (command bus, data bus,
#: last column cycle and bank group, last-was-write, read-after-write
#: cycle, last ACT cycle, ACT-history length), then the tFAW
#: activation history, oldest first.
CH_SCALARS = 8

#: Order of the ``params`` vector.
PARAMS = (
    "tRCD", "tRP", "tRAS", "tRC", "tCL", "tCWL", "tWR", "tWTR",
    "tCCD_S", "tCCD_L", "tRRD", "tFAW", "burst", "banks_per_group",
    "n_bankgroups", "fcfs", "starvation_cap", "window",
)  # fmt: skip

#: Order of the ``out`` counter vector.
OUT = (
    "activates", "precharges", "row_hits", "row_misses", "row_conflicts",
    "last_complete", "idle", "n_commands",
)  # fmt: skip

#: Command-buffer rows reserved per request: one PRE, one ACT and one
#: column command at most.
COMMANDS_PER_REQUEST = 3

#: Command kinds emitted into the command buffer.
CMD_ACT, CMD_PRE, CMD_RD, CMD_WR = range(4)

#: Kernel return codes other than 0 (success).
ERRORS = {
    -1: "out of memory",
    -2: "command buffer overflow",
    -3: "request with a bank index out of range or a negative row",
    -4: "bad geometry or policy parameters",
}

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

enum { C_ACT = 0, C_PRE = 1, C_COL = 2, C_NONE = 3 };
enum { K_ACT = 0, K_PRE = 1, K_RD = 2, K_WR = 3 };

#define EMIT(cyc, kind, bank, arg)                                   \
    do {                                                             \
        if (cmds) {                                                  \
            if (ncmd >= cmd_cap) { rc = -2; goto done; }             \
            int64_t *c_ = cmds + 4 * ncmd++;                         \
            c_[0] = (cyc); c_[1] = (kind); c_[2] = (bank); c_[3] = (arg); \
        }                                                            \
    } while (0)

/* Drain one channel's arrival-ordered queue to completion.
 *
 * ch:   cb, dnext, lcc, lbg, law, raw, lact, hist_len, then hist_cap
 *       ACT-history slots (oldest first); read and written back.
 * bank: five rows of n_banks -- open row (-1 closed), earliest ACT,
 *       PRE, column, row-hit counter; updated in place.
 * p:    timing, geometry and policy (see PARAMS in ckernel.py).
 * out:  activates, precharges, row hits/misses/conflicts, last
 *       completion, idle cycles, commands emitted.
 * cmds: (cycle, kind, bank, row|column) quads, or NULL to skip.
 * Returns 0, or a negative error code; on error ch and out are not
 * written. */
int repro_drain_channel(
    int64_t n, const int64_t *bf, const int64_t *row, const int64_t *col,
    const uint8_t *iswr, const int64_t *arr,
    int64_t *o_first, int64_t *o_complete, int8_t *o_hit,
    int64_t nb, int64_t hcap, int64_t *ch, int64_t *bank,
    const int64_t *p, int64_t *out, int64_t *cmds, int64_t cmd_cap)
{
    const int64_t tRCD = p[0], tRP = p[1], tRAS = p[2], tRC = p[3];
    const int64_t tCL = p[4], tCWL = p[5], tWR = p[6], tWTR = p[7];
    const int64_t tCCD_S = p[8], tCCD_L = p[9], tRRD = p[10], tFAW = p[11];
    const int64_t burst = p[12], bpg = p[13], nbg = p[14];
    const int fcfs = p[15] != 0;
    const int64_t cap = p[16], wcap = p[17];
    int64_t *b_open = bank, *b_eact = bank + nb, *b_epre = bank + 2 * nb;
    int64_t *b_ecol = bank + 3 * nb, *b_hits = bank + 4 * nb;

    if (n < 0 || nb < 1 || hcap < 1 || bpg < 1 || nbg < 1 || wcap < 1
        || ch[7] < 0 || ch[7] > hcap)
        return -4;
    for (int64_t i = 0; i < n; i++)
        if (bf[i] < 0 || bf[i] >= nb || row[i] < 0)
            return -3;

    int rc = 0;
    int64_t *nxt = malloc((size_t)(n ? n : 1) * 2 * sizeof(int64_t));
    uint8_t *alive = malloc((size_t)(n ? n : 1));
    int64_t *bw = malloc((size_t)nb * 10 * sizeof(int64_t));
    int64_t *ring = malloc((size_t)hcap * sizeof(int64_t));
    if (!nxt || !alive || !bw || !ring) {
        rc = -1;
        goto done;
    }
    int64_t *prv = nxt + n;
    /* Per bank: in-window FIFO (linked through nxt/prv, seq order),
     * cached candidate, dirty flag and list, bank group, and its slot
     * in the list of banks holding a candidate (the arbitration scan
     * visits only those). */
    int64_t *qh = bw, *qt = bw + nb, *cand_cmd = bw + 2 * nb;
    int64_t *cand_seq = bw + 3 * nb, *cand_part = bw + 4 * nb;
    int64_t *dirty = bw + 5 * nb, *dlist = bw + 6 * nb, *bg_of = bw + 7 * nb;
    int64_t *active = bw + 8 * nb, *slot = bw + 9 * nb;
    int64_t ndirty = 0, nactive = 0;
    for (int64_t b = 0; b < nb; b++) {
        qh[b] = qt[b] = -1;
        cand_cmd[b] = C_NONE;
        dirty[b] = 0;
        bg_of[b] = (b / bpg) % nbg;
        slot[b] = -1;
    }
    for (int64_t i = 0; i < n; i++) {
        o_first[i] = -1;
        o_complete[i] = 0;
        o_hit[i] = -1;
        alive[i] = 1;
    }

    int64_t cb = ch[0], dnext = ch[1], lcc = ch[2], lbg = ch[3];
    int64_t law = ch[4], raw = ch[5], lact = ch[6], hlen = ch[7];
    int64_t hstart = 0;
    for (int64_t i = 0; i < hlen; i++)
        ring[i] = ch[8 + i];

    int64_t pos = 0, in_window = 0, idle = 0, remaining = n;
    int64_t head = 0, head_skips = 0, last_complete = 0, ncmd = 0;
    int64_t acts = 0, pres = 0, hits = 0, misses = 0, confs = 0;

    for (;;) {
        /* Admit arrived requests (arrival order, so a cursor). */
        while (pos < n && in_window < wcap && arr[pos] <= cb) {
            int64_t b = bf[pos];
            nxt[pos] = -1;
            prv[pos] = qt[b];
            if (qt[b] >= 0)
                nxt[qt[b]] = pos;
            else
                qh[b] = pos;
            qt[b] = pos;
            if (!dirty[b]) {
                dirty[b] = 1;
                dlist[ndirty++] = b;
            }
            pos++;
            in_window++;
        }
        if (in_window == 0) {
            if (pos == n)
                break;
            /* Queue empty with arrivals outstanding: jump ahead. */
            idle += arr[pos] - cb;
            cb = arr[pos];
            continue;
        }

        /* Refresh candidates of banks whose queue or state changed:
         * oldest row hit, else the oldest request's ACT or PRE. */
        for (int64_t k = 0; k < ndirty; k++) {
            int64_t b = dlist[k];
            dirty[b] = 0;
            int64_t q = qh[b];
            if (q < 0) {
                cand_cmd[b] = C_NONE;
                if (slot[b] >= 0) {
                    int64_t last = active[--nactive];
                    active[slot[b]] = last;
                    slot[last] = slot[b];
                    slot[b] = -1;
                }
                continue;
            }
            if (slot[b] < 0) {
                slot[b] = nactive;
                active[nactive++] = b;
            }
            int64_t orow = b_open[b];
            if (orow < 0) {
                cand_cmd[b] = C_ACT;
                cand_seq[b] = q;
                cand_part[b] = b_eact[b];
                continue;
            }
            int64_t s = q;
            while (s >= 0 && row[s] != orow)
                s = nxt[s];
            if (s >= 0) {
                cand_cmd[b] = C_COL;
                cand_seq[b] = s;
                cand_part[b] = b_ecol[b];
            } else {
                cand_cmd[b] = C_PRE;
                cand_seq[b] = q;
                cand_part[b] = b_epre[b];
            }
        }
        ndirty = 0;

        int64_t s, b, cmd, cycle;
        if (fcfs || head_skips >= cap) {
            /* Narrowed window: schedule the head request alone. */
            while (!alive[head])
                head++;
            s = head;
            b = bf[s];
            int64_t orow = b_open[b];
            if (orow == row[s]) {
                cmd = C_COL;
                int64_t g = iswr[s] ? dnext - tCWL : dnext - tCL;
                if (law && !iswr[s] && raw - tCL > g)
                    g = raw - tCL;
                int64_t x = lcc + (bg_of[b] == lbg ? tCCD_L : tCCD_S);
                if (x > g)
                    g = x;
                cycle = b_ecol[b];
                if (cb > cycle)
                    cycle = cb;
                if (g > cycle)
                    cycle = g;
            } else if (orow < 0) {
                cmd = C_ACT;
                cycle = b_eact[b];
                if (cb > cycle)
                    cycle = cb;
                if (lact + tRRD > cycle)
                    cycle = lact + tRRD;
                if (hlen == hcap && ring[hstart] + tFAW > cycle)
                    cycle = ring[hstart] + tFAW;
            } else {
                cmd = C_PRE;
                cycle = b_epre[b] > cb ? b_epre[b] : cb;
            }
        } else {
            int64_t g_act = lact + tRRD;
            if (cb > g_act)
                g_act = cb;
            if (hlen == hcap && ring[hstart] + tFAW > g_act)
                g_act = ring[hstart] + tFAW;
            int have = 0, have_col = 0;
            int64_t best_r = 0, best_s = 0, col_r = 0, col_s = 0, col_b = -1;
            int64_t g_col_r = dnext - tCL, g_col_w = dnext - tCWL;
            if (law && raw - tCL > g_col_r)
                g_col_r = raw - tCL;
            if (cb > g_col_r)
                g_col_r = cb;
            if (cb > g_col_w)
                g_col_w = cb;
            b = -1;
            cmd = C_NONE;
            for (int64_t i = 0; i < nactive; i++) {
                int64_t b2 = active[i];
                int64_t c = cand_cmd[b2];
                int64_t r = cand_part[b2], sq = cand_seq[b2];
                if (c == C_COL) {
                    int64_t g = iswr[sq] ? g_col_w : g_col_r;
                    if (g > r)
                        r = g;
                    g = lcc + (bg_of[b2] == lbg ? tCCD_L : tCCD_S);
                    if (g > r)
                        r = g;
                    if (!have_col || r < col_r || (r == col_r && sq < col_s)) {
                        have_col = 1;
                        col_r = r;
                        col_s = sq;
                        col_b = b2;
                    }
                } else {
                    int64_t fl = c == C_ACT ? g_act : cb;
                    if (fl > r)
                        r = fl;
                    if (!have || r < best_r || (r == best_r && sq < best_s)) {
                        have = 1;
                        best_r = r;
                        best_s = sq;
                        b = b2;
                        cmd = c;
                    }
                }
            }
            /* Column commands lose ready-cycle ties to ACT/PRE. */
            if (have_col && (!have || col_r < best_r)) {
                best_r = col_r;
                best_s = col_s;
                b = col_b;
                cmd = C_COL;
            }
            s = best_s;
            cycle = best_r;
        }

        /* An arrival before the chosen issue cycle competes for it. */
        if (pos < n && in_window < wcap && arr[pos] <= cycle) {
            cb = arr[pos];
            continue;
        }

        if (o_first[s] < 0)
            o_first[s] = cycle;
        if (cmd == C_PRE) {
            b_open[b] = -1;
            if (cycle + tRP > b_eact[b])
                b_eact[b] = cycle + tRP;
            cb = cycle + 1;
            pres++;
            if (o_hit[s] < 0) {
                o_hit[s] = 0;
                confs++;
            }
            EMIT(cycle, K_PRE, b, -1);
        } else if (cmd == C_ACT) {
            int64_t r = row[s];
            b_open[b] = r;
            b_ecol[b] = cycle + tRCD;
            b_epre[b] = cycle + tRAS;
            b_eact[b] = cycle + tRC;
            cb = cycle + 1;
            if (hlen < hcap) {
                ring[(hstart + hlen) % hcap] = cycle;
                hlen++;
            } else {
                ring[hstart] = cycle;
                hstart = (hstart + 1) % hcap;
            }
            lact = cycle;
            acts++;
            if (o_hit[s] < 0) {
                o_hit[s] = 0;
                misses++;
            }
            EMIT(cycle, K_ACT, b, r);
        } else {
            int64_t done_at;
            int w = iswr[s] != 0;
            if (w) {
                done_at = cycle + tCWL + burst;
                if (done_at + tWR > b_epre[b])
                    b_epre[b] = done_at + tWR;
                raw = done_at + tWTR;
                law = 1;
            } else {
                if (cycle + burst > b_epre[b])
                    b_epre[b] = cycle + burst;
                done_at = cycle + tCL + burst;
                law = 0;
            }
            dnext = done_at;
            b_hits[b]++;
            cb = cycle + 1;
            lcc = cycle;
            lbg = bg_of[b];
            if (o_hit[s] < 0) {
                o_hit[s] = 1;
                hits++;
            }
            o_complete[s] = done_at;
            if (done_at > last_complete)
                last_complete = done_at;
            EMIT(cycle, w ? K_WR : K_RD, b, col[s]);
            /* Retire the request and slide the window forward. */
            while (!alive[head])
                head++;
            int was_head = s == head;
            alive[s] = 0;
            remaining--;
            if (prv[s] >= 0)
                nxt[prv[s]] = nxt[s];
            else
                qh[b] = nxt[s];
            if (nxt[s] >= 0)
                prv[nxt[s]] = prv[s];
            else
                qt[b] = prv[s];
            in_window--;
            if (remaining && !was_head)
                head_skips++;
            else
                head_skips = 0;
        }
        if (!dirty[b]) {
            dirty[b] = 1;
            dlist[ndirty++] = b;
        }
    }

    ch[0] = cb;
    ch[1] = dnext;
    ch[2] = lcc;
    ch[3] = lbg;
    ch[4] = law;
    ch[5] = raw;
    ch[6] = lact;
    ch[7] = hlen;
    for (int64_t i = 0; i < hlen; i++)
        ch[8 + i] = ring[(hstart + i) % hcap];
    out[0] = acts;
    out[1] = pres;
    out[2] = hits;
    out[3] = misses;
    out[4] = confs;
    out[5] = last_complete;
    out[6] = idle;
    out[7] = ncmd;
done:
    free(nxt);
    free(alive);
    free(bw);
    free(ring);
    return rc;
}
"""


class KernelBuildError(RuntimeError):
    """``gcc`` is missing or could not compile :data:`SOURCE`."""


# The build-only modules (hashlib, platform, shutil, subprocess,
# tempfile) are imported where they are used: importing repro.dram
# would otherwise map OpenSSL and the compression libraries into every
# process, including those that never drain.


def cache_dir() -> Path:
    """Directory holding compiled kernels (created on first build)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    try:
        return Path.home() / ".cache" / "repro"
    except (RuntimeError, KeyError):  # no resolvable home directory
        import tempfile

        return Path(tempfile.gettempdir()) / "repro"


def cache_key() -> str:
    """sha256 over the kernel source, compiler flags and platform."""
    import hashlib
    import platform

    h = hashlib.sha256()
    for part in (SOURCE, " ".join(FLAGS), sys.platform, platform.machine()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def library_path() -> Path:
    """Where the kernel built from the current source is cached."""
    return cache_dir() / f"drain-{cache_key()[:24]}.so"


def _build(path: Path) -> None:
    """Compile :data:`SOURCE` to ``path`` via a temp file and an atomic
    rename, so a concurrent reader sees no object or a whole one."""
    import shutil
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelBuildError("gcc not found on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, src = tempfile.mkstemp(prefix=path.stem + ".", suffix=".c", dir=path.parent)
    tmp = src[: -len(".c")] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(SOURCE)
        proc = subprocess.run(
            [gcc, *FLAGS, "-o", tmp, src],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            detail = " ".join(proc.stderr.strip().splitlines()[:3])
            raise KernelBuildError(f"gcc exited {proc.returncode}: {detail}")
        os.replace(tmp, path)
    finally:
        for leftover in (src, tmp):
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass


@functools.lru_cache(maxsize=None)
def load():
    """The compiled ``repro_drain_channel`` function, or ``None`` when
    it cannot be built or loaded (one warning is logged).

    Builds into the cache on first use; the result is memoized for
    the process (``load.cache_clear()`` forces a fresh attempt).
    """
    import subprocess

    path = library_path()
    try:
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError, KernelBuildError) as exc:
        logger.warning("C drain kernel unavailable (%s); using the Python drain", exc)
        return None
    fn = lib.repro_drain_channel
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [i64] + [ptr] * 8 + [i64, i64] + [ptr] * 5 + [i64]
    fn.restype = ctypes.c_int
    return fn


@contextlib.contextmanager
def python_drain():
    """Run every drain started in this block on the Python generator
    (benchmarks record its throughput beside the kernel's)."""
    global load
    kernel_load = load
    load = _no_kernel
    try:
        yield
    finally:
        load = kernel_load


def _no_kernel():
    return None
