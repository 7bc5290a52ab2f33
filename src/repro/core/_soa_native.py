"""Compiled lane driver for the structure-of-arrays engine.

One *lane* is one replication: the whole discrete-event loop of
:class:`repro.core.simulator.Simulator` -- arrivals, FCFS/SSD queueing,
GABL/Paging(0)/MBS allocation, all-to-all launches through the batch
network recurrence, departures and metric accumulation -- runs inside a
single C function over flat NumPy-owned arrays.  The driver returns to
Python only to refill the arrival arrays from the (non-vectorisable)
workload generator, so a replication batch advances in lockstep with a
handful of FFI calls per lane.

The C translation unit embeds :data:`repro.network._native._SOURCE`
verbatim, so packet timing goes through the *same* ``solve_rounds``
routine the batch backend uses, and every float64 operation elsewhere
(busy-time integral, metric sums, departure times) is performed in the
reference engine's exact order -- compiled with ``-ffp-contract=off`` --
making the lane driver bit-identical to the reference engine
(``tests/test_engine_equivalence.py``).

Like the network kernel, this module is strictly optional:
:mod:`repro.core.soa` falls back to one reference ``Simulator.run()``
per seed (same results) when compilation is impossible.  Building,
caching and the ``REPRO_NATIVE=0`` switch live in
:mod:`repro._toolchain`.

**GIL-release contract.**  ``soa_advance`` is loaded through
:class:`ctypes.CDLL`, so the GIL is dropped for the entire duration of
every call -- the whole event loop between two refills runs without the
interpreter.  The pointer-table ABI confines every mutable word the
driver touches to the per-lane flat arrays of the :data:`LANE` table
below (plus the lane's ``CI``/``CF`` blocks); the C code reads and
writes nothing else.  Lanes from *different* batches therefore advance
concurrently from a thread pool with no shared state at all, which is
what makes the campaign's ``--executor thread`` mode scale
(:mod:`repro.experiments.campaign`).  The only cross-thread step, the
lazy first-use compile, serialises on
:data:`repro._toolchain.KERNEL_LOCK` so N threads build once.
"""

from __future__ import annotations

import ctypes
import zlib
from typing import NamedTuple

from repro._toolchain import KernelMemo, build
from repro.network._native import _SOURCE as _NETWORK_SOURCE


class Lane(NamedTuple):
    """One lane array: a ``SoaCtx`` pointer and a ``LaneState`` buffer."""

    #: ``SoaCtx`` member and ``LaneState`` attribute; pointer slot
    #: ``P_<FIELD>``
    field: str
    #: element type as ``SoaCtx`` declares it (``const`` = read-only)
    ctype: str
    #: NumPy dtype of the buffer ``LaneState`` allocates; declared beside
    #: the C type so ``tests/test_soa_layout.py`` can check they agree
    dtype: str
    #: length rule, a key of ``LaneState``'s size table: ``F``/``I`` (the
    #: scalar blocks), ``jobs`` (job capacity, doubled on overflow),
    #: ``cells`` (W*L), ``channels`` (6*W*L), ``xy`` (2*W*L), ``heap``
    #: (processors + 8), ``length`` (L), ``messages``, ``window``,
    #: and for MBS lanes ``nodes``, ``arena``, ``levels``, ``offsets``,
    #: ``roots`` (all 0 on other lanes)
    size: str
    meaning: str


#: every array of one lane, in pointer-table order: ``soa_advance``'s
#: first argument is one pointer per entry.  Adding a slot is one line
#: here; the C enums, ``SoaCtx``, the unpacking in ``soa_advance``,
#: ``LAYOUT_MAGIC`` and ``LaneState``'s buffers all follow from it.
LANE = (
    Lane("F", "double", "f8", "F", "f8 scalar block (F_*)"),
    Lane("I", "int64_t", "i8", "I", "i64 scalar block (I_*)"),
    Lane("arr", "const double", "f8", "jobs", "arrival times"),
    Lane("jw", "const int64_t", "i8", "jobs", "request widths"),
    Lane("jl", "const int64_t", "i8", "jobs", "request lengths"),
    Lane("jmsg", "const int64_t", "i8", "jobs", "messages per processor"),
    Lane("jdem", "const double", "f8", "jobs", "SSD service-demand keys"),
    Lane("jat", "double", "f8", "jobs", "allocation times"),
    Lane("jpk", "int64_t", "i8", "jobs", "delivered packets per job"),
    Lane("jlat", "double", "f8", "jobs", "per-job packet latency sums"),
    Lane("jblk", "double", "f8", "jobs", "per-job packet blocking sums"),
    Lane("jns", "int64_t", "i8", "jobs", "fragment counts"),
    Lane("owner", "int64_t", "i8", "cells", "grid owner (-1 = free)"),
    Lane("free_at", "double", "f8", "channels", "channel free-at times"),
    Lane("memo", "uint8_t", "u1", "cells",
         "failed-request memo, indexed (w-1)*L + (l-1)"),
    Lane("fcfs", "int64_t", "i8", "jobs", "FCFS queue storage"),
    Lane("ssdk", "double", "f8", "jobs", "SSD heap keys"),
    Lane("ssds", "int64_t", "i8", "jobs", "SSD heap insertion sequence"),
    Lane("ssdj", "int64_t", "i8", "jobs", "SSD heap job indices"),
    Lane("rem", "uint8_t", "u1", "jobs", "SSD lazy-removal flags"),
    Lane("ct", "double", "f8", "heap", "completion-heap times"),
    Lane("cs", "int64_t", "i8", "heap", "completion-heap sequence numbers"),
    Lane("cj", "int64_t", "i8", "heap", "completion-heap job indices"),
    Lane("ids", "int64_t", "i8", "cells", "allocation node ids, in order"),
    Lane("offs", "int64_t", "i8", "messages", "destination-offset scratch"),
    Lane("pkk", "double", "f8", "window", "scheduler peek scratch: keys"),
    Lane("pks", "int64_t", "i8", "window", "peek scratch: sequence numbers"),
    Lane("pkj", "int64_t", "i8", "window", "peek scratch: job indices"),
    Lane("rows", "uint64_t", "u8", "length",
         "GABL free-cell bit rows: bit x of rows[y] set iff (x, y) free"),
    Lane("nk", "int64_t", "i8", "nodes", "MBS node level k"),
    Lane("nx", "int64_t", "i8", "nodes", "MBS node base x"),
    Lane("ny", "int64_t", "i8", "nodes", "MBS node base y"),
    Lane("npar", "int64_t", "i8", "nodes", "MBS node parent (-1 = root)"),
    Lane("nchild", "int64_t", "i8", "nodes",
         "MBS node first child (-1 = not yet split)"),
    Lane("nstate", "uint8_t", "u1", "nodes", "MBS node state (B_*)"),
    Lane("nepoch", "int64_t", "i8", "nodes", "MBS node epoch"),
    Lane("nown", "int64_t", "i8", "nodes", "MBS node owning job (-1)"),
    Lane("mhe", "int64_t", "i8", "arena", "MBS free-heap entry epochs"),
    Lane("mhn", "int64_t", "i8", "arena", "MBS free-heap entry nodes"),
    Lane("mhl", "int64_t", "i8", "levels", "MBS free-heap length per level"),
    Lane("mhoff", "int64_t", "i8", "offsets",
         "MBS free-heap arena offset per level"),
    Lane("rk", "const int64_t", "i8", "roots", "MBS root cover: levels"),
    Lane("rx", "const int64_t", "i8", "roots", "MBS root cover: base x"),
    Lane("ry", "const int64_t", "i8", "roots", "MBS root cover: base y"),
    Lane("xy", "int64_t", "i8", "xy", "solve_rounds' (x, y) scratch"),
    Lane("link", "int64_t", "i8", "cells",
         "next cell of the same job's allocation (-1 = end)"),
    Lane("jhead", "int64_t", "i8", "jobs",
         "first cell of each job's allocation chain"),
)

#: f8 scalar slots of the ``F`` block, ``F_<NAME>``
F_SLOTS = (
    "now",
    "lastchange",
    "busyint",       # busy-processor time integral
    "turn",          # measured turnaround sum
    "serv",          # measured service sum
    "wait",          # measured wait sum
    "lat",           # measured packet latency sum
    "blk",           # measured packet blocking sum
    "pending",       # time of the pending arrival event
)

#: i64 scalar slots of the ``I`` block, ``I_<NAME>``
I_SLOTS = (
    "next",          # next arrival index to consume
    "haspend",       # a pending arrival event exists
    "completed",
    "measured",
    "packets",
    "frag",
    "contig",
    "qpeak",
    "busy",
    "seq",           # completion-event sequence counter
    "sseq",          # scheduler insertion sequence counter
    "fhead",         # FCFS queue head
    "flen",          # FCFS queue length
    "slen",          # SSD heap length (including stale entries)
    "ssize",         # SSD live size
    "clen",          # completion heap length
    "free",          # free processors
    "version",       # grid version (bumped on every occupancy change)
    "memover",       # grid version the failure memo was built against
    "mbsinit",       # MBS arena initialised
    "ncnt",          # MBS nodes created
)

#: i64 parameters (``soa_advance``'s third argument), each copied into
#: the ``SoaCtx`` member of the same name; slot ``CI_<NAME>``, after
#: slot 0, ``CI_MAGIC``, which carries ``LAYOUT_MAGIC``
CI_PARAMS = (
    "W",
    "L",
    "wrap",
    "alloc_kind",    # 0 = GABL, 1 = Paging(0), 2 = MBS
    "sched_kind",    # 0 = FCFS, 1 = SSD
    "window",
    "jobs_target",
    "warmup",
    "n_prov",        # arrivals materialised so far
    "exhausted",     # the workload iterator is exhausted
    "has_until",
    "node_cap",
    "n_roots",
    "max_k",
)

#: f8 parameters (fourth argument), like ``CI_PARAMS``; slot ``CF_<NAME>``
CF_PARAMS = ("hop", "occ", "drain", "gap", "until")


def _slot(prefix: str, name: str) -> str:
    return f"{prefix}_{name.upper()}"


#: the constants of each C enum, in slot order -- ``P_ARR``, ``F_NOW``,
#: ``I_FREE``, ``CI_W``, ``CF_HOP``, ... and one ``<PREFIX>_COUNT`` per
#: enum; the module exports each one under its own name
_ENUMS = {
    prefix: {
        **{_slot(prefix, name): i for i, name in enumerate(names)},
        f"{prefix}_COUNT": len(names),
    }
    for prefix, names in (
        ("P", [lane.field for lane in LANE]),
        ("F", F_SLOTS),
        ("I", I_SLOTS),
        ("CI", ("magic", *CI_PARAMS)),
        ("CF", CF_PARAMS),
    )
}
for _slots in _ENUMS.values():
    globals().update(_slots)


def _layout_source() -> str:
    """The C declarations of the lane layout: one ``enum`` per table, the
    ``SoaCtx`` struct and ``soa_unpack``, which fills it from
    ``soa_advance``'s arguments."""
    enums = ["enum { " + ", ".join(slots) + " };" for slots in _ENUMS.values()]
    members = [
        f"    {lane.ctype} *{lane.field};  /* {lane.meaning} */"
        for lane in LANE
    ]
    members += [f"    int64_t {name};" for name in CI_PARAMS]
    members += [f"    double {name};" for name in CF_PARAMS]
    unpack = [
        f"    c->{lane.field} = ({lane.ctype} *)P[{_slot('P', lane.field)}];"
        for lane in LANE
    ]
    unpack += [f"    c->{n} = CI[{_slot('CI', n)}];" for n in CI_PARAMS]
    unpack += [f"    c->{n} = CF[{_slot('CF', n)}];" for n in CF_PARAMS]
    return "\n".join([
        *enums,
        "",
        "typedef struct {",
        *members,
        "    int64_t ids_len, cur_nsub;  /* per-call allocation scratch */",
        "} SoaCtx;",
        "",
        "static void soa_unpack(SoaCtx *c, void **P, const int64_t *CI,",
        "                       const double *CF)",
        "{",
        *unpack,
        "}",
        "",
    ])


_LAYOUT_SOURCE = _layout_source()

#: layout fingerprint, checked by the C entry point so a library built
#: from another layout can never be driven with this one
LAYOUT_MAGIC = zlib.crc32(_LAYOUT_SOURCE.encode()) & 0x7FFFFFFF

#: ``soa_advance`` return codes
RC_DONE = 1
RC_NEED_JOBS = 0

_DRIVER_SOURCE = r"""
/* ==== structure-of-arrays lane driver ================================== */

#include <string.h>

/* MBS block states (repro.alloc.mbs) */
#define B_FREE 0
#define B_ALLOC 1
#define B_SPLIT 2
#define B_ABSORBED 3

/* ------------------------------------------------------------ metrics */

static void busy_change(SoaCtx *c, int64_t delta)
{
    /* Metrics.on_busy_change, in its exact float-op order */
    c->F[F_BUSYINT] += (double)c->I[I_BUSY] * (c->F[F_NOW] - c->F[F_LASTCHANGE]);
    c->I[I_BUSY] += delta;
    c->F[F_LASTCHANGE] = c->F[F_NOW];
}

/* --------------------------------------------------- completion heap */

static void comp_push(SoaCtx *c, double t, int64_t seq, int64_t j)
{
    int64_t i = c->I[I_CLEN]++;
    c->ct[i] = t; c->cs[i] = seq; c->cj[i] = j;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (c->ct[p] < c->ct[i] ||
            (c->ct[p] == c->ct[i] && c->cs[p] < c->cs[i]))
            break;
        double tt = c->ct[p]; c->ct[p] = c->ct[i]; c->ct[i] = tt;
        int64_t ss = c->cs[p]; c->cs[p] = c->cs[i]; c->cs[i] = ss;
        int64_t jj = c->cj[p]; c->cj[p] = c->cj[i]; c->cj[i] = jj;
        i = p;
    }
}

static int64_t comp_pop(SoaCtx *c, double *t_out)
{
    int64_t job = c->cj[0];
    *t_out = c->ct[0];
    int64_t n = --c->I[I_CLEN];
    c->ct[0] = c->ct[n]; c->cs[0] = c->cs[n]; c->cj[0] = c->cj[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && (c->ct[l] < c->ct[m] ||
                      (c->ct[l] == c->ct[m] && c->cs[l] < c->cs[m])))
            m = l;
        if (r < n && (c->ct[r] < c->ct[m] ||
                      (c->ct[r] == c->ct[m] && c->cs[r] < c->cs[m])))
            m = r;
        if (m == i) break;
        double tt = c->ct[m]; c->ct[m] = c->ct[i]; c->ct[i] = tt;
        int64_t ss = c->cs[m]; c->cs[m] = c->cs[i]; c->cs[i] = ss;
        int64_t jj = c->cj[m]; c->cj[m] = c->cj[i]; c->cj[i] = jj;
        i = m;
    }
    return job;
}

/* --------------------------------------------------------- schedulers */

static int64_t qsize(SoaCtx *c)
{
    return c->sched_kind == 0 ? c->I[I_FLEN] : c->I[I_SSIZE];
}

static int ssd_less(SoaCtx *c, int64_t a, int64_t b)
{
    if (c->ssdk[a] != c->ssdk[b]) return c->ssdk[a] < c->ssdk[b];
    return c->ssds[a] < c->ssds[b];
}

static void ssd_swap(SoaCtx *c, int64_t a, int64_t b)
{
    double k = c->ssdk[a]; c->ssdk[a] = c->ssdk[b]; c->ssdk[b] = k;
    int64_t s = c->ssds[a]; c->ssds[a] = c->ssds[b]; c->ssds[b] = s;
    int64_t j = c->ssdj[a]; c->ssdj[a] = c->ssdj[b]; c->ssdj[b] = j;
}

static void ssd_push(SoaCtx *c, double key, int64_t seq, int64_t job)
{
    int64_t i = c->I[I_SLEN]++;
    c->ssdk[i] = key; c->ssds[i] = seq; c->ssdj[i] = job;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!ssd_less(c, i, p)) break;
        ssd_swap(c, i, p);
        i = p;
    }
}

static void ssd_pop(SoaCtx *c, double *key, int64_t *seq, int64_t *job)
{
    *key = c->ssdk[0]; *seq = c->ssds[0]; *job = c->ssdj[0];
    int64_t n = --c->I[I_SLEN];
    c->ssdk[0] = c->ssdk[n]; c->ssds[0] = c->ssds[n]; c->ssdj[0] = c->ssdj[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && ssd_less(c, l, m)) m = l;
        if (r < n && ssd_less(c, r, m)) m = r;
        if (m == i) break;
        ssd_swap(c, i, m);
        i = m;
    }
}

static void sched_add(SoaCtx *c, int64_t j)
{
    if (c->sched_kind == 0) {
        c->fcfs[c->I[I_FHEAD] + c->I[I_FLEN]] = j;
        c->I[I_FLEN]++;
    } else {
        c->I[I_SSEQ]++;
        ssd_push(c, c->jdem[j], c->I[I_SSEQ], j);
        c->I[I_SSIZE]++;
    }
}

/* Scheduler.peek(k): job indices into pkj, in policy order.  The SSD
 * variant pops live entries (dropping stale ones for good, like the
 * Python lazy heap) and pushes them back -- pop order over the live
 * set is determined by the (demand, seq) total order, so the heap
 * layout never shows through. */
static int64_t sched_peek(SoaCtx *c, int64_t k)
{
    if (c->sched_kind == 0) {
        int64_t n = c->I[I_FLEN] < k ? c->I[I_FLEN] : k;
        for (int64_t i = 0; i < n; i++)
            c->pkj[i] = c->fcfs[c->I[I_FHEAD] + i];
        return n;
    }
    int64_t got = 0;
    while (c->I[I_SLEN] > 0 && got < k) {
        double key; int64_t seq, job;
        ssd_pop(c, &key, &seq, &job);
        if (c->rem[job]) { c->rem[job] = 0; continue; }
        c->pkk[got] = key; c->pks[got] = seq; c->pkj[got] = job;
        got++;
    }
    for (int64_t i = 0; i < got; i++)
        ssd_push(c, c->pkk[i], c->pks[i], c->pkj[i]);
    return got;
}

static void sched_remove(SoaCtx *c, int64_t j)
{
    if (c->sched_kind == 0) {
        int64_t head = c->I[I_FHEAD], len = c->I[I_FLEN];
        if (c->fcfs[head] == j) {
            c->I[I_FHEAD] = head + 1;
        } else {
            int64_t i = head;
            while (i < head + len && c->fcfs[i] != j) i++;
            for (; i + 1 < head + len; i++) c->fcfs[i] = c->fcfs[i + 1];
        }
        c->I[I_FLEN] = len - 1;
    } else {
        c->rem[j] = 1;
        c->I[I_SSIZE]--;
    }
}

/* ------------------------------------------------- rectangle searches */

/* GABL's two queries of repro.mesh.rectfind, ported line for line onto
 * the lane's bit rows: bit x of rows[y] is set iff (x, y) is free.
 * W <= 64 (soa_advance refuses wider GABL lanes), so a row is one
 * word and bits past the mesh width are never set. */

/* rows from the owner grid, the one source of truth; once per GABL
 * attempt that passes the free-count gate */
static void build_rows(SoaCtx *c)
{
    const int64_t W = c->W;
    for (int64_t y = 0; y < c->L; y++) {
        const int64_t *o = c->owner + y * W;
        uint64_t m = 0;
        for (int64_t x = 0; x < W; x++)
            m |= (uint64_t)(o[x] < 0) << x;
        c->rows[y] = m;
    }
}

/* rectfind._runs: bits x of m that start a run of at least w set bits */
static uint64_t runs(uint64_t m, int64_t w)
{
    for (int64_t done = 1; done < w;) {
        const int64_t step = done < w - done ? done : w - done;
        m &= m >> step;
        done += step;
    }
    return m;
}

/* find_suitable_submesh: first free w x l base in row-major order (the
 * caller has applied the w * l > free gate) */
static int find_suitable(SoaCtx *c, int64_t w, int64_t l,
                         int64_t *bx, int64_t *by)
{
    if (w > c->W || l > c->L) return 0;
    const uint64_t *rows = c->rows;
    for (int64_t y = 0; y + l <= c->L; y++) {
        uint64_t m = rows[y];
        for (int64_t r = 1; r < l && m; r++) m &= rows[y + r];
        if (m) {
            m = runs(m, w);
            if (m) {
                *bx = __builtin_ctzll(m); *by = y;
                return 1;
            }
        }
    }
    return 0;
}

/* largest_free_rect_bounded: largest area, then lowest base row, then
 * lowest base column, then widest, with rectfind's prunes */
static int lfrb(SoaCtx *c, int64_t max_w, int64_t max_l, int64_t max_area,
                int64_t *ox, int64_t *oy, int64_t *ow, int64_t *ol)
{
    const int64_t W = c->W, L = c->L;
    if (max_w > W) max_w = W;
    if (max_l > L) max_l = L;
    if (max_w <= 0 || max_l <= 0 || max_area <= 0) return 0;
    /* no admissible rectangle can have a larger area than this */
    int64_t ceiling = max_w * max_l < max_area ? max_w * max_l : max_area;
    if (c->I[I_FREE] < ceiling) ceiling = c->I[I_FREE];
    const uint64_t *rows = c->rows;
    int64_t best_area = 0, bx = -1, by = -1, bw = 0, bh = 0;
    for (int64_t y = 0; y < L; y++) {
        if (best_area >= ceiling)
            break;  /* a later base row would need a strictly larger area */
        const int64_t tall = max_l < L - y ? max_l : L - y;
        uint64_t m = rows[y];
        /* a later row must beat the best strictly, and no rectangle
         * based here is wider than the row's free-cell count */
        int64_t free = __builtin_popcountll(m);
        if (tall * (free < max_w ? free : max_w) <= best_area) continue;
        for (int64_t h = 1; h <= tall; h++) {
            if (h > 1) {
                m &= rows[y + h - 1];
                if (!m) break;
            }
            /* the widest admissible rectangle of height h */
            const int64_t cap = max_w * h <= max_area ? max_w : max_area / h;
            if (!cap) break;
            /* narrowest width to tie the best */
            const int64_t need = best_area ? (best_area + h - 1) / h : 1;
            if (need > cap) continue;
            free = __builtin_popcountll(m);
            if (free < need) {
                if (tall * free < best_area) break;  /* m only shrinks */
                continue;
            }
            uint64_t r = runs(m, need);
            if (!r) continue;
            int64_t w = need;
            while (w < cap) {
                const uint64_t wider = r & (r >> 1);
                if (!wider) break;
                r = wider;
                w++;
            }
            const int64_t x = __builtin_ctzll(r), area = w * h;
            /* area >= best_area here; a tie wins only within the best's
             * own base row, on a lower column and then on a wider shape */
            if (area > best_area
                || (by == y && (x < bx || (x == bx && w > bw)))) {
                best_area = area;
                bx = x; by = y; bw = w; bh = h;
            }
        }
    }
    if (bx < 0) return 0;
    *ox = bx; *oy = by; *ow = bw; *ol = bh;
    return 1;
}

/* mark a free rectangle as owned by job j; append its node ids
 * (row-major, matching SubMesh.node_ids()) to the coords scratch */
static void take_rect(SoaCtx *c, int64_t j, int64_t x0, int64_t y0,
                      int64_t w, int64_t l)
{
    for (int64_t y = y0; y < y0 + l; y++)
        for (int64_t x = x0; x < x0 + w; x++) {
            c->owner[y * c->W + x] = j;
            c->ids[c->ids_len++] = y * c->W + x;
        }
    c->I[I_FREE] -= w * l;
}

/* ----------------------------------------------------- GABL allocator */

static int alloc_gabl(SoaCtx *c, int64_t j, int64_t w, int64_t l)
{
    int64_t bx, by;
    /* no w x l free submesh (nor a decomposition) fits in fewer free
     * cells, so the gate may run before the contiguous attempt */
    if (w * l > c->I[I_FREE]) return 0;
    build_rows(c);
    if (find_suitable(c, w, l, &bx, &by)) {
        take_rect(c, j, bx, by, w, l);
        c->cur_nsub = 1;
        return 1;
    }
    if (w != l && find_suitable(c, l, w, &bx, &by)) {
        take_rect(c, j, bx, by, l, w);
        c->cur_nsub = 1;
        return 1;
    }
    /* greedy largest-first decomposition; each chunk is the larger of
     * the two frame orientations' searches, the transpose winning only
     * with a strictly larger area (GABLAllocator._largest_within) */
    int64_t remaining = w * l, bw = w, bl = l, nsub = 0;
    while (remaining > 0) {
        int64_t x1, y1, w1, l1, x2, y2, w2, l2;
        int found = lfrb(c, bw, bl, remaining, &x1, &y1, &w1, &l1);
        if (bw != bl && lfrb(c, bl, bw, remaining, &x2, &y2, &w2, &l2)
            && (!found || w2 * l2 > w1 * l1)) {
            x1 = x2; y1 = y2; w1 = w2; l1 = l2;
            found = 1;
        }
        if (!found)
            return -1;  /* invariant: free >= remaining */
        take_rect(c, j, x1, y1, w1, l1);
        /* the chunk's cells leave the rows too (w1 = 64 is the whole
         * word: a 64-bit shift by 64 is undefined) */
        const uint64_t mask = w1 < 64 ? ((UINT64_C(1) << w1) - 1) << x1
                                      : ~UINT64_C(0);
        for (int64_t y = y1; y < y1 + l1; y++) c->rows[y] &= ~mask;
        nsub++;
        remaining -= w1 * l1;
        bw = w1; bl = l1;
    }
    c->cur_nsub = nsub;
    return 1;
}

/* ------------------------------------------------ Paging(0) allocator */

static int alloc_paging(SoaCtx *c, int64_t j, int64_t w, int64_t l)
{
    const int64_t need = w * l, W = c->W, L = c->L;
    if (need > c->I[I_FREE]) return 0;
    int64_t cnt = 0, runs = 0, prev_x = -2, prev_y = -1;
    for (int64_t y = 0; y < L && cnt < need; y++)
        for (int64_t x = 0; x < W && cnt < need; x++) {
            if (c->owner[y * W + x] >= 0) continue;
            c->owner[y * W + x] = j;
            c->ids[c->ids_len++] = y * W + x;
            cnt++;
            if (y != prev_y || x != prev_x + 1) runs++;
            prev_x = x; prev_y = y;
        }
    c->I[I_FREE] -= need;
    c->cur_nsub = runs;
    return 1;
}

/* ------------------------------------------------------ MBS allocator */

static int mbs_entry_less(SoaCtx *c, int64_t base, int64_t a, int64_t b)
{
    /* heap entries order by (node y, node x, entry epoch) */
    int64_t na = c->mhn[base + a], nb = c->mhn[base + b];
    if (c->ny[na] != c->ny[nb]) return c->ny[na] < c->ny[nb];
    if (c->nx[na] != c->nx[nb]) return c->nx[na] < c->nx[nb];
    return c->mhe[base + a] < c->mhe[base + b];
}

static void mbs_entry_swap(SoaCtx *c, int64_t base, int64_t a, int64_t b)
{
    int64_t e = c->mhe[base + a]; c->mhe[base + a] = c->mhe[base + b];
    c->mhe[base + b] = e;
    int64_t n = c->mhn[base + a]; c->mhn[base + a] = c->mhn[base + b];
    c->mhn[base + b] = n;
}

static void mbs_sift_down(SoaCtx *c, int64_t base, int64_t n, int64_t i)
{
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && mbs_entry_less(c, base, l, m)) m = l;
        if (r < n && mbs_entry_less(c, base, r, m)) m = r;
        if (m == i) break;
        mbs_entry_swap(c, base, i, m);
        i = m;
    }
}

static void mbs_heap_push(SoaCtx *c, int64_t k, int64_t node)
{
    int64_t base = c->mhoff[k];
    int64_t cap = c->mhoff[k + 1] - base;
    if (c->mhl[k] == cap) {
        /* compact: drop stale entries (pop order over the valid set is
         * key-determined, so compaction never changes the sequence) */
        int64_t n = 0;
        for (int64_t i = 0; i < c->mhl[k]; i++) {
            int64_t nd = c->mhn[base + i];
            if (c->nstate[nd] == B_FREE && c->nepoch[nd] == c->mhe[base + i]) {
                c->mhe[base + n] = c->mhe[base + i];
                c->mhn[base + n] = nd;
                n++;
            }
        }
        c->mhl[k] = n;
        for (int64_t i = n / 2 - 1; i >= 0; i--)
            mbs_sift_down(c, base, n, i);
    }
    int64_t i = c->mhl[k]++;
    c->mhe[base + i] = c->nepoch[node];
    c->mhn[base + i] = node;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!mbs_entry_less(c, base, i, p)) break;
        mbs_entry_swap(c, base, i, p);
        i = p;
    }
}

static void mbs_heap_pop_top(SoaCtx *c, int64_t k)
{
    int64_t base = c->mhoff[k];
    int64_t n = --c->mhl[k];
    c->mhe[base] = c->mhe[base + n];
    c->mhn[base] = c->mhn[base + n];
    mbs_sift_down(c, base, n, 0);
}

static void mbs_push_free(SoaCtx *c, int64_t node)
{
    c->nstate[node] = B_FREE;
    c->nepoch[node]++;
    mbs_heap_push(c, c->nk[node], node);
}

static int64_t mbs_pop_free(SoaCtx *c, int64_t k)
{
    int64_t base = c->mhoff[k];
    while (c->mhl[k] > 0) {
        int64_t node = c->mhn[base];
        int valid = c->nstate[node] == B_FREE
            && c->nepoch[node] == c->mhe[base];
        mbs_heap_pop_top(c, k);
        if (valid) return node;
    }
    return -1;
}

static int mbs_peek_free(SoaCtx *c, int64_t k)
{
    int64_t base = c->mhoff[k];
    while (c->mhl[k] > 0) {
        int64_t node = c->mhn[base];
        if (c->nstate[node] == B_FREE && c->nepoch[node] == c->mhe[base])
            return 1;
        mbs_heap_pop_top(c, k);
    }
    return 0;
}

static int64_t mbs_new_node(SoaCtx *c, int64_t k, int64_t x, int64_t y,
                            int64_t parent)
{
    int64_t n = c->I[I_NCNT]++;
    if (n >= c->node_cap) return -1;
    c->nk[n] = k; c->nx[n] = x; c->ny[n] = y;
    c->npar[n] = parent; c->nchild[n] = -1;
    c->nstate[n] = B_FREE; c->nepoch[n] = 0; c->nown[n] = -1;
    return n;
}

static int mbs_init(SoaCtx *c)
{
    for (int64_t k = 0; k <= c->max_k; k++) c->mhl[k] = 0;
    for (int64_t i = 0; i < c->n_roots; i++) {
        int64_t n = mbs_new_node(c, c->rk[i], c->rx[i], c->ry[i], -1);
        if (n < 0) return -1;
        mbs_push_free(c, n);
    }
    c->I[I_MBSINIT] = 1;
    return 0;
}

static int64_t mbs_split_down(SoaCtx *c, int64_t block, int64_t target_k)
{
    while (c->nk[block] > target_k) {
        c->nstate[block] = B_SPLIT;
        c->nepoch[block]++;
        if (c->nchild[block] < 0) {
            int64_t h = (int64_t)1 << (c->nk[block] - 1);
            int64_t x = c->nx[block], y = c->ny[block];
            int64_t c0 = mbs_new_node(c, c->nk[block] - 1, x, y, block);
            int64_t c1 = mbs_new_node(c, c->nk[block] - 1, x + h, y, block);
            int64_t c2 = mbs_new_node(c, c->nk[block] - 1, x, y + h, block);
            int64_t c3 = mbs_new_node(c, c->nk[block] - 1, x + h, y + h,
                                      block);
            if (c3 < 0) return -1;
            c->nchild[block] = c0;
            (void)c1; (void)c2;
        }
        int64_t first = c->nchild[block];
        mbs_push_free(c, first + 1);
        mbs_push_free(c, first + 2);
        mbs_push_free(c, first + 3);
        block = first;
    }
    return block;
}

static int64_t mbs_take_block(SoaCtx *c, int64_t k)
{
    int64_t block = mbs_pop_free(c, k);
    if (block < 0) {
        for (int64_t j = k + 1; j <= c->max_k; j++) {
            if (mbs_peek_free(c, j)) {
                block = mbs_pop_free(c, j);
                block = mbs_split_down(c, block, k);
                break;
            }
        }
        if (block < 0) return -1;
    }
    c->nstate[block] = B_ALLOC;
    c->nepoch[block]++;
    return block;
}

static void mbs_merge_up(SoaCtx *c, int64_t block)
{
    int64_t parent = c->npar[block];
    while (parent >= 0) {
        int64_t first = c->nchild[parent];
        for (int64_t i = 0; i < 4; i++)
            if (c->nstate[first + i] != B_FREE) return;
        for (int64_t i = 0; i < 4; i++) {
            c->nstate[first + i] = B_ABSORBED;
            c->nepoch[first + i]++;
        }
        mbs_push_free(c, parent);
        parent = c->npar[parent];
    }
}

static int alloc_mbs(SoaCtx *c, int64_t j, int64_t w, int64_t l)
{
    int64_t p = w * l;
    if (p > c->I[I_FREE]) return 0;
    if (!c->I[I_MBSINIT] && mbs_init(c) < 0) return -1;
    int64_t needs[48];
    for (int64_t i = 0; i <= c->max_k; i++) needs[i] = 0;
    int64_t rest = p, level = 0;
    while (rest) {
        int64_t d = rest % 4;
        rest /= 4;
        if (level > c->max_k)
            needs[c->max_k] += d << (2 * (level - c->max_k));
        else
            needs[level] += d;
        level++;
    }
    int64_t nsub = 0;
    for (int64_t i = c->max_k; i >= 0; i--) {
        while (needs[i]) {
            int64_t block = mbs_take_block(c, i);
            if (block < 0) {
                if (i == 0) return -1;  /* free lists inconsistent */
                needs[i - 1] += 4 * needs[i];
                needs[i] = 0;
                break;
            }
            /* grant: mark the grid and append the block's node ids
             * row-major, in block acquisition order */
            c->nown[block] = j;
            int64_t side = (int64_t)1 << c->nk[block];
            take_rect(c, j, c->nx[block], c->ny[block], side, side);
            nsub++;
            needs[i]--;
        }
    }
    c->cur_nsub = nsub;
    return 1;
}

static void release_mbs(SoaCtx *c, int64_t j)
{
    /* push all of the job's blocks free, then cascade merges for those
     * still free.  Scanning the arena in index order instead of the
     * Python token order is outcome-identical: per-node epochs do not
     * depend on cross-node push order, heap pop order is key-determined,
     * and the buddy-merge rewriting is confluent. */
    int64_t cnt = c->I[I_NCNT];
    for (int64_t n = 0; n < cnt; n++)
        if (c->nstate[n] == B_ALLOC && c->nown[n] == j) {
            c->nown[n] = -1;
            mbs_push_free(c, n);
        }
    for (int64_t n = 0; n < cnt; n++)
        if (c->npar[n] >= 0 && c->nstate[n] == B_FREE
            && c->nown[n] == -1 && c->nepoch[n] > 0) {
            /* only blocks freed by this release can trigger new merges,
             * and re-running merge_up on other free blocks is a no-op
             * (their buddies' states are unchanged since their own
             * release), so a full sweep is safe and simple */
            mbs_merge_up(c, n);
        }
}

/* ------------------------------------------------- allocation wrapper */

static int try_alloc(SoaCtx *c, int64_t j)
{
    const int64_t w = c->jw[j], l = c->jl[j];
    if (c->I[I_VERSION] != c->I[I_MEMOVER]) {
        memset(c->memo, 0, (size_t)(c->W * c->L));
        c->I[I_MEMOVER] = c->I[I_VERSION];
    }
    const int64_t mi = (w - 1) * c->L + (l - 1);
    if (c->memo[mi]) return 0;
    c->ids_len = 0;
    int r;
    switch (c->alloc_kind) {
    case 0: r = alloc_gabl(c, j, w, l); break;
    case 1: r = alloc_paging(c, j, w, l); break;
    case 2: r = alloc_mbs(c, j, w, l); break;
    default: return -1;
    }
    if (r < 0) return -1;
    if (!r) { c->memo[mi] = 1; return 0; }
    c->jns[j] = c->cur_nsub;
    /* chain the granted cells so the release walks only its own */
    for (int64_t k = 0; k + 1 < c->ids_len; k++)
        c->link[c->ids[k]] = c->ids[k + 1];
    c->link[c->ids[c->ids_len - 1]] = -1;
    c->jhead[j] = c->ids[0];
    c->I[I_VERSION]++;
    return 1;
}

static void release_job(SoaCtx *c, int64_t j)
{
    for (int64_t i = c->jhead[j]; i >= 0; i = c->link[i]) {
        c->owner[i] = -1;
        c->I[I_FREE]++;
    }
    if (c->alloc_kind == 2) release_mbs(c, j);
    c->I[I_VERSION]++;
}

/* -------------------------------------------------------- job launch */

/* AllToAllTraffic.destination_offsets, ported verbatim */
static void dest_offsets(int64_t *offs, int64_t n, int64_t msgs)
{
    const int64_t span = n - 1;
    int64_t near_mag = 0;
    int64_t far_steps = (msgs + 1) / 2;
    int64_t far_stride = span / (far_steps > 0 ? far_steps : 1);
    if (far_stride < 1) far_stride = 1;
    int64_t far_idx = 0;
    for (int64_t k = 0; k < msgs; k++) {
        if ((k & 1) == 0) {
            near_mag = near_mag % span + 1;
            offs[k] = near_mag;
        } else {
            int64_t mag = 1 + (span / 2 + far_idx * far_stride) % span;
            far_idx++;
            offs[k] = n - mag;
        }
    }
}

static void launch(SoaCtx *c, int64_t j)
{
    const int64_t size = c->jw[j] * c->jl[j];
    const int64_t msgs = c->jmsg[j];
    const double now = c->F[F_NOW];
    if (size < 2) {
        c->I[I_SEQ]++;
        comp_push(c, now + (double)msgs * c->gap, c->I[I_SEQ], j);
        return;
    }
    dest_offsets(c->offs, size, msgs);
    double out[3];
    out[0] = 0.0; out[1] = 0.0; out[2] = now;
    solve_rounds(c->ids, size, c->offs, msgs, now, c->gap, c->free_at,
                 c->hop, c->occ, c->drain, c->W, c->L, c->wrap, c->xy, out);
    c->jpk[j] = size * msgs;
    c->jlat[j] = out[0];
    c->jblk[j] = out[1];
    c->I[I_SEQ]++;
    comp_push(c, out[2], c->I[I_SEQ], j);
}

static void start_job(SoaCtx *c, int64_t j)
{
    c->jat[j] = c->F[F_NOW];
    busy_change(c, c->jw[j] * c->jl[j]);
    launch(c, j);
}

static int dispatch(SoaCtx *c)
{
    for (;;) {
        if (qsize(c) <= 0) return 0;
        int progress = 0;
        int64_t cnt = sched_peek(c, c->window);
        for (int64_t i = 0; i < cnt; i++) {
            int64_t j = c->pkj[i];
            int r = try_alloc(c, j);
            if (r < 0) return -1;
            if (r) {
                sched_remove(c, j);
                start_job(c, j);
                progress = 1;
                break;
            }
        }
        if (!progress) return 0;
    }
}

/* ---------------------------------------------------------- main loop */

/* Advance one lane until it finishes (1) or runs out of materialised
 * arrivals (0; the caller refills the job arrays and calls again).
 * Negative return values signal internal invariant violations. */
int64_t soa_advance(void **P, const int64_t *CI, const double *CF)
{
    if (CI[CI_MAGIC] != LAYOUT_MAGIC) return -99;
    SoaCtx ctx, *c = &ctx;
    soa_unpack(c, P, CI, CF);
    c->ids_len = 0;
    c->cur_nsub = 0;
    if (c->max_k >= 48) return -98;
    if (c->alloc_kind == 0 && c->W > 64) return -97;  /* one word a row */

    double *F = c->F;
    int64_t *I = c->I;
    for (;;) {
        if (!I[I_HASPEND] && I[I_NEXT] < c->n_prov) {
            /* only reachable on the very first call: afterwards the
             * next arrival is scheduled while consuming the previous
             * one, exactly like _schedule_next_arrival */
            double at = c->arr[I[I_NEXT]];
            F[F_PENDING] = at > F[F_NOW] ? at : F[F_NOW];
            I[I_HASPEND] = 1;
        }
        if (!I[I_HASPEND] && !c->exhausted) return 0;  /* NEED_JOBS */
        int has_comp = I[I_CLEN] > 0;
        if (!I[I_HASPEND] && !has_comp) {
            /* event heap drained: Engine.run clamps the clock forward
             * to `until` when one was given */
            if (c->has_until && c->until > F[F_NOW]) F[F_NOW] = c->until;
            return 1;  /* DONE */
        }
        /* next event: DEPARTURE (priority 1) beats ARRIVAL (2) at ties */
        int take_comp;
        if (!has_comp) take_comp = 0;
        else if (!I[I_HASPEND]) take_comp = 1;
        else take_comp = c->ct[0] <= F[F_PENDING];
        double evt = take_comp ? c->ct[0] : F[F_PENDING];
        if (c->has_until && evt > c->until) {
            F[F_NOW] = c->until;
            return 1;  /* DONE: the event stays queued, like Engine.run */
        }
        if (take_comp) {
            double t;
            int64_t j = comp_pop(c, &t);
            F[F_NOW] = t;
            release_job(c, j);
            busy_change(c, -(c->jw[j] * c->jl[j]));
            I[I_COMPLETED]++;
            if (I[I_COMPLETED] > c->warmup) {
                I[I_MEASURED]++;
                const double dep = F[F_NOW];
                F[F_TURN] += dep - c->arr[j];
                F[F_SERV] += dep - c->jat[j];
                F[F_WAIT] += c->jat[j] - c->arr[j];
                F[F_LAT] += c->jlat[j];
                F[F_BLK] += c->jblk[j];
                I[I_PACKETS] += c->jpk[j];
                I[I_FRAG] += c->jns[j];
                if (c->jns[j] == 1) I[I_CONTIG]++;
            }
            if (I[I_COMPLETED] >= c->jobs_target) return 1;  /* DONE */
            if (dispatch(c) < 0) return -1;
        } else {
            /* consuming arrival j immediately schedules arrival j+1
             * (at the *current* clock), so j+1 must be materialised
             * first -- refill before touching the pending arrival */
            if (I[I_NEXT] + 1 >= c->n_prov && !c->exhausted)
                return 0;  /* NEED_JOBS */
            F[F_NOW] = F[F_PENDING];
            I[I_HASPEND] = 0;
            int64_t j = I[I_NEXT]++;
            sched_add(c, j);
            int64_t q = qsize(c);
            if (q > I[I_QPEAK]) I[I_QPEAK] = q;
            if (I[I_NEXT] < c->n_prov) {
                double at = c->arr[I[I_NEXT]];
                F[F_PENDING] = at > F[F_NOW] ? at : F[F_NOW];
                I[I_HASPEND] = 1;
            }
            if (dispatch(c) < 0) return -1;
        }
    }
}
"""

#: the full translation unit: the network reservation kernel first (the
#: driver calls its ``solve_rounds`` directly), the generated layout,
#: then the lane driver
_SOURCE = (
    _NETWORK_SOURCE + _LAYOUT_SOURCE
    + f"#define LAYOUT_MAGIC {LAYOUT_MAGIC}\n" + _DRIVER_SOURCE
)

_memo = KernelMemo()


def _build() -> ctypes.CDLL | None:
    lib = build("soa", _SOURCE)
    if lib is None:
        return None
    lib.soa_advance.restype = ctypes.c_int64
    lib.soa_advance.argtypes = [
        ctypes.POINTER(ctypes.c_void_p), ctypes.c_void_p, ctypes.c_void_p,
    ]
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled lane driver, or ``None`` when unavailable (memoised,
    thread-safe: built once per process, see :mod:`repro._toolchain`)."""
    return _memo.get(_build)


def reset_kernel_cache() -> None:
    """Forget the memoised kernel (tests toggling ``REPRO_NATIVE``)."""
    _memo.reset()
