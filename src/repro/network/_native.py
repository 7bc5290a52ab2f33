"""Optional compiled kernel for the batch backend's reservation loop.

The channel-reservation recurrence is a strict sequential dependency
chain (every packet's reservation depends on the channel state left by
the previous one).  When a C compiler is available, this module builds
a small kernel that walks each packet's XY route and runs the exact
same float64 recurrence as
:meth:`repro.network.wormhole.FastBackend.transmit`.  It exports two
entries: ``solve_rounds`` reserves one whole launch (every round of a
job's all-to-all exchange) per call and returns its aggregate
statistics; ``solve_round`` reserves one round and writes every
packet's ``(t_inject, t_deliver, blocking)``, for a lossy launch whose
fates are drawn in Python between rounds.

Both go through the same ``static inline`` helpers (``transmit``,
``walk``, ``reserve``), which are the only C walk: the SoA lane driver
(:mod:`repro.core._soa_native`) embeds this source and calls
``solve_rounds`` too.  The walk divides nowhere per packet.  Each
launch's node ids become ``(x, y)`` once, in a table of ``2 * n`` int64
the caller owns (``solve_rounds`` fills it, ``solve_round`` reads it,
so the kernel still allocates nothing); each round's offset is
normalised once with Python's ``%`` semantics, so an offset of any sign
or size picks the destination ``fast`` picks; and the hops step the
channel index by 6 per x hop and ``6 * width`` per y hop.

Each channel reservation is branch-free: the service start is a select,
``s = max(free_at[c], t)``, and the wait ``s - t`` is added to the
packet's blocking sum on every hop, stalled or not.  Where ``fast``
adds nothing (no stall) the wait is ``+0.0``, and adding ``+0.0``
leaves a sum that starts at ``+0.0`` and only grows unchanged bit for
bit, so the blocking sums are the reference's exactly.

The kernel is strictly optional: :mod:`repro.network.batch` falls back
to the ``fast`` reference loop (same results) when compilation is
impossible.  Because the C code performs the identical IEEE-754
operations in the identical order -- compiled with ``-ffp-contract=off``
so no multiply-adds are fused -- its outputs are bit-identical to the
reference engine.

**GIL-release contract.**  The kernel is loaded with :class:`ctypes.CDLL`
(never ``PyDLL``), so every foreign call releases the GIL for its whole
duration, and the C code touches nothing but the flat arrays passed as
arguments -- no Python state, no globals, no allocation.  Calls made
from different threads on *disjoint* arrays therefore run genuinely in
parallel; the thread-based campaign executor
(:mod:`repro.experiments.campaign`) relies on this.  The one shared
mutable step -- the lazy first-use compile -- is serialised by
:data:`repro._toolchain.KERNEL_LOCK`, so N threads racing through
:func:`load_kernel` build and load exactly once.  Building, caching and
the ``REPRO_NATIVE=0`` switch live in :mod:`repro._toolchain`.
"""

from __future__ import annotations

import ctypes

from repro._toolchain import KernelMemo, build

_SOURCE = r"""
#include <stdint.h>

/* XY wormhole whole-path reservation, one packet at a time in exactly
 * the order and arithmetic of the Python reference loop
 * (repro.network.wormhole.FastBackend.transmit).
 *
 * The XY walk mirrors repro.network.routing: x first then y, each
 * dimension taking the shorter way around on a torus with ties broken
 * towards the positive direction.  Channel indices are node * 6 + dir
 * with dir in {INJ=0, EJ=1, EAST=2, WEST=3, NORTH=4, SOUTH=5}, so one
 * x hop moves the channel index by 6 and one y hop by 6 * width.
 *
 * The walk divides nowhere per packet: solve_rounds converts each
 * node id to (x, y) once per launch, normalises each round's offset
 * once, and the hops step channel indices by stride (a torus wraps a
 * coordinate with a compare).  The helpers are `static inline`: kept
 * as a call, walk would pass the blocking sum through memory on every
 * hop.
 */

/* Hops and direction (+1/-1) along one dimension, from coordinates in
 * [0, size): on a torus the shorter way around, ties going forward. */
static inline int64_t dim_step(int64_t src, int64_t dst, int64_t size,
                               int wrap, int64_t *count)
{
    int64_t forward = dst - src;
    if (!wrap) {
        if (forward >= 0) { *count = forward; return 1; }
        *count = -forward;
        return -1;
    }
    if (forward < 0) forward += size;
    const int64_t backward = size - forward;
    if (forward <= backward) { *count = forward; return 1; }
    *count = backward;
    return -1;
}

/* Reserve one channel: FIFO wait (added to *blk, the contention
 * accumulator) exactly as the reference loop accrues it, stall by
 * stall, so blocking sums stay bit-identical for any float config.
 *
 * Branch-free: the service start is a select (gcc -O2 emits maxsd, not
 * a stall branch that mispredicts on contended hops) and the wait is
 * added on every hop.  Where the reference loop skips the add (no
 * stall, f <= t), s - t is +0.0, and x + +0.0 == x bit for bit for
 * every x but -0.0; the sum starts at +0.0 and only ever adds waits
 * >= +0.0, so it is never -0.0. */
static inline double reserve(double *free_at, int64_t c, double t,
                             double occ, double *blk)
{
    const double f = free_at[c];
    const double s = f > t ? f : t;
    *blk += s - t;
    free_at[c] = s + occ;
    return s;
}

/* Reserve `count` link channels along one dimension, starting at
 * channel c of coordinate pos and moving `step` (+1/-1) per hop; the
 * channel index moves by `stride` per unit of the coordinate.  On a
 * torus the coordinate wraps at `size`, moving c back by a whole lap.
 * Returns the header time after the last hop. */
static inline double walk(double *free_at, int64_t c, int64_t pos,
                          int64_t count, int64_t step, int64_t stride,
                          int64_t size, int32_t wrap, double t, double hop,
                          double occ, double *blk)
{
    const int64_t dc = step > 0 ? stride : -stride;
    if (!wrap) {
        for (int64_t i = 0; i < count; i++) {
            t = reserve(free_at, c, t, occ, blk) + hop;
            c += dc;
        }
        return t;
    }
    const int64_t lap = stride * size;
    for (int64_t i = 0; i < count; i++) {
        t = reserve(free_at, c, t, occ, blk) + hop;
        pos += step;
        c += dc;
        if (pos == size) { pos = 0; c -= lap; }
        else if (pos < 0) { pos = size - 1; c += lap; }
    }
    return t;
}

/* One packet: whole-path reservation src -> dst, injected at t0, with
 * the endpoints given as node ids and (x, y) coordinates.  Returns the
 * ejection-channel service start; *t_inj_out gets the injection-channel
 * service start, *blk_out the per-hop blocking sum.  Forced inline: with
 * two callers (solve_rounds, solve_round) gcc -O2 would otherwise keep
 * it as one out-of-line call per packet in both. */
static inline __attribute__((always_inline))
double transmit(const double t0, const int64_t src, const int64_t sx,
                const int64_t sy, const int64_t dst, const int64_t dx,
                const int64_t dy, double *free_at, const double hop,
                const double occ, const int64_t width, const int64_t length,
                const int32_t wrap, double *t_inj_out, double *blk_out)
{
    int64_t cx, cy;
    const int64_t step_x = dim_step(sx, dx, width, wrap, &cx);
    const int64_t step_y = dim_step(sy, dy, length, wrap, &cy);
    /* injection: waiting here is source queueing, not blocking */
    const double f = free_at[src * 6];
    double t = t0 >= f ? t0 : f;
    free_at[src * 6] = t + occ;
    *t_inj_out = t;
    t += hop;
    double blocking = 0.0;
    /* x hops along row sy (EAST : WEST), then y hops along column dx
     * (NORTH : SOUTH) */
    t = walk(free_at, src * 6 + (step_x > 0 ? 2 : 3), sx, cx, step_x, 6,
             width, wrap, t, hop, occ, &blocking);
    t = walk(free_at, (sy * width + dx) * 6 + (step_y > 0 ? 4 : 5), sy, cy,
             step_y, 6 * width, length, wrap, t, hop, occ, &blocking);
    const double t_ej = reserve(free_at, dst * 6 + 1, t, occ, &blocking);
    *blk_out = blocking;
    return t_ej;
}

/* A whole launch: round r is the cyclic permutation i -> (i +
 * offsets[r]) mod n over the node ids (Python `%`: any sign or size of
 * offset), injected at now + r * gap, in deterministic packet order.
 * xy is caller-owned scratch of 2 * n int64 for the nodes' (x, y).
 * Aggregates the per-packet statistics exactly as the reference engine
 * does:
 *
 * out[0] += latency  (= t_eject + hop + drain - t_inject)
 * out[1] += blocking (per-hop stall sum, injection wait excluded)
 * out[2]  = completion time of the last packet (init by caller to now)
 */
void solve_rounds(const int64_t *ids, int64_t n, const int64_t *offsets,
                  int64_t rounds, double now, double gap, double *free_at,
                  double hop, double occ, double drain,
                  int64_t width, int64_t length, int32_t wrap,
                  int64_t *xy, double *out)
{
    if (n <= 0) return;
    for (int64_t i = 0; i < n; i++) {
        xy[2 * i] = ids[i] % width;
        xy[2 * i + 1] = ids[i] / width;
    }
    double latency = out[0], blocking_sum = out[1], last = out[2];
    for (int64_t r = 0; r < rounds; r++) {
        const double t_round = now + (double)r * gap;
        int64_t j = offsets[r] % n;
        if (j < 0) j += n;
        for (int64_t i = 0; i < n; i++) {
            double t_inj, blocking;
            const double t_ej = transmit(t_round, ids[i], xy[2 * i],
                                         xy[2 * i + 1], ids[j], xy[2 * j],
                                         xy[2 * j + 1], free_at, hop, occ,
                                         width, length, wrap, &t_inj,
                                         &blocking);
            const double t_deliver = t_ej + hop + drain;
            latency += t_deliver - t_inj;
            blocking_sum += blocking;
            last = t_deliver > last ? t_deliver : last;
            if (++j == n) j = 0;
        }
    }
    out[0] = latency;
    out[1] = blocking_sum;
    out[2] = last;
}

/* One round of a launch, packet by packet: the cyclic permutation
 * i -> (i + offset) mod n over the node ids (Python `%`), every packet
 * queued at time t, reserved in source order through the same
 * transmit as solve_rounds.  xy holds the nodes' (x, y), filled by the
 * caller once per launch.  Per packet i it writes
 *
 * out[3 * i]     = t_inject  (injection-channel service start)
 * out[3 * i + 1] = t_deliver (= t_eject + hop + drain)
 * out[3 * i + 2] = blocking  (per-hop stall sum)
 *
 * the three fields of the reference loop's PathTiming. */
void solve_round(const int64_t *ids, const int64_t *xy, int64_t n,
                 int64_t offset, double t, double *free_at, double hop,
                 double occ, double drain, int64_t width, int64_t length,
                 int32_t wrap, double *out)
{
    if (n <= 0) return;
    int64_t j = offset % n;
    if (j < 0) j += n;
    for (int64_t i = 0; i < n; i++) {
        double t_inj, blocking;
        const double t_ej = transmit(t, ids[i], xy[2 * i], xy[2 * i + 1],
                                     ids[j], xy[2 * j], xy[2 * j + 1],
                                     free_at, hop, occ, width, length, wrap,
                                     &t_inj, &blocking);
        out[3 * i] = t_inj;
        out[3 * i + 1] = t_ej + hop + drain;
        out[3 * i + 2] = blocking;
        if (++j == n) j = 0;
    }
}
"""

_memo = KernelMemo()


def _build() -> ctypes.CDLL | None:
    lib = build("reserve", _SOURCE)
    if lib is None:
        return None
    lib.solve_rounds.restype = None
    lib.solve_rounds.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    lib.solve_round.restype = None
    lib.solve_round.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_int64, ctypes.c_int64, ctypes.c_int32,
        ctypes.c_void_p,
    ]
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` when unavailable (memoised,
    thread-safe: built once per process, see :mod:`repro._toolchain`)."""
    return _memo.get(_build)


def reset_kernel_cache() -> None:
    """Forget the memoised kernel (tests toggling ``REPRO_NATIVE``)."""
    _memo.reset()
