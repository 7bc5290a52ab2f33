"""Optional compiled kernel for the batch backend's reservation loop.

The channel-reservation recurrence is a strict sequential dependency
chain (every packet's reservation depends on the channel state left by
the previous one).  When a C compiler is available, this module builds
a small kernel that walks each packet's XY route and runs the exact
same float64 recurrence as
:meth:`repro.network.wormhole.FastBackend.transmit`, one whole launch
(every round of a job's all-to-all exchange) per call.

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
 * with dir in {INJ=0, EJ=1, EAST=2, WEST=3, NORTH=4, SOUTH=5}.
 */

static int64_t dim_step(int64_t src, int64_t dst, int64_t size, int wrap,
                        int64_t *count)
{
    if (dst == src) { *count = 0; return 1; }
    if (!wrap) {
        if (dst > src) { *count = dst - src; return 1; }
        *count = src - dst;
        return -1;
    }
    int64_t forward = (dst - src) % size;
    if (forward < 0) forward += size;
    int64_t backward = size - forward;
    if (forward <= backward) { *count = forward; return 1; }
    *count = backward;
    return -1;
}

/* Reserve one channel: FIFO wait (added to *blk, the contention
 * accumulator) exactly as the reference loop accrues it, stall by
 * stall, so blocking sums stay bit-identical for any float config. */
static double reserve(double *free_at, int64_t c, double t, double occ,
                      double *blk)
{
    const double f = free_at[c];
    if (f > t) {
        *blk += f - t;
        t = f;
    }
    free_at[c] = t + occ;
    return t;
}

/* One packet: whole-path reservation src -> dst, injected at t0.
 * Returns the ejection-channel service start; *t_inj_out gets the
 * injection-channel service start, *blk_out the per-hop blocking sum. */
static double transmit(const double t0, const int64_t src, const int64_t dst,
                       double *free_at, const double hop, const double occ,
                       const int64_t width, const int64_t length,
                       const int32_t wrap, double *t_inj_out,
                       double *blk_out)
{
    const int64_t sx = src % width, sy = src / width;
    const int64_t dx = dst % width, dy = dst / width;
    int64_t cx, cy;
    const int64_t step_x = dim_step(sx, dx, width, wrap, &cx);
    const int64_t step_y = dim_step(sy, dy, length, wrap, &cy);
    /* injection: waiting here is source queueing, not blocking */
    double f = free_at[src * 6];
    double t = t0 >= f ? t0 : f;
    free_at[src * 6] = t + occ;
    *t_inj_out = t;
    t += hop;
    double blocking = 0.0;
    const int64_t chan_dx = step_x > 0 ? 2 : 3;  /* EAST : WEST */
    int64_t x = sx;
    for (int64_t i = 0; i < cx; i++) {
        t = reserve(free_at, (sy * width + x) * 6 + chan_dx, t, occ,
                    &blocking) + hop;
        x += step_x;
        if (wrap) x = (x + width) % width;
    }
    const int64_t chan_dy = step_y > 0 ? 4 : 5;  /* NORTH : SOUTH */
    int64_t y = sy;
    for (int64_t i = 0; i < cy; i++) {
        t = reserve(free_at, (y * width + dx) * 6 + chan_dy, t, occ,
                    &blocking) + hop;
        y += step_y;
        if (wrap) y = (y + length) % length;
    }
    const double t_ej = reserve(free_at, dst * 6 + 1, t, occ, &blocking);
    *blk_out = blocking;
    return t_ej;
}

/* A whole launch: round r is the cyclic permutation i -> (i +
 * offsets[r]) mod n over the node ids, injected at now + r * gap, in
 * deterministic packet order.  Aggregates the per-packet statistics
 * exactly as the reference engine does:
 *
 * out[0] += latency  (= t_eject + hop + drain - t_inject)
 * out[1] += blocking (per-hop stall sum, injection wait excluded)
 * out[2]  = completion time of the last packet (init by caller to now)
 */
void solve_rounds(const int64_t *ids, int64_t n, const int64_t *offsets,
                  int64_t rounds, double now, double gap, double *free_at,
                  double hop, double occ, double drain,
                  int64_t width, int64_t length, int32_t wrap, double *out)
{
    for (int64_t r = 0; r < rounds; r++) {
        const double t_round = now + (double)r * gap;
        const int64_t offset = offsets[r];
        for (int64_t i = 0; i < n; i++) {
            double t_inj, blocking;
            const double t_ej = transmit(t_round, ids[i],
                                         ids[(i + offset) % n], free_at,
                                         hop, occ, width, length, wrap,
                                         &t_inj, &blocking);
            const double t_deliver = t_ej + hop + drain;
            out[0] += t_deliver - t_inj;
            out[1] += blocking;
            if (t_deliver > out[2])
                out[2] = t_deliver;
        }
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
    ]
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` when unavailable (memoised,
    thread-safe: built once per process, see :mod:`repro._toolchain`)."""
    return _memo.get(_build)


def reset_kernel_cache() -> None:
    """Forget the memoised kernel (tests toggling ``REPRO_NATIVE``)."""
    _memo.reset()
