"""Optional compiled kernel for the batch backend's reservation loop.

The channel-reservation recurrence is a strict sequential dependency
chain (every packet's reservation depends on the channel state left by
the previous one).  When a C compiler is available, this module builds
a small kernel that walks each packet's XY route and runs the exact
same float64 recurrence as
:meth:`repro.network.wormhole.FastBackend.transmit`.  It exports two
entries: ``solve_rounds`` reserves one whole launch (every round of a
job's all-to-all exchange) per call and returns its aggregate
statistics; ``resolve_launch`` resolves one lossy launch -- its event
loop, heap, ARQ protocol and reservations -- for
:func:`repro.network.channel.resolve_launch`, driven through
:class:`LaunchResolve`.

Both go through the same ``static inline`` helpers (``transmit``,
``walk``, ``reserve``), which are the only C walk: the SoA lane driver
(:mod:`repro.core._soa_native`) embeds this source and calls
``solve_rounds`` too.  The walk divides nowhere per packet.  Each
launch's node ids become ``(x, y)`` once, in a table of ``2 * n`` int64
the caller owns (both entries fill it, so the kernel still allocates
nothing); each round's offset is normalised once with Python's ``%``
semantics, so an offset of any sign or size picks the destination
``fast`` picks; and the hops step the channel index by 6 per x hop and
``6 * width`` per y hop.

**The lossy resolver and its draw handshake.**  ``resolve_launch`` is
the Python resolver's loop in C: the originals cursor beside a binary
heap keyed ``(t, ctr)`` with the Python counter sequence, the ports of
:class:`repro.network.arq.LaunchArq`'s flat arrays and protocols
(backoff, go-back-n's windows and arrival events), and the latency sum
flow by flow in ``(t_arrive, ctr)`` order.  It takes two shortcuts the
Python reference loop does not, each with the loop's result: a round of
originals goes out as one burst, and stop-and-wait and selective-repeat
accept a surviving attempt when it is sent (the C comment gives why
both hold).  It draws no random number.  Fates and delays stay in Python, drawn through
:class:`repro.network.channel.ChannelSampler`, so the channel stream
keeps one implementation, and every caller that reads or wraps the
sampler -- the trace's attempt counts, the sampler state after a
launch -- sees the draws it always saw.  Attempt ``m`` of a launch takes
outcome ``m`` whichever packet it is (a fate does not depend on the
packet), so Python can draw outcomes ahead as long as C is certain to
use them: when C runs out, it returns the number of attempts certain to
come, and Python draws exactly that many.  All its state lives in the
caller's buffers (:data:`RESOLVE_INTS`, :data:`RESOLVE_FLOATS`, the
heap), so a call can stop at any step and the next one resume there.

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
from array import array
from typing import Sequence

from repro._toolchain import KernelMemo, build
from repro.network.arq import (
    BACKOFF_CAP,
    DEFAULT_WINDOW,
    GO_BACK_N,
    MAX_ATTEMPTS,
    IDLE_REARMS,
    STOP_AND_WAIT,
)

#: ``resolve_launch``'s int64 header, one word each: the launch's
#: constants, the outcomes handed in, then the state one call leaves
#: for the next (``err`` names the packet behind an error code)
RESOLVE_INTS = (
    "n", "total", "width", "length", "wrap", "protocol", "cap",
    "ndraws", "pos",
    "ctr", "next_k", "next_i", "heap_len", "attempts", "timers", "idle",
    "err",
)
#: its float64 header: the launch's constants, then its sums
RESOLVE_FLOATS = (
    "now", "gap", "timeout", "spacing", "hop", "occ", "drain",
    "blocking", "latency", "last",
)
#: ``resolve_launch`` return codes other than a positive need
RESOLVE_DONE, RESOLVE_GROW, RESOLVE_EXCEEDED, RESOLVE_UNDELIVERED = 0, -1, -2, -3
RESOLVE_REARMS = -4
#: int64-sized words per heap event (``ArqEvent``)
EVENT_WORDS = 5

_I = {name: index for index, name in enumerate(RESOLVE_INTS)}
_F = {name: index for index, name in enumerate(RESOLVE_FLOATS)}


def _enum(prefix: str, names: Sequence[str]) -> str:
    slots = ", ".join(f"{prefix}_{name.upper()}" for name in names)
    return f"enum {{ {slots}, {prefix}_WORDS }};\n"


_SOURCE = (
    "#include <math.h>\n#include <stdint.h>\n\n"
    f"#define ARQ_WINDOW {DEFAULT_WINDOW}\n"
    f"#define ARQ_MAX_ATTEMPTS {MAX_ATTEMPTS}\n"
    f"#define ARQ_IDLE_REARMS {IDLE_REARMS}\n"
    f"#define ARQ_BACKOFF_CAP {BACKOFF_CAP}\n"
    f"#define ARQ_STOP_AND_WAIT {STOP_AND_WAIT}\n"
    f"#define ARQ_GO_BACK_N {GO_BACK_N}\n"
    f"#define ARQ_EVENT_WORDS {EVENT_WORDS}\n"
    f"#define RESOLVE_DONE {RESOLVE_DONE}\n"
    f"#define RESOLVE_GROW ({RESOLVE_GROW})\n"
    f"#define RESOLVE_EXCEEDED ({RESOLVE_EXCEEDED})\n"
    f"#define RESOLVE_UNDELIVERED ({RESOLVE_UNDELIVERED})\n"
    f"#define RESOLVE_REARMS ({RESOLVE_REARMS})\n"
    + _enum("RI", RESOLVE_INTS) + _enum("RF", RESOLVE_FLOATS)
) + r"""

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
 * two callers (solve_rounds, resolve_launch) gcc -O2 would otherwise
 * keep it as one out-of-line call per packet in both. */
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

/* ------------------------------------------- lossy launch resolver */

/* A channelled launch (repro.network.channel.resolve_launch), resolved
 * in the order and arithmetic of the Python resolver: the original
 * sends stream from a (next_k, next_i) cursor beside a binary heap of
 * resends (SEND), go-back-n arrivals (ARRIVE) and sender timeouts
 * (FAIL, or REARM once re-armed), keyed (t, ctr) with the Python
 * resolver's counter sequence, so the pop order is that of its heapq.  The ARQ protocols are ports
 * of repro.network.arq.LaunchArq over the same flat arrays, packet
 * (i, k) at j = i * total + k.
 *
 * Two shortcuts leave the result unchanged.  A round of originals is
 * one burst: its n sends share a send time t, an original wins a time
 * tie, and no attempt pushes an event earlier than t (arrivals land at
 * t_deliver + delay, timeouts at t_inject + detect delay), so once a
 * round starts no heap event can come between its sends.  And
 * stop-and-wait and selective-repeat accept a survivor when it is sent
 * (see the attempt below), so they push no ARRIVE.
 *
 * Fates and delays are not drawn here.  Attempt m of a launch takes
 * outcome m of the draws the caller hands in: -1.0 for a failed
 * attempt, else the surviving attempt's extra delay (0.0 without one).
 * When the next attempt finds no outcome left, the call saves its
 * state and returns how many attempts are certain to come -- every
 * unaccepted packet with no surviving attempt in flight needs one, and
 * the next attempt is one -- and the caller calls again with that many
 * new outcomes, so none is ever drawn and left unused.
 *
 * All state lives in the caller's buffers: the int64 words iv and the
 * float64 words fv (a header laid out by the RI_ and RF_ enums, then
 * the arrays below), the heap of cap events, and the reservation table
 * free_at.  Returns RESOLVE_DONE, a positive need, RESOLVE_GROW (the
 * heap may overflow in the next step, or cannot hold one flow for the
 * final sort: the caller grows it and calls again with the same
 * draws), RESOLVE_EXCEEDED (packet iv[RI_ERR] would exceed
 * ARQ_MAX_ATTEMPTS attempts), RESOLVE_REARMS (re-arming packet
 * iv[RI_ERR]'s timer in an idle launch would exceed ARQ_IDLE_REARMS per
 * packet and attempt since the last send, LaunchArq.rearm_idle) or
 * RESOLVE_UNDELIVERED (the launch drained with packet iv[RI_ERR]
 * unaccepted).
 *
 * Arrays after the headers, n flows of total packets, size = n * total:
 *   iv: ids[n] offsets[total] xy[2n] expected[n] waves[n] mark[n]
 *       attempts[size] log_ctr[size] inflight[size] pending[size]
 *   fv: busy[n] last_wave[n] accepted[size] first[size] log_lat[size]
 */

#define NOT_YET INFINITY

enum { SEND, ARRIVE, FAIL, REARM };

typedef struct {
    double t;      /* event time */
    int64_t ctr;   /* tie-break counter, unique per event */
    int64_t kind;  /* SEND, ARRIVE, FAIL or REARM (a re-armed FAIL) */
    int64_t j;     /* packet index */
    double aux;    /* ARRIVE: the attempt's injection time */
} ArqEvent;

_Static_assert(sizeof(ArqEvent) == 8 * ARQ_EVENT_WORDS, "event layout");

static inline int arq_before(const ArqEvent *a, const ArqEvent *b)
{
    return a->t < b->t || (a->t == b->t && a->ctr < b->ctr);
}

static inline void arq_push(ArqEvent *heap, int64_t *len, double t,
                            int64_t ctr, int64_t kind, int64_t j, double aux)
{
    const ArqEvent e = {t, ctr, kind, j, aux};
    int64_t i = (*len)++;
    while (i > 0) {
        const int64_t p = (i - 1) / 2;
        if (!arq_before(&e, &heap[p])) break;
        heap[i] = heap[p];
        i = p;
    }
    heap[i] = e;
}

static inline ArqEvent arq_pop(ArqEvent *heap, int64_t *len)
{
    const ArqEvent top = heap[0];
    const int64_t n = --(*len);
    const ArqEvent last = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && arq_before(&heap[c + 1], &heap[c])) c++;
        if (!arq_before(&heap[c], &last)) break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = last;
    return top;
}

/* LaunchArq.detect_delay: timeout doubled per attempt, capped */
static inline double arq_detect(double timeout, int64_t attempts)
{
    const int64_t e = attempts > 1 ? attempts - 1 : 0;
    return timeout * (double)((int64_t)1 << (e < ARQ_BACKOFF_CAP
                                             ? e : ARQ_BACKOFF_CAP));
}

int64_t resolve_launch(int64_t *iv, double *fv, double *free_at,
                       ArqEvent *heap, const double *draws)
{
    const int64_t n = iv[RI_N], total = iv[RI_TOTAL], size = n * total;
    const double now = fv[RF_NOW];
    if (size == 0) {
        fv[RF_LATENCY] = 0.0;
        fv[RF_LAST] = now;
        return RESOLVE_DONE;
    }
    const int64_t width = iv[RI_WIDTH], length = iv[RI_LENGTH];
    const int32_t wrap = (int32_t)iv[RI_WRAP];
    const int64_t protocol = iv[RI_PROTOCOL], cap = iv[RI_CAP];
    const int64_t ndraws = iv[RI_NDRAWS];
    const int on_send = protocol != ARQ_GO_BACK_N;
    const double gap = fv[RF_GAP], timeout = fv[RF_TIMEOUT];
    const double spacing = fv[RF_SPACING], hop = fv[RF_HOP];
    const double occ = fv[RF_OCC], drain = fv[RF_DRAIN];
    int64_t *ids = iv + RI_WORDS, *offsets = ids + n, *xy = offsets + total;
    int64_t *expected = xy + 2 * n, *waves = expected + n, *mark = waves + n;
    int64_t *attempts = mark + n, *log_ctr = attempts + size;
    int64_t *inflight = log_ctr + size, *pending = inflight + size;
    double *busy = fv + RF_WORDS, *last_wave = busy + n;
    double *accepted = last_wave + n, *first = accepted + size;
    double *log_lat = first + size;

    int64_t ctr = iv[RI_CTR];
    if (ctr == 0) {  /* first call: the heap counter starts at size */
        ctr = size;
        for (int64_t i = 0; i < n; i++) {
            xy[2 * i] = ids[i] % width;
            xy[2 * i + 1] = ids[i] / width;
            last_wave[i] = -INFINITY;
        }
        for (int64_t k = 0; k < total; k++) {  /* Python `%` */
            offsets[k] %= n;
            if (offsets[k] < 0) offsets[k] += n;
        }
        for (int64_t j = 0; j < size; j++) accepted[j] = first[j] = NOT_YET;
    }
    int64_t next_k = iv[RI_NEXT_K], next_i = iv[RI_NEXT_I];
    int64_t len = iv[RI_HEAP_LEN], pos = iv[RI_POS], sent = iv[RI_ATTEMPTS];
    /* the REARM events in the heap, and the idle re-arms since the last
     * attempt: with no original left and only REARMs in the heap,
     * nothing but a re-armed timer is to come */
    int64_t timers = iv[RI_TIMERS], idle = iv[RI_IDLE];
    double blocking_sum = fv[RF_BLOCKING];
    int64_t rc = RESOLVE_DONE;
    int starved = 0;  /* the next attempt found no outcome left */

    for (;;) {
        /* a step pops at most one event and pushes at most a window of
         * resends plus a re-armed timeout */
        if (len + ARQ_WINDOW + 1 > cap) { rc = RESOLVE_GROW; break; }
        int64_t j;
        double t;
        if (next_k < total && (next_i > 0 || len == 0
                               || now + (double)next_k * gap <= heap[0].t)) {
            /* an original: a round is one burst nothing interleaves with */
            if (pos == ndraws) { starved = 1; break; }
            j = next_i * total + next_k;
            t = now + (double)next_k * gap;
            if (++next_i == n) { next_i = 0; next_k++; }
        } else if (len == 0) {
            break;
        } else if (heap[0].kind == SEND) {  /* k's original went first */
            j = heap[0].j;
            if (accepted[j] == NOT_YET) {
                if (attempts[j] >= ARQ_MAX_ATTEMPTS) {
                    iv[RI_ERR] = j;
                    rc = RESOLVE_EXCEEDED;
                    break;
                }
                if (pos == ndraws) { starved = 1; break; }
            }
            t = arq_pop(heap, &len).t;
            pending[j] = 0;
            if (accepted[j] != NOT_YET) continue;  /* a stale resend */
        } else if (heap[0].kind == ARRIVE) {  /* go-back-n only */
            const ArqEvent e = arq_pop(heap, &len);
            j = e.j;
            inflight[j]--;
            if (accepted[j] != NOT_YET) continue;  /* a duplicate */
            const int64_t i = j / total;
            if (j - i * total == expected[i]) {
                expected[i]++;
                accepted[j] = e.t;
                log_ctr[j] = e.ctr;
                log_lat[j] = e.t - first[j];
                continue;
            }
            /* out-of-order discard: the sender finds out via its own
             * (cumulative-ack) timeout for this attempt */
            const double td = e.aux + arq_detect(timeout, attempts[j]);
            arq_push(heap, &len, td > e.t ? td : e.t, ++ctr, FAIL, j, 0.0);
            continue;
        } else {  /* FAIL or REARM */
            const ArqEvent e = arq_pop(heap, &len);
            j = e.j;
            t = e.t;
            if (e.kind == REARM) timers--;
            const int64_t i = j / total;
            if (accepted[j] == NOT_YET && !pending[j]) {
                if (on_send) {  /* resend exactly the failed packet */
                    double ts = t;
                    if (protocol == ARQ_STOP_AND_WAIT) {
                        ts = busy[i] > t ? busy[i] : t;
                        busy[i] = ts + timeout;
                    }
                    pending[j] = 1;
                    arq_push(heap, &len, ts, ++ctr, SEND, j, 0.0);
                } else {  /* go-back-n: one wave per flow timer epoch */
                    const int64_t cursor = expected[i];
                    if (cursor > mark[i]) waves[i] = 0;
                    const double interval = timeout * (double)(
                        (int64_t)1 << (waves[i] < ARQ_BACKOFF_CAP
                                       ? waves[i] : ARQ_BACKOFF_CAP));
                    if (!(t < last_wave[i] + interval)) {
                        int64_t stop = cursor + ARQ_WINDOW, count = 0;
                        if (stop > total) stop = total;
                        for (int64_t s = i * total + cursor;
                             s < i * total + stop; s++) {
                            /* only packets in flight: sent, unacked */
                            if (accepted[s] != NOT_YET || pending[s]
                                || !attempts[s])
                                continue;
                            pending[s] = 1;
                            arq_push(heap, &len, t + (double)count * spacing,
                                     ++ctr, SEND, s, 0.0);
                            count++;
                        }
                        if (count) {
                            last_wave[i] = t;
                            mark[i] = cursor;
                            waves[i]++;
                        }
                    }
                }
            }
            if (accepted[j] == NOT_YET && !pending[j]) {  /* timer re-arms */
                if (next_k == total && len == timers
                    && ++idle > ARQ_IDLE_REARMS * (size + sent)) {
                    iv[RI_ERR] = j;
                    rc = RESOLVE_REARMS;
                    break;
                }
                timers++;
                arq_push(heap, &len, t + arq_detect(timeout, attempts[j]),
                         ++ctr, REARM, j, 0.0);
            }
            continue;
        }

        /* one attempt of packet j, sent at t */
        const int64_t i = j / total, k = j - i * total;
        int64_t d = i + offsets[k];
        if (d >= n) d -= n;
        double t_inj, blocking;
        const double t_deliver = transmit(t, ids[i], xy[2 * i], xy[2 * i + 1],
                                          ids[d], xy[2 * d], xy[2 * d + 1],
                                          free_at, hop, occ, width, length,
                                          wrap, &t_inj, &blocking)
            + hop + drain;
        sent++;
        idle = 0;
        if (attempts[j]++ == 0) first[j] = t_inj;
        blocking_sum += blocking;
        ctr++;
        const double extra = draws[pos++];
        if (extra < 0.0) {
            arq_push(heap, &len, t_inj + arq_detect(timeout, attempts[j]),
                     ctr, FAIL, j, 0.0);
        } else if (on_send) {
            /* accept on send: under stop-and-wait and selective-repeat
             * at most one attempt of a packet is ever in flight -- the
             * original goes out once, and a resend of j is planned only
             * after its in-flight attempt failed, never while one is
             * pending.  Their receivers accept the first intact arrival
             * in any order, and no other packet's handling reads
             * accepted[j].  So this survivor is the only attempt of j in
             * flight and will be accepted on arrival: record it now, at
             * its arrival time and with this ctr, as the Python loop's
             * ARRIVE would.  Go-back-n's receiver accepts only the
             * sequence number it expects next, so its verdict depends on
             * the order of arrivals and it keeps one ARRIVE per
             * survivor. */
            const double ta = t_deliver + extra;
            accepted[j] = ta;
            log_ctr[j] = ctr;
            log_lat[j] = ta - first[j];
        } else {
            arq_push(heap, &len, t_deliver + extra, ctr, ARRIVE, j, t_inj);
            inflight[j]++;
        }
    }

    if (starved) {  /* count the attempts certain to come */
        rc = 0;
        for (int64_t j = 0; j < size; j++)
            rc += accepted[j] == NOT_YET && !inflight[j];
        if (rc == 0) rc = 1;
    }
    iv[RI_CTR] = ctr;
    iv[RI_NEXT_K] = next_k;
    iv[RI_NEXT_I] = next_i;
    iv[RI_HEAP_LEN] = len;
    iv[RI_POS] = pos;
    iv[RI_ATTEMPTS] = sent;
    iv[RI_TIMERS] = timers;
    iv[RI_IDLE] = idle;
    fv[RF_BLOCKING] = blocking_sum;
    if (rc != RESOLVE_DONE) return rc;

    for (int64_t j = 0; j < size; j++) {
        if (accepted[j] == NOT_YET) {
            iv[RI_ERR] = j;
            return RESOLVE_UNDELIVERED;
        }
    }
    /* latencies summed flow by flow in (t_arrive, ctr) order, the order
     * the arrival events would pop in: a heap sort of each flow */
    if (total > cap) return RESOLVE_GROW;
    double latency = 0.0, last = now;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = i * total; j < (i + 1) * total; j++)
            arq_push(heap, &len, accepted[j], log_ctr[j], ARRIVE, j,
                     log_lat[j]);
        while (len > 0) {
            const ArqEvent e = arq_pop(heap, &len);
            latency += e.aux;
            if (e.t > last) last = e.t;
        }
    }
    fv[RF_LATENCY] = latency;
    fv[RF_LAST] = last;
    return RESOLVE_DONE;
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
    lib.resolve_launch.restype = ctypes.c_int64
    lib.resolve_launch.argtypes = [ctypes.c_void_p] * 5
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` when unavailable (memoised,
    thread-safe: built once per process, see :mod:`repro._toolchain`)."""
    return _memo.get(_build)


def reset_kernel_cache() -> None:
    """Forget the memoised kernel (tests toggling ``REPRO_NATIVE``)."""
    _memo.reset()


class LaunchResolve:
    """One channelled launch in the buffers of the compiled
    ``resolve_launch``, over a ``batch`` backend with a loaded kernel.

    Lays out the launch's int64 and float64 words (the ``RESOLVE_INTS``
    and ``RESOLVE_FLOATS`` headers, then the arrays the C comment lists)
    and a heap with room for every packet's event plus one step;
    :meth:`run` then feeds the kernel one buffer of attempt outcomes at a
    time.  ``protocol`` is an index of
    :data:`repro.network.arq.ARQ_PROTOCOLS`.
    """

    __slots__ = ("network", "size", "ints", "floats", "heap")

    def __init__(
        self, network, nodes: Sequence[int], offsets: Sequence[int],
        now: float, round_gap: float, protocol: int, timeout: float,
        spacing: float,
    ) -> None:
        n, total = len(nodes), len(offsets)
        size = n * total
        topo = network.topology
        ints = dict.fromkeys(RESOLVE_INTS, 0)
        ints.update(
            n=n, total=total, width=topo.width, length=topo.length,
            wrap=int(topo.wrap), protocol=protocol,
            cap=size + DEFAULT_WINDOW + 1,
        )
        floats = dict.fromkeys(RESOLVE_FLOATS, 0.0)
        floats.update(
            now=now, gap=round_gap, timeout=timeout, spacing=spacing,
            hop=network.hop_cost, occ=network.occupancy, drain=network.drain,
        )
        self.network = network
        self.size = size
        self.ints = array("q", ints.values())
        self.ints.extend(nodes)
        self.ints.extend(offsets)
        self.ints.frombytes(bytes(8 * (5 * n + 4 * size)))
        self.floats = array("d", floats.values())
        self.floats.frombytes(bytes(8 * (2 * n + 3 * size)))
        self.heap = array("q", bytes(8 * EVENT_WORDS * ints["cap"]))

    def run(self, outcomes: array) -> int:
        """Continue the launch with ``outcomes`` (an ``array('d')``, one
        per attempt: ``-1.0`` failed, else the survivor's extra delay),
        growing the heap as the kernel asks, until the launch is done
        (:data:`RESOLVE_DONE`), fails (an error code, the packet in
        :attr:`error_packet`) or needs more outcomes: the returned
        count, every one of which the next call will use."""
        ints = self.ints
        ints[_I["ndraws"]] = len(outcomes)
        ints[_I["pos"]] = 0
        network = self.network
        args = (ints.buffer_info()[0], self.floats.buffer_info()[0],
                network.free_at.buffer_info()[0])
        while True:
            code = network.kernel.resolve_launch(
                *args, self.heap.buffer_info()[0], outcomes.buffer_info()[0]
            )
            if code != RESOLVE_GROW:
                return code
            self.heap.frombytes(bytes(8 * len(self.heap)))
            ints[_I["cap"]] = len(self.heap) // EVENT_WORDS

    @property
    def attempts(self) -> int:
        """Transmission attempts so far, originals and resends."""
        return self.ints[_I["attempts"]]

    @property
    def error_packet(self) -> int:
        """Index ``i * total + k`` of the packet an error code names."""
        return self.ints[_I["err"]]

    def sums(self) -> tuple[float, float, float]:
        """``(latency_sum, blocking_sum, last_delivery)`` of a done launch."""
        floats = self.floats
        return (floats[_F["latency"]], floats[_F["blocking"]],
                floats[_F["last"]])

    def accepts(self) -> list[float]:
        """Acceptance time of each packet, ``i * total + k`` order."""
        start = len(RESOLVE_FLOATS) + 2 * self.ints[_I["n"]]
        return self.floats[start:start + self.size].tolist()
