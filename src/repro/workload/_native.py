"""Compiled draw loops for the uniform-sides workload and the SDSC trace.

The uniform branch of :meth:`repro.workload.stochastic.StochasticWorkload.blocks`
interleaves, per job, two exponential draws (ziggurat) with two Lemire
bounded-integer draws from one ``default_rng`` bit stream.  The
rejection steps inside both algorithms make the stream consumption
data-dependent, so -- unlike the all-exponential branch -- the loop
cannot be replayed column-wise with NumPy batch calls.  The same holds
for :func:`repro.workload.sdsc.synthesize_sdsc_trace`, whose per-job
draws (a mixture choice, bounded integers, two log-normals and the
power-of-two nudge) run in every process that builds the real workload.

This module moves both loops into C **without reimplementing any
algorithm**: NumPy wheels ship ``numpy/random/lib/libnpyrandom.a``, the
exact static library behind ``Generator.exponential``,
``Generator.integers`` and ``Generator.lognormal``
(``random_standard_exponential``, ``random_bounded_uint64_fill``,
``random_lognormal``), for downstream projects to link against;
``Generator.random`` is the bit generator's own ``next_double``.  The
helpers receive the live ``bitgen_t`` pointer of the caller's
:class:`numpy.random.Generator` (via the documented
``bit_generator.ctypes`` interface) and perform the *same* calls in the
*same* per-job order, so every output value -- and the bit-stream
position afterwards -- is identical to the scalar loop by construction
(``tests/test_thread_executor.py`` and the columnar property suite
enforce it).

Like the other kernels the helpers are strictly optional (missing
compiler, missing static library, ``REPRO_NATIVE=0`` all fall back to
the Python loops, same results) and they are built and loaded through
the shared :mod:`repro._toolchain`.  Calls go through
:class:`ctypes.CDLL`, so the GIL is released while the draws run; the
caller owns the Generator -- block generation for one stream is
serialised by the block-cache lock, and each trace synthesis makes its
own -- so no two threads ever advance the same bit generator
concurrently.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._toolchain import KernelMemo, build

_SOURCE = r"""
#include <stdint.h>
#include <stdbool.h>
#include <stddef.h>
#include <math.h>

/* numpy/random/bitgen.h -- the stable public bit-generator ABI */
typedef struct bitgen {
  void *state;
  uint64_t (*next_uint64)(void *st);
  uint32_t (*next_uint32)(void *st);
  double (*next_double)(void *st);
  uint64_t (*next_raw)(void *st);
} bitgen_t;

/* resolved from libnpyrandom.a -- the exact routines behind
 * Generator.exponential, Generator.integers and Generator.lognormal */
extern double random_standard_exponential(bitgen_t *);
extern void random_bounded_uint64_fill(bitgen_t *, uint64_t off,
                                       uint64_t rng, intptr_t cnt,
                                       bool use_masked, uint64_t *out);
extern double random_lognormal(bitgen_t *, double mean, double sigma);

/* Replays, bit for bit, the scalar draw loop of the uniform-sides
 * stochastic workload:
 *
 *   for i in range(n):
 *       gaps[i]  = rng.exponential(mean_ia)   # mean_ia * std_exp
 *       w[i]     = rng.integers(1, w_hi)      # Lemire over [1, w_hi-1]
 *       l[i]     = rng.integers(1, l_hi)
 *       k_raw[i] = rng.exponential(num_mes)
 *
 * Generator.exponential(scale) is scale * random_standard_exponential
 * and Generator.integers(lo, hi) is random_bounded_uint64_fill with
 * off=lo, rng=hi-1-lo, use_masked=false (the Lemire path), so calling
 * the same libnpyrandom routines in the same order consumes the bit
 * stream identically and leaves the generator in the identical state.
 */
void uniform_draw_loop(bitgen_t *bg, intptr_t n, double mean_ia,
                       int64_t w_hi, int64_t l_hi, double num_mes,
                       double *gaps, int64_t *w, int64_t *l, double *k_raw)
{
    uint64_t buf;
    const uint64_t w_rng = (uint64_t)(w_hi - 2);
    const uint64_t l_rng = (uint64_t)(l_hi - 2);
    for (intptr_t i = 0; i < n; i++) {
        gaps[i] = mean_ia * random_standard_exponential(bg);
        random_bounded_uint64_fill(bg, 1, w_rng, 1, false, &buf);
        w[i] = (int64_t)buf;
        random_bounded_uint64_fill(bg, 1, l_rng, 1, false, &buf);
        l[i] = (int64_t)buf;
        k_raw[i] = num_mes * random_standard_exponential(bg);
    }
}

/* One bounded integer exactly as Generator.integers(lo, hi + 1). */
static int64_t draw_int(bitgen_t *bg, int64_t lo, int64_t hi)
{
    uint64_t buf;
    random_bounded_uint64_fill(bg, (uint64_t)lo, (uint64_t)(hi - lo), 1,
                               false, &buf);
    return (int64_t)buf;
}

static double clamp_size(double size, double max_size)
{
    size = size < max_size ? size : max_size;
    return size > 1.0 ? size : 1.0;
}

/* Replays, bit for bit, the per-job draws of synthesize_sdsc_trace:
 *
 *   gap = rng.exponential(short if rng.random() < 0.7 else long)
 *   u = rng.random()                      # size-mixture component k
 *   size = rng.integers(a[k], b[k] + 1)   # or round(rng.lognormal(a, b))
 *   size = max(1, min(max_size, size))
 *   if size in pow2 and rng.random() < 0.6:
 *       size += rng.integers(1, 4) * (1 if rng.random() < 0.5 else -1)
 *       size = max(1, min(max_size, size))
 *   runtime = max(1.0, rng.lognormal(mu_rt, sigma_rt))
 *
 * rng.random() is next_double, Python's round() is nearbyint (ties to
 * even in the default rounding mode), and sizes are clamped in double
 * before the int cast so no draw can overflow int64.  The size
 * mixture arrives as rows (weight, lognormal?, a, b) and the
 * power-of-two set as a list, so both keep their one Python
 * definition.  Arrival times accumulate in the same order as the
 * Python running sum.
 */
void sdsc_draw_loop(bitgen_t *bg, intptr_t n, double short_mean,
                    double long_mean, int64_t max_size, double mu_rt,
                    double sigma_rt, intptr_t n_mix, const double *mix,
                    intptr_t n_pow2, const int64_t *pow2,
                    double *arrival, int64_t *size, double *runtime)
{
    const double cap = (double)max_size;
    double t = 0.0;
    for (intptr_t i = 0; i < n; i++) {
        double mean = bg->next_double(bg->state) < 0.7 ? short_mean
                                                        : long_mean;
        t += mean * random_standard_exponential(bg);
        arrival[i] = t;

        double u = bg->next_double(bg->state);
        double acc = 0.0;
        const double *row = mix;
        /* the last component takes whatever the weights leave over */
        for (intptr_t k = 0; k < n_mix - 1; k++, row += 4) {
            acc += row[0];
            if (u <= acc)
                break;
        }
        double s = row[1] != 0.0
            ? nearbyint(random_lognormal(bg, row[2], row[3]))
            : (double)draw_int(bg, (int64_t)row[2], (int64_t)row[3]);
        int64_t sz = (int64_t)clamp_size(s, cap);
        bool is_pow2 = false;
        for (intptr_t j = 0; j < n_pow2; j++)
            is_pow2 |= sz == pow2[j];
        if (is_pow2 && bg->next_double(bg->state) < 0.6) {
            int64_t step = draw_int(bg, 1, 3);
            sz += bg->next_double(bg->state) < 0.5 ? step : -step;
            sz = (int64_t)clamp_size((double)sz, cap);
        }
        size[i] = sz;

        double rt = random_lognormal(bg, mu_rt, sigma_rt);
        runtime[i] = rt > 1.0 ? rt : 1.0;
    }
}
"""

_memo = KernelMemo()


def _npyrandom_lib() -> Path | None:
    """The ``libnpyrandom.a`` shipped inside the installed numpy wheel."""
    lib = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    return lib if lib.is_file() else None


def _build() -> ctypes.CDLL | None:
    npy_lib = _npyrandom_lib()
    if npy_lib is None:
        return None
    # the numpy build the helper linked against is part of its identity
    lib = build("draws", _SOURCE, identity=np.__version__, link=(npy_lib,))
    if lib is None:
        return None
    lib.uniform_draw_loop.restype = None
    lib.uniform_draw_loop.argtypes = [
        ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.sdsc_draw_loop.restype = None
    lib.sdsc_draw_loop.argtypes = [
        ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled draw helper, or ``None`` when unavailable (memoised,
    thread-safe: built once per process, see :mod:`repro._toolchain`)."""
    return _memo.get(_build)


def reset_kernel_cache() -> None:
    """Forget the memoised kernel (tests toggling ``REPRO_NATIVE``)."""
    _memo.reset()


def fill_uniform_draws(
    rng: np.random.Generator,
    n: int,
    mean_interarrival: float,
    w_hi: int,
    l_hi: int,
    num_mes: float,
    gaps: np.ndarray,
    w: np.ndarray,
    l: np.ndarray,
    k_raw: np.ndarray,
) -> bool:
    """Fill the four per-job draw columns natively; ``False`` = no kernel.

    Advances ``rng``'s bit generator exactly as the scalar loop would;
    on ``False`` the caller batches that loop instead (same results).
    The output arrays must be C-contiguous with ``gaps``/``k_raw``
    float64 and ``w``/``l`` int64, all of length >= ``n``.
    """
    kernel = load_kernel()
    if kernel is None:
        return False
    bg = ctypes.cast(rng.bit_generator.ctypes.bit_generator, ctypes.c_void_p)
    kernel.uniform_draw_loop(
        bg, n, mean_interarrival, w_hi, l_hi, num_mes,
        gaps.ctypes.data, w.ctypes.data, l.ctypes.data, k_raw.ctypes.data,
    )
    return True


def fill_sdsc_draws(
    rng: np.random.Generator,
    n: int,
    short_mean: float,
    long_mean: float,
    max_size: int,
    mu_rt: float,
    sigma_rt: float,
    mix: np.ndarray,
    pow2: np.ndarray,
    arrival: np.ndarray,
    size: np.ndarray,
    runtime: np.ndarray,
) -> bool:
    """Fill the SDSC trace's per-job columns natively; ``False`` = no kernel.

    ``mix`` is the size mixture as a C-contiguous float64 ``(k, 4)``
    table of rows ``(weight, lognormal?, a, b)``, and ``pow2`` the int64
    sizes the power-of-two nudge applies to.  Advances ``rng``'s bit
    generator exactly as :func:`repro.workload.sdsc.synthesize_sdsc_trace`'s
    Python loop would; the caller falls back to that loop (same results)
    on ``False``.  ``arrival``/``runtime`` must be float64 and ``size``
    int64, all C-contiguous of length >= ``n``.
    """
    kernel = load_kernel()
    if kernel is None:
        return False
    bg = ctypes.cast(rng.bit_generator.ctypes.bit_generator, ctypes.c_void_p)
    kernel.sdsc_draw_loop(
        bg, n, short_mean, long_mean, max_size, mu_rt, sigma_rt,
        len(mix), mix.ctypes.data, len(pow2), pow2.ctypes.data,
        arrival.ctypes.data, size.ctypes.data, runtime.ctypes.data,
    )
    return True
