"""Compiled draw loop for the uniform-sides stochastic workload.

The uniform branch of :meth:`repro.workload.stochastic.StochasticWorkload.blocks`
interleaves, per job, two exponential draws (ziggurat) with two Lemire
bounded-integer draws from one ``default_rng`` bit stream.  The
rejection steps inside both algorithms make the stream consumption
data-dependent, so -- unlike the all-exponential branch -- the loop
cannot be replayed column-wise with NumPy batch calls.  PR 7 left it as
the last per-job Python loop on the columnar hot path.

This module moves that loop into C **without reimplementing either
algorithm**: NumPy wheels ship ``numpy/random/lib/libnpyrandom.a``, the
exact static library behind ``Generator.exponential`` and
``Generator.integers`` (``random_standard_exponential``,
``random_bounded_uint64_fill``), for downstream projects to link
against.  The helper receives the live ``bitgen_t`` pointer of the
caller's :class:`numpy.random.Generator` (via the documented
``bit_generator.ctypes`` interface) and performs the *same* calls in
the *same* per-job order, so every output value -- and the bit-stream
position afterwards -- is identical to the scalar loop by construction
(``tests/test_thread_executor.py`` and the columnar property suite
enforce it).

Like the other kernels the helper is strictly optional (missing
compiler, missing static library, ``REPRO_NATIVE=0`` all fall back to
the Python loop, same results) and it is built and loaded through the
shared :mod:`repro._toolchain`.  Calls go through
:class:`ctypes.CDLL`, so the GIL is released while a block's draws run;
the caller owns the Generator, and block generation for one stream is
already serialised by the block-cache lock, so no two threads ever
advance the same bit generator concurrently.
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

/* numpy/random/bitgen.h -- the stable public bit-generator ABI */
typedef struct bitgen {
  void *state;
  uint64_t (*next_uint64)(void *st);
  uint32_t (*next_uint32)(void *st);
  double (*next_double)(void *st);
  uint64_t (*next_raw)(void *st);
} bitgen_t;

/* resolved from libnpyrandom.a -- the exact routines behind
 * Generator.exponential and Generator.integers */
extern double random_standard_exponential(bitgen_t *);
extern void random_bounded_uint64_fill(bitgen_t *, uint64_t off,
                                       uint64_t rng, intptr_t cnt,
                                       bool use_masked, uint64_t *out);

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
    the caller falls back to that loop (same results) on ``False``.
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
