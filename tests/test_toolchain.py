"""The kernel loader's safety contract (:mod:`repro._toolchain`).

Compiled kernels are loadable code, so the shared build helper must
never trust a directory or a library someone else could have written,
must never leave half-written files behind, must not let concurrent
builds corrupt each other's inputs, and must not touch the compiler at
all under ``REPRO_NATIVE=0``.  The reservation kernel itself must stay
memory- and UB-clean on edge launches (a sanitizer build).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import _toolchain
from repro.core import _soa_native
from repro.network import _native as network_native
from repro.workload import _native as workload_native

SOURCE = "int answer(void) { return 42; }\n"
KERNEL_MODULES = (network_native, _soa_native, workload_native)


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """A private, empty kernel cache (the XDG candidate)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return tmp_path / "xdg" / "repro-mesh"


def _so_name(stem: str, source: str, flags=_toolchain.CFLAGS) -> str:
    """The cached library's name, from the digest recipe written out:
    source (+ identity), the compiler's resolved path and the flags."""
    cc = os.path.realpath(_toolchain.compiler() or "cc")
    recipe = "\0".join((source, cc, *flags))
    return f"{stem}_{hashlib.sha256(recipe.encode()).hexdigest()[:16]}.so"


class TestCacheDir:
    @pytest.mark.parametrize("mode", (0o777, 0o770, 0o722),
                             ids=("world-rwx", "group-rwx", "world-write"))
    def test_group_or_world_writable_candidate_skipped(
        self, tmp_path, monkeypatch, mode
    ):
        bad = tmp_path / "xdg" / "repro-mesh"
        bad.mkdir(parents=True)
        bad.chmod(mode)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(Path, "home", lambda: tmp_path / "home")
        got = _toolchain.cache_dir()
        assert got == tmp_path / "home" / ".cache" / "repro-mesh"
        assert os.stat(got).st_mode & 0o777 == 0o700

    def test_no_trusted_candidate_means_no_cache(self, tmp_path, monkeypatch):
        bad = tmp_path / f"repro-mesh-{os.getuid()}"
        bad.mkdir()
        bad.chmod(0o777)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", lambda: Path("/"))
        monkeypatch.setattr(_toolchain.tempfile, "gettempdir",
                            lambda: str(tmp_path))
        assert _toolchain.cache_dir() is None
        assert _toolchain.build("t", SOURCE) is None


class TestBuild:
    def test_foreign_owned_library_refused(self, cache, monkeypatch):
        cache.mkdir(parents=True, mode=0o700)
        planted = cache / _so_name("t", SOURCE)
        planted.write_bytes(b"not ours")
        real_stat = os.stat

        def stat(path, *args, **kwargs):
            info = real_stat(path, *args, **kwargs)
            if str(path) == str(planted):
                fields = list(info)
                fields[4] = os.getuid() + 1  # st_uid
                return os.stat_result(fields)
            return info

        def never(*args, **kwargs):
            raise AssertionError("must not compile or load")

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(subprocess, "run", never)
        monkeypatch.setattr(_toolchain.ctypes, "CDLL", never)
        assert _toolchain.build("t", SOURCE) is None

    def test_failing_compile_returns_none_and_leaves_nothing(
        self, cache, monkeypatch
    ):
        monkeypatch.setenv("CC", "false")
        assert _toolchain.build("t", SOURCE) is None
        assert list(cache.iterdir()) == []

    def test_compiler_never_handed_the_shared_source_path(
        self, cache, monkeypatch
    ):
        # each build compiles a private copy of the source, so two
        # builds racing on a cold cache cannot truncate each other's
        # input mid-compile
        seen = []

        def record(cmd, **kwargs):
            sources = [arg for arg in cmd if arg.endswith(".c")]
            seen.append((cmd, [Path(s).read_text() for s in sources]))
            raise subprocess.CalledProcessError(1, cmd)

        monkeypatch.setattr(subprocess, "run", record)
        assert _toolchain.build("t", SOURCE) is None
        [(cmd, texts)] = seen
        shared = str(cache / _so_name("t", SOURCE)[:-3]) + ".c"
        assert shared not in cmd
        assert texts == [SOURCE]
        assert list(cache.iterdir()) == []

    def test_concurrent_builds_on_a_cold_cache(self, cache):
        if _toolchain.compiler() is None:
            pytest.skip("no C compiler available")
        barrier = threading.Barrier(4)
        libs = []

        def worker():
            barrier.wait()
            # bypass the per-process memo: independent builds, as in
            # side-by-side processes sharing one cache
            libs.append(_toolchain.build("t", SOURCE))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(libs) == 4 and all(lib is not None for lib in libs)
        for lib in libs:
            lib.answer.restype = ctypes.c_int
            assert lib.answer() == 42
        # only the finished library remains, under its digest name
        assert [p.name for p in cache.iterdir()] == [_so_name("t", SOURCE)]


class TestCacheNames:
    """Kernel library names are a digest of everything that made the
    binary: source, identity, compiler and flags."""

    def test_two_flag_lists_give_two_libraries(self, cache, monkeypatch):
        if _toolchain.compiler() is None:
            pytest.skip("no C compiler available")
        assert _toolchain.build("t", SOURCE) is not None
        flags = (*_toolchain.CFLAGS, "-fno-math-errno")
        monkeypatch.setattr(_toolchain, "CFLAGS", flags)
        assert _toolchain.build("t", SOURCE) is not None
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [_so_name("t", SOURCE), _so_name("t", SOURCE, flags)])

    def test_compiler_path_names_the_library(self):
        names = {_toolchain.library_name("t", SOURCE, "", cc)
                 for cc in ("/toolchains/gcc-12/bin/gcc",
                            "/toolchains/gcc-13/bin/gcc")}
        assert len(names) == 2

    def test_compiler_named_by_its_real_path(self, tmp_path):
        # a symlink (cc -> gcc-12) names the compiler it points at
        real = tmp_path / "gcc-12"
        real.write_text("")
        link = tmp_path / "cc"
        link.symlink_to(real)
        assert _toolchain.library_name("t", SOURCE, "", str(link)) == \
            _toolchain.library_name("t", SOURCE, "", str(real))

    @pytest.mark.parametrize(
        "module,stem,identity",
        [
            # the draw helper links numpy's libnpyrandom.a, so the numpy
            # version is part of its identity
            (network_native, "reserve", ""),
            (_soa_native, "soa", ""),
            (workload_native, "draws", np.__version__),
        ],
        ids=("reserve", "soa", "draws"),
    )
    def test_library_named_by_stem_and_build_digest(
        self, cache, module, stem, identity
    ):
        module.reset_kernel_cache()
        try:
            if module.load_kernel() is None:
                pytest.skip("compiled kernel unavailable")
        finally:
            module.reset_kernel_cache()
        expected = _so_name(stem, module._SOURCE + identity)
        assert [p.name for p in cache.iterdir()] == [expected]


class TestNativeGate:
    def test_disabled_never_invokes_the_compiler(self, cache, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("compiler invoked under REPRO_NATIVE=0")

        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(subprocess, "run", never)
        monkeypatch.setattr(_toolchain, "compiler", never)
        for module in KERNEL_MODULES:
            module.reset_kernel_cache()
        try:
            assert all(m.load_kernel() is None for m in KERNEL_MODULES)
        finally:
            monkeypatch.undo()
            for module in KERNEL_MODULES:
                module.reset_kernel_cache()


#: drives ``solve_rounds`` over edge launches, then ``resolve_launch``
#: (every protocol, on the same table, the heap starting at one event so
#: it grows, outcomes handed in as asked), every buffer heap-allocated
#: at its exact size so AddressSanitizer sees any out-of-bounds access
SANITIZER_MAIN = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* one lossy launch through resolve_launch; outcomes follow a fixed
 * pseudo-random pattern failing one attempt in `fail_one_in` (every one
 * when 1), surviving ones delayed 0, 0.5, 1 or 1.5; `stuck` marks every
 * packet pending a resend at the start, so none is ever resent.
 * Returns the final code; iv and fv are left for the caller. */
static int64_t lossy(int64_t width, int64_t length, int32_t wrap,
                     const int64_t *ids, int64_t n, const int64_t *offsets,
                     int64_t rounds, int64_t protocol, int64_t fail_one_in,
                     int stuck, double *free_at, int64_t *iv, double *fv)
{
    const int64_t size = n * rounds;
    iv[RI_N] = n; iv[RI_TOTAL] = rounds; iv[RI_WIDTH] = width;
    iv[RI_LENGTH] = length; iv[RI_WRAP] = wrap; iv[RI_PROTOCOL] = protocol;
    iv[RI_CAP] = 1;
    memcpy(iv + RI_WORDS, ids, n * sizeof *iv);
    memcpy(iv + RI_WORDS + n, offsets, rounds * sizeof *iv);
    if (stuck) {
        int64_t *pending = iv + RI_WORDS + n + rounds + 5 * n + 3 * size;
        for (int64_t j = 0; j < size; j++) pending[j] = 1;
    }
    fv[RF_NOW] = 50.0; fv[RF_GAP] = 1.7; fv[RF_TIMEOUT] = 3.4;
    fv[RF_SPACING] = 7.1; fv[RF_HOP] = 1.3; fv[RF_OCC] = 7.1;
    fv[RF_DRAIN] = 6.1;
    ArqEvent *heap = malloc(sizeof *heap);
    uint64_t x = 88172645463325252ULL;
    int64_t need = size, code;
    for (;;) {
        double *draws = malloc((need ? need : 1) * sizeof *draws);
        for (int64_t m = 0; m < need; m++) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            draws[m] = x % fail_one_in == 0 ? -1.0 : 0.5 * (double)(x % 4);
        }
        iv[RI_NDRAWS] = need;
        iv[RI_POS] = 0;
        while ((code = resolve_launch(iv, fv, free_at, heap, draws))
               == RESOLVE_GROW) {
            iv[RI_CAP] *= 2;
            heap = realloc(heap, iv[RI_CAP] * sizeof *heap);
        }
        free(draws);
        if (code <= 0) break;
        need = code;
    }
    free(heap);
    return code;
}

static int launch(int64_t width, int64_t length, int32_t wrap,
                  const int64_t *nodes, int64_t n,
                  const int64_t *offs, int64_t rounds)
{
    int64_t *ids = malloc(n * sizeof *ids);
    int64_t *offsets = malloc(rounds * sizeof *offsets);
    int64_t *xy = malloc(2 * n * sizeof *xy);
    double *free_at = calloc(width * length * 6, sizeof *free_at);
    memcpy(ids, nodes, n * sizeof *ids);
    memcpy(offsets, offs, rounds * sizeof *offsets);
    double out[3] = {0.0, 0.0, 10.0};
    /* two launches sharing one reservation table */
    for (int k = 0; k < 2; k++)
        solve_rounds(ids, n, offsets, rounds, 10.0 + 7.3 * k, 1.7, free_at,
                     1.3, 7.1, 6.1, width, length, wrap, xy, out);
    int ok = out[0] > 0.0 && out[1] >= 0.0 && !signbit(out[1])
        && out[2] > 10.0;
    /* then one lossy launch per protocol on the same table */
    const int64_t size = n * rounds;
    const int64_t words = RI_WORDS + n + rounds + 5 * n + 4 * size;
    const int64_t floats = RF_WORDS + 2 * n + 3 * size;
    for (int64_t protocol = 0; protocol < 3; protocol++) {
        int64_t *iv = calloc(words, sizeof *iv);
        double *fv = calloc(floats, sizeof *fv);
        const int64_t code = lossy(width, length, wrap, ids, n, offsets,
                                   rounds, protocol, 3, 0, free_at, iv, fv);
        ok &= code == RESOLVE_DONE && iv[RI_POS] == iv[RI_NDRAWS]
            && iv[RI_ATTEMPTS] > size && fv[RF_LATENCY] > 0.0
            && fv[RF_LAST] > 50.0 && !signbit(fv[RF_BLOCKING]);
        const double *accepted = fv + RF_WORDS + 2 * n;
        for (int64_t j = 0; j < size; j++)
            ok &= isfinite(accepted[j]) && accepted[j] > 50.0;
        free(iv); free(fv);
    }
    free(ids); free(offsets); free(xy); free(free_at);
    return ok ? 0 : 1;
}

/* the two error codes: a channel failing every attempt, and a launch
 * whose packets are never resent */
static int errors(void)
{
    static const int64_t ids[] = {0, 3};
    static const int64_t offsets[] = {1};
    double *free_at = calloc(2 * 2 * 6, sizeof *free_at);
    int ok = 1;
    for (int64_t protocol = 0; protocol < 3; protocol++) {
        for (int stuck = 0; stuck < 2; stuck++) {
            int64_t *iv = calloc(RI_WORDS + 2 + 1 + 10 + 8, sizeof *iv);
            double *fv = calloc(RF_WORDS + 4 + 6, sizeof *fv);
            const int64_t code = lossy(2, 2, 0, ids, 2, offsets, 1, protocol,
                                       1, stuck, free_at, iv, fv);
            ok &= code == (stuck ? RESOLVE_UNDELIVERED : RESOLVE_EXCEEDED)
                && iv[RI_ERR] == 0;
            free(iv); free(fv);
        }
    }
    free(free_at);
    return ok ? 0 : 1;
}

int main(void)
{
    static const int64_t far[] = {1, -1, 5, -7, INT64_MAX, INT64_MIN,
                                  INT64_MAX - 3, INT64_MIN + 5};
    const int64_t nfar = sizeof far / sizeof far[0];
    static const int64_t line[] = {8, 0, 3, 5, 1, 7, 2, 6, 4};
    static const int64_t square[] = {3, 0, 2, 1};
    static const int64_t corners[] = {351, 0};
    int64_t every[16 * 22];
    for (int64_t i = 0; i < 16 * 22; i++) every[i] = 16 * 22 - 1 - i;
    int rc = errors();
    for (int32_t wrap = 0; wrap < 2; wrap++) {
        rc |= launch(1, 9, wrap, line, 9, far, nfar);   /* 1 x N */
        rc |= launch(9, 1, wrap, line, 9, far, nfar);   /* N x 1 */
        rc |= launch(2, 2, wrap, square, 4, far, nfar); /* 2 x 2 */
        rc |= launch(2, 2, wrap, square, 1, far, nfar); /* n = 1 */
        rc |= launch(16, 22, wrap, corners, 2, far, nfar);      /* n = 2 */
        rc |= launch(16, 22, wrap, every, 16 * 22, far, nfar);  /* all */
    }
    return rc;
}
"""


#: drives the lane driver's ``alloc_gabl`` (contiguous search, then the
#: greedy decomposition) on edge grids, over a ``SoaCtx`` whose buffers
#: are heap-allocated at their exact sizes; every grant is checked to
#: cover exactly ``w * l`` distinct cells that were free before
GABL_SANITIZER_MAIN = r"""
#include <stdlib.h>

enum { EMPTY, FULL, CHECKER, STRIPES };

static int gabl(int64_t W, int64_t L, int pattern, int64_t w, int64_t l)
{
    const int64_t cells = W * L, job = 7;
    SoaCtx ctx;
    memset(&ctx, 0, sizeof ctx);
    SoaCtx *c = &ctx;
    c->W = W; c->L = L;
    c->I = calloc(I_NCNT + 1, sizeof *c->I);
    c->owner = malloc(cells * sizeof *c->owner);
    c->ids = malloc(cells * sizeof *c->ids);
    c->hts = malloc(cells * sizeof *c->hts);
    c->ero = malloc(cells * sizeof *c->ero);
    c->sat = malloc((W + 1) * (L + 1) * sizeof *c->sat);
    int64_t free_cells = 0;
    for (int64_t i = 0; i < cells; i++) {
        const int64_t x = i % W, y = i / W;
        const int busy = pattern == FULL || (pattern == CHECKER && (x + y) % 2)
            || (pattern == STRIPES && x % 3 == 2);
        c->owner[i] = busy ? 1 : -1;
        free_cells += !busy;
    }
    c->I[I_FREE] = free_cells;
    int bad = 0;
    const int r = alloc_gabl(c, job, w, l);
    if (r == 1) {
        int64_t mine = 0, busy = 0;
        for (int64_t i = 0; i < cells; i++) {
            mine += c->owner[i] == job;
            busy += c->owner[i] == 1;
        }
        bad = c->ids_len != w * l || mine != w * l || c->cur_nsub < 1
            || busy != cells - free_cells
            || c->I[I_FREE] != free_cells - w * l;
        for (int64_t k = 0; k < c->ids_len; k++)
            bad |= c->ids[k] < 0 || c->ids[k] >= cells
                || c->owner[c->ids[k]] != job;
    } else {
        /* GABL fails only when too few processors are free */
        bad = r != 0 || w * l <= free_cells;
    }
    free(c->I); free(c->owner); free(c->ids); free(c->hts); free(c->ero);
    free(c->sat);
    return bad;
}

/* every request side pair at the mesh bounds, plus a middling one */
static int bounds(int64_t W, int64_t L, int pattern)
{
    const int64_t sw[] = {1, W, W > 2 ? W / 2 : 1};
    const int64_t sl[] = {1, L, L > 2 ? L / 2 : 1};
    int rc = 0;
    for (int a = 0; a < 3; a++)
        for (int b = 0; b < 3; b++)
            rc |= gabl(W, L, pattern, sw[a], sl[b]);
    return rc;
}

int main(void)
{
    int rc = 0;
    for (int pattern = EMPTY; pattern <= STRIPES; pattern++) {
        rc |= bounds(1, 9, pattern);    /* 1 x N */
        rc |= bounds(9, 1, pattern);    /* N x 1 */
        rc |= bounds(1, 1, pattern);
        rc |= bounds(16, 22, pattern);  /* the paper's mesh */
        rc |= bounds(22, 16, pattern);
    }
    return rc;
}
"""


def _run_sanitized(tmp_path, source: str) -> None:
    """Compile ``source`` with ASan/UBSan into an executable and run it;
    it must exit 0 without one sanitizer report."""
    cc = _toolchain.compiler()
    if cc is None:
        pytest.skip("no C compiler available")
    path = tmp_path / "kernel_main.c"
    path.write_text(source)
    exe = tmp_path / "kernel_main"
    built = subprocess.run(
        [cc, "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         str(path), "-o", str(exe)],
        capture_output=True, text=True, timeout=120,
    )
    if built.returncode != 0:
        pytest.skip(f"sanitizer runtime unavailable: {built.stderr[-200:]}")
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr


def test_reservation_kernel_is_sanitizer_clean(tmp_path):
    """ASan/UBSan build of the reservation kernel: 1 x N, N x 1 and
    2 x 2 shapes (mesh and torus), one-node, two-node and whole-mesh
    launches, and offsets far outside ``[0, n)`` of either sign, through
    ``solve_rounds`` and then a lossy launch per ARQ protocol through
    ``resolve_launch`` (growing its heap from one event, and both error
    codes), without one sanitizer report; every blocking sum keeps its
    sign bit clear."""
    _run_sanitized(tmp_path, network_native._SOURCE + SANITIZER_MAIN)


def test_gabl_search_is_sanitizer_clean(tmp_path):
    """ASan/UBSan build of the lane driver's GABL search: 1 x N, N x 1,
    1 x 1 and 16 x 22 (both ways round) grids, empty, full,
    checkerboard and striped, with requests at the mesh bounds."""
    _run_sanitized(tmp_path, _soa_native._SOURCE + GABL_SANITIZER_MAIN)
