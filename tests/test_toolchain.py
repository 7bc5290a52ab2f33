"""The kernel loader's safety contract (:mod:`repro._toolchain`).

Compiled kernels are loadable code, so the shared build helper must
never trust a directory or a library someone else could have written,
must never leave half-written files behind, must not let concurrent
builds corrupt each other's inputs, and must not touch the compiler at
all under ``REPRO_NATIVE=0``.
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


def _so_name(stem: str, source: str) -> str:
    return f"{stem}_{hashlib.sha256(source.encode()).hexdigest()[:16]}.so"


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
        monkeypatch.setattr(_toolchain.subprocess, "run", never)
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

        monkeypatch.setattr(_toolchain.subprocess, "run", record)
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
    """Kernel library names keep their digest recipe, so caches built by
    earlier versions stay valid."""

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
    def test_library_named_by_stem_and_source_digest(
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
        monkeypatch.setattr(_toolchain.subprocess, "run", never)
        monkeypatch.setattr(_toolchain, "compiler", never)
        for module in KERNEL_MODULES:
            module.reset_kernel_cache()
        try:
            assert all(m.load_kernel() is None for m in KERNEL_MODULES)
        finally:
            monkeypatch.undo()
            for module in KERNEL_MODULES:
                module.reset_kernel_cache()
