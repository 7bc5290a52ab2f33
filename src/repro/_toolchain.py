"""Shared build-and-load helper for the optional compiled kernels.

Three modules carry a C translation unit -- the batch backend's
reservation kernel (:mod:`repro.network._native`), the SoA lane driver
(:mod:`repro.core._soa_native`) and the draw loops of the uniform-sides
workload and the SDSC trace (:mod:`repro.workload._native`).  Each keeps only its ``_SOURCE``, its
ctypes signatures and any extra link input; compiling, caching and
loading go through :func:`build`, and the per-module memo through
:class:`KernelMemo`.

Safety rules, shared by every kernel:

* the cache directory is created mode 0700 and used only when it is
  owned by the current user and not group/world-writable
  (:func:`cache_dir`);
* a cached ``.so`` owned by anyone else is never loaded;
* each build compiles a uniquely named temp copy of the source into a
  uniquely named temp library that is atomically renamed into place, so
  concurrent builds (threads, pool workers, side-by-side CLI runs)
  never read or overwrite each other's half-written files;
* libraries load through :class:`ctypes.CDLL`, so every foreign call
  releases the GIL;
* :data:`KERNEL_LOCK` serialises first use, so each kernel is built and
  loaded once per process however many threads race to it;
* ``REPRO_NATIVE=0`` disables compilation and dispatch entirely.

Kernels are compiled with ``-ffp-contract=off`` so no multiply-adds are
fused and the C float64 arithmetic matches the Python reference bit for
bit.  A cached library is named by a digest of everything that made it
-- source, identity, the compiler's resolved path and :data:`CFLAGS` --
so a changed flag or compiler never reuses a stale build.  Any failure
(no compiler, no safe cache directory, a compile error) yields ``None``
and the caller takes its Python fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable, Sequence

#: serialises lazy kernel builds across all kernel modules, so concurrent
#: first use from a thread pool compiles one translation unit at a time,
#: each exactly once
KERNEL_LOCK = threading.Lock()

#: the compile command's flags (``-ffp-contract=off`` is what keeps the
#: kernels bit-identical to Python); part of every library's digest
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def compiler() -> str | None:
    """Path of the C compiler to use: ``$CC``, else the first of
    cc/gcc/clang on ``PATH``."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = shutil.which(cand) if cand else None
        if path:
            return path
    return None


def cache_dir() -> Path | None:
    """Private, owner-verified directory for compiled kernels.

    Prefers the XDG cache; falls back to a per-uid tmp directory.  The
    directory is created mode 0700 and rejected unless it is owned by
    the current user and group/world-unwritable -- a world-writable tmp
    path that someone else pre-created must never be trusted as a
    source of loadable code.
    """
    xdg = os.environ.get("XDG_CACHE_HOME")
    candidates = []
    if xdg:
        candidates.append(Path(xdg) / "repro-mesh")
    home = Path.home()
    if home != Path("/"):
        candidates.append(home / ".cache" / "repro-mesh")
    candidates.append(
        Path(tempfile.gettempdir()) / f"repro-mesh-{os.getuid()}"
    )
    for candidate in candidates:
        try:
            candidate.mkdir(parents=True, exist_ok=True, mode=0o700)
            info = os.stat(candidate)
        except OSError:
            continue
        if info.st_uid == os.getuid() and not (info.st_mode & 0o022):
            return candidate
    return None


def _compile(cc: str, source: str, link: Sequence[Path],
             directory: Path, lib_path: Path) -> bool:
    """Compile ``source`` into ``lib_path`` through private temp files."""
    import subprocess  # only a cache miss compiles; a warm run never loads it

    fd, src = tempfile.mkstemp(suffix=".c", dir=directory)
    with os.fdopen(fd, "w") as fh:
        fh.write(source)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    cmd = [cc, *CFLAGS, src, *map(str, link), "-o", tmp]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=60)
        os.replace(tmp, lib_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for path in (src, tmp):
            try:
                os.unlink(path)
            except OSError:
                pass


def library_name(stem: str, source: str, identity: str, cc: str) -> str:
    """``{stem}_{digest}.so``: ``digest`` is the first 16 hex digits of
    the sha256 of ``source + identity``, the real path of compiler
    ``cc`` (symlinks such as ``cc`` -> ``gcc-12`` resolved) and
    :data:`CFLAGS`, NUL-separated."""
    recipe = "\0".join((source + identity, os.path.realpath(cc), *CFLAGS))
    return f"{stem}_{hashlib.sha256(recipe.encode()).hexdigest()[:16]}.so"


def build(stem: str, source: str, identity: str = "",
          link: Sequence[Path] = ()) -> ctypes.CDLL | None:
    """Compile (once per cache) and load a kernel; ``None`` on failure.

    The library is cached as :func:`library_name`; pass in ``identity``
    anything besides the source and the compile command that the binary
    depends on (e.g. the version of a linked static library).  ``link``
    adds extra inputs to the compiler command line.
    """
    cc = compiler()
    if cc is None:
        return None
    directory = cache_dir()
    if directory is None:
        return None
    lib_path = directory / library_name(stem, source, identity, cc)
    if not lib_path.is_file() and not _compile(
        cc, source, link, directory, lib_path
    ):
        return None
    try:
        if os.stat(lib_path).st_uid != os.getuid():
            return None  # never load code we did not write
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


_UNSET = object()


class KernelMemo:
    """One kernel handle per process, built on first use.

    :meth:`get` is double-checked under :data:`KERNEL_LOCK`, so N
    threads racing through a cold memo call ``make`` exactly once and
    all receive the same handle.
    """

    __slots__ = ("_kernel",)

    def __init__(self) -> None:
        self._kernel = _UNSET

    def get(
        self, make: Callable[[], ctypes.CDLL | None]
    ) -> ctypes.CDLL | None:
        """The memoised kernel; ``make()`` runs on first use only."""
        if self._kernel is _UNSET:
            with KERNEL_LOCK:
                if self._kernel is _UNSET:
                    disabled = os.environ.get("REPRO_NATIVE", "1") == "0"
                    self._kernel = None if disabled else make()
        return self._kernel

    def reset(self) -> None:
        """Forget the handle (tests toggling ``REPRO_NATIVE``)."""
        self._kernel = _UNSET
