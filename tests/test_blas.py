"""The process settings applied by `import kpoqcr`: the cap of the bundled
OpenBLAS thread pools and the malloc thresholds.

Both are checked in a fresh interpreter that imports kpoqcr and nothing
else (this file run as a script): other test modules import scipy.linalg,
which maps scipy's own OpenBLAS after the cap has run, and any test's
allocations move glibc's own thresholds.
"""
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import kpoqcr  # noqa: F401  (applies the settings)
from kpoqcr import _blas, _heap


def _blas_threads():
    """The thread count each loaded OpenBLAS reports, in this process."""
    getters = [s.replace("set_num_threads", "get_num_threads")
               for s in _blas._SETTERS]
    counts = []
    for path in _blas._loaded_openblas():
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        getter = next(g for g in getters if hasattr(lib, g))
        counts.append(getattr(lib, getter)())
    return counts


needs_maps = pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                                reason="library discovery reads /proc/self/maps")


def _mapped(path):
    with open("/proc/self/maps") as maps:
        return any(line.rstrip().endswith(path) for line in maps)


# Growing arrays of 256 KiB to 3.75 MiB, each touched and freed in turn:
# at glibc's start thresholds every one is a fresh mapping whose pages all
# fault in (7.7k faults); a heap that keeps freed memory faults in only
# the largest (0.96k).  numpy asks for huge pages only from 4 MiB on.
_GROWING = [k << 15 for k in range(1, 16)]


def _growing_array_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for size in _GROWING:
        np.ones(size)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _os_threads():
    """This process's thread count from /proc/self/status, or None."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("Threads:"))
    except OSError:
        return None


def _blas_residuals():
    """Relative residuals of @, solve and eigh, against references built
    with np.einsum, which calls no BLAS."""
    rng = np.random.default_rng(15)
    a = rng.standard_normal((144, 144))
    b = rng.standard_normal((144, 3))
    sym = a + a.T
    x = np.linalg.solve(a, b)
    w, v = np.linalg.eigh(sym)

    def rel(got, want):
        return float(np.abs(got - want).max() / np.abs(want).max())

    return {
        "matmul": rel(a @ b, np.einsum("ij,jk->ik", a, b)),
        "solve": rel(np.einsum("ij,jk->ik", a, x), b),
        "eigh": rel(np.einsum("ij,jk->ik", sym, v), v * w),
        "eigh_orthonormal": rel(np.einsum("ji,jk->ik", v, v), np.eye(144)),
    }


def _report():
    """What the settings did in this process."""
    threads_at_import = _os_threads()
    return {
        "os_threads": threads_at_import,
        "loaded": _blas._loaded_openblas(),
        "capped": [path for path, _ in _blas.CAPPED],
        "threads": _blas_threads(),
        "heap_applied": _heap.APPLIED,
        "faults": _growing_array_faults(),
        "residuals": _blas_residuals(),
        "os_threads_after_blas": _os_threads(),
    }


@pytest.fixture(scope="module")
def fresh():
    """_report() from a new interpreter that has imported only kpoqcr."""
    src = os.path.dirname(os.path.dirname(kpoqcr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, __file__],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@needs_maps
def test_import_caps_each_loaded_library(fresh):
    loaded = fresh["loaded"]
    if not loaded:
        pytest.skip("no OpenBLAS loaded in a fresh process")
    assert fresh["capped"] == loaded
    assert fresh["threads"] == [1] * len(loaded)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="thread count read from /proc/self/status")
def test_import_leaves_one_thread_and_blas_correct(fresh):
    # numpy starts an OpenBLAS worker thread at import; the cap alone
    # leaves it running, so the import also shuts it down.  BLAS calls
    # after that still work and start no thread.
    assert fresh["os_threads"] == 1
    assert fresh["os_threads_after_blas"] == 1
    for name, residual in fresh["residuals"].items():
        assert residual < 1e-10, name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_import_keeps_freed_heap_memory(fresh):
    assert fresh["heap_applied"]
    largest_pages = 8 * _GROWING[-1] // resource.getpagesize()
    assert fresh["faults"] < 2 * largest_pages


def test_cap_with_nothing_found_records_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "CAPPED", _blas.CAPPED)
    monkeypatch.setattr(_blas, "_loaded_openblas", lambda: [])
    assert _blas.cap_threads() == ()
    assert _blas.CAPPED == ()


@needs_maps
def test_cap_loads_no_library(monkeypatch):
    dynload = sysconfig.get_paths()["platstdlib"] + "/lib-dynload"
    unloaded = [p for p in sorted(glob.glob(dynload + "/*.so"))
                if not _mapped(p)][:1]
    monkeypatch.setattr(_blas, "CAPPED", _blas.CAPPED)
    monkeypatch.setattr(_blas, "_loaded_openblas",
                        lambda: ["/nonexistent/libopenblas.so", *unloaded])
    assert _blas.cap_threads() == ()
    assert not any(_mapped(p) for p in unloaded)


if __name__ == "__main__":
    print(json.dumps(_report()))
