"""The import-time cap of the bundled OpenBLAS thread pools."""
import ctypes
import glob
import os
import sysconfig

import pytest

import kpoqcr  # noqa: F401  (applies the cap)
from kpoqcr import _blas, workflows


def _blas_threads(_job=None):
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


@needs_maps
def test_import_caps_each_loaded_library():
    loaded = _blas._loaded_openblas()
    if not loaded:
        pytest.skip("no OpenBLAS loaded in this process")
    assert [path for path, _ in _blas.CAPPED] == loaded
    assert _blas_threads() == [1] * len(loaded)


@needs_maps
def test_forked_workers_run_one_blas_thread():
    loaded = _blas._loaded_openblas()
    if not loaded:
        pytest.skip("no OpenBLAS loaded in this process")
    counts = workflows._pool_map(_blas_threads, [0, 1], threads=2)
    assert counts == [[1] * len(loaded)] * 2


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
