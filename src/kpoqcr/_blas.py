"""One BLAS thread per process.

numpy bundles an OpenBLAS (its symbols carry the `scipy_openblas` prefix)
whose thread pool spans the machine.  kpoqcr loads no other; one that the
caller mapped first, such as scipy's, is capped as well.  On the small
matrices here that pool costs far more than it gives.

Capping does not stop the worker thread that OpenBLAS started when numpy
loaded it, which spins through a process's first BLAS calls.  So each
capped library that exports blas_thread_shutdown_ has its thread server
shut down as well; with one thread it starts none again.
"""
from __future__ import annotations

import ctypes
import os

_SETTERS = ("scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")

# (library path, setter symbol) of each OpenBLAS set to one thread.
CAPPED: tuple[tuple[str, str], ...] = ()


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths
                  if "openblas" in os.path.basename(p).lower())


def cap_threads() -> tuple[tuple[str, str], ...]:
    """Set each loaded OpenBLAS to one thread, shut down its idle thread
    server where the library exports blas_thread_shutdown_, and record
    the capped libraries in `CAPPED`.

    Loads no library, never raises; forked processes inherit the setting.
    """
    global CAPPED
    capped = []
    for path in _loaded_openblas():
        try:
            # RTLD_NOLOAD: a handle to the copy already mapped, or an error.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            name = next((s for s in _SETTERS if hasattr(lib, s)), None)
            if name is not None:
                getattr(lib, name)(ctypes.c_int(1))
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                    shutdown()
                capped.append((path, name))
        except Exception:  # a BLAS we cannot drive is left as it is
            continue
    CAPPED = tuple(capped)
    return CAPPED
