"""Shared fixtures.

The default-parameter spectrum, sideband table and tunneling integrator are
expensive enough to build once per session; tests must not mutate them.
The integrator fixtures are cold ones of their own.  The tunneling
functions a process shares per junction (junction.shared_integrator) are
emptied before each test, so no test sees panels that another built.
"""
import ctypes
import dataclasses
import os

import numpy as np
import pytest

from kpoqcr import (PatIntegrator, SystemParams, charge_distribution,
                    diagonalize_kpo, displacement_bands, eta_table,
                    rate_table)
from kpoqcr import _blas
from kpoqcr.junction import _CHEB_N, _shared


@pytest.fixture(autouse=True)
def cold_shared_integrators():
    _shared.cache_clear()


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def spectrum(params):
    return diagonalize_kpo(params)


@pytest.fixture(scope="session")
def eta(params, spectrum):
    return eta_table(spectrum, params.rho_c, params.dm_max)


@pytest.fixture(scope="session")
def integrator(params):
    return PatIntegrator.from_params(params)


@pytest.fixture(scope="session")
def pq(params, integrator):
    return charge_distribution(params, integrator)


@pytest.fixture(scope="session")
def table45(params, spectrum, eta, pq, integrator):
    """Full tensor table at the default 45 GHz bias."""
    return rate_table(params, spectrum, eta=eta, pq=pq, integrator=integrator)


@pytest.fixture(scope="session")
def table45_off(table45):
    """table45 with the interference entries zeroed in a copy, as the rates
    sweep reports them with interference off."""
    gamma1 = table45.gamma1.copy()
    gamma1[0, 1, 1, 0] = gamma1[1, 0, 0, 1] = 0j
    return dataclasses.replace(table45, gamma1=gamma1)


@pytest.fixture(scope="session")
def table_0k(params):
    """Inputs and table at zero temperature: sharp Fermi seas, so many
    integrals vanish exactly."""
    p0 = params.replace(temp_n=0.0, temp_s=0.0)
    spec = diagonalize_kpo(p0)
    eta0 = eta_table(spec, p0.rho_c, p0.dm_max)
    integ = PatIntegrator.from_params(p0)
    pq0 = charge_distribution(p0, integ)
    table = rate_table(p0, spec, eta=eta0, pq=pq0, integrator=integ)
    return p0, spec, eta0, pq0, integ, table


@pytest.fixture(scope="session")
def small_params(params):
    """Reduced retained space; keeps tensor assembly cheap in unit tests."""
    return params.replace(n_keep=6, dm_max=2, quad_rel_tol=1e-8)


@pytest.fixture(scope="session")
def small_table(small_params):
    spec = diagonalize_kpo(small_params)
    eta6 = eta_table(spec, small_params.rho_c, small_params.dm_max)
    integ = PatIntegrator.from_params(small_params)
    pq6 = charge_distribution(small_params, integ)
    return rate_table(small_params, spec, eta=eta6, pq=pq6, integrator=integ)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


def numpy_build() -> dict:
    """The stamp of the machine that pinned digests were taken on: the
    numpy version and BLAS build, the OpenBLAS core kernels chosen at run
    time and numpy's active SIMD dispatch targets.  The bits of eigh, solve,
    expm and of numpy's vectorized exp and tanh can differ under another."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from numpy._core import _multiarray_umath as umath
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "openblas_core": _openblas_core(),
            "cpu_dispatch": [t for t in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(t)]}


def _openblas_core() -> str:
    """The core name of each OpenBLAS that kpoqcr._blas finds mapped."""
    names = []
    for path in _blas._loaded_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        get = next((getattr(lib, s) for s in ("scipy_openblas_get_corename64_",
                                               "scipy_openblas_get_corename",
                                               "openblas_get_corename")
                    if hasattr(lib, s)), None)
        if get is not None:
            get.restype = ctypes.c_char_p
            names.append(get().decode())
    return " ".join(names) or "unknown"


def stamp(build: dict) -> str:
    """A numpy_build() stamp as one line; a stamp written before the core
    and dispatch were recorded says so."""
    return (f"numpy {build['numpy']} with {build['blas']}, OpenBLAS core "
            f"{build.get('openblas_core', 'unrecorded')}, dispatch "
            f"{' '.join(build.get('cpu_dispatch', ['unrecorded']))}")


def backward_stack(spectrum, rho_c: float, dm_max: int) -> np.ndarray:
    """The backward sideband stack, D(-i sqrt(rho_c)) in the retained
    eigenbasis, built on its own from the conjugate bands with one product
    a sideband: row dm + dm_max holds sideband dm."""
    n, vectors = spectrum.n_fock, spectrum.vectors
    bands = displacement_bands(n, rho_c, dm_max)
    b = np.empty((bands.shape[0],) + (vectors.shape[1],) * 2, complex)
    for i, dm in enumerate(range(-dm_max, dm_max + 1)):
        cols = np.arange(max(0, -dm), n - max(0, dm))
        bra = vectors[cols + dm, :].conj()
        d = bands[i, cols]
        b[i] = (bra * d.conj()[:, None]).T @ vectors[cols, :]
    return b


def held_integrals(integ) -> int:
    """Tunneling integrals an integrator holds, _CHEB_N nodes a panel, at
    every temperature."""
    return _CHEB_N * sum(len(lefts) for lefts, _x, _f in integ._store.values())
