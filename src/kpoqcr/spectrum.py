"""Kerr parametric oscillator spectrum in the frame rotating at half the pump.

The Hamiltonian H/h = delta_kpo a^dag a - (chi/2) a^dag a^dag a a
+ beta (a^2 + a^dag^2) commutes with photon parity, so it is diagonalized
per parity block.  This keeps eigenvectors exactly parity-pure and makes
the output deterministic even inside degenerate manifolds, where a generic
dense solver would return an arbitrary mixture.

Eigenstates are ordered by descending rotating-frame eigenvalue: the
degenerate cat pair sits at indices 0 (even) and 1 (odd), with eigenvalue
approaching 2 beta^2 / chi.  Energies inside a degenerate group are snapped
to the group mean so that equal-energy states share bit-identical energies
downstream (tunneling-integral offsets, secular matching, coherent phases).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CatStateError, SpectrumError
from .params import SystemParams

_TAIL_BAND = 5          # Fock levels counted as the truncation tail
_TAIL_LIMIT = 1e-8      # max tail weight of a retained eigenstate


@dataclass(frozen=True)
class FockOperators:
    """Truncated ladder operators in the Fock basis."""

    a: np.ndarray
    adag: np.ndarray
    num: np.ndarray
    parity: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Retained KPO eigensystem."""

    energies: np.ndarray          # (n_keep,) Hz, descending, group-snapped
    vectors: np.ndarray           # (n_fock, n_keep) real, columns orthonormal
    parity: np.ndarray            # (n_keep,) +1 even / -1 odd
    raw_energies: np.ndarray      # pre-snap eigenvalues, for diagnostics

    @property
    def n_keep(self) -> int:
        return self.energies.size

    @property
    def n_fock(self) -> int:
        return self.vectors.shape[0]

    def project(self, fock_operator: np.ndarray) -> np.ndarray:
        """Matrix of a Fock-space operator in the retained eigenbasis."""
        return self.vectors.conj().T @ fock_operator @ self.vectors


def build_fock_operators(n_fock: int) -> FockOperators:
    m = np.arange(n_fock)
    a = np.zeros((n_fock, n_fock))
    a[m[:-1], m[1:]] = np.sqrt(m[1:])
    return FockOperators(
        a=a,
        adag=a.T.copy(),
        num=np.diag(m.astype(float)),
        parity=np.diag((-1.0) ** m),
    )


def laguerre_table(k_max: int, x: float, orders) -> np.ndarray:
    """Generalized Laguerre values L[k, j] = L_k^(orders[j])(x), k <= k_max.

    One pass of the three-term recurrence in k, over all orders at once:
    (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}.
    """
    a = np.asarray(orders, dtype=float)
    lag = np.empty((k_max + 1, a.size))
    lag[0] = 1.0
    if k_max >= 1:
        lag[1] = 1.0 + a - x
    for k in range(1, k_max):
        lag[k + 1] = ((2 * k + 1 + a - x) * lag[k] - (k + a) * lag[k - 1]) / (k + 1)
    return lag


def kpo_hamiltonian(params: SystemParams) -> np.ndarray:
    """H/h in Hz in the truncated Fock basis (real symmetric)."""
    ops = build_fock_operators(params.n_fock)
    a, adag = ops.a, ops.adag
    h = params.delta_kpo * ops.num
    h -= 0.5 * params.chi * (adag @ adag @ a @ a)
    h += params.beta * (a @ a + adag @ adag)
    return h


def diagonalize_kpo(params: SystemParams) -> Spectrum:
    """Diagonalize per parity block and retain the top n_keep eigenstates."""
    n_fock, n_keep = params.n_fock, params.n_keep
    h = kpo_hamiltonian(params)

    vals_all = np.empty(n_fock)
    vecs_all = np.zeros((n_fock, n_fock))
    par_all = np.empty(n_fock)
    col0 = 0
    for par in (1, -1):
        idx = np.arange(0 if par == 1 else 1, n_fock, 2)
        vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        cols = np.arange(idx.size) + col0
        vecs_all[idx[:, None], cols[None, :]] = vecs
        vals_all[cols] = vals
        par_all[cols] = par
        col0 += idx.size

    order = np.argsort(-vals_all, kind="stable")
    vals_all, par_all = vals_all[order], par_all[order]
    vecs_all = vecs_all[:, order]

    # Tail hygiene: a retained eigenstate must not lean on the truncation edge.
    tail = np.sum(vecs_all[n_fock - _TAIL_BAND:, :n_keep] ** 2, axis=0)
    if np.any(tail > _TAIL_LIMIT):
        worst = int(np.argmax(tail))
        raise SpectrumError(
            f"eigenstate {worst} has truncation-tail weight {tail[worst]:.2e} "
            f"(limit {_TAIL_LIMIT:.0e}); increase n_fock above {n_fock}")

    raw = vals_all[:n_keep].copy()
    energies = raw.copy()
    parity = par_all[:n_keep].copy()
    vectors = vecs_all[:, :n_keep].copy()

    # Group near-degenerate neighbours, snap each group to its mean energy,
    # and order even before odd inside a group.
    groups: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, n_keep + 1):
        if i == n_keep or energies[i - 1] - energies[i] > params.match_tol:
            groups.append(tuple(range(start, i)))
            start = i
    for grp in groups:
        if len(grp) == 1:
            continue
        sel = list(grp)
        energies[sel] = energies[sel].mean()
        inner = sorted(sel, key=lambda k: (-parity[k], k))
        parity[sel] = parity[inner]
        vectors[:, sel] = vectors[:, inner]

    # Deterministic sign: largest-magnitude Fock amplitude is positive.
    for k in range(n_keep):
        lead = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[lead, k] < 0:
            vectors[:, k] = -vectors[:, k]

    if parity[0] * parity[1] != -1:
        raise SpectrumError(
            "top two eigenstates have equal parity; not a cat-qubit spectrum")

    ortho = np.max(np.abs(vectors.T @ vectors - np.eye(n_keep)))
    if ortho > 1e-10:
        raise SpectrumError(f"retained eigenvectors lost orthonormality ({ortho:.2e})")

    return Spectrum(
        energies=energies,
        vectors=vectors,
        parity=parity,
        raw_energies=raw,
    )


def coherent_state(alpha: complex, n_fock: int, tol: float = 1e-10) -> np.ndarray:
    """Coherent-state amplitudes; rejects truncations that clip the tail."""
    m = np.arange(1, n_fock)
    amps = np.concatenate([[1.0 + 0j], np.cumprod(alpha / np.sqrt(m))])
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    deficit = abs(1.0 - float(np.sum(np.abs(amps) ** 2)))
    if deficit > tol:
        needed = int(abs(alpha) ** 2 + 12.0 * abs(alpha) + 20)
        raise SpectrumError(
            f"coherent state |alpha|={abs(alpha):.3f} loses norm {deficit:.2e} "
            f"at n_fock={n_fock}; increase n_fock to at least {needed}")
    return amps


@dataclass(frozen=True)
class CatStates:
    """Ideal cat-state vectors in the Fock basis.

    even/odd are the parity cats; plus/minus are the coherent-branch
    superpositions (even +/- odd) / sqrt(2) pointing at +alpha / -alpha.
    """

    even: np.ndarray
    odd: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def cat_states(alpha: float, n_fock: int) -> CatStates:
    if alpha == 0:
        raise CatStateError("cat states are degenerate at alpha = 0")
    c_pos = coherent_state(alpha, n_fock)
    c_neg = coherent_state(-alpha, n_fock)
    u = math.exp(-2.0 * alpha * alpha)
    n_plus = 1.0 / math.sqrt(2.0 + 2.0 * u)
    n_minus = 1.0 / math.sqrt(2.0 - 2.0 * u)
    even = (n_plus * (c_pos + c_neg)).real
    odd = (n_minus * (c_pos - c_neg)).real
    sqrt2 = math.sqrt(2.0)
    return CatStates(
        even=even,
        odd=odd,
        plus=(even + odd) / sqrt2,
        minus=(even - odd) / sqrt2,
    )
