"""Secular tunneling-induced transition tensors for the driven oscillator.

Tunneling electrons exchange photons with the oscillator in sidebands of
delta_m rotating-frame quanta, each worth one pump-half frequency omega_rf
of lab-frame energy.  The retained level spread is far smaller than
omega_rf, so secular matching forces equal sideband indices on the two
matrix-element factors of every second-order term; this is asserted, not
assumed.

Three tensors drive the density matrix in the eigenbasis:

  d rho[mu,mup] / dt  +=  sum' gamma1[mu,mup,nu,nup] rho[nu,nup]
                        + sum' gamma2[mu,mup,xi] rho[xi,mup]
                        + sum' gamma3[mu,mup,xi] rho[mu,xi]

where the primed sums run over energy-matched index sets.  gamma2 is
independent of mup and gamma3 of mu; gamma3[mu,mup,xi] equals
conj(gamma2[mup,., xi]) including the tunneling integrals, so only one
core array is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .errors import MatchingError
from .junction import ChargeDistribution, PatIntegrator, charge_distribution
from .params import SystemParams
from .spectrum import Spectrum

# Charge states below this probability are dropped from rate sums; they
# contribute relative corrections of the same order.
PQ_FLOOR = 1e-12


def displacement_element(row: int, col: int, rho_c: float, sign: int = 1) -> complex:
    """Fock matrix element <row| D(i sign sqrt(rho_c)) |col|>.

    Closed form in generalized Laguerre polynomials; symmetric in
    (row, col) because the displacement amplitude is purely imaginary.
    """
    if rho_c == 0.0:
        return 1.0 + 0j if row == col else 0j
    l = abs(row - col)
    mn, mx = min(row, col), max(row, col)
    amp = math.exp(-0.5 * rho_c + 0.5 * (gammaln(mn + 1) - gammaln(mx + 1)))
    lag = eval_genlaguerre(mn, l, rho_c)
    return (1j * sign * math.sqrt(rho_c)) ** l * amp * lag


def displacement_matrix(n: int, rho_c: float, sign: int = 1) -> np.ndarray:
    """Dense (n, n) matrix of displacement_element."""
    if rho_c == 0.0:
        return np.eye(n, dtype=complex)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    l = np.abs(rows - cols)
    mn = np.minimum(rows, cols)
    mx = np.maximum(rows, cols)
    amp = np.exp(-0.5 * rho_c + 0.5 * (gammaln(mn + 1) - gammaln(mx + 1)))
    lag = eval_genlaguerre(mn, l, rho_c)
    phase = np.power(1j * sign * math.sqrt(rho_c), l)
    return phase * amp * lag


@dataclass(frozen=True)
class EtaTable:
    """Sideband matrix elements between retained eigenstates.

    f[dm][mu, nu] couples |nu> -> |mu> while the junction displacement
    shifts the Fock ladder by dm quanta (forward direction); b is the
    backward direction.  Identity: b[dm] == conj(f[-dm]).T.
    """

    dm_max: int
    rho_c: float
    f: dict[int, np.ndarray]
    b: dict[int, np.ndarray]


def _band_transform(disp: np.ndarray, vectors: np.ndarray, dm: int) -> np.ndarray:
    n = disp.shape[0]
    if dm >= 0:
        rows = np.arange(dm, n)
    else:
        rows = np.arange(0, n + dm)
    cols = rows - dm
    d = disp[rows, cols]
    return (vectors[rows, :].conj() * d[:, None]).T @ vectors[cols, :]


def eta_table(spectrum: Spectrum, rho_c: float, dm_max: int) -> EtaTable:
    if dm_max >= spectrum.n_fock:
        raise ValueError("dm_max must be smaller than n_fock")
    disp_f = displacement_matrix(spectrum.n_fock, rho_c, +1)
    disp_b = displacement_matrix(spectrum.n_fock, rho_c, -1)
    f: dict[int, np.ndarray] = {}
    b: dict[int, np.ndarray] = {}
    for dm in range(-dm_max, dm_max + 1):
        f[dm] = _band_transform(disp_f, spectrum.vectors, dm)
        b[dm] = _band_transform(disp_b, spectrum.vectors, dm)
    return EtaTable(dm_max=dm_max, rho_c=rho_c, f=f, b=b)


@dataclass(frozen=True)
class MatchSets:
    """Energy-matched index sets of the secular master equation."""

    class1: tuple[tuple[int, int, int, int, float], ...]  # (mu,mup,nu,nup,de)
    class2_pairs: tuple[tuple[int, int], ...]             # (m, xi), E and parity equal
    spread: float


def match_sets(spectrum: Spectrum, omega_rf: float, match_tol: float) -> MatchSets:
    energies = spectrum.energies
    parity = spectrum.parity
    n = energies.size
    spread = float(energies[0] - energies[-1])
    if 2.0 * spread + match_tol >= omega_rf:
        raise MatchingError(
            f"retained level spread {spread:.3e} Hz approaches the sideband "
            f"spacing {omega_rf:.3e} Hz; single-sideband matching invalid")

    diffs = sorted(
        (float(energies[mu] - energies[nu]), mu, nu)
        for mu in range(n) for nu in range(n)
    )
    clusters: list[list[tuple[float, int, int]]] = []
    current = [diffs[0]]
    for item in diffs[1:]:
        if item[0] - current[0][0] <= match_tol:
            current.append(item)
        else:
            clusters.append(current)
            current = [item]
    clusters.append(current)

    class1 = []
    for cluster in clusters:
        for d1, mu, nu in cluster:
            for d2, mup, nup in cluster:
                class1.append((mu, mup, nu, nup, 0.5 * (d1 + d2)))

    class2 = [
        (m, xi)
        for grp in spectrum.groups
        for m in grp for xi in grp
        if parity[m] == parity[xi]
    ]
    return MatchSets(class1=tuple(class1), class2_pairs=tuple(class2),
                     spread=spread)


@dataclass
class RateTable:
    """Assembled transition tensors at one bias point."""

    bias_v: float
    interference: str
    energies: np.ndarray
    parity: np.ndarray
    gamma1: dict[tuple[int, int, int, int], complex]
    core2: dict[tuple[int, int], complex] = field(repr=False)
    pq: ChargeDistribution = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.energies.size

    @cached_property
    def gamma2(self) -> dict[tuple[int, int, int], complex]:
        return {(mu, mup, xi): val
                for (mu, xi), val in self.core2.items()
                for mup in range(self.n)}

    @cached_property
    def gamma3(self) -> dict[tuple[int, int, int], complex]:
        return {(mu, mup, xi): complex(val).conjugate()
                for (mup, xi), val in self.core2.items()
                for mu in range(self.n)}

    def g1_diag(self, i: int, j: int) -> float:
        """Population transition rate |j> -> |i>, 1/s."""
        return complex(self.gamma1.get((i, i, j, j), 0j)).real


def _sideband_parity(dm: int) -> float:
    return 1.0 if dm % 2 == 0 else -1.0


def _sum_terms(integrator: PatIntegrator, terms, n_slots: int, zero):
    """Sums of p * (forward(off_f) * wf + backward(off_b) * wb) per slot.

    terms() yields (slot, p, wf, wb, off_f, off_b) tuples.  A first pass
    collects their distinct offsets and integrates them in one batch; a
    second pass adds each slot's terms in the order yielded, starting from
    zero.  Only the distinct offsets are held, never the terms.
    """
    keys = dict.fromkeys(key for *_, off_f, off_b in terms()
                         for key in ((True, off_f), (False, off_b)))
    value = dict(zip(keys, integrator.integrals(keys)))
    acc = [zero] * n_slots
    for slot, p, wf, wb, off_f, off_b in terms():
        acc[slot] += p * (value[True, off_f] * wf + value[False, off_b] * wb)
    return acc


def rate_table(
    params: SystemParams,
    spectrum: Spectrum,
    eta: EtaTable | None = None,
    pq: ChargeDistribution | None = None,
    interference: str = "on",
    integrator: PatIntegrator | None = None,
    matches: MatchSets | None = None,
) -> RateTable:
    """Compute all matched tensor entries at params.bias_v."""
    if interference not in ("on", "off"):
        raise ValueError(f"interference must be 'on' or 'off', got {interference!r}")
    if integrator is None:
        integrator = PatIntegrator.from_params(params)
    if eta is None:
        eta = eta_table(spectrum, params.rho_c, params.dm_max)
    if pq is None:
        pq = charge_distribution(params, integrator)
    if matches is None:
        matches = match_sets(spectrum, params.omega_rf, params.match_tol)

    energies = spectrum.energies
    parity = spectrum.parity
    c1 = 2.0 * params.r_ratio
    c23 = -params.r_ratio
    charges = [(q, p) for q, p in pq.items() if p >= PQ_FLOOR]
    dms = list(range(-eta.dm_max, eta.dm_max + 1))
    base_f = {(dm, q): params.e_island * (1.0 + 2.0 * q)
              + params.omega_rf * dm - params.bias_v
              for dm in dms for q, _ in charges}
    base_b = {(dm, q): -params.e_island * (1.0 - 2.0 * q)
              - params.omega_rf * dm - params.bias_v
              for dm in dms for q, _ in charges}

    n = energies.size
    keys1 = [(mu, mup, nu, nup) for mu, mup, nu, nup, _ in matches.class1]

    def terms():
        """Every term of every entry in summation order; class-1 entries
        first, then the class-2 cores."""
        for slot, (mu, mup, nu, nup, de) in enumerate(matches.class1):
            for dm in dms:
                pdm = _sideband_parity(dm)
                if parity[mu] * parity[nu] != pdm:
                    continue
                if parity[mup] * parity[nup] != pdm:
                    continue
                wf = eta.f[dm][mu, nu] * eta.f[dm][mup, nup].conjugate()
                wb = eta.b[dm][mu, nu] * eta.b[dm][mup, nup].conjugate()
                for q, p in charges:
                    yield (slot, p, wf, wb, de + base_f[dm, q],
                           -de + base_b[dm, q])
        for slot, (m, xi) in enumerate(matches.class2_pairs, len(keys1)):
            for dm in dms:
                target = _sideband_parity(dm) * parity[m]
                ef, eb = eta.f[dm], eta.b[dm]
                for sigma in range(n):
                    if parity[sigma] != target:
                        continue
                    wf = ef[sigma, m].conjugate() * ef[sigma, xi]
                    wb = eb[sigma, m].conjugate() * eb[sigma, xi]
                    de = float(energies[sigma] - energies[m])
                    for q, p in charges:
                        yield (slot, p, wf, wb, de + base_f[dm, q],
                               -de + base_b[dm, q])

    acc = _sum_terms(integrator, terms,
                     len(keys1) + len(matches.class2_pairs), 0j)
    gamma1 = {key: c1 * a for key, a in zip(keys1, acc)}
    core2 = {key: c23 * a
             for key, a in zip(matches.class2_pairs, acc[len(keys1):])}

    if interference == "off":
        for key in ((0, 1, 1, 0), (1, 0, 0, 1)):
            if key in gamma1:
                gamma1[key] = 0j

    return RateTable(
        bias_v=params.bias_v,
        interference=interference,
        energies=energies,
        parity=parity,
        gamma1=gamma1,
        core2=core2,
        pq=pq,
    )


def transition_rate(
    params: SystemParams,
    spectrum: Spectrum,
    eta: EtaTable,
    pq: ChargeDistribution,
    integrator: PatIntegrator,
    i: int,
    j: int,
) -> float:
    """Single population rate gamma1[i,i,j,j] without building a full table."""
    energies, parity = spectrum.energies, spectrum.parity
    de = float(energies[i] - energies[j])
    charges = [(q, p) for q, p in pq.items() if p >= PQ_FLOOR]

    def terms():
        for dm in range(-eta.dm_max, eta.dm_max + 1):
            if parity[i] * parity[j] != _sideband_parity(dm):
                continue
            wf = abs(eta.f[dm][i, j]) ** 2
            wb = abs(eta.b[dm][i, j]) ** 2
            for q, p in charges:
                off_f = de + params.e_island * (1.0 + 2.0 * q) \
                    + params.omega_rf * dm - params.bias_v
                off_b = -de - params.e_island * (1.0 - 2.0 * q) \
                    - params.omega_rf * dm - params.bias_v
                yield 0, p, wf, wb, off_f, off_b

    (acc,) = _sum_terms(integrator, terms, 1, 0.0)
    return 2.0 * params.r_ratio * acc


def trace_residual(table: RateTable) -> float:
    """Max over columns of the population-conservation sum; zero exactly.

    For every initial state nu the total outflow generated by gamma2 and
    gamma3 must cancel the inflow summed from gamma1.
    """
    n = table.n
    worst = 0.0
    scale = max((abs(v) for v in table.gamma1.values()), default=1.0)
    for nu in range(n):
        total = sum(table.gamma1.get((mu, mu, nu, nu), 0j) for mu in range(n))
        total += table.core2.get((nu, nu), 0j)
        total += complex(table.core2.get((nu, nu), 0j)).conjugate()
        worst = max(worst, abs(total))
    return worst / scale


def hermiticity_residual(table: RateTable) -> float:
    """Max mismatch of gamma1 under (mu,mup,nu,nup) -> (mup,mu,nup,nu) conj."""
    worst = 0.0
    scale = max((abs(v) for v in table.gamma1.values()), default=1.0)
    for (mu, mup, nu, nup), val in table.gamma1.items():
        partner = table.gamma1.get((mup, mu, nup, nu))
        if partner is None:
            worst = max(worst, abs(val))
        else:
            worst = max(worst, abs(val - complex(partner).conjugate()))
    return worst / scale


def qcr_bitflip_rate(table: RateTable) -> float:
    """Leakage rate from one cat branch to the other, 1/s.

    Prepares the equal superposition of the two degenerate top states (the
    +alpha branch), applies the tunneling generator once, and projects onto
    the opposite branch.  gamma2/gamma3 contributions cancel exactly by the
    sign structure; the residual is the genuine branch-flip rate.
    """
    lrho: dict[tuple[int, int], complex] = {}
    for a in (0, 1):
        for b in (0, 1):
            acc = 0j
            for nu in (0, 1):
                for nup in (0, 1):
                    acc += table.gamma1.get((a, b, nu, nup), 0j) * 0.5
            for xi in (0, 1):
                acc += table.core2.get((a, xi), 0j) * 0.5
                acc += complex(table.core2.get((b, xi), 0j)).conjugate() * 0.5
            lrho[(a, b)] = acc
    rate = 0.5 * (lrho[(0, 0)] + lrho[(1, 1)] - lrho[(0, 1)] - lrho[(1, 0)])
    return float(rate.real)
