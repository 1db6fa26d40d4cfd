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

Every entry is a sum of terms p_q * (F(off_f) * wf + B(off_b) * wb), with F
and B the forward and backward tunneling integrals.  The terms are built as
arrays, but each entry adds its terms one at a time (np.add.at, which is
sequential in index order), starting from zero, in the order sideband dm,
then intermediate state sigma (class-2 cores only), then charge q.  A
pairwise or blocked sum would round differently, and the bit-flip
suppression relies on interfering entries staying bit-identical.  The
offsets keep two fixed associations: rate_table uses
off_f = de + ((A_q + dm * omega_rf) - V), with the class-1 de =
0.5 * (d1 + d2), and transition_rate uses off_f = ((de + A_q) +
dm * omega_rf) - V.  They agree to roundoff only, so each path keeps its
own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def g1_diag(self, i: int, j: int) -> float:
        """Population transition rate |j> -> |i>, 1/s."""
        return complex(self.gamma1.get((i, i, j, j), 0j)).real


def _sideband_parity(dms: np.ndarray) -> np.ndarray:
    """+1 on even sidebands, -1 on odd ones."""
    return np.where(dms % 2 == 0, 1.0, -1.0)


def _product(x, y):
    """x * y for complex arrays, rounded like numpy's scalar product.

    numpy's vectorized complex product fuses multiply-adds and can differ
    from the scalar formula in the last bit; this keeps the scalar one.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _charges(pq: ChargeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Charges above PQ_FLOOR and their probabilities."""
    kept = [(q, p) for q, p in pq.items() if p >= PQ_FLOOR]
    return (np.array([q for q, _ in kept], float),
            np.array([p for _, p in kept]))


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
    qs, probs = _charges(pq)
    dms = np.arange(-eta.dm_max, eta.dm_max + 1)
    pdm = _sideband_parity(dms)
    ef = np.stack([eta.f[dm] for dm in dms])
    eb = np.stack([eta.b[dm] for dm in dms])
    base_f = (params.e_island * (1.0 + 2.0 * qs)
              + params.omega_rf * dms[:, None] - params.bias_v)
    base_b = (-params.e_island * (1.0 - 2.0 * qs)
              - params.omega_rf * dms[:, None] - params.bias_v)

    # Class-1 terms over (slot, dm), both factors parity-allowed.
    keys1 = [(mu, mup, nu, nup) for mu, mup, nu, nup, _ in matches.class1]
    mu, mup, nu, nup = np.array(keys1, np.intp).reshape(-1, 4).T
    de1 = np.array([de for *_, de in matches.class1], float)
    slot1, d1 = np.nonzero(((parity[mu] * parity[nu])[:, None] == pdm)
                           & ((parity[mup] * parity[nup])[:, None] == pdm))
    i1, j1, k1, l1 = mu[slot1], nu[slot1], mup[slot1], nup[slot1]
    # Class-2 terms over (pair, dm, sigma), sigma of the sideband's parity.
    m, xi = np.array(matches.class2_pairs, np.intp).reshape(-1, 2).T
    pair, d2, sigma = np.nonzero(
        parity == pdm[:, None] * parity[m][:, None, None])
    m2, xi2 = m[pair], xi[pair]

    slot = np.concatenate([slot1, len(keys1) + pair])
    d = np.concatenate([d1, d2])
    de = np.concatenate([de1[slot1], energies[sigma] - energies[m2]])

    def weights(e):
        """Sideband factor of every term row, from one direction's stack."""
        return np.concatenate([_product(e[d1, i1, j1], e[d1, k1, l1].conj()),
                               _product(e[d2, sigma, m2].conj(),
                                        e[d2, sigma, xi2])])

    wf, wb = weights(ef), weights(eb)
    # One row of charge terms per (slot, dm[, sigma]), rows in slot order.
    vf, vb = integrator.evaluate(de[:, None] + base_f[d],
                                 -de[:, None] + base_b[d])
    terms = probs * (vf * wf[:, None] + vb * wb[:, None])
    acc = np.zeros(len(keys1) + len(matches.class2_pairs), complex)
    np.add.at(acc, np.repeat(slot, qs.size), terms.ravel())
    gamma1 = dict(zip(keys1, 2.0 * params.r_ratio * acc[:len(keys1)]))
    core2 = dict(zip(matches.class2_pairs, -params.r_ratio * acc[len(keys1):]))

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
    qs, probs = _charges(pq)
    dms = np.arange(-eta.dm_max, eta.dm_max + 1)
    dms = dms[parity[i] * parity[j] == _sideband_parity(dms)].tolist()
    # Scalar abs: numpy's vectorized complex abs rounds differently.
    wf = np.array([abs(eta.f[dm][i, j]) ** 2 for dm in dms])[:, None]
    wb = np.array([abs(eta.b[dm][i, j]) ** 2 for dm in dms])[:, None]
    dm = np.array(dms, float)[:, None]
    off_f = de + params.e_island * (1.0 + 2.0 * qs) \
        + params.omega_rf * dm - params.bias_v
    off_b = -de - params.e_island * (1.0 - 2.0 * qs) \
        - params.omega_rf * dm - params.bias_v
    vf, vb = integrator.evaluate(off_f, off_b)
    terms = (probs * (vf * wf + vb * wb)).ravel()
    acc = np.zeros(1)
    np.add.at(acc, np.zeros(terms.size, np.intp), terms)
    return 2.0 * params.r_ratio * acc[0]


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
