"""Secular tunneling-rate tensors of the driven oscillator.

Tunneling electrons exchange photons with the oscillator in sidebands of
dm rotating-frame quanta, each worth one pump-half frequency omega_rf of
lab-frame energy.  The retained level spread is far below omega_rf, so
secular matching gives both matrix-element factors of a term the same
sideband; match_sets asserts this rather than assuming it (Breuer &
Petruccione, The Theory of Open Quantum Systems, OUP 2002).

- displacement_bands, eta_table: the sideband matrix elements.
- match_sets: the energy-matched index sets.
- RatePlan, plan_tables: the bias-free part of the tables of a spectrum,
  and its RateTables at any biases; rate_table and transition_rate are
  one-bias plans.
- BitflipPlan, bitflip_rates: the branch-flip rates, read from F.
- trace_residual, hermiticity_residual, qcr_bitflip_rate: checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MatchingError
from .junction import (ChargeDistribution, PatIntegrator, charge_distribution,
                       shared_integrator)
from .params import SystemParams
from .spectrum import Spectrum, laguerre_table

# Charge states below this probability are dropped from rate sums; they
# contribute relative corrections of the same order.
PQ_FLOOR = 1e-12
# The most anchors plan_tables reads from G in one evaluate call: 27 points
# of a default table, so a sweep's memory does not grow with its points.
_BLOCK_ANCHORS = 2 ** 15


def displacement_bands(n: int, rho_c: float, dm_max: int) -> np.ndarray:
    """Sideband bands of the junction displacement D(i sqrt(rho_c)).

    Row dm + dm_max, column k holds <k+dm| D |k> for dm = -dm_max..dm_max,
    and exactly zero where k + dm falls outside the n Fock levels.  Closed
    form in generalized Laguerre polynomials (Cahill & Glauber, Phys. Rev.
    177, 1857 (1969)), from one table over the orders |dm| <= dm_max.
    Each entry depends on (k, dm, rho_c) alone, so a band is bitwise the
    same row of any wider table.  D(-i sqrt(rho_c)) is the exact conjugate.
    """
    dms = np.arange(-dm_max, dm_max + 1)
    bands = np.zeros((dms.size, n), complex)
    if rho_c == 0.0:
        bands[dm_max] = 1.0
        return bands
    k = np.arange(n)
    row = k + dms[:, None]
    inside = (row >= 0) & (row < n)
    mn = np.minimum(k, row)[inside]
    l = np.broadcast_to(np.abs(dms)[:, None], row.shape)[inside]
    # np.exp, not math.exp: the two can differ in the last bit.
    lgf = np.array([math.lgamma(j + 1) for j in range(n)])
    amp = np.exp(-0.5 * rho_c + 0.5 * (lgf[mn] - lgf[mn + l]))
    lag = laguerre_table(n - 1, rho_c, range(dm_max + 1))[mn, l]
    bands[inside] = np.power(1j * math.sqrt(rho_c), l) * amp * lag
    return bands


def eta_table(spectrum: Spectrum, rho_c: float, dm_max: int,
              bands: np.ndarray | None = None) -> np.ndarray:
    """Sideband matrix elements between the retained eigenstates.

    A complex (2 dm_max + 1, n_keep, n_keep) array, row dm + dm_max holding
    sideband dm: eta[dm + dm_max][mu, nu] couples |nu> -> |mu> while the
    junction displacement shifts the Fock ladder by dm quanta (forward
    direction).  The eigenvectors are real, so each entry is real or
    imaginary, and the backward direction is eta.conj() exactly.  bands, if
    given, must be displacement_bands(spectrum.n_fock, rho_c, dm_max),
    which reads no eigenvector: a sweep over alpha builds them once for all
    its points.
    """
    n = spectrum.n_fock
    if dm_max >= n:
        raise ValueError("dm_max must be smaller than n_fock")
    if bands is None:
        bands = displacement_bands(n, rho_c, dm_max)
    vectors = spectrum.vectors
    eta = np.empty((bands.shape[0],) + (vectors.shape[1],) * 2, complex)
    for i, dm in enumerate(range(-dm_max, dm_max + 1)):
        # The Fock levels k whose k + dm is kept, and the shifted bras,
        # which are real as the eigenvectors are.
        cols = np.arange(max(0, -dm), n - max(0, dm))
        bra = vectors[cols + dm, :]
        eta[i] = (bra * bands[i, cols, None]).T @ vectors[cols, :]
    return eta


@dataclass(frozen=True)
class MatchSets:
    """Energy-matched index sets of the secular master equation, as arrays.

    class1 is (N, 4) intp, rows (mu, mup, nu, nup), with de (N,) beside it.
    The differences d = E_mu - E_nu, sorted ascending with ties in (mu, nu)
    order, fall into clusters: each starts at the first difference not yet
    taken and holds every later d with d - d_first <= match_tol (not
    transitive chaining).  Every ordered pair (mu, nu), (mup, nup) of one
    cluster is a row, cluster by cluster in sorted order, at
    de = 0.5 * (d1 + d2).
    """

    class1: np.ndarray
    de: np.ndarray


def match_sets(spectrum: Spectrum, omega_rf: float, match_tol: float) -> MatchSets:
    energies = spectrum.energies
    n = energies.size
    spread = float(energies[0] - energies[-1])
    if 2.0 * spread + match_tol >= omega_rf:
        raise MatchingError(
            f"retained level spread {spread:.3e} Hz approaches the sideband "
            f"spacing {omega_rf:.3e} Hz; single-sideband matching invalid")

    # Flat index mu * n + nu, so a stable sort orders ties by (mu, nu).
    diffs = np.subtract.outer(energies, energies).ravel()
    order = np.argsort(diffs, kind="stable")
    d = diffs[order]
    # end[s]: one past the last difference within match_tol of d[s].  d is
    # sorted, so d[i] - d[s] <= match_tol holds for every i below that.
    end = np.count_nonzero(np.subtract.outer(d, d) <= match_tol,
                           axis=0).tolist()
    starts = [0]
    while end[starts[-1]] < d.size:
        starts.append(end[starts[-1]])
    # Each difference's cluster [lo, hi), and one row per (i1, i2) in it.
    lo = np.repeat(starts, np.diff(starts + [d.size]))
    hi = np.take(end, lo)
    i1 = np.repeat(np.arange(d.size), hi - lo)
    i2 = np.arange(i1.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
    mu, nu = np.divmod(order, n)
    class1 = np.stack([mu[i1], mu[i2], nu[i1], nu[i2]], axis=1)
    return MatchSets(class1=class1, de=0.5 * (d[i1] + d[i2]))


@dataclass
class RateTable:
    """The tunneling tensors at one bias, which drive the density matrix
    in the eigenbasis as

      d rho[mu,mup] / dt  +=  sum gamma1[mu,mup,nu,nup] rho[nu,nup]
                            + sum core2[mu,xi] rho[xi,mup]
                            + sum conj(core2[mup,xi]) rho[mu,xi].

    gamma1 (n, n, n, n) is the jump tensor, exactly zero off the matched
    index sets.  core2 (n, n) is the tunneling part of the effective
    matrix K, which the GKSL form fixes by the jumps (Lindblad, Commun.
    Math. Phys. 48, 119 (1976)): core2 = -1/2 conj(sum_sigma
    gamma1[sigma, sigma, ., .]).  So core2 is Hermitian and populations
    are conserved exactly.
    """

    bias_v: float
    gamma1: np.ndarray                  # (n, n, n, n) complex
    core2: np.ndarray = field(repr=False)   # (n, n) complex

    def g1_diag(self, i: int, j: int) -> float:
        """Population transition rate |j> -> |i>, 1/s."""
        return float(self.gamma1[i, i, j, j].real)


def _sideband_parity(dms: np.ndarray) -> np.ndarray:
    """+1 on even sidebands, -1 on odd ones."""
    return np.where(dms % 2 == 0, 1.0, -1.0)


def _kept(pq: ChargeDistribution):
    """The charges above PQ_FLOOR and their probabilities, as tuples."""
    kept = [(q, p) for q, p in pq.items() if p >= PQ_FLOOR]
    return tuple(q for q, _ in kept), tuple(p for _, p in kept)


def _sigma_sum(gamma1: np.ndarray) -> np.ndarray:
    """sum_sigma gamma1[sigma, sigma, m, xi] as an (n, n) array, in one
    fixed reduction that core2 and trace_residual share."""
    return np.einsum("ssij->sij", gamma1).sum(axis=0)


class RatePlan:
    """The bias-free part of the rate tables of one spectrum, built once.

    A gamma1 entry sums a term per slot, match_sets' class-1 row
    (mu, mup, nu, nup) at de = (d1 + d2) / 2, and per sideband dm that
    parity allows on both factors, in that order:

      sum_q p_q (F(a + 2 E_c q) wf + F(a' - 2 E_c q) wb) = G(a) wf + G(a') wb,
      a, a' = de + ((E_c + dm * omega_rf) -+ V),

    with F the forward tunneling function, a backward integral being F at
    the negated offset, and G the charge average (junction.ChargeAveraged).
    Both charge sums are G because p_q = p_-q bit for bit
    (ChargeDistribution checks it).  The sideband weights are wf =
    eta[dm, mu, nu] conj(eta[dm, mup, nup]) and wb = conj(wf), exactly,
    since every entry of eta is real or imaginary.

    Only the anchors depend on the bias.  So a plan keeps each term's flat
    gamma1 entry (entry), its weights (wf, wb) and which distinct pair
    (de, E_c + dm * omega_rf) it reads (which), and plan_tables joins the
    pairs with each bias.  With keys, only those (mu, mup, nu, nup)
    entries' rows are kept, in their order, and core2 is not derived: each
    kept entry is bitwise the full table's, every other one exactly zero.
    """

    def __init__(self, params: SystemParams, spectrum: Spectrum,
                 eta: np.ndarray, keys=None):
        matches = match_sets(spectrum, params.omega_rf, params.match_tol)
        class1, de = matches.class1, matches.de
        parity = spectrum.parity
        shape = (parity.size,) * 4
        flat = np.ravel_multi_index(class1.T, shape)
        if keys is not None:
            kept = np.isin(flat, np.ravel_multi_index(
                np.array(keys, np.intp).reshape(-1, 4).T, shape))
            class1, de, flat = class1[kept], de[kept], flat[kept]
        dms = np.arange(eta.shape[0]) - eta.shape[0] // 2
        pdm = _sideband_parity(dms)

        # Terms over (slot, dm), both factors parity-allowed.
        mu, mup, nu, nup = class1.T
        slot, d = np.nonzero(((parity[mu] * parity[nu])[:, None] == pdm)
                             & ((parity[mup] * parity[nup])[:, None] == pdm))
        mu, mup, nu, nup = class1[slot].T
        # Every entry of the stack is real or imaginary (real eigenvectors
        # times i^|dm|), so numpy's fused complex product rounds like the
        # scalar.
        self.wf = eta[d, mu, nu] * eta[d, mup, nup].conj()
        self.wb = self.wf.conj()
        self.n, self.entry, self.derive = parity.size, flat[slot], keys is None
        self.r_ratio, self.e_island = params.r_ratio, params.e_island
        de = de[slot]
        base = (params.e_island + params.omega_rf * dms)[d]
        # Each distinct (de, base) pair once, as the exact complex
        # de + i base; equal pairs give bit-identical anchors.
        _parts, first, self.which = np.unique(de + 1j * base,
                                              return_index=True,
                                              return_inverse=True)
        self.de, self.base = de[first], base[first]

    def table(self, bias_v: float, vf: np.ndarray,
              vb: np.ndarray) -> RateTable:
        """The RateTable at bias_v from G at its forward and backward
        anchors of the distinct anchor parts, vf and vb."""
        n = self.n
        # np.add.at adds an entry's terms one at a time in row order, so
        # entries that must interfere, and Hermitian partners, round alike.
        acc = np.zeros(n ** 4, complex)
        np.add.at(acc, self.entry,
                  vf[self.which] * self.wf + vb[self.which] * self.wb)
        gamma1 = 2.0 * self.r_ratio * acc.reshape((n,) * 4)
        # K = -1/2 sum_k L_k^dag L_k; + 0.0 clears the -0.0 that
        # -0.5 * conj(0j) leaves on the unmatched entries.
        core2 = (-0.5 * _sigma_sum(gamma1).conj() + 0.0 if self.derive
                 else np.zeros((n, n), complex))
        return RateTable(bias_v=bias_v, gamma1=gamma1, core2=core2)


def evaluate_each(function, offsets) -> list[np.ndarray]:
    """function.evaluate at each array of offsets, as arrays of the same
    shapes, from one evaluate call: bitwise each one's own call, by
    PatIntegrator's bitwise rule."""
    values = function.evaluate(np.concatenate([a.ravel() for a in offsets]))
    bounds = np.cumsum([a.size for a in offsets])[:-1]
    return [v.reshape(a.shape)
            for v, a in zip(np.split(values, bounds), offsets)]


def plan_tables(groups, pq: ChargeDistribution, integrator: PatIntegrator):
    """The RateTable of each (plan, voltages) group at each of its biases,
    in order.

    Each point reads G at its plan's forward and backward anchors, a
    (2, U) array: one plan at many biases along a voltage sweep, a plan per
    point along an alpha sweep.  G's panels for every point are built in
    one round, and G is read in blocks of at most _BLOCK_ANCHORS anchors,
    whole points each, which changes no value (PatIntegrator's bitwise
    rule).  Each table is accumulated only when the iteration reaches it.
    The plans share one charging energy.
    """
    blocks, size = [], _BLOCK_ANCHORS
    for plan, voltages in groups:
        v = np.asarray(voltages, float)[:, None]
        per = max(2 * plan.de.size, 1)
        step = max(_BLOCK_ANCHORS // per, 1)
        for i in range(0, len(v), step):
            chunk = v[i:i + step]
            if size + per * len(chunk) > _BLOCK_ANCHORS:
                blocks.append([])
                size = 0
            blocks[-1].append((plan, chunk))
            size += per * len(chunk)
    averaged = integrator.averaged(*_kept(pq), blocks[0][0][0].e_island)

    def anchors(block):
        return [np.stack([plan.de + (plan.base - v),
                          plan.de + (plan.base + v)], axis=1)
                for plan, v in block]

    if len(blocks) > 1:
        averaged.prepare(a for block in blocks for a in anchors(block))
    for block in blocks:
        for (plan, v), values in zip(block, evaluate_each(averaged,
                                                          anchors(block))):
            for bias_v, (vf, vb) in zip(v[:, 0].tolist(), values):
                yield plan.table(bias_v, vf, vb)


def rate_table(
    params: SystemParams,
    spectrum: Spectrum,
    eta: np.ndarray | None = None,
    pq: ChargeDistribution | None = None,
    integrator: PatIntegrator | None = None,
) -> RateTable:
    """Compute all matched tensor entries at params.bias_v.  Without an
    integrator it reads junction.shared_integrator(params)."""
    if integrator is None:
        integrator = shared_integrator(params)
    if eta is None:
        eta = eta_table(spectrum, params.rho_c, params.dm_max)
    if pq is None:
        pq = charge_distribution(params, integrator)
    [table] = plan_tables([(RatePlan(params, spectrum, eta),
                            [params.bias_v])], pq, integrator)
    return table


def transition_rate(
    params: SystemParams,
    spectrum: Spectrum,
    eta: np.ndarray,
    pq: ChargeDistribution,
    integrator: PatIntegrator,
    keys,
) -> list[float]:
    """gamma1[key].real for each (mu, mup, nu, nup) key, 1/s, from a plan
    masked to the keys' class-1 rows: each value is bitwise rate_table's
    entry, and an unmatched key gives exactly 0.0."""
    keys = [tuple(key) for key in keys]
    [table] = plan_tables([(RatePlan(params, spectrum, eta, keys),
                            [params.bias_v])], pq, integrator)
    return [float(table.gamma1[key].real) for key in keys]


def trace_residual(table: RateTable) -> float:
    """Max over columns of the population-conservation sum, relative to
    max|gamma1|.

    For every initial state nu the outflow generated by core2 and its
    conjugate must cancel the inflow summed from gamma1.  A table from
    RatePlan gives exactly 0.0: its core2 diagonal is -0.5 times the
    conjugate of this very inflow, which is real.
    """
    inflow = np.diagonal(_sigma_sum(table.gamma1))
    outflow = np.diagonal(table.core2)
    total = inflow + outflow + outflow.conj()
    return float(np.abs(total).max() / np.abs(table.gamma1).max())


def hermiticity_residual(table: RateTable) -> float:
    """Max mismatch of gamma1 under (mu,mup,nu,nup) -> (mup,mu,nup,nu) conj."""
    g = table.gamma1
    mismatch = g - g.transpose(1, 0, 3, 2).conj()
    return float(np.abs(mismatch).max() / np.abs(g).max())


class BitflipPlan:
    """What bitflip_rates reads of one point, without its spectrum: the
    forward offsets of F, (2, channel de, sidebands, charges), and the
    channel amplitudes, from the qubit corners of eta."""

    def __init__(self, params: SystemParams, spectrum: Spectrum,
                 eta: np.ndarray, pq: ChargeDistribution):
        qs, probs = (np.array(x, float) for x in _kept(pq))
        dms = np.arange(eta.shape[0]) - eta.shape[0] // 2
        # The forward and backward offsets (A_q + dm * omega_rf) - V at
        # de = 0, each (sidebands, charges).
        base_f = (params.e_island * (1.0 + 2.0 * qs)
                  + params.omega_rf * dms[:, None] - params.bias_v)
        base_b = (-params.e_island * (1.0 - 2.0 * qs)
                  - params.omega_rf * dms[:, None] - params.bias_v)
        split = float(spectrum.energies[0] - spectrum.energies[1])
        # One row of offsets per distinct channel de; row[k] is channel k's.
        # Forward integrals at off_f = de + base_f and -off_b = de - base_b.
        de, self.row = np.unique([0.0, split, -split], return_inverse=True)
        self.offsets = np.stack([de[:, None, None] + base_f,
                                 de[:, None, None] - base_b])
        # Channel amplitudes a[direction, channel, sideband]; the backward
        # direction is the conjugate stack.
        e = np.stack([eta, eta.conj()])[..., :2, :2]
        self.amps = np.stack([e[..., 0, 0] - e[..., 1, 1], e[..., 0, 1],
                              -e[..., 1, 0]], axis=1)
        self.probs, self.r_ratio = probs, params.r_ratio

    def rates(self, values: np.ndarray) -> tuple[float, float]:
        """(rate_on, rate_off) from F at the offsets, values."""
        def rate(v, a):
            terms = self.probs * v * (np.abs(a) ** 2)[..., None]
            return 0.5 * self.r_ratio * float(np.sum(terms))

        rate_off = rate(values[:, self.row], self.amps)
        if values.shape[1] > 1:
            return rate_off, rate_off
        return rate(values[:, 0], self.amps.sum(axis=1)), rate_off


def bitflip_rates(params: SystemParams, spectrum: Spectrum, eta: np.ndarray,
                  pq: ChargeDistribution,
                  integrator: PatIntegrator) -> tuple[float, float]:
    """Branch-flip rates (rate_on, rate_off), 1/s, with and without the
    interference entries gamma1[0,1,1,0] and [1,0,0,1], from one batch:
    the BitflipPlan of the point, read at F in one evaluate call.

    qcr_bitflip_rate without its cancellation: core2 drops out, and gamma1
    gives 0.5 r p_q (F(off_f) |a_f|^2 + F(-off_b) |a_b|^2) per sideband and
    charge, a = eta00 + eta01 - eta10 - eta11 = a0 + a01 + a10 with the
    channels a0 = eta00 - eta11, a01 = eta01, a10 = -eta10.  Parity keeps
    a0 off the others' sidebands, so the interference entries add only
    2 Re(a01 conj(a10)) and rate_off is the channel sum.  An unsnapped pair
    has no interference entry, and (0,1), (1,0) sit at de = +-(E0 - E1).

    It reads F at 2 x sidebands x charges offsets per channel de, not the
    charge-averaged G of the tables: a point needs only those few offsets,
    and G's build and extra F panels would cost more than they save.  A
    bitflip_sweep reads F once for all of its points' plans.
    """
    plan = BitflipPlan(params, spectrum, eta, pq)
    return plan.rates(integrator.evaluate(plan.offsets))


def qcr_bitflip_rate(table: RateTable) -> float:
    """Leakage rate from one cat branch to the other, 1/s, from a table.

    Prepares the equal superposition of the two degenerate top states (the
    +alpha branch), applies the tunneling generator once, and projects onto
    the opposite branch.  The core2 contributions cancel exactly by the
    sign structure; the residual is the genuine branch-flip rate, to the
    roundoff of max|core2|.  The oracle suite checks bitflip_rates with it.
    """
    # L(rho)[a, b] over the qubit pair, added term by term in a fixed order:
    # gamma1 over (nu, nup), then core2 and its conjugate per xi.
    g = 0.5 * table.gamma1[:2, :2, :2, :2]
    c = 0.5 * table.core2[:2, :2]
    lrho = g[..., 0, 0] + g[..., 0, 1] + g[..., 1, 0] + g[..., 1, 1]
    for xi in (0, 1):
        lrho = lrho + c[:, None, xi] + c[None, :, xi].conj()
    rate = 0.5 * (lrho[0, 0] + lrho[1, 1] - lrho[0, 1] - lrho[1, 0])
    return float(rate.real)
