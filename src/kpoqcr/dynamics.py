"""Density-matrix propagation in the retained eigenbasis.

The state is vectorized row-major: vec(rho)[mu * n + mup] = rho[mu, mup].
The generator has one GKSL form (Lindblad, Commun. Math. Phys. 48, 119
(1976); Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976)),

  L rho = sum jump[mu,mup,nu,nup] rho[nu,nup] + K rho + rho K^dag,

with the coherent, intrinsic and tunneling parts of generator_terms.
assemble_generator gathers it from liouvillian's matrix on vec(rho) into
one real block per parity sector (Generator).  steady_state solves those
blocks for the stationary state, and evolve advances a state by their
exact interval propagators, with the junction switched on as a dissipation
source at a time t_on (Silveri et al., PRB 96, 094524 (2017)); both give
Hermitian states by construction.  husimi_q maps a state in phase space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError, EvolveError, SteadyStateError
from .params import SystemParams
from .rates import RateTable
from .spectrum import Spectrum, build_fock_operators, coherent_state

_TRACE_TOL = 1e-9       # allowed trace drift per unit normalized time
_SNAP_REL = 1e-9        # interval lengths and times this close are equal
# Phase-space points per Husimi block, the columns of its amplitude buffer.
# Each block builds its own amplitudes, so memory does not grow with the grid;
# the width stays fixed because a matrix product's bits can depend on it.
_HUSIMI_ROWS = 1024
_CHECK_STATES = 16      # recorded states per block of evolve's checks

# Degree-13 Pade coefficients and the 1-norm up to which that approximant
# needs no scaling (Higham 2005, SIAM J. Matrix Anal. Appl. 26, 1179).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by the degree-13 Pade approximant with scaling
    and squaring: mat / 2**s has 1-norm at most _THETA13, and the
    approximant is squared s times.

    The Pade sums u and v are built in place, one += a term in the order
    of a6 (b13 a6 + b11 a4 + b9 a2) + b7 a6 + ... + b1 I, with b1 and b0
    added on the diagonal only (off it, b1 I adds zeros): the README
    generators' propagators are bitwise those of that expression."""
    mat = np.asarray(mat)
    norm = float(np.max(np.sum(np.abs(mat), axis=0), initial=0.0))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a1 = mat / 2.0 ** s
    a2 = a1 @ a1
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    sums = []
    for k in (1, 0):           # u / a1 from the odd coefficients, v the even
        inner = b[k + 12] * a6
        inner += b[k + 10] * a4
        inner += b[k + 8] * a2
        total = a6 @ inner
        total += b[k + 6] * a6
        total += b[k + 4] * a4
        total += b[k + 2] * a2
        total.flat[::mat.shape[0] + 1] += b[k]
        sums.append(total)
    u, v = a1 @ sums[0], sums[1]
    result = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        result = result @ result
    return result


def liouvillian(jump: np.ndarray | float, k: np.ndarray) -> np.ndarray:
    """(n^2, n^2) matrix of rho -> sum jump[mu,mup,nu,nup] rho[nu,nup]
    + K rho + rho K^dag on vec(rho).

    jump is an (n, n, n, n) array or a scalar, k the (n, n) matrix K.  Each
    entry is jump, plus K from the left, plus K^dag from the right.
    """
    n = k.shape[0]
    idx = np.arange(n)
    sup = np.empty((n, n, n, n), dtype=complex)
    sup[...] = jump
    sup[:, idx, :, idx] += k
    sup[idx, :, idx, :] += k.conj()
    return sup.reshape(n * n, n * n)


def generator_terms(spectrum: Spectrum, params: SystemParams,
                    table: RateTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The jump tensor and K of the retained levels, with the junction's
    tunneling terms if a rate table is given.

    Coherent motion is K = -i 2 pi diag(E), whose phases -i 2 pi (E_mu -
    E_mup) are exactly zero inside snapped groups.  Single-photon loss
    (O = a, r = pi kappa) and pure dephasing (O = a^dag a, r = 2 pi
    gamma_p), with kappa and gamma_p the configured Hz values, each add
    2 r O (x) O* to jump and -r O^dag O to K; tunneling adds gamma1 to
    jump and core2 to K (rates.RateTable).
    """
    ops = build_fock_operators(spectrum.n_fock)
    jump = 0.0
    k = np.diag(-1j * TWO_PI * spectrum.energies)
    for rate, fock_op in ((0.5 * TWO_PI * params.kappa, ops.a),
                          (TWO_PI * params.gamma_p, ops.num)):
        op = spectrum.project(fock_op)
        jump = jump + 2.0 * rate * op[:, None, :, None] * op.conj()[None, :, None, :]
        k = k - rate * (op.conj().T @ op)
    if table is not None:
        jump = jump + table.gamma1
        k = k + table.core2
    return jump, k


@lru_cache(maxsize=4)
def _real_coordinates(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitary map W from vec(rho) to real coordinates y, by entries:
    y[mu n + mu] = rho[mu, mu] and, for mu < nu, y[mu n + nu] = sqrt2 Re
    rho[mu, nu] and y[nu n + mu] = sqrt2 Im rho[mu, nu].  Row r of W holds
    w[r] at column r and w_flip[r] at column flip[r], the transposed entry.
    The cache hands every caller the same arrays, which none writes.
    """
    mu, nu = np.divmod(np.arange(n * n), n)
    w = np.where(mu < nu, 1.0, np.where(mu > nu, 1j, math.sqrt(2.0)))
    w_flip = np.where(mu < nu, 1.0, np.where(mu > nu, -1j, 0.0))
    return nu * n + mu, w / math.sqrt(2.0), w_flip / math.sqrt(2.0)


@lru_cache(maxsize=4)
def _sector_maps(parity: tuple[float, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per sector of relative parity +1, then -1, of levels of these
    parities (cached, so shared): its indices idx into vec(rho), their flat
    positions idx x idx in L, each transpose's place in idx, w[idx], w_flip[idx]."""
    flip, w, w_flip = _real_coordinates(len(parity))
    relative = np.outer(parity, parity).ravel()
    return tuple((idx, idx[:, None] * flip.size + idx,
                  np.searchsorted(idx, flip[idx]), w[idx], w_flip[idx])
                 for idx in (np.flatnonzero(relative > 0),
                             np.flatnonzero(relative < 0)))


@dataclass
class Generator:
    """Master-equation generator L as one real matrix per parity sector.

    sectors: index arrays into vec(rho), each closed under mu <-> mup, the
    first holding the diagonal; L never couples them, as every term keeps
    parity[mu] parity[mup] = parity[nu] parity[nup] (Albert & Jiang, PRA 89,
    022118 (2014)).  blocks: each sector's block of W L W^dag
    (_real_coordinates), real as L preserves hermiticity (Alicki & Lendi,
    LNP 286 (1987)).
    """

    sectors: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]

    @classmethod
    def from_terms(cls, jump: np.ndarray | float, k: np.ndarray,
                   parity: np.ndarray) -> Generator:
        """The blocks of liouvillian(jump, k) in the sectors of relative
        parity +1 and -1 of levels of these parities.  Raises EvolveError if
        a block's imaginary part exceeds 1e-12 of its real part's maximum."""
        total = liouvillian(jump, k).ravel()
        maps = _sector_maps(tuple(parity.tolist()))
        blocks = []
        for _, at, pos, w, w_flip in maps:
            sub = total.take(at)
            left = w[:, None] * sub + w_flip[:, None] * sub[pos]
            block = left * w.conj() + left[:, pos] * w_flip.conj()
            imag = float(np.max(np.abs(block.imag), initial=0.0))
            if imag > 1e-12 * np.max(np.abs(block.real), initial=0.0):
                raise EvolveError(f"generator does not preserve hermiticity: its "
                                  f"real form has an imaginary part of {imag:.2e}")
            blocks.append(block.real.copy())
        return cls(tuple(m[0] for m in maps), tuple(blocks))

    @cached_property
    def norm_inf(self) -> float:
        """The largest absolute row sum of the blocks."""
        return max(float(np.max(np.sum(np.abs(block), axis=1), initial=0.0))
                   for block in self.blocks)

    @property
    def n(self) -> int:
        return math.isqrt(sum(idx.size for idx in self.sectors))


def assemble_generator(spectrum: Spectrum, params: SystemParams,
                       table: RateTable | None = None) -> Generator:
    """The Generator of generator_terms in the spectrum's parity sectors."""
    return Generator.from_terms(*generator_terms(spectrum, params, table),
                                spectrum.parity)


def initial_state(spectrum: Spectrum, name: str) -> np.ndarray:
    """Named initial density matrix in the eigenbasis."""
    n = spectrum.n_keep
    rho = np.zeros((n, n), dtype=complex)
    if name in ("phi_alpha", "phi_minus_alpha"):
        s = 1.0 if name == "phi_alpha" else -1.0
        w = np.zeros(n)
        w[0] = 1.0 / math.sqrt(2.0)
        w[1] = s / math.sqrt(2.0)
        rho = np.outer(w, w).astype(complex)
    elif name.startswith("phi") and name[3:].isdigit():
        k = int(name[3:])
        if k >= n:
            raise ConfigError(
                f"initial state {name!r} outside the {n} retained levels")
        rho[k, k] = 1.0
    else:
        raise ConfigError(
            f"unknown initial state {name!r}; expected phi<k>, "
            f"phi_alpha or phi_minus_alpha")
    return rho


@dataclass
class Trajectory:
    """States recorded by evolve.  herm_drift is kept as a check and reads
    0.0, as evolve writes Hermitian states by construction; trace_drift
    and min_eigenvalue measure the propagation."""

    times: np.ndarray
    states: np.ndarray            # (nt, n, n)
    trace_drift: float
    herm_drift: float
    min_eigenvalue: float

    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.states, axis1=1, axis2=2))

    def qubit_population(self) -> np.ndarray:
        pops = self.populations()
        return pops[:, 0] + pops[:, 1]

    def branch_population(self) -> np.ndarray:
        """Overlap with (e0 + e1)/sqrt(2), the +alpha cat branch."""
        p = 0.5 * (np.real(self.states[:, 0, 0]) + np.real(self.states[:, 1, 1]))
        return p + np.real(self.states[:, 0, 1])


def switch_time(t_grid: np.ndarray, t_on: float) -> float:
    """The time at which a switch at t_on acts on t_grid: the grid time
    within a relative _SNAP_REL of t_on, else t_on.  A switch-on time a
    rounding error away from a grid time is that grid time, not the start
    of a sliver segment; the state evolves under the new generator from
    the first grid time at or after it."""
    near = float(t_grid[np.argmin(np.abs(t_grid - t_on))])
    return near if math.isclose(t_on, near, rel_tol=_SNAP_REL) else t_on


def evolve(
    rho0: np.ndarray,
    t_grid: np.ndarray,
    generator: Generator,
    switch: tuple[float, Generator] | None = None,
) -> Trajectory:
    """Propagate rho0 across t_grid under generator; the state is recorded
    at every grid time.

    switch: (t_on, generator_on).  From switch_time(t_grid, t_on) on,
    generator_on drives the state; a t_on off the grid splits its
    interval there, t_on = inf never switches and -inf switches from the
    start.  A nan t_on or a grid time that is not finite raises
    EvolveError.  The generator is constant on each interval, which
    expm(L dt) advances exactly; one matrix is built per generator,
    occupied sector and interval length, and lengths that agree to a
    relative _SNAP_REL share it.

    The state moves in the real coordinates y = W vec(rho) of
    _real_coordinates, each sector by expm of its block, so the arithmetic
    is real; a generator moves only the sectors not exactly zero when it
    first acts (phi0 moves one, phi_alpha both).  rho0 must be Hermitian to
    1e-12; its Hermitian part is propagated, and recorded exactly at every
    grid time equal to the first.

    The recorded states are written back to complex density matrices in
    blocks of _CHECK_STATES, with each entry below the diagonal the exact
    conjugate of its mirror, so hermiticity holds by construction and
    herm_drift reads 0.0.  The trace drift and least eigenvalue are taken
    over the same blocks, so no temporary grows with the trajectory; each
    is per state (a stacked eigvalsh solves each matrix on its own), so
    they are bitwise those of one pass over all states.
    """
    t_grid = np.asarray(t_grid, float)
    if t_grid.ndim != 1 or t_grid.size < 1 or \
            not np.isfinite(t_grid).all() or np.any(np.diff(t_grid) < 0):
        raise EvolveError("t_grid must be a non-decreasing 1-d array of "
                          "finite times")
    t_on, generator_on = switch or (None, generator)
    if t_on is not None:
        if math.isnan(t_on):
            raise EvolveError("switch time t_on is nan")
        t_on = switch_time(t_grid, t_on)
    rho0 = np.asarray(rho0, complex)
    for gen in (generator, generator_on):
        if rho0.shape != (gen.n, gen.n):
            raise EvolveError(f"rho0 has shape {rho0.shape}; the generator "
                              f"acts on {gen.n} x {gen.n} density matrices")
    n = rho0.shape[0]
    if abs(np.trace(rho0) - 1.0) > 1e-8:
        raise EvolveError(f"rho0 trace deviates from 1 by {abs(np.trace(rho0)-1):.2e}")
    skew = float(np.max(np.abs(rho0 - rho0.conj().T)))
    if skew > 1e-12:
        raise EvolveError(f"rho0 is not Hermitian: off by {skew:.2e}")
    flip, w, w_flip = _real_coordinates(n)

    # Per generator, (dt, [(sector, expm(block dt))]) pairs over the sectors
    # it moves, which stay the same under it: the spacings of a uniform grid
    # differ by a few ulps and share the first one's matrices.
    built: dict[int, list] = {}

    def propagator(gen: Generator, dt: float, y: np.ndarray):
        steps = built.setdefault(id(gen), [])
        for dt_built, mats in steps:
            if math.isclose(dt, dt_built, rel_tol=_SNAP_REL):
                return mats
        mats = [(idx, expm(block * dt))
                for idx, block in zip(gen.sectors, gen.blocks) if y[idx].any()]
        steps.append((dt, mats))
        return mats

    states = np.empty((t_grid.size, n, n), dtype=complex)
    # Until its block is written back, the coordinates of state k sit in
    # the first half of states[k]'s bytes, so no second (nt, n^2) array
    # is held.
    recorded = states.reshape(t_grid.size, n * n).view(float)[:, :n * n]
    vec = rho0.reshape(n * n)
    y = (w * vec + w_flip * vec[flip]).real.copy()
    recorded[0] = y
    t_now = float(t_grid[0])
    normalized_time = 0.0
    for k in range(1, t_grid.size):
        t_next = float(t_grid[k])
        while t_now < t_next - 1e-18 * max(1.0, abs(t_next)):
            seg_end = t_next
            if t_on is not None and t_now < t_on < t_next:
                seg_end = float(t_on)
            gen = (generator_on if t_on is not None and t_now >= t_on
                   else generator)
            for idx, mat in propagator(gen, seg_end - t_now, y):
                y[idx] = mat @ y[idx]
            normalized_time += (seg_end - t_now) * gen.norm_inf
            t_now = seg_end
        t_now = t_next
        recorded[k] = y

    traces = np.empty(t_grid.size)
    herms = np.empty(t_grid.size)
    least = np.empty(t_grid.size)
    back, back_flip = w.conj(), w_flip[flip].conj()
    initial = 0.5 * (rho0 + rho0.conj().T)
    for start in range(0, t_grid.size, _CHECK_STATES):
        rows = slice(start, start + _CHECK_STATES)
        coords = recorded[rows]
        states[rows] = (back * coords
                        + back_flip * coords[:, flip]).reshape(-1, n, n)
        # States not yet propagated are rho0's, not a trip through W.
        states[rows][t_grid[rows] == t_grid[0]] = initial
        block = states[rows]
        traces[rows] = np.abs(np.einsum("tii->t", block) - 1.0)
        herms[rows] = np.max(np.abs(block - block.conj().transpose(0, 2, 1)),
                             axis=(1, 2))
        least[rows] = np.linalg.eigvalsh(block)[:, 0]
    drift = float(np.max(traces))
    # expm scales L dt down by powers of two and squares back up, so its
    # rounding drift grows with ||L|| t: the allowance scales with it.
    allowed = _TRACE_TOL * max(1.0, normalized_time)
    if drift > allowed:
        raise EvolveError(f"trace drifted by {drift:.2e} (allowed {allowed:.2e})")
    return Trajectory(
        times=t_grid.copy(),
        states=states,
        trace_drift=drift,
        herm_drift=float(np.max(herms)),
        min_eigenvalue=float(np.min(least)),
    )


def steady_state(generator: Generator) -> tuple[np.ndarray, float]:
    """Unique trace-one kernel element of the generator, and its residual.

    Each sector's block R is solved on its own: the diagonal's with its
    first row replaced by the trace (ones at y[mu n + mu]), the other with a
    zero right-hand side.  The residual max |R y| must be within 1e-10 of
    norm_inf; if it is not, or a solve fails, the blocks' singular values
    tell a degenerate kernel from a residual over its bound.
    """
    n, pairs = generator.n, tuple(zip(generator.sectors, generator.blocks))
    y = np.zeros(n * n)
    try:
        for idx, block in pairs:
            a, b = block.copy(), np.zeros(idx.size)
            if idx.size and idx[0] == 0:
                a[0], b[0] = idx % (n + 1) == 0, 1.0
            y[idx] = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        residual = math.inf
    else:
        residual = max(float(np.max(np.abs(block @ y[idx]), initial=0.0))
                       for idx, block in pairs)
    if residual <= 1e-10 * generator.norm_inf:
        flip, w, w_flip = _real_coordinates(n)
        rho = w.conj() * y + w_flip[flip].conj() * y[flip]
        return rho.reshape(n, n), residual

    svals = np.concatenate([np.linalg.svd(block, compute_uv=False)
                            for block in generator.blocks])
    null_dim = int(np.sum(svals < 1e4 * np.finfo(float).eps * svals.max()))
    if null_dim > 1:
        raise SteadyStateError(
            f"steady state not unique: generator kernel has dimension "
            f"{null_dim} (e.g. no dissipation selects a single state)")
    raise SteadyStateError(
        f"steady-state residual {residual:.3e} exceeds "
        f"{1e-10 * generator.norm_inf:.3e}")


def husimi_q(
    rho_eig: np.ndarray,
    spectrum: Spectrum,
    re_axis: np.ndarray,
    im_axis: np.ndarray,
) -> np.ndarray:
    """Husimi Q(alpha) = <alpha| rho |alpha> / pi on a phase-space grid.

    Returns Q with shape (len(im_axis), len(re_axis)); integrates to 1 over
    the full plane with measure d^2alpha.  With c = conj(alpha), s = c^2 and
    e_m = exp(-|alpha|^2/2) s^m / sqrt((2m)!) = e_{m-1} s / sqrt(2m(2m-1)),
    <alpha|2m> = e_m and <alpha|2m+1> = c e_m / sqrt(2m+1).  So the eigenbasis
    amplitudes w = <alpha| V = V[0::2]^T e + c (V[1::2] / sqrt(2m+1))^T e take
    a recurrence half as long as the Fock basis, and hold for any real V: no
    eigenvector needs a definite parity.  The grid runs in blocks of
    _HUSIMI_ROWS points, the columns of one (n_fock/2, points) buffer, so
    memory stays flat in the grid size; the recurrence is column-local and
    every block but the last has the same width, so Q is bitwise the same as
    from one whole-grid amplitude matrix.
    """
    re_axis = np.asarray(re_axis, float)
    im_axis = np.asarray(im_axis, float)
    alphas = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    peak = float(np.max(np.abs(alphas))) if alphas.size else 0.0
    n_fock = spectrum.n_fock
    # Validate the worst-case truncation once instead of per grid point.
    # A norm deficit d at the grid corner perturbs Q there by at most
    # ~2d/pi, far below the peak scale 1/pi, so a loose bound suffices.
    coherent_state(peak, n_fock, tol=1e-4)
    even = spectrum.vectors[0::2].T
    odd = spectrum.vectors[1::2].T / np.sqrt(np.arange(1.0, n_fock, 2))
    two_m = np.arange(2.0, n_fock, 2)
    step = 1.0 / np.sqrt(two_m * (two_m - 1.0))
    rho_t = np.asarray(rho_eig, complex).T
    buf = np.empty((even.shape[1], min(alphas.size, _HUSIMI_ROWS)), complex)
    q = np.empty(alphas.size)
    for start in range(0, alphas.size, _HUSIMI_ROWS):
        c = np.conjugate(alphas[start:start + _HUSIMI_ROWS])
        e = buf[:, :c.size]
        s = c * c
        e[0] = np.exp(-0.5 * np.abs(c) ** 2)
        for m, factor in enumerate(step, 1):
            np.multiply(e[m - 1], s, out=e[m])
            e[m] *= factor
        # V is real: a real product on e's interleaved parts is bitwise the
        # complex product, and cheaper.
        parts = e.view(float)
        w = (even @ parts).view(complex)
        w += c * (odd @ parts[:odd.shape[1]]).view(complex)
        q[start:start + c.size] = (w.conj() * (rho_t @ w)).sum(axis=0).real
    return (q / math.pi).reshape(im_axis.size, re_axis.size)
