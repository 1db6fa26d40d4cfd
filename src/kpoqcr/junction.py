"""The tunneling function of a Dynes-broadened NIS junction.

All energies are frequencies (E/h, Hz).  Every QCR rate reads one forward
tunneling function (Silveri et al., PRB 96, 094524 (2017)),

  F(x) = int n_s(eps) [1 - f_S(eps)] f_N(eps + x) d eps,

with n_s the smeared density of states at lead temperature T_S and f_N the
island Fermi function at T_N.  A backward integral is F at the negated
offset: eps -> -eps maps one integrand onto the other, since n_s is even
and f(-x) = 1 - f(x), also for the zero-temperature step.

- dynes_dos, fermi, pat_integrand: the integrand and its factors.
- pat_integrals: F at rows of offsets, in one quadrature run.
- PatIntegrator: F of one junction as Chebyshev pieces; ChargeAveraged: its
  charge average G; shared_integrator: the F a process keeps.
- charge_distribution: the island's stationary charge distribution.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ChargeDistributionError, QuadratureError
from .params import SystemParams
from .quad import integrate
# perfbench/tracing.py looks adaptive_gk up in this module and wraps it.
# The tunneling integrals go through integrate, so this module never calls it.
from .quad import adaptive_gk  # noqa: F401

_THERMAL_WINDOW = 35.0   # Fermi factors are machine-zero this many k_B T out
_PQ_TAIL_LIMIT = 1e-10   # required probability at the charge cutoff
_DYNES_PANELS = 10.0     # Dynes widths gamma*gap in the first graded panel
_ROW_KT = 1400.0         # widest row of offsets in k_B T_N (pat_arguments)

# The Chebyshev panels of PatIntegrator.
_PANEL_KT = 16.0         # base panel width in k_B T_N, else in k_B T_S
_NODE_TOL = 1e-2         # node integrals at this fraction of rel_tol
_TAIL_TOL = 1e-2         # tail coefficients within this fraction of tol
_MAX_SPLITS = 8          # halvings of a base panel before giving up
_CHEB_N = 24
_INTERP_ROWS = 2 ** 12   # offsets a barycentric call, 0.75 MiB a node array
# The least Bernstein parameter rho of a seeded piece at a singularity of F
# (PatIntegrator._seed): where the bound 2 rho^-(n - 2) on the
# coefficients of a function bounded by 1 in the ellipse (Trefethen, ATAP,
# thm 8.1) meets the tail threshold at rel_tol 1e-10, about 3.62.
_SEED_RHO = (2.0 / (_TAIL_TOL * 1e-10)) ** (1.0 / (_CHEB_N - 2))
# First-kind nodes cos(theta_j) on [-1, 1], their barycentric weights, and
# the rows of Chebyshev coefficients n - 2 and n - 1 over node values.
_THETA = (2 * np.arange(_CHEB_N) + 1) * np.pi / (2 * _CHEB_N)
_CHEB_T = np.cos(_THETA)
_CHEB_W = np.where(np.arange(_CHEB_N) % 2 == 0, 1.0, -1.0) * np.sin(_THETA)
_TAIL = (2.0 / _CHEB_N) * np.cos(np.outer([_CHEB_N - 2, _CHEB_N - 1], _THETA))


def dynes_dos(eps, gap_hz: float, gamma_dynes: float):
    """Smeared superconducting density of states, normalized and even.

    With x = eps / gap and y = gamma_dynes > 0 the Dynes form is
    n_s = |Re(z / w)|, z = x + i y, w = sqrt(z^2 - 1) the principal root.
    It is evaluated in real arithmetic.  Write z^2 - 1 = a + i b with

      a = x^2 - (y^2 + 1),  b = 2 y x,  r = sqrt(a^2 + b^2) = |w|^2.

    The components of w are sqrt((r + a) / 2) and sqrt((r - a) / 2), the
    imaginary one with the sign of b.  Take the larger one without
    cancellation, p = sqrt((r + |a|) / 2); the other one is |b| / (2 p).
    Re(z / w) = (x Re w + y Im w) / r, and with sign(b) = sign(x):

      a >= 0 (outside the gap):  Re w = p,  n_s = |x| (p^2 + y^2) / (p r)
      a <  0 (inside the gap):   Im w = p,  n_s = y (x^2 + p^2) / (p r)

    The branch keeps r + a from cancelling inside the gap, where the subgap
    leakage lives.  Every quantity depends on x through |x| or x^2 only,
    so the result is exactly even.  Scalars and 0-d input give a scalar.
    """
    shape = np.shape(eps)
    y = gamma_dynes
    x = np.array(eps, float, copy=None, ndmin=1) / gap_hz
    x2 = x * x
    a = x2 - (y * y + 1.0)
    outside = a >= 0.0
    r = a * a
    b = x * (2.0 * y)
    b *= b
    r += b
    np.sqrt(r, out=r)
    p2 = np.abs(a, out=a)
    p2 += r
    p2 *= 0.5
    # Numerator m * (p^2 + k): (m, k) = (|x|, y^2) outside, (y, x^2) inside.
    m = np.abs(x, out=x)
    np.copyto(x2, y * y, where=outside)
    x2 += p2
    np.logical_not(outside, out=outside)
    np.copyto(m, y, where=outside)
    m *= x2
    den = np.sqrt(p2, out=p2)
    den *= r
    m /= den
    return m.reshape(shape)[()]


def fermi(eps, t_hz: float):
    """Fermi factor at thermal frequency t = k_B T / h; step function at t=0.

    Computes 0.5 * (1 - tanh(eps / (2 t))) in one fresh array; scalars and
    0-d input give a scalar.
    """
    eps = np.asarray(eps, float)
    if t_hz == 0.0:
        return np.where(eps < 0, 1.0, np.where(eps > 0, 0.0, 0.5))[()]
    f = np.divide(eps, 2.0 * t_hz, out=np.empty(eps.shape))
    np.tanh(f, out=f)
    np.subtract(1.0, f, out=f)
    f *= 0.5
    return f[()]


def pat_breakpoints(offsets, gap_hz: float, temp_s_hz: float,
                    temp_n_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and square-root edges of the tunneling integrals at these
    offsets, shaped (n, K): one row for each row of K offsets.

    The window covers the Fermi edges, 0 and each -offset of a row, plus
    thermal padding; 0 and the row's outermost -offsets are breakpoints.
    The gap edges strictly inside it, the square-root singularities of the
    density of states, are split points and square-root edges; NaN marks a
    gap edge outside the window.
    """
    offsets = np.asarray(offsets, float)
    fermi_edges = -np.column_stack([offsets.min(axis=1), offsets.max(axis=1)])
    pad = _THERMAL_WINDOW * max(temp_s_hz, temp_n_hz)
    lo = np.minimum(0.0, fermi_edges.min(axis=1)) - pad
    hi = np.maximum(0.0, fermi_edges.max(axis=1)) + pad
    edges = np.array([-gap_hz, gap_hz])
    inside = (lo[:, None] < edges) & (edges < hi[:, None])
    edges = np.where(inside, edges, np.nan)
    return np.column_stack([lo, hi, np.zeros_like(lo), fermi_edges,
                            edges]), edges


def pat_integrand(gap_hz: float, gamma_dynes: float, temp_s_hz: float,
                  temp_n_hz: float):
    """The forward tunneling integrand times the quadrature's Jacobian J,
    fn(eps, jacobian, scale, centre) = w / (1 + e^((eps + c) / k_B T_N) s)
    with w = n_s(eps) / (1 + e^(-eps / k_B T_S)) J, in that order.

    That is w f_N(eps + x) at each offset x of a row, with c the row's
    centre and s = e^((x - c) / k_B T_N) (pat_arguments), and w holds
    1 - f_S(eps).  w and e^((eps + c) / k_B T_N) are computed once a point,
    and a component costs one multiply, one add and one divide.  In the
    tails each Fermi factor is exactly 0.0 or exactly 1; neither cancels,
    as 1/2 (1 - tanh) does.  Each is a step at zero temperature, and at
    T_N = 0 each row is one offset.

    eps and jacobian are (m, p), scale (m, 1, K) and centre (m, 1, 1), and
    the values are (m, p, K).  It never writes into eps, which the
    quadrature may reuse.
    """
    def integrand(eps, jacobian, scale, centre):
        w = dynes_dos(eps, gap_hz, gamma_dynes)
        if temp_s_hz:
            with np.errstate(over="ignore"):
                w /= 1.0 + np.exp(eps / -temp_s_hz)
        else:
            w *= fermi(-eps, 0.0)
        w *= jacobian
        if not temp_n_hz:
            f_n = fermi(eps[..., None] + centre, 0.0)
            f_n *= w[..., None]
            return f_n
        e = np.add(eps[..., None], centre)
        e /= temp_n_hz
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
            out = np.multiply(e, scale)
        out += 1.0
        return np.divide(w[..., None], out, out=out)

    return integrand


def pat_arguments(rows, temp_n_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """pat_integrand's (scale, centre) at rows of offsets, (n, K) and
    (n, 1): each row's centre c, halfway between its extreme offsets, and
    s = e^((x - c) / k_B T_N), or 1.0 at T_N = 0.  Raises ValueError for
    a row wider than _ROW_KT k_B T_N, where s could overflow."""
    rows = np.asarray(rows, float)
    lo = rows.min(axis=1, keepdims=True)
    hi = rows.max(axis=1, keepdims=True)
    centre = 0.5 * (lo + hi)
    if not temp_n_hz:
        return np.ones_like(rows), centre
    if (hi - lo > _ROW_KT * temp_n_hz).any():
        raise ValueError(f"a row of offsets spans more than {_ROW_KT:g} "
                         f"k_B T_N")
    return np.exp((rows - centre) / temp_n_hz), centre


def _refuse_nonfinite(flat: np.ndarray) -> None:
    """Raise ValueError naming the first offset in flat not finite."""
    bad = ~np.isfinite(flat)
    if bad.any():
        raise ValueError(f"tunneling offset {float(flat[np.argmax(bad)])!r} "
                         f"Hz is not finite")


def pat_integrals(
    offsets,
    gap_hz: float,
    gamma_dynes: float,
    temp_s_hz: float,
    temp_n_hz: float,
    rel_tol: float = 1e-10,
) -> np.ndarray:
    """Forward tunneling integrals at rows of offsets, in one adaptive
    quadrature run, as an array of the offsets' shape (n, K).

    Each row of K offsets is one quadrature whose K integrands share its
    panels (see quad.integrate), and each of them meets rel_tol on its
    own; n single offsets are offsets[:, None].  At T_N = 0 each offset's
    Fermi step is a kink at its own -x, which only a quadrature of its own
    has as a breakpoint, so each offset is one.  A value depends on its
    own row only (quad's batch independence).  Raises QuadratureError
    naming the offset, or the offsets, of a quadrature that does not
    converge, its index that of its row.

    Panels are planned from the integrand's known scales.  The density of
    states peaks at +-gap with a width of gamma_dynes * gap (about 4.8 MHz
    at the defaults, inside windows of up to about 150 GHz); in the
    square-root variable u, eps = gap +- u^2, the peak spans u of order
    sqrt(gamma_dynes * gap).  Where the support (0, -offset) is not empty,
    offset < 0 (at the row's smallest offset), the square-root panels
    at +gap are split at u = u0 * 2^k with u0 = sqrt(10 * gamma_dynes *
    gap): the first panel holds ten Dynes widths and the rest double
    outward.  The rule reads the integral's own offsets only, and the cuts
    stay in the square-root variable, where the integrand is smooth.  The
    panels at -gap are not graded: it saves too few points to pay.  A row
    wider than _ROW_KT k_B T_N, or an offset that is not finite, raises
    ValueError.
    """
    offsets = np.asarray(offsets, float)
    _refuse_nonfinite(offsets.ravel())
    rows = offsets.reshape(-1, offsets.shape[1] if temp_n_hz else 1)
    bps, edges = pat_breakpoints(rows, gap_hz, temp_s_hz, temp_n_hz)
    # Exponentially suppressed integrals hit the roundoff floor long before
    # a pure relative tolerance; resolve them to rel_tol of the thermal
    # scale instead, which is the absolute level at which they enter rates.
    abs_floor = rel_tol * max(temp_s_hz, temp_n_hz)

    # Graded square-root panels at +gap where the support is not empty.
    graded = (rows.min(axis=1) < 0.0)[:, None] & (edges == gap_hz)
    widths = np.where(graded, math.sqrt(_DYNES_PANELS * gamma_dynes * gap_hz),
                      0.0)
    integrand = pat_integrand(gap_hz, gamma_dynes, temp_s_hz, temp_n_hz)
    try:
        values, _err = integrate(integrand, bps, edges, widths,
                                 rel_tol=rel_tol, abs_tol=abs_floor,
                                 args=pat_arguments(rows, temp_n_hz))
    except QuadratureError as exc:
        row, i = rows[exc.index], exc.index * len(offsets) // len(rows)
        lo, hi = float(row.min()), float(row.max())
        what = (f"integral at offset {lo!r}" if lo == hi else
                f"integrals at offsets {lo!r} to {hi!r}")
        raise QuadratureError(f"tunneling {what} Hz: {exc}",
                              exc.achieved_rel_err, i) from exc
    return values.reshape(offsets.shape)


def pat_integral(
    offset: float,
    direction: str,
    gap_hz: float,
    gamma_dynes: float,
    temp_s_hz: float,
    temp_n_hz: float,
    rel_tol: float = 1e-10,
) -> float:
    """One tunneling integral; direction is 'forward' or 'backward'."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    x = offset if direction == "forward" else -offset
    return float(pat_integrals([[x]], gap_hz, gamma_dynes, temp_s_hz,
                               temp_n_hz, rel_tol)[0, 0])


class PatIntegrator:
    """The forward tunneling function F(x) of one junction, held as
    Chebyshev pieces on a grid that (gap, gamma_dynes, T_S, T_N, rel_tol)
    alone fix, so one integrator serves every bias, sideband and charge.

    - Base panel k is [k W, (k + 1) W), W = 16 k_B T_N where T_N > 0, else
      16 k_B T_S, else a quarter of the gap, so x = 0 is a panel edge.  It
      starts as the pieces of _seed(k), each halved until its own
      Bernstein ellipse clears F's singularities, so a cold build spends
      no rounds halving toward them.
    - A piece holds F at its 24 first-kind Chebyshev nodes, from
      pat_integrals at rel_tol / 100: one row, whose 24 integrands share
      one quadrature, where T_N > 0; at T_N = 0 a row a node, since each
      node's Fermi step is a kink at its own -x.  Even so, pieces cost far
      less than one quadrature per offset.
    - Tail test: a piece is kept if its last two Chebyshev coefficients
      are within 1e-2 of rel_tol * max(min |F|, k_B T) on it, and halved
      otherwise; one that still fails at depth _limit(k) raises
      QuadratureError.
    - Panels are built lazily, a base index's whole split tree at once,
      and one evaluate call stores all of its new pieces or none.

    Bitwise rule: a value depends only on its offset and the parameters,
    never on what else is in the batch or which panels were built first.
    The piece an offset reads is fixed by the grid, by seeds read from the
    parameters and by tail tests that each see one piece's nodes; a
    piece's node values are one quadrature of that piece alone (quad's
    batch independence); and the barycentric sums are row-local einsums,
    never a BLAS product.  Degenerate eigenstates are energy-snapped
    upstream and negating an offset is exact, so transitions that must
    interfere read bit-identical values and their cancellations stay
    exact.  Every batch, cache and shared function of F and G relies on
    this rule, and tests check it.

    averaged() builds the charge-averaged G on this F and keeps the last
    one.  The constructor and from_params build a cold F;
    shared_integrator hands out the one a process keeps.  As the nodes run
    at rel_tol / 100, quad_rel_tol has a floor, params.QUAD_REL_TOL_FLOOR.
    """

    def __init__(self, gap_hz: float, gamma_dynes: float, temp_s_hz: float,
                 temp_n_hz: float, rel_tol: float = 1e-10):
        self.gap_hz = gap_hz
        self.gamma_dynes = gamma_dynes
        self.temp_s_hz = temp_s_hz
        self.temp_n_hz = temp_n_hz
        self.rel_tol = rel_tol
        # Base panels of 16 k_B T_N, else 16 k_B T_S, else a quarter gap.
        self._width = _PANEL_KT * (temp_n_hz or temp_s_hz) or 0.25 * gap_hz
        # How far F's singularities at -+gap lie off the real axis, and the
        # least Bernstein parameter of a seeded piece at each (_seed).
        self._reach = math.pi * temp_n_hz or gamma_dynes * gap_hz
        weight = math.exp(-gap_hz / temp_s_hz) if temp_s_hz > 0.0 else 0.0
        self._singular = ((-gap_hz, _SEED_RHO),
                          (gap_hz, _SEED_RHO * weight ** (1 / (_CHEB_N - 2))))
        # Each base index's panels as (left edges, node offsets, node
        # values), and its seed depth.
        self._store: dict = {}
        self._depths: dict = {}
        # The last charge average of this function, by (charges, probs,
        # E_c), and the shifts of F's offsets in this function's values.
        self._averaged: dict = {}
        self._shifts = np.zeros(1)

    @classmethod
    def from_params(cls, params: SystemParams) -> "PatIntegrator":
        return cls(params.gap_hz, params.gamma_dynes, params.t_s_hz,
                   params.t_n_hz, params.quad_rel_tol)

    def _integrals(self, offsets, rel_tol):
        return pat_integrals(offsets, self.gap_hz, self.gamma_dynes,
                             self.temp_s_hz, self.temp_n_hz, rel_tol)

    def evaluate(self, offsets) -> np.ndarray:
        """Forward integrals at offsets, as an array of the same shape.

        Missing panels are integrated in one batch and stored; if an
        integral fails, nothing is stored and QuadratureError propagates,
        naming the first offset that needed it, its index that offset's
        position in the flattened offsets.  An offset that is not finite
        raises ValueError before any panel is built.
        """
        offsets = np.asarray(offsets, float)
        flat = offsets.ravel()
        distinct, inverse = np.unique(flat, return_inverse=True)
        # -inf sorts first, +inf and nan last.
        if distinct.size and not np.isfinite(distinct[[0, -1]]).all():
            _refuse_nonfinite(flat)
        keys = np.floor(distinct / self._width)
        # Where each key starts in the sorted keys.  (np.unique would do,
        # but without return_index it imports numpy.ma on first use, about
        # 35 ms.)
        start = np.flatnonzero(np.diff(keys, prepend=np.nan) != 0.0)
        missing = [k for k in keys[start].tolist() if k not in self._store]
        if missing:
            try:
                self._store.update(self._build(missing))
            except QuadratureError as exc:
                i = int(np.argmax(keys[inverse] == missing[exc.index]))
                raise QuadratureError(
                    f"tunneling integral at offset {float(flat[i])!r} Hz: "
                    f"{exc}", exc.achieved_rel_err, i) from exc
        values = self._interpolate(distinct, keys, start)
        return values[inverse].reshape(offsets.shape)

    def prepare(self, blocks) -> None:
        """Build the base panels that the offsets of every array in blocks
        read, in one evaluate call at a midpoint of each, so that evaluate
        at each block then reads stored panels only."""
        keys = np.unique(np.concatenate(
            [np.unique(np.floor(np.ravel(b) / self._width)) for b in blocks]))
        self.evaluate((keys + 0.5) * self._width)

    def _interpolate(self, distinct, base, start):
        """Values at the sorted distinct offsets, in base panels base, each
        of which starts at its position in start.  At most _INTERP_ROWS
        offsets of one base panel at a time, so the (offsets, 24) node
        arrays stay small however many offsets a sweep reads."""
        out = np.empty(distinct.size)
        for a, b in zip(start, [*start[1:], distinct.size]):
            lefts, x, f = self._store[float(base[a])]
            for c in range(a, b, _INTERP_ROWS):
                part = distinct[c:min(c + _INTERP_ROWS, b)]
                leaf = np.searchsorted(lefts, part, "right") - 1
                np.maximum(leaf, 0, out=leaf)
                out[c:c + part.size] = _barycentric(part, x[leaf], f[leaf])
        return out

    def _seed_depth(self, k) -> int:
        """The depth of base panel k's deepest seeded piece, from the gap,
        T_S, T_N and k alone, computed once per k."""
        if k not in self._depths:
            self._depths[k] = max(depth for depth, _a, _b in self._pieces(
                [k * self._width, (k + 1) * self._width]))
        return self._depths[k]

    def _pieces(self, cuts) -> list:
        """The pieces (depth, left, right) of the intervals between
        consecutive cuts, left to right, each halved while its Bernstein
        parameter rho at some singularity of F is below that singularity's
        need (see _seed)."""
        pieces, pending = [], [(0, a, b) for a, b in zip(cuts, cuts[1:])]
        pending.reverse()
        while pending:
            depth, a, b = pending.pop()
            half = 0.5 * (b - a)
            mid = a + half
            for x, need in self._singular:
                s = complex((x - mid) / half, self._reach / half)
                root = cmath.sqrt(s * s - 1.0)
                if max(abs(s + root), abs(s - root)) < need:
                    pending += [(depth + 1, mid, b), (depth + 1, a, mid)]
                    break
            else:
                pieces.append((depth, a, b))
        return pieces

    def _seed(self, k) -> list:
        """The pieces (depth, left, right) base panel k starts as, read
        from the gap, T_S, T_N and k alone.

        F has a singularity above x = -gap, where the peak of n_s at +gap
        meets the island Fermi edge, and one above x = +gap for the peak at
        -gap, weighted by w = exp(-gap / k_B T_S), the ratio of the peaks'
        1 - f_S.  Both lie _reach off the real axis: pi k_B T_N, where the
        edge's poles lie, or at T_N = 0 the Dynes width gamma_dynes * gap.
        A piece's Chebyshev coefficients fall like rho^-n, rho the
        parameter of its Bernstein ellipse through the singularity
        (Trefethen, Approximation Theory and Approximation Practice, SIAM
        2013, ch. 8).  Each piece is halved while its own rho is below
        _SEED_RHO at -gap or _SEED_RHO * w^(1 / (n - 2)) at +gap, so pieces
        shrink toward a singularity only.  At T_S = T_N = 0, F has a kink
        at x = 0, a panel edge, and G one at each -2 E_c q_k: the panel
        starts split there."""
        lo, hi = k * self._width, (k + 1) * self._width
        # F's kink at x = 0 where T_S = T_N = 0, at -2 E_c q_k in G.
        kinks = [] if self.temp_s_hz or self.temp_n_hz else [
            x for x in (-self._shifts).tolist() if lo < x < hi]
        return self._pieces([lo, *sorted(kinks), hi])

    def _limit(self, k) -> int:
        """The depth at which a piece of base panel k that still fails the
        tail test raises: 8 halvings, or as deep as the seed of any panel
        of F that its values read, if that is deeper.  G's singularities
        are F's shifted by each 2 E_c q_k, and G's seed does not see them,
        so its tail test has to reach their depth itself."""
        u = k + self._shifts / self._width
        return max(_MAX_SPLITS, *map(self._seed_depth, range(
            math.floor(u.min()), math.ceil(u.max()) + 1)))

    def _build(self, keys) -> dict:
        """{k: (left edges, node offsets, node values)} of the base indices
        keys.  Each base panel starts as the pieces of _seed(k), and every
        piece that fails the tail test is halved, with one pat_integrals
        run per round and one row of nodes per pending piece.  A failure
        names its piece; its index is the position in keys."""
        k_t = max(self.temp_s_hz, self.temp_n_hz)
        pending = [(i, *piece) for i, k in enumerate(keys)
                   for piece in self._seed(k)]
        limits = [self._limit(k) for k in keys]
        leaves = [[] for _ in keys]
        while pending:
            lo, hi = np.array([p[2:] for p in pending]).T[:, :, None]
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_T
            try:
                f = self._integrals(x, self.rel_tol * _NODE_TOL)
            except QuadratureError as exc:
                i, _depth, a, b = pending[exc.index]
                raise QuadratureError(
                    f"interpolation panel [{a!r}, {b!r}) Hz: {exc}",
                    exc.achieved_rel_err, i) from exc
            tail = np.max([np.abs(np.einsum("ij,j->i", f, row))
                           for row in _TAIL], axis=0)
            tol = _TAIL_TOL * self.rel_tol * np.maximum(
                np.abs(f).min(axis=1), k_t)
            split = []
            for (i, depth, a, b), xi, fi, ok in zip(pending, x, f,
                                                    tail <= tol):
                if ok:
                    leaves[i].append((a, xi, fi))
                elif depth >= limits[i]:
                    raise QuadratureError(
                        f"tunneling function unresolved on [{a!r}, {b!r}) Hz "
                        f"after {depth} halvings of its panel",
                        math.inf, i)
                else:
                    mid = 0.5 * (a + b)
                    split += [(i, depth + 1, a, mid), (i, depth + 1, mid, b)]
            pending = split
        return {k: tuple(map(np.array, zip(*sorted(
                    panels, key=lambda leaf: leaf[0]))))
                for k, panels in zip(keys, leaves)}

    def averaged(self, charges, probs, e_island: float) -> "ChargeAveraged":
        """G(x) = sum_k probs[k] F(x + 2 e_island charges[k]), kept with
        this function until another (charges, probs, e_island) is asked
        for: a table or sweep reads one charge distribution."""
        key = (tuple(charges), tuple(probs), e_island)
        if key not in self._averaged:
            self._averaged = {key: ChargeAveraged(self, *key)}
        return self._averaged[key]

    def forward(self, offset: float) -> float:
        return float(self.evaluate([offset])[0])

    def backward(self, offset: float) -> float:
        return float(self.evaluate([-offset])[0])


class ChargeAveraged(PatIntegrator):
    """The charge-averaged tunneling function of a distribution of island
    charges q_k with probabilities p_k,

      G(x) = sum_k p_k F(x + 2 E_c q_k),

    the sum in the order given.  The island charge sum of every rate term
    is G at one anchor (rates.RatePlan), and the distribution does not
    depend on the bias or the pump, so every point of a sweep shares G.

    G is held like F: on F's grid, with its node count, seed, tail test,
    split rule and error paths.  Its own singularities, F's shifted by
    each 2 E_c q_k, are not seeded, so its tail test halves toward them
    (_limit).  A node value is the sum of F's values, read in one evaluate
    call per build round, so G adds no quadrature of its own.  Its values
    keep F's bitwise rule, since the sum runs in a fixed order.  A failure
    of F's integrals raises QuadratureError through G's evaluate, naming
    G's offset and panel.
    """

    def __init__(self, source: PatIntegrator, charges, probs,
                 e_island: float):
        super().__init__(source.gap_hz, source.gamma_dynes,
                         source.temp_s_hz, source.temp_n_hz, source.rel_tol)
        self._source = source
        self._shifts = 2.0 * e_island * np.array(charges, float)
        self._probs = np.array(probs, float)

    def _integrals(self, offsets, rel_tol):
        shifted = offsets + self._shifts[:, None, None]
        try:
            f = self._source.evaluate(shifted)
        except QuadratureError as exc:
            # The piece of G whose nodes read the failing offset.
            i = int(np.unravel_index(exc.index, shifted.shape)[1])
            raise QuadratureError(f"charge average: {exc}",
                                  exc.achieved_rel_err, i) from exc
        out = self._probs[0] * f[0]
        for p, f_k in zip(self._probs[1:], f[1:]):
            out += p * f_k
        return out


@lru_cache(maxsize=1)
def _shared(gap_hz, gamma_dynes, temp_s_hz, temp_n_hz, rel_tol):
    return PatIntegrator(gap_hz, gamma_dynes, temp_s_hz, temp_n_hz, rel_tol)


def shared_integrator(params: SystemParams) -> PatIntegrator:
    """The process's PatIntegrator of params' junction, built cold on
    first use.

    F depends only on the junction: gap, gamma_dynes, T_S, T_N and
    quad_rel_tol.  rate_table, charge_distribution and every sweep take
    their integrator from here when none is passed, and with F comes the
    G that PatIntegrator.averaged keeps for the last charge distribution.
    So every table, sweep and command that a process runs at one junction
    reads one F and one G, and only the last junction used keeps them.
    Sharing changes no value, by PatIntegrator's bitwise rule, and a
    failed evaluate stores nothing, so a QuadratureError leaves the shared
    F as it was.
    """
    return _shared(params.gap_hz, params.gamma_dynes, params.t_s_hz,
                   params.t_n_hz, params.quad_rel_tol)


def _barycentric(x, nodes, values):
    """Each row's Chebyshev interpolant at x, in the second barycentric form
    (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)); x on a node gives that
    node's value.  The sums are row-local einsums.  nodes is overwritten:
    the weights are built in its place, so a batch of anchors holds two
    (n, 24) arrays, not four."""
    d = np.subtract(x[:, None], nodes, out=nodes)
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(_CHEB_W, d, out=d)
        # + 0.0: a zero over a negative weight sum is 0.0, not -0.0.
        out = np.einsum("ij,ij->i", q, values) / np.einsum("ij->i", q) + 0.0
    out[hit.any(axis=1)] = values[hit]
    return out


def _charge_rates(params, integrator, qs, bias_v):
    """(gain, loss) at each charge in qs, from one batch of integrals, with
    the elastic weight exp(-rho_c) of the Fock ground state."""
    weight = math.exp(-params.rho_c) * params.r_ratio
    q = np.asarray(qs, float)
    e_gain = params.e_island * (1.0 + 2.0 * q)
    e_loss = params.e_island * (1.0 - 2.0 * q)
    energies = np.stack([bias_v - e_gain, -bias_v - e_gain,
                         bias_v - e_loss, -bias_v - e_loss], axis=1)
    # The forward integral at -e for every energy e, batched.
    f = integrator.evaluate(-energies)
    gain = weight * (f[:, 0] + f[:, 1])
    loss = weight * (f[:, 2] + f[:, 3])
    return list(zip(gain.tolist(), loss.tolist()))


@dataclass(frozen=True)
class ChargeDistribution:
    """Symmetric stationary distribution of the island charge."""

    q_values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        # rates.RatePlan reads both charge sums of a term as G, which needs
        # p_q = p_-q bit for bit.
        if (self.q_values != tuple(-q for q in reversed(self.q_values))
                or [float(p).hex() for p in self.probs]
                != [float(p).hex() for p in reversed(self.probs)]):
            raise ValueError("charge distribution must be symmetric about "
                             "q = 0")

    def items(self):
        return zip(self.q_values, self.probs)


def charge_distribution(
    params: SystemParams,
    integrator: PatIntegrator | None = None,
    pumped: bool = False,
) -> ChargeDistribution:
    """Detailed-balance charge distribution from elastic rate ratios.

    The Fock-level weight cancels between numerator and denominator, so the
    distribution is independent of the oscillator state.  The cutoff must
    carry at most 1e-10 probability; one automatic doubling of q_max is
    attempted before giving up.

    By default the ratios are evaluated in equilibrium (zero bias), where
    detailed balance makes them exactly Boltzmann factors in the charging
    energy.  Evaluating them at the operating bias instead (pumped=True)
    lets the subgap leakage floor of the broadened density of states drive
    the island charge, which swamps the thermally activated rates at low
    temperature; island charge relaxation is dominated by inelastic
    processes outside this model, so the pumped variant is offered only to
    quantify that sensitivity.  Without an integrator it reads
    shared_integrator(params).
    """
    if integrator is None:
        integrator = shared_integrator(params)
    bias_v = params.bias_v if pumped else 0.0

    def build(q_max: int) -> list[float]:
        rates = _charge_rates(params, integrator, range(q_max + 1),
                              bias_v=bias_v)
        rel = [1.0]
        for q in range(1, q_max + 1):
            gain_prev, loss_here = rates[q - 1][0], rates[q][1]
            if loss_here <= 0.0:
                raise ChargeDistributionError(
                    f"vanishing charge-loss rate at q={q}; distribution undefined")
            rel.append(rel[-1] * gain_prev / loss_here)
        return rel

    q_max = params.q_max
    for attempt in range(2):
        rel = build(q_max)
        z = rel[0] + 2.0 * sum(rel[1:])
        probs_pos = [r / z for r in rel]
        if probs_pos[-1] <= _PQ_TAIL_LIMIT:
            qs = tuple(range(-q_max, q_max + 1))
            probs = tuple(probs_pos[abs(q)] for q in qs)
            return ChargeDistribution(q_values=qs, probs=probs)
        if attempt == 0:
            q_max *= 2
    raise ChargeDistributionError(
        f"island charge distribution still carries {probs_pos[-1]:.2e} "
        f"probability at |q|={q_max}; raise q_max")
