"""Adaptive Gauss-Kronrod quadrature of many integrals in one run.

Each integral is a row of breakpoints and a row of each argument of the
integrand that all integrals share; its K components share its panels.  A
panel is plain or a square-root panel, eps = edge +- u^2, which smooths an
inverse-square-root singularity at a gap edge (plan_panels), and is
integrated with the QUADPACK qk21 pair (Piessens et al. 1983).  integrate
runs all integrals of a call in one adaptive run; adaptive_gk is one.

Batch independence: an integral's value and error depend only on its own
breakpoints and arguments, never on which other integrals share the run or
how its panels are grouped into integrand calls.  Panel sums are row-local
einsums, whose rounding sees one panel's 21 values of one component only
(a BLAS product vals @ WGK is not row-local: BLAS picks kernels by the
number of rows).  Per-integral totals use one np.bincount over (integral,
component) slots, in the panels' order, which is the same whatever else is
in the run (kept panels first, then the left and the right halves of the
split ones).
"""
from __future__ import annotations

from itertools import count
from typing import Callable

import numpy as np

from .errors import QuadratureError

# 21-point Kronrod nodes on [-1, 1] (ascending) with the embedded 10-point
# Gauss rule on the odd-index subset.  Standard QUADPACK qk21 constants
# (Piessens et al. 1983); the Kronrod rule is exact to degree 31, the Gauss
# rule to degree 19.
_XGK_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK_HALF = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077382924779515,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WGK_CENTER = 0.149445554002916905664936468389821
_WG_HALF = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
WGK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
WG = np.zeros(21)
WG[1:20:2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])

# Work size.  It bounds memory and leaves every result unchanged: calls only
# group panels that are computed independently.  At 2^16 each round of a
# cold default table is one call; more would only grow low-T temporaries.
CALL_POINTS = 2 ** 16
# Limits of one integral: an integral that would need more panels or rounds
# raises QuadratureError.
PANEL_BUDGET = 2 ** 14
MAX_ROUNDS = 64
_CALL_ROWS = CALL_POINTS // XGK.size
# A panel narrower than this, relative to its endpoints, is not split.
_MIN_WIDTH = 16.0 * np.finfo(float).eps

# Panels are the columns of a float array with these rows: the interval
# [a, b] in the u parameter; edge and sgn, where sgn is 0 on a plain panel
# (eps = u) and +1 or -1 on a square-root panel (eps = edge + sgn * u^2).
_A, _B, _EDGE, _SGN = range(4)


def plan_panels(breakpoints, sqrt_edges,
                first_widths) -> tuple[np.ndarray, np.ndarray]:
    """Initial panels of every integral, in one vectorized step.

    breakpoints: shape (n, k), one row per integral; NaN marks an unused
    slot and repeated values count once.  sqrt_edges: shape (n, e), the
    edge values of each integral; a breakpoint equal to one of its
    integral's edges anchors square-root panels on both sides.  Each
    interval between consecutive breakpoints is one panel: a plain one, or
    a square-root panel over u in [0, sqrt(width)] from its edge end.  An
    interval whose two ends are both edges raises ValueError: it needs a
    breakpoint between them.  A row with fewer than two distinct
    breakpoints gets no panels and integrates to zero.  first_widths:
    shape (n, e) like sqrt_edges; a positive entry w grades the square-root
    panels anchored at that edge, splitting each at u = w, 2w, 4w, ...
    short of its end, so that panel widths in u double away from the edge.
    Zero leaves them whole.

    Returns (panels, owner): panels has the rows a, b, edge and sgn, one
    column per panel, and owner[j] is the integral of column j.  Columns
    are sorted by owner, each integral's intervals from left to right and
    a graded panel's pieces by increasing u.
    """
    x = np.sort(np.asarray(breakpoints, float), axis=1)
    x[:, 1:][x[:, 1:] == x[:, :-1]] = np.nan
    x = np.sort(x, axis=1)              # distinct values first, NaN last
    # Which breakpoints are edges, and the first width at each (zero off
    # the edges).
    edges = np.asarray(sqrt_edges)
    widths = np.asarray(first_widths)
    is_edge = np.zeros(x.shape, bool)
    w = np.zeros(x.shape)
    for j in range(edges.shape[1]):
        at = x == edges[:, j, None]
        is_edge |= at
        np.copyto(w, widths[:, j, None], where=at)
    x0, x1 = x[:, :-1], x[:, 1:]
    e0, e1 = is_edge[:, :-1], is_edge[:, 1:]
    if (e0 & e1).any():
        raise ValueError("an interval between two square-root edges needs "
                         "a breakpoint between them")
    zero = np.zeros_like(x0)
    panels = np.where(e0 | e1,
                      np.stack([zero, np.sqrt(x1 - x0), np.where(e0, x0, x1),
                                np.where(e0, 1.0, -1.0)]),
                      np.stack([x0, x1, zero, zero]))
    keep = ~np.isnan(x1)
    owner = np.broadcast_to(np.arange(x.shape[0])[:, None], keep.shape)
    # Each panel's first width is the one at its anchor.
    return _grade(panels[:, keep], owner[keep],
                  np.where(e0, w[:, :-1], w[:, 1:])[keep])


def _grade(panels, owner, width):
    """Split each panel column at u = width * 2**k, k = 0, 1, ..., short of
    its end; a square-root panel starts at u = 0.  Columns whose width is
    zero or not below their end stay whole."""
    end = panels[_B]
    graded = (width > 0.0) & (end > width)
    cuts = np.zeros(owner.size, np.int32)
    cuts[graded] = np.ceil(np.log2(end[graded] / width[graded]))
    pieces = cuts + 1
    col = np.repeat(np.arange(owner.size), pieces)
    k = np.arange(col.size, dtype=np.int32)
    k -= np.repeat(np.cumsum(pieces, dtype=np.int32) - pieces, pieces)
    out = panels.take(col, axis=1)
    w = width[col]
    np.copyto(out[_A], np.ldexp(w, k - 1), where=k > 0)
    np.copyto(out[_B], np.ldexp(w, k), where=k < cuts[col])
    return out, owner[col]


def _split(panels: np.ndarray) -> np.ndarray:
    """Halves of each panel column: all left halves, then all right halves."""
    mid = 0.5 * (panels[_A] + panels[_B])
    out = np.concatenate([panels, panels], axis=1)
    out[_B, :mid.size] = mid
    out[_A, mid.size:] = mid
    return out


def _evaluate(fn, panels, owner, args, k) -> np.ndarray:
    """The Kronrod estimates and Kronrod-Gauss differences of every panel,
    shape (2, panels, k), in integrand calls of at most CALL_POINTS points
    times components.

    Both panel kinds share a call: on a square-root panel the points are
    eps = edge + sgn * u^2 with the Jacobian |d eps / d u| = 2u, on a plain
    one eps = u with the Jacobian 1.0, which leaves the values' bits alone.
    The integrand gets each point's Jacobian and returns its values
    multiplied by it.
    """
    out = np.empty((2, owner.size, k))
    call_rows = max(_CALL_ROWS // k, 1)
    for start in range(0, owner.size, call_rows):
        sel = slice(start, start + call_rows)
        a, b, edge, sgn = panels[:, sel, None]
        rows = [arg[owner[sel], None] for arg in args]
        h = 0.5 * (b - a)
        u = h * XGK
        u += 0.5 * (a + b)
        sqrt_panel = sgn != 0.0
        eps = np.where(sqrt_panel, u * u * sgn + edge, u)
        jacobian = np.where(sqrt_panel, 2.0 * u, 1.0)
        vals = fn(eps, jacobian, *rows).reshape(*u.shape, k)
        kron = h * np.einsum("ijk,j->ik", vals, WGK)
        out[0, sel] = kron
        out[1, sel] = np.abs(kron - h * np.einsum("ijk,j->ik", vals, WG))
    return out


def integrate(
    fn: Callable[..., np.ndarray],
    breakpoints,
    sqrt_edges,
    first_widths,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    args=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate fn over each row of breakpoints in one adaptive run, with
    square-root panels at sqrt_edges graded by first_widths (see
    plan_panels).

    args are arrays with one row per integral, the first of shape (n, K);
    K = 1 without args.  fn(eps, jacobian, *rows) is evaluated on an
    (m, 21) array of points and their (m, 21) Jacobians d eps / d u, where
    each entry of rows is the (m, 1, ...) array of one arg's rows indexed
    by the integral of each point's panel.  It returns the (m, 21, K)
    values, or (m, 21) when K = 1, of K integrands that share each
    integral's panels, each times its point's Jacobian.

    Integral i has converged when the error estimate of every component k
    is at most max(rel_tol * |value_ik|, abs_tol); each round splits the
    panels of the unconverged integrals on which any component holds more
    than its equidistributed share of that tolerance.  Returns (values,
    errors), each of shape (n, K).  Raises QuadratureError, with .index
    naming its row, if one stalls, would exceed PANEL_BUDGET panels, or is
    still short after MAX_ROUNDS rounds.
    """
    n = np.shape(breakpoints)[0]
    k = args[0].shape[1] if args else 1
    panels, owner = plan_panels(breakpoints, sqrt_edges, first_widths)
    values = np.zeros((n, k))
    errors = np.zeros((n, k))
    live = np.ones(n, bool)
    found = _evaluate(fn, panels, owner, args, k)
    for rnd in count():
        # Component j of integral i sums into slot i * k + j.
        slot = (owner[:, None] * k + np.arange(k)).ravel()
        total, err_total = (np.bincount(slot, f.ravel(), n * k).reshape(n, k)
                            for f in found)
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        short = err_total > tol
        done = live & ~short.any(axis=1)
        np.copyto(values, total, where=done[:, None])
        np.copyto(errors, err_total, where=done[:, None])
        live &= ~done
        if not live.any():
            return values, errors
        # Split every panel on which a component holds more than its
        # equidistributed share.
        n_panels = np.bincount(owner, minlength=n)
        share = 0.5 * tol / np.maximum(n_panels, 1)[:, None]
        active = live[owner]
        bad = np.flatnonzero(active & (found[1] > share[owner]).any(axis=1))
        a, b = panels[_A, bad], panels[_B, bad]
        bad = bad[b - a > _MIN_WIDTH * (np.abs(a) + np.abs(b) + 1e-300)]
        bad_owner = owner[bad]
        n_bad = np.bincount(bad_owner, minlength=n)
        stuck = live & ((n_bad == 0) | (n_panels + n_bad > PANEL_BUDGET)
                        | (rnd == MAX_ROUNDS))
        if stuck.any():
            i = int(np.argmax(stuck))
            achieved = max(err_total[i, j] / abs(total[i, j])
                           if total[i, j] != 0.0 else float("inf")
                           for j in np.flatnonzero(short[i]))
            raise QuadratureError(
                f"quadrature stalled at relative error {achieved:.3e} "
                f"(requested {rel_tol:.3e}, {n_panels[i]} panels)",
                achieved_rel_err=achieved, index=i)
        active[bad] = False
        keep = np.flatnonzero(active)
        new = _split(panels.take(bad, axis=1))
        new_owner = np.concatenate([bad_owner, bad_owner])
        found = np.concatenate([found.take(keep, axis=1),
                                _evaluate(fn, new, new_owner, args, k)],
                               axis=1)
        panels = np.concatenate([panels.take(keep, axis=1), new], axis=1)
        owner = np.concatenate([owner[keep], new_owner])


def adaptive_gk(
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints,
    sqrt_edges=(),
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
) -> tuple[float, float]:
    """Integrate fn(eps) between the outermost breakpoints: integrate with
    n = 1.

    breakpoints: interior discontinuities / kinks plus the two endpoints.
    sqrt_edges: breakpoints at which the integrand has an integrable
    inverse-square-root singularity.

    Returns (value, error_estimate).  Raises QuadratureError if the budget
    is exhausted before the tolerance is met.
    """
    edges = np.reshape(np.asarray(sqrt_edges, float), (1, -1))
    values, errors = integrate(lambda eps, jacobian: fn(eps) * jacobian,
                               np.reshape(breakpoints, (1, -1)), edges,
                               np.zeros_like(edges), rel_tol=rel_tol,
                               abs_tol=abs_tol)
    return float(values[0, 0]), float(errors[0, 0])
