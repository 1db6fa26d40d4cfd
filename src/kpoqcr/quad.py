"""Adaptive Gauss-Kronrod quadrature of many integrals in one run.

Each integral is given by its breakpoints (interior discontinuities or kinks
plus the two endpoints), one row of a 2-D breakpoint array per integral, and
by its arguments to the one integrand all integrals share.  Panels carry the
index of the integral they belong to and an optional square-root
reparametrization anchored at a named edge point: on such a panel the
integration variable is u with eps = edge +/- u^2, which turns an
inverse-square-root integrable singularity at the edge (a BCS-like
density-of-states peak) into a smooth integrand.

Integrals are processed in blocks of BLOCK_INTEGRALS.  Every refinement
round of a block evaluates all of its new panels in vectorized integrand
calls of at most CALL_POINTS points, grouped by panel kind: plain panels
skip the square-root map and its Jacobian, and the halves of a split panel
keep its kind.  Convergence, splitting and the panel budget are decided per
integral, and a converged integral leaves the active set.

Batch independence: an integral's value and error depend only on its own
breakpoints and arguments, never on which other integrals share the run or
how its panels are grouped into integrand calls.  Two choices make this
exact, not merely close:

- Panel sums are row-local, (vals * WGK).sum(axis=1), whose rounding sees
  one panel's 15 values only.  A matrix-vector product vals @ WGK is not:
  BLAS picks kernels and blocking by the number of rows, so a panel's
  last bits would depend on how many panels share the call.
- Per-integral totals use one fixed reduction, np.bincount, which adds an
  integral's panel values in their order in the panel arrays.  That order
  (kept panels first, then the left and then the right halves of the split
  ones) is the same whatever else is in the block; panels are regrouped by
  kind only for evaluation.
"""
from __future__ import annotations

from itertools import count
from typing import Callable

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod nodes on [-1, 1] (ascending) with the embedded 7-point
# Gauss rule on the odd-index subset.  Standard QUADPACK qk15 constants.
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
])
_WGK_HALF = np.array([
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478541,
    0.20443294007529889,
])
_WGK_CENTER = 0.20948214108472783
_WG_HALF = np.array([
    0.12948496616886969,
    0.27970539148927664,
    0.38183005050511894,
])
_WG_CENTER = 0.41795918367346938

XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
WGK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
WG = np.zeros(15)
WG[1:14:2] = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

# Work sizes.  They bound memory and leave every result unchanged: blocks
# and calls only group integrals and panels that are computed independently.
BLOCK_INTEGRALS = 256
CALL_POINTS = 2 ** 14
_CALL_ROWS = CALL_POINTS // XGK.size
# A panel narrower than this, relative to its endpoints, is not split.
_MIN_WIDTH = 16.0 * np.finfo(float).eps

# Panels are the columns of a float array with these rows: the interval
# [a, b] in the u parameter; edge and sgn, where sgn is 0 on a plain panel
# (eps = u) and +1 or -1 on a square-root panel (eps = edge + sgn * u^2);
# and, in a running block, the Kronrod estimate and its error.
_A, _B, _EDGE, _SGN, _KRON, _ERR = range(6)


def plan_panels(breakpoints, sqrt_edges=()) -> tuple[np.ndarray, np.ndarray]:
    """Initial panels of every integral, in one vectorized step.

    breakpoints: shape (n, k), one row per integral; NaN marks an unused
    slot and repeated values count once.  sqrt_edges: shape (n, e), the
    edge values of each integral; a breakpoint equal to one of its
    integral's edges anchors square-root panels on both sides.  A row with
    fewer than two distinct breakpoints gets no panels and integrates to
    zero.

    Returns (panels, owner): panels has the rows a, b, edge and sgn, one
    column per panel, and owner[j] is the integral of column j.  Columns
    are sorted by owner, each integral's panels from left to right.
    """
    x = np.sort(np.asarray(breakpoints, float), axis=1)
    x[:, 1:][x[:, 1:] == x[:, :-1]] = np.nan
    x = np.sort(x, axis=1)              # distinct values first, NaN last
    is_edge = (x[:, :, None] == np.asarray(sqrt_edges)[:, None, :]).any(axis=2)
    x0, x1 = x[:, :-1], x[:, 1:]
    e0, e1 = is_edge[:, :-1], is_edge[:, 1:]
    xm = 0.5 * (x0 + x1)
    both = e0 & e1
    # Up to two panels per interval: a plain one, one square-root panel
    # anchored at its edge end, or two halves anchored at each end.  A
    # square-root panel runs over u in [0, sqrt(width)] from its anchor.
    first_end = np.where(both, xm, x1)
    zero = np.zeros_like(x0)
    first = np.where(e0 | e1,
                     np.stack([zero, np.sqrt(first_end - x0),
                               np.where(e0, x0, first_end),
                               np.where(e0, 1.0, -1.0)]),
                     np.stack([x0, x1, zero, zero]))
    second = np.stack([zero, np.sqrt(x1 - xm), x1, zero - 1.0])
    valid = ~np.isnan(x1)
    keep = np.stack([valid, valid & both], axis=2)
    owner = np.broadcast_to(np.arange(x.shape[0])[:, None, None], keep.shape)
    return np.stack([first, second], axis=3)[:, keep], owner[keep]


def _split(panels: np.ndarray) -> np.ndarray:
    """Halves of each panel column: all left halves, then all right halves."""
    mid = 0.5 * (panels[_A] + panels[_B])
    out = np.concatenate([panels, panels], axis=1)
    out[_B, :mid.size] = mid
    out[_A, mid.size:] = mid
    return out


def _evaluate(fn, panels, owner, args) -> None:
    """Fill in the Kronrod estimate and Kronrod-Gauss difference of every
    panel.

    Panels are taken plain ones first, CALL_POINTS points at a time; each
    integrand call gets a run of panels of one kind.
    """
    sqrt_panel = panels[_SGN] != 0.0
    order = np.argsort(sqrt_panel, kind="stable")
    n_plain = owner.size - int(np.count_nonzero(sqrt_panel))
    spans = ((0, n_plain), (n_plain, owner.size))   # order[lo:hi] per kind
    for start in range(0, owner.size, _CALL_ROWS):
        stop = min(start + _CALL_ROWS, owner.size)
        sel = order[start:stop]
        a, b, edge, sgn = panels[:_KRON, sel]
        rows = [arg[owner[sel], None] for arg in args]
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        u = c[:, None] + h[:, None] * XGK[None, :]
        vals = np.empty_like(u)
        for is_sqrt, (lo, hi) in enumerate(spans):
            run = slice(max(lo, start) - start, min(hi, stop) - start)
            if run.start >= run.stop:
                continue
            ur = u[run]
            if is_sqrt:
                eps = edge[run, None] + sgn[run, None] * ur * ur
                vals[run] = fn(eps, *(r[run] for r in rows)) * (2.0 * ur)
            else:
                vals[run] = fn(ur, *(r[run] for r in rows))
        k = h * (vals * WGK).sum(axis=1)
        panels[_KRON, sel] = k
        panels[_ERR, sel] = np.abs(k - h * (vals * WG).sum(axis=1))


def integrate(
    fn: Callable[..., np.ndarray],
    breakpoints,
    sqrt_edges=(),
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    panel_budget: int = 2 ** 14,
    max_rounds: int = 64,
    args=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate fn over each row of breakpoints (see plan_panels).

    fn(eps, *rows) is evaluated on an (m, 15) array of points; each entry
    of rows is one array of args indexed by the integral of each point's
    panel, shaped (m, 1) to broadcast against eps.  With args=() fn gets
    eps alone.

    Integral i has converged when its error estimate is at most
    max(rel_tol * |value_i|, abs_tol); each round splits the panels of the
    unconverged integrals that hold more than their equidistributed share
    of that tolerance.  Returns (values, errors), one entry per row.
    Raises QuadratureError, with .index naming the integral, if one stalls,
    would exceed panel_budget panels, or is still short after max_rounds
    rounds.
    """
    bps = np.array(breakpoints, float, ndmin=2)
    n = bps.shape[0]
    edges = np.asarray(sqrt_edges, float)
    edges = np.broadcast_to(edges, (n, edges.shape[-1]))
    values = np.zeros(n)
    errors = np.zeros(n)
    for start in range(0, n, BLOCK_INTEGRALS):
        rows = slice(start, start + BLOCK_INTEGRALS)
        block = bps[rows]
        values[rows], errors[rows] = _integrate_block(
            fn, *plan_panels(block, edges[rows]), len(block), rel_tol,
            abs_tol, panel_budget, max_rounds, [arg[rows] for arg in args],
            start)
    return values, errors


def _integrate_block(fn, panels, owner, n, rel_tol, abs_tol, panel_budget,
                     max_rounds, args, first):
    values = np.zeros(n)
    errors = np.zeros(n)
    live = np.ones(n, bool)
    panels = np.concatenate([panels, np.empty((2, owner.size))])
    _evaluate(fn, panels, owner, args)
    for rnd in count():
        total = np.bincount(owner, panels[_KRON], n)
        err_total = np.bincount(owner, panels[_ERR], n)
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        done = live & (err_total <= tol)
        np.copyto(values, total, where=done)
        np.copyto(errors, err_total, where=done)
        live &= ~done
        if not live.any():
            return values, errors
        # Split every panel holding more than its equidistributed share.
        n_panels = np.bincount(owner, minlength=n)
        share = 0.5 * tol / np.maximum(n_panels, 1)
        active = live[owner]
        bad = np.flatnonzero(active & (panels[_ERR] > share[owner]))
        a, b = panels[_A, bad], panels[_B, bad]
        bad = bad[b - a > _MIN_WIDTH * (np.abs(a) + np.abs(b) + 1e-300)]
        bad_owner = owner[bad]
        n_bad = np.bincount(bad_owner, minlength=n)
        stuck = live & ((n_bad == 0) | (n_panels + n_bad > panel_budget)
                        | (rnd == max_rounds))
        if stuck.any():
            i = int(np.argmax(stuck))
            achieved = (err_total[i] / abs(total[i]) if total[i] != 0.0
                        else float("inf"))
            raise QuadratureError(
                f"quadrature stalled at relative error {achieved:.3e} "
                f"(requested {rel_tol:.3e}, {n_panels[i]} panels)",
                achieved_rel_err=achieved, index=first + i)
        active[bad] = False
        keep = np.flatnonzero(active)
        new = _split(panels.take(bad, axis=1))
        new_owner = np.concatenate([bad_owner, bad_owner])
        _evaluate(fn, new, new_owner, args)
        panels = np.concatenate([panels.take(keep, axis=1), new], axis=1)
        owner = np.concatenate([owner[keep], new_owner])


def adaptive_gk(
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints,
    sqrt_edges=(),
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    panel_budget: int = 2 ** 14,
    max_rounds: int = 64,
) -> tuple[float, float]:
    """Integrate fn between the outermost breakpoints: integrate with n = 1.

    breakpoints: interior discontinuities / kinks plus the two endpoints.
    sqrt_edges: breakpoints at which the integrand has an integrable
    inverse-square-root singularity.

    Returns (value, error_estimate).  Raises QuadratureError if the budget
    is exhausted before the tolerance is met.
    """
    values, errors = integrate(fn, np.ravel(breakpoints), sqrt_edges,
                               rel_tol, abs_tol, panel_budget, max_rounds)
    return float(values[0]), float(errors[0])
