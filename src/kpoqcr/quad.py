"""Adaptive Gauss-Kronrod quadrature of many integrals in one run.

Each integral is given by its breakpoints (interior discontinuities or kinks
plus the two endpoints); one row of a 2-D breakpoint array per integral.
Panels carry the index of the integral they belong to and an optional
square-root reparametrization anchored at a named edge point: on such a
panel the integration variable is u with eps = edge +/- u^2, which turns an
inverse-square-root integrable singularity at the edge (a BCS-like
density-of-states peak) into a smooth integrand.

Integrals are processed in blocks of BLOCK_INTEGRALS.  Every refinement
round of a block evaluates all of its new panels in vectorized integrand
calls of at most CALL_POINTS points.  Convergence, splitting and the panel
budget are decided per integral, and a converged integral leaves the active
set.

Batch independence: an integral's value and error depend only on its own
breakpoints, never on which other integrals share the run.  Two choices
make this exact, not merely close:

- Panel sums are row-local, (vals * WGK).sum(axis=1), whose rounding sees
  one panel's 15 values only.  A matrix-vector product vals @ WGK is not:
  BLAS picks kernels and blocking by the number of rows, so a panel's
  last bits would depend on how many panels share the call.
- Per-integral totals use one fixed reduction, np.bincount, which adds an
  integral's panel values in their order in the panel array.  That order
  (kept panels first, then the left and then the right halves of the split
  ones) is the same whatever else is in the block.
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

# One panel in the u parameter.  sgn is 0 on a plain panel (eps = u) and
# +1 or -1 on a square-root panel (eps = edge + sgn * u^2).
_PANEL = np.dtype([("a", float), ("b", float), ("edge", float),
                  ("sgn", float), ("owner", np.intp)])


def plan_panels(breakpoints, sqrt_edges=()) -> np.ndarray:
    """Initial panels of every integral, in one vectorized step.

    breakpoints: shape (n, k), one row per integral; NaN marks an unused
    slot and repeated values count once.  sqrt_edges: shape (n, e), the
    edge values of each integral; a breakpoint equal to one of its
    integral's edges anchors square-root panels on both sides.  A row with
    fewer than two distinct breakpoints gets no panels and integrates to
    zero.

    Returns a _PANEL array sorted by owner, each integral's panels from
    left to right.
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
    # anchored at its edge end, or two halves anchored at each end.
    first_end = np.where(both, xm, x1)
    first = np.where(e0 | e1, _sqrt_panel(x0, first_end, e0), _plain(x0, x1))
    second = _sqrt_panel(xm, x1, np.zeros_like(e0))
    panels = np.stack([first, second], axis=2)
    owner = np.broadcast_to(np.arange(x.shape[0])[:, None, None], panels.shape)
    panels["owner"] = owner
    valid = ~np.isnan(x1)
    keep = np.stack([valid, valid & both], axis=2)
    return panels[keep]


def _plain(x0, x1) -> np.ndarray:
    out = np.zeros(x0.shape, _PANEL)
    out["a"], out["b"] = x0, x1
    return out


def _sqrt_panel(x0, x1, at_left) -> np.ndarray:
    """u in [0, sqrt(x1 - x0)], eps = anchor +/- u^2 from the anchored end."""
    out = np.zeros(x0.shape, _PANEL)
    out["b"] = np.sqrt(x1 - x0)
    out["edge"] = np.where(at_left, x0, x1)
    out["sgn"] = np.where(at_left, 1.0, -1.0)
    return out


def _split(panels: np.ndarray) -> np.ndarray:
    """Halves of each panel: all left halves, then all right halves."""
    mid = 0.5 * (panels["a"] + panels["b"])
    out = np.concatenate([panels, panels])
    out["b"][:panels.size] = mid
    out["a"][panels.size:] = mid
    return out


def _evaluate(fn, panels: np.ndarray, args) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and Kronrod-Gauss difference per panel."""
    kron = np.empty(panels.size)
    err = np.empty(panels.size)
    for start in range(0, panels.size, _CALL_ROWS):
        p = panels[start:start + _CALL_ROWS]
        c = 0.5 * (p["a"] + p["b"])
        h = 0.5 * (p["b"] - p["a"])
        u = c[:, None] + h[:, None] * XGK[None, :]
        sgn = p["sgn"][:, None]
        sq = sgn != 0.0
        eps = np.where(sq, p["edge"][:, None] + sgn * u * u, u)
        jac = np.where(sq, 2.0 * u, 1.0)
        vals = fn(eps, *(arg[p["owner"], None] for arg in args)) * jac
        k = h * (vals * WGK).sum(axis=1)
        g = h * (vals * WG).sum(axis=1)
        kron[start:start + p.size] = k
        err[start:start + p.size] = np.abs(k - g)
    return kron, err


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
    """Integrate one integral per row of breakpoints (see plan_panels).

    fn(eps, *rows) is evaluated on an (m, 15) array of points; each entry
    of rows is one array of args indexed by the integral of each point's
    panel, shaped (m, 1) to broadcast against eps.  With args=() fn gets eps
    alone.

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
            fn, plan_panels(block, edges[rows]), len(block), rel_tol,
            abs_tol, panel_budget, max_rounds, [arg[rows] for arg in args],
            start)
    return values, errors


def _integrate_block(fn, panels, n, rel_tol, abs_tol, panel_budget,
                     max_rounds, args, first):
    values = np.zeros(n)
    errors = np.zeros(n)
    live = np.ones(n, bool)
    kron, err = _evaluate(fn, panels, args)
    for rnd in count():
        owner = panels["owner"]
        total = np.bincount(owner, kron, n)
        err_total = np.bincount(owner, err, n)
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        done = live & (err_total <= tol)
        values[done] = total[done]
        errors[done] = err_total[done]
        live &= ~done
        if not live.any():
            return values, errors
        # Split every panel holding more than its equidistributed share.
        n_panels = np.bincount(owner, minlength=n)
        share = 0.5 * tol / np.maximum(n_panels, 1)
        a, b = panels["a"], panels["b"]
        splittable = b - a > 16.0 * np.finfo(float).eps * (
            np.abs(a) + np.abs(b) + 1e-300)
        bad = live[owner] & (err > share[owner]) & splittable
        n_bad = np.bincount(owner[bad], minlength=n)
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
        keep = live[owner] & ~bad
        new = _split(panels[bad])
        new_kron, new_err = _evaluate(fn, new, args)
        panels = np.concatenate([panels[keep], new])
        kron = np.concatenate([kron[keep], new_kron])
        err = np.concatenate([err[keep], new_err])


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
