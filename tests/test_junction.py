"""Tunneling integrals, lead density of states and the island charge state."""
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpoqcr import (ChargeDistribution, ChargeDistributionError,
                    QuadratureError, SystemParams, bitflip_sweep,
                    charge_distribution, diagonalize_kpo, dynes_dos, fermi,
                    pat_integral, rate_table, rates_sweep, steady_sweep)
from kpoqcr import junction, quad
from kpoqcr.junction import (PatIntegrator, pat_breakpoints, pat_integrals,
                             pat_integrand)
from kpoqcr.oracles import flat_dos_forward
from kpoqcr.quad import WG, WGK, XGK, adaptive_gk, integrate, plan_panels

from conftest import held_integrals

GAP = SystemParams().gap_hz


def test_dynes_dos_floor_symmetry_and_asymptote():
    gd = 1e-4
    assert dynes_dos(0.0, GAP, gd) == pytest.approx(gd / math.sqrt(1 + gd * gd),
                                                    rel=1e-12)
    eps = np.linspace(-3 * GAP, 3 * GAP, 301)
    assert np.allclose(dynes_dos(eps, GAP, gd), dynes_dos(-eps, GAP, gd),
                       atol=0.0)
    assert dynes_dos(50 * GAP, GAP, gd) == pytest.approx(
        50.0 / math.sqrt(50.0**2 - 1.0), rel=1e-6)


def _dynes_dos_complex(eps, gap_hz, gamma_dynes):
    """Reference: the Dynes form in complex arithmetic."""
    z = (np.asarray(eps, float) + 1j * gamma_dynes * gap_hz) / gap_hz
    return np.abs(np.real(z / np.sqrt(z * z - 1.0)))


def _dos_grid():
    """+-3 gaps, both sides of each gap edge down to 1e-6 of the gap, and
    the subgap region."""
    near = np.logspace(-6, -2, 400)
    edges = [s * GAP * (1.0 + t * near)
             for s in (1.0, -1.0) for t in (1.0, -1.0)]
    return np.concatenate([np.linspace(-3 * GAP, 3 * GAP, 20001), *edges,
                           np.linspace(-0.999 * GAP, 0.999 * GAP, 4001)])


@pytest.mark.parametrize("gd", [1e-4, 1e-2])
def test_dynes_dos_matches_complex_form(gd):
    eps = _dos_grid()
    want = _dynes_dos_complex(eps, GAP, gd)
    got = dynes_dos(eps, GAP, gd)
    assert np.max(np.abs(got - want) / want) < 2e-12


def test_dynes_dos_is_bitwise_even():
    eps = _dos_grid()
    assert dynes_dos(eps, GAP, 1e-4).tobytes() == \
        dynes_dos(-eps, GAP, 1e-4).tobytes()


@pytest.mark.parametrize("value", [0.0, 0.3 * GAP, -1.5 * GAP])
def test_kernels_take_scalars_and_0d_arrays(value):
    t = 2e9
    for kernel in (lambda e: dynes_dos(e, GAP, 1e-4), lambda e: fermi(e, t),
                   lambda e: fermi(e, 0.0)):
        want = kernel(np.array([value]))[0]
        for arg in (value, np.float64(value), np.array(value)):
            got = kernel(arg)
            assert np.ndim(got) == 0 and float(got) == want


@pytest.mark.parametrize("t_hz", [2e9, 0.0])
def test_fermi_returns_a_scalar_for_scalar_input(t_hz):
    for arg in (-0.5e9, 0.5e9, np.float64(0.0), np.array(-1e9)):
        assert type(fermi(arg, t_hz)) is np.float64
    got = fermi(np.array([-1e9, 0.0, 1e9]), t_hz)
    assert type(got) is np.ndarray and got.shape == (3,)
    assert fermi(np.array([0.0]), t_hz).shape == (1,)


def test_fermi_is_the_tanh_form_bitwise():
    t = 2.0836619123e9
    eps = np.concatenate([np.linspace(-40 * t, 40 * t, 4001),
                          np.linspace(-1e-3 * t, 1e-3 * t, 101)])
    want = 0.5 * (1.0 - np.tanh(eps / (2.0 * t)))
    assert fermi(eps, t).tobytes() == want.tobytes()
    assert fermi(eps[7], t) == want[7]


@pytest.mark.parametrize("temp_hz", [2.0836619123e9, 2.0836619123e8, 0.0])
def test_integrand_is_the_product_and_leaves_eps_alone(temp_hz):
    # The values are n_s (1 - f_S) J times the textbook island Fermi
    # function 1 / (1 + e^y), y = (eps + x) / k_B T_N, here in extended
    # precision: within (8 + |y|) ulps, since y's own rounding moves e^y by
    # up to |y| ulps; at T_N = 0, the step times n_s (1 - f_S) J, bitwise.
    # Rows span 16 k_B T_N, as PatIntegrator's do.  The quadrature hands
    # the integrand views of its node array and reuses them afterwards; a
    # read-only view fails on any write.
    gd = SystemParams().gamma_dynes
    rng = np.random.default_rng(5)
    nodes = rng.uniform(-3 * GAP, 3 * GAP, (64, 15))
    kept = nodes.copy()
    eps = nodes[8:40]
    eps.flags.writeable = False
    jacobian = rng.uniform(0.0, 2.0, eps.shape)
    k = 1 if temp_hz == 0.0 else 24
    rows = (rng.uniform(-100e9, 100e9, (32, 1))
            + rng.uniform(0.0, 16.0 * temp_hz, (32, k)))
    scale, centre = junction.pat_arguments(rows, temp_hz)
    got = pat_integrand(GAP, gd, temp_hz, temp_hz)(
        eps, jacobian, scale[:, None], centre[:, None])
    w = (dynes_dos(eps, GAP, gd) * (1.0 - fermi(eps, temp_hz)) * jacobian)
    if temp_hz == 0.0:
        want = w[..., None] * fermi(eps[..., None] + rows[:, None], 0.0)
        assert got.tobytes() == want.tobytes()
    else:
        y = ((eps.astype(np.longdouble)[..., None] + rows[:, None])
             / np.longdouble(temp_hz))
        want = w[..., None] / (1.0 + np.exp(y))
        normal = want > 1e-290
        ulps = np.abs(got - want)[normal] / (want[normal]
                                               * np.finfo(float).eps)
        assert normal.sum() > 2000
        assert np.all(ulps <= 8.0 + np.abs(y[normal])), ulps.max()
    assert nodes.tobytes() == kept.tobytes()


def test_integrand_tails_are_exact():
    # At 0.01 K and offsets out to +-150 GHz, (eps + x) / k_B T_N reaches
    # about +-1,400, far past exp's range: the Fermi factor is exactly 0.0
    # or exactly 1.0 there, and never NaN.
    p = SystemParams().replace(temp_n=0.01, temp_s=0.01)
    t = p.t_n_hz
    eps = np.linspace(-150e9, 150e9, 3001)[None, :]
    rows = np.array([[-150e9], [-150e9 + 8 * t], [0.0], [150e9]])
    scale, centre = junction.pat_arguments(rows, t)
    integrand = pat_integrand(p.gap_hz, p.gamma_dynes, p.t_s_hz, t)
    w = dynes_dos(eps, p.gap_hz, p.gamma_dynes) * (1.0 - fermi(eps, p.t_s_hz))
    tails = [0, 0]
    for x, s, c in zip(rows[:, 0], scale, centre):
        got = integrand(eps, np.ones_like(eps), s[None, None],
                        c[None, None])[..., 0]
        y = (eps + x) / t
        high, low = y > 745.0, y < -40.0
        assert not np.isnan(got).any()
        assert np.all(got[high] == 0.0) and np.all(got[low] == w[low])
        tails = [tails[0] + high.sum(), tails[1] + low.sum()]
    assert min(tails) > 1000


def test_too_wide_row_raises():
    # A row of offsets wider than 1,400 k_B T_N could overflow its
    # components' factors, so pat_integrals refuses it; at T_N = 0 every
    # row is one offset.
    t = 2e9
    gamma = SystemParams().gamma_dynes
    with pytest.raises(ValueError, match="1400 k_B T_N"):
        pat_integrals([[0.0, 1401 * t]], GAP, gamma, t, t)
    pat_integrals([[0.0, 1399 * t]], GAP, gamma, t, t)


def test_fermi_limits():
    t = 2e9
    assert fermi(0.0, t) == 0.5
    eps = np.linspace(-10 * t, 10 * t, 41)
    assert np.max(np.abs(fermi(eps, t) + fermi(-eps, t) - 1.0)) < 1e-12
    assert fermi(-1.0, 0.0) == 1.0 and fermi(1.0, 0.0) == 0.0 and fermi(0.0, 0.0) == 0.5


def test_zero_temperature_closed_form(params):
    # At T = 0 the forward integral is the DOS integrated over (0, -x), and
    # Re(z / sqrt(z^2 - 1)) has the antiderivative Re sqrt(z^2 - 1).
    gap, gd = params.gap_hz, params.gamma_dynes
    x = np.array([-1, -5, -20, -40, -48.36, -50, -60, -80, -95]) * 1e9
    z = -x / gap + 1j * gd
    want = gap * (np.sqrt(z * z - 1.0).real
                  - np.sqrt(complex(-gd * gd - 1.0)).real)
    got = pat_integrals(x[:, None], gap, gd, 0.0, 0.0, rel_tol=1e-12)[:, 0]
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12
    # No support for x >= 0.
    zero = pat_integrals([[0.0], [1e9], [50e9]], gap, gd, 0.0, 0.0,
                         rel_tol=1e-12)[:, 0]
    assert zero.tolist() == [0.0, 0.0, 0.0]
    # The interpolated F meets the closed form too, and is exactly 0.0 from
    # the panel edge x = 0 on.
    integ = PatIntegrator(gap, gd, 0.0, 0.0)
    assert np.max(np.abs(integ.evaluate(x) / want - 1.0)) <= 1e-12
    above = np.concatenate([[0.0, 5e-324], np.geomspace(1.0, 500e9, 200)])
    assert not integ.evaluate(above).any()


def test_zero_temperature_integrals_have_sharp_support():
    # Sharp Fermi seas: the forward integral vanishes for offset >= 0.
    assert pat_integral(0.5e9, "forward", GAP, 1e-4, 0.0, 0.0) == 0.0
    assert pat_integral(-0.5e9, "backward", GAP, 1e-4, 0.0, 0.0) == 0.0
    # Deep below the gap the subgap floor carries the weight; still positive.
    val = pat_integral(-10e9, "forward", GAP, 1e-4, 0.0, 0.0)
    assert val > 0.0


def test_direction_argument_validated():
    with pytest.raises(ValueError, match="forward or backward"):
        pat_integral(1e9, "sideways", GAP, 1e-4, 1e9, 1e9)


def test_flat_dos_closed_form():
    # A huge smearing parameter flattens the DOS to 1; the integral then has
    # the thermal closed form offset / expm1(offset / t).
    t = 2.0836619123e9
    for offset in (-5e9, -1e9, 3e9):
        got = pat_integral(offset, "forward", GAP, 1e4, t, t, rel_tol=1e-10)
        assert got == pytest.approx(flat_dos_forward(offset, t), rel=1e-4)


def test_detailed_balance_at_equal_temperatures(params):
    t = params.t_n_hz
    for offset in (2e9, 5e9):
        fwd = pat_integral(offset, "forward", GAP, 1e-4, t, t, rel_tol=1e-11)
        bwd = pat_integral(offset, "backward", GAP, 1e-4, t, t, rel_tol=1e-11)
        assert fwd / bwd == pytest.approx(math.exp(-offset / t), rel=1e-8)


@settings(max_examples=12, deadline=None)
@given(scale=st.floats(0.2, 5.0), offset=st.floats(-40e9, 40e9))
def test_integral_scale_invariance(scale, offset):
    # Energies in, value out: scaling every energy scales the integral.
    t = 2e9
    base = pat_integral(offset, "forward", GAP, 1e-3, t, t, rel_tol=1e-9)
    scaled = pat_integral(scale * offset, "forward", scale * GAP, 1e-3,
                          scale * t, scale * t, rel_tol=1e-9)
    assert scaled == pytest.approx(scale * base, rel=1e-6, abs=1e-6 * t)


def test_quadrature_spec_covers_edges():
    bps, edges = pat_breakpoints([[-10e9]], GAP, 2e9, 2e9)
    lo, hi = np.nanmin(bps), np.nanmax(bps)
    # Window spans both Fermi edges (0 and -offset) plus thermal padding,
    # and the gap singularities inside it are registered for sqrt panels.
    assert lo <= 0.0 <= hi and lo <= 10e9 <= hi
    (_a, _b, edge, sgn), _owner = plan_panels(bps, edges,
                                              np.zeros_like(edges))
    sqrt_edges = edge[sgn != 0.0]
    assert set(sqrt_edges) == {-GAP, GAP}
    for edge in sqrt_edges:
        assert lo < edge < hi
        assert edge in bps


@pytest.mark.parametrize("temp_s, temp_n", [(0.1, 0.1), (0.1, 0.0)])
def test_integrator_caches_by_panel(params, temp_s, temp_n):
    # Values come from Chebyshev panels built per base index [k W, (k+1) W),
    # W = 16 k_B T_N, or 16 k_B T_S at T_N = 0; a panel is 24 node
    # integrals.  Another offset in a built panel integrates nothing; the
    # negated offset lies in another.
    integ = PatIntegrator.from_params(params.replace(temp_s=temp_s,
                                                    temp_n=temp_n))
    assert held_integrals(integ) == 0
    a = integ.forward(3e9)
    n1 = held_integrals(integ)
    assert n1 > 0 and n1 % 24 == 0
    b = integ.forward(3e9)
    assert a == b and held_integrals(integ) == n1
    integ.forward(5e9)
    assert held_integrals(integ) == n1
    integ.backward(3e9)
    assert held_integrals(integ) > n1 and held_integrals(integ) % 24 == 0


def test_backward_is_cached_forward_at_negated_offset(params):
    integ = PatIntegrator.from_params(params)
    for x in (3e9, -3e9, params.gap_hz, 0.0):
        want = integ.forward(-x)
        n = held_integrals(integ)
        assert float(integ.backward(x)).hex() == float(want).hex()
        assert held_integrals(integ) == n


@pytest.mark.parametrize("temp_k", [0.1, 0.01, 0.0])
def test_backward_equals_its_own_integrand(params, temp_k):
    # backward(x) = forward(-x) holds because the Dynes DOS is even and
    # f(-x) = 1 - f(x).  The reference integrates the backward integrand
    # itself on the breakpoints of offset x; the two quadratures differ
    # only by their tolerance, or by the absolute floor rel_tol * k_B T.
    p = params.replace(temp_n=temp_k, temp_s=temp_k)
    gap, gd, t_s, t_n = p.gap_hz, p.gamma_dynes, p.t_s_hz, p.t_n_hz
    rel_tol = 1e-10

    def integrand(eps, offset):
        return (dynes_dos(eps, gap, gd) * fermi(eps, t_s)
                * (1.0 - fermi(eps + offset, t_n)))

    reach = gap + 2.0 * p.omega_rf
    shells = [gap + k * p.omega_rf for k in (-2, -1, 0, 1, 2)]
    offsets = sorted({*np.linspace(-reach, reach, 25).tolist(),
                      *shells, *(-x for x in shells)})
    for x in offsets:
        got = pat_integral(x, "backward", gap, gd, t_s, t_n, rel_tol)
        bps, edges = pat_breakpoints([[x]], gap, t_s, t_n)
        want, _err = adaptive_gk(lambda eps: integrand(eps, x), bps[0],
                                 edges[0], rel_tol=rel_tol,
                                 abs_tol=rel_tol * max(t_s, t_n))
        if temp_k == 0.0 and x <= 0.0:
            # Sharp Fermi seas: the support (-x, 0) is empty.
            assert got == 0.0 and want == 0.0
        else:
            assert abs(got - want) <= max(1e-8 * abs(want), rel_tol * t_n)


@pytest.mark.parametrize("temp_hz", [2.0836619123e9, 0.0])
def test_batch_independence(temp_hz):
    # An integral's value depends only on its own offset, bit for bit:
    # alone, or anywhere in a batch of 2,100.  Each probe
    # offset comes with its negation, the lookup of the backward integral.
    # With thermal padding every window holds both gap edges; at zero
    # temperature a window holds at most one, and may end on it.
    gamma = SystemParams().gamma_dynes
    rng = np.random.default_rng(20260814)
    special = [0.0, GAP, -GAP, GAP + 1.0, GAP - 1.0, -GAP + 1.0, -GAP - 1.0,
               1e9, -1e9, 100e9, -100e9]
    probe = special + rng.uniform(-120e9, 120e9, 100 - len(special)).tolist()
    probe = [s * x for x in probe for s in (1.0, -1.0)]
    filler = rng.uniform(-150e9, 150e9, 1900).tolist()
    batch = probe + filler
    assert len(batch) == 2100

    def run(offsets):
        return pat_integrals(np.reshape(offsets, (-1, 1)), GAP, gamma,
                             temp_hz, temp_hz)[:, 0]

    alone = [run([x])[0] for x in probe]
    first = run(batch)[:len(probe)]
    last = run(batch[::-1])[::-1][:len(probe)]
    want = [float(v).hex() for v in alone]
    assert [float(v).hex() for v in first] == want
    assert [float(v).hex() for v in last] == want


def test_panel_sums_do_not_depend_on_call_batching(monkeypatch):
    # The same batch with its panels evaluated in calls of one row, and of
    # assorted row counts up to seven, gives the default run's bits.  Each
    # call holds plain and square-root panels alike, so a ragged batch
    # comes from the rounds' panel counts.
    gamma = SystemParams().gamma_dynes
    t = 2.0836619123e9
    rng = np.random.default_rng(20261018)
    offsets = np.array([0.0, -27.15e9, -GAP - 1e9, GAP + 1e9, *rng.uniform(
        -120e9, 120e9, 36)])[:, None]
    rows = []
    make = junction.pat_integrand

    def recording(*args):
        integrand = make(*args)

        def recorded(eps, *args):
            rows.append(eps.shape[0])
            return integrand(eps, *args)
        return recorded

    monkeypatch.setattr(junction, "pat_integrand", recording)
    want = [v.hex() for v in
            pat_integrals(offsets, GAP, gamma, t, t)[:, 0].tolist()]
    for call_rows in (1, 7):
        rows.clear()
        monkeypatch.setattr(quad, "_CALL_ROWS", call_rows)
        got = pat_integrals(offsets, GAP, gamma, t, t)[:, 0]
        assert [v.hex() for v in got.tolist()] == want
        assert max(rows) == call_rows
    assert len(set(rows)) >= 3 and min(rows) < 7


def test_panel_row_sums_are_row_local():
    # A row's weighted sum has the same bits alone or among 1..64 rows,
    # at any offset in the array, at a shifted memory address, and as one
    # of many copies.  Entries span 16 decades, so a change of summation
    # order would show in the last bits.
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((64, XGK.size)) * 10.0 ** rng.uniform(
        -8.0, 8.0, (64, XGK.size))
    buf = np.empty(vals.size + 1)
    shifted = buf[1:].reshape(vals.shape)
    shifted[...] = vals
    for weights in (WGK, WG):
        alone = np.array([np.einsum("ij,j->i", vals[i:i + 1], weights)[0]
                          for i in range(64)])
        for n in range(1, 65):
            for block, want in ((vals[:n], alone[:n]),
                                (vals[64 - n:], alone[64 - n:]),
                                (shifted[:n], alone[:n]),
                                (np.repeat(vals[n - 1:n], n, axis=0),
                                 np.repeat(alone[n - 1], n))):
                got = np.einsum("ij,j->i", block, weights)
                assert got.tobytes() == want.tobytes()


def test_component_row_sums_are_row_local():
    # The panel sums of a vector integrand, np.einsum("ijk,j->ik"), give a
    # row the same bits alone or among 1..64 rows, at any offset in the
    # array, at a shifted memory address and as one of many copies.  With
    # one component they are the scalar sums "ij,j->i" bit for bit.
    rng = np.random.default_rng(13)
    for k in (1, 3, 24):
        vals = rng.standard_normal((64, XGK.size, k)) * 10.0 ** rng.uniform(
            -8.0, 8.0, (64, XGK.size, k))
        buf = np.empty(vals.size + 1)
        shifted = buf[1:].reshape(vals.shape)
        shifted[...] = vals
        for weights in (WGK, WG):
            alone = np.concatenate([np.einsum("ijk,j->ik", vals[i:i + 1],
                                              weights) for i in range(64)])
            if k == 1:
                scalar = np.einsum("ij,j->i", vals[:, :, 0].copy(), weights)
                assert alone[:, 0].tobytes() == scalar.tobytes()
            for n in range(1, 65):
                for block, want in ((vals[:n], alone[:n]),
                                    (vals[64 - n:], alone[64 - n:]),
                                    (shifted[:n], alone[:n]),
                                    (np.repeat(vals[n - 1:n], n, axis=0),
                                     np.repeat(alone[n - 1:n], n, axis=0))):
                    got = np.einsum("ijk,j->ik", block, weights)
                    assert got.tobytes() == want.tobytes()


def test_vector_integrand_components_meet_their_own_tolerance():
    # K integrands on shared panels: each component meets rel_tol on its
    # own scale, equal components get equal bits, and without args an
    # integral has one component.  Component j of integral i is
    # s_ij * exp(-r_j eps) on [0, 3], whose integral is known.
    r = np.array([0.5, 4.0, 4.0, 12.0])
    scales = np.array([[1.0, 1e-9, 1e-9, 1e6], [2.0, 1.0, 1.0, 1e-12]])

    def fn(eps, jacobian, s):
        return s * np.exp(-r * eps[..., None]) * jacobian[..., None]

    values, errors = integrate(fn, [[0.0, 3.0], [0.0, 3.0]], np.empty((2, 0)),
                               np.empty((2, 0)), rel_tol=1e-12,
                               args=(scales,))
    exact = scales * (1.0 - np.exp(-3.0 * r)) / r
    assert values.shape == errors.shape == (2, 4)
    assert np.all(np.abs(values - exact) <= 1e-12 * np.abs(exact))
    assert np.all(errors <= 1e-12 * np.abs(values))
    assert values[:, 1].tobytes() == values[:, 2].tobytes()
    scalar, _err = integrate(lambda eps, jacobian: np.exp(-eps) * jacobian,
                             [[0.0, 3.0]], np.empty((1, 0)), np.empty((1, 0)))
    assert scalar.shape == (1, 1)


def _node_rows(lefts, widths):
    """The 24 Chebyshev node offsets of the panels [left, left + width)."""
    lo = np.asarray(lefts, float)[:, None]
    hi = lo + np.asarray(widths, float)[:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * junction._CHEB_T


def test_panel_row_values_do_not_depend_on_the_batch(monkeypatch):
    # A panel row's 24 values are one quadrature and depend only on that
    # row, bit for bit: alone, in a batch of 1,034 rows, in the reversed
    # batch, and with integrand calls of one and of up to seven rows.
    # Probes: base panels at 0 and around -gap, the split
    # panels next to -gap, a panel across +gap and random ones.
    p = SystemParams()
    gap, gamma, t = p.gap_hz, p.gamma_dynes, p.t_n_hz
    width = junction._PANEL_KT * t
    rng = np.random.default_rng(20261019)
    k_gap = math.floor(-gap / width)
    lefts = [0.0, k_gap * width, (k_gap + 0.5) * width,
             (k_gap + 0.25) * width, math.floor(gap / width) * width,
             *(rng.integers(-9, 9, 5) * width)]
    probe = _node_rows(lefts, [width, width, width / 2, width / 4,
                               width] + [width] * 5)
    n_filler = 1034 - len(probe)
    filler = _node_rows(rng.integers(-9, 9, n_filler) * width,
                        width / 2.0 ** rng.integers(0, 3, n_filler))

    def run(rows):
        return pat_integrals(rows, gap, gamma, t, t, 1e-12)

    want = [run(row[None])[0].tobytes() for row in probe]
    batch = np.concatenate([probe, filler])
    assert len(batch) == 1034
    first = run(batch)[:len(probe)]
    last = run(batch[::-1])[::-1][:len(probe)]
    assert [row.tobytes() for row in first] == want
    assert [row.tobytes() for row in last] == want

    calls = []
    make = junction.pat_integrand

    def recording(*args):
        integrand = make(*args)

        def recorded(eps, *args):
            calls.append(eps.shape[0])
            return integrand(eps, *args)
        return recorded

    monkeypatch.setattr(junction, "pat_integrand", recording)
    small = np.concatenate([probe, filler[:20]])
    for rows_per_call in (1, 7):
        calls.clear()
        monkeypatch.setattr(quad, "_CALL_ROWS",
                            rows_per_call * junction._CHEB_N)
        got = run(small)[:len(probe)]
        assert [row.tobytes() for row in got] == want
        assert max(calls) == rows_per_call


@pytest.mark.parametrize("temp_s, temp_n, bias_hz", [
    (0.1, 0.1, 45e9), (0.1, 0.1, 20e9), (0.03, 0.03, 45e9), (0.2, 0.2, 39e9),
    (0.01, 0.01, 45e9), (0.2, 0.02, 45e9), (0.0, 0.1, 45e9)])
def test_panel_nodes_meet_their_tolerance(params, temp_s, temp_n, bias_hz):
    # Every node value of a cold table against a scalar rel_tol 1e-13
    # integral at that node, in units of the node tolerance
    # max(rel_tol |F|, rel_tol k_B T) at rel_tol = quad_rel_tol / 100.
    p = params.replace(temp_s=temp_s, temp_n=temp_n, bias_v=bias_hz)
    integ = PatIntegrator.from_params(p)
    rate_table(p, diagonalize_kpo(p), integrator=integ)
    nodes = np.concatenate([x.ravel() for _l, x, _f in integ._store.values()])
    got = np.concatenate([f.ravel() for _l, _x, f in integ._store.values()])
    assert nodes.size == held_integrals(integ)
    want = pat_integrals(nodes[:, None], p.gap_hz, p.gamma_dynes, p.t_s_hz,
                         p.t_n_hz, rel_tol=1e-13)[:, 0]
    node_tol = junction._NODE_TOL * p.quad_rel_tol
    tol = node_tol * np.maximum(np.abs(want), max(p.t_s_hz, p.t_n_hz))
    err = np.abs(got - want) / tol
    assert err.max() <= 1.0, nodes[np.argmax(err)]


def test_unresolved_panel_is_named(params):
    # A node quadrature that fails names its interpolation panel and the
    # offsets of its row.
    integ = PatIntegrator(params.gap_hz, params.gamma_dynes, params.t_s_hz,
                          params.t_n_hz, rel_tol=1e-17)
    width = junction._PANEL_KT * params.t_n_hz
    with pytest.raises(QuadratureError) as info:
        integ.evaluate([10e9])
    message = str(info.value)
    assert f"interpolation panel [0.0, {width!r}) Hz" in message
    assert "tunneling integrals at offsets " in message


def _leaf_widths(integ, k):
    """The widths of base panel k's stored pieces, left to right."""
    width = junction._PANEL_KT * integ.temp_n_hz
    lefts, _x, _f = integ._store[k]
    return np.diff(np.append(lefts, (k + 1) * width))


def test_cold_default_table_builds_in_one_pass(params, spectrum, eta,
                                                monkeypatch):
    # The seed puts every piece of F where the tail test keeps it, so a
    # cold default charge distribution and table each make one node
    # quadrature of F, 12 node rows in all (5 of them on the panel holding
    # -gap), 10,836 quadrature points in 10 adaptive rounds, and G's
    # nodes are one round of F reads.
    counts = dict.fromkeys(["pat_integrals", "rows", "rounds", "points",
                            "g_rounds"], 0)

    def counted(fn, key, size=None):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if size is not None:
                counts[size[0]] += size[1](*args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(junction, "pat_integrals", counted(
        junction.pat_integrals, "pat_integrals",
        ("rows", lambda offsets, *_: len(offsets))))
    monkeypatch.setattr(quad, "_evaluate", counted(
        quad._evaluate, "rounds",
        ("points", lambda fn, panels, owner, *_: owner.size * XGK.size)))
    monkeypatch.setattr(junction.ChargeAveraged, "_integrals",
                        counted(junction.ChargeAveraged._integrals,
                                "g_rounds"))
    integ = PatIntegrator.from_params(params)
    pq = charge_distribution(params, integ)
    assert counts["pat_integrals"] == 1
    rate_table(params, spectrum, eta, pq, integ)
    assert counts == {"pat_integrals": 2, "rows": 12, "rounds": 10,
                      "points": 10836, "g_rounds": 1}
    k = math.floor(-params.gap_hz / integ._width)
    quarter = integ._width / 4
    assert _leaf_widths(integ, k) == pytest.approx(
        [quarter, quarter, quarter / 2, quarter / 2, quarter], rel=1e-9)


def _rho(a, b, x, reach):
    """The Bernstein parameter of the ellipse of [a, b] through x + i reach
    (Trefethen, ATAP, ch. 8)."""
    s = complex((2 * x - a - b) / (b - a), 2 * reach / (b - a))
    root = cmath.sqrt(s * s - 1.0)
    return max(abs(s + root), abs(s - root))


@pytest.mark.parametrize("temp_s, temp_n", [
    (0.1, 0.1), (0.01, 0.01), (0.03, 0.03), (0.3, 0.3), (0.2, 0.02),
    (0.1, 0.0), (0.0, 0.0)])
def test_each_seeded_piece_meets_its_need_and_its_parent_did_not(
        params, temp_s, temp_n):
    # Each piece the seed starts a panel as has rho at least its need at
    # both singularities of F, and the piece it was halved from (if any)
    # fell short at one of them: the seed halves exactly as far as each
    # piece's own ellipse asks.  At the defaults only the panel holding
    # -gap is split, into 5 pieces.
    p = params.replace(temp_s=temp_s, temp_n=temp_n)
    integ = PatIntegrator.from_params(p)
    width, reach = integ._width, integ._reach
    low, high = (math.floor(x / width) for x in (-p.gap_hz, p.gap_hz))

    def short(a, b):
        return any(_rho(a, b, x, reach) < need
                   for x, need in integ._singular)

    split = {}
    for k in range(low - 3, high + 4):
        pieces = integ._seed(k)
        lefts = [a for _d, a, _b in pieces]
        assert lefts == sorted(lefts) and pieces[0][1] == k * width
        assert all(b == a2 for (_d, _a, b), (_d2, a2, _b2)
                   in zip(pieces, pieces[1:]))
        assert pieces[-1][2] == (k + 1) * width
        for depth, a, b in pieces:
            assert not short(a, b)
            if depth:
                # The parent: this piece and its right or left sibling.
                left_child = round((a - k * width) / (b - a)) % 2 == 0
                parent = (a, 2 * b - a) if left_child else (2 * a - b, b)
                assert short(*parent), (k, a, b)
        assert max(d for d, _a, _b in pieces) == integ._seed_depth(k)
        if len(pieces) > 1:
            split[k] = len(pieces)
    assert low in split
    if (temp_s, temp_n) == (0.1, 0.1):
        assert split == {low: 5}


@pytest.mark.parametrize("temp_s, temp_n", [
    (0.1, 0.1), (0.01, 0.01), (0.03, 0.03), (0.3, 0.3), (0.2, 0.02),
    (0.0, 0.0)])
def test_the_tail_test_keeps_every_seeded_piece(params, spectrum, eta,
                                                temp_s, temp_n):
    # Every panel of F that a cold table builds keeps the pieces it was
    # seeded as: the tail test splits none of them.
    p = params.replace(temp_s=temp_s, temp_n=temp_n)
    integ = PatIntegrator.from_params(p)
    rate_table(p, spectrum, eta, integrator=integ)
    for k, (lefts, _x, _f) in integ._store.items():
        assert lefts.tolist() == [a for _d, a, _b in integ._seed(k)], k


def test_unseeded_build_reaches_the_seeded_pieces(params, monkeypatch):
    # The seed only starts the split tree deeper.  Without it, the tail
    # test halves the panel holding -gap into the very pieces the seed
    # starts it as, and each piece has the same node values bit for bit:
    # a piece's nodes are one quadrature of that piece alone.
    width = junction._PANEL_KT * params.t_n_hz
    k = math.floor(-params.gap_hz / width)
    seeded = PatIntegrator.from_params(params)
    seeded.evaluate([-params.gap_hz])
    monkeypatch.setattr(PatIntegrator, "_pieces", lambda self, cuts: [
        (0, a, b) for a, b in zip(cuts, cuts[1:])])
    unseeded = PatIntegrator.from_params(params)
    unseeded.evaluate([-params.gap_hz])
    assert len(seeded._store[k][0]) == 5
    for got, want in zip(unseeded._store[k], seeded._store[k]):
        assert got.tobytes() == want.tobytes()


def test_halving_limit_counts_from_the_base_panel(params, monkeypatch):
    # With every tail test failing, the seeded pieces of the panel holding
    # -gap, 2 and 3 halvings deep, are halved until 8 halvings of the base
    # panel: the limit counts from the base panel, not from a seeded
    # piece, and the error names a 2^-8 piece of it and stores nothing.
    monkeypatch.setattr(junction, "_TAIL_TOL", 1e-300)
    width = junction._PANEL_KT * params.t_n_hz
    k = math.floor(-params.gap_hz / width)
    integ = PatIntegrator.from_params(params)
    assert integ._seed_depth(k) == 3
    with pytest.raises(QuadratureError) as info:
        integ.evaluate([-params.gap_hz])
    message = str(info.value)
    assert f"after {junction._MAX_SPLITS} halvings of its panel" in message
    a, b = map(float, re.search(r"unresolved on \[(\S+), (\S+)\) Hz",
                                message).groups())
    assert k * width <= a < b <= (k + 1) * width
    assert b - a == pytest.approx(width / 2 ** junction._MAX_SPLITS,
                                  rel=1e-9)
    assert info.value.index == 0 and held_integrals(integ) == 0


class _Recording:
    """Keeps every offset that evaluate is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.offsets = []

    def evaluate(self, offsets):
        self.offsets.extend(np.ravel(offsets).tolist())
        return super().evaluate(offsets)


class _Recorder(_Recording, PatIntegrator):
    """F that keeps its offsets: a table reads F through the nodes of the
    charge-averaged G built on it, and the charge distribution directly."""


class _AnchorRecorder(_Recording, junction.ChargeAveraged):
    """G that keeps its offsets, the anchors a table reads."""


@pytest.mark.parametrize("temp_k, bias_hz", [
    (0.1, 45e9), (0.1, 20e9), (0.03, 45e9), (0.2, 39e9)])
def test_table_integrals_meet_their_tolerance(params, temp_k, bias_hz):
    # The true error, not the estimate: a subsample of a cold table's
    # integrals (the values of F that the nodes of its charge-averaged G
    # read, and its charge distribution's), as that table computed them,
    # against rel_tol 1e-13 runs on
    # ungraded panels.  An error estimate fooled on some panels passes
    # every convergence check and shows only here.  The sample holds
    # offsets from -30 to -20 GHz, whose window ends in the thermal tail
    # beyond the peak at +gap, and offsets below -gap, whose support spans
    # that peak.
    p = params.replace(temp_n=temp_k, temp_s=temp_k, bias_v=bias_hz)
    recorder = _Recorder.from_params(p)
    rate_table(p, diagonalize_kpo(p), integrator=recorder)
    table = np.unique(recorder.offsets)
    rng = np.random.default_rng(20261018)
    band = table[(table >= -30e9) & (table <= -20e9)]
    deep = table[table < -p.gap_hz]
    assert band.size >= 50 and deep.size >= 50
    sample = np.unique(np.concatenate([
        rng.choice(table, 200, replace=False),
        rng.choice(band, 50, replace=False),
        rng.choice(deep, 50, replace=False)]))
    got = recorder.evaluate(sample)
    k_t = max(p.t_s_hz, p.t_n_hz)
    bps, edges = pat_breakpoints(sample[:, None], p.gap_hz, p.t_s_hz,
                                 p.t_n_hz)
    want, _err = integrate(
        pat_integrand(p.gap_hz, p.gamma_dynes, p.t_s_hz, p.t_n_hz), bps,
        edges, np.zeros_like(edges), rel_tol=1e-13, abs_tol=1e-13 * k_t,
        args=junction.pat_arguments(sample[:, None], p.t_n_hz))
    want = want[:, 0]
    tol = np.maximum(1e-10 * np.abs(want), 1e-10 * k_t)
    worst = int(np.argmax(np.abs(got - want) / tol))
    assert abs(got[worst] - want[worst]) <= tol[worst], sample[worst]


def _table_errors(got, want, k_t):
    """|got - want| in units of the table tolerance max(1e-10 |want|,
    1e-10 k_B T); 0 where both are exactly 0.0, as at 0 / 0 K, where the
    tolerance is 0."""
    tol = np.maximum(1e-10 * np.abs(want), 1e-10 * k_t)
    both_zero = (got == 0.0) & (want == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(both_zero, 0.0, np.abs(got - want) / tol)


@pytest.mark.parametrize("temp_s, temp_n, bias_hz", [
    (0.1, 0.1, 45e9), (0.1, 0.1, 20e9), (0.03, 0.03, 45e9), (0.2, 0.2, 39e9),
    (0.01, 0.01, 45e9), (0.2, 0.02, 45e9), (0.0, 0.1, 45e9),
    (0.1, 0.0, 45e9), (0.0, 0.0, 45e9)])
def test_interpolated_values_match_direct_integrals(params, temp_s, temp_n,
                                                    bias_hz):
    # The Chebyshev panels against rel_tol 1e-13 integrals, in units of the
    # table tolerance max(1e-10 |F|, 1e-10 k_B T), at a sample of a cold
    # table's offsets and at every offset of its charge distribution.  Over
    # whole tables the worst was 1.9e-3 (0.2/0.02 K), against up to 0.3 for
    # the tables' own direct integrals.
    p = params.replace(temp_s=temp_s, temp_n=temp_n, bias_v=bias_hz)
    recorder = _Recorder.from_params(p)
    rate_table(p, diagonalize_kpo(p), integrator=recorder)
    table = np.unique(recorder.offsets)
    rng = np.random.default_rng(20261018)
    sample = np.unique(np.concatenate([
        rng.choice(table, 400, replace=False),
        recorder.offsets[:4 * (p.q_max + 1)]]))
    got = recorder.evaluate(sample)
    k_t = max(p.t_s_hz, p.t_n_hz)
    bps, edges = pat_breakpoints(sample[:, None], p.gap_hz, p.t_s_hz,
                                 p.t_n_hz)
    want, _err = integrate(
        pat_integrand(p.gap_hz, p.gamma_dynes, p.t_s_hz, p.t_n_hz), bps,
        edges, np.zeros_like(edges), rel_tol=1e-13, abs_tol=1e-13 * k_t,
        args=junction.pat_arguments(sample[:, None], p.t_n_hz))
    err = _table_errors(got, want[:, 0], k_t)
    assert err.max() <= 0.1, sample[np.argmax(err)]


@pytest.mark.parametrize("temp_s, temp_n, bias_hz", [
    (0.1, 0.1, 45e9), (0.1, 0.1, 20e9), (0.03, 0.03, 45e9), (0.2, 0.2, 39e9),
    (0.01, 0.01, 45e9), (0.2, 0.02, 45e9), (0.0, 0.1, 45e9),
    (0.1, 0.0, 45e9), (0.0, 0.0, 45e9)])
def test_charge_averaged_values_match_direct_sums(params, monkeypatch,
                                                  temp_s, temp_n, bias_hz):
    # G at every anchor of a cold table, against the sum over the kept
    # charges of rel_tol 1e-13 integrals in the same order, in units of the
    # table tolerance max(1e-10 |G|, 1e-10 k_B T).  G interpolates sums of
    # F's interpolated values; the worst was 7.7e-3 (0.2/0.02 K).
    monkeypatch.setattr(junction, "ChargeAveraged", _AnchorRecorder)
    p = params.replace(temp_s=temp_s, temp_n=temp_n, bias_v=bias_hz)
    integ = PatIntegrator.from_params(p)
    rate_table(p, diagonalize_kpo(p), integrator=integ)
    (averaged,) = integ._averaged.values()
    anchors = np.unique(averaged.offsets)
    got = averaged.evaluate(anchors)
    x = (anchors[:, None] + averaged._shifts).ravel()
    k_t = max(p.t_s_hz, p.t_n_hz)
    bps, edges = pat_breakpoints(x[:, None], p.gap_hz, p.t_s_hz, p.t_n_hz)
    f, _err = integrate(
        pat_integrand(p.gap_hz, p.gamma_dynes, p.t_s_hz, p.t_n_hz), bps,
        edges, np.zeros_like(edges), rel_tol=1e-13, abs_tol=1e-13 * k_t,
        args=junction.pat_arguments(x[:, None], p.t_n_hz))
    f = f.reshape(anchors.size, -1)
    want = averaged._probs[0] * f[:, 0]
    for p_k, f_k in zip(averaged._probs[1:], f.T[1:]):
        want += p_k * f_k
    err = _table_errors(got, want, k_t)
    assert err.max() <= 0.1, anchors[np.argmax(err)]


@pytest.mark.parametrize("temp_s, temp_n", [(0.1, 0.1), (0.1, 0.0)])
def test_offset_values_are_bitwise_alone_in_a_table_and_in_a_sweep(
        params, monkeypatch, temp_s, temp_n):
    # A value depends only on its offset, whichever panels were built
    # first: alone in a fresh integrator, after a rate table built the
    # panels, in one batch with the table's offsets in two orders, and
    # inside every evaluate call of a sweep.  This holds for F and for the
    # charge-averaged G that tables read at their anchors.  Probes of
    # each: a base panel edge k W, one ulp either side of it, a Chebyshev
    # node of one of the split panels around -gap, and a sample of the
    # table's own offsets.
    params = params.replace(temp_s=temp_s, temp_n=temp_n)
    edge = -2.0 * PatIntegrator.from_params(params)._width
    monkeypatch.setattr(junction, "ChargeAveraged", _AnchorRecorder)
    recorder = _Recorder.from_params(params)
    rate_table(params, diagonalize_kpo(params), integrator=recorder)
    monkeypatch.undo()
    (charges, averaged), = recorder._averaged.items()
    rng = np.random.default_rng(7)

    def probe_set(function, offsets):
        lefts, nodes, values = function._store[-2.0]
        assert len(lefts) > 1
        probes = np.array([edge, np.nextafter(edge, -np.inf),
                           np.nextafter(edge, np.inf), nodes[1][5],
                           *rng.choice(offsets, 40, replace=False)])
        return probes, values[1][5]

    def fresh_f():
        return PatIntegrator.from_params(params)

    def fresh_g():
        return fresh_f().averaged(*charges)

    cases = {}
    for name, function, fresh in (("F", recorder, fresh_f),
                                  ("G", averaged, fresh_g)):
        offsets = np.unique(function.offsets)
        probes, node_value = probe_set(function, offsets)
        alone = np.array([fresh().evaluate([x])[0] for x in probes])
        assert alone[3] == node_value
        want = alone.tobytes()
        assert function.evaluate(probes).tobytes() == want
        for batch in (np.concatenate([offsets, probes]),
                      np.concatenate([probes[::-1], offsets[::-1]])[::-1]):
            got = fresh().evaluate(batch)
            assert got[-probes.size:].tobytes() == want
        cases[name] = probes, want, []

    def probing(base, name):
        probes, _want, seen = cases[name]

        class Probing(base):
            def evaluate(self, offsets):
                offsets = np.asarray(offsets, float)
                both = super().evaluate(np.concatenate([offsets.ravel(),
                                                        probes]))
                seen.append(both[offsets.size:].tobytes())
                return both[:offsets.size].reshape(offsets.shape)
        return Probing

    volts, alphas = np.array([45e9, 20e9]), np.array([1.7, 2.0])
    plain = [rates_sweep(params, "voltage", volts).data,
             rates_sweep(params, "alpha", alphas).data,
             steady_sweep(params, volts).data,
             bitflip_sweep(params, alphas).data]
    # The plain sweeps left a warm shared F; the probed ones share a
    # cold probing F.
    junction._shared.cache_clear()
    monkeypatch.setattr(junction, "PatIntegrator",
                        probing(PatIntegrator, "F"))
    monkeypatch.setattr(junction, "ChargeAveraged",
                        probing(junction.ChargeAveraged, "G"))
    probed = [rates_sweep(params, "voltage", volts).data,
              rates_sweep(params, "alpha", alphas).data,
              steady_sweep(params, volts).data,
              bitflip_sweep(params, alphas).data]
    # The sweeps share one F and one G.  Each reads F for its charge
    # distribution, the first also for G's nodes and the bit-flip sweep for
    # its rates, and each rates or steady sweep reads G for its tables,
    # once for all its points.
    for name, calls in (("F", 6), ("G", 3)):
        _probes, want, seen = cases[name]
        assert len(seen) >= calls and set(seen) == {want}
    assert [d.tobytes() for d in probed] == [d.tobytes() for d in plain]


def test_interpolation_chunks_leave_values_alone(params, integrator,
                                                  monkeypatch):
    # Offsets are interpolated at most _INTERP_ROWS at a time; any chunk
    # size gives the same bits, also with a panel's offsets split between
    # chunks.
    x = np.linspace(-90e9, 40e9, 1001)
    want = integrator.evaluate(x).tobytes()
    for rows in (1, 7, 500):
        monkeypatch.setattr(junction, "_INTERP_ROWS", rows)
        assert integrator.evaluate(x).tobytes() == want


def test_barycentric_row_sums_are_row_local():
    # The interpolant's sums, np.einsum("ij,ij->i") and ("ij->i"), give a
    # row the same bits alone or among 1..64 rows, at any offset in the
    # array and at a shifted memory address.
    rng = np.random.default_rng(12)
    q = rng.standard_normal((64, 24)) * 10.0 ** rng.uniform(-8, 8, (64, 24))
    f = rng.standard_normal((64, 24))
    buf = np.empty(q.size + 1)
    shifted = buf[1:].reshape(q.shape)
    shifted[...] = q
    alone = np.array([np.einsum("ij,ij->i", q[i:i + 1], f[i:i + 1])[0]
                      for i in range(64)])
    sums = np.array([np.einsum("ij->i", q[i:i + 1])[0] for i in range(64)])
    for n in range(1, 65):
        for rows in (slice(0, n), slice(64 - n, 64)):
            assert np.einsum("ij,ij->i", q[rows], f[rows]).tobytes() == \
                alone[rows].tobytes()
            assert np.einsum("ij->i", q[rows]).tobytes() == \
                sums[rows].tobytes()
            assert np.einsum("ij,ij->i", shifted[rows], f[rows]).tobytes() \
                == alone[rows].tobytes()
            assert np.einsum("ij->i", shifted[rows]).tobytes() == \
                sums[rows].tobytes()


def test_graded_square_root_panels_double_from_the_edge():
    # Interval [0, 1] ends at the edge 1 and [1, 5] starts there: square-
    # root panels over u in [0, 1] and [0, 2].  A first width of 0.1 cuts
    # them at u = 0.1, 0.2, 0.4, 0.8 (and 1.6 on the right); the plain
    # panel [-3, 0] and a zero width stay whole, and so does a width at an
    # edge the row does not hold.
    bps = [[-3.0, 0.0, 1.0, 5.0]]
    edges = [[1.0, np.nan]]
    whole, owner = plan_panels(bps, edges, [[0.0, 0.0]])
    assert whole.shape[1] == 3
    same, _owner = plan_panels(bps, edges, [[0.0, 0.3]])
    assert same.tobytes() == whole.tobytes()
    (a, b, edge, sgn), owner = plan_panels(bps, edges, [[0.1, 0.0]])
    assert owner.tolist() == [0] * 12
    assert (a[0], b[0], sgn[0]) == (-3.0, 0.0, 0.0)
    cuts = [0.0, 0.1, 0.2, 0.4, 0.8]
    assert a[1:6].tolist() == cuts and b[1:6].tolist() == cuts[1:] + [1.0]
    assert a[6:].tolist() == cuts + [1.6]
    assert b[6:].tolist() == cuts[1:] + [1.6, 2.0]
    assert set(sgn[1:6]) == {-1.0} and set(sgn[6:]) == {1.0}
    assert set(edge[1:]) == {1.0}

    def peaked(x, jacobian):
        return jacobian / np.sqrt(np.abs(x - 1.0) + 1e-4)

    graded, _err = integrate(peaked, bps, edges, [[0.1, 0.0]], rel_tol=1e-13)
    exact = 4.0 * (math.sqrt(4.0 + 1e-4) - math.sqrt(1e-4))
    assert graded[0, 0] == pytest.approx(exact, rel=1e-12)


def test_interval_between_two_edges_raises():
    # Each interval is one panel with at most one square-root end, so an
    # interval between two edges needs a breakpoint between them; with one,
    # each half is anchored at its own edge.
    edges = [[-1.0, 1.0]]
    with pytest.raises(ValueError, match="two square-root edges"):
        plan_panels([[-2.0, -1.0, 1.0, 2.0]], edges, [[0.0, 0.0]])
    (a, b, edge, sgn), _owner = plan_panels([[-2.0, -1.0, 0.0, 1.0, 2.0]],
                                            edges, [[0.0, 0.0]])
    assert edge.tolist() == [-1.0, -1.0, 1.0, 1.0]
    assert sgn.tolist() == [-1.0, 1.0, -1.0, 1.0]
    assert b.tolist() == [1.0] * 4 and a.tolist() == [0.0] * 4


def test_pat_integrals_grade_only_the_peak_in_the_support(monkeypatch):
    # Only offsets < 0 have a support (0, -offset); only their panels at
    # +gap are graded, from sqrt(10 * gamma * gap).
    gamma = SystemParams().gamma_dynes
    seen = []

    def spy(fn, bps, edges, widths, **kwargs):
        seen.append((edges, widths))
        return integrate(fn, bps, edges, widths, **kwargs)

    monkeypatch.setattr(junction, "integrate", spy)
    t = 2e9
    pat_integrals([[-80e9], [-10e9], [10e9], [80e9]], GAP, gamma, t, t)
    (edges, widths), = seen
    u0 = math.sqrt(10.0 * gamma * GAP)
    assert widths.tolist() == [[0.0, u0], [0.0, u0], [0.0, 0.0], [0.0, 0.0]]
    assert (edges[:2] == [-GAP, GAP]).all()


def test_unconverged_integral_in_batch_raises(params):
    # At rel_tol 1e-17 only integrals under the absolute floor converge;
    # the one O(1) integral in each batch fails, names its own forward
    # offset and caches nothing: a backward one among forward ones, a
    # forward one among backward ones, and one behind 306 forward ones.
    # Backward keys are looked up at the negated offset, as the rate
    # paths do.
    forward = [(True, 200e9 + k * 1e9) for k in range(20)]
    backward = [(False, -200.5e9 - k * 1e9) for k in range(20)]
    many = [(True, 200e9 + k * 1e8) for k in range(306)]
    cases = [
        (forward[:7] + [(False, -10e9)] + forward[7:],
         r"tunneling integral at offset 10000000000\.0 Hz", 7),
        (backward[:7] + [(True, 11e9)] + backward[7:],
         r"tunneling integral at offset 11000000000\.0 Hz", 7),
        (many + [(False, -12e9)],
         r"tunneling integral at offset 12000000000\.0 Hz", len(many)),
    ]
    for keys, message, position in cases:
        integ = PatIntegrator(params.gap_hz, params.gamma_dynes,
                              params.t_s_hz, params.t_n_hz, rel_tol=1e-17)
        offsets = [x if is_forward else -x for is_forward, x in keys]
        with pytest.raises(QuadratureError, match=message) as info:
            integ.evaluate(offsets)
        assert info.value.achieved_rel_err > 1e-17
        assert held_integrals(integ) == 0
        # The index is the failing offset's position among the offsets
        # given, not in the sorted list of distinct ones integrated.
        assert info.value.index == position
    # A repeated offset reports its first position, also in a 2-d input.
    integ = PatIntegrator(params.gap_hz, params.gamma_dynes, params.t_s_hz,
                          params.t_n_hz, rel_tol=1e-17)
    grid = [[200e9, 10e9, 201e9], [202e9, 203e9, 10e9]]
    with pytest.raises(QuadratureError) as info:
        integ.evaluate(grid)
    assert info.value.index == 1
    # pat_integrals itself keeps the order given: the last case's failure
    # is the batch's last row, and its index is that row.
    with pytest.raises(QuadratureError, match=message) as info:
        pat_integrals(np.reshape(offsets, (-1, 1)), params.gap_hz,
                      params.gamma_dynes, params.t_s_hz, params.t_n_hz,
                      rel_tol=1e-17)
    assert info.value.index == len(offsets) - 1 == 306


@pytest.mark.parametrize("temp_k", [0.1, 0.0])
def test_charge_averaged_nodes_are_the_charge_sum(params, temp_k):
    # G's node values are sum_k p_k F(x + 2 E_c q_k) from F's own values,
    # added in the order of the charges, bit for bit, at every temperature;
    # G is built once per (charges, probs, E_c) and kept with F.
    p = params.replace(temp_n=temp_k, temp_s=temp_k)
    f = PatIntegrator.from_params(p)
    charges, probs = (-2, -1, 0, 1, 2), (0.05, 0.2, 0.5, 0.2, 0.05)
    g = f.averaged(charges, probs, p.e_island)
    assert f.averaged(list(charges), list(probs), p.e_island) is g
    assert f.averaged(charges, probs, 1e9) is not g
    g.evaluate([-60e9, -48e9, -5e9, 0.0, 30e9])
    x = np.concatenate([nodes.ravel() for _l, nodes, _v in g._store.values()])
    got = np.concatenate([v.ravel() for _l, _x, v in g._store.values()])
    terms = [p_q * f.evaluate(x + 2.0 * p.e_island * q)
             for q, p_q in zip(charges, probs)]
    want = terms[0]
    for term in terms[1:]:
        want += term
    assert got.tobytes() == want.tobytes()


def test_charge_averaged_failure_is_named(params):
    # A node of G whose F integrals fail names G's offset and panel and
    # the F integrals behind it; its index is the position among G's
    # offsets, and neither function stores anything.
    f = PatIntegrator(params.gap_hz, params.gamma_dynes, params.t_s_hz,
                      params.t_n_hz, rel_tol=1e-17)
    g = f.averaged((-1, 0, 1), (0.25, 0.5, 0.25), params.e_island)
    width = junction._PANEL_KT * params.t_n_hz
    with pytest.raises(QuadratureError) as info:
        g.evaluate([200e9, 10e9])
    message = str(info.value)
    assert message.startswith("tunneling integral at offset 10000000000.0 Hz:"
                              f" interpolation panel [0.0, {width!r}) Hz: "
                              "charge average: tunneling integral at offset")
    assert info.value.index == 1
    assert held_integrals(g) == 0 and held_integrals(f) == 0


def test_charge_distribution_must_be_symmetric():
    # Rates read the backward charge sum through the forward G, which
    # holds for p_q = p_-q bit for bit only.
    ChargeDistribution((-1, 0, 1), (0.25, 0.5, 0.25))
    for qs, probs in (((-1, 0, 1), (0.25, 0.5, np.nextafter(0.25, 1.0))),
                      ((-1, 0, 2), (0.25, 0.5, 0.25)),
                      ((0, 1), (0.5, 0.5)),
                      ((-1, 0, 1), (0.0, 1.0, -0.0))):
        with pytest.raises(ValueError, match="symmetric about q = 0"):
            ChargeDistribution(qs, probs)


def test_evaluate_detailed_balance(params, integrator):
    t = params.t_n_hz
    e = 4e9
    ratio = integrator.evaluate([-e])[0] / integrator.evaluate([e])[0]
    assert ratio == pytest.approx(math.exp(e / t), rel=1e-7)


def test_equilibrium_distribution_is_boltzmann(params, pq):
    # Zero-bias detailed balance makes p_q exactly thermal in the charging
    # energy, independent of the lead DOS shape.
    t = params.t_n_hz
    qs = np.array(pq.q_values)
    w = np.exp(-params.e_island * qs.astype(float) ** 2 / t)
    w /= w.sum()
    probs = np.array(pq.probs)
    assert np.max(np.abs(probs - w) / w.max()) < 1e-8
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_distribution_tail_is_pinned(params, pq):
    # Relative to Boltzmann, charge by charge.  The deviation grows with |q|
    # because the thermally activated gain integrals shrink toward the
    # quadrature's absolute floor rel_tol * k_B T (0.21 Hz at defaults).
    # Bounds are twice the values measured at defaults, |q| = 0 to 5 (every
    # charge kept above PQ_FLOOR), so a coarser tunneling function shows.
    bound = [7.0e-9, 5.3e-9, 6.7e-8, 3.9e-7, 2.2e-6, 1.9e-5]
    qs = np.array(pq.q_values)
    w = np.exp(-params.e_island * qs.astype(float) ** 2 / params.t_n_hz)
    w /= w.sum()
    deviation = np.abs(np.array(pq.probs) / w - 1.0)
    for q, dev in zip(qs, deviation):
        if abs(q) < len(bound):
            assert dev <= bound[abs(q)], (q, dev)


def test_distribution_symmetric_and_normalized(params):
    pq = charge_distribution(params.replace(temp_n=0.2, temp_s=0.2))
    probs = dict(pq.items())
    for q, p in pq.items():
        assert p == probs[-q]
    assert sum(pq.probs) == pytest.approx(1.0, abs=1e-12)


def test_pumped_distribution_differs_at_low_temperature():
    cold = SystemParams(temp_n=0.01, temp_s=0.01)
    eq = charge_distribution(cold)
    pumped = charge_distribution(cold, pumped=True)
    # Equilibrium freezes the island to q = 0; the subgap floor at the
    # operating bias keeps pumping it, so the pumped spread is far larger.
    p_eq, p_pumped = dict(eq.items()), dict(pumped.items())
    assert p_eq[0] > 0.999
    assert p_pumped[0] < 0.9
    assert p_pumped[1] > 100.0 * p_eq[1]
    assert sum(pumped.probs) == pytest.approx(1.0, abs=1e-12)


def test_charge_cutoff_failure_reported():
    hot = SystemParams(temp_n=1.0, temp_s=1.0, e_island=0.05e9, q_max=4)
    with pytest.raises(ChargeDistributionError, match="raise q_max"):
        charge_distribution(hot)


def test_charge_cutoff_auto_doubles_once(params):
    pq = charge_distribution(params.replace(q_max=3))
    assert max(pq.q_values) == 6  # one doubling was enough


# ---------------------------------------------------------------------------
# Quadrature engine


def test_adaptive_gk_polynomial_and_sqrt_singularity():
    val, err = adaptive_gk(lambda x: 3.0 * x**2, breakpoints=(0.0, 2.0))
    assert val == pytest.approx(8.0, rel=1e-13)
    val, err = adaptive_gk(lambda x: 1.0 / np.sqrt(np.abs(x)),
                           breakpoints=(0.0, 1.0), sqrt_edges=(0.0,))
    assert val == pytest.approx(2.0, rel=1e-12)


def test_adaptive_gk_split_points_handle_kinks():
    val, _ = adaptive_gk(np.abs, breakpoints=(-1.0, 0.0, 1.0))
    assert val == pytest.approx(1.0, rel=1e-13)


def test_adaptive_gk_empty_interval():
    assert adaptive_gk(np.cos, breakpoints=(1.0, 1.0)) == (0.0, 0.0)


def test_adaptive_gk_budget_exhaustion_raises(monkeypatch):
    # An undeclared inverse-sqrt singularity cannot reach 1e-14 on a
    # four-panel budget; the error carries the achieved accuracy.
    monkeypatch.setattr(quad, "PANEL_BUDGET", 4)
    with pytest.raises(QuadratureError) as info:
        adaptive_gk(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                    breakpoints=(0.0, 1.0), rel_tol=1e-14)
    assert info.value.achieved_rel_err > 1e-14
    assert "4 panels" in str(info.value)
