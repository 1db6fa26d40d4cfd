"""Tunneling integrals, lead density of states and the island charge state."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpoqcr import (ChargeDistributionError, QuadratureError, SystemParams,
                    charge_distribution, dynes_dos, fermi, pat_integral)
from kpoqcr.junction import (PatIntegrator, charge_transition_rates,
                             elastic_weight, forward_p, pat_breakpoints,
                             pat_integrals)
from kpoqcr.oracles import flat_dos_forward
from kpoqcr.quad import BLOCK_INTEGRALS, adaptive_gk, plan_panels

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


def test_fermi_limits():
    t = 2e9
    assert fermi(0.0, t) == 0.5
    eps = np.linspace(-10 * t, 10 * t, 41)
    assert np.max(np.abs(fermi(eps, t) + fermi(-eps, t) - 1.0)) < 1e-12
    assert fermi(-1.0, 0.0) == 1.0 and fermi(1.0, 0.0) == 0.0 and fermi(0.0, 0.0) == 0.5


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
    bps, edges = pat_breakpoints([-10e9], GAP, 2e9, 2e9)
    lo, hi = np.nanmin(bps), np.nanmax(bps)
    # Window spans both Fermi edges (0 and -offset) plus thermal padding,
    # and the gap singularities inside it are registered for sqrt panels.
    assert lo <= 0.0 <= hi and lo <= 10e9 <= hi
    (_a, _b, edge, sgn), _owner = plan_panels(bps, edges)
    sqrt_edges = edge[sgn != 0.0]
    assert set(sqrt_edges) == {-GAP, GAP}
    for edge in sqrt_edges:
        assert lo < edge < hi
        assert edge in bps


def test_integrator_caches_by_offset(params):
    integ = PatIntegrator.from_params(params)
    assert len(integ) == 0
    a = integ.forward(3e9)
    n1 = len(integ)
    b = integ.forward(3e9)
    assert a == b and len(integ) == n1
    integ.backward(3e9)
    assert len(integ) == n1 + 1


@pytest.mark.parametrize("temp_hz", [2.0836619123e9, 0.0])
def test_batch_independence(temp_hz):
    # An integral's value depends only on its own offset and direction, bit
    # for bit: alone, or anywhere in a batch spanning several blocks.  With
    # thermal padding every window holds both gap edges; at zero
    # temperature a window holds at most one, and may end on it.
    gamma = SystemParams().gamma_dynes
    rng = np.random.default_rng(20260814)
    special = [0.0, GAP, -GAP, GAP + 1.0, GAP - 1.0, -GAP + 1.0, -GAP - 1.0,
               1e9, -1e9, 100e9, -100e9]
    probe = special + rng.uniform(-120e9, 120e9, 100 - len(special)).tolist()
    probe_keys = [(d, x) for x in probe for d in (True, False)]
    filler = list(zip(rng.random(1900) < 0.5,
                      rng.uniform(-150e9, 150e9, 1900).tolist()))
    batch = probe_keys + filler
    assert len(batch) > 4 * BLOCK_INTEGRALS

    def run(keys):
        fwd, off = zip(*keys)
        return pat_integrals(off, fwd, GAP, gamma, temp_hz, temp_hz)

    alone = [run([key])[0] for key in probe_keys]
    first = run(batch)[:len(probe_keys)]
    last = run(batch[::-1])[::-1][:len(probe_keys)]
    want = [float(v).hex() for v in alone]
    assert [float(v).hex() for v in first] == want
    assert [float(v).hex() for v in last] == want


def test_unconverged_integral_in_batch_raises(params):
    # At rel_tol 1e-17 only integrals under the absolute floor converge;
    # the one O(1) integral in each batch fails, names its own offset and
    # direction and caches nothing: a backward one among forward ones, a
    # forward one among backward ones, and one beyond the first block.
    forward = [(True, 200e9 + k * 1e9) for k in range(20)]
    backward = [(False, -200e9 - k * 1e9) for k in range(20)]
    many = [(True, 200e9 + k * 1e8) for k in range(BLOCK_INTEGRALS + 50)]
    cases = [
        (forward[:7] + [(False, -10e9)] + forward[7:],
         r"backward tunneling integral at offset -10000000000\.0 Hz"),
        (backward[:7] + [(True, 10e9)] + backward[7:],
         r"forward tunneling integral at offset 10000000000\.0 Hz"),
        (many + [(False, -12e9)],
         r"backward tunneling integral at offset -12000000000\.0 Hz"),
    ]
    for keys, message in cases:
        integ = PatIntegrator(params.gap_hz, params.gamma_dynes,
                              params.t_s_hz, params.t_n_hz, rel_tol=1e-17)
        with pytest.raises(QuadratureError, match=message) as info:
            integ.integrals(keys)
        assert info.value.achieved_rel_err > 1e-17
        assert len(integ) == 0
    assert info.value.index >= BLOCK_INTEGRALS     # the last case's block


def test_forward_p_detailed_balance(params, integrator):
    t = params.t_n_hz
    e = 4e9
    ratio = forward_p(integrator, e) / forward_p(integrator, -e)
    assert ratio == pytest.approx(math.exp(e / t), rel=1e-7)


def test_elastic_weight_normalization():
    # m = 0: just the Franck-Condon factor exp(-rho_c).
    assert elastic_weight(0, 5e-5) == pytest.approx(math.exp(-5e-5), rel=1e-12)
    assert elastic_weight(3, 5e-5) > 0.0


def test_charge_rates_fock_level_independence(params, integrator):
    # The Fock-level weight cancels in gain/loss ratios.
    g0, l0 = charge_transition_rates(params, integrator, q=1, m=0)
    g3, l3 = charge_transition_rates(params, integrator, q=1, m=3)
    assert g0 / l0 == pytest.approx(g3 / l3, rel=1e-12)


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


def test_distribution_symmetric_and_normalized(params):
    pq = charge_distribution(params.replace(temp_n=0.2, temp_s=0.2))
    for q, p in pq.items():
        assert p == pq.p(-q)
    assert sum(pq.probs) == pytest.approx(1.0, abs=1e-12)


def test_pumped_distribution_differs_at_low_temperature():
    cold = SystemParams(temp_n=0.01, temp_s=0.01)
    eq = charge_distribution(cold)
    pumped = charge_distribution(cold, pumped=True)
    # Equilibrium freezes the island to q = 0; the subgap floor at the
    # operating bias keeps pumping it, so the pumped spread is far larger.
    assert eq.p(0) > 0.999
    assert pumped.p(0) < 0.9
    assert pumped.p(1) > 100.0 * eq.p(1)
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


def test_adaptive_gk_budget_exhaustion_raises():
    # An undeclared inverse-sqrt singularity cannot reach 1e-14 on a
    # four-panel budget; the error carries the achieved accuracy.
    with pytest.raises(QuadratureError) as info:
        adaptive_gk(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                    breakpoints=(0.0, 1.0), rel_tol=1e-14, panel_budget=4)
    assert info.value.achieved_rel_err > 1e-14
