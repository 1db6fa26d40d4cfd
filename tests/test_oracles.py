"""Closed-form helpers and the self-check suite."""
import math

import numpy as np
import pytest

from kpoqcr import SystemParams, run_oracle_suite
from kpoqcr.oracles import (branch_element_fock, branch_vector,
                            cat_normalizations, dephasing_bitflip_ratio,
                            displaced_excited_fock, eigen_unit,
                            flat_dos_forward, lindblad_transition_factor,
                            normalized_spectrum, photonloss_bitflip_ratio,
                            threshold_voltages)

ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5)


def test_cat_normalizations():
    n_p, n_m = cat_normalizations(1.0)
    u = math.exp(-2.0)
    assert n_p == pytest.approx(1.0 / math.sqrt(2 + 2 * u), rel=1e-15)
    assert n_m == pytest.approx(1.0 / math.sqrt(2 - 2 * u), rel=1e-15)


def _branch_annihilation_element(alpha):
    """<phi_-alpha| a |phi_alpha> for exact cat branches, closed form."""
    u = math.exp(-2.0 * alpha * alpha)
    return alpha * u / math.sqrt(1.0 - u * u)


def _branch_number_element(alpha):
    """<phi_-alpha| a^dag a |phi_alpha> for exact cat branches, closed
    form."""
    u = math.exp(-2.0 * alpha * alpha)
    return -2.0 * alpha * alpha * u / (1.0 - u * u)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_branch_elements_match_fock_vectors(alpha):
    assert _branch_annihilation_element(alpha) == pytest.approx(
        complex(branch_element_fock(alpha, "a")).real, rel=1e-10)
    assert _branch_number_element(alpha) == pytest.approx(
        complex(branch_element_fock(alpha, "n")).real, rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_intrinsic_bitflip_closed_forms(alpha):
    # The printed combinations against the quadratic form of the branch
    # matrix elements.
    assert dephasing_bitflip_ratio(alpha) == pytest.approx(
        2.0 * abs(branch_element_fock(alpha, "n")) ** 2, rel=1e-8)
    assert photonloss_bitflip_ratio(alpha) == pytest.approx(
        2.0 * abs(branch_element_fock(alpha, "a")) ** 2, rel=1e-8)


def test_photonloss_ratio_asymptote():
    # Large-alpha law 2 alpha^2 exp(-4 alpha^2).
    alpha = 2.5
    assert photonloss_bitflip_ratio(alpha) == pytest.approx(
        2.0 * alpha**2 * math.exp(-4.0 * alpha**2), rel=1e-10)


def test_displaced_excited_fock_parity_and_norm():
    for parity in (+1, -1):
        psi = displaced_excited_fock(2.0, parity)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        zeroed = psi[1::2] if parity == 1 else psi[0::2]
        assert np.all(zeroed == 0.0)


def test_deexcitation_matrix_element_near_unity():
    # The displaced one-photon combination annihilates onto the even cat
    # with unit weight in the large-alpha limit; alpha = 2.5 is within 2%.
    spec = normalized_spectrum(2.5)
    psi3 = displaced_excited_fock(2.5, -1, spec.n_fock)
    from kpoqcr import build_fock_operators
    a = build_fock_operators(spec.n_fock).a
    el = complex(spec.vectors[:, 0] @ (a @ psi3))
    assert abs(el) ** 2 == pytest.approx(1.0, abs=2e-2)


def test_eigenstate_deexcitation_converges_algebraically():
    # Against true eigenstates the approach is ~1/alpha^2: monotone in
    # alpha and still ~10% away at alpha = 2.5.
    vals = []
    for alpha in (1.5, 2.0, 2.5):
        spec = normalized_spectrum(alpha)
        vals.append(0.5 * lindblad_transition_factor(
            spec, "a", eigen_unit(spec, 3), eigen_unit(spec, 0)))
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] == pytest.approx(1.0, abs=0.12)


def test_branch_vector_and_eigen_unit():
    spec = normalized_spectrum(1.5, n_keep=6)
    v = branch_vector(spec, +1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    e2 = eigen_unit(spec, 2)
    assert e2[2] == 1.0 and np.count_nonzero(e2) == 1


def test_flat_dos_forward_limits():
    t = 2e9
    assert flat_dos_forward(0.0, t) == pytest.approx(t, rel=1e-9)
    assert flat_dos_forward(-5e9, 0.0) == 5e9
    assert flat_dos_forward(5e9, 0.0) == 0.0
    assert flat_dos_forward(1e13, t) == 0.0
    # Detailed balance of the closed form itself.
    e = 3e9
    ratio = flat_dos_forward(e, t) / flat_dos_forward(-e, t)
    assert ratio == pytest.approx(math.exp(-e / t), rel=1e-12)


def test_threshold_voltages_formula(params):
    lo, mid, hi = threshold_voltages(params.gap_hz, params.omega_rf)
    assert mid - lo == pytest.approx(params.omega_rf)
    assert hi - mid == pytest.approx(2.0 * params.omega_rf)


def test_suite_all_pass(params):
    reports = run_oracle_suite(params)
    assert len(reports) == 22
    for report in reports:
        assert report.passed, report.line()
    kinds = {r.kind for r in reports}
    assert kinds == {"closed-form", "cross-check", "published"}
    names = [r.name for r in reports]
    assert len(names) == len(set(names))


def test_suite_accepts_modified_parameters():
    # The suite re-derives its references from the supplied parameters.
    reports = run_oracle_suite(SystemParams(r_tunnel=60e3, temp_n=0.12,
                                            temp_s=0.12))
    fails = [r.name for r in reports if not r.passed]
    # Published thresholds depend only on gap and omega_rf, untouched here.
    assert not fails
