"""Oscillator eigensystem: cat-state structure, parity, conventions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpoqcr import (CatStateError, SpectrumError, SystemParams,
                    build_fock_operators, cat_states, coherent_state,
                    diagonalize_kpo, kpo_hamiltonian)
from kpoqcr.oracles import normalized_spectrum


def test_fock_operators_algebra():
    ops = build_fock_operators(30)
    num = ops.adag @ ops.a
    assert np.allclose(num, ops.num, atol=1e-12)
    comm = ops.a @ ops.adag - ops.adag @ ops.a
    # Canonical commutator away from the truncation corner.
    assert np.allclose(comm[:-1, :-1], np.eye(29), atol=1e-12)
    assert np.allclose(np.diag(ops.parity), (-1.0) ** np.arange(30))


def test_hamiltonian_hermitian_and_parity_blocked(params):
    h = kpo_hamiltonian(params)
    ops = build_fock_operators(params.n_fock)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert np.max(np.abs(h @ ops.parity - ops.parity @ h)) == 0.0


def test_eigensystem_postconditions(spectrum, params):
    n = params.n_keep
    assert spectrum.energies.shape == (n,)
    assert spectrum.vectors.shape == (params.n_fock, n)
    # Descending order, orthonormal columns, alternating parity on top.
    assert np.all(np.diff(spectrum.energies) <= 0.0)
    gram = spectrum.vectors.T @ spectrum.vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12
    assert spectrum.parity[0] == 1.0 and spectrum.parity[1] == -1.0
    assert spectrum.energies[0] == spectrum.energies[1] != spectrum.energies[2]


def test_residual_of_eigenpairs(spectrum, params):
    h = kpo_hamiltonian(params)
    res = h @ spectrum.vectors - spectrum.vectors * spectrum.raw_energies
    assert np.max(np.abs(res)) < 1e-5 * np.max(np.abs(spectrum.raw_energies))


def test_cat_pair_degenerate_after_snapping(spectrum):
    # The cat pair alone shares one snapped energy.
    assert spectrum.energies[0] == spectrum.energies[1] != spectrum.energies[2]


def test_top_eigenvalue_is_cat_value(params, spectrum):
    # Ideal cat states sit at 2 beta^2 / chi exactly; truncation error only.
    target = 2.0 * params.beta**2 / params.chi
    assert spectrum.energies[0] == pytest.approx(target, rel=1e-10)


def test_eigenstates_are_cat_states(params, spectrum):
    cats = cat_states(params.alpha, params.n_fock)
    ov_even = abs(cats.even @ spectrum.vectors[:, 0])
    ov_odd = abs(cats.odd @ spectrum.vectors[:, 1])
    assert ov_even == pytest.approx(1.0, abs=1e-10)
    assert ov_odd == pytest.approx(1.0, abs=1e-10)


def test_sign_convention_largest_amplitude_positive(spectrum):
    for k in range(spectrum.n_keep):
        col = spectrum.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(0.6, 2.7))
def test_cat_eigenvalue_any_alpha(alpha):
    # chi = 2 scaling puts the cat pair at alpha**4 exactly.
    spec = normalized_spectrum(alpha, n_keep=6)
    assert spec.energies[0] == pytest.approx(alpha**4, rel=1e-9, abs=1e-9)
    assert spec.energies[0] == spec.energies[1]
    assert spec.parity[0] * spec.parity[1] == -1.0


def test_splitting_shrinks_with_alpha():
    split = []
    for alpha in (1.0, 1.8, 2.5):
        spec = normalized_spectrum(alpha, n_keep=6)
        split.append(float(spec.energies[2] - spec.energies[3]))
    assert split[0] > split[1] > split[2] > 0.0


def test_truncation_tail_rejected():
    with pytest.raises(SpectrumError, match="truncation"):
        diagonalize_kpo(SystemParams(n_fock=16, n_keep=8))


def test_coherent_state_amplitudes():
    psi = coherent_state(1.3, 50)
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)
    # Recurrence <m|alpha> = alpha/sqrt(m) <m-1|alpha>.
    assert psi[5] == pytest.approx(psi[4] * 1.3 / math.sqrt(5.0), rel=1e-14)
    with pytest.raises(SpectrumError, match="loses norm"):
        coherent_state(4.0, 18)
    # The same truncation passes once the tolerance is loosened.
    coherent_state(4.0, 18, tol=1.0)


def test_cat_states_structure():
    cats = cat_states(2.0, 60)
    for v in (cats.even, cats.odd, cats.plus, cats.minus):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(cats.even[1::2] == 0.0)
    assert np.all(cats.odd[0::2] == 0.0)
    # plus points at +alpha: overlap with the coherent state is near one.
    ov = abs(np.vdot(coherent_state(2.0, 60), cats.plus))
    assert ov == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(CatStateError):
        cat_states(0.0, 40)


def test_project_matches_direct_transform(spectrum, rng):
    op = rng.normal(size=(spectrum.n_fock, spectrum.n_fock))
    direct = spectrum.vectors.T @ op @ spectrum.vectors
    assert np.allclose(spectrum.project(op), direct, atol=1e-12)
