"""Master-equation generator, propagation, steady state and Husimi maps."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kpoqcr import (EvolveError, SteadyStateError, SystemParams,
                    assemble_generator, diagonalize_kpo,
                    evolve, husimi_q, initial_state, rate_table,
                    steady_state)
from kpoqcr import TWO_PI, build_fock_operators, dynamics
from kpoqcr.dynamics import Generator, liouvillian
from kpoqcr.spectrum import Spectrum, coherent_state
from kpoqcr.workflows import Schedule, dynamics_run


@pytest.fixture(scope="module")
def gen_on(spectrum, params, table45):
    return assemble_generator(spectrum, params, table45)


@pytest.fixture(scope="module")
def gen_off(spectrum, params):
    return assemble_generator(spectrum, params, None)


def _random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _rel_frobenius(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _trace_defect(gen):
    """Norm of trace composed with the generator; zero for a valid L."""
    n = gen.n
    rows = gen.total.reshape(n, n, n * n)[np.arange(n), np.arange(n)]
    return float(np.max(np.abs(rows.sum(axis=0))))


def _density_metrics(rho):
    """Trace error, hermiticity and least eigenvalue of a density matrix."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return float(abs(np.trace(rho) - 1.0)), herm, float(eigs[0])


@pytest.mark.parametrize("qcr", ["off", "on"])
def test_expm_matches_scipy_on_readme_generators(qcr, gen_off, gen_on):
    # The step of the README dynamics run: --t-end 1e-4 --points 201.
    mat = (gen_on if qcr == "on" else gen_off).total * (1e-4 / 200)
    assert _rel_frobenius(dynamics.expm(mat), expm(mat)) <= 1e-12


@pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3])
def test_expm_matches_scipy_on_random_matrices(norm):
    # Above a 1-norm of 5.37 the Pade step runs on a scaled matrix and is
    # squared back up.
    rng = np.random.default_rng(20261018)
    mat = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    mat *= norm / np.max(np.sum(np.abs(mat), axis=0))
    assert _rel_frobenius(dynamics.expm(mat), expm(mat)) <= 1e-12


def test_expm_of_zero_matrix():
    zero = np.zeros((6, 6), dtype=complex)
    assert _rel_frobenius(dynamics.expm(zero), expm(zero)) <= 1e-12
    assert _rel_frobenius(dynamics.expm(zero), np.eye(6)) <= 1e-15


def _expression_expm(mat):
    """dynamics.expm with its Pade sums written as one expression each and
    b1, b0 times an identity matrix, as it was before the sums were built
    in place; also returns the number of squarings."""
    b = dynamics._PADE13
    norm = float(np.max(np.sum(np.abs(mat), axis=0), initial=0.0))
    s = (math.ceil(math.log2(norm / dynamics._THETA13))
         if norm > dynamics._THETA13 else 0)
    a1 = mat / 2.0 ** s
    a2 = a1 @ a1
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(mat.shape[0], dtype=a1.dtype)
    u = a1 @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
              + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        result = result @ result
    return result, s


@pytest.mark.parametrize("dt", [5e-7, 1e-4, 1e-9])
@pytest.mark.parametrize("sector", [0, 1])
@pytest.mark.parametrize("qcr", ["off", "on"])
def test_expm_bitwise_equals_expression_form(qcr, sector, dt, gen_off,
                                              gen_on):
    # The README generators' real parity-sector blocks, as evolve steps
    # them, at the dynamics step (5e-7 s), the husimi --time 1e-4 step,
    # and a step short enough for no scaling.
    gen = gen_on if qcr == "on" else gen_off
    mat = dynamics._real_block(gen, gen.sectors[sector]) * dt
    want, squarings = _expression_expm(mat)
    assert (squarings == 0) == (dt == 1e-9)
    assert dynamics.expm(mat).tobytes() == want.tobytes()


def _jump(op):
    """O (x) O* as an (n, n, n, n) jump tensor."""
    return op[:, None, :, None] * op.conj()[None, :, None, :]


def test_dissipator_superop_matches_definition(rng):
    n = 5
    op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sup = liouvillian(2.0 * _jump(op), -(op.conj().T @ op))
    rho = _random_density(rng, n)
    got = (sup @ rho.reshape(n * n)).reshape(n, n)
    anti = op.conj().T @ op @ rho + rho @ op.conj().T @ op
    want = 2.0 * op @ rho @ op.conj().T - anti
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert abs(np.trace(got)) < 1e-12 * np.max(np.abs(want))


def test_coherent_superop_is_commutator(rng):
    energies = np.array([3.0, 1.0, -2.0])
    sup = liouvillian(0.0, np.diag(-2j * math.pi * energies))
    rho = _random_density(rng, 3)
    got = (sup @ rho.reshape(9)).reshape(3, 3)
    h = np.diag(energies)
    want = -2j * math.pi * (h @ rho - rho @ h)
    assert np.max(np.abs(got - want)) < 1e-12


def test_lindblad_rates_scale(spectrum, params):
    # Doubling kappa doubles the photon-loss part; dephasing likewise.  The
    # coherent part is imaginary and the intrinsic channels are real, so
    # the real part of the generator is the dissipator alone.
    def dissipator(kappa, gamma_p):
        return assemble_generator(
            spectrum, params.replace(kappa=kappa, gamma_p=gamma_p)).total.real

    d1 = dissipator(1.0, 0.0)
    d2 = dissipator(2.0, 0.0)
    assert np.allclose(d2, 2.0 * d1, atol=1e-12 * np.max(np.abs(d1)))
    p1 = dissipator(0.0, 1.0)
    p2 = dissipator(0.0, 3.0)
    assert np.allclose(p2, 3.0 * p1, atol=1e-12 * np.max(np.abs(p1)))


def _generator_loop(spectrum, params, table):
    """Reference: each entry of L built one scalar at a time.  K sums
    -2 pi i E, the loss and dephasing terms -r O^dag O, then core2; an
    entry sums the jump terms 2 r O (x) O* of loss and dephasing, then
    gamma1, then K from the left, then K^dag from the right."""
    n = spectrum.n_keep
    ops = build_fock_operators(spectrum.n_fock)
    channels = []
    for rate, fock_op in ((0.5 * TWO_PI * params.kappa, ops.a),
                          (TWO_PI * params.gamma_p, ops.num)):
        op = spectrum.project(fock_op)
        channels.append((rate, op.tolist(), (op.conj().T @ op).tolist()))
    energies = spectrum.energies.tolist()
    k = [[0j] * n for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            val = (-1j * TWO_PI) * complex(energies[mu]) if mu == nu else 0j
            for rate, _, oho in channels:
                val -= complex(rate * oho[mu][nu])
            if table is not None:
                val += complex(table.core2[mu, nu])
            k[mu][nu] = val
    gamma1 = None if table is None else table.gamma1.tolist()
    sup = np.empty((n * n, n * n), dtype=complex)
    for mu, mup, nu, nup in np.ndindex(n, n, n, n):
        val = 0.0
        for rate, op, _ in channels:
            val += 2.0 * rate * op[mu][nu] * op[mup][nup].conjugate()
        val = complex(val)
        if gamma1 is not None:
            val += gamma1[mu][mup][nu][nup]
        if mup == nup:
            val += k[mu][nu]
        if mu == nu:
            val += k[mup][nup].conjugate()
        sup[mu * n + mup, nu * n + nup] = val
    return sup


def test_generator_bitwise_equals_entry_loop(params, spectrum, table45,
                                             table45_off, table_0k):
    p0, spec0, table0 = table_0k[0], table_0k[1], table_0k[-1]
    for prm, spec, table in ((params, spectrum, None),
                             (params, spectrum, table45),
                             (params, spectrum, table45_off),
                             (p0, spec0, None), (p0, spec0, table0)):
        got = assemble_generator(spec, prm, table).total
        assert got.tobytes() == _generator_loop(spec, prm, table).tobytes()


def test_generator_conserves_trace(gen_on, gen_off, table45):
    # Defects scale with the tunneling-rate magnitudes (~1e6 1/s here), so
    # these absolute bounds are ~1e-11 in relative terms.
    assert _trace_defect(gen_on) < 1e-5
    assert _trace_defect(gen_off) < 1e-6
    assert gen_on.norm_inf > gen_off.norm_inf > 0.0
    # The tunneling part alone is trace-free as well.
    n = table45.core2.shape[0]
    sup = liouvillian(table45.gamma1, table45.core2)
    row = sup.reshape(n, n, n * n)[np.arange(n), np.arange(n)].sum(axis=0)
    scale = np.max(np.abs(sup))
    assert np.max(np.abs(row)) < 1e-12 * scale


@settings(max_examples=6, deadline=None)
@given(alpha=st.floats(0.8, 2.5), bias_v=st.floats(0.0, 60e9),
       temp_n=st.floats(0.03, 0.2), temp_s=st.floats(0.03, 0.2),
       rho_c=st.floats(1e-5, 2e-4), n_keep=st.integers(4, 14))
def test_generator_never_couples_parity_sectors(alpha, bias_v, temp_n,
                                                temp_s, rho_c, n_keep):
    params = SystemParams(bias_v=bias_v, temp_n=temp_n, temp_s=temp_s,
                          rho_c=rho_c, n_keep=n_keep).with_alpha(alpha)
    spectrum = diagonalize_kpo(params)
    relative = np.outer(spectrum.parity, spectrum.parity).ravel()
    plus, minus = relative > 0, relative < 0
    for table in (None, rate_table(params, spectrum)):
        gen = assemble_generator(spectrum, params, table)
        # Every entry between relative parities +1 and -1 is exactly zero.
        assert np.max(np.abs(gen.total[np.ix_(plus, minus)])) == 0.0
        assert np.max(np.abs(gen.total[np.ix_(minus, plus)])) == 0.0
        assert [idx.tolist() for idx in gen.sectors] == [
            np.flatnonzero(plus).tolist(), np.flatnonzero(minus).tolist()]


def test_initial_states(spectrum):
    for name, idx in (("phi0", 0), ("phi3", 3), ("phi11", 11)):
        rho = initial_state(spectrum, name)
        assert rho[idx, idx] == 1.0 and np.trace(rho) == 1.0
    branch = initial_state(spectrum, "phi_alpha")
    assert branch[0, 1] == pytest.approx(0.5)
    anti = initial_state(spectrum, "phi_minus_alpha")
    assert anti[0, 1] == pytest.approx(-0.5)
    with pytest.raises(ValueError, match="outside"):
        initial_state(spectrum, "phi12")
    with pytest.raises(ValueError, match="unknown initial state"):
        initial_state(spectrum, "ground")


def test_evolve_validates_inputs(spectrum, gen_off):
    rho0 = initial_state(spectrum, "phi0")
    with pytest.raises(EvolveError, match="non-decreasing"):
        evolve(rho0, np.array([0.0, 2.0, 1.0]), gen_off)
    with pytest.raises(EvolveError, match="trace"):
        evolve(2.0 * rho0, np.array([0.0, 1e-6]), gen_off)


def test_evolve_rejects_what_has_no_real_form(spectrum, gen_off):
    # A rho0 off hermiticity by more than 1e-12, and a generator whose real
    # block is not real: i L maps Hermitian matrices to anti-Hermitian ones.
    rho0 = initial_state(spectrum, "phi_alpha")
    t_grid = np.array([0.0, 1e-6])
    skewed = rho0.copy()
    skewed[0, 1] += 1e-9
    with pytest.raises(EvolveError, match="not Hermitian"):
        evolve(skewed, t_grid, gen_off)
    turned = Generator(total=1j * gen_off.total, sectors=gen_off.sectors)
    with pytest.raises(EvolveError, match="does not preserve hermiticity"):
        evolve(rho0, t_grid, turned)
    # Below 1e-12 the Hermitian part is propagated.
    skewed[0, 1] = rho0[0, 1] + 1e-13
    near = evolve(skewed, t_grid, gen_off)
    assert near.herm_drift == 0.0
    assert np.max(np.abs(near.states - evolve(rho0, t_grid, gen_off).states)) \
        <= 1e-13


def test_evolve_rejects_rho0_of_another_size(spectrum, params, gen_off):
    # rho0 must be n x n for each generator, also the one switched on later.
    small_params = params.replace(n_keep=4)
    small = assemble_generator(diagonalize_kpo(small_params), small_params)
    rho_big = initial_state(spectrum, "phi0")
    rho_small = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    t_grid = np.array([0.0, 1e-6])
    for rho0, gen, switch in ((rho_big, small, None),
                              (rho_small, gen_off, None),
                              (rho_big, gen_off, (5e-7, small)),
                              (rho_small, small, (5e-7, gen_off))):
        with pytest.raises(EvolveError, match="shape"):
            evolve(rho0, t_grid, gen, switch)


def _toy_generator(rng, n=3, scale=0.1):
    """Slow trace-preserving generator on n levels."""
    energies = scale * np.arange(n, dtype=float) / n
    op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op *= scale / np.linalg.norm(op)
    k = np.diag(-2j * math.pi * energies) - op.conj().T @ op
    return Generator(total=liouvillian(2.0 * _jump(op), k),
                     sectors=(np.arange(n * n),))


def test_evolve_matches_matrix_exponential(spectrum, gen_off):
    rho0 = initial_state(spectrum, "phi_alpha")
    t = 2e-5
    traj = evolve(rho0, np.array([0.0, t]), gen_off)
    n = gen_off.n
    # Reference from the eigendecomposition of L, independent of expm; the
    # eigenvectors of the QCR-off generator are well conditioned.
    lam, vecs = np.linalg.eig(gen_off.total)
    assert np.linalg.cond(vecs) < 10.0
    coef = np.linalg.solve(vecs, rho0.reshape(n * n))
    ref = (vecs @ (np.exp(lam * t) * coef)).reshape(n, n)
    assert np.array_equal(traj.states[0], rho0)
    still = evolve(rho0, np.array([0.0, 0.0]), gen_off)
    assert np.array_equal(still.states, np.stack([rho0, rho0]))
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-10
    assert traj.trace_drift < 1e-9
    assert traj.herm_drift < 1e-11
    assert traj.min_eigenvalue > -1e-10


def test_evolve_toy_generator_small_step_limit(rng):
    # The toy problem is machine accurate in one interval.
    gen = _toy_generator(rng)
    n = gen.n
    rho0 = np.eye(n, dtype=complex) / n
    t = 2.0
    ref = (expm(gen.total * t) @ rho0.reshape(n * n)).reshape(n, n)
    traj = evolve(rho0, np.array([0.0, t]), gen)
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-12


def test_evolve_shares_step_matrices_across_grid_spacings(rng, monkeypatch):
    # The README schedule: uniform-grid spacings differ by a few ulps and
    # the switch-on time lies a rounding error off grid point 100.  One
    # matrix per generator serves the whole run.
    gen_off, gen_on = _toy_generator(rng), _toy_generator(rng)
    built = []

    def counted(mat):
        built.append(mat)
        return expm(mat)

    monkeypatch.setattr(dynamics, "expm", counted)
    t_grid = np.linspace(0.0, 1e-4, 201)
    t_on = 5e-5
    assert len(set(np.diff(t_grid).tolist())) > 2
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = evolve(rho0, t_grid, gen_off, (t_on, gen_on))
    assert len(built) <= 2
    n = gen_on.n
    ref = (expm(gen_on.total * (t_grid[-1] - t_on))
           @ expm(gen_off.total * t_on) @ rho0.reshape(n * n))
    # Switching a grid step early or late would be off by about 1e-9.
    assert np.max(np.abs(traj.states[-1].reshape(n * n) - ref)) < 1e-12


def _real_coordinate_map(n):
    """evolve's unitary W from vec(rho) to real coordinates, entry by
    entry: y[mu n + mu] = rho[mu, mu] and, for mu < nu, y[mu n + nu] =
    sqrt2 Re rho[mu, nu] and y[nu n + mu] = sqrt2 Im rho[mu, nu]."""
    w = np.zeros((n * n, n * n), dtype=complex)
    for mu in range(n):
        w[mu * n + mu, mu * n + mu] = 1.0
        for nu in range(mu + 1, n):
            up, low = mu * n + nu, nu * n + mu
            w[up, up] = w[up, low] = 1.0 / math.sqrt(2.0)
            w[low, up], w[low, low] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
    return w


@pytest.mark.parametrize("qcr", ["off", "on"])
def test_real_block_equals_w_l_w_dagger(qcr, gen_off, gen_on):
    # Each parity sector's gathered real block is its block of the dense
    # W L W^dag, whose imaginary part is rounding.
    gen = gen_on if qcr == "on" else gen_off
    w = _real_coordinate_map(gen.n)
    assert np.max(np.abs(w @ w.conj().T - np.eye(gen.n ** 2))) <= 1e-15
    dense = w @ gen.total @ w.conj().T
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense.imag)) <= 1e-15 * scale
    for idx in gen.sectors:
        block = dynamics._real_block(gen, idx)
        assert block.dtype == float and block.shape == (idx.size, idx.size)
        assert (np.max(np.abs(block - dense[np.ix_(idx, idx)]))
                <= 1e-15 * scale)


def test_evolve_states_are_hermitian_by_construction():
    # The README dynamics run: every recorded state's entries below the
    # diagonal are the exact conjugates of their mirrors.
    run = dynamics_run(SystemParams(), Schedule(initial="phi0", t_end=1e-4,
                                                points=201, t_qcr_on=5e-5))
    assert run.herm_drift == 0.0
    assert run.trace_drift < 1e-9 and run.min_eigenvalue > -1e-10


def test_evolve_builds_sector_sized_step_matrices(spectrum, gen_off, gen_on,
                                                 monkeypatch):
    # The README dynamics schedule: one real expm per generator and
    # occupied parity sector, each 72 x 72 at defaults, and each, mapped
    # back through W, the block of the step matrix of the whole generator.
    # phi0 is diagonal, so only the sector holding the diagonal moves;
    # phi_alpha fills both, and the blocks together are the whole step
    # matrix.
    built, own_expm = [], dynamics.expm

    def counted(mat):
        built.append(own_expm(mat))
        return built[-1]

    monkeypatch.setattr(dynamics, "expm", counted)
    t_grid = np.linspace(0.0, 1e-4, 201)
    n2 = spectrum.n_keep ** 2
    w = _real_coordinate_map(spectrum.n_keep)
    for initial, n_sectors in (("phi0", 1), ("phi_alpha", 2)):
        built.clear()
        evolve(initial_state(spectrum, initial), t_grid, gen_off,
               (5e-5, gen_on))
        assert ([(mat.shape, mat.dtype) for mat in built]
                == [((n2 // 2, n2 // 2), float)] * (2 * n_sectors))
        # Each generator's matrices are built for its first interval.
        for gen, blocks, dt in (
                (gen_off, built[:n_sectors], t_grid[1] - t_grid[0]),
                (gen_on, built[n_sectors:], t_grid[101] - t_grid[100])):
            real_step = np.zeros((n2, n2))
            for idx, block in zip(gen.sectors, blocks):
                real_step[np.ix_(idx, idx)] = block
            step = w.conj().T @ real_step @ w
            # The rows and columns of the built sectors: with both, the
            # whole matrix.
            moved = np.ix_(*[np.concatenate(gen.sectors[:n_sectors])] * 2)
            assert _rel_frobenius(step[moved],
                                  expm(gen.total * dt)[moved]) <= 1e-12


def test_evolve_does_not_depend_on_output_grid(spectrum, gen_off, gen_on):
    # The README schedule: the state at 1e-4 s is the same whether it is
    # reached in 200 recorded intervals or in two.
    rho0 = initial_state(spectrum, "phi0")
    switch = (5e-5, gen_on)
    fine = evolve(rho0, np.linspace(0.0, 1e-4, 201), gen_off, switch)
    coarse = evolve(rho0, np.array([0.0, 5e-5, 1e-4]), gen_off, switch)
    assert np.max(np.abs(fine.states[-1] - coarse.states[-1])) <= 1e-11


def test_evolve_is_linear(spectrum, gen_on):
    t_grid = np.array([0.0, 1e-5])
    rho_a = initial_state(spectrum, "phi0")
    rho_b = initial_state(spectrum, "phi3")
    mix = 0.25 * rho_a + 0.75 * rho_b
    fa = evolve(rho_a, t_grid, gen_on).states[-1]
    fb = evolve(rho_b, t_grid, gen_on).states[-1]
    fm = evolve(mix, t_grid, gen_on).states[-1]
    assert np.max(np.abs(fm - 0.25 * fa - 0.75 * fb)) < 1e-12


def test_switch_time_honored(spectrum, gen_off, gen_on):
    # Switched at a grid time and between two grid times.
    rho0 = initial_state(spectrum, "phi0")
    t_grid = np.linspace(0.0, 4e-5, 5)
    plain = evolve(rho0, t_grid, gen_off)
    for t_on in (2e-5, 1.3e-5):
        switched = evolve(rho0, t_grid, gen_off, (t_on, gen_on))
        # Identical before the switch, different after.
        pre = t_grid <= t_on
        assert np.max(np.abs(switched.states[pre] - plain.states[pre])) < 1e-13
        assert np.max(np.abs(switched.states[-1] - plain.states[-1])) > 1e-6
    # The toy problem on the same grid in units of 1e-5 s: an off-grid
    # switch splits its interval at t_on.
    rng = np.random.default_rng(13)
    toy_off, toy_on = _toy_generator(rng), _toy_generator(rng)
    toy_grid = t_grid * 1e5
    rho_toy = np.diag([1.0, 0.0, 0.0]).astype(complex)
    for t_on in (2.0, 1.3):
        traj = evolve(rho_toy, toy_grid, toy_off, (t_on, toy_on))
        ref = (expm(toy_on.total * (toy_grid[-1] - t_on))
               @ expm(toy_off.total * t_on) @ rho_toy.reshape(9))
        assert np.max(np.abs(traj.states[-1].reshape(9) - ref)) < 1e-12


def _whole_stack_checks(states):
    """evolve's trace drift, hermiticity drift and least eigenvalue over
    the whole (nt, n, n) stack at once, as it took them before it took
    them in blocks."""
    traces = np.abs(np.einsum("tii->t", states) - 1.0)
    herms = np.max(np.abs(states - states.conj().transpose(0, 2, 1)),
                   axis=(1, 2))
    eigs = np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1)))
    return float(np.max(traces)), float(np.max(herms)), float(np.min(eigs))


_BLOCK = dynamics._CHECK_STATES


@pytest.mark.parametrize("points", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 201])
def test_blocked_checks_equal_the_whole_stack(spectrum, gen_off, gen_on,
                                              points):
    # One recorded state, a block less one, one block and a block plus
    # one, at the README step with the switch halfway; 201 is the README
    # dynamics run itself (12 blocks and 9 states at 16 a block).
    t_grid = np.linspace(0.0, 1e-4 * (points - 1) / 200, points)
    traj = evolve(initial_state(spectrum, "phi0"), t_grid, gen_off,
                  (t_grid[-1] / 2, gen_on))
    assert traj.states.shape[0] == points
    assert (traj.trace_drift, traj.herm_drift, traj.min_eigenvalue) \
        == _whole_stack_checks(traj.states)


def test_evolve_memory_stays_near_its_states(spectrum, gen_off, gen_on):
    # 2,001 recorded states of the README run (4.6 MB at defaults).  Whole-
    # trajectory checks held about three such arrays at once.
    rho0 = initial_state(spectrum, "phi0")
    t_grid = np.linspace(0.0, 1e-4, 2001)
    tracemalloc.start()
    try:
        traj = evolve(rho0, t_grid, gen_off, (5e-5, gen_on))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traj.states.nbytes


def test_steady_state_is_fixed_point(gen_on):
    rho, residual = steady_state(gen_on)
    trace_error, hermiticity, min_eigenvalue = _density_metrics(rho)
    assert trace_error < 1e-12
    assert hermiticity < 1e-12
    assert min_eigenvalue > -1e-12
    assert residual <= 1e-10 * gen_on.norm_inf
    # Propagating from the fixed point goes nowhere.
    drift = gen_on.total @ rho.reshape(-1)
    assert np.max(np.abs(drift)) <= 1e-9 * gen_on.norm_inf


def test_steady_state_agrees_with_long_evolution(spectrum, gen_on):
    rho_inf, _ = steady_state(gen_on)
    traj = evolve(initial_state(spectrum, "phi0"), np.array([0.0, 1e-4]),
                  gen_on)
    assert np.max(np.abs(traj.states[-1] - rho_inf)) < 1e-5


def test_steady_state_degenerate_kernel_detected(spectrum, params):
    # No dissipation at all: every diagonal state is stationary.
    lonely = assemble_generator(spectrum, params.replace(kappa=0.0,
                                                         gamma_p=0.0), None)
    with pytest.raises(SteadyStateError, match="not unique"):
        steady_state(lonely)


def test_steady_state_zero_sector_is_not_unique():
    # Two levels of opposite parity under photon loss, with the coherence
    # sector zeroed by hand: the population sector has one stationary
    # state, and every coherence is stationary too.
    sigma = np.array([[0.0, 1.0], [0.0, 0.0]])
    loss = liouvillian(2.0 * _jump(sigma), -(sigma.T @ sigma))
    coherences = np.array([1, 2])
    loss[np.ix_(coherences, coherences)] = 0.0
    gen = Generator(total=loss, sectors=(np.array([0, 3]), coherences))
    assert _trace_defect(gen) == 0.0
    with pytest.raises(SteadyStateError, match="not unique"):
        steady_state(gen)


def test_husimi_of_branch_state_peaks_at_alpha(spectrum, params):
    rho = initial_state(spectrum, "phi_alpha")
    re_axis = np.linspace(-4.0, 4.0, 81)
    im_axis = np.linspace(-1.0, 1.0, 21)
    q = husimi_q(rho, spectrum, re_axis, im_axis)
    iy, ix = np.unravel_index(np.argmax(q), q.shape)
    assert abs(re_axis[ix] - params.alpha) < 0.15
    assert abs(im_axis[iy]) < 0.15
    # Coherent-state peak height 1/pi, up to small cat corrections.
    assert q[iy, ix] == pytest.approx(1.0 / math.pi, rel=2e-2)
    assert np.all(q >= 0.0)


def test_husimi_normalization(spectrum):
    rho = initial_state(spectrum, "phi0")
    axis = np.linspace(-4.0, 4.0, 81)
    q = husimi_q(rho, spectrum, axis, axis)
    cell = (axis[1] - axis[0]) ** 2
    assert float(q.sum() * cell) == pytest.approx(1.0, abs=5e-3)


def _direct_husimi(rho, spectrum, re_axis, im_axis):
    """Q from each grid point's Fock amplitudes and rho in the Fock basis."""
    alphas = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    amps = np.array([coherent_state(a, spectrum.n_fock, tol=1.0)
                     for a in alphas])
    rho_f = spectrum.vectors @ rho @ spectrum.vectors.conj().T
    want = np.real(np.einsum("gm,mn,gn->g", amps.conj(), rho_f, amps)) / math.pi
    return want.reshape(im_axis.size, re_axis.size)


def test_husimi_matches_einsum_contraction(spectrum, rng):
    # The README grid, 81 x 81 over +-4, against the direct contraction.
    rho = _random_density(rng, spectrum.n_keep)
    axis = np.linspace(-4.0, 4.0, 81)
    q = husimi_q(rho, spectrum, axis, axis)
    assert np.max(np.abs(q - _direct_husimi(rho, spectrum, axis, axis))) < 1e-14


def test_husimi_needs_no_parity_in_the_eigenvectors(rng):
    # Orthonormal real columns that mix even and odd Fock rows, and an odd
    # n_fock, so the odd rows are one fewer than the even ones.
    n_fock, n_keep = 61, 12
    vectors, _ = np.linalg.qr(rng.normal(size=(n_fock, n_keep)))
    assert np.all(np.abs(vectors[0::2]).sum(axis=0) > 0.1)
    assert np.all(np.abs(vectors[1::2]).sum(axis=0) > 0.1)
    spec = Spectrum(energies=np.zeros(n_keep), vectors=vectors,
                    parity=np.ones(n_keep), raw_energies=np.zeros(n_keep))
    rho = _random_density(rng, n_keep)
    re_axis = np.linspace(-4.0, 4.0, 41)
    im_axis = np.linspace(-3.0, 3.0, 31)
    q = husimi_q(rho, spec, re_axis, im_axis)
    want = _direct_husimi(rho, spec, re_axis, im_axis)
    assert np.max(np.abs(q - want)) < 1e-14
    empty = husimi_q(rho, spec, np.linspace(-1.0, 1.0, 5), np.array([]))
    assert empty.shape == (0, 5)
    one = husimi_q(rho, spec, np.array([0.5]), np.array([-0.25]))
    assert one.shape == (1, 1)
    want = _direct_husimi(rho, spec, np.array([0.5]), np.array([-0.25]))
    assert np.max(np.abs(one - want)) < 1e-14


def _unblocked_husimi(rho, spectrum, re_axis, im_axis):
    """husimi_q with one amplitude recurrence over the whole grid, then the
    same 1,024-point products in plain complex arithmetic."""
    c = np.conjugate((re_axis[None, :] + 1j * im_axis[:, None]).ravel())
    n_even, n_odd = (spectrum.n_fock + 1) // 2, spectrum.n_fock // 2
    e = np.empty((n_even, c.size), complex)
    e[0] = np.exp(-0.5 * np.abs(c) ** 2)
    for m in range(1, n_even):
        e[m] = e[m - 1] * (c * c)
        e[m] *= 1.0 / np.sqrt(2.0 * m * (2.0 * m - 1.0))
    even = spectrum.vectors[0::2].T
    odd = (spectrum.vectors[1::2]
           / np.sqrt(2.0 * np.arange(n_odd) + 1.0)[:, None]).T
    q = np.empty(c.size)
    for start in range(0, c.size, 1024):
        cols = slice(start, start + 1024)
        w = even @ e[:, cols] + c[cols] * (odd @ e[:n_odd, cols])
        q[cols] = (w.conj() * (rho.T @ w)).sum(axis=0).real
    return (q / math.pi).reshape(im_axis.size, re_axis.size)


@pytest.mark.parametrize("points", [1, 32, 33, 81])
def test_husimi_blocks_equal_the_unblocked_build(spectrum, rng, points):
    # 32 x 32 is exactly one block, 33 x 33 one block plus 65 points and
    # 81 x 81 six blocks plus 417 points: each map is the same bytes.
    rho = _random_density(rng, spectrum.n_keep)
    axis = np.linspace(-4.0, 4.0, points)
    q = husimi_q(rho, spectrum, axis, axis)
    assert q.tobytes() == \
        _unblocked_husimi(rho, spectrum, axis, axis).tobytes()


def test_husimi_memory_stays_flat_in_the_grid(spectrum):
    # A 201 x 201 grid with all of its (n_fock/2, points^2) amplitudes held
    # at once (_unblocked_husimi) peaks at about 20 MiB; one block's buffer
    # is under 0.5 MiB.
    rho = initial_state(spectrum, "phi_alpha")
    axis = np.linspace(-4.0, 4.0, 201)
    tracemalloc.start()
    try:
        husimi_q(rho, spectrum, axis, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
