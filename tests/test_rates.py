"""Sideband matrix elements and the secular tunneling tensors."""
import gc
import hashlib
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from kpoqcr import (ConfigError, MatchingError, QuadratureError, Spectrum,
                    bitflip_rates, build_fock_operators, diagonalize_kpo,
                    displacement_bands, eta_table, hermiticity_residual,
                    junction, match_sets, qcr_bitflip_rate, rate_table,
                    rates_sweep, trace_residual, transition_rate)
from kpoqcr.junction import PatIntegrator, charge_distribution, pat_integrals
from kpoqcr.rates import PQ_FLOOR, RatePlan, plan_tables

from conftest import backward_stack, numpy_build, stamp


@pytest.fixture(scope="module")
def small_spectrum(small_params):
    return diagonalize_kpo(small_params)


@pytest.fixture(scope="module")
def small_inputs(small_params, small_spectrum):
    eta = eta_table(small_spectrum, small_params.rho_c, small_params.dm_max)
    integ = PatIntegrator.from_params(small_params)
    pq = charge_distribution(small_params, integ)
    return eta, pq, integ


def _displacement_block(n, rho_c):
    """<row| D |col> over the whole (n, n) block, scattered from the
    dm_max = n - 1 bands: entry (row, col) is band row - col, column col."""
    k = np.arange(n)
    bands = displacement_bands(n, rho_c, n - 1)
    return bands[np.subtract.outer(k, k) + n - 1, k]


def test_displacement_matrix_matches_expm():
    rho_c = 0.3
    n_small, n_big = 20, 44
    ops = build_fock_operators(n_big)
    dense = expm(1j * math.sqrt(rho_c) * (ops.a + ops.adag))
    block = _displacement_block(n_small, rho_c)
    assert np.max(np.abs(block - dense[:n_small, :n_small])) < 1e-10


def _displacement_closed_form(n, rho_c, sign):
    """The Laguerre closed form of <row|D|col>, evaluated with scipy.special."""
    k = np.arange(n)
    l = np.abs(np.subtract.outer(k, k))
    mn, mx = np.minimum.outer(k, k), np.maximum.outer(k, k)
    amp = np.exp(-0.5 * rho_c + 0.5 * (gammaln(mn + 1) - gammaln(mx + 1)))
    phase = np.power(1j * sign * math.sqrt(rho_c), l)
    return phase * amp * eval_genlaguerre(mn, l, rho_c)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("rho_c", [0.0, 5e-5, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [8, 60, 100])
def test_displacement_matches_scipy_closed_form(n, rho_c, sign):
    # The backward displacement D(-i sqrt(rho_c)) is the conjugate.
    want = _displacement_closed_form(n, rho_c, sign)
    mat = _displacement_block(n, rho_c)
    if sign == -1:
        mat = mat.conj()
    assert np.max(np.abs(mat - want)) <= 1e-12
    # The rates' bands: every entry of each band, exact zeros outside.
    dm_max = min(4, n - 1)
    bands = displacement_bands(n, rho_c, dm_max)
    if sign == -1:
        bands = bands.conj()
    k = np.arange(n)
    for row, dm in zip(bands, range(-dm_max, dm_max + 1)):
        inside = (k + dm >= 0) & (k + dm < n)
        diff = row[inside] - want[k[inside] + dm, k[inside]]
        assert np.max(np.abs(diff)) <= 1e-12
        assert np.all(row[~inside] == 0.0)


@pytest.mark.parametrize("rho_c", [5e-5, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [60, 100])
def test_displacement_matrix_unitary_on_leading_rows(n, rho_c):
    # Rows far below the cut-off keep their whole displaced support.
    rows = _displacement_block(n, rho_c)[: n // 4]
    assert np.max(np.abs(rows @ rows.conj().T - np.eye(n // 4))) <= 1e-12


def test_displacement_signs_are_conjugates():
    # D(-i sqrt(rho_c)) differs from D(i sqrt(rho_c)) only in the phase
    # (-i)^l = conj(i^l), so the rates take the backward bands as the exact
    # conjugate of the forward ones.  D is symmetric as well:
    # <k+dm| D |k> == <k| D |k+dm> bit for bit.
    fwd = _displacement_closed_form(16, 0.2, +1)
    bwd = _displacement_closed_form(16, 0.2, -1)
    assert np.max(np.abs(bwd - fwd.conj())) == 0.0
    dense = _displacement_block(16, 0.2)
    assert np.max(np.abs(dense - dense.T)) == 0.0


def test_displacement_bands_are_rows_of_the_full_table():
    # Each entry depends on (k, dm, rho_c) alone, which keeps the rates'
    # band-only table bitwise equal to the dense one.
    for n, rho_c in ((12, 0.07), (60, 5e-5), (60, 0.3), (24, 0.0)):
        full = displacement_bands(n, rho_c, n - 1)
        for dm_max in (0, 1, 4):
            bands = displacement_bands(n, rho_c, dm_max)
            want = full[n - 1 - dm_max:n + dm_max]
            assert bands.tobytes() == want.tobytes()


def test_eta_direction_conjugation(params, spectrum, eta):
    # The backward stack b, built on its own from the conjugate bands,
    # must equal conj(f[-dm]).T entry for entry; row dm + dm_max holds
    # sideband dm, so f[::-1] holds -dm.
    n = spectrum.n_keep
    b = backward_stack(spectrum, params.rho_c, params.dm_max)
    assert eta.shape == b.shape == (2 * params.dm_max + 1, n, n)
    diff = np.max(np.abs(b - eta[::-1].conj().transpose(0, 2, 1)))
    assert diff < 1e-12


@pytest.mark.parametrize("change", [{}, {"delta_kpo": 3e6}, {"rho_c": 0.0},
                                    {"rho_c": 0.3}], ids=str)
@pytest.mark.parametrize("alpha", [1.0, 1.3, 2.0, 2.5])
def test_backward_stack_is_the_exact_conjugate(params, change, alpha):
    # The rule the rates rely on: real eigenvectors times bands of phase
    # i^|dm| make every stack entry real or imaginary, so the backward
    # stack, built on its own from the conjugate bands, is the forward
    # stack conjugated, and the plan's backward weights are the products
    # b[d, mu, nu] conj(b[d, mup, nup]) of that backward stack.
    p = params.replace(**change).with_alpha(alpha)
    spec = diagonalize_kpo(p)
    assert np.isrealobj(spec.vectors)
    eta = eta_table(spec, p.rho_c, p.dm_max)
    b = backward_stack(spec, p.rho_c, p.dm_max)
    assert np.array_equal(b, eta.conj())
    # The plan's term rows, rebuilt: slots, then parity-allowed sidebands.
    plan = RatePlan(p, spec, eta)
    class1 = match_sets(spec, p.omega_rf, p.match_tol).class1
    mu, mup, nu, nup = class1.T
    parity, pdm = spec.parity, (-1.0) ** np.arange(-p.dm_max, p.dm_max + 1)
    slot, d = np.nonzero(((parity[mu] * parity[nu])[:, None] == pdm)
                         & ((parity[mup] * parity[nup])[:, None] == pdm))
    mu, mup, nu, nup = class1[slot].T
    assert np.array_equal(plan.entry, np.ravel_multi_index(
        class1[slot].T, (parity.size,) * 4))
    assert np.array_equal(plan.wb, b[d, mu, nu] * b[d, mup, nup].conj())


def test_eta_parity_selection_exact(spectrum, eta):
    # Odd (even) sidebands only connect opposite (equal) parity states.
    pp = np.outer(spectrum.parity, spectrum.parity)
    dm_max = eta.shape[0] // 2
    for dm, mat in zip(range(-dm_max, dm_max + 1), eta):
        forbidden = pp != (-1.0) ** abs(dm)
        if np.any(forbidden):
            assert np.max(np.abs(mat[forbidden])) == 0.0


def test_eta_rejects_oversized_sideband(spectrum):
    with pytest.raises(ValueError, match="dm_max"):
        eta_table(spectrum, 5e-5, spectrum.n_fock)


def _reference_match_sets(spectrum, match_tol):
    """The secular index sets as a plain loop over tuples: class-1 rows
    (mu, mup, nu, nup, de) and class-2 pairs (m, xi).

    The differences are sorted as (d, mu, nu) tuples; a cluster holds every
    difference within match_tol of its first; class-2 pairs are the
    equal-parity pairs inside each run of neighbouring levels closer than
    match_tol, the groups diagonalize_kpo snaps.
    """
    energies, parity = spectrum.energies, spectrum.parity
    n = energies.size
    diffs = sorted((float(energies[mu] - energies[nu]), mu, nu)
                   for mu in range(n) for nu in range(n))
    clusters = []
    current = [diffs[0]]
    for item in diffs[1:]:
        if item[0] - current[0][0] <= match_tol:
            current.append(item)
        else:
            clusters.append(current)
            current = [item]
    clusters.append(current)
    class1 = [(mu, mup, nu, nup, 0.5 * (d1 + d2))
              for cluster in clusters
              for d1, mu, nu in cluster for d2, mup, nup in cluster]
    groups, start = [], 0
    for i in range(1, n + 1):
        if i == n or energies[i - 1] - energies[i] > match_tol:
            groups.append(range(start, i))
            start = i
    class2 = [(m, xi) for grp in groups for m in grp for xi in grp
              if parity[m] == parity[xi]]
    return class1, class2


def test_match_sets_structure(spectrum, params):
    ms = match_sets(spectrum, params.omega_rf, params.match_tol)
    assert ms.class1.shape == (ms.de.size, 4)
    keys = set(map(tuple, ms.class1.tolist()))
    n = spectrum.n_keep
    # Every population pair is matched with itself ...
    for i in range(n):
        for j in range(n):
            assert (i, i, j, j) in keys
    # ... and the degenerate qubit pair interferes.
    assert (0, 1, 1, 0) in keys and (1, 0, 0, 1) in keys
    spread = float(spectrum.energies[0] - spectrum.energies[-1])
    assert spread < params.omega_rf / 2


@pytest.mark.parametrize("changes", [
    {}, {"alpha": 1.3}, {"alpha": 2.5}, {"n_keep": 6},
    {"n_keep": 20, "n_fock": 80}], ids=str)
def test_match_sets_equal_reference_loop(params, changes):
    # The arrays hold the reference loop's rows in its order: indices
    # exactly, de bit for bit.
    changes = dict(changes)
    p = params.with_alpha(changes.pop("alpha", params.alpha))
    spec = diagonalize_kpo(p.replace(**changes))
    ms = match_sets(spec, p.omega_rf, p.match_tol)
    class1, _class2 = _reference_match_sets(spec, p.match_tol)
    assert ms.class1.dtype == np.intp
    assert ms.class1.tolist() == [list(row[:4]) for row in class1]
    assert [x.hex() for x in ms.de.tolist()] == \
        [row[4].hex() for row in class1]


def test_match_sets_cluster_from_first_member(params):
    # Differences -0.6, 0, 0, +0.6 match_tol form a chain of steps within
    # match_tol.  A cluster reaches only match_tol past its first member,
    # so +0.6 starts a second cluster; chaining would make one of all four.
    tol = params.match_tol
    spec = Spectrum(energies=np.array([0.6 * tol, 0.0]), vectors=np.eye(2),
                    parity=np.array([1.0, -1.0]),
                    raw_energies=np.array([0.6 * tol, 0.0]))
    ms = match_sets(spec, params.omega_rf, tol)
    # Cluster one, in sorted (d, mu, nu) order: (1, 0), (0, 0), (1, 1).
    assert ms.class1.tolist() == [
        [1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 0, 1],
        [0, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1],
        [1, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1],
        [0, 0, 1, 1]]
    half = 0.3 * tol
    assert ms.de.tolist() == [-0.6 * tol, -half, -half, -half, 0.0, 0.0,
                              -half, 0.0, 0.0, 0.6 * tol]


def test_match_sets_rejects_wide_spread(spectrum):
    with pytest.raises(MatchingError, match="sideband"):
        match_sets(spectrum, 7e9, 6.9e9)
    with pytest.raises(MatchingError, match="sideband"):
        match_sets(spectrum, 1e8, 1e6)


def test_interference_argument_validated(params):
    with pytest.raises(ConfigError, match="interference"):
        rates_sweep(params, "voltage", np.array([39e9]),
                    interference="maybe")


# The trace cases: defaults, both temperatures 0 K, a cold island, a hot
# lead over a cold island, a bias far below the default, a 3 MHz detuning
# at alpha 1.0 (beta 5 MHz), where the cat pair is split and not snapped,
# and alpha 1.3 (beta 8.45 MHz, with_alpha's value bit for bit).
TRACE_CASES = {"defaults": {}, "0/0K": {"temp_s": 0.0, "temp_n": 0.0},
               "0.1/0K": {"temp_s": 0.1, "temp_n": 0.0},
               "0.2/0.02K": {"temp_s": 0.2, "temp_n": 0.02},
               "20GHz": {"bias_v": 20e9},
               "detuned": {"delta_kpo": 3e6, "beta": 5e6},
               "alpha1.3": {"beta": 8.45e6}}


def _case_inputs(p):
    """(params, spectrum, eta, pq, integrator, full table) at params p."""
    spec = diagonalize_kpo(p)
    eta = eta_table(spec, p.rho_c, p.dm_max)
    integ = PatIntegrator.from_params(p)
    pq = charge_distribution(p, integ)
    return p, spec, eta, pq, integ, rate_table(p, spec, eta=eta, pq=pq,
                                               integrator=integ)


@pytest.fixture(scope="module")
def trace_cases(params):
    """_case_inputs at each of TRACE_CASES, by name."""
    return {name: _case_inputs(params.replace(**changes))
            for name, changes in TRACE_CASES.items()}


# The trace cases, whose tables are pinned bit for bit: the sha256 of
# every gamma1 and core2 entry, taken on the machine whose stamp is
# recorded beside them (conftest.numpy_build).  To rewrite the digests
# after a change that moves a table on purpose, run
#
#     PYTHONPATH=src python tests/test_rates.py
#
# It prints each table digest that moved, old -> new, and how many did
# not; say in the change which tables moved and why.
TABLE_REFERENCE = (Path(__file__).resolve().parent / "reference"
                   / "table_sha256.json")
PINNED_TABLES = tuple(TRACE_CASES)


def _table_digests(table) -> dict:
    return {name: hashlib.sha256(getattr(table, name).tobytes()).hexdigest()
            for name in ("gamma1", "core2")}


@pytest.mark.parametrize("case", PINNED_TABLES)
def test_table_bytes_match_the_pinned_digest(trace_cases, case):
    reference = json.loads(TABLE_REFERENCE.read_text())
    got = _table_digests(trace_cases[case][-1])
    assert got == reference["sha256"][case], (
        f"the {case} table has other bytes: {got}. Pinned on "
        f"{stamp(reference)}; this run has {stamp(numpy_build())}.")


def test_a_second_default_table_reads_the_warm_shared_function(
        params, spectrum, monkeypatch):
    # Tables built without an integrator share the process's F of their
    # junction: a second default table integrates nothing and has the
    # first one's bytes, the pinned ones.
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return pat_integrals(*args, **kwargs)

    monkeypatch.setattr(junction, "pat_integrals", counted)
    first = rate_table(params, spectrum)
    assert len(runs) == 2
    second = rate_table(params, spectrum)
    assert len(runs) == 2
    pinned = json.loads(TABLE_REFERENCE.read_text())["sha256"]["defaults"]
    assert _table_digests(first) == _table_digests(second) == pinned


def _stored(integrator) -> dict:
    return {k: [a.tobytes() for a in panels]
            for k, panels in integrator._store.items()}


def test_a_failed_build_leaves_the_shared_function_alone(params, spectrum,
                                                         monkeypatch):
    # Node integrals at 1e-17 stall the quadrature of F's missing panels:
    # the table fails and the shared F keeps exactly the panels the charge
    # distribution built, and the next table has the pinned bytes.
    shared = junction.shared_integrator(params)
    pq = charge_distribution(params)
    before = _stored(shared)
    monkeypatch.setattr(junction, "_NODE_TOL", 1e-7)
    with pytest.raises(QuadratureError):
        rate_table(params, spectrum, pq=pq)
    assert _stored(shared) == before
    monkeypatch.undo()
    pinned = json.loads(TABLE_REFERENCE.read_text())["sha256"]["defaults"]
    assert _table_digests(rate_table(params, spectrum)) == pinned
    assert junction.shared_integrator(params) is shared


def test_shared_functions_are_bounded(small_params):
    # A process keeps the F and G of the last junction only: a table at a
    # second junction drops the first one's.
    alive = []
    for k in range(3):
        p = small_params.replace(temp_n=0.1 + 0.01 * k)
        rate_table(p, diagonalize_kpo(p))
        alive.append(weakref.ref(junction.shared_integrator(p)))
    gc.collect()
    assert [ref() is not None for ref in alive] == [False, False, True]


def test_shared_function_keeps_one_charge_average(small_params):
    # Default tables at one junction and several island charging energies
    # read one shared F, which keeps only the last table's G.
    spectrum = diagonalize_kpo(small_params)
    seen = []
    for e_island in (1.5e9, 2e9, 2.5e9, 3e9):
        p = small_params.replace(e_island=e_island)
        rate_table(p, spectrum)
        shared = junction.shared_integrator(p)
        seen.append(shared)
        ((key, g),) = shared._averaged.items()
        assert key[2] == e_island
    assert all(f is seen[0] for f in seen)


def test_trace_and_hermiticity_identities(small_table, trace_cases):
    # Populations are conserved exactly: core2's diagonal is -1/2 times
    # the conjugate of the very (real) inflow sum that trace_residual
    # forms.  gamma1 is Hermitian to roundoff.
    tables = [small_table] + [case[-1] for case in trace_cases.values()]
    for table in tables:
        assert trace_residual(table) == 0.0
        assert hermiticity_residual(table) <= 1e-12


def test_core2_is_hermitian(table45, small_params, table_0k):
    # core2 is Hermitian over each degenerate pair, exactly: it is summed
    # from gamma1's (sigma, sigma, xi, m) and (sigma, sigma, m, xi)
    # entries, which are exact conjugates added in the same order.
    spec = diagonalize_kpo(small_params.with_alpha(1.3))
    alpha13 = rate_table(small_params.with_alpha(1.3), spec)
    for table in (table45, table_0k[-1], alpha13):
        assert np.any(table.core2 != 0.0)
        assert np.array_equal(table.core2, table.core2.conj().T)


def _sideband_parity(dm):
    return 1.0 if dm % 2 == 0 else -1.0


def _anchors(params, de, dm):
    """A term's forward and backward anchors, in the table's association."""
    base = params.e_island + params.omega_rf * dm
    return de + (base - params.bias_v), de + (base + params.bias_v)


def _g_reader(params, pq, integ):
    """Reads the charge-averaged G over the charges kept above PQ_FLOOR:
    a list of offsets in, {offset: value} out."""
    charges = [(q, p) for q, p in pq.items() if p >= PQ_FLOOR]
    averaged = integ.averaged([q for q, _ in charges],
                              [p for _, p in charges], params.e_island)

    def read(offsets):
        offsets = list(dict.fromkeys(offsets))
        return dict(zip(offsets, averaged.evaluate(offsets).tolist()))
    return read


def _sequential_table(params, spectrum, eta, pq, integ, interference="on"):
    """Reference assembly: every term of every gamma1 entry in a plain loop
    over _reference_match_sets' slots, in slot, dm order, added one at a
    time to 0j with numpy scalar arithmetic and the table's anchor
    association.  A term reads the charge-averaged G over the charges kept
    above PQ_FLOOR at its forward and backward anchors.  core2 on each
    class-2 pair (m, xi) is -0.5 * conj(sum_sigma gamma1[sigma, sigma, m,
    xi]), summed over sigma in order."""
    class1, class2 = _reference_match_sets(spectrum, params.match_tol)
    parity = spectrum.parity
    # (dm, f, b) per sideband; row dm + dm_max of each stack holds dm.
    sidebands = list(zip(range(-params.dm_max, params.dm_max + 1), eta,
                         backward_stack(spectrum, params.rho_c,
                                        params.dm_max)))

    terms = []          # (entry, wf, wb, anchor_f, anchor_b)
    for mu, mup, nu, nup, de in class1:
        for dm, f, b in sidebands:
            pdm = _sideband_parity(dm)
            if (parity[mu] * parity[nu] != pdm
                    or parity[mup] * parity[nup] != pdm):
                continue
            wf = f[mu, nu] * f[mup, nup].conjugate()
            wb = b[mu, nu] * b[mup, nup].conjugate()
            terms.append(((mu, mup, nu, nup), wf, wb,
                          *_anchors(params, de, dm)))
    value = _g_reader(params, pq, integ)(
        [x for *_, a_f, a_b in terms for x in (a_f, a_b)])
    acc = {key[:4]: 0j for key in class1}
    for key, wf, wb, a_f, a_b in terms:
        acc[key] += value[a_f] * wf + value[a_b] * wb
    gamma1 = {k: 2.0 * params.r_ratio * v for k, v in acc.items()}
    core2 = {}
    for m, xi in class2:
        total = 0j
        for sigma in range(parity.size):
            total += gamma1.get((sigma, sigma, m, xi), 0j)
        core2[m, xi] = -0.5 * total.conjugate()
    if interference == "off":
        for key in ((0, 1, 1, 0), (1, 0, 0, 1)):
            if key in gamma1:
                gamma1[key] = 0j
    return gamma1, core2


def _class2_loop(params, spectrum, eta, pq, integ):
    """core2 as its own term sum, as the tables once built it: on each
    class-2 pair (m, xi), -r times the sum over dm, then sigma of the
    sideband's parity, of G(a) conj(f[sigma, m]) f[sigma, xi]
    + G(a') conj(b[sigma, m]) b[sigma, xi] at de = E_sigma - E_m."""
    _class1, class2 = _reference_match_sets(spectrum, params.match_tol)
    energies, parity = spectrum.energies, spectrum.parity
    backward = backward_stack(spectrum, params.rho_c, params.dm_max)
    terms = []          # (pair, wf, wb, anchor_f, anchor_b)
    for m, xi in class2:
        for dm, f, b in zip(range(-params.dm_max, params.dm_max + 1), eta,
                            backward):
            target = _sideband_parity(dm) * parity[m]
            for sigma in range(energies.size):
                if parity[sigma] != target:
                    continue
                wf = f[sigma, m].conjugate() * f[sigma, xi]
                wb = b[sigma, m].conjugate() * b[sigma, xi]
                de = float(energies[sigma] - energies[m])
                terms.append(((m, xi), wf, wb, *_anchors(params, de, dm)))
    value = _g_reader(params, pq, integ)(
        [x for *_, a_f, a_b in terms for x in (a_f, a_b)])
    acc = {pair: 0j for pair in class2}
    for pair, wf, wb, a_f, a_b in terms:
        acc[pair] += value[a_f] * wf + value[a_b] * wb
    return {pair: -params.r_ratio * v for pair, v in acc.items()}


def _hex(array):
    return [float(v).hex() for v in np.asarray(array).view(float).ravel()]


def _dense(entries, shape):
    """Scatter {index: value} entries into a zero array."""
    out = np.zeros(shape, complex)
    for key, value in entries.items():
        out[key] = value
    return out


def test_assembly_bitwise_equals_sequential_loop(params, spectrum, eta, pq,
                                                 integrator, table45,
                                                 table45_off, table_0k):
    # The array assembly must reproduce the term-by-term loop bit for bit:
    # the table route of the bit-flip rate relies on interfering entries
    # staying identical, so no tolerance applies.
    cases = [((params, spectrum, eta, pq, integrator), "on", table45),
             ((params, spectrum, eta, pq, integrator), "off", table45_off),
             (table_0k[:5], "on", table_0k[5])]
    for inputs, interference, table in cases:
        gamma1, core2 = _sequential_table(*inputs, interference=interference)
        n = table.core2.shape[0]
        assert _hex(table.gamma1) == _hex(_dense(gamma1, (n, n, n, n)))
        assert _hex(table.core2) == _hex(_dense(core2, (n, n)))


def test_core2_equals_class2_term_loop(params, trace_cases):
    # The GKSL rule K = -1/2 sum_k L_k^dag L_k reproduces core2's own
    # term sum over (dm, sigma) to roundoff, with the same zero pattern.
    cases = list(trace_cases.values()) + [
        _case_inputs(params.replace(n_keep=20, n_fock=80))]
    for *inputs, table in cases:
        n = table.core2.shape[0]
        want = _dense(_class2_loop(*inputs), (n, n))
        assert np.array_equal(table.core2 != 0.0, want != 0.0)
        scale = np.abs(want).max()
        assert np.abs(table.core2 - want).max() <= 2e-15 * scale


def test_eta_table_from_given_bands_is_bitwise(params):
    # The bands read no eigenvector, so a sweep's one set serves every
    # alpha: eta_table from them is bitwise eta_table building its own.
    bands = displacement_bands(params.n_fock, params.rho_c, params.dm_max)
    for alpha in (1.0, 1.3, 2.0):
        spec = diagonalize_kpo(params.with_alpha(alpha))
        own = eta_table(spec, params.rho_c, params.dm_max)
        given = eta_table(spec, params.rho_c, params.dm_max, bands=bands)
        assert own.tobytes() == given.tobytes()


@pytest.mark.parametrize("case", ["defaults", "0/0K"])
def test_masked_plan_keeps_entries_bitwise(trace_cases, case):
    # A plan masked to the population and interference keys: each kept
    # gamma1 entry is the full table's bit for bit, every other entry and
    # all of core2 is +0.0.
    p, spec, eta, pq, integ, full = trace_cases[case]
    n = spec.n_keep
    keys = ([(i, i, j, j) for i in range(n) for j in range(n)]
            + [(0, 1, 1, 0), (1, 0, 0, 1)])
    [table] = plan_tables([(RatePlan(p, spec, eta, keys), [p.bias_v])], pq,
                          integ)
    kept = np.zeros(table.gamma1.shape, bool)
    kept[tuple(np.array(keys).T)] = True
    assert _hex(table.gamma1[kept]) == _hex(full.gamma1[kept])
    for rest in (table.gamma1[~kept], table.core2):
        parts = rest.view(float)
        assert np.all(parts == 0.0) and not np.any(np.signbit(parts))


def test_population_rates_nonnegative(small_table):
    n = small_table.core2.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert small_table.g1_diag(i, j) >= 0.0


def _transition_case(request, case):
    """Inputs and full table: (params, spectrum, eta, pq, integrator, table)."""
    if case == "45GHz":
        return [request.getfixturevalue(name) for name in
                ("params", "spectrum", "eta", "pq", "integrator", "table45")]
    if case == "0K":
        return request.getfixturevalue("table_0k")
    params = request.getfixturevalue("params")
    p = {"39GHz": params.replace(bias_v=39e9),
         "10mK": params.replace(temp_n=0.01, temp_s=0.01),
         "n_keep6": request.getfixturevalue("small_params")}[case]
    return _case_inputs(p)


@pytest.mark.parametrize("case", ["45GHz", "39GHz", "0K", "10mK", "n_keep6"])
def test_transition_rate_bitwise_equals_table(request, case):
    # transition_rate assembles only its keys' terms, with the table's own
    # code, so every value is the table entry bit for bit: each population
    # rate, both interference entries, and an unmatched key (exactly 0.0).
    # A fresh integrator makes its batch differ from the table's.
    p, spec, eta, pq, _integ, table = _transition_case(request, case)
    n = spec.n_keep
    unmatched = (0, 0, 0, n - 2)
    matched = set(map(tuple, match_sets(spec, p.omega_rf,
                                        p.match_tol).class1.tolist()))
    assert unmatched not in matched
    keys = ([(i, i, j, j) for i in range(n) for j in range(n)]
            + [(0, 1, 1, 0), (1, 0, 0, 1), unmatched])
    got = transition_rate(p, spec, eta, pq, PatIntegrator.from_params(p),
                          keys)
    assert [x.hex() for x in got] == \
        [float(table.gamma1[key].real).hex() for key in keys]
    assert table.gamma1[0, 1, 1, 0] != 0j and got[-1] == 0.0


def test_interference_off_zeroes_cross_terms(params, spectrum, eta, pq,
                                             integrator, table45,
                                             table45_off):
    on, off = table45, table45_off
    assert on.gamma1[(0, 1, 1, 0)] != 0j
    assert off.gamma1[(0, 1, 1, 0)] == 0j
    assert off.gamma1[(1, 0, 0, 1)] == 0j
    # Populations are untouched by the switch.
    n = on.core2.shape[0]
    for i in range(n):
        for j in range(n):
            assert on.g1_diag(i, j) == off.g1_diag(i, j)
    # Without the interference entries nothing cancels: the table route
    # gives bitflip_rates' rate_off to roundoff.
    rate_off = bitflip_rates(params, spectrum, eta, pq, integrator)[1]
    assert qcr_bitflip_rate(off) == pytest.approx(rate_off, rel=1e-12)


def test_bitflip_rate_against_signed_sum(small_params, small_spectrum,
                                         small_inputs, small_table):
    eta, pq, integ = small_inputs
    got = qcr_bitflip_rate(small_table)
    want = bitflip_rates(small_params, small_spectrum, eta, pq, integ)[0]
    floor = 1e-11 * np.abs(small_table.core2).max()
    assert abs(got - want) <= max(1e-8 * abs(want), floor)
    assert got > 0.0


class _PerturbedIntegrator:
    """Forward integrals times (1 + scale * u), u uniform in [-1, 1] drawn
    per distinct offset; records the size of every batch.  Its charge
    averages, which rate tables read, are perturbed the same way."""

    def __init__(self, integrator, scale, seed):
        self.integrator = integrator
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.batches = []

    def averaged(self, *charges):
        return _PerturbedIntegrator(self.integrator.averaged(*charges),
                                    self.scale, self.rng)

    def evaluate(self, offsets):
        offsets = np.asarray(offsets, float)
        self.batches.append(offsets.size)
        distinct, inverse = np.unique(offsets, return_inverse=True)
        u = self.rng.uniform(-1.0, 1.0, distinct.size)
        values = self.integrator.evaluate(distinct) * (1.0 + self.scale * u)
        return values[inverse].reshape(offsets.shape)


def test_bitflip_rates_one_batch_and_well_conditioned(params, spectrum, eta,
                                                      pq, integrator,
                                                      table45):
    # Both rates read one batch: the qubit block's offsets, one per sideband,
    # charge and direction.  As sums of positive terms they move no more
    # than the integrals do, while the table route cancels entries about
    # 6e9 times larger than rate_on and moves far more.
    kept = sum(p >= PQ_FLOOR for _q, p in pq.items())
    exact = _PerturbedIntegrator(integrator, 0.0, 7)
    on, off = bitflip_rates(params, spectrum, eta, pq, exact)
    assert exact.batches == [2 * (2 * params.dm_max + 1) * kept]
    assert (on, off) == bitflip_rates(params, spectrum, eta, pq, integrator)
    # The table route is quantized at the roundoff of its entries of about
    # 1.8e9, steps of about 6e-8, so a single draw may leave it unmoved; the
    # largest move over a fixed set of draws shows the ill-conditioning.
    table_moves = []
    for seed in range(7, 12):
        shaken = _PerturbedIntegrator(integrator, 1e-12, seed)
        on_p, off_p = bitflip_rates(params, spectrum, eta, pq, shaken)
        assert abs(on_p - on) <= 1e-11 * on
        assert abs(off_p - off) <= 1e-11 * off
        table = rate_table(params, spectrum, eta=eta, pq=pq,
                           integrator=_PerturbedIntegrator(integrator, 1e-12,
                                                           seed))
        table_moves.append(
            abs(qcr_bitflip_rate(table) - qcr_bitflip_rate(table45)))
    assert max(table_moves) > 1e-9 * on


def test_charge_floor_constant():
    assert PQ_FLOOR == 1e-12


def test_full_table_identities(table45, trace_cases):
    for name, case in trace_cases.items():
        table = case[-1]
        assert trace_residual(table) == 0.0, name
        assert hermiticity_residual(table) <= 1e-12, name
        # core2 is exactly Hermitian with no -0.0 anywhere.
        assert np.array_equal(table.core2, table.core2.conj().T), name
        parts = table.core2.view(float)
        assert not np.any(np.signbit(parts[parts == 0.0])), name
    # Cooling dominates heating at the default operating point.
    assert table45.g1_diag(1, 2) > 100.0 * table45.g1_diag(2, 1)


if __name__ == "__main__":
    from kpoqcr import SystemParams
    old = json.loads(TABLE_REFERENCE.read_text())["sha256"]
    new = {case: _table_digests(_case_inputs(SystemParams().replace(
        **TRACE_CASES[case]))[-1]) for case in PINNED_TABLES}
    digests = [(case, name) for case in PINNED_TABLES for name in new[case]]
    moved = [(case, name) for case, name in digests
             if old.get(case, {}).get(name) != new[case][name]]
    for case, name in moved:
        print(f"moved: {case} {name}\n  {old.get(case, {}).get(name)} -> "
              f"{new[case][name]}")
    print(f"{len(moved)} of {len(digests)} digests moved; the other "
          f"{len(digests) - len(moved)} did not.")
    TABLE_REFERENCE.write_text(json.dumps({**numpy_build(), "sha256": new},
                                          indent=1) + "\n")
