"""Acceptance criteria for the tunneling-refrigerated Kerr oscillator.

Each test checks one headline capability end to end at its stated tolerance
and prints a single summary line (visible even under captured output).
Pinned expectations marked "regression" were produced by this code base;
physics expectations trace to the closed forms in kpoqcr.oracles.
"""
import math
import os
import time

import numpy as np
import pytest

from kpoqcr import (DEFAULT_TRANSITIONS, PatIntegrator, Schedule,
                    assemble_generator, bitflip_sweep, charge_distribution,
                    dynamics_run, evolve, hermiticity_residual, initial_state,
                    pat_integral, rate_table, rates_sweep, steady_state,
                    steady_sweep, trace_residual, transition_rate)
from kpoqcr.oracles import (branch_element_fock, dephasing_bitflip_ratio,
                            displaced_excited_fock, flat_dos_forward,
                            normalized_spectrum, photonloss_bitflip_ratio,
                            threshold_voltages)
from kpoqcr.spectrum import build_fock_operators

from conftest import backward_stack

THREADS = min(4, os.cpu_count() or 1)


def _emit(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {number}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_acceptance_1_thresholds_and_cooling_onset(params, spectrum, eta,
                                                   integrator, capsys):
    # Zero-temperature onsets from the gap and the pump-half frequency.
    v2, v1, ve = threshold_voltages(params.gap_hz, params.omega_rf)
    thresholds_ok = (abs(v2 - 34.4e9) <= 0.1e9
                     and abs(v1 - 41.4e9) <= 0.1e9
                     and abs(ve - 55.4e9) <= 0.1e9)

    # At 10 mK the phi2 -> phi1 cooling rate switches on across the
    # one-photon threshold.
    cold = params.replace(temp_n=0.01, temp_s=0.01)
    integ_cold = PatIntegrator.from_params(cold)
    pq_cold = charge_distribution(cold, integ_cold)
    [below] = transition_rate(cold.replace(bias_v=v1 - 2e9), spectrum, eta,
                              pq_cold, integ_cold, [(1, 1, 2, 2)])
    [above] = transition_rate(cold.replace(bias_v=v1 + 2e9), spectrum, eta,
                              pq_cold, integ_cold, [(1, 1, 2, 2)])
    jump = above / below
    jump_ok = jump >= 10.0

    # Full default sweep inside the stated time budget.
    start = time.perf_counter()
    res = rates_sweep(cold, "voltage", np.linspace(0.0, 60e9, 121),
                      transitions=DEFAULT_TRANSITIONS, threads=THREADS)
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0
    assert res.data.shape == (121, 6)

    ok = thresholds_ok and jump_ok and time_ok
    _emit(capsys, 1, ok,
          f"thresholds ({v2 / 1e9:.2f}, {v1 / 1e9:.2f}, {ve / 1e9:.2f}) GHz "
          f"vs (34.4, 41.4, 55.4) +/- 0.1; onset jump {jump:.1f}x "
          f"(>= 10x) across {v1 / 1e9:.2f} +/- 2 GHz at 10 mK; "
          f"121-point sweep {elapsed:.1f} s (< 300 s)")
    assert thresholds_ok, (v2, v1, ve)
    assert jump_ok, jump
    assert time_ok, elapsed


def test_acceptance_2_cooling_rate_tunability(params, capsys):
    # 100 mK: the junction bias tunes the dominant cooling rate over more
    # than four orders of magnitude.
    res = rates_sweep(params, "voltage", np.linspace(0.0, 60e9, 13),
                      transitions=((1, 1, 2, 2), (0, 0, 3, 3)),
                      threads=THREADS)
    dominant = res.data.max(axis=1)
    span = float(dominant.max() / dominant.min())
    ok = span > 1e4
    _emit(capsys, 2, ok,
          f"dominant cooling rate spans {span:.3e} (> 1e4) over "
          f"eV/h in [0, 60] GHz at 100 mK")
    assert ok, span


def test_acceptance_3_cooling_hierarchy_and_flatness(params, capsys):
    # At the operating bias the cooling rate beats heating by >= 100x for
    # every cat size in [1.5, 2.4], staying flat to within a factor 3.
    alphas = np.linspace(1.5, 2.4, 7)
    res = rates_sweep(params, "alpha", alphas,
                      transitions=((1, 1, 2, 2), (2, 2, 1, 1)),
                      threads=THREADS)
    cooling, heating = res.data[:, 0], res.data[:, 1]
    hierarchy = float(np.min(cooling / heating))
    flatness = float(cooling.max() / cooling.min())
    ok = hierarchy >= 100.0 and flatness <= 3.0
    _emit(capsys, 3, ok,
          f"min cooling/heating {hierarchy:.1f} (>= 100); cooling varies "
          f"{flatness:.2f}x (<= 3x) over alpha in [1.5, 2.4] at 45 GHz")
    assert hierarchy >= 100.0, hierarchy
    assert flatness <= 3.0, flatness


def test_acceptance_4_steady_state_qubit_population(params, capsys):
    # kappa = 2 gamma_p = 2 pi x 1.6 kHz intrinsic floor (defaults).
    assert params.gamma_p == 0.8e3 and params.kappa == 1.6e3
    voltages = np.linspace(0.0, 59e9, 60)
    start = time.perf_counter()
    res = steady_sweep(params, voltages, threads=THREADS)
    elapsed = time.perf_counter() - start
    p01 = res.data[:, 2]
    best = float(p01.max())
    low = p01[voltages <= 15e9]
    low_ok = bool(np.all(np.abs(low - 0.30) <= 0.07))
    best_ok = best >= 0.93 - 0.02
    time_ok = elapsed < 600.0
    ok = best_ok and low_ok and time_ok
    _emit(capsys, 4, ok,
          f"best qubit population {best:.4f} at "
          f"{voltages[int(np.argmax(p01))] / 1e9:.0f} GHz (>= 0.91); "
          f"below 15 GHz population stays 0.30 +/- 0.07 "
          f"(range {low.min():.4f}..{low.max():.4f}); "
          f"60-point sweep {elapsed:.1f} s (< 600 s)")
    assert best_ok, best
    assert low_ok, (low.min(), low.max())
    assert time_ok, elapsed


def test_acceptance_5_bitflip_suppression(params, capsys):
    # Destructive interference of the degenerate-pair amplitudes kills the
    # branch-flip rate; the residual falls as exp(-4 alpha^2).
    biased = params.replace(bias_v=40e9)
    alphas = np.array([1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4])
    res = bitflip_sweep(biased, alphas, threads=THREADS)
    on = res.data[:, 0]
    ratio_alpha2 = float(res.data[alphas == 2.0, 2][0])
    ratio_ok = ratio_alpha2 <= 1e-6
    a2 = alphas**2
    slope = float(np.polyfit(a2, np.log(on / a2), 1)[0])
    slope_ok = abs(slope - (-4.0)) <= 0.4
    ok = ratio_ok and slope_ok
    _emit(capsys, 5, ok,
          f"interference suppresses the branch flip by "
          f"{ratio_alpha2:.3e} (<= 1e-6) at alpha = 2, 40 GHz; "
          f"ln(rate/alpha^2) slope vs alpha^2 is {slope:.3f} (-4 +/- 0.4)")
    assert ratio_ok, ratio_alpha2
    assert slope_ok, slope


def test_acceptance_6_idle_junction_floors(params, spectrum, eta, pq, capsys):
    # With the bias off the junction barely disturbs the qubit manifold.
    idle = rate_table(params.replace(bias_v=0.0), spectrum, eta=eta, pq=pq)
    n = idle.core2.shape[0]
    heat0 = sum(idle.g1_diag(mu, 0) for mu in range(2, n))
    heat1 = sum(idle.g1_diag(mu, 1) for mu in range(2, n))
    phase = idle.g1_diag(0, 1) + idle.g1_diag(1, 0)
    heat_ok = heat0 < 10.0 and heat1 < 10.0
    phase_ok = phase < 1e3
    ok = heat_ok and phase_ok
    _emit(capsys, 6, ok,
          f"V = 0, 100 mK: leakage out of the cat manifold "
          f"{heat0:.2f} / {heat1:.2f} 1/s (< 10); phase flip "
          f"{phase:.1f} 1/s (< 1e3)")
    assert heat_ok, (heat0, heat1)
    assert phase_ok, phase


def test_acceptance_7_closed_form_oracles(params, capsys):
    # Intrinsic bit-flip scalars against the quadratic form of the branch
    # matrix elements.
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0, 2.5):
        deph = dephasing_bitflip_ratio(alpha)
        deph_ref = 2.0 * abs(branch_element_fock(alpha, "n")) ** 2
        loss = photonloss_bitflip_ratio(alpha)
        loss_ref = 2.0 * abs(branch_element_fock(alpha, "a")) ** 2
        worst = max(worst, abs(deph - deph_ref) / abs(deph_ref),
                    abs(loss - loss_ref) / abs(loss_ref))
    forms_ok = worst <= 1e-8

    # Deexcitation from the displaced one-photon combination returns the
    # bare loss channel to within 2% at alpha = 2.5.
    spec = normalized_spectrum(2.5)
    psi = displaced_excited_fock(2.5, -1, spec.n_fock)
    a_op = build_fock_operators(spec.n_fock).a
    weight = abs(complex(spec.vectors[:, 0] @ (a_op @ psi))) ** 2
    deex_ok = abs(weight - 1.0) <= 2e-2

    # Adaptive quadrature against the flat-density thermal closed form.
    t = params.t_n_hz
    quad_err = 0.0
    for offset in (-5e9, -1e9, 3e9):
        got = pat_integral(offset, "forward", params.gap_hz, 1e4, t, t,
                           rel_tol=1e-10)
        ref = flat_dos_forward(offset, t)
        quad_err = max(quad_err, abs(got - ref) / abs(ref))
    quad_ok = quad_err <= 1e-4

    ok = forms_ok and deex_ok and quad_ok
    _emit(capsys, 7, ok,
          f"bit-flip closed forms match to {worst:.1e} (<= 1e-8) for "
          f"alpha in 0.5..2.5; deexcitation weight {weight:.4f} "
          f"(1 +/- 0.02); flat-DOS quadrature off by {quad_err:.1e} "
          f"(<= 1e-4)")
    assert forms_ok, worst
    assert deex_ok, weight
    assert quad_ok, quad_err


def test_acceptance_8_structural_invariants(params, spectrum, eta, table45,
                                            capsys):
    # Tensor identities.
    trace_rel = trace_residual(table45)
    herm_rel = hermiticity_residual(table45)
    eta_conj = float(np.max(np.abs(
        backward_stack(spectrum, params.rho_c, params.dm_max)
        - eta[::-1].conj().transpose(0, 2, 1))))
    tensors_ok = trace_rel <= 1e-6 and herm_rel <= 1e-12 and eta_conj <= 1e-12

    # Population dynamics with the junction switched on mid-run: the
    # trajectory stays a density matrix and the qubit population jumps.
    # (Pointwise agreement with any particular published trajectory is not
    # claimed; the switch-on response is.)
    schedule = Schedule(initial="phi0", t_end=1e-4, points=21, t_qcr_on=5e-5)
    run = dynamics_run(params, schedule)
    pre = float(run.qubit[run.times < schedule.t_qcr_on][-1])
    post = float(run.qubit[-1])
    traj_ok = (run.trace_drift < 1e-9 and run.min_eigenvalue > -1e-10
               and run.herm_drift < 1e-10)
    jump_ok = pre < 0.5 and post > 0.85 and post - pre > 0.3

    # Parity is conserved by the intrinsic dephasing channel alone.
    deph_only = assemble_generator(spectrum, params.replace(kappa=0.0), None)
    traj = evolve(initial_state(spectrum, "phi0"), np.linspace(0.0, 1e-4, 5),
                  deph_only)
    odd = spectrum.parity < 0
    parity_leak = float(np.max(traj.populations()[:, odd]))
    parity_ok = parity_leak <= 1e-10

    # Convergence bounds: the steady-state solve certifies its residual.
    gen = assemble_generator(spectrum, params, table45)
    _rho, residual = steady_state(gen)
    steady_ok = residual <= 1e-10 * gen.norm_inf

    ok = tensors_ok and traj_ok and jump_ok and parity_ok and steady_ok
    _emit(capsys, 8, ok,
          f"trace identity {trace_rel:.1e} (<= 1e-6), hermiticity "
          f"{herm_rel:.1e} (<= 1e-12), sideband conjugation {eta_conj:.1e} "
          f"(<= 1e-12); trajectory drift {run.trace_drift:.1e} (< 1e-9), "
          f"positivity {run.min_eigenvalue:.1e}; qubit population "
          f"{pre:.3f} -> {post:.3f} across the switch-on; parity leakage "
          f"{parity_leak:.1e} (<= 1e-10); steady residual within bound")
    assert tensors_ok, (trace_rel, herm_rel, eta_conj)
    assert traj_ok, (run.trace_drift, run.min_eigenvalue, run.herm_drift)
    assert jump_ok, (pre, post)
    assert parity_ok, parity_leak
    assert steady_ok, residual
