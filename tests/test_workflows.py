"""Sweep drivers and run configurations; includes pinned regression values."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpoqcr import (ConfigError, DEFAULT_TRANSITIONS, HusimiConfig, Schedule,
                    assemble_generator, bitflip_sweep, diagonalize_kpo,
                    dynamics_run, husimi_run, pq_run, qcr_bitflip_rate,
                    rate_table, rates_sweep, steady_sweep, trace_residual)
from kpoqcr import junction, rates, workflows
from kpoqcr.junction import PatIntegrator, charge_distribution
from kpoqcr.rates import transition_rate
from kpoqcr.workflows import parse_transition_label, transition_label

from conftest import held_integrals

# Pinned outputs of the default-parameter pipeline.  These are regression
# anchors for this exact configuration, not externally derived numbers.
RATES_39GHZ = (94584.088971985839, 111805.53227243433, 348.11509517001872,
               412.8745551112641, 527193.80946466385, 526491.69764646725)
STEADY_P01 = {45e9: 0.91671400051455787, 47e9: 0.92870274966344302}
BITFLIP_ALPHA2 = (0.29403841495513916, 1305760.2915405035,
                  2.2518560019024621e-07)


def test_transition_labels_round_trip():
    key = (0, 1, 2, 3)
    assert parse_transition_label(transition_label(key)) == key
    with pytest.raises(ConfigError, match="bad transition label"):
        parse_transition_label("g1_0_1_2")
    with pytest.raises(ConfigError, match="bad transition label"):
        parse_transition_label("gamma_0_1_2_3")


def test_default_transitions_cover_qubit_channels():
    assert (1, 1, 2, 2) in DEFAULT_TRANSITIONS   # one-photon cooling
    assert (2, 2, 1, 1) in DEFAULT_TRANSITIONS   # one-photon heating
    assert (0, 0, 1, 1) in DEFAULT_TRANSITIONS   # intra-qubit flip


# The default transitions plus the two interference entries.
WITH_INTERFERENCE = DEFAULT_TRANSITIONS + ((0, 1, 1, 0), (1, 0, 0, 1))


def _refuse_table(*args, **kwargs):
    raise AssertionError("a rate table was built")


class _Counting:
    """Passes evaluate through to an integrator and counts the calls; its
    charge averages are counted the same way, in averages."""

    def __init__(self, integrator):
        self.integrator = integrator
        self.calls = 0
        self.averages = []

    def averaged(self, *charges):
        self.averages.append(_Counting(self.integrator.averaged(*charges)))
        return self.averages[-1]

    def evaluate(self, offsets):
        self.calls += 1
        return self.integrator.evaluate(offsets)

    def prepare(self, blocks):
        self.calls += 1
        self.integrator.prepare(blocks)


def _counted_sweep_integrators(monkeypatch):
    """Makes every sweep's integrator a cold _Counting one, returned with
    the F call count at the end of its sweep's charge distribution."""
    built, after_pq = [], []

    def counted(p):
        built.append(_Counting(PatIntegrator.from_params(p)))
        return built[-1]

    def distribution(p, counting):
        pq = charge_distribution(p, counting)
        after_pq.append(counting.calls)
        return pq

    monkeypatch.setattr(workflows, "shared_integrator", counted)
    monkeypatch.setattr(workflows, "charge_distribution", distribution)
    monkeypatch.setattr(workflows, "rate_table", _refuse_table)
    return built, after_pq


@pytest.mark.parametrize("temp_k", [None, 0.01])
def test_rates_sweep_reads_g_once_and_bitwise(params, spectrum, eta, temp_k,
                                              monkeypatch):
    # A voltage rates sweep reads all of its points' anchors in one evaluate
    # call on the charge average of its integrator, reads F no more after
    # the charge distribution, builds no table, and every rate is bitwise
    # what transition_rate gives on its own with a fresh integrator.
    p = params if temp_k is None else params.replace(temp_n=temp_k,
                                                     temp_s=temp_k)
    volts = [0.0, 39e9, 60e9]
    pq = charge_distribution(p)
    for transitions in (DEFAULT_TRANSITIONS, WITH_INTERFERENCE):
        built, after_pq = _counted_sweep_integrators(monkeypatch)
        got = rates_sweep(p, "voltage", volts, transitions=transitions).data
        [counting] = built
        assert counting.calls == after_pq[0]
        assert [g.calls for g in counting.averages] == [1]
        monkeypatch.undo()
        for v, row in zip(volts, got):
            want = transition_rate(p.replace(bias_v=v), spectrum, eta, pq,
                                   PatIntegrator.from_params(p), transitions)
            assert [x.hex() for x in row] == [x.hex() for x in want]


def test_steady_sweep_tables_are_bitwise_single_bias_tables(
        params, spectrum, monkeypatch):
    # The tables of a voltage sweep come from one batched read of G over
    # every point's anchors.  A value depends only on its own offset, never
    # on its batch, so each table is bitwise rate_table at that bias with a
    # fresh integrator: same gamma1, same core2, exactly Hermitian, same
    # trace residual.
    tables = []

    def recording(spectrum, params, table):
        tables.append(table)
        return assemble_generator(spectrum, params, table)

    volts = [45e9, 33e9, 47e9]
    built, _after_pq = _counted_sweep_integrators(monkeypatch)
    monkeypatch.setattr(workflows, "assemble_generator", recording)
    steady_sweep(params, volts)
    monkeypatch.undo()
    assert [g.calls for g in built[0].averages] == [1]
    assert [t.bias_v for t in tables] == volts
    for v, batched in zip(volts, tables):
        alone = rate_table(params.replace(bias_v=v), spectrum,
                           integrator=PatIntegrator.from_params(params))
        assert _hex(batched.gamma1) == _hex(alone.gamma1)
        assert _hex(batched.core2) == _hex(alone.core2)
        assert np.array_equal(batched.core2, batched.core2.conj().T)
        assert trace_residual(batched).hex() == trace_residual(alone).hex()


def _hex(array):
    return [float(x).hex() for x in np.asarray(array).view(float).ravel()]


@pytest.mark.parametrize("axis, values", [
    ("voltage", [0.0, 21e9, 39e9, 45e9, 60e9]),
    ("alpha", [1.0, 1.6, 2.0, 2.5, 1.3])])
def test_sweeps_read_g_in_blocks_bitwise(params, monkeypatch, axis, values):
    # In blocks of one point, a sweep builds G's panels for every point in
    # its one build round first, and each row is bitwise the one-block row.
    want = rates_sweep(params, axis, values).data
    junction._shared.cache_clear()
    built, _after_pq = _counted_sweep_integrators(monkeypatch)
    monkeypatch.setattr(rates, "_BLOCK_ANCHORS", 1)
    builds = []
    build = junction.ChargeAveraged._build
    monkeypatch.setattr(junction.ChargeAveraged, "_build",
                        lambda self, keys: builds.append(keys)
                        or build(self, keys))
    got = rates_sweep(params, axis, values).data
    assert len(builds) == 1
    assert [g.calls for g in built[0].averages] == [1 + len(values)]
    assert _hex(got) == _hex(want)


_SWEEP_PEAK = """
import resource, sys
import numpy as np
from kpoqcr import SystemParams, junction, steady_sweep
counts = {"pat_integrals": 0, "g_rounds": 0}
def counted(fn, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper
junction.pat_integrals = counted(junction.pat_integrals, "pat_integrals")
junction.ChargeAveraged._integrals = counted(
    junction.ChargeAveraged._integrals, "g_rounds")
steady_sweep(SystemParams(), np.linspace(30e9, 55e9, int(sys.argv[1])))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
      counts["pat_integrals"], counts["g_rounds"])
"""


def test_long_voltage_sweep_memory_is_flat():
    # G is read in blocks of points after one build round, so a fresh
    # 481-point steady sweep peaks within 3 MiB of a 26-point one (it grew
    # by about 0.08 MiB a point when G was read at every anchor at once),
    # with the same node quadratures and G rounds.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(points):
        out = subprocess.run([sys.executable, "-c", _SWEEP_PEAK, str(points)],
                             env=env, capture_output=True, text=True,
                             timeout=300, check=True).stdout.split()
        return float(out[0]), out[1:]

    (short, short_counts), (long, long_counts) = run(26), run(481)
    assert long - short <= 3.0
    assert long_counts == short_counts == ["2", "1"]


def test_rates_sweep_pinned_row(params):
    res = rates_sweep(params, "voltage", np.array([39e9]))
    assert res.axis == "voltage"
    assert res.columns == [transition_label(k) for k in DEFAULT_TRANSITIONS]
    assert res.data.shape == (1, 6)
    for got, want in zip(res.data[0], RATES_39GHZ):
        assert got == pytest.approx(want, rel=1e-6)


def test_rates_sweep_interference_off_diagonal_bitwise(params, monkeypatch):
    # The switch never touches a population entry, so those agree bit for
    # bit either way; off reports the interference entries as zero.  No
    # point builds a table.  With only g1_0_1_1_0 reported, off masks the
    # plan down to no class-1 row at all.
    monkeypatch.setattr(workflows, "rate_table", _refuse_table)
    volts = np.array([39e9, 45e9])
    n_pop = len(DEFAULT_TRANSITIONS)
    for transitions, k in ((DEFAULT_TRANSITIONS, n_pop),
                           (WITH_INTERFERENCE, n_pop), (((0, 1, 1, 0),), 0)):
        on = rates_sweep(params, "voltage", volts,
                         transitions=transitions).data
        off = rates_sweep(params, "voltage", volts,
                          transitions=transitions, interference="off").data
        assert on[:, :k].tobytes() == off[:, :k].tobytes()
        assert np.all(on[:, k:] != 0.0) and np.all(off[:, k:] == 0.0)


def test_rates_sweep_threads_agree(params):
    values = np.linspace(40e9, 44e9, 3)
    serial = rates_sweep(params, "voltage", values, threads=1)
    parallel = rates_sweep(params, "voltage", values, threads=3)
    assert np.array_equal(serial.data, parallel.data)


def _rates_voltage_sweep(params, values, threads):
    return rates_sweep(params, "voltage", values, threads=threads)


def _rates_alpha_sweep(params, values, threads):
    return rates_sweep(params, "alpha", values, interference="off",
                       threads=threads)


@pytest.mark.parametrize("sweep, values", [
    (steady_sweep, [45e9, 47e9, 33e9]),
    (bitflip_sweep, [1.3, 2.0]),
    (_rates_voltage_sweep, [39e9, 45e9, 20e9]),
    (_rates_alpha_sweep, [1.3, 2.0]),
], ids=["steady", "bitflip", "rates", "rates_alpha"])
def test_sweep_threads_agree_bitwise(params, sweep, values):
    serial = sweep(params, np.array(values), threads=1)
    parallel = sweep(params, np.array(values), threads=2)
    assert serial.data.tobytes() == parallel.data.tobytes()


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the sweep points were checked")


def test_sweep_points_are_checked_before_any_work(params, monkeypatch):
    monkeypatch.setattr(workflows, "diagonalize_kpo", _no_work)
    monkeypatch.setattr(workflows, "charge_distribution", _no_work)
    with pytest.raises(ConfigError, match="bias_v must be non-negative"):
        steady_sweep(params, np.array([45e9, -1e9]))
    with pytest.raises(ConfigError, match="alpha must be positive"):
        bitflip_sweep(params, np.array([2.0, -1.0]))
    with pytest.raises(ConfigError, match="alpha must be positive"):
        rates_sweep(params, "alpha", np.array([1.0, 0.0]))


def test_empty_sweep_axis_fails_before_any_work(params, monkeypatch):
    monkeypatch.setattr(workflows, "diagonalize_kpo", _no_work)
    monkeypatch.setattr(workflows, "charge_distribution", _no_work)
    for sweep in (lambda v: rates_sweep(params, "voltage", v),
                  lambda v: rates_sweep(params, "alpha", v),
                  lambda v: steady_sweep(params, v),
                  lambda v: bitflip_sweep(params, v)):
        with pytest.raises(ConfigError,
                           match="sweep points must be a positive integer"):
            sweep(np.array([]))


def test_sweeps_compute_the_charge_distribution_once(params, monkeypatch):
    # The distribution is taken at zero bias and does not read the pump, so
    # it is the same at every point of a bias or an alpha sweep, bit for
    # bit; each sweep computes it once and hands it to its points.
    for bias in (0.0, 33e9, 47e9):
        assert charge_distribution(params.replace(bias_v=bias)) \
            == charge_distribution(params)
    for alpha in (1.0, 1.7, 2.5):
        assert charge_distribution(params.with_alpha(alpha)) \
            == charge_distribution(params)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return charge_distribution(*args, **kwargs)

    monkeypatch.setattr(workflows, "charge_distribution", counted)
    monkeypatch.setattr(rates, "charge_distribution", counted)
    volts = np.array([45e9, 33e9, 47e9])
    steady_sweep(params, volts)
    assert calls == [params]
    rates_sweep(params, "voltage", volts)
    assert calls == [params] * 2
    alphas = np.array([1.7, 2.5])
    rates_sweep(params, "alpha", alphas)
    assert calls == [params] * 3
    bitflip_sweep(params, alphas)
    assert calls == [params] * 4


def test_sweeps_share_one_integrator(params, monkeypatch):
    # The sweeps of one process at one junction share one tunneling
    # function F: the first sweep builds it for its charge distribution and
    # every point, and later sweeps, at any bias or alpha, read the same F.
    # The rate points of the steady and rates sweeps read one charge
    # average G of it, and the bit-flip points read F.  Another junction
    # gets an F of its own.  threads is checked but has no effect.
    built = []
    averages = []

    class Recorded(PatIntegrator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    class RecordedAverage(junction.ChargeAveraged):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            averages.append(self)

    monkeypatch.setattr(junction, "PatIntegrator", Recorded)
    monkeypatch.setattr(junction, "ChargeAveraged", RecordedAverage)
    volts = np.array([45e9, 33e9])
    alphas = np.array([1.7, 2.5])
    for run, n_averages in (
            (lambda t: bitflip_sweep(params, alphas, threads=t), 0),
            (lambda t: steady_sweep(params, volts, threads=t), 1),
            (lambda t: rates_sweep(params, "voltage", volts, threads=t), 1),
            (lambda t: rates_sweep(params, "alpha", alphas, threads=t), 1)):
        run(3)
        assert len(built) == 1 and held_integrals(built[0]) > 0
        assert len(averages) == n_averages
        assert all(held_integrals(g) > 0 and g._source is built[0]
                   for g in averages)
        with pytest.raises(ConfigError, match="threads must be at least 1"):
            run(0)
    steady_sweep(params.replace(temp_n=0.05), volts)
    assert len(built) == 2 and len(averages) == 2
    assert averages[1]._source is built[1]


def test_rates_sweep_alpha_axis(params):
    res = rates_sweep(params, "alpha", np.array([1.5]),
                      transitions=((1, 1, 2, 2), (2, 2, 1, 1)))
    assert res.data.shape == (1, 2)
    assert res.data[0, 0] > res.data[0, 1] > 0.0


def test_rates_sweep_validates_inputs(params):
    with pytest.raises(ConfigError, match="axis"):
        rates_sweep(params, "temperature", np.array([1.0]))
    with pytest.raises(ConfigError, match="outside the retained space"):
        rates_sweep(params, "voltage", np.array([39e9]),
                    transitions=((0, 0, 99, 99),))


def test_steady_sweep_pinned_points(params):
    voltages = np.array(sorted(STEADY_P01))
    res = steady_sweep(params, voltages)
    assert res.columns == ["pop_phi0", "pop_phi1", "pop_qubit", "residual"]
    for row, v in zip(res.data, voltages):
        p0, p1, p01, residual = row
        assert p01 == pytest.approx(STEADY_P01[float(v)], rel=1e-6)
        assert p0 + p1 == pytest.approx(p01, rel=1e-12)
        assert residual < 1e-4
    # Branch symmetry of the stationary state.
    assert res.data[0, 0] == pytest.approx(res.data[0, 1], rel=1e-2)


def test_bitflip_sweep_pinned_alpha2(params):
    res = bitflip_sweep(params, np.array([2.0]))
    assert res.columns == ["rate_interference", "rate_no_interference", "ratio"]
    on, off, ratio = res.data[0]
    assert on == pytest.approx(BITFLIP_ALPHA2[0], rel=1e-6)
    assert off == pytest.approx(BITFLIP_ALPHA2[1], rel=1e-6)
    assert ratio == pytest.approx(BITFLIP_ALPHA2[2], rel=1e-6)
    assert ratio == pytest.approx(on / off, rel=1e-12)


def test_bitflip_sweep_builds_no_table(params, monkeypatch):
    monkeypatch.setattr(workflows, "rate_table", _refuse_table)
    on, off, ratio = bitflip_sweep(params, np.array([1.5])).data[0]
    assert 0.0 < on < off and ratio == on / off


@pytest.mark.parametrize("change", [{"match_tol": 1e-12},
                                    {"delta_kpo": 3e6}])
def test_bitflip_split_pair_has_no_interference(params, change):
    # A cat pair split by more than match_tol (roundoff against a tiny
    # match_tol, or a 3 MHz detuning) is not snapped: the table matches no
    # interference entry, so both rates are its bit-flip rate.
    p = params.replace(**change)
    on, off, ratio = bitflip_sweep(p, np.array([1.0])).data[0]
    assert on == off and ratio == 1.0
    p = p.with_alpha(1.0)
    spectrum = diagonalize_kpo(p)
    assert spectrum.energies[0] != spectrum.energies[1]
    table = qcr_bitflip_rate(rate_table(p, spectrum))
    assert off == pytest.approx(table, rel=1e-12)


@pytest.mark.parametrize("change", [{}, {"delta_kpo": 3e6}],
                         ids=["defaults", "detuned"])
def test_alpha_sweeps_read_once_and_match_one_point_sweeps(params, change,
                                                           monkeypatch):
    # An alpha sweep builds its sideband bands once and reads F (bitflip)
    # or G (rates) in one evaluate call for all of its points, and every
    # row is bitwise the row of a one-point sweep: with interference on
    # and off, with a repeated alpha, and at alpha 1.0, where the detuned
    # pair is unsnapped and bitflip reads three channel values.
    p = params.replace(**change)
    unsnapped = diagonalize_kpo(p.with_alpha(1.0)).energies[:2]
    assert (unsnapped[0] != unsnapped[1]) == bool(change)
    alphas = [1.0, 2.0, 1.3, 2.0]
    sweeps = [lambda a: bitflip_sweep(p, a)] + [
        lambda a, i=i: rates_sweep(p, "alpha", a, WITH_INTERFERENCE, i)
        for i in ("on", "off")]
    build_bands = rates.displacement_bands
    for sweep in sweeps:
        alone = [sweep(np.array([a])).data for a in alphas]
        bands = []

        def counted(*args):
            bands.append(args)
            return build_bands(*args)

        built, after_pq = _counted_sweep_integrators(monkeypatch)
        monkeypatch.setattr(workflows, "displacement_bands", counted)
        monkeypatch.setattr(rates, "displacement_bands", counted)
        whole = sweep(np.array(alphas)).data
        monkeypatch.undo()
        [counting] = built
        assert bands == [(p.n_fock, p.rho_c, p.dm_max)]
        if counting.averages:
            assert [g.calls for g in counting.averages] == [1]
            assert counting.calls == after_pq[0]
        else:
            assert counting.calls == after_pq[0] + 1
        assert whole.tobytes() == np.concatenate(alone).tobytes()


def test_dynamics_run_converges_to_steady(params):
    schedule = Schedule(initial="phi3", t_end=1e-4, points=11, t_qcr_on=5e-5)
    res = dynamics_run(params, schedule)
    assert res.times.shape == (11,)
    assert res.populations.shape == (11, params.n_keep)
    assert res.qcr_active[0] == 0.0 and res.qcr_active[-1] == 1.0
    # Starts in phi3, ends at the tunneling-refrigerated stationary state.
    assert res.populations[0, 3] == 1.0
    assert res.qubit[-1] == pytest.approx(STEADY_P01[45e9], abs=1e-6)
    assert res.trace_drift < 1e-9
    assert res.min_eigenvalue > -1e-10
    rows = list(res.rows())
    assert len(rows) == 11 and len(rows[0]) == 1 + params.n_keep + 3


def test_qcr_active_marks_the_rows_the_junction_drives(params):
    # A switch-on time one ulp either side of the grid time 5e-5 s is that
    # grid time: the state evolves under the junction from row 2 on, and
    # qcr_active turns to 1 at that row, not one row early or late.
    t_grid = np.linspace(0.0, 1e-4, 5)
    off = dynamics_run(params, Schedule(t_end=1e-4, points=5, t_qcr_on=1.0))
    for t_on in (np.nextafter(t_grid[2], 0.0), np.nextafter(t_grid[2], 1.0)):
        res = dynamics_run(params, Schedule(t_end=1e-4, points=5,
                                            t_qcr_on=float(t_on)))
        assert res.qcr_active.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert res.populations[:3].tobytes() == off.populations[:3].tobytes()
        assert np.max(np.abs(res.populations[3] - off.populations[3])) > 1e-3


def test_schedule_from_dict_validation():
    sched = Schedule.from_dict({"initial": "phi1", "t_end": 2e-4,
                                "points": 5, "t_qcr_on": 1e-4})
    assert sched.initial == "phi1" and sched.points == 5
    with pytest.raises(ConfigError, match="t_end"):
        Schedule.from_dict({"t_end": 0.0})
    with pytest.raises(ConfigError, match="points"):
        Schedule.from_dict({"points": 1})
    with pytest.raises(ConfigError):
        Schedule.from_dict({"unknown_knob": 1})
    # Not OverflowError from int(inf), nor ValueError from int(nan).
    for raw in ({"points": float("inf")}, {"points": float("nan")},
                {"t_end": float("nan")}, {"t_qcr_on": float("-inf")}):
        with pytest.raises(ConfigError, match="finite"):
            Schedule.from_dict(raw)


def test_husimi_config_validation():
    cfg = HusimiConfig.from_dict({"source": "evolve", "time": 1e-5,
                                  "initial": "phi_alpha", "qcr": "off"})
    assert cfg.source == "evolve" and cfg.qcr == "off"
    with pytest.raises(ConfigError, match="source"):
        HusimiConfig.from_dict({"source": "guess"})
    with pytest.raises(ConfigError, match="positive extent"):
        HusimiConfig.from_dict({"re_min": 1.0, "re_max": -1.0})
    with pytest.raises(ConfigError, match="time"):
        HusimiConfig.from_dict({"source": "evolve", "time": -1.0})


def test_husimi_run_steady_two_lobes(params):
    cfg = HusimiConfig(points=41)
    res = husimi_run(params, cfg)
    assert res.q.shape == (41, 41)
    assert res.norm == pytest.approx(1.0, abs=5e-3)
    assert res.meta["source"] == "steady" and "residual" in res.meta
    # Stationary cat: peaks near +/- alpha on the real axis.
    mid = 20  # im = 0 row
    line = res.q[mid]
    ix = int(np.argmax(line))
    assert abs(abs(res.re_axis[ix]) - params.alpha) < 0.25
    flipped = line[::-1]
    assert np.max(np.abs(line - flipped)) < 5e-3  # symmetric lobes


def test_husimi_run_evolve_initial_state(params):
    cfg = HusimiConfig(source="evolve", time=0.0, initial="phi_minus_alpha",
                       qcr="off", points=33)
    res = husimi_run(params, cfg)
    iy, ix = np.unravel_index(int(np.argmax(res.q)), res.q.shape)
    assert res.re_axis[ix] == pytest.approx(-params.alpha, abs=0.3)
    assert res.meta["qcr"] == "off" and res.meta["initial"] == "phi_minus_alpha"


def test_pq_run_equilibrium_and_pumped(params):
    eq = pq_run(params)
    assert eq.meta == {"pumped": "no"}
    assert eq.axis == "q" and eq.columns == ["p"]
    probs = eq.data[:, 0]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(eq.values, np.arange(-7, 8))
    assert np.array_equal(probs, probs[::-1])
    pumped = pq_run(params, pumped=True)
    assert pumped.meta == {"pumped": "yes"}
    # At 100 mK and 45 GHz the at-bias evaluation is sharper, not broader.
    assert pumped.data[7, 0] > probs[7]


def test_sweep_result_rows(params):
    res = pq_run(params)
    rows = list(res.rows())
    assert len(rows) == 15
    assert rows[7][0] == 0.0 and rows[7][1] == max(r[1] for r in rows)


def test_perfbench_tracer_installs():
    # The tracer wraps kpoqcr functions by looking them up by name, so a
    # deleted or renamed one breaks `perfbench/run.py --trace 1`.  It
    # patches module globals for good, hence a fresh interpreter.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    result = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Tracer())"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
