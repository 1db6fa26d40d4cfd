"""Run engines shared by the command-line interface.

The three sweeps (rates, steady, bitflip) run on one engine, _sweep.  It
builds every point's parameters first, so an out-of-range value fails
with a ConfigError before any work, and then what the points share: the
process's tunneling function of the junction (shared_integrator), the
zero-bias charge distribution and the sideband bands of the junction
displacement, which read no eigenvector.  A voltage sweep is one group of
points with one spectrum and sideband table; an alpha sweep is a group a
point, built as its rows read it.  rates and steady rows read G at every
plan's anchors (rates.plan_tables), bitflip rows F at every point's
offsets (rates.BitflipPlan), once for the whole sweep; by PatIntegrator's
bitwise rule every row is bitwise a one-point sweep's.  The points run in
one process: a pool costs more to start than it saves on these sweeps.

dynamics_run, husimi_run and pq_run run the other commands.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import (assemble_generator, evolve, husimi_q, initial_state,
                       steady_state, switch_time)
from .errors import ConfigError
from .junction import charge_distribution, shared_integrator
from .params import SystemParams, config_fields
from .rates import (BitflipPlan, RatePlan, displacement_bands, eta_table,
                    evaluate_each, plan_tables, rate_table)
# perfbench/tracing.py wraps these by name here; no sweep calls them.
from .rates import match_sets, qcr_bitflip_rate  # noqa: F401
from .rates import transition_rate  # noqa: F401
from .spectrum import diagonalize_kpo

# Population rates |j> -> |i> reported by default: the two cooling channels,
# the two heating channels, and the two phase-flip directions.
DEFAULT_TRANSITIONS = (
    (1, 1, 2, 2), (0, 0, 3, 3),
    (2, 2, 1, 1), (3, 3, 0, 0),
    (0, 0, 1, 1), (1, 1, 0, 0),
)

_LABEL_RE = re.compile(r"^g1(_\d+){4}$")


def transition_label(key: tuple[int, int, int, int]) -> str:
    return "g1_" + "_".join(str(k) for k in key)


def parse_transition_label(text: str) -> tuple[int, int, int, int]:
    text = text.strip()
    if not _LABEL_RE.match(text):
        raise ConfigError(
            f"bad transition label {text!r}; expected g1_<mu>_<mup>_<nu>_<nup>")
    parts = text.split("_")[1:]
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


@dataclass
class SweepResult:
    axis: str
    values: np.ndarray
    columns: list[str]
    data: np.ndarray                    # (n_points, n_columns)
    meta: dict = field(default_factory=dict)

    def rows(self) -> np.ndarray:
        return np.column_stack((self.values, self.data)).astype(float)


def _check_transitions(transitions, n_keep: int):
    for key in transitions:
        if len(key) != 4 or any(k < 0 or k >= n_keep for k in key):
            raise ConfigError(
                f"transition {key} outside the retained space of {n_keep} states")


# ---------------------------------------------------------------------------
# Sweeps: one engine, one integrator, one loop


def _sweep(params: SystemParams, axis: str, values, rows, columns,
           threads: int, meta: dict) -> SweepResult:
    # Every point's parameters first, so a bad value fails before any work.
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    values = np.asarray(values, float)
    if values.size == 0:
        raise ConfigError("sweep points must be a positive integer")
    if axis == "voltage":
        points = [params.replace(bias_v=float(v)) for v in values]
    else:
        points = [params.with_alpha(float(a)) for a in values]
    bands = displacement_bands(params.n_fock, params.rho_c, params.dm_max)

    def group(members, p):
        spectrum = diagonalize_kpo(p)
        return members, spectrum, eta_table(spectrum, p.rho_c, p.dm_max,
                                            bands)

    # One group for the voltage axis; one a point, built as rows reads
    # it, for the alpha axis.
    groups = ([group(points, params)] if axis == "voltage"
              else (group([p], p) for p in points))
    integrator = shared_integrator(params)
    pq = charge_distribution(params, integrator)
    return SweepResult(axis=axis, values=values, columns=columns,
                       data=np.array(rows(groups, pq, integrator), float),
                       meta=meta)


def _rates_rows(groups, pq, integrator, transitions, interference):
    # One plan a group masked to the reported keys, one read of G for all
    # points; interference "off" reports the degenerate-pair entries as
    # zero.
    keys = [key for key in transitions if interference == "on"
            or key not in ((0, 1, 1, 0), (1, 0, 0, 1))]
    tables = plan_tables(((RatePlan(points[0], spectrum, eta, keys),
                           [p.bias_v for p in points])
                          for points, spectrum, eta in groups),
                         pq, integrator)
    return [[float(table.gamma1[key].real) if key in keys else 0.0
             for key in transitions] for table in tables]


def rates_sweep(
    params: SystemParams,
    axis: str,
    values,
    transitions=DEFAULT_TRANSITIONS,
    interference: str = "on",
    threads: int = 1,
) -> SweepResult:
    """Population and interference rates, 1/s, per bias or alpha value;
    threads is checked as the --threads flag is (see its help)."""
    if interference not in ("on", "off"):
        raise ConfigError(
            f"interference must be 'on' or 'off', got {interference!r}")
    transitions = tuple(tuple(t) for t in transitions)
    _check_transitions(transitions, params.n_keep)
    if axis not in ("voltage", "alpha"):
        raise ConfigError(f"unknown sweep axis {axis!r}; use voltage or alpha")
    rows = partial(_rates_rows, transitions=transitions,
                   interference=interference)
    return _sweep(params, axis, values, rows,
                  [transition_label(t) for t in transitions], threads,
                  {"interference": interference})


def _steady_rows(groups, pq, integrator):
    [(points, spectrum, eta)] = groups
    tables = plan_tables([(RatePlan(points[0], spectrum, eta),
                           [p.bias_v for p in points])], pq, integrator)
    out = []
    for p, table in zip(points, tables):
        rho, residual = steady_state(assemble_generator(spectrum, p, table))
        pops = np.real(np.diag(rho))
        out.append([pops[0], pops[1], pops[0] + pops[1], residual])
    return out


def steady_sweep(params: SystemParams, voltages, threads: int = 1) -> SweepResult:
    """Stationary populations of the qubit pair per bias; threads as in
    rates_sweep."""
    return _sweep(params, "voltage", voltages, _steady_rows,
                  ["pop_phi0", "pop_phi1", "pop_qubit", "residual"], threads,
                  {})


def _bitflip_rows(groups, pq, integrator):
    # Each point's plan keeps only its offsets and amplitudes; F is read
    # once for all of them.
    plans = [BitflipPlan(p, spectrum, eta, pq)
             for points, spectrum, eta in groups for p in points]
    out = []
    for plan, values in zip(plans, evaluate_each(
            integrator, [plan.offsets for plan in plans])):
        rate_on, rate_off = plan.rates(values)
        ratio = rate_on / rate_off if rate_off != 0.0 else np.inf
        out.append([rate_on, rate_off, ratio])
    return out


def bitflip_sweep(params: SystemParams, alphas, threads: int = 1) -> SweepResult:
    """Branch-flip rates with and without interference per alpha; threads
    as in rates_sweep."""
    return _sweep(params, "alpha", alphas, _bitflip_rows,
                  ["rate_interference", "rate_no_interference", "ratio"],
                  threads, {})


# ---------------------------------------------------------------------------
# Time evolution


@dataclass
class Schedule:
    initial: str = "phi0"
    t_end: float = 1e-4
    points: int = 201
    t_qcr_on: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "Schedule":
        sched = cls(**config_fields(raw, ("initial",), ("points",),
                                    ("t_end", "t_qcr_on"), "schedule"))
        if sched.t_end <= 0.0:
            raise ConfigError("schedule t_end must be positive")
        if sched.points < 2:
            raise ConfigError("schedule points must be at least 2")
        return sched


@dataclass
class DynamicsResult:
    times: np.ndarray
    populations: np.ndarray        # (nt, n_keep)
    branch_plus: np.ndarray
    qubit: np.ndarray
    qcr_active: np.ndarray         # 1 from the row the junction acts on
    trace_drift: float
    herm_drift: float
    min_eigenvalue: float

    def rows(self) -> np.ndarray:
        return np.column_stack((self.times, self.populations, self.qubit,
                                self.branch_plus, self.qcr_active))


def dynamics_run(params: SystemParams, schedule: Schedule) -> DynamicsResult:
    spectrum = diagonalize_kpo(params)
    rho0 = initial_state(spectrum, schedule.initial)
    table = rate_table(params, spectrum)
    gen_on = assemble_generator(spectrum, params, table)
    gen_off = assemble_generator(spectrum, params, None)
    t_grid = np.linspace(0.0, schedule.t_end, schedule.points)
    t_on = switch_time(t_grid, schedule.t_qcr_on)
    traj = evolve(rho0, t_grid, gen_off, (t_on, gen_on))
    active = (t_grid >= t_on).astype(float)
    return DynamicsResult(
        times=traj.times,
        populations=traj.populations(),
        branch_plus=traj.branch_population(),
        qubit=traj.qubit_population(),
        qcr_active=active,
        trace_drift=traj.trace_drift,
        herm_drift=traj.herm_drift,
        min_eigenvalue=traj.min_eigenvalue,
    )


# ---------------------------------------------------------------------------
# Husimi maps


@dataclass
class HusimiConfig:
    source: str = "steady"         # steady | evolve
    time: float = 0.0
    initial: str = "phi_alpha"
    qcr: str = "on"
    re_min: float = -4.0
    re_max: float = 4.0
    im_min: float = -4.0
    im_max: float = 4.0
    points: int = 81

    @classmethod
    def from_dict(cls, raw: dict) -> "HusimiConfig":
        cfg = cls(**config_fields(
            raw, ("source", "initial", "qcr"), ("points",),
            ("time", "re_min", "re_max", "im_min", "im_max"), "husimi"))
        if cfg.source not in ("steady", "evolve"):
            raise ConfigError("husimi source must be 'steady' or 'evolve'")
        if cfg.qcr not in ("on", "off"):
            raise ConfigError("husimi qcr must be 'on' or 'off'")
        if cfg.points < 2:
            raise ConfigError("husimi points must be at least 2")
        if not (cfg.re_max > cfg.re_min and cfg.im_max > cfg.im_min):
            raise ConfigError("husimi window must have positive extent")
        if cfg.source == "evolve" and cfg.time < 0.0:
            raise ConfigError("husimi time must be non-negative")
        return cfg


@dataclass
class HusimiResult:
    re_axis: np.ndarray
    im_axis: np.ndarray
    q: np.ndarray                  # (n_im, n_re)
    norm: float
    meta: dict

    def rows(self) -> np.ndarray:
        re_, im = np.meshgrid(self.re_axis, self.im_axis)
        return np.column_stack((re_.ravel(), im.ravel(), self.q.ravel()))


def husimi_run(params: SystemParams, cfg: HusimiConfig) -> HusimiResult:
    spectrum = diagonalize_kpo(params)
    meta: dict = {"source": cfg.source}
    if cfg.source == "steady":
        table = rate_table(params, spectrum)
        rho, meta["residual"] = steady_state(
            assemble_generator(spectrum, params, table))
    else:
        rho0 = initial_state(spectrum, cfg.initial)
        # At time 0 the state is rho0 whatever the generator.
        on = cfg.qcr == "on" and cfg.time > 0.0
        table = rate_table(params, spectrum) if on else None
        gen = assemble_generator(spectrum, params, table)
        rho = evolve(rho0, np.array([0.0, cfg.time]), gen).states[-1]
        meta.update({"time": cfg.time, "initial": cfg.initial, "qcr": cfg.qcr})
    re_axis = np.linspace(cfg.re_min, cfg.re_max, cfg.points)
    im_axis = np.linspace(cfg.im_min, cfg.im_max, cfg.points)
    q = husimi_q(rho, spectrum, re_axis, im_axis)
    cell = (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
    return HusimiResult(re_axis=re_axis, im_axis=im_axis, q=q,
                        norm=float(np.sum(q) * cell), meta=meta)


# ---------------------------------------------------------------------------
# Island charge distribution


def pq_run(params: SystemParams, pumped: bool = False) -> SweepResult:
    pq = charge_distribution(params, pumped=pumped)
    qs = np.array(pq.q_values, float)
    probs = np.array(pq.probs, float)
    return SweepResult(axis="q", values=qs, columns=["p"],
                       data=probs[:, None],
                       meta={"pumped": "yes" if pumped else "no"})
