"""Run engines shared by the command-line interface.

The three sweeps (rates, steady, bitflip) run on one engine, `_sweep`.  It
first builds every point's parameters (`replace(bias_v=v)` on the voltage
axis, `with_alpha(a)` on the alpha axis), so an out-of-range value fails
with a ConfigError before any spectrum, sideband table or charge
distribution is built.  It then builds what the points share once: one
PatIntegrator, the tunneling function F of the junction, which bias and
alpha only shift or re-pick offsets of; the island charge distribution,
taken at zero bias (charge_distribution with pumped=False), which does not
read the pump; and on the voltage axis the spectrum and sideband table,
which do not depend on the bias.  Along the alpha axis each point
diagonalizes its own oscillator.  Each point is one call
point(params, spectrum, eta, pq, integrator), in a plain loop.  The rate
points of the steady and rates sweeps read the charge-averaged function G
of F and that distribution (PatIntegrator.averaged), which the first point
builds and F keeps, so a sweep builds one F and one G; bit-flip points
read F.

The points run serially.  With one shared F and G a point is mostly
linear algebra, 1-8 ms, and a fork pool no longer pays for its start-up
and its code.  The README sweeps, wall time on 2 vCPUs (best of 3,
measured when points read F at per-charge offsets; the parent is the
per-point-table code at threads=2):

  | sweep                  | serial  | 2 workers | per-point tables |
  |------------------------|---------|-----------|------------------|
  | steady, 26 points      | 0.21 s  | 0.14 s    | 2.10 s           |
  | rates voltage, 121     | 0.089 s | 0.085 s   | 0.45 s           |
  | rates alpha, 61        | 0.17 s  | 0.12 s    | 0.29 s           |
  | bitflip, 31            | 0.083 s | 0.075 s   | 0.11 s           |

Two workers save at most 0.07 s there, and on a 4-point bitflip sweep they
cost 0.038 s against 0.026 s serially, with more than twice the CPU.  Every
value depends only on its offset and the parameters (see PatIntegrator),
so results are identical for any `threads`; the argument is accepted and
checked (at least 1) but has no effect.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import (assemble_generator, evolve, husimi_q, initial_state,
                       steady_state)
from .errors import ConfigError
from .junction import PatIntegrator, charge_distribution
from .params import SystemParams, config_fields
from .rates import bitflip_rates, eta_table, rate_table, transition_rate
# perfbench/tracing.py wraps these by name here; no sweep calls them.
from .rates import match_sets, qcr_bitflip_rate  # noqa: F401
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


def _steady_solve(params, spectrum, eta=None, pq=None, integrator=None):
    """(rho, residual) of the stationary state with the junction on."""
    table = rate_table(params, spectrum, eta=eta, pq=pq,
                       integrator=integrator)
    return steady_state(assemble_generator(spectrum, params, table))


# ---------------------------------------------------------------------------
# Sweeps: one engine, one integrator, one loop


def _spectrum_eta(params):
    spectrum = diagonalize_kpo(params)
    return spectrum, eta_table(spectrum, params.rho_c, params.dm_max)


def _sweep(params: SystemParams, axis: str, values, point, columns,
           threads: int, meta: dict) -> SweepResult:
    # Every point's parameters first, so a bad value fails before any work.
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    values = np.asarray(values, float)
    if axis == "voltage":
        points = [params.replace(bias_v=float(v)) for v in values]
        shared = _spectrum_eta(params)
    else:
        points = [params.with_alpha(float(a)) for a in values]
        shared = None
    integrator = PatIntegrator.from_params(params)
    pq = charge_distribution(params, integrator)
    rows = [point(p, *(shared or _spectrum_eta(p)), pq, integrator)
            for p in points]
    return SweepResult(axis=axis, values=values, columns=columns,
                       data=np.array(rows, float), meta=meta)


def _rates_point(params, spectrum, eta, pq, integrator, transitions,
                 interference):
    # One transition_rate call, one evaluate batch, whatever the labels;
    # interference "off" reports the degenerate-pair entries as zero.
    keys = [key for key in transitions if interference == "on"
            or key not in ((0, 1, 1, 0), (1, 0, 0, 1))]
    values = dict(zip(keys, transition_rate(params, spectrum, eta, pq,
                                            integrator, keys)))
    return [values.get(key, 0.0) for key in transitions]


def rates_sweep(
    params: SystemParams,
    axis: str,
    values,
    transitions=DEFAULT_TRANSITIONS,
    interference: str = "on",
    threads: int = 1,
) -> SweepResult:
    """Population and interference rates, 1/s, per bias or alpha value.

    threads is accepted and checked (at least 1) but has no effect: the
    points run in one process (see the module docstring).
    """
    if interference not in ("on", "off"):
        raise ConfigError(
            f"interference must be 'on' or 'off', got {interference!r}")
    transitions = tuple(tuple(t) for t in transitions)
    _check_transitions(transitions, params.n_keep)
    if axis not in ("voltage", "alpha"):
        raise ConfigError(f"unknown sweep axis {axis!r}; use voltage or alpha")
    point = partial(_rates_point, transitions=transitions,
                    interference=interference)
    return _sweep(params, axis, values, point,
                  [transition_label(t) for t in transitions], threads,
                  {"interference": interference})


def _steady_point(params, spectrum, eta, pq, integrator):
    rho, residual = _steady_solve(params, spectrum, eta, pq, integrator)
    pops = np.real(np.diag(rho))
    return [pops[0], pops[1], pops[0] + pops[1], residual]


def steady_sweep(params: SystemParams, voltages, threads: int = 1) -> SweepResult:
    """Stationary populations of the qubit pair per bias; threads has no
    effect, as in rates_sweep."""
    return _sweep(params, "voltage", voltages, _steady_point,
                  ["pop_phi0", "pop_phi1", "pop_qubit", "residual"], threads,
                  {})


def _bitflip_point(params, spectrum, eta, pq, integrator):
    rate_on, rate_off = bitflip_rates(params, spectrum, eta, pq, integrator)
    ratio = rate_on / rate_off if rate_off != 0.0 else np.inf
    return [rate_on, rate_off, ratio]


def bitflip_sweep(params: SystemParams, alphas, threads: int = 1) -> SweepResult:
    """Branch-flip rates with and without interference per alpha; threads
    has no effect, as in rates_sweep."""
    return _sweep(params, "alpha", alphas, _bitflip_point,
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
    qcr_active: np.ndarray         # 0/1 per time
    trace_drift: float
    herm_drift: float
    min_eigenvalue: float

    def rows(self) -> np.ndarray:
        return np.column_stack((self.times, self.populations, self.qubit,
                                self.branch_plus, self.qcr_active))


def dynamics_run(params: SystemParams, schedule: Schedule) -> DynamicsResult:
    spectrum = diagonalize_kpo(params)
    rho0 = initial_state(spectrum, schedule.initial)
    eta = eta_table(spectrum, params.rho_c, params.dm_max)
    table = rate_table(params, spectrum, eta=eta)
    gen_on = assemble_generator(spectrum, params, table)
    gen_off = assemble_generator(spectrum, params, None)
    t_grid = np.linspace(0.0, schedule.t_end, schedule.points)
    traj = evolve(rho0, (gen_off, gen_on),
                  {"t_qcr_on": schedule.t_qcr_on}, t_grid)
    active = (t_grid >= schedule.t_qcr_on).astype(float)
    return DynamicsResult(
        times=traj.times,
        populations=traj.populations(),
        branch_plus=traj.branch_population(+1.0),
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
        rho, meta["residual"] = _steady_solve(params, spectrum)
    else:
        rho0 = initial_state(spectrum, cfg.initial)
        table = rate_table(params, spectrum) if cfg.qcr == "on" else None
        gen = assemble_generator(spectrum, params, table)
        if cfg.time == 0.0:
            rho = rho0
        else:
            traj = evolve(rho0, gen, None, np.array([0.0, cfg.time]))
            rho = traj.states[-1]
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
