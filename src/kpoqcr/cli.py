"""Command-line interface.

Every command reads an optional flat JSON config (physical parameters plus
the section keys below), applies flag overrides, and writes CSV to stdout
or --out.  CSV rows are printed with 17 significant digits and headers echo
the full parameter set, so outputs are reproducible byte for byte; --json
switches to a JSON document with the same content.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-suite failure.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import sys

import click
import numpy as np

from .errors import (CatStateError, ChargeDistributionError, ConfigError,
                     EvolveError, MatchingError, QuadratureError,
                     SpectrumError, SteadyStateError)
from .oracles import run_oracle_suite
from .params import SystemParams, config_fields, load_config
from .workflows import (DEFAULT_TRANSITIONS, HusimiConfig, Schedule,
                        bitflip_sweep, dynamics_run, husimi_run,
                        parse_transition_label, pq_run, rates_sweep,
                        steady_sweep)

_SECTION_KEYS = ("sweep", "schedule", "husimi", "rates", "interference",
                 "out")
_RUN_ERRORS = (QuadratureError, SpectrumError, CatStateError, MatchingError,
               ChargeDistributionError, EvolveError, SteadyStateError)

_EMIT_ROWS = 1024     # CSV body rows formatted and written at a time
_EMIT_PIECES = 8192   # JSON encoder pieces joined and written at a time

_SWEEP_DEFAULTS = {
    "rates": {"voltage": (0.0, 60e9, 121), "alpha": (1.0, 2.5, 61)},
    "steady": {"voltage": (30e9, 55e9, 26)},
    "bitflip": {"alpha": (1.0, 2.5, 31)},
}


def _load_setup(config_path: str | None) -> tuple[SystemParams, dict]:
    raw = dict(load_config(config_path)) if config_path else {}
    sections = {key: raw.pop(key) for key in _SECTION_KEYS if key in raw}
    for key in ("sweep", "schedule", "husimi", "rates"):
        if key in sections and not isinstance(sections[key], dict):
            raise ConfigError(f"config section {key!r} must be an object")
    return SystemParams.from_dict(raw), sections


def _check_threads(flag: int | None) -> None:
    if flag is not None and flag < 1:
        raise ConfigError("threads must be at least 1")


def _resolve_out(flag: str | None, sections: dict) -> str | None:
    if flag is not None:
        return flag
    out = sections.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config key 'out' must be a string path")
    return out


def _section_endpoint(section: dict, base: str, axis: str) -> float | None:
    plain, ghz = base in section, base + "_ghz" in section
    if plain and ghz:
        raise ConfigError(f"sweep gives both {base!r} and {base + '_ghz'!r}")
    if ghz and axis != "voltage":
        raise ConfigError(f"sweep key {base + '_ghz'!r} only applies to "
                          f"the voltage axis")
    if not plain and not ghz:
        return None
    return section[base] if plain else section[base + "_ghz"] * 1e9


def _resolve_sweep(command: str, sections: dict, axis_flag: str | None,
                   from_flag: float | None, to_flag: float | None,
                   points_flag: int | None) -> tuple[str, np.ndarray]:
    section = config_fields(sections.get("sweep", {}), ("axis",), ("points",),
                            ("from", "to", "from_ghz", "to_ghz"), "sweep")
    defaults = _SWEEP_DEFAULTS[command]
    axis = axis_flag or section.get("axis") or next(iter(defaults))
    if axis not in defaults:
        raise ConfigError(
            f"command {command!r} cannot sweep axis {axis!r}; "
            f"choose from {sorted(defaults)}")
    lo_d, hi_d, pts_d = defaults[axis]
    lo = from_flag if from_flag is not None \
        else _section_endpoint(section, "from", axis)
    hi = to_flag if to_flag is not None \
        else _section_endpoint(section, "to", axis)
    pts = points_flag if points_flag is not None \
        else section.get("points", pts_d)
    if pts < 1:
        raise ConfigError("sweep points must be a positive integer")
    lo = lo_d if lo is None else lo
    hi = hi_d if hi is None else hi
    if pts > 1 and hi <= lo:
        raise ConfigError("sweep range must have to > from")
    return axis, np.linspace(lo, hi, pts)


def _resolve_transitions(flag: str | None, sections: dict):
    raw = None
    if flag is not None:
        raw = [part for part in flag.split(",") if part.strip()]
    else:
        section = sections.get("rates", {})
        unknown = set(section) - {"transitions"}
        if unknown:
            raise ConfigError(f"unknown rates keys: {sorted(unknown)}")
        if "transitions" in section:
            listed = section["transitions"]
            if not isinstance(listed, list) or \
                    not all(isinstance(s, str) for s in listed):
                raise ConfigError("rates.transitions must be a list of labels")
            raw = listed
    if raw is None:
        return DEFAULT_TRANSITIONS
    if not raw:
        raise ConfigError("transition list is empty")
    return tuple(parse_transition_label(s) for s in raw)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _repeated_columns(rows: np.ndarray) -> list:
    """(column, strings, index) for each body column whose distinct
    values, told apart by their bits (so -0.0 is not 0.0), fill at most
    half its cells and leave at least _EMIT_ROWS cells repeating one:
    each distinct value is formatted once, and strings[index] is the
    column's text.  Finding and looking up the distinct values costs
    about what formatting a few dozen cells saves, so a body of one block
    formats every cell."""
    if len(rows) <= _EMIT_ROWS:
        return []
    found = []
    for j in range(rows.shape[1]):
        distinct, index = np.unique(rows[:, j].view(np.uint64),
                                    return_inverse=True)
        if len(rows) - distinct.size >= max(distinct.size, _EMIT_ROWS):
            strings = ["%.17g" % x for x in distinct.view(float).tolist()]
            found.append((j, np.array(strings, dtype=object), index))
    return found


def _csv_chunks(header: list[str], columns: list[str], rows: np.ndarray):
    """The CSV document as text chunks: the header and column lines, then
    the body in blocks of _EMIT_ROWS rows, each one % over its rows rather
    than one per row, so no string of the whole body is built.  The cells
    of _repeated_columns enter the % as their formatted strings."""
    yield "\n".join([*header, ",".join(columns)]) + "\n"
    if not rows.size:
        return
    width = rows.shape[1]
    repeated = _repeated_columns(rows)
    cells = ["%.17g"] * width
    for j, _, _ in repeated:
        cells[j] = "%s"
    row_format = ",".join(cells)
    for start in range(0, len(rows), _EMIT_ROWS):
        block = rows[start:start + _EMIT_ROWS]
        values = block.ravel().tolist()
        for j, strings, index in repeated:
            rows_index = index[start:start + len(block)]
            values[j::width] = strings[rows_index].tolist()
        yield ("\n".join([row_format] * len(block)) % tuple(values)) + "\n"


def _json_chunks(payload: dict):
    """The JSON document and its trailing newline as text chunks, each
    _EMIT_PIECES pieces of the encoder joined: json.dumps is the join of
    the same pieces, so the bytes are its bytes, but no string of the whole
    document is built."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    for first in pieces:
        yield first + "".join(itertools.islice(pieces, _EMIT_PIECES - 1))
    yield "\n"


def _emit(out_path: str | None, as_json: bool, params: SystemParams,
          meta: dict, columns: list[str], rows) -> None:
    rows = np.asarray(rows, dtype=float)
    if as_json:
        payload = {
            "params": {k: v for k, v in params.echo_items()},
            "meta": meta,
            "columns": columns,
            "rows": rows.tolist(),
        }
        chunks = _json_chunks(payload)
    else:
        echo = dict(params.echo_items())
        echo.update(meta)
        header = [f"# {key} = {_fmt(echo[key])}" for key in sorted(echo)]
        chunks = _csv_chunks(header, columns, rows)
    if out_path is None:
        for chunk in chunks:
            click.echo(chunk, nl=False)
        return
    try:
        with open(out_path, "w") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


@contextlib.contextmanager
def _guarded():
    """Turn a ConfigError into exit 2 and a numerical failure into exit 3,
    each with a one-line message on stderr."""
    try:
        yield
    except ConfigError as exc:
        code, message = 2, str(exc)
    except _RUN_ERRORS as exc:
        code, message = 3, str(exc)
    else:
        return
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Tunneling-driven transition rates and dissipative dynamics of a
    two-photon-pumped Kerr oscillator coupled to a voltage-biased
    normal-metal island."""


_config_option = click.option(
    "--config", "config_path", type=click.Path(exists=False, dir_okay=False),
    default=None, help="Flat JSON config file.")
_COMMON_OPTIONS = (
    _config_option,
    click.option("--out", "out_path", type=click.Path(dir_okay=False),
                 default=None, help="Output file (default stdout)."),
    click.option("--json", "as_json", is_flag=True,
                 help="Emit JSON instead of CSV."),
    click.option("--threads", type=int, default=None,
                 help="Accepted and checked (at least 1) but without "
                      "effect: every command runs in one process, and "
                      "results are identical whatever it says."),
)


def _run_command(fn):
    """Register `fn` as a subcommand with --config, --out, --json and
    --threads ahead of its own options.

    `fn(params, sections, **flags)` returns (meta, columns, rows); the
    runner checks --threads, adds the command name to the meta and writes
    the document to stdout or --out.
    """
    def run(config_path, out_path, as_json, threads, **flags):
        with _guarded():
            params, sections = _load_setup(config_path)
            out = _resolve_out(out_path, sections)
            _check_threads(threads)
            meta, columns, rows = fn(params, sections, **flags)
            _emit(out, as_json, params, {"command": fn.__name__, **meta},
                  columns, rows)

    run.__click_params__ = fn.__click_params__
    for option in reversed(_COMMON_OPTIONS):  # click lists the last first
        run = option(run)
    return main.command(fn.__name__, help=fn.__doc__)(run)


def _sweep_flags(fn):
    fn = click.option("--points", type=int, default=None,
                      help="Number of sweep points.")(fn)
    fn = click.option("--to", type=float, default=None,
                      help="Sweep end (Hz for voltage sweeps).")(fn)
    fn = click.option("--from", "from_", type=float, default=None,
                      help="Sweep start (Hz for voltage sweeps).")(fn)
    return fn


def _sweep_output(result):
    meta = {"axis": result.axis, "sweep_points": result.values.size,
            **result.meta}
    return meta, [result.axis, *result.columns], result.rows()


def _section(sections: dict, key: str, **flags) -> dict:
    """Config section `key` with the flags that were given laid over it."""
    raw = dict(sections.get(key, {}))
    raw.update({k: v for k, v in flags.items() if v is not None})
    return raw


@_run_command
@_sweep_flags
@click.option("--sweep", "axis_flag", type=click.Choice(["voltage", "alpha"]),
              default=None, help="Sweep axis.")
@click.option("--interference", "interference_flag",
              type=click.Choice(["on", "off"]), default=None,
              help="Keep or drop the degenerate-pair interference entries.")
@click.option("--transitions", "transitions_flag", type=str, default=None,
              help="Comma-separated labels g1_<mu>_<mup>_<nu>_<nup>.")
def rates(params, sections, from_, to, points, axis_flag, interference_flag,
          transitions_flag):
    """Tunneling transition rates along a voltage or alpha sweep."""
    axis, values = _resolve_sweep("rates", sections, axis_flag,
                                  from_, to, points)
    transitions = _resolve_transitions(transitions_flag, sections)
    interference = interference_flag or sections.get("interference", "on")
    return _sweep_output(rates_sweep(params, axis, values,
                                     transitions=transitions,
                                     interference=interference))


@_run_command
@_sweep_flags
def steady(params, sections, from_, to, points):
    """Stationary state of the full master equation along a voltage sweep."""
    _, values = _resolve_sweep("steady", sections, None, from_, to, points)
    return _sweep_output(steady_sweep(params, values))


@_run_command
@_sweep_flags
def bitflip(params, sections, from_, to, points):
    """Branch-flip rate with and without the interference entries, vs alpha."""
    _, values = _resolve_sweep("bitflip", sections, None, from_, to, points)
    return _sweep_output(bitflip_sweep(params, values))


@_run_command
@click.option("--initial", type=str, default=None,
              help="phi0, phi1, phi_alpha or phi_minus_alpha.")
@click.option("--t-end", type=float, default=None, help="Final time, s.")
@click.option("--points", type=int, default=None, help="Output grid points.")
@click.option("--t-qcr-on", type=float, default=None,
              help="Time at which the tunneling junction is switched on, s.")
def dynamics(params, sections, **schedule_flags):
    """Populations versus time with the junction switched on mid-run."""
    schedule = Schedule.from_dict(_section(sections, "schedule",
                                           **schedule_flags))
    result = dynamics_run(params, schedule)
    meta = {"initial": schedule.initial, "t_end": schedule.t_end,
            "t_qcr_on": schedule.t_qcr_on,
            "trace_drift": result.trace_drift,
            "min_eigenvalue": result.min_eigenvalue}
    columns = ["time", *(f"pop_{k}" for k in range(params.n_keep)),
               "pop_qubit", "pop_branch_plus", "qcr_active"]
    return meta, columns, result.rows()


@_run_command
@click.option("--source", type=click.Choice(["steady", "evolve"]),
              default=None, help="Map the stationary state or an evolved one.")
@click.option("--time", "time_", type=float, default=None,
              help="Evolution time before mapping, s (source=evolve).")
@click.option("--initial", type=str, default=None,
              help="Initial state for source=evolve.")
@click.option("--qcr", type=click.Choice(["on", "off"]), default=None,
              help="Junction state during source=evolve.")
@click.option("--points", type=int, default=None,
              help="Grid points per phase-space axis.")
@click.option("--extent", type=float, default=None,
              help="Symmetric window half-width in both quadratures.")
def husimi(params, sections, source, time_, initial, qcr, points, extent):
    """Husimi Q map of the stationary or evolved state."""
    raw = _section(sections, "husimi", source=source, time=time_,
                   initial=initial, qcr=qcr, points=points)
    if extent is not None:
        if extent <= 0.0:
            raise ConfigError("extent must be positive")
        raw.update({"re_min": -extent, "re_max": extent,
                    "im_min": -extent, "im_max": extent})
    result = husimi_run(params, HusimiConfig.from_dict(raw))
    meta = {"norm": result.norm,
            **{f"husimi_{k}": v for k, v in result.meta.items()}}
    return meta, ["re", "im", "q"], result.rows()


@_run_command
@click.option("--pumped", is_flag=True,
              help="Evaluate the elastic rates at the operating bias instead "
                   "of in equilibrium (sensitivity check).")
def pq(params, _sections, pumped):
    """Stationary island charge-state distribution."""
    result = pq_run(params, pumped=pumped)
    return result.meta, ["q", *result.columns], result.rows()


@main.command()
@_config_option
@click.option("--json", "as_json", is_flag=True,
              help="Emit the report as JSON.")
def validate(config_path, as_json) -> None:
    """Run the closed-form and cross-check suite; exit 4 on any failure."""
    with _guarded():
        params, _sections = _load_setup(config_path)
        reports = run_oracle_suite(params)
    if as_json:
        payload = [report.__dict__ for report in reports]
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for report in reports:
            click.echo(report.line())
        failed = sum(not r.passed for r in reports)
        click.echo(f"{len(reports) - failed}/{len(reports)} checks passed")
    if any(not r.passed for r in reports):
        sys.exit(4)


if __name__ == "__main__":
    main()
