"""Command-line interface: formats, determinism, exit codes."""
import json
import math
import os
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

import kpoqcr
from kpoqcr import (HusimiConfig, Schedule, SystemParams, assemble_generator,
                    evolve, husimi_q, initial_state, junction, rate_table,
                    workflows)
from kpoqcr.cli import _emit, _fmt, _repeated_columns, main
from kpoqcr.workflows import dynamics_run, husimi_run


@pytest.fixture()
def runner():
    return CliRunner()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_help_lists_all_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("bitflip", "dynamics", "husimi", "pq", "rates", "steady",
                "validate"):
        assert cmd in result.output


def test_rates_csv_structure_and_determinism(runner, tmp_path):
    args = ["rates", "--from", "39e9", "--to", "44e9", "--points", "3"]
    first = runner.invoke(main, args + ["--threads", "1"])
    second = runner.invoke(main, args + ["--threads", "2"])
    assert first.exit_code == 0
    assert first.output == second.output  # byte identical across pools
    lines = first.output.splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    assert "# command = rates" in header
    assert "# bias_v = 45000000000" in header
    keys = [ln.split(" = ")[0] for ln in header]
    assert keys == sorted(keys)
    columns = lines[len(header)]
    assert columns.startswith("voltage,g1_")
    data = lines[len(header) + 1:]
    assert len(data) == 3
    assert data[0].split(",")[0] == "39000000000"


def test_rates_out_file_and_json(runner, tmp_path):
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["rates", "--from", "40e9", "--to", "41e9",
                                  "--points", "2", "--json",
                                  "--out", str(out)])
    assert result.exit_code == 0 and result.output == ""
    payload = json.loads(out.read_text())
    assert set(payload) == {"params", "meta", "columns", "rows"}
    assert payload["meta"]["axis"] == "voltage"
    assert payload["params"]["n_keep"] == 12
    assert len(payload["rows"]) == 2 and len(payload["rows"][0]) == 7


def test_rates_config_sections(runner, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "temp_n": 0.1,
        "sweep": {"from_ghz": 39.0, "to_ghz": 40.0, "points": 2},
        "rates": {"transitions": ["g1_1_1_2_2"]},
    })
    result = runner.invoke(main, ["rates", "--config", cfg])
    assert result.exit_code == 0
    columns = [ln for ln in result.output.splitlines()
               if not ln.startswith("#")][0]
    assert columns == "voltage,g1_1_1_2_2"


def test_rates_interference_flag(runner):
    base = ["rates", "--from", "45e9", "--to", "45e9", "--points", "1",
            "--transitions", "g1_0_1_1_0"]
    on = runner.invoke(main, base)
    off = runner.invoke(main, base + ["--interference", "off"])
    assert on.exit_code == 0 and off.exit_code == 0
    val_on = float(on.output.splitlines()[-1].split(",")[1])
    val_off = float(off.output.splitlines()[-1].split(",")[1])
    assert val_on != 0.0 and val_off == 0.0


def test_config_errors_exit_2(runner, tmp_path):
    bad_key = _write(tmp_path, "a.json", {"nonsense": 1})
    result = runner.invoke(main, ["rates", "--config", bad_key])
    assert result.exit_code == 2
    assert "unknown parameter" in result.output

    missing = str(tmp_path / "absent.json")
    result = runner.invoke(main, ["rates", "--config", missing])
    assert result.exit_code == 2

    descending = _write(tmp_path, "b.json",
                        {"sweep": {"from_ghz": 45.0, "to_ghz": 40.0,
                                   "points": 3}})
    result = runner.invoke(main, ["rates", "--config", descending])
    assert result.exit_code == 2
    assert "to > from" in result.output

    bad_label = runner.invoke(main, ["rates", "--transitions", "flip"])
    assert bad_label.exit_code == 2

    result = runner.invoke(main, ["rates", "--threads", "0"])
    assert "threads must be at least 1" in _one_line_error(result, 2)

    for command, payload, message in (
            ("rates", {"sweep": 3},
             "config section 'sweep' must be an object"),
            ("rates", {"out": 3}, "config key 'out' must be a string path"),
            ("rates", {"sweep": {"from": 40e9, "from_ghz": 40.0}},
             "sweep gives both"),
            ("bitflip", {"sweep": {"from_ghz": 1.0}},
             "only applies to the voltage axis"),
            ("steady", {"sweep": {"axis": "alpha"}}, "cannot sweep axis"),
            ("rates", {"sweep": {"points": 0}}, "positive integer"),
            ("rates", {"rates": {"bogus": 1}}, "unknown rates keys"),
            ("rates", {"rates": {"transitions": "g1_0_1_1_0"}},
             "must be a list of labels")):
        cfg = _write(tmp_path, "d.json", payload)
        result = runner.invoke(main, [command, "--config", cfg])
        assert message in _one_line_error(result, 2)
    result = runner.invoke(main, ["rates", "--transitions", ","])
    assert "transition list is empty" in _one_line_error(result, 2)


def _one_line_error(result, code: int) -> str:
    """The message of a run that exited with `code` and no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    return lines[0]


@pytest.mark.parametrize("command", ["rates", "steady", "bitflip",
                                     "dynamics", "husimi", "pq"])
def test_run_commands_reject_unknown_config_keys(runner, tmp_path, command):
    cfg = _write(tmp_path, "u.json", {"nonsense": 1})
    result = runner.invoke(main, [command, "--config", cfg])
    assert "unknown parameter key: 'nonsense'" in _one_line_error(result, 2)


@pytest.mark.parametrize("args, config, message", [
    (["rates"], {"sweep": {"axis": ["voltage"]}},
     "sweep key 'axis' must be a string"),
    (["dynamics"], {"dm_max": 60}, "dm_max must lie in [1, n_fock)"),
    (["dynamics", "--initial", "bogus"], None,
     "unknown initial state 'bogus'"),
    (["husimi", "--source", "evolve", "--initial", "phi99"], None,
     "initial state 'phi99' outside the 12 retained levels"),
    (["rates"], {"threads": 2.5}, "unknown parameter key: 'threads'"),
    (["steady"], {"sweep": {"points": 1.5}},
     "sweep key 'points' must be an integer"),
], ids=["axis_list", "dm_max_n_fock", "dynamics_initial", "husimi_initial",
        "threads_fraction", "points_fraction"])
def test_bad_inputs_exit_2_before_any_rate_table(runner, tmp_path,
                                                 monkeypatch, args, config,
                                                 message):
    def no_table(*args, **kwargs):
        raise AssertionError("rate table built before the input was checked")

    monkeypatch.setattr(workflows, "rate_table", no_table)
    if config is not None:
        args = args + ["--config", _write(tmp_path, "c.json", config)]
    assert message in _one_line_error(runner.invoke(main, args), 2)


def test_integral_floats_read_as_integers(runner, tmp_path):
    # sweep.points takes 2.0 for 2, like every integer key.
    outputs = []
    for number in (2, 2.0):
        cfg = _write(tmp_path, "n.json", {
            "sweep": {"from_ghz": 39.0, "to_ghz": 40.0, "points": number}})
        result = runner.invoke(main, ["rates", "--config", cfg])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-2].startswith("39000000000,")


def test_out_is_opened_only_to_write_a_finished_run(runner, tmp_path,
                                                    monkeypatch):
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, ["pq", "--out", str(out)])
    assert f"cannot write {out}" in _one_line_error(result, 2)
    # A run that fails leaves no empty file behind: node integrals at
    # 1e-17 stall the tunneling quadrature of a cold F (the run above
    # left its F warm in the process).
    junction._shared.cache_clear()
    monkeypatch.setattr(junction, "_NODE_TOL", 1e-7)
    out = tmp_path / "p.csv"
    result = runner.invoke(main, ["pq", "--out", str(out)])
    _one_line_error(result, 3)
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["dynamics", "--t-end", "nan", "--points", "3"], "t_end"),
    (["dynamics", "--t-end", "inf", "--points", "3"], "t_end"),
    (["dynamics", "--t-qcr-on", "nan", "--points", "3"], "t_qcr_on"),
    (["husimi", "--source", "evolve", "--time", "nan"], "time"),
], ids=["t_end_nan", "t_end_inf", "t_qcr_on_nan", "husimi_time_nan"])
def test_non_finite_times_exit_2(runner, args, key):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"{key!r} must be a finite number" in result.output


@pytest.mark.parametrize("text, key", [
    ('{"n_keep": Infinity}', "n_keep"),
    ('{"n_fock": NaN}', "n_fock"),
    ('{"bias_v": Infinity}', "bias_v"),
    ('{"bias_v": 1' + "0" * 309 + "}", "bias_v"),
], ids=["n_keep_inf", "n_fock_nan", "bias_v_inf", "bias_v_int_1e309"])
def test_non_finite_parameters_exit_2(runner, tmp_path, text, key):
    path = tmp_path / "p.json"
    path.write_text(text)
    result = runner.invoke(main, ["pq", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert f"{key!r} must be a finite number" in result.output


def test_cli_import_leaves_out_scipy():
    # scipy.special and scipy.linalg cost about 0.4 s per process start,
    # most of it numpy.f2py and friends pulled in by scipy's array API shim.
    src = os.path.dirname(os.path.dirname(kpoqcr.__file__))
    code = ("import sys, kpoqcr.cli; print([m for m in ('scipy.special', "
            "'scipy.linalg', 'numpy.f2py') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_numerical_failures_exit_3(runner, tmp_path, monkeypatch):
    # A degeneracy tolerance wider than the level spacing breaks the
    # eigensystem postconditions.
    cfg = _write(tmp_path, "m.json", {"match_tol": 4e9})
    result = runner.invoke(main, ["rates", "--config", cfg, "--points", "1",
                                  "--from", "45e9", "--to", "45e9"])
    assert result.exit_code == 3
    assert "error:" in result.output
    # Node integrals at a tolerance below roundoff (1e-17) stall the
    # tunneling quadrature.
    monkeypatch.setattr(junction, "_NODE_TOL", 1e-7)
    result = runner.invoke(main, ["pq"])
    assert result.exit_code == 3
    assert "tunneling integral at offset" in result.output


def test_sub_floor_tolerance_exits_2_before_any_work(runner, tmp_path,
                                                     monkeypatch):
    # The interpolation nodes cannot meet a quad_rel_tol below the floor,
    # at any temperature, so the configuration is rejected up front.
    calls = []
    real = workflows.charge_distribution

    def recording(params, **kwargs):
        calls.append(params.quad_rel_tol)
        return real(params, **kwargs)

    monkeypatch.setattr(workflows, "charge_distribution", recording)
    cfg = _write(tmp_path, "q.json", {"quad_rel_tol": 1e-12})
    result = runner.invoke(main, ["pq", "--config", cfg])
    assert result.exit_code == 2
    assert "quad_rel_tol must lie in [2e-11, 1e-2)" in result.output
    assert calls == []
    cold = _write(tmp_path, "c.json", {"quad_rel_tol": 1e-13, "temp_n": 0.0,
                                       "temp_s": 0.0})
    result = runner.invoke(main, ["pq", "--config", cold])
    assert result.exit_code == 2
    assert "quad_rel_tol must lie in [2e-11, 1e-2)" in result.output
    assert calls == []


def test_pq_command_and_pumped_flag(runner):
    eq = runner.invoke(main, ["pq", "--json"])
    assert eq.exit_code == 0
    payload = json.loads(eq.output)
    assert payload["meta"] == {"command": "pq", "pumped": "no"}
    assert payload["columns"] == ["q", "p"]
    total = sum(row[1] for row in payload["rows"])
    assert total == pytest.approx(1.0, abs=1e-12)

    pumped = runner.invoke(main, ["pq", "--json", "--pumped"])
    assert json.loads(pumped.output)["meta"]["pumped"] == "yes"


def test_steady_single_point(runner):
    result = runner.invoke(main, ["steady", "--from", "45e9", "--to", "45e9",
                                  "--points", "1"])
    assert result.exit_code == 0
    row = result.output.splitlines()[-1].split(",")
    assert float(row[3]) == pytest.approx(0.91671400051455787, rel=1e-6)


def test_dynamics_command(runner):
    result = runner.invoke(main, ["dynamics", "--initial", "phi0",
                                  "--t-end", "2e-5", "--points", "3",
                                  "--t-qcr-on", "1e-5"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
    assert lines[0].split(",")[:3] == ["time", "pop_0", "pop_1"]
    assert lines[0].split(",")[-1] == "qcr_active"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 1.0  # starts in phi0


def test_husimi_command(runner, params, spectrum):
    result = runner.invoke(main, ["husimi", "--source", "evolve", "--time",
                                  "0", "--initial", "phi_alpha", "--qcr",
                                  "off", "--points", "9", "--extent", "3.5"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
    assert lines[0] == "re,im,q"
    assert len(lines) == 1 + 81
    corner = lines[1].split(",")
    assert float(corner[0]) == -3.5 and float(corner[1]) == -3.5

    # An evolved state at t > 0, as the cat_dynamics benchmark maps it.
    result = runner.invoke(main, ["husimi", "--source", "evolve", "--time",
                                  "1e-4", "--initial", "phi_alpha"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    norm = float(next(ln for ln in lines if ln.startswith("# norm = "))[9:])
    assert abs(norm - 1.0) <= 5e-3
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 81 ** 2
    res = husimi_run(params, HusimiConfig(source="evolve", time=1e-4,
                                          initial="phi_alpha"))
    gen = assemble_generator(spectrum, params, rate_table(params, spectrum))
    rho = evolve(initial_state(spectrum, "phi_alpha"), np.array([0.0, 1e-4]),
                 gen).states[-1]
    axis = np.linspace(-4.0, 4.0, 81)
    assert res.q.tobytes() == husimi_q(rho, spectrum, axis, axis).tobytes()
    assert [float(row.split(",")[2]) for row in rows] == res.q.ravel().tolist()


@pytest.mark.parametrize("args", [
    ["dynamics", "--initial", "phi0", "--t-end", "2e-5", "--points", "3",
     "--t-qcr-on", "1e-5"],
    ["husimi", "--source", "evolve", "--time", "1e-5", "--points", "9"],
], ids=["dynamics", "husimi"])
def test_threads_flag_is_accepted_and_changes_nothing(runner, args):
    # The benchmark's cat_dynamics workload passes --threads to these two.
    plain = runner.invoke(main, args)
    threaded = runner.invoke(main, args + ["--threads", "2"])
    assert plain.exit_code == 0 and threaded.exit_code == 0
    assert threaded.output == plain.output


def test_husimi_builds_rate_table_only_to_evolve(runner, monkeypatch):
    # At --time 0 the mapped state is the initial one, so no table is
    # built and the map is --qcr off's; any later time builds one.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rate_table(*args, **kwargs)

    monkeypatch.setattr(workflows, "rate_table", counted)
    args = ["husimi", "--source", "evolve", "--points", "9", "--time"]
    maps = {}
    for time, qcr, want in (("0", "on", 0), ("0", "off", 0),
                            ("1e-4", "on", 1)):
        calls.clear()
        result = runner.invoke(main, args + [time, "--qcr", qcr])
        assert result.exit_code == 0
        assert len(calls) == want
        maps[time, qcr] = [ln for ln in result.output.splitlines()
                           if "qcr = " not in ln]
    assert maps["0", "on"] == maps["0", "off"]
    assert maps["0", "on"] != maps["1e-4", "on"]


def test_husimi_extent_validation(runner):
    result = runner.invoke(main, ["husimi", "--extent", "-1.0"])
    assert result.exit_code == 2


def test_bitflip_single_alpha(runner):
    result = runner.invoke(main, ["bitflip", "--from", "2.0", "--to", "2.0",
                                  "--points", "1"])
    assert result.exit_code == 0
    row = result.output.splitlines()[-1].split(",")
    assert float(row[3]) == pytest.approx(2.2518560019024621e-07, rel=1e-6)


def test_validate_passes(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0
    assert "22/22 checks passed" in result.output
    assert "FAIL" not in result.output


@pytest.mark.parametrize("temp_n, temp_s", [(0.1, 0.0), (0.0, 0.0),
                                            (0.0, 0.1), (0.1, 0.1)])
def test_validate_passes_at_zero_temperatures(runner, tmp_path, temp_n,
                                              temp_s):
    # A step Fermi function on either side: the detailed-balance ratio's
    # reference is exp(-inf) = 0, and the charge check runs at T_S = T_N.
    cfg = _write(tmp_path, "t.json", {"temp_n": temp_n, "temp_s": temp_s})
    result = runner.invoke(main, ["validate", "--config", cfg])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.output.splitlines()[-1] == "22/22 checks passed"


def test_validate_json(runner):
    result = runner.invoke(main, ["validate", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 22
    assert all(entry["passed"] for entry in payload)


def test_validate_reports_failure_exit_4(runner, monkeypatch):
    from kpoqcr import cli as cli_module
    from kpoqcr.oracles import OracleReport

    def fake_suite(params=None):
        return [OracleReport(name="forced", computed=1.0, reference=2.0,
                             rel_err=0.5, tol=1e-6, passed=False,
                             kind="cross-check")]

    monkeypatch.setattr(cli_module, "run_oracle_suite", fake_suite)
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 4
    assert "0/1 checks passed" in result.output


def _per_value_csv(rows):
    """The CSV rows as _emit formatted them value by value before."""
    return [",".join(format(x, ".17g") for x in map(float, row))
            for row in rows]


@pytest.mark.parametrize("run", ["dynamics", "husimi", "special"])
def test_csv_rows_match_the_per_value_formatter(run, tmp_path):
    # One %-format per row writes the bytes format(x, ".17g") wrote per
    # value: the README dynamics grid, a full 81 x 81 Husimi map, and the
    # values that format specially.
    params = SystemParams()
    if run == "dynamics":
        result = dynamics_run(params, Schedule(initial="phi0", t_end=1e-4,
                                               points=21, t_qcr_on=5e-5))
        columns = ["time", *(f"pop_{k}" for k in range(params.n_keep)),
                   "pop_qubit", "pop_branch_plus", "qcr_active"]
        rows = list(result.rows())
    elif run == "husimi":
        result = husimi_run(params, HusimiConfig(source="evolve", qcr="off"))
        columns = ["re", "im", "q"]
        rows = list(result.rows())
        assert len(rows) == 81 * 81
    else:
        columns = ["a", "b", "c", "d", "e", "f", "g"]
        rows = [(math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7e308, 0.1),
                (1.0, 2.0, 1e16, 1e17, 123456789012345678.0, -1e-5, 3.0)]
    out = tmp_path / "out.csv"
    _emit(str(out), False, params, {"command": run}, columns, rows)
    lines = out.read_text().splitlines()
    body = lines[lines.index(",".join(columns)) + 1:]
    assert body == _per_value_csv(rows)


def _whole_body_emit(params, meta, columns, rows):
    """The CSV document as _emit built it before it streamed its body: one
    % over every row at once."""
    echo = dict(params.echo_items())
    echo.update(meta)
    lines = [f"# {key} = {_fmt(echo[key])}" for key in sorted(echo)]
    lines.append(",".join(columns))
    if rows.size:
        row_format = ",".join(["%.17g"] * len(columns))
        lines.append("\n".join([row_format] * len(rows))
                     % tuple(rows.ravel().tolist()))
    return "\n".join(lines) + "\n"


_SPECIALS = (-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
             0.1, 1.0 / 3.0)


def _emit_rows(n_rows, repeated=False):
    """A command that emits n_rows random rows, specials first, through
    _emit, and the rows; if repeated, the first two columns draw their
    values from _SPECIALS."""
    rng = np.random.default_rng(n_rows)
    rows = rng.normal(size=(n_rows, 3)) * np.logspace(-300, 300, 3)
    rows[:1] = (math.inf, -0.0, 5e-324)
    if repeated:
        rows[:, :2] = rng.choice(np.array(_SPECIALS), size=(n_rows, 2))

    @click.command()
    @click.option("--out", default=None)
    @click.option("--json", "as_json", is_flag=True)
    def emit(out, as_json):
        _emit(out, as_json, SystemParams(), {"command": "emit"},
              ["re", "im", "q"], rows)

    return emit, rows


@pytest.mark.parametrize("n_rows, repeated", [
    *(pytest.param(n, False, id=str(n))
      for n in (0, 1, 1023, 1024, 1025, 6561)),
    pytest.param(1025, True, id="1025-repeated"),
    pytest.param(3000, True, id="3000-repeated")])
def test_streamed_csv_equals_the_whole_body(runner, tmp_path, n_rows,
                                            repeated):
    # The body is written in blocks of 1,024 rows; at every count around a
    # block edge, and at the README Husimi grid's 6,561 rows, stdout and
    # --out hold the bytes of the single-% document.  Columns that repeat
    # -0.0, 0.0, nans, infinities and 5e-324 over 3,000 rows print each
    # bit pattern's string; over 1,025 rows they repeat too few cells and
    # are formatted cell by cell.
    emit, rows = _emit_rows(n_rows, repeated)
    picked = [j for j, _, _ in _repeated_columns(rows)]
    assert picked == ([0, 1] if repeated and n_rows - len(_SPECIALS) >= 1024
                      else [])
    want = _whole_body_emit(SystemParams(), {"command": "emit"},
                            ["re", "im", "q"], rows).encode()
    result = runner.invoke(emit, [])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == want
    out = tmp_path / "out.csv"
    assert runner.invoke(emit, ["--out", str(out)]).exit_code == 0
    assert out.read_bytes() == want


@pytest.mark.parametrize("n_rows", [0, 1, 1025, 6561])
def test_json_document_is_unchanged(runner, tmp_path, n_rows):
    # The document is written in batches of encoder pieces, several at
    # 6,561 rows; stdout and --out hold the bytes of one json.dumps string.
    emit, rows = _emit_rows(n_rows)
    payload = {"params": dict(SystemParams().echo_items()),
               "meta": {"command": "emit"}, "columns": ["re", "im", "q"],
               "rows": rows.tolist()}
    want = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    assert runner.invoke(emit, ["--json"]).stdout_bytes == want
    out = tmp_path / "out.json"
    assert runner.invoke(emit, ["--json", "--out", str(out)]).exit_code == 0
    assert out.read_bytes() == want

