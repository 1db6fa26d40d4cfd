"""Workload inputs drawn from a seed, and the output checks of each workload.

Each workload is a list of operations: the points of one sweep, or the CLI
commands of one pass.  Inputs always contain the pinned anchor points of the
test suite; the other points are drawn from the seed, one per equal stratum
of the workload's window, so the cost of a pass barely depends on the seed.

This module imports nothing from kpoqcr: the runner uses it to build inputs
and to check outputs, the pass worker to execute them.
"""
from __future__ import annotations

import math
import random

# Pinned regression anchors of the default-parameter pipeline, with the
# tolerances of the tests that pin them (tests/test_workflows.py).
STEADY_P01 = {45e9: 0.91671400051455787, 47e9: 0.92870274966344302}
RATES_39GHZ = (94584.088971985839, 111805.53227243433, 348.11509517001872,
               412.8745551112641, 527193.80946466385, 526491.69764646725)
BITFLIP_ALPHA2 = (0.29403841495513916, 1305760.2915405035,
                  2.2518560019024621e-07)
ANCHOR_REL = 1e-6

# Output bounds of the dynamics and Husimi commands (acceptance test 8 and
# tests/test_workflows.py): a trajectory that reaches the stationary state
# stays a density matrix; a Husimi map of a cat state integrates to ~1 on
# the default +/-4 window.
QUBIT_ABS = 1e-6
TRACE_DRIFT_MAX = 1e-9
MIN_EIG_MIN = -1e-10
HUSIMI_NORM_ABS = 5e-3

WORKLOADS = ("steady_bias", "rates_bias", "bitflip_alpha", "cat_dynamics")

DYNAMICS_INITIAL = ("phi0", "phi1", "phi2", "phi3")
HUSIMI_INITIAL = ("phi_alpha", "phi_minus_alpha")
HUSIMI_POINTS = 81


def _stratified(rng: random.Random, lo: float, hi: float, n: int,
                digits: int) -> list[float]:
    """One point per equal stratum of [lo, hi], rounded to `digits`."""
    width = (hi - lo) / n
    return [round(lo + width * (k + rng.random()), digits) for k in range(n)]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's operations for one seed; anchors are always present."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "steady_bias":
        drawn = _stratified(rng, 30e9, 55e9, 2, -6)
        return {"voltages": sorted([*STEADY_P01, *drawn])}
    if workload == "rates_bias":
        drawn = _stratified(rng, 0.0, 60e9, 23, -6)
        return {"voltages": sorted([39e9, *drawn])}
    if workload == "bitflip_alpha":
        drawn = _stratified(rng, 1.0, 2.5, 3, 3)
        return {"alphas": sorted([2.0, *drawn])}
    if workload == "cat_dynamics":
        return {"dynamics_initial": rng.choice(DYNAMICS_INITIAL),
                "husimi_initial": rng.choice(HUSIMI_INITIAL)}
    raise ValueError(f"unknown workload {workload!r}")


def cli_commands(inputs: dict, threads: int, out_dir: str) -> list[list[str]]:
    """The README's dynamics and Husimi commands, writing CSV to out_dir."""
    return [
        ["dynamics", "--initial", inputs["dynamics_initial"],
         "--t-end", "1e-4", "--points", "201", "--t-qcr-on", "5e-5",
         "--threads", str(threads), "--out", f"{out_dir}/dynamics.csv"],
        ["husimi", "--source", "evolve", "--initial", inputs["husimi_initial"],
         "--time", "1e-4", "--threads", str(threads),
         "--out", f"{out_dir}/husimi.csv"],
    ]


def op_count(workload: str, inputs: dict) -> int:
    if workload == "cat_dynamics":
        return 2
    return len(inputs.get("voltages") or inputs["alphas"])


def summarize_csv(text: str) -> dict:
    """Header echo, columns, row count and last row of a kpoqcr CSV document."""
    meta, columns, n_rows, last = {}, None, 0, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            n_rows += 1
            last = line
    return {"meta": meta, "columns": columns or [], "n_rows": n_rows,
            "last_row": [float(x) for x in last.split(",")] if last else []}


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def check_ops(workload: str, inputs: dict, result: dict) -> list[bool]:
    """Per-operation pass/fail of one pass's outputs."""
    if workload == "cat_dynamics":
        return [_check_dynamics(result["dynamics"]),
                _check_husimi(result["husimi"])]
    rows = result["data"]
    axis = inputs.get("voltages") or inputs["alphas"]
    if len(rows) != len(axis):
        return [False] * len(axis)
    check = {"steady_bias": _check_steady, "rates_bias": _check_rates,
             "bitflip_alpha": _check_bitflip}[workload]
    return [check(x, row) for x, row in zip(axis, rows)]


def _check_steady(bias: float, row: list[float]) -> bool:
    p0, p1, p01, residual = row
    ok = (all(math.isfinite(v) for v in row) and _close(p0 + p1, p01, 1e-12)
          and residual < 1e-4 and 0.0 < p01 <= 1.0 + 1e-9)
    if bias in STEADY_P01:
        ok = ok and _close(p01, STEADY_P01[bias], ANCHOR_REL)
    return ok


def _check_rates(bias: float, row: list[float]) -> bool:
    ok = len(row) == len(RATES_39GHZ) and all(
        math.isfinite(v) and v >= 0.0 for v in row)
    if bias == 39e9:
        ok = ok and all(_close(g, w, ANCHOR_REL)
                        for g, w in zip(row, RATES_39GHZ))
    return ok


def _check_bitflip(alpha: float, row: list[float]) -> bool:
    on, off, ratio = row
    ok = (all(math.isfinite(v) for v in row) and off != 0.0
          and _close(ratio, on / off, 1e-12))
    if alpha == 2.0:
        ok = ok and all(_close(g, w, ANCHOR_REL)
                        for g, w in zip(row, BITFLIP_ALPHA2))
    return ok


def _check_dynamics(doc: dict | None) -> bool:
    if not doc or doc["n_rows"] != 201 or "pop_qubit" not in doc["columns"]:
        return False
    qubit = doc["last_row"][doc["columns"].index("pop_qubit")]
    return (abs(qubit - STEADY_P01[45e9]) <= QUBIT_ABS
            and float(doc["meta"]["trace_drift"]) < TRACE_DRIFT_MAX
            and float(doc["meta"]["min_eigenvalue"]) > MIN_EIG_MIN)


def _check_husimi(doc: dict | None) -> bool:
    if not doc or doc["n_rows"] != HUSIMI_POINTS ** 2:
        return False
    return abs(float(doc["meta"]["norm"]) - 1.0) <= HUSIMI_NORM_ABS
