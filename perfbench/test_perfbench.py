"""Tests of the benchmark's own inputs, output checks and span arithmetic.

They build outputs from the pinned anchors by hand, so they run in
milliseconds and never call the pipeline.
"""
import time

import pytest

import tracing
import workloads
from workloads import (BITFLIP_ALPHA2, RATES_39GHZ, STEADY_P01, check_ops,
                       make_inputs)


def _steady_row(p01):
    return [0.5 * p01, 0.5 * p01, p01, 1e-12]


def _good(workload, inputs):
    if workload == "steady_bias":
        return {"data": [_steady_row(STEADY_P01.get(v, 0.9))
                         for v in inputs["voltages"]]}
    if workload == "rates_bias":
        return {"data": [list(RATES_39GHZ) if v == 39e9 else [1.0] * 6
                         for v in inputs["voltages"]]}
    if workload == "bitflip_alpha":
        return {"data": [list(BITFLIP_ALPHA2) if a == 2.0 else [1.0, 4.0, 0.25]
                         for a in inputs["alphas"]]}
    dynamics = {"meta": {"trace_drift": "1e-13", "min_eigenvalue": "-1e-15"},
                "columns": ["time", "pop_qubit"], "n_rows": 201,
                "last_row": [1e-4, STEADY_P01[45e9] + 6.6e-12]}
    husimi = {"meta": {"norm": "0.998"}, "columns": ["re", "im", "q"],
              "n_rows": 81 * 81, "last_row": [4.0, 4.0, 0.0]}
    return {"dynamics": dynamics, "husimi": husimi}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_seeded_and_keep_anchors(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 7)
    assert a == b
    others = [make_inputs(workload, s) for s in range(8)]
    assert len({repr(x) for x in others}) > 1
    if workload == "steady_bias":
        assert set(STEADY_P01) <= set(a["voltages"])
        assert all(30e9 <= v <= 55e9 for v in a["voltages"])
    elif workload == "rates_bias":
        assert 39e9 in a["voltages"]
        assert all(0.0 <= v <= 60e9 for v in a["voltages"])
    elif workload == "bitflip_alpha":
        assert 2.0 in a["alphas"]
        assert all(1.0 <= x <= 2.5 for x in a["alphas"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_anchor_outputs_pass(workload):
    inputs = make_inputs(workload, 3)
    ok = check_ops(workload, inputs, _good(workload, inputs))
    assert ok == [True] * workloads.op_count(workload, inputs)


def _perturb(workload, inputs, result, rel):
    if workload == "steady_bias":
        k = inputs["voltages"].index(47e9)
        result["data"][k] = _steady_row(STEADY_P01[47e9] * (1 + rel))
        return k
    if workload == "rates_bias":
        k = inputs["voltages"].index(39e9)
        result["data"][k][3] *= 1 + rel
        return k
    if workload == "bitflip_alpha":
        k = inputs["alphas"].index(2.0)
        on, off, _ = BITFLIP_ALPHA2
        on *= 1 + rel
        result["data"][k] = [on, off, on / off]
        return k
    result["dynamics"]["last_row"][1] += rel
    return 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_anchor_fails_only_its_point(workload):
    inputs = make_inputs(workload, 5)
    result = _good(workload, inputs)
    k = _perturb(workload, inputs, result, 3e-6)
    ok = check_ops(workload, inputs, result)
    assert ok[k] is False
    assert ok.count(False) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbation_within_tolerance_passes(workload):
    inputs = make_inputs(workload, 5)
    result = _good(workload, inputs)
    _perturb(workload, inputs, result, 3e-7)
    assert all(check_ops(workload, inputs, result))


def test_structural_checks_fail():
    inputs = make_inputs("bitflip_alpha", 1)
    result = _good("bitflip_alpha", inputs)
    result["data"][0][2] *= 1 + 1e-9           # ratio no longer on/off
    assert check_ops("bitflip_alpha", inputs, result)[0] is False

    inputs = make_inputs("steady_bias", 1)
    result = _good("steady_bias", inputs)
    result["data"][0][3] = 1e-3                # residual too large
    assert check_ops("steady_bias", inputs, result)[0] is False
    result["data"].pop()                       # a missing point fails all
    assert check_ops("steady_bias", inputs, result) == [False] * 4

    inputs = make_inputs("cat_dynamics", 1)
    result = _good("cat_dynamics", inputs)
    result["husimi"]["meta"]["norm"] = "0.99"
    result["dynamics"]["meta"]["trace_drift"] = "2e-9"
    assert check_ops("cat_dynamics", inputs, result) == [False, False]
    assert check_ops("cat_dynamics", inputs,
                     {"dynamics": None, "husimi": None}) == [False, False]


def test_summarize_csv():
    text = ("# min_eigenvalue = -1e-17\n# trace_drift = 2e-15\n"
            "time,pop_qubit\n0,0.5\n0.0001,0.91671400051455787\n")
    doc = workloads.summarize_csv(text)
    assert doc["meta"] == {"min_eigenvalue": "-1e-17", "trace_drift": "2e-15"}
    assert doc["columns"] == ["time", "pop_qubit"]
    assert doc["n_rows"] == 2
    assert doc["last_row"] == [1e-4, 0.91671400051455787]


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.span("junction.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.span("rates.outer", body)()
    assert tracer.calls("junction.inner") == 2
    assert tracer.calls("rates.outer") == 1
    outer_total = tracer.total("rates.outer")
    assert tracer.self_time("rates.outer") == pytest.approx(
        outer_total - tracer.total("junction.inner"), abs=1e-9)
    assert tracer.layer_self("junction") == tracer.total("junction.inner")
    metrics = tracing.layer_metrics(tracer, outer_total + 0.5)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.5, abs=1e-9)
    assert metrics["quad.overhead_frac"] == 0.0
