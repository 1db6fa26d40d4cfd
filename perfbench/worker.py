"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, its inputs, the thread count, the mode
("setup" stops once the pass could begin) and whether to trace.  The worker
prints one JSON object: the monotonic clock reading at which set-up ended
and, for a pass, its wall and CPU seconds, peak memory, raw outputs and,
when traced, the per-layer figures.  Set-up is everything a fresh process
does before the pass: importing kpoqcr, building the workload's one-time
objects and the first BLAS call.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kpoqcr.cli  # noqa: E402
import kpoqcr.workflows as workflows  # noqa: E402
from kpoqcr import SystemParams  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _usage() -> tuple[float, float]:
    """CPU seconds of this process plus its reaped children, and the peak
    RSS of this process plus that of its largest child, in MiB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def build(spec: dict, tracer=None):
    """The workload's one-time objects, as a callable that runs one pass."""
    name, inputs, threads = spec["workload"], spec["inputs"], spec["threads"]
    params = SystemParams()
    if name == "cat_dynamics":
        commands = workloads.cli_commands(inputs, threads, spec["out_dir"])
        main = kpoqcr.cli.main.main
        if tracer is not None:
            main = tracer.span("cli.main", main)

        def run():
            ok = []
            for argv in commands:
                try:
                    main(args=argv, prog_name="kpoqcr", standalone_mode=False)
                    ok.append(True)
                except (Exception, SystemExit) as exc:  # a failed command
                    print(f"{argv[0]}: {exc!r}", file=sys.stderr)
                    ok.append(False)
            return ok
        return run

    if name == "steady_bias":
        voltages = np.array(inputs["voltages"])
        return lambda: workflows.steady_sweep(params, voltages, threads=threads)
    if name == "rates_bias":
        voltages = np.array(inputs["voltages"])
        return lambda: workflows.rates_sweep(params, "voltage", voltages,
                                             threads=threads)
    if name == "bitflip_alpha":
        alphas = np.array(inputs["alphas"])
        return lambda: workflows.bitflip_sweep(params, alphas, threads=threads)
    raise ValueError(f"unknown workload {name!r}")


def _cli_outputs(out_dir: str, ran: list[bool]) -> dict:
    out = {}
    for key, ok in zip(("dynamics", "husimi"), ran):
        path = Path(out_dir) / f"{key}.csv"
        if not ok or not path.is_file():
            out[key], out[key + "_digest"] = None, None
            continue
        text = path.read_text()
        out[key] = workloads.summarize_csv(text)
        out[key + "_digest"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = build(spec, tracer)
    # First BLAS and LAPACK calls, so their lazy start-up counts as set-up.
    probe = np.linspace(1.0, 2.0, 64 * 64).reshape(64, 64)
    np.linalg.eigh(probe @ probe.T)
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}

    cpu0, _ = _usage()
    start = time.perf_counter()
    try:
        result = run()
        error = None
    except Exception as exc:  # a failing sweep fails all of its points
        result, error = None, f"{type(exc).__name__}: {exc}"
    pass_s = time.perf_counter() - start
    cpu1, peak = _usage()

    out = {"ready": ready, "run_s": pass_s, "cpu_s": cpu1 - cpu0,
           "peak_rss_mb": peak, "error": error, "env": environment()}
    if spec["workload"] == "cat_dynamics":
        out["outputs"] = _cli_outputs(spec["out_dir"], result or [False] * 2)
    elif result is not None:
        out["outputs"] = {"data": result.data.tolist()}
    else:
        out["outputs"] = None
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, pass_s)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
