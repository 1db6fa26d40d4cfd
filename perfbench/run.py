"""kpoqcr benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload steady_bias --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every pass runs in a fresh interpreter
(perfbench/worker.py), so set-up, CPU time and peak memory are measured
per pass; BLAS and pool threading are left as the environment sets them.

--trace 0 reports the end-to-end metrics: medians of set-up time over at
least five fresh interpreters, and of the pass time, CPU time and peak
memory over the threads = nproc passes that fit in --seconds (the first
pass always runs).
--trace 1 runs three passes, an untraced one at threads = nproc, an
untraced one at threads = 1 and a traced one at threads = 1, and reports
the per-layer metrics of the traced pass (see perfbench/tracing.py).

Every pass's outputs are checked against the pinned anchors; a point whose
check fails, or that differs bitwise from the same point of the run's first
pass, counts as failed.  The last stdout line is the JSON result; the line
before it records the environment.  Details of the run are written to
perfbench/.work/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 5
MAX_PASSES = 50
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_commit() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed)
        self.ops = workloads.op_count(workload, self.inputs)
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def launch(self, mode: str, threads: int, trace: bool = False) -> dict:
        out_dir = self.run_dir / f"pass{len(self.passes)}"
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = {"workload": self.workload, "inputs": self.inputs,
                "threads": threads, "mode": mode, "trace": trace,
                "out_dir": str(out_dir)}
        budget = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise BenchError("run deadline exceeded")
        t0 = time.monotonic()
        # Own process group, so a timeout also ends the worker's pool.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} pass timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                             f"{stderr[-2000:]}")
        result = json.loads(stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        result["threads"] = threads
        if mode == "pass":
            self._score(result)
            self.passes.append(result)
        return result

    def _score(self, result: dict) -> None:
        """Count the pass's operations and those whose outputs fail."""
        outputs = result["outputs"]
        ok = ([False] * self.ops if outputs is None else
              workloads.check_ops(self.workload, self.inputs, outputs))
        digests = _digests(self.workload, outputs, self.ops)
        if self.passes:
            first = self.passes[0]["digests"]
            ok = [good and d == f for good, d, f in zip(ok, digests, first)]
        result["digests"] = digests
        result["ok"] = ok
        self.attempted += self.ops
        self.failed += ok.count(False)


def _digests(workload: str, outputs: dict | None, ops: int) -> list:
    """Bitwise identity of each operation's output."""
    if outputs is None:
        return [None] * ops
    if workload == "cat_dynamics":
        return [outputs["dynamics_digest"], outputs["husimi_digest"]]
    rows = outputs["data"]
    if len(rows) != ops:
        return [None] * ops
    return [",".join(float(x).hex() for x in row) for row in rows]


def end_to_end(runner: Runner, seconds: float, nproc: int) -> dict:
    setups = []
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        setups.append(runner.launch("pass", nproc)["setup_s"])
        now = time.monotonic()
        # Start another pass only if, judged by this one, it ends in time.
        if (now - measure_start + (now - pass_start) > seconds
                or len(runner.passes) >= MAX_PASSES):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.launch("setup", nproc)["setup_s"])
    samples = {
        "setup_s": setups,
        "run_s": [p["run_s"] for p in runner.passes],
        "cpu_s": [p["cpu_s"] for p in runner.passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in runner.passes],
    }
    return {name: statistics.median(values)
            for name, values in samples.items()}


def per_layer(runner: Runner, nproc: int) -> dict:
    parallel = runner.launch("pass", nproc)
    serial = runner.launch("pass", 1)
    traced = runner.launch("pass", 1, trace=True)
    metrics = dict(traced["layers"])
    metrics["workflows.serial_s"] = serial["run_s"]
    metrics["workflows.parallel_speedup"] = serial["run_s"] / parallel["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - serial["run_s"]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kpoqcr" / "__init__.py").is_file():
        print(f"error: no kpoqcr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    nproc = len(os.sched_getaffinity(0))
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        if args.trace:
            values = per_layer(runner, nproc)
        else:
            values = end_to_end(runner, args.seconds, nproc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = dict(runner.passes[0]["env"], git_commit=git_commit())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": runner.inputs, "env": env,
        "passes": [{k: p[k] for k in ("threads", "setup_s", "run_s", "cpu_s",
                                      "peak_rss_mb", "error", "ok")}
                   for p in runner.passes],
        "layers": runner.passes[-1].get("layers"),
    }
    WORK.mkdir(exist_ok=True)
    log = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
