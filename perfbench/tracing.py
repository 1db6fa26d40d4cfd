"""Span tracing of kpoqcr's layers from outside the package.

`install()` replaces the layers' public functions, in the module namespaces
where the pipeline looks them up, with wrappers that record a span per call.
Nothing in kpoqcr is edited; the wrappers exist only in a traced pass.

A span's self time is its duration minus the durations of the spans it
directly encloses.  A layer's self time is the sum of the self times of the
spans named after it; what no span covers is the unattributed remainder.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "workflows", "spectrum", "rates", "junction", "quad",
          "dynamics")


class Tracer:
    """In-memory span statistics: calls, total and self seconds per name."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._children = []   # open spans' accumulated child time

    def span(self, name: str, fn):
        stats, stack = self.stats[name], self._children

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child

        return wrapped

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_self(self, layer: str) -> float:
        return sum((s[2] for name, s in self.stats.items()
                    if name.split(".")[0] == layer), 0.0)


def _patch(tracer: Tracer, module, attr: str, name: str) -> None:
    setattr(module, attr, tracer.span(name, getattr(module, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every layer function the workloads reach."""
    import kpoqcr.cli as cli
    import kpoqcr.junction as junction
    import kpoqcr.rates as rates
    import kpoqcr.workflows as workflows
    from kpoqcr.errors import QuadratureError

    # quad: the adaptive integrator as junction calls it, plus the integrand
    # it is handed.  The integrand is junction code (DOS times Fermi
    # factors), so its span belongs to junction and quad's self time is the
    # quadrature bookkeeping alone.
    adaptive_gk = junction.adaptive_gk

    def traced_gk(fn, *args, **kwargs):
        integrand = tracer.span("junction.integrand", fn)

        def counted(eps):
            tracer.counts["quad.points"] += eps.size
            return integrand(eps)

        try:
            return adaptive_gk(counted, *args, **kwargs)
        except QuadratureError:
            tracer.counts["quad.failed"] += 1
            raise

    junction.adaptive_gk = tracer.span("quad.adaptive_gk", traced_gk)

    _patch(tracer, junction, "pat_integral", "junction.pat_integral")
    _patch(tracer, junction.PatIntegrator, "forward", "junction.lookup")
    _patch(tracer, junction.PatIntegrator, "backward", "junction.lookup")
    for module in (workflows, rates):
        _patch(tracer, module, "charge_distribution",
               "junction.charge_distribution")
        _patch(tracer, module, "eta_table", "rates.eta_table")
        _patch(tracer, module, "match_sets", "rates.match_sets")
    for attr in ("rate_table", "transition_rate", "qcr_bitflip_rate"):
        _patch(tracer, workflows, attr, f"rates.{attr}")
    _patch(tracer, workflows, "diagonalize_kpo", "spectrum.diagonalize_kpo")
    for attr in ("assemble_generator", "steady_state", "evolve", "husimi_q",
                 "initial_state"):
        _patch(tracer, workflows, attr, f"dynamics.{attr}")
    for attr in ("steady_sweep", "rates_sweep", "bitflip_sweep"):
        _patch(tracer, workflows, attr, f"workflows.{attr}")
    for attr in ("dynamics_run", "husimi_run"):
        _patch(tracer, cli, attr, f"workflows.{attr}")


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """The per-layer figures of one traced pass."""
    t = tracer
    quad_s = t.total("quad.adaptive_gk")
    integrand_s = t.total("junction.integrand")
    lookups = t.calls("junction.lookup")
    integrals = t.calls("junction.pat_integral")
    out = {
        "quad.calls": t.calls("quad.adaptive_gk"),
        "quad.s": quad_s,
        "quad.integrand_calls": t.calls("junction.integrand"),
        "quad.points": t.counts["quad.points"],
        "quad.integrand_s": integrand_s,
        "quad.overhead_s": quad_s - integrand_s,
        "quad.overhead_frac": (quad_s - integrand_s) / quad_s if quad_s else 0.0,
        "quad.failed": t.counts["quad.failed"],
        "junction.lookups": lookups,
        "junction.integrals": integrals,
        "junction.hit_ratio": 1.0 - integrals / lookups if lookups else 0.0,
        "junction.pat_self_s": t.self_time("junction.pat_integral"),
        "junction.charge_distribution_s": t.total("junction.charge_distribution"),
        "rates.rate_table_calls": t.calls("rates.rate_table"),
        "rates.rate_table_self_s": t.self_time("rates.rate_table"),
        "rates.transition_rate_calls": t.calls("rates.transition_rate"),
        "rates.transition_rate_self_s": t.self_time("rates.transition_rate"),
        "rates.eta_table_s": t.total("rates.eta_table"),
        "rates.match_sets_s": t.total("rates.match_sets"),
        "spectrum.diagonalize_calls": t.calls("spectrum.diagonalize_kpo"),
        "spectrum.diagonalize_s": t.total("spectrum.diagonalize_kpo"),
        "dynamics.assemble_s": t.total("dynamics.assemble_generator"),
        "dynamics.steady_calls": t.calls("dynamics.steady_state"),
        "dynamics.steady_s": t.total("dynamics.steady_state"),
        "dynamics.evolve_calls": t.calls("dynamics.evolve"),
        "dynamics.evolve_s": t.total("dynamics.evolve"),
        "dynamics.husimi_s": t.total("dynamics.husimi_q"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self(layer)
    out["trace.unattributed_s"] = pass_s - sum(
        out[f"{layer}.self_s"] for layer in LAYERS)
    return out
