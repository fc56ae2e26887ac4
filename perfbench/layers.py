"""Where the traced run puts its spans, and the per-layer metrics it reports.

Each target names the attribute the caller looks up at call time.  Names
imported into another module with `from .x import y` are looked up in the
importing module, so such functions are wrapped once per importing module,
under the same span name.  Public functions are wrapped where one exists;
the cover plan, the rotation phases and the direct factorization have no
public seam inside the pipeline, so their module-level helpers are wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    path: str
    name: str
    counter: object = None      # counter(rec, args, result), called after the span
    count_only: bool = False    # count calls without a span (hot scalar helpers)


def _nodes_arg0(name):
    def counter(rec, args, _result):
        rec.count(name, float(getattr(args[0], "size", 1)))
    return counter


def _circle_extend_counts(rec, args, _result):
    import numpy as np

    vals = np.asarray(getattr(args[0], "values", args[0]))
    rec.count("interval.circle_extend.nodes", float(vals.size))
    if len(args) < 2 or args[1] is None:
        rec.count("interval.circle_extend.gap_nodes",
                  float(np.count_nonzero(np.isnan(vals.real) | np.isnan(vals.imag))))
    else:
        rec.count("interval.circle_extend.gap_nodes", float(vals.size - np.count_nonzero(args[1])))


def _pipeline_tier(rec, args, result):
    meta = result[2]
    eps1 = meta.get("epsilon1")
    if eps1 is not None and meta.get("eps_cover") == 4.0 * eps1:
        rec.count("interval.cover_tier2.calls")


def _pin_kinds(rec, _args, result):
    for pin in result.values():
        rec.count(f"graphs.{pin.kind}_pins")


def _scheme_iterations(rec, _args, result):
    rec.count("scheme.iterations", float(len(result[2])))


def _probe_counts(rec, _args, report):
    trials = len(report.curve) * report.samples
    rec.count("probe.trials", float(trials))
    rec.count("probe.successes", sum(rate * report.samples for _r, rate in report.curve))
    if report.curve and report.curve[-1][1] == 1.0:
        rec.count("probe.saturated")


TARGETS = (
    Target("openmult.functions._as_complex_array", "functions.validate"),
    Target("openmult.functions.GraphDomain.incident", "functions.incident"),
    Target("openmult.functions.GraphFunction._check_vertex_agreement", "functions.vertex_check"),
    Target("openmult.functions.function_from_json", "functions.from_json"),
    Target("openmult.cli.function_from_json", "functions.from_json"),
    Target("openmult.functions.GridFunction.to_json", "functions.to_json"),
    Target("openmult.functions.FiniteSpaceFunction.to_json", "functions.to_json"),
    Target("openmult.functions.GraphFunction.to_json", "functions.to_json"),
    Target("openmult.interval.smaller_root_vec", "quadratic.smaller_root",
           _nodes_arg0("quadratic.smaller_root.nodes")),
    Target("openmult.graphs.smaller_root_vec", "quadratic.smaller_root",
           _nodes_arg0("quadratic.smaller_root.nodes")),
    Target("openmult.interval.open_mult_interval", "interval.open_mult_interval"),
    Target("openmult.probe.open_mult_interval", "interval.open_mult_interval"),
    Target("openmult.cli.open_mult_interval", "interval.open_mult_interval"),
    Target("openmult.interval.factorize_interval_arrays", "interval.pipeline", _pipeline_tier),
    Target("openmult.graphs.factorize_interval_arrays", "interval.pipeline", _pipeline_tier),
    Target("openmult.interval._plan_cover", "interval.cover_plan"),
    Target("openmult.interval._nondeg_phase_arrays", "interval.phases"),
    Target("openmult.interval.circle_extend", "interval.circle_extend", _circle_extend_counts),
    Target("openmult.interval._factor_arrays", "interval.direct_factor",
           _nodes_arg0("interval.direct_factor.nodes")),
    Target("openmult.graphs.open_mult_graph", "graphs.open_mult_graph"),
    Target("openmult.graphs._vertex_pins", "graphs.vertex_pins", _pin_kinds),
    Target("openmult.finite.open_mult_finite", "finite.open_mult_finite"),
    Target("openmult.finite.scalar_factor", "finite.scalar_factor", count_only=True),
    Target("openmult.finite.nondeg_approx", "finite.nondeg_approx"),
    Target("openmult.scheme.run_scheme", "scheme.run_scheme", _scheme_iterations),
    Target("openmult.scheme.audit_claims", "scheme.audit_claims"),
    Target("openmult.probe.probe_pipeline", "probe.probe_pipeline", _probe_counts),
    Target("openmult.cli._load_input", "cli.load"),
    Target("openmult.cli._emit", "cli.emit"),
    Target("openmult.cli.COMMANDS[*]", "cli.command"),
)

# Reported per-layer metrics: (metric, unit, source kind, source name).
# kind "self" = self time per op (ms), "calls" = spans per op,
# "count" = counter per op.
LAYER_METRICS = (
    ("functions.validate.self_ms", "ms", "self", "functions.validate"),
    ("functions.validate.calls", "count", "calls", "functions.validate"),
    ("functions.incident.self_ms", "ms", "self", "functions.incident"),
    ("functions.incident.calls", "count", "calls", "functions.incident"),
    ("functions.vertex_check.self_ms", "ms", "self", "functions.vertex_check"),
    ("functions.from_json.self_ms", "ms", "self", "functions.from_json"),
    ("functions.to_json.self_ms", "ms", "self", "functions.to_json"),
    ("quadratic.smaller_root.self_ms", "ms", "self", "quadratic.smaller_root"),
    ("quadratic.smaller_root.nodes", "count", "count", "quadratic.smaller_root.nodes"),
    ("interval.open_mult_interval.self_ms", "ms", "self", "interval.open_mult_interval"),
    ("interval.pipeline.self_ms", "ms", "self", "interval.pipeline"),
    ("interval.cover_plan.self_ms", "ms", "self", "interval.cover_plan"),
    ("interval.cover_tier2", "count", "count", "interval.cover_tier2.calls"),
    ("interval.phases.self_ms", "ms", "self", "interval.phases"),
    ("interval.phases.calls", "count", "calls", "interval.phases"),
    ("interval.circle_extend.self_ms", "ms", "self", "interval.circle_extend"),
    ("interval.circle_extend.nodes", "count", "count", "interval.circle_extend.nodes"),
    ("interval.circle_extend.gap_nodes", "count", "count", "interval.circle_extend.gap_nodes"),
    ("interval.direct_factor.self_ms", "ms", "self", "interval.direct_factor"),
    ("interval.direct_factor.nodes", "count", "count", "interval.direct_factor.nodes"),
    ("graphs.open_mult_graph.self_ms", "ms", "self", "graphs.open_mult_graph"),
    ("graphs.vertex_pins.self_ms", "ms", "self", "graphs.vertex_pins"),
    ("graphs.cover_pins", "count", "count", "graphs.cover_pins"),
    ("graphs.nondeg_pins", "count", "count", "graphs.nondeg_pins"),
    ("finite.open_mult_finite.self_ms", "ms", "self", "finite.open_mult_finite"),
    ("finite.scalar_factor.calls", "count", "count", "finite.scalar_factor"),
    ("finite.nondeg_approx.self_ms", "ms", "self", "finite.nondeg_approx"),
    ("scheme.run_scheme.self_ms", "ms", "self", "scheme.run_scheme"),
    ("scheme.iterations", "count", "count", "scheme.iterations"),
    ("scheme.audit_claims.self_ms", "ms", "self", "scheme.audit_claims"),
    ("probe.probe_pipeline.self_ms", "ms", "self", "probe.probe_pipeline"),
    ("probe.trials", "count", "count", "probe.trials"),
    ("probe.saturated", "count", "count", "probe.saturated"),
    ("cli.import_ms", "ms", "self", "cli.import"),
    ("cli.load.self_ms", "ms", "self", "cli.load"),
    ("cli.emit.self_ms", "ms", "self", "cli.emit"),
    ("cli.command.self_ms", "ms", "self", "cli.command"),
)


def layer_values(self_ms, calls, counts):
    """{metric: (value, unit)} for LAYER_METRICS plus the derived ratio."""
    source = {"self": self_ms, "calls": calls, "count": counts}
    out = {name: (source[kind].get(key, 0.0), unit) for name, unit, kind, key in LAYER_METRICS}
    trials = counts.get("probe.trials", 0.0)
    ratio = counts.get("probe.successes", 0.0) / trials if trials > 0 else 0.0
    out["probe.trial_success_ratio"] = (ratio, "ratio")
    return out
