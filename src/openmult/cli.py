"""Batch front door: load functions, run factorizations, emit reports.

Exit codes: 0 success; 2 a refusal of the input (a violated precondition or
bound, an input file or payload entry that cannot be read, or an output file
that cannot be written), with a
machine-readable diagnostic on stderr naming the violated bound, payload key
or flag; 1 internal invariant failures.  Each error class carries its code
as `exit_code`.  Reports embed the exact constants used so runs are
reproducible; re-running with the same config and seed is byte-identical
apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import finite as finite_mod
from . import graphs as graphs_mod
from . import probe as probe_mod
from . import scheme as scheme_mod
from .errors import OpenMultError, PreconditionViolated
from .functions import (
    FiniteSpaceFunction,
    GraphFunction,
    GridFunction,
    function_from_json,
    refine,
)
from .interval import PipelineConfig, open_mult_interval

# Content that is not desk-verifiable is refused explicitly.
UNSUPPORTED_MODELS = {
    "group": "group convolution algebras are not desk-verifiable here",
    "convolution": "group convolution algebras are not desk-verifiable here",
    "ultrapower": "ultrapower constructions are not desk-verifiable here",
    "bidual": "bidual algebras are not desk-verifiable here",
    "metric": "general compact metric spaces are out of scope",
    "inverse-limit": "inverse-limit spaces are out of scope",
}

# What reading the input file or decoding a payload entry raises on malformed
# input.  Only those steps turn them into PreconditionViolated (exit 2) naming
# the file or payload key; once the library call has started they propagate
# unchanged.
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


def _load_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Most nodes --grid may refine an input to.  factor-interval on 2**20 + 1
# nodes peaks at 1.45 GiB resident with a JSON report (about 1.4 KiB a node),
# so a run at the cap stays under about 2 GiB.
MAX_GRID_NODES = 2**20 + 1


def _maybe_refine(fn, grid):
    if grid is None or not isinstance(fn, GridFunction):
        return fn
    n = fn.domain.n
    if grid <= n:
        return fn
    factor = -(-(grid - 1) // (n - 1))  # ceil in integers: no float overflow for any --grid
    nodes = (n - 1) * factor + 1
    if nodes > MAX_GRID_NODES:
        raise PreconditionViolated(
            f"--grid {grid} refines to {nodes} nodes, past the cap of {MAX_GRID_NODES}",
            bound="grid", value=nodes, limit=MAX_GRID_NODES,
        )
    return refine(fn, factor)


def _writing(args, step, *step_args):
    """Run an output step; an OSError refuses the output path (exit 2)."""
    try:
        return step(*step_args)
    except OSError as exc:
        where = args.output or "/dev/stdout"
        raise PreconditionViolated(f"{where}: {type(exc).__name__}: {exc}", bound="output") from exc


def _open_output(args):
    # Opened before the library call, as shell redirection would be.
    if args.format == "json" and not args.output:
        return contextlib.nullcontext(sys.stdout)
    newline = "" if args.format == "csv" else None
    return open(args.output or "/dev/stdout", "w", encoding="utf-8", newline=newline)


def _emit(fh, report, args, csv_rows, csv_header):
    if args.format == "csv":
        writer = csv.writer(fh)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    fh.flush()


@dataclass(frozen=True)
class Command:
    """One subcommand.  `__call__` holds the steps every command shares:
    load the input, decode the payload entries, refine grid functions under
    --grid, open the output, run, fill the report and emit it."""

    inputs: tuple   # (payload key, decode(data, key)) pairs, in `run` argument order
    run: object     # run(args, *inputs) -> (report fields, CSV rows)
    header: tuple   # CSV header

    def __call__(self, args):
        key = None
        try:
            data = _load_input(args.input)
            inputs = []
            for key, decode in self.inputs:
                inputs.append(_maybe_refine(decode(data, key), args.grid))
        except _INPUT_ERRORS as exc:
            where = args.input if key is None else f"payload key {key!r}"
            raise PreconditionViolated(f"{where}: {type(exc).__name__}: {exc}", bound=key or "input") from exc
        with _writing(args, _open_output, args) as fh:
            fields, rows = self.run(args, *inputs)
            report = {"command": args.command, "epsilon": args.epsilon, "seed": args.seed, "timestamp": time.time()}
            report.update(fields)
            _writing(args, _emit, fh, report, args, rows, self.header)
        return 0


def _sample(kind):
    """Decoder of a payload entry that must be a `kind` sample function."""

    def decode(data, key):
        fn = function_from_json(data[key])
        if not isinstance(fn, kind):
            raise TypeError(f"expected a {kind.__name__}, got a {type(fn).__name__}")
        return fn

    return decode


GRID, GRAPH, FINITE = _sample(GridFunction), _sample(GraphFunction), _sample(FiniteSpaceFunction)


def _trials(data, key):
    return int(data.get(key, 8))


def _model_spec(data, key):
    return data.get(key, {"type": "sup"})


def _scheme_element(data, key):
    spec = _model_spec(data, "model")
    if spec.get("type") == "diagonal":
        return finite_mod.DiagonalAlgebraElement.from_json(data[key], spec["weights"])
    return FINITE(data, key)


def _build_model(spec_obj, sample):
    kind = spec_obj.get("type")
    if kind in UNSUPPORTED_MODELS:
        raise PreconditionViolated(UNSUPPORTED_MODELS[kind], bound="model")
    if kind == "sup":
        return scheme_mod.sup_algebra_model(sample.n)
    if kind == "diagonal":
        if not spec_obj.get("unital", True):
            raise PreconditionViolated("only the unitisation of the diagonal algebra is supported", bound="model")
        return scheme_mod.diagonal_algebra_model(np.asarray(spec_obj["weights"], dtype=float))
    raise PreconditionViolated(f"unknown model type {kind!r}", bound="model")


def _pipeline_constants(eps0):
    cfg = PipelineConfig.for_target(eps0)
    return {"epsilon0": repr(cfg.epsilon0), "epsilon1": repr(cfg.epsilon1), "delta0": repr(cfg.delta0)}


def _sup_distance(x, y):
    return repr(float(np.max(np.abs(x.values - y.values))))


def _index_rows(x, y):
    return [[i, vx.real, vx.imag, vy.real, vy.imag] for i, (vx, vy) in enumerate(zip(x.values, y.values))]


def _node_rows(result):
    d1, d2 = result.d1, result.d2
    return [[t, v1.real, v1.imag, v2.real, v2.imag] for t, v1, v2 in zip(d1.domain.nodes(), d1.values, d2.values)]


def _factor_interval(args, f, g, d):
    result = open_mult_interval(f, g, d, args.epsilon)
    return {"constants": _pipeline_constants(args.epsilon), "result": result.to_json()}, _node_rows(result)


def _factor_graph(args, f, g, d):
    result = graphs_mod.open_mult_graph(f, g, d, args.epsilon)
    rows = [[ei, *row] for ei, er in enumerate(result.edge_results) for row in _node_rows(er)]
    return {"constants": _pipeline_constants(args.epsilon), "result": result.to_json()}, rows


def _factor_finite(args, a, b, d):
    a2, b2 = finite_mod.open_mult_finite(a, b, d, args.epsilon)
    fields = {
        "constants": {"epsilon": repr(args.epsilon), "delta": repr(args.epsilon**2 / 4.0)},
        "a_prime": a2.to_json(),
        "b_prime": b2.to_json(),
        "bound_a": _sup_distance(a2, a),
        "bound_b": _sup_distance(b2, b),
    }
    return fields, _index_rows(a2, b2)


def _scheme(args, spec, F, G, H):
    model = _build_model(spec, F)
    params = scheme_mod.scheme_params(F, G, args.epsilon, model)
    f, g, trace = scheme_mod.run_scheme(F, G, H, params, model)
    audit = scheme_mod.audit_claims(trace, params)
    fields = {
        "constants": params.to_json(),
        "iterations": len(trace),
        "claims_pass": audit["pass"],
        "final_defect_norm": repr(trace.records[-1].norm_h),
        "distance_f": repr(model.norm(f - F)),
        "distance_g": repr(model.norm(g - G)),
        "trace": [rec.to_json() for rec in trace],
    }
    if args.audit:
        fields["audit"] = audit
    rows = [
        [rec.n, rec.norm_f, rec.norm_g, rec.norm_h, rec.inf_embed, rec.identity_residual]
        for rec in trace
    ]
    return fields, rows


def _probe(args, f, g, trials):
    rep = probe_mod.probe_pipeline(f, g, args.epsilon, trials, args.seed)
    fields = {
        "constants": {"epsilon0": repr(args.epsilon), "delta0": repr(rep.delta_constructive)},
        "result": rep.to_json(),
    }
    return fields, [[repr(r), rate] for r, rate in rep.curve]


def _nondeg_approx(args, f, g):
    f2, g2 = finite_mod.nondeg_approx(f, g, args.epsilon)
    fields = {
        "constants": {"epsilon": repr(args.epsilon)},
        "f_prime": f2.to_json(),
        "g_prime": g2.to_json(),
        "distance_f": _sup_distance(f2, f),
        "distance_g": _sup_distance(g2, g),
        "min_joint_modulus_sq": repr(float(np.min(np.abs(f2.values) ** 2 + np.abs(g2.values) ** 2))),
    }
    return fields, _index_rows(f2, g2)


COMMANDS = {
    "factor-interval": Command(
        (("f", GRID), ("g", GRID), ("d", GRID)), _factor_interval, ("t", "d1_re", "d1_im", "d2_re", "d2_im"),
    ),
    "factor-graph": Command(
        (("f", GRAPH), ("g", GRAPH), ("d", GRAPH)), _factor_graph, ("edge", "t", "d1_re", "d1_im", "d2_re", "d2_im"),
    ),
    "factor-finite": Command(
        (("a", FINITE), ("b", FINITE), ("d", FINITE)), _factor_finite, ("index", "a_re", "a_im", "b_re", "b_im"),
    ),
    "scheme": Command(
        (("model", _model_spec), ("F", _scheme_element), ("G", _scheme_element), ("H", _scheme_element)),
        _scheme, ("n", "norm_f", "norm_g", "norm_h", "inf_embed", "identity_residual"),
    ),
    "probe": Command((("f", GRID), ("g", GRID), ("trials", _trials)), _probe, ("r", "success_rate")),
    "nondeg-approx": Command(
        (("f", FINITE), ("g", FINITE)), _nondeg_approx, ("index", "f_re", "f_im", "g_re", "g_im"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openmult",
        description="Factor perturbed products in discretized function algebras with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input JSON")
        p.add_argument("--epsilon", type=float, required=True, help="target bound in (0, 1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--grid", type=int, default=None,
            help=f"refine grid inputs to at least this many nodes (at most {MAX_GRID_NODES} after refinement)",
        )
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--audit", action="store_true", help="embed the per-iteration claim audit")
    return parser


def _diagnostic(exc) -> str:
    diag = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("bound", "value", "limit"):
        val = getattr(exc, attr, None)
        if val is not None:
            diag[attr] = val
    return json.dumps(diag, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.epsilon < 1.0:
            raise PreconditionViolated("epsilon must lie in (0, 1)", bound="epsilon")
        return COMMANDS[args.command](args)
    except (OpenMultError, RuntimeError, AssertionError) as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
