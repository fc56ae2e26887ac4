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
import importlib
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _MODULE_OF
from .errors import OpenMultError, PreconditionViolated
from .functions import (
    FiniteSpaceFunction,
    GraphFunction,
    GridFunction,
    function_from_json,
    min_modulus_sum,
    refine,
)

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
# unchanged.  int() of a JSON number past the float range raises OverflowError.
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError)


def __getattr__(name):
    # PEP 562: a command reads each public library name through this module
    # object, `_cli`, when it runs, and the name is bound here on first use, as
    # an import at the top would bind it.  So only the modules a command runs
    # are imported, and a test or tracer may patch a name here.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__package__}.{_MODULE_OF[name]}"), name)
    return value


_cli = sys.modules[__name__]


def _load_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Most nodes --grid may refine an input to.  factor-interval on 2**20 + 1
# nodes peaks at about 500 MiB resident with a JSON or a CSV report, which is
# written in pieces, so the solve's own arrays set the peak.
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
        where = args.output or "stdout"
        raise PreconditionViolated(f"{where}: {type(exc).__name__}: {exc}", bound="output") from exc


def _open_output(args):
    # Opened before the library call, as shell redirection would be.  stdout is
    # written as it is, never reopened, so `>> file` keeps what the file holds.
    if not args.output:
        return contextlib.nullcontext(sys.stdout)
    return open(args.output, "w", encoding="utf-8", newline="" if args.format == "csv" else None)


# A list of [re, im] float pairs is written this many pairs at a time, each
# chunk filled into one template: the float reprs are all it computes.
_PAIR_CHUNK = 4096
_PAIR = "[\n{0}  %s,\n{0}  %s\n{0}]"


def _write_json(write, obj, indent=""):
    """Write the bytes of json.dumps(obj, sort_keys=True, indent=2) in pieces;
    `indent` is the indentation of the line obj starts on."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj:
        write("{\n" + inner)
        for i, (key, value) in enumerate(sorted(obj.items())):
            key = key if isinstance(key, str) else json.dumps(key)  # as json turns 1.5 or None into a key
            write(f"{sep if i else ''}{json.dumps(key)}: ")
            _write_json(write, value, inner)
        write("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        write("[\n" + inner)
        pairs = set(map(type, obj)) <= {list, tuple} and set(map(len, obj)) == {2}
        if pairs and set(map(type, chain.from_iterable(obj))) == {float}:
            pair = _PAIR.format(inner)
            for start in range(0, len(obj), _PAIR_CHUNK):
                part = obj[start:start + _PAIR_CHUNK]
                text = sep.join([pair] * len(part)) % tuple(map(float.__repr__, chain.from_iterable(part)))
                if "n" in text:  # nan or inf: no finite repr and no template character is an "n"
                    text = text.replace("nan", "NaN").replace("inf", "Infinity")
                write(f"{sep if start else ''}{text}")
        else:
            for i, item in enumerate(obj):
                if i:
                    write(sep)
                _write_json(write, item, inner)
        write("\n" + indent + "]")
    else:  # a scalar, {} or []
        write(json.dumps(obj))


def _emit(fh, report, args, csv_rows, csv_header):
    if args.format == "csv":
        writer = csv.writer(fh)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        _write_json(fh.write, report)
        fh.write("\n")
    fh.flush()


@dataclass(frozen=True)
class Command:
    """One subcommand.  `__call__` holds the steps every command shares:
    load the input, decode the payload entries, refine grid functions under
    --grid, open the output, run, fill the report and emit it."""

    inputs: tuple   # (payload key, decode(data, key, *inputs decoded before it)) pairs, in `run` argument order
    run: object     # run(args, *inputs) -> (report fields, CSV rows: an iterator, read only under --format csv)
    header: tuple   # CSV header

    def __call__(self, args):
        key = None
        try:
            data = _load_input(args.input)
            inputs = []
            for key, decode in self.inputs:
                inputs.append(_maybe_refine(decode(data, key, *inputs), args.grid))
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

    def decode(data, key, *_):
        fn = function_from_json(data[key])
        if not isinstance(fn, kind):
            raise TypeError(f"expected a {kind.__name__}, got a {type(fn).__name__}")
        return fn

    return decode


GRID, GRAPH, FINITE = _sample(GridFunction), _sample(GraphFunction), _sample(FiniteSpaceFunction)


def _trials(data, key, *_):
    trials = data.get(key, 8)
    if type(trials) is not int:  # a JSON integer: not a bool, a float or a string
        raise TypeError(f"expected a JSON integer, got {trials!r}")
    return trials


def _model_spec(data, key):
    """The `model` entry ({"type": "sup"} if absent), decoded and checked once:
    an object of a known type; a diagonal one unital, with positive weights."""
    spec = data.get(key, {"type": "sup"})
    if not isinstance(spec, dict):
        raise TypeError(f"expected a JSON object, got {spec!r}")
    kind = spec.get("type")
    if kind in UNSUPPORTED_MODELS:
        raise PreconditionViolated(UNSUPPORTED_MODELS[kind], bound="model")
    if kind == "sup":
        return {"type": kind}
    if kind != "diagonal":
        raise PreconditionViolated(f"unknown model type {kind!r}", bound="model")
    if spec.get("unital", True) is not True:
        raise PreconditionViolated("only the unitisation of the diagonal algebra is supported", bound="model")
    weights = np.asarray(spec["weights"], dtype=float)
    if weights.ndim != 1 or not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise ValueError(f"weights must be one vector of positive finite numbers, got {spec['weights']!r}")
    return {"type": kind, "weights": weights}


def _scheme_element(data, key, spec, *_):
    """An element of the decoded model `spec`'s algebra: a diagonal element
    takes the model's weights, and may repeat them but not give others."""
    if spec["type"] != "diagonal":
        return FINITE(data, key)
    obj, weights = data[key], spec["weights"]
    if "weights" in obj and not np.array_equal(np.asarray(obj["weights"], dtype=float), weights):
        raise ValueError(f"weights {obj['weights']!r} differ from the model's {weights.tolist()!r}")
    return _cli.DiagonalAlgebraElement.from_json(obj, weights)


def _build_model(spec, sample):
    if spec["type"] == "sup":
        return _cli.sup_algebra_model(sample.n)
    return _cli.diagonal_algebra_model(spec["weights"])


def _pipeline_constants(eps0):
    cfg = _cli.PipelineConfig.for_target(eps0)
    return {"epsilon0": repr(cfg.epsilon0), "epsilon1": repr(cfg.epsilon1), "delta0": repr(cfg.delta0)}


def _sup_distance(x, y):
    return repr(float(np.max(np.abs(x.values - y.values))))


def _index_rows(x, y):
    for i, (vx, vy) in enumerate(zip(x.values, y.values)):
        yield [i, vx.real, vx.imag, vy.real, vy.imag]


def _node_rows(result):
    d1, d2 = result.d1, result.d2
    for t, v1, v2 in zip(d1.domain.nodes(), d1.values, d2.values):
        yield [t, v1.real, v1.imag, v2.real, v2.imag]


def _factor_interval(args, f, g, d):
    result = _cli.open_mult_interval(f, g, d, args.epsilon)
    return {"constants": _pipeline_constants(args.epsilon), "result": result.to_json()}, _node_rows(result)


def _factor_graph(args, f, g, d):
    result = _cli.open_mult_graph(f, g, d, args.epsilon)
    rows = ([ei, *row] for ei, er in enumerate(result.edge_results) for row in _node_rows(er))
    return {"constants": _pipeline_constants(args.epsilon), "result": result.to_json()}, rows


def _factor_finite(args, a, b, d):
    a2, b2 = _cli.open_mult_finite(a, b, d, args.epsilon)
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
    params = _cli.scheme_params(F, G, args.epsilon, model)
    f, g, trace = _cli.run_scheme(F, G, H, params, model)
    audit = _cli.audit_claims(trace, params)
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
    rows = ([rec.n, rec.norm_f, rec.norm_g, rec.norm_h, rec.inf_embed, rec.identity_residual] for rec in trace)
    return fields, rows


def _probe(args, f, g, trials):
    rep = _cli.probe_pipeline(f, g, args.epsilon, trials, args.seed)
    fields = {
        "constants": {"epsilon0": repr(args.epsilon), "delta0": repr(rep.delta_constructive)},
        "result": rep.to_json(),
    }
    return fields, ([repr(r), rate] for r, rate in rep.curve)


def _nondeg_approx(args, f, g):
    f2, g2 = _cli.nondeg_approx(f, g, args.epsilon)
    fields = {
        "constants": {"epsilon": repr(args.epsilon)},
        "f_prime": f2.to_json(),
        "g_prime": g2.to_json(),
        "distance_f": _sup_distance(f2, f),
        "distance_g": _sup_distance(g2, g),
        "min_joint_modulus_sq": repr(min_modulus_sum(f2, g2, squared=True)),
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
