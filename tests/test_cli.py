import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openmult
import openmult.cli as cli_mod
import openmult.errors as errors
from openmult.cli import main
from openmult.functions import FiniteSpaceFunction, GridFunction, IntervalDomain
from openmult.interval import delta0

DOM = IntervalDomain(0.0, 1.0, 129)
T = DOM.nodes()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def interval_triple(tmp_path, d_scale):
    f = GridFunction(DOM, np.exp(2j * np.pi * T))
    g = GridFunction(DOM, np.full(DOM.n, 1.0 + 0j))
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
    if d_scale == 0:
        dv = np.zeros(DOM.n, dtype=complex)
    else:
        dv = raw * (d_scale / np.max(np.abs(raw)))
    d = GridFunction(DOM, dv)
    return write_json(tmp_path / "in.json", {"f": f.to_json(), "g": g.to_json(), "d": d.to_json()})


class _RefineCalled(Exception):
    pass


def _refine_stopped(factors):
    """A stand-in for refine that records its factor and stops before allocating."""

    def refine(fn, factor):
        factors.append(factor)
        raise _RefineCalled

    return refine


class TestFactorInterval:
    def test_zero_perturbation_exit_zero(self, tmp_path, capsys):
        path = interval_triple(tmp_path, 0)
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        d1 = out["result"]["d1"]["values"]
        assert all(v == [0.0, 0.0] for v in d1)

    def test_oversized_perturbation_exit_two(self, tmp_path, capsys):
        path = interval_triple(tmp_path, 2 * delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        diag = json.loads(err)
        assert diag["error"] == "PerturbationTooLarge"
        assert diag["bound"] == "delta0"

    def test_report_embeds_constants(self, tmp_path, capsys):
        path = interval_triple(tmp_path, delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        consts = out["constants"]
        assert float(consts["delta0"]) == pytest.approx(delta0(0.7))
        assert float(consts["epsilon1"]) == pytest.approx(0.1)

    def test_csv_output(self, tmp_path):
        path = interval_triple(tmp_path, delta0(0.7))
        out_csv = tmp_path / "out.csv"
        code = main([
            "factor-interval", "--input", path, "--epsilon", "0.7",
            "--format", "csv", "--output", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "t,d1_re,d1_im,d2_re,d2_im"
        assert len(lines) == DOM.n + 1

    def test_grid_refinement_flag(self, tmp_path, capsys):
        path = interval_triple(tmp_path, delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7", "--grid", "257"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["d1"]["domain"]["n"] == 257

    @pytest.mark.parametrize("grid", ["2", "129"])
    def test_grid_at_or_below_the_input_keeps_it(self, tmp_path, capsys, grid):
        path = interval_triple(tmp_path, delta0(0.7))
        assert main(["factor-interval", "--input", path, "--epsilon", "0.7", "--grid", grid]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["d1"]["domain"]["n"] == DOM.n

    def test_grid_past_the_cap_refused_before_refining(self, tmp_path, capsys, monkeypatch):
        import openmult.cli as cli

        monkeypatch.setattr(cli, "refine", _refine_stopped([]))
        path = interval_triple(tmp_path, delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7", "--grid", "100000000"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "PreconditionViolated"
        assert diag["bound"] == "grid"
        assert diag["value"] == 128 * 781250 + 1  # (n-1)*ceil((grid-1)/(n-1)) + 1
        assert diag["limit"] == cli.MAX_GRID_NODES

    def test_grid_past_float_range_refused(self, tmp_path, capsys, monkeypatch):
        import openmult.cli as cli

        monkeypatch.setattr(cli, "refine", _refine_stopped([]))
        path = interval_triple(tmp_path, delta0(0.7))
        assert main(["factor-interval", "--input", path, "--epsilon", "0.7", "--grid", "1" + "0" * 400]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["bound"] == "grid"

    def test_grid_at_the_cap_is_refined(self, tmp_path, monkeypatch):
        import openmult.cli as cli

        factors = []
        monkeypatch.setattr(cli, "refine", _refine_stopped(factors))
        path = interval_triple(tmp_path, delta0(0.7))
        with pytest.raises(_RefineCalled):
            main(["factor-interval", "--input", path, "--epsilon", "0.7", "--grid", str(cli.MAX_GRID_NODES)])
        assert (DOM.n - 1) * factors[0] + 1 == cli.MAX_GRID_NODES

    def test_idempotent_reports(self, tmp_path):
        path = interval_triple(tmp_path, delta0(0.7))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["factor-interval", "--input", path, "--epsilon", "0.7", "--seed", "5", "--output", str(out1)]) == 0
        assert main(["factor-interval", "--input", path, "--epsilon", "0.7", "--seed", "5", "--output", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestFactorGraph:
    def test_theta_graph(self, tmp_path, capsys):
        n = 65
        t = np.linspace(0, 1, n)
        edges = [{"u": "u", "v": "v", "a": 0.0, "b": 1.0, "n": n} for _ in range(2)]
        dom_obj = {"type": "graph", "vertices": ["u", "v"], "edges": edges}
        fe = np.exp(1j * np.pi * t)
        ge = 0.8 * np.exp(-1j * np.pi * t)
        rng = np.random.default_rng(1)
        de = t * (1 - t) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        de = de * (delta0(0.7) / np.max(np.abs(de)))

        def vals(arr):
            return [[float(v.real), float(v.imag)] for v in arr]

        payload = {
            "f": {"domain": dom_obj, "values": [vals(fe), vals(fe)]},
            "g": {"domain": dom_obj, "values": [vals(ge), vals(ge)]},
            "d": {"domain": dom_obj, "values": [vals(de), vals(de * 0.5)]},
        }
        path = write_json(tmp_path / "graph.json", payload)
        code = main(["factor-graph", "--input", path, "--epsilon", "0.7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["result"]["edges"]) == 2
        assert float(out["result"]["residual"]) < 1e-9 * 10

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_vertex_exit_two(self, tmp_path, capsys, scale):
        # |f|^2 overflows at the vertices: a named refusal, not a traceback
        payload = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "theta_graph.json").read_text())
        payload["f"]["values"] = [[[x * scale, y * scale] for x, y in edge] for edge in payload["f"]["values"]]
        path = write_json(tmp_path / "graph.json", payload)
        code = main(["factor-graph", "--input", path, "--epsilon", "0.7"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "PreconditionViolated"
        assert diag["bound"] == "|f|^2 + |g|^2 finite at vertex"

    def test_graph_without_edges(self, tmp_path, capsys):
        sample = {"domain": {"type": "graph", "vertices": ["lonely"], "edges": []}, "values": []}
        path = write_json(tmp_path / "graph.json", {"f": sample, "g": sample, "d": sample})
        code = main(["factor-graph", "--input", path, "--epsilon", "0.7"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["edges"] == []
        assert result["vertices"] == {"lonely": {"kind": "trivial", "d1": [0.0, 0.0], "d2": [0.0, 0.0], "agreement": "0.0"}}
        assert (result["residual"], result["bound1"], result["bound2"]) == ("0.0", "0.0", "0.0")

    def test_near_agreeing_vertex(self, tmp_path, capsys):
        # d at the shared vertex differs between edges within the vertex tolerance
        from test_graphs import near_agreeing_graph

        graph, fe, ge, de = near_agreeing_graph()
        edges = [{"u": u, "v": v, "a": dom.a, "b": dom.b, "n": dom.n} for u, v, dom in graph.edges]
        dom_obj = {"type": "graph", "vertices": list(graph.vertices), "edges": edges}

        def sample(arrays):
            return {"domain": dom_obj, "values": [[[float(z.real), float(z.imag)] for z in a] for a in arrays]}

        path = write_json(tmp_path / "graph.json", {"f": sample(fe), "g": sample(ge), "d": sample(de)})
        code = main(["factor-graph", "--input", path, "--epsilon", "0.7"])
        assert code == 0
        assert float(json.loads(capsys.readouterr().out)["result"]["residual"]) <= 1e-9


class TestFactorFinite:
    def test_basic(self, tmp_path, capsys):
        a = FiniteSpaceFunction([2.0, 0.0, 1j])
        b = FiniteSpaceFunction([3.0, 0.0, -1j])
        d = FiniteSpaceFunction([0.05, 0.06, 0.05j])
        path = write_json(tmp_path / "fin.json", {"a": a.to_json(), "b": b.to_json(), "d": d.to_json()})
        code = main(["factor-finite", "--input", path, "--epsilon", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert float(out["bound_a"]) <= 0.5
        assert float(out["bound_b"]) <= 0.5


class TestScheme:
    def _payload(self, tmp_path, n=64):
        t = np.linspace(0, 1, n)
        F = FiniteSpaceFunction(1.2 + 0.5 * np.exp(2j * np.pi * t))
        G = FiniteSpaceFunction(np.exp(-2j * np.pi * t))
        # H sized against the known constants for this pair
        from openmult import scheme_params, sup_algebra_model

        p = scheme_params(F, G, 0.5, sup_algebra_model(n))
        rng = np.random.default_rng(2)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        H = FiniteSpaceFunction(raw / np.max(np.abs(raw)) * 0.99 * p.delta)
        return write_json(
            tmp_path / "scheme.json",
            {"model": {"type": "sup"}, "F": F.to_json(), "G": G.to_json(), "H": H.to_json()},
        )

    def test_trace_written_with_claims(self, tmp_path):
        path = self._payload(tmp_path)
        out = tmp_path / "report.json"
        code = main(["scheme", "--input", path, "--epsilon", "0.5", "--audit", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["claims_pass"] is True
        assert rep["audit"]["pass"] is True
        assert len(rep["trace"]) == rep["iterations"]
        for key in ("gamma", "K", "That", "T", "delta"):
            assert key in rep["constants"]

    def test_unsupported_model_refused(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        data = json.loads(open(path).read())
        data["model"] = {"type": "group"}
        path2 = write_json(tmp_path / "bad.json", data)
        code = main(["scheme", "--input", path2, "--epsilon", "0.5"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "not desk-verifiable" in diag["message"]

    def test_unknown_model_refused(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        data = json.loads(open(path).read())
        data["model"] = {"type": "mystery"}
        path2 = write_json(tmp_path / "bad2.json", data)
        code = main(["scheme", "--input", path2, "--epsilon", "0.5"])
        assert code == 2


    # F and G of the bundled fixture scaled past what the scheme's constants
    # can hold as floats: a refusal naming the constant, not a traceback
    @pytest.mark.parametrize("scale, bound", [
        (1e-300, "0 < That < inf"), (1e-150, "0 < That < inf"), (1e150, "0 < delta < inf"), (1e300, "0 < That < inf"),
    ])
    def test_constants_past_the_float_range_exit_two(self, tmp_path, capsys, scale, bound):
        data = json.loads((FIXTURE_DIR / "scheme_64.json").read_text())
        for key in ("F", "G"):
            data[key]["values"] = (np.array(data[key]["values"]) * scale).tolist()
        assert main(["scheme", "--input", write_json(tmp_path / "scaled.json", data), "--epsilon", "0.5"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (diag["error"], diag["bound"]) == ("PreconditionViolated", bound)


class TestBundledFixtures:
    from pathlib import Path

    FIXTURES = str(Path(__file__).resolve().parent.parent / "fixtures")

    def test_scheme_fixture(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "scheme", "--input", f"{self.FIXTURES}/scheme_64.json",
            "--epsilon", "0.5", "--audit", "--output", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["claims_pass"] is True
        assert rep["audit"]["pass"] is True

    def test_interval_fixture(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "factor-interval", "--input", f"{self.FIXTURES}/interval_joint_zero.json",
            "--epsilon", "0.7", "--output", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert float(rep["result"]["residual"]) <= 1e-9 * 10

    def test_graph_fixture(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "factor-graph", "--input", f"{self.FIXTURES}/theta_graph.json",
            "--epsilon", "0.7", "--output", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert float(rep["result"]["residual"]) <= 1e-9 * 10


class TestProbeCommand:
    def test_probe_csv(self, tmp_path):
        f = GridFunction.constant(IntervalDomain(0.0, 1.0, 65), 1.0)
        payload = {"f": f.to_json(), "g": f.to_json(), "trials": 2}
        path = write_json(tmp_path / "probe.json", payload)
        out = tmp_path / "curve.csv"
        code = main([
            "probe", "--input", path, "--epsilon", "0.5", "--seed", "3",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,success_rate"

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        f = GridFunction.constant(IntervalDomain(0.0, 1.0, 65), 1.0)
        path = write_json(tmp_path / "probe.json", {"f": f.to_json(), "g": f.to_json(), "trials": 2})
        assert main(["probe", "--input", path, "--epsilon", "0.5", "--seed", "-1"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (diag["error"], diag["bound"], diag["value"]) == ("PreconditionViolated", "seed", -1)


class TestNondegApproxCommand:
    def test_basic(self, tmp_path, capsys):
        f = FiniteSpaceFunction([1.0, 0.0])
        g = FiniteSpaceFunction([0.0, 0.0])
        path = write_json(tmp_path / "nd.json", {"f": f.to_json(), "g": g.to_json()})
        code = main(["nondeg-approx", "--input", path, "--epsilon", "0.6"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert float(out["min_joint_modulus_sq"]) > 0


class TestArgumentHandling:
    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor-ultrapower", "--input", "x", "--epsilon", "0.5"])
        assert exc.value.code == 2

    def test_epsilon_out_of_range(self, tmp_path, capsys):
        path = interval_triple(tmp_path, 0)
        code = main(["factor-interval", "--input", path, "--epsilon", "1.5"])
        assert code == 2

    def test_underflowing_epsilon_exit_two(self, tmp_path, capsys):
        path = interval_triple(tmp_path, 0)
        code = main(["factor-interval", "--input", path, "--epsilon", "5e-324"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "PreconditionViolated"
        assert "eps0" in diag["bound"] and "underflow" in diag["bound"]

    def test_internal_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        import openmult.cli as cli_mod

        def boom(*args, **kwargs):
            raise openmult.InternalInvariantError("internal invariant failed: injected")

        monkeypatch.setattr(cli_mod, "open_mult_interval", boom)
        path = interval_triple(tmp_path, delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
        assert code == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "InternalInvariantError"

    def test_foreign_exception_tracebacks(self, tmp_path, monkeypatch):
        # Only an OpenMultError is a diagnostic: any other exception is a bug.
        def boom(*args, **kwargs):
            raise RuntimeError("not a library error")

        monkeypatch.setattr(cli_mod, "open_mult_interval", boom)
        path = interval_triple(tmp_path, delta0(0.7))
        with pytest.raises(RuntimeError, match="not a library error"):
            main(["factor-interval", "--input", path, "--epsilon", "0.7"])


INTERNAL_ERRORS = ("InternalInvariantError", "VertexInconsistency", "ClaimViolation", "NonConvergence")
ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.OpenMultError)
)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_exit_code(name):
    # The exit code follows where a class sits: under InternalInvariantError
    # a bug (1), anywhere else under OpenMultError a refusal (2).
    cls = getattr(errors, name)
    assert cls.exit_code == (1 if name in INTERNAL_ERRORS else 2)
    assert issubclass(cls, errors.InternalInvariantError) == (name in INTERNAL_ERRORS)
    assert ("exit_code" in vars(cls)) == (name in ("OpenMultError", "InternalInvariantError"))


def test_fifteen_error_classes():
    assert len(ERROR_CLASSES) == 15


def _malformed_payload(tmp_path, case):
    """Input path for one malformed factor-interval input, and the bound the
    diagnostic must name."""
    if case == "missing file":
        return str(tmp_path / "absent.json"), "input"
    if case == "bad json":
        path = tmp_path / "bad.json"
        path.write_text('{"f": [1, 2')
        return str(path), "input"
    if case == "csv input":
        path = tmp_path / "one.csv"
        path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
        return str(path), "input"
    if case == "deeply nested json":  # json refuses it with RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"f": ' + "[" * 200000 + "]" * 200000 + "}")
        return str(path), "input"
    data = json.loads(Path(interval_triple(tmp_path, delta0(0.7))).read_text())
    if case == "missing d":
        del data["d"]
        return write_json(tmp_path / "no_d.json", data), "d"
    if case == "wrong value count":
        data["d"]["values"] = data["d"]["values"][:5]
        return write_json(tmp_path / "short_d.json", data), "d"
    if case == "nan value":
        data["d"]["values"][3] = [float("nan"), 0.0]
        return write_json(tmp_path / "nan_d.json", data), "d"
    assert case == "finite payload"
    finite = {k: FiniteSpaceFunction(np.full(4, 0.5 + 0j)).to_json() for k in ("f", "g", "d")}
    return write_json(tmp_path / "finite.json", finite), "f"


@pytest.mark.parametrize(
    "case",
    ["missing file", "bad json", "csv input", "deeply nested json", "missing d", "wrong value count", "nan value",
     "finite payload"],
)
def test_malformed_input_exit_two(tmp_path, capsys, case):
    path, bound = _malformed_payload(tmp_path, case)
    code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "PreconditionViolated"
    assert diag["bound"] == bound
    assert diag["message"].startswith(path if bound == "input" else f"payload key {bound!r}: ")


def test_recursion_decoding_a_payload_key_exit_two(tmp_path, capsys, monkeypatch):
    # No decoder recurses on an entry that json has read (a too deeply nested
    # file is refused as "input"), so a stand-in decoder does.
    def deep(obj):
        return deep(obj)

    monkeypatch.setattr(cli_mod, "function_from_json", deep)
    assert main(["factor-interval", "--input", interval_triple(tmp_path, delta0(0.7)), "--epsilon", "0.7"]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (diag["error"], diag["bound"]) == ("PreconditionViolated", "f")
    assert diag["message"].startswith("payload key 'f': RecursionError: ")


def _unnamed_refusal(tmp_path, monkeypatch, case):
    """(argv, diagnostic) of a refusal that names its bound and, where it is
    known, the offending node."""
    finite = {k: FiniteSpaceFunction(np.full(n, v)).to_json() for k, n, v in (("F", 4, 1.0), ("G", 3, 1.0), ("H", 4, 0.0))}
    if case == "scheme domains":
        diag = {"error": "DomainMismatch", "bound": "common domain",
                "message": "FiniteSpaceFunction and FiniteSpaceFunction live on different domains"}
        return ["scheme", "--input", write_json(tmp_path / "in.json", finite), "--epsilon", "0.5"], diag
    if case == "scheme zero pair":
        zero = {k: FiniteSpaceFunction(np.zeros(4)).to_json() for k in "FGH"}
        diag = {"error": "DegeneratePair", "bound": "inf |F| + |G| > 0", "value": 0.0,
                "message": "inf over embedding nodes of |F| + |G| vanishes"}
        return ["scheme", "--input", write_json(tmp_path / "in.json", zero), "--epsilon", "0.5"], diag
    dom = IntervalDomain(0.0, 1.0, 9)
    step = GridFunction(dom, np.where(dom.nodes() < 0.5, 0.0, 1.0))
    d = GridFunction.constant(dom, 0.5 * delta0(0.7))
    path = write_json(tmp_path / "in.json", {"f": step.to_json(), "g": step.to_json(), "d": d.to_json()})
    argv = ["factor-interval", "--input", path, "--epsilon", "0.7"]
    if case == "cover seam":
        diag = {"error": "CoverInfeasible", "bound": "h > eta1 at a cover seam", "value": 3,
                "message": "cover seam at node 3 has h <= eta1; refine the grid"}
        return argv, diag
    # A tie needs |d| >= |f_quad|^2/4 >= epsilon1^2/4, past delta0 = epsilon1^2/5: no
    # input the CLI takes ties, so the command raises what the ungated solve
    # refuses a tie at node 2 of the pair f = g = 1 with.
    assert case == "root tie"
    from openmult.interval import _solve_ragged, plan_interval

    def tied(f, g, d, eps0):
        plan = plan_interval(np.ones(9, complex), np.ones(9, complex), eps0)
        dv = np.zeros(9, complex)
        dv[2] = -(plan.f_quad[2] ** 2) / (4 * plan.beta2[2])
        raise _solve_ragged(plan, dv)[3]

    monkeypatch.setattr(cli_mod, "open_mult_interval", tied)
    diag = {"error": "EqualModulusRoots", "bound": "distinct root moduli", "value": 2,
            "message": "root moduli tie at index 2"}
    return argv, diag


@pytest.mark.parametrize("case", ["scheme domains", "scheme zero pair", "cover seam", "root tie"])
def test_refusal_names_its_bound(tmp_path, capsys, monkeypatch, case):
    argv, diag = _unnamed_refusal(tmp_path, monkeypatch, case)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == diag


def _out_of_range_payload(tmp_path, case):
    """(command, input path, payload key) for one payload with a number that
    no float or int holds as given: 1e400 reads as inf, and a trial count
    must be a JSON integer."""
    f = GridFunction.constant(IntervalDomain(0.0, 1.0, 17), 0.5)
    probe = {"f": f.to_json(), "g": f.to_json(), "trials": 2}
    finite = {k: FiniteSpaceFunction(np.full(4, 0.5 + 0j)).to_json() for k in ("a", "b", "d")}
    interval = json.loads(Path(interval_triple(tmp_path, 0)).read_text())
    graph = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "theta_graph.json").read_text())
    command, data, key = {
        "interval n": ("factor-interval", interval, "d"),
        "interval b": ("factor-interval", interval, "f"),
        "graph edge n": ("factor-graph", graph, "g"),
        "finite n": ("factor-finite", finite, "b"),
        "probe n": ("probe", probe, "g"),
        "probe trials inf": ("probe", probe, "trials"),
        "probe trials true": ("probe", probe, "trials"),
        "probe trials 2.7": ("probe", probe, "trials"),
    }[case]
    if key == "trials":
        data["trials"] = {"probe trials inf": "BIG", "probe trials true": True, "probe trials 2.7": 2.7}[case]
    elif case == "graph edge n":
        data[key]["domain"]["edges"][1]["n"] = "BIG"
    else:
        data[key]["domain"]["b" if case == "interval b" else "n"] = "BIG"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data).replace('"BIG"', "1e400"))
    return command, str(path), key


@pytest.mark.parametrize(
    "case",
    ["interval n", "interval b", "graph edge n", "finite n", "probe n",
     "probe trials inf", "probe trials true", "probe trials 2.7"],
)
def test_out_of_range_number_exit_two(tmp_path, capsys, case):
    command, path, key = _out_of_range_payload(tmp_path, case)
    code = main([command, "--input", path, "--epsilon", "0.5"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "PreconditionViolated"
    assert diag["bound"] == key
    assert diag["message"].startswith(f"payload key {key!r}: ")


def _loose_number_payload(tmp_path, case):
    """(command, input path, payload key) for one payload whose domain `n` is
    not a JSON integer or whose end `a`/`b` is not a JSON number, although
    int() or float() would read it.  Read that way, each payload runs with exit 0."""
    finite = {k: FiniteSpaceFunction(np.full(4, v)).to_json() for k, v in (("a", 0.5), ("b", 0.5), ("d", 0.0))}
    interval = json.loads(Path(interval_triple(tmp_path, 0)).read_text())
    graph = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "theta_graph.json").read_text())
    command, data, key, entry, value = {
        "interval n 129.7": ("factor-interval", interval, "d", "n", 129.7),
        "interval n 129.0": ("factor-interval", interval, "f", "n", 129.0),
        "interval a string": ("factor-interval", interval, "g", "a", "0"),
        "interval b true": ("factor-interval", interval, "d", "b", True),
        "finite n 4.0": ("factor-finite", finite, "b", "n", 4.0),
        "graph edge n 129.5": ("factor-graph", graph, "g", "n", 129.5),
        "graph edge a string": ("factor-graph", graph, "d", "a", "0.0"),
        "graph edge b true": ("factor-graph", graph, "f", "b", True),
    }[case]
    domain = data[key]["domain"]
    (domain["edges"][1] if command == "factor-graph" else domain)[entry] = value
    return command, write_json(tmp_path / "loose.json", data), key


@pytest.mark.parametrize(
    "case",
    ["interval n 129.7", "interval n 129.0", "interval a string", "interval b true", "finite n 4.0",
     "graph edge n 129.5", "graph edge a string", "graph edge b true"],
)
def test_loose_domain_number_exit_two(tmp_path, capsys, case):
    command, path, key = _loose_number_payload(tmp_path, case)
    code = main([command, "--input", path, "--epsilon", "0.7"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "PreconditionViolated"
    assert diag["bound"] == key
    assert diag["message"].startswith(f"payload key {key!r}: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_in_missing_directory_exit_two(tmp_path, capsys, fmt):
    path = interval_triple(tmp_path, delta0(0.7))
    out = str(tmp_path / "missing" / f"report.{fmt}")
    code = main(["factor-interval", "--input", path, "--epsilon", "0.7", "--format", fmt, "--output", out])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "PreconditionViolated"
    assert diag["bound"] == "output"
    assert diag["message"].startswith(f"{out}: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_output_refused_before_library_call(tmp_path, capsys, monkeypatch, fmt):
    import openmult.cli as cli_mod

    calls = []
    real = cli_mod.open_mult_interval

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli_mod, "open_mult_interval", recorded)
    path = interval_triple(tmp_path, delta0(0.7))
    out = str(tmp_path / "missing" / f"report.{fmt}")
    code = main(["factor-interval", "--input", path, "--epsilon", "0.7", "--format", fmt, "--output", out])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["bound"] == "output"
    assert calls == []


class TestDiagonalSchemeCommand:
    def test_diagonal_model_roundtrip(self, tmp_path, capsys):
        from openmult import DiagonalAlgebraElement, diagonal_algebra_model, scheme_params

        w = [1.0, 1.0]
        a = DiagonalAlgebraElement(1.0, np.array([0.1, -0.05j]), np.array(w))
        b = DiagonalAlgebraElement(0.9, np.array([0.02j, 0.1]), np.array(w))
        p = scheme_params(a, b, 0.5, diagonal_algebra_model(np.array(w)))
        h = DiagonalAlgebraElement(0.5 * p.delta, np.array([0.1 * p.delta, 0j]), np.array(w))
        payload = {
            "model": {"type": "diagonal", "weights": w, "unital": True},
            "F": a.to_json(),
            "G": b.to_json(),
            "H": h.to_json(),
        }
        path = write_json(tmp_path / "diag.json", payload)
        code = main(["scheme", "--input", path, "--epsilon", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["claims_pass"] is True

    def test_non_unital_refused(self, tmp_path, capsys):
        payload = {
            "model": {"type": "diagonal", "weights": [1.0], "unital": False},
            "F": {"scalar": [1.0, 0.0], "coords": [[0.0, 0.0]]},
            "G": {"scalar": [1.0, 0.0], "coords": [[0.0, 0.0]]},
            "H": {"scalar": [0.0, 0.0], "coords": [[0.0, 0.0]]},
        }
        path = write_json(tmp_path / "nu.json", payload)
        code = main(["scheme", "--input", path, "--epsilon", "0.5"])
        assert code == 2


def _element(scalar, coord, weights=None):
    obj = {"scalar": [scalar.real, scalar.imag], "coords": [[coord.real, coord.imag]]}
    return obj if weights is None else {**obj, "weights": weights}


def _diagonal_scheme(tmp_path, model, weights=None):
    payload = {
        "model": model,
        "F": _element(1.0 + 0j, 0.1 + 0j, weights),
        "G": _element(0.9 + 0j, 0.1j, weights),
        "H": _element(0j, 0j, weights),
    }
    return main(["scheme", "--input", write_json(tmp_path / "diag.json", payload), "--epsilon", "0.5"])


def test_diagonal_elements_take_the_model_weights(tmp_path, capsys):
    from openmult import DiagonalAlgebraElement, diagonal_algebra_model, scheme_params

    assert _diagonal_scheme(tmp_path, {"type": "diagonal", "weights": [1e-3], "unital": True}) == 0
    w = np.array([1e-3])
    a, b = DiagonalAlgebraElement(1.0, [0.1], w), DiagonalAlgebraElement(0.9, [0.1j], w)
    want = scheme_params(a, b, 0.5, diagonal_algebra_model(w)).to_json()
    assert json.loads(capsys.readouterr().out)["constants"] == want


def test_diagonal_element_with_other_weights_refused(tmp_path, capsys):
    # the model's weights set C, T and delta, the elements' the norms: they must be one vector
    assert _diagonal_scheme(tmp_path, {"type": "diagonal", "weights": [1.0], "unital": True}, [1e-3]) == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert (diag["error"], diag["bound"]) == ("PreconditionViolated", "F")
    assert diag["message"].startswith("payload key 'F': ValueError: weights [0.001] differ")


@pytest.mark.parametrize("model", [
    [{"type": "diagonal", "weights": [1.0]}],
    "diagonal",
    {"type": "diagonal", "unital": True},
    {"type": "diagonal", "weights": [0.0], "unital": True},
    {"type": "diagonal", "weights": [-1.0], "unital": True},
    {"type": "diagonal", "weights": [[1.0]], "unital": True},
])
def test_malformed_model_refused_under_model(tmp_path, capsys, model):
    assert _diagonal_scheme(tmp_path, model) == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert (diag["error"], diag["bound"]) == ("PreconditionViolated", "model")
    assert diag["message"].startswith("payload key 'model': ")


def _mismatched_payload(command):
    """A payload whose inputs live on different grids, graphs or point sets,
    or whose trial count is 0, and the bound its refusal names."""
    from openmult import GraphDomain, GraphFunction

    grid, coarse = (GridFunction.constant(IntervalDomain(0.0, 1.0, n), 1.0).to_json() for n in (65, 33))
    path, star = (GraphDomain(v, tuple((v[0], w, IntervalDomain(0.0, 1.0, 5)) for w in v[1:])) for v in ("abc", "abcd"))
    on_path, on_star = (GraphFunction(graph, (np.ones(5),) * len(graph.edges)).to_json() for graph in (path, star))
    two, one = FiniteSpaceFunction([1.0, 1.0]).to_json(), FiniteSpaceFunction([1.0]).to_json()
    return {
        "probe": ({"f": grid, "g": grid, "trials": 0}, "trials"),
        "factor-interval": ({"f": grid, "g": grid, "d": coarse}, "common domain"),
        "factor-graph": ({"f": on_path, "g": on_path, "d": on_star}, "common graph"),
        "factor-finite": ({"a": two, "b": two, "d": one}, "same number of points"),
        "nondeg-approx": ({"f": two, "g": one}, "same number of points"),
    }[command]


@pytest.mark.parametrize("command", ["probe", "factor-interval", "factor-graph", "factor-finite", "nondeg-approx"])
def test_mismatched_inputs_name_their_bound(tmp_path, capsys, command):
    payload, bound = _mismatched_payload(command)
    assert main([command, "--input", write_json(tmp_path / "in.json", payload), "--epsilon", "0.5"]) == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert (diag["error"], diag["bound"]) == ("PreconditionViolated", bound)


def test_csv_on_stdout_appends_to_a_redirected_file(tmp_path):
    # `openmult ... --format csv >> log.csv` keeps what log.csv held
    argv = ["factor-finite", "--input", _finite_payload(tmp_path), "--epsilon", "0.5", "--format", "csv"]
    assert main([*argv, "--output", str(tmp_path / "report.csv")]) == 0
    report = (tmp_path / "report.csv").read_bytes()
    log = tmp_path / "log.csv"
    log.write_bytes(b"a line written before\n")
    env = dict(os.environ, PYTHONPATH=str(Path(openmult.__file__).resolve().parent.parent))
    for _ in range(2):
        with open(log, "ab") as out:
            proc = subprocess.run([sys.executable, "-m", "openmult.cli", *argv], stdout=out, env=env, timeout=120)
        assert proc.returncode == 0
    assert log.read_bytes() == b"a line written before\n" + report + report
    assert report.startswith(b"index,a_re,a_im,b_re,b_im\r\n")


# ---------------------------------------------------------------------------
# Golden reports: sha256 of every command's report in both formats.  The JSON
# digest is of the report bytes with the volatile `timestamp` line removed;
# the CSV digest is of all bytes.  A refactor of the CLI must leave every
# digest unchanged; a deliberate change of a report must update them and say
# so.

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _finite_payload(tmp_path):
    rng = np.random.default_rng(41)
    m = 24
    tiny = np.arange(m) % 4 == 0
    a = np.where(tiny, 0.05, 1.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    b = np.where(tiny, 0.05, 1.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    d = raw * (0.9 * 0.25 * 0.5 * 0.5 / np.max(np.abs(raw)))
    payload = {k: FiniteSpaceFunction(v).to_json() for k, v in (("a", a), ("b", b), ("d", d))}
    return write_json(tmp_path / "finite.json", payload)


def _nondeg_payload(tmp_path):
    rng = np.random.default_rng(42)
    m = 24
    small = np.arange(m) % 3 == 0
    f = np.where(small, 0.05, 1.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    g = np.where(small, 0.05, 1.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    payload = {"f": FiniteSpaceFunction(f).to_json(), "g": FiniteSpaceFunction(g).to_json()}
    return write_json(tmp_path / "nondeg.json", payload)


def _probe_payload(tmp_path):
    rng = np.random.default_rng(43)
    dom = IntervalDomain(0.0, 1.0, 65)
    t = dom.nodes()
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = GridFunction(dom, np.exp(2j * np.pi * t) + 0.2 * c[0] * t)
    g = GridFunction(dom, c[1] + c[2] * t + c[3] * t * t)
    return write_json(tmp_path / "probe.json", {"f": f.to_json(), "g": g.to_json(), "trials": 3})


GOLDEN_COMMANDS = {
    "factor-interval": (lambda tmp: str(FIXTURE_DIR / "interval_joint_zero.json"), ["--epsilon", "0.7"]),
    "factor-graph": (lambda tmp: str(FIXTURE_DIR / "theta_graph.json"), ["--epsilon", "0.7"]),
    "scheme": (lambda tmp: str(FIXTURE_DIR / "scheme_64.json"), ["--epsilon", "0.5", "--audit"]),
    "factor-finite": (_finite_payload, ["--epsilon", "0.5"]),
    "nondeg-approx": (_nondeg_payload, ["--epsilon", "0.6"]),
    "probe": (_probe_payload, ["--epsilon", "0.5", "--seed", "3"]),
}

GOLDEN_REPORTS = {
    ("factor-interval", "json"):
        "483bab3bf428a297cbff4ebb6dbad9b206c7f4587599a22f4c1b636ea430de6e",
    ("factor-interval", "csv"):
        "e6ba68342b373239b6b61976dcca184207705e25ebb11b1c8c10346ebaf45d60",
    ("factor-graph", "json"):
        "f5f7fd32ee741982365c702ab8990d4e96b1132b43f27932145c029924b18260",
    ("factor-graph", "csv"):
        "ba5f729b6386d93e8fbaac3ce487ea719da60fd0e600dde22d40f7704a7e4264",
    ("scheme", "json"):
        "bbb8248cfbe297a4ba11fb7805564eab3a479a4ffa8f78ec09a0650ce7c94c38",
    ("scheme", "csv"):
        "841cede699b75445f57398086e0cc51e28386ffdddc24399d06e69bd61305436",
    ("factor-finite", "json"):
        "ca013152376911fe0f59131088aa856558292ef768d7ec251a948969353b29cd",
    ("factor-finite", "csv"):
        "8c752e3c33d9339857b48c36af23515b2ac8120e3d6cf9d1dd97a3c2ccbcaabc",
    ("nondeg-approx", "json"):
        "b1fd05ead7049a2b3d476077043abe8a9629a390997af98d07639313e815d87d",
    ("nondeg-approx", "csv"):
        "fd7ef534299a8b9460951bdf0aa797b92e0343943e163c65e756f8dffdec05db",
    ("probe", "json"):
        "ecd3f503e3d01044236de42d0da4e033d58409209fc9a6417ad0064e95e4a6f6",
    ("probe", "csv"):
        "f1f2ff277ff66beeac060b8ef2ab7546453f139d4dd3e903fbe19993300bd04a",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_REPORTS))
def test_golden_report(tmp_path, command, fmt):
    make_input, extra = GOLDEN_COMMANDS[command]
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--input", make_input(tmp_path), *extra, "--format", fmt, "--output", str(out)]
    assert main(argv) == 0
    data = out.read_bytes()
    if fmt == "json":
        data, removed = re.subn(rb'\n  "timestamp": [^\n]*', b"", data)
        assert removed == 1
    assert hashlib.sha256(data).hexdigest() == GOLDEN_REPORTS[(command, fmt)]


# ---------------------------------------------------------------------------
# The report writer: the bytes of json.dumps(report, sort_keys=True, indent=2)

_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                   float("nan"), float("inf"), float("-inf")]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_pair = st.tuples(_floats, _floats).map(list)
_pair_lists = st.lists(_pair | st.tuples(_floats, _floats), min_size=1, max_size=8)
# one item that makes the list not a list of float pairs: a length-3 item, an
# int, a bool, or a pair holding an int, a bool or None
_odd_items = st.sampled_from([[1.5, 2.5, 3.5], 7, True, [1.5, 2], [True, 1.5], [None, 0.5], [1.5], []])
_almost_pair_lists = st.tuples(_pair_lists, _odd_items, st.integers(0, 8)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
_pairs_of_pairs = st.lists(st.tuples(_pair, _pair).map(list), min_size=1, max_size=4)
_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**400), max_value=10**400)
    | _floats | st.text()
)
_report_trees = st.recursive(
    _leaves | _pair_lists | _almost_pair_lists | _pairs_of_pairs,
    lambda children: (
        st.lists(children, max_size=4) | st.tuples(children, children)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=25,
)


def _emitted(report):
    buf = io.StringIO()
    cli_mod._emit(buf, report, argparse.Namespace(format="json"), None, None)
    return buf.getvalue()


@given(_report_trees)
@settings(max_examples=400, deadline=None)
def test_report_writer_matches_json_dumps(report):
    assert _emitted(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_report_writer_pair_chunks():
    # more pairs than one template fill holds, with nan and inf on both sides of a chunk edge
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((2 * cli_mod._PAIR_CHUNK + 3, 2)) * 10.0 ** rng.integers(-320, 300, (1, 2))
    pairs = vals.tolist()
    edge = cli_mod._PAIR_CHUNK
    pairs[edge - 1][1], pairs[edge][0], pairs[-1][1] = float("nan"), float("-inf"), float("inf")
    report = {"result": {"d1": {"values": pairs}, "edges": [{"values": pairs[:5]}, {"values": []}]}, "n": 3}
    assert _emitted(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Imports: a command loads only the library modules it runs

OLD_PUBLIC_NAMES = """
BoundaryMismatch ClaimViolation CoverInfeasible DegeneratePair DomainMismatch EqualModulusRoots NonConvergence
InternalInvariantError NonUnimodularInput NormBudgetExceeded OpenMultError PerturbationTooLarge PreconditionViolated VertexInconsistency
ZeroArgument DiagonalAlgebraElement diagonal_open_mult nondeg_approx open_mult_finite scalar_factor
FiniteSpaceFunction GraphDomain GraphFunction GridFunction IntervalDomain conjugate function_from_json
grid_function_from_csv load_function min_modulus_sum pointwise_product refine sup_norm EdgePlan
GraphFactorizationResult open_mult_graph plan_edges refine_partition slice_graph_function EndpointPin
FactorizationResult IntervalCover PinTable PipelineConfig circle_extend delta0 factor_halfboundary factor_interval
nondeg_phases open_mult_interval perturb_nondegenerate phase_offset plan_interval plan_intervals
quadratic_correction shift_budget solve_interval solve_intervals sublevel_cover ProbeReport brute_scalar_delta
probe_pipeline QuadraticTriple has_distinct_moduli roots smaller_root AlgebraModel SchemeParams SchemeTrace
audit_claims diagonal_algebra_model inverse_norm_bound run_scheme scheme_params sup_algebra_model
""".split()

_IMPORT_PROBE = """
import json, sys
import openmult
light = "numpy" not in sys.modules
from openmult.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps({"numpy_after_import_openmult": not light,
                  "loaded": sorted(m for m in sys.modules if m.startswith("openmult."))}))
"""


def _run_python(code, *args):
    src = str(Path(openmult.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_light_commands_do_not_import_interval_graphs_or_probe(tmp_path):
    runs = [
        ["factor-finite", "--input", _finite_payload(tmp_path), "--epsilon", "0.5"],
        ["nondeg-approx", "--input", _nondeg_payload(tmp_path), "--epsilon", "0.6"],
        ["scheme", "--input", str(FIXTURE_DIR / "scheme_64.json"), "--epsilon", "0.5", "--audit"],
    ]
    for i, argv in enumerate(runs):
        argv += ["--output", str(tmp_path / f"out{i}.json")]
    seen = _run_python(_IMPORT_PROBE, json.dumps(runs))
    assert not seen["numpy_after_import_openmult"]
    assert {"openmult.finite", "openmult.scheme"} <= set(seen["loaded"])
    assert not {"openmult.interval", "openmult.graphs", "openmult.probe"} & set(seen["loaded"])


# Every command on its golden input with the pair's sample values (all but
# the perturbation d or H) scaled toward the ends of the float range, in one
# child interpreter with default warning filters: each run ends in a report
# or a refusal, exit 0, 1 or 2, never in an exception escaping main, and a
# nonzero exit ends stderr with a JSON diagnostic.
_SWEEP = """
import contextlib, io, json, sys
from openmult.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # what the sweep is for: an exception that escapes main
        code = type(exc).__name__
    seen.append([code, (err.getvalue().splitlines() or [""])[-1]])
print(json.dumps(seen))
"""


def _scaled(entry, scale):
    """A payload entry with its sample values times `scale`; any other entry as it is."""

    def times(values):
        return [times(x) for x in values] if isinstance(values, list) else values * scale

    return dict(entry, values=times(entry["values"])) if isinstance(entry, dict) and "values" in entry else entry


def test_no_command_ends_in_a_traceback_at_extreme_scales(tmp_path):
    runs = []
    for command, (make_input, extra) in sorted(GOLDEN_COMMANDS.items()):
        payload = json.loads(Path(make_input(tmp_path)).read_text())
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            scaled = {key: entry if key in "dH" else _scaled(entry, scale) for key, entry in payload.items()}
            path = write_json(tmp_path / f"{command}-{scale}.json", scaled)
            runs.append([command, "--input", path, *extra, "--output", str(tmp_path / "out")])
    seen = _run_python(_SWEEP, json.dumps(runs))
    assert len(seen) == len(runs) == 24
    for argv, (code, last) in zip(runs, seen):
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert last.startswith("{") and {"error", "message"} <= set(json.loads(last)), (argv, last)


def test_nondeg_approx_at_1e300_exits_quietly(tmp_path):
    # f*g overflows only at points that keep their values, and |f'|^2 + |g'|^2 is reported as inf
    payload = json.loads(Path(_nondeg_payload(tmp_path)).read_text())
    path = write_json(tmp_path / "big.json", {key: _scaled(entry, 1e300) for key, entry in payload.items()})
    argv = ["nondeg-approx", "--input", path, "--epsilon", "0.6", "--output", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(openmult.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "openmult.cli", *argv], env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "out.json").read_text())["min_joint_modulus_sq"] == "inf"
    assert main(argv) == 0  # in process, under the suite's RuntimeWarning filter


def test_public_names_resolve():
    assert len(OLD_PUBLIC_NAMES) == 75
    assert sorted(openmult.__all__) == sorted(OLD_PUBLIC_NAMES)
    assert set(OLD_PUBLIC_NAMES) <= set(dir(openmult))
    star = _run_python(
        "import json, openmult\nfrom openmult import *\n"
        "print(json.dumps(sorted(n for n in openmult.__all__ if globals()[n] is getattr(openmult, n))))"
    )
    assert star == sorted(OLD_PUBLIC_NAMES)
    for name in OLD_PUBLIC_NAMES:
        assert getattr(openmult, name).__name__ == name
    with pytest.raises(AttributeError):
        openmult.no_such_name  # noqa: B018
