import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

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
            raise RuntimeError("internal invariant failed: injected")

        monkeypatch.setattr(cli_mod, "open_mult_interval", boom)
        path = interval_triple(tmp_path, delta0(0.7))
        code = main(["factor-interval", "--input", path, "--epsilon", "0.7"])
        assert code == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "RuntimeError"


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
    ["missing file", "bad json", "csv input", "missing d", "wrong value count", "nan value", "finite payload"],
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
