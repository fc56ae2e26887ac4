"""The four workloads: seeded inputs, one op, its re-verification and digest.

Inputs come only from the workload seed.  The radius every perturbation is
scaled to is the paper's `eps0**2 / 245`, computed here and not read from
the library, so a library that shrinks its own radius is refused, not
flattered.  Input families are chosen so that no legal op is refused at this
radius; they are never filtered or re-drawn.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import verify

EPS_CYCLE = (0.7, 0.35, 0.07)


def paper_delta0(eps0):
    return eps0 * eps0 / 245.0


def _cnormal(rng, size=None):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def interval_pair(t, rng, kind):
    """The four criterion-1 families: trigonometric, cubic, independent joint
    zero, shared linear factor."""
    if kind == 0:
        def mk():
            out = np.zeros(t.size, dtype=complex)
            for k in range(-2, 3):
                out += _cnormal(rng) * 0.8 ** abs(k) * np.exp(2j * np.pi * k * t)
            return out
        return mk(), mk()
    if kind == 1:
        def mk():
            c = _cnormal(rng, 4)
            return c[0] + c[1] * t + c[2] * t * t + c[3] * t**3
        return mk(), mk()
    if kind == 2:
        tau = rng.uniform(0.15, 0.85)
        def mk():
            return (t - tau) * (_cnormal(rng) + _cnormal(rng) * (t - tau))
        return mk(), mk()
    tau = rng.uniform(0.2, 0.8)
    base = (t - tau).astype(complex)
    return base, base * _cnormal(rng)


def scaled(raw, radius):
    return raw * (radius / float(np.max(np.abs(raw))))


def _interval_triples(seed, n, count):
    from openmult.functions import GridFunction, IntervalDomain

    dom = IntervalDomain(0.0, 1.0, n)
    t = dom.nodes()
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        eps0 = EPS_CYCLE[k % len(EPS_CYCLE)]
        fv, gv = interval_pair(t, rng, k % 4)
        dv = scaled(_cnormal(rng, n), paper_delta0(eps0))
        out.append((GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, dv), eps0))
    return out


class Workload:
    """One op per call of `run(i)`; inputs cycle with period `cycle`."""

    name = ""
    cycle = 1
    digest_ops = None         # ops covered by the output digest; None = one cycle
    in_process = True
    speed_kernel = "python"   # the speed.py kernel whose drift the op follows best

    def __init__(self, root, seed, work_dir):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir

    def build(self):
        """Generate the inputs (the benchmark's own time, not set-up)."""

    def warm_inputs(self):
        """Inputs of one small op of the same kind, for the set-up probe."""
        raise NotImplementedError

    def warm_up(self, inputs):
        """Run that small op (program set-up: lazy imports, first calls)."""
        raise NotImplementedError

    def run(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def digest_bytes(self, i, out):
        raise NotImplementedError

    def note(self, out):
        """Called once per verified op, for run-level notes."""

    def info(self):
        return {}


class IntervalFine(Workload):
    name = "interval-fine"
    n = 2**20 + 1
    cycle = 6
    speed_kernel = "numpy"

    def build(self):
        self.triples = _interval_triples(self.seed, self.n, self.cycle)

    def warm_inputs(self):
        return _interval_triples(self.seed, 1025, 1)[0]

    def warm_up(self, inputs):
        import openmult.interval

        openmult.interval.open_mult_interval(*inputs)

    def run(self, i):
        import openmult.interval

        f, g, d, eps0 = self.triples[i % self.cycle]
        return openmult.interval.open_mult_interval(f, g, d, eps0)

    def check(self, i, out):
        f, g, d, eps0 = self.triples[i % self.cycle]
        return verify.identity(f.values, g.values, d.values, out.d1.values, out.d2.values, eps0)

    def digest_bytes(self, i, out):
        return out.d1.values.tobytes() + out.d2.values.tobytes()

    def info(self):
        # Complex n-arrays the pipeline allocates or reads per op, counted
        # from the interval pipeline's source: inputs 3, target 1, h 0.5 (real),
        # d1/d2/written 2.1, phases ~5, root tracking ~9, direct factor on
        # cover runs (small), a-posteriori residual 3, wrapper residual 3.
        arrays = 26.6
        op_bytes = arrays * self.n * 16
        l3 = cache_bytes(3)
        return {
            "computed_bytes_per_op": int(op_bytes),
            "computed_bytes_note": f"computed, not measured: ~{arrays} complex128 arrays x n={self.n} x 16 B",
            "input_bytes_resident": 3 * self.cycle * self.n * 16,
            "working_set_over_l3": (op_bytes / l3) if l3 else None,
            "hpc_rule_note": (
                "arrays >= 4x LLC cannot be met: one array is 16 MiB and "
                "4 x 105 MiB per array is beyond the memory budget of a run"
            ),
        }


class ProbeCoarse(Workload):
    name = "probe-coarse"
    n = 1025
    # Pairs with a cover run (kinds 2, 3) cost ~25% more per op than pairs
    # without, and how far a pair climbs the radius ladder varies too.  With
    # 8 pairs, two per kind, the median sat in the gap between the two cost
    # clusters and the tail followed the slowest pair of the seed: both moved
    # 10-20% between seeds.  Kinds in the interval-fine pattern (0, 1, 2, 3,
    # 0, 1) keep the median inside one cluster, and a fresh pair for every op
    # of a run makes the tail an order statistic of ~200 pairs, not of a few.
    cycle = 256
    digest_ops = 48
    kinds = (0, 1, 2, 3, 0, 1)
    eps0 = 0.7
    trials = 8

    def build(self):
        from openmult.functions import GridFunction, IntervalDomain

        dom = IntervalDomain(0.0, 1.0, self.n)
        t = dom.nodes()
        self.pairs = []
        for k in range(self.cycle):
            rng = np.random.default_rng([self.seed, 1000 + k])
            fv, gv = interval_pair(t, rng, self.kinds[k % len(self.kinds)])
            self.pairs.append((GridFunction(dom, fv), GridFunction(dom, gv), int(rng.integers(2**31))))

    def warm_inputs(self):
        from openmult.functions import GridFunction, IntervalDomain

        dom = IntervalDomain(0.0, 1.0, 129)
        fv, gv = interval_pair(dom.nodes(), np.random.default_rng([self.seed, 1000]), 0)
        return GridFunction(dom, fv), GridFunction(dom, gv)

    def warm_up(self, inputs):
        import openmult.probe

        openmult.probe.probe_pipeline(*inputs, self.eps0, trials=1, seed=0, max_steps=2)

    def run(self, i):
        import openmult.probe

        f, g, pseed = self.pairs[i % self.cycle]
        return openmult.probe.probe_pipeline(f, g, self.eps0, trials=self.trials, seed=pseed)

    def check(self, i, out):
        return verify.probe(out, paper_delta0(self.eps0))

    def digest_bytes(self, i, out):
        return repr((out.delta_empirical, out.curve)).encode()

    def note(self, out):
        self.probe_ops = getattr(self, "probe_ops", 0) + 1
        saturated = bool(out.curve) and out.curve[-1][1] == 1.0
        self.saturated_ops = getattr(self, "saturated_ops", 0) + saturated

    def info(self):
        return {
            "probe_saturated_ops": getattr(self, "saturated_ops", 0),
            "probe_ops": getattr(self, "probe_ops", 0),
            "probe_saturation_note": (
                "on a saturated op every ladder rung succeeded, so delta_empirical is "
                "the ladder cap 1.5**(max_steps-1) * delta0, not an observed edge"
            ),
        }


class GraphStar(Workload):
    name = "graph-star"
    edges = 400
    edge_nodes = 33
    cycle = 8
    eps0 = 0.7

    def build(self):
        self.instances = [self._instance(k, self.edges) for k in range(self.cycle)]

    def _instance(self, k, n_edges):
        """Star with centre "c"; edge i runs from "c" to "v<i>".

        Edge kinds by i % 8: 0 = outer vertex jointly degenerate (a cover
        pin), 4 = joint zero inside the edge (a cover run), else regular.
        Outer values keep within 60 degrees of the centre value so regular
        edges never pass near zero on this coarse grid; joint-zero slopes
        stay well below the one-step seam jump that refuses a cover.
        """
        rng = np.random.default_rng([self.seed, 2000 + k])
        t = np.linspace(0.0, 1.0, self.edge_nodes)
        fc = 0.8 * np.exp(2j * np.pi * rng.uniform())
        gc = 0.6 * np.exp(2j * np.pi * rng.uniform())
        dc = _cnormal(rng)
        fe, ge, de = [], [], []
        for i in range(n_edges):
            kind = i % 8
            if kind == 0:
                fo, go = 0.01 * _cnormal(rng), 0.01 * _cnormal(rng)
            else:
                rot = np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3, 2))
                fo, go = fc * rng.uniform(0.4, 1.25) * rot[0], gc * rng.uniform(0.5, 1.6) * rot[1]
            if kind == 4:
                tau = rng.uniform(0.3, 0.7)
                shape_c = (1 - t) * (tau - t) / tau
                shape_o = t * (t - tau) / (1 - tau)
                fe.append(fc * shape_c + fo * shape_o)
                ge.append(gc * shape_c + go * shape_o)
            else:
                bump = t * (1 - t)
                fe.append(fc * (1 - t) + fo * t + 0.2 * bump * _cnormal(rng))
                ge.append(gc * (1 - t) + go * t + 0.2 * bump * _cnormal(rng))
            do = _cnormal(rng)
            de.append(dc * (1 - t) + do * t + t * (1 - t) * _cnormal(rng, t.size))
        sup = max(float(np.max(np.abs(v))) for v in de)
        radius = paper_delta0(self.eps0)
        de = [v * (radius / sup) for v in de]
        vertices = ("c",) + tuple(f"v{i}" for i in range(n_edges))
        edges = tuple(("c", f"v{i}") for i in range(n_edges))
        return vertices, edges, fe, ge, de

    def _op(self, instance):
        from openmult import graphs
        from openmult.functions import GraphDomain, GraphFunction, IntervalDomain

        vertices, edges, fe, ge, de = instance
        graph = GraphDomain(
            vertices, tuple((u, v, IntervalDomain(0.0, 1.0, self.edge_nodes)) for u, v in edges)
        )
        f = GraphFunction(graph, tuple(fe))
        g = GraphFunction(graph, tuple(ge))
        d = GraphFunction(graph, tuple(de))
        return graphs.open_mult_graph(f, g, d, self.eps0)

    def warm_inputs(self):
        return self._instance(0, 8)

    def warm_up(self, inputs):
        self._op(inputs)

    def run(self, i):
        return self._op(self.instances[i % self.cycle])

    def check(self, i, out):
        _vertices, edges, fe, ge, de = self.instances[i % self.cycle]
        return verify.graph(edges, fe, ge, de, out.d1.edge_values, out.d2.edge_values, self.eps0)

    def digest_bytes(self, i, out):
        return b"".join(v.tobytes() for v in out.d1.edge_values + out.d2.edge_values)


def _pairs_json(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _finite_json(values):
    return {"domain": {"type": "finite", "n": int(values.size)}, "values": _pairs_json(values)}


class CliBatch(Workload):
    """One fresh `python -m openmult.cli` per op, five commands in turn."""

    name = "cli-batch"
    cycle = 5
    in_process = False
    speed_kernel = "spawn"
    finite_points = 4096

    def commands(self):
        fx = os.path.join(self.root, "fixtures")
        wd = self.work_dir
        return (
            ("factor-interval", os.path.join(fx, "interval_joint_zero.json"), 0.7, ()),
            ("factor-graph", os.path.join(fx, "theta_graph.json"), 0.7, ()),
            ("scheme", os.path.join(fx, "scheme_64.json"), 0.5, ("--audit",)),
            ("factor-finite", os.path.join(wd, "finite.json"), 0.5, ()),
            ("nondeg-approx", os.path.join(wd, "nondeg.json"), 0.6, ()),
        )

    def _write_generated(self):
        rng = np.random.default_rng([self.seed, 3000])
        m = self.finite_points
        # a quarter of the points have both factors tiny, so the square-root
        # branch of the pointwise construction runs as well
        tiny = np.arange(m) % 4 == 0
        a = np.where(tiny, 0.05, 1.0) * _cnormal(rng, m)
        b = np.where(tiny, 0.05, 1.0) * _cnormal(rng, m)
        d = scaled(_cnormal(rng, m), 0.25 * 0.5 * 0.5)
        finite = {"a": _finite_json(a), "b": _finite_json(b), "d": _finite_json(d)}
        # a third of the points are below the eps/3 cut in both factors
        small = np.arange(m) % 3 == 0
        f = np.where(small, 0.05, 1.0) * _cnormal(rng, m)
        g = np.where(small, 0.05, 1.0) * _cnormal(rng, m)
        nondeg = {"f": _finite_json(f), "g": _finite_json(g)}
        for name, obj in (("finite.json", finite), ("nondeg.json", nondeg)):
            with open(os.path.join(self.work_dir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    def build(self):
        os.makedirs(self.work_dir, exist_ok=True)
        self._write_generated()
        self.inputs = []
        for command, path, eps, extra in self.commands():
            with open(path, "r", encoding="utf-8") as fh:
                self.inputs.append(json.load(fh))
        self.out_path = os.path.join(self.work_dir, "report.json")
        self.spans_path = os.path.join(self.work_dir, "spans.json")
        self.tracer = None  # set to a spans.Recorder to run through the launcher

    def argv(self, i, output):
        command, path, eps, extra = self.commands()[i % self.cycle]
        return [command, "--input", path, "--epsilon", repr(eps), "--output", output, *extra]

    def env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def warm_inputs(self):
        return None

    def warm_up(self, _inputs):
        import openmult.cli

        out = os.path.join(self.work_dir, f"warm-{os.getpid()}.json")
        try:
            code = openmult.cli.main(self.argv(0, out))
        finally:
            if os.path.exists(out):
                os.remove(out)
        if code != 0:
            raise RuntimeError(f"warm-up CLI run exited {code}")

    def run(self, i):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = self.argv(i, self.out_path)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "openmult.cli", *argv]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            cmd = [sys.executable, launcher, self.spans_path, "--", *argv]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=20,
        )
        if self.tracer is not None and os.path.exists(self.spans_path):
            with open(self.spans_path, "r", encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            os.remove(self.spans_path)
        report = None
        if proc.returncode == 0 and os.path.exists(self.out_path):
            with open(self.out_path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        return proc.returncode, report, proc.stderr.decode("utf-8", "replace")[-300:]

    def check(self, i, out):
        code, report, stderr = out
        command, _path, eps, _extra = self.commands()[i % self.cycle]
        err = verify.cli_report(command, code, report, self.inputs[i % self.cycle], eps)
        if err and stderr:
            err += f" (stderr: {stderr.strip()})"
        return err

    def digest_bytes(self, i, out):
        _code, report, _stderr = out
        command = report["command"]
        if command in ("factor-interval", "factor-graph"):
            res = report["result"]
            parts = [res["d1"], res["d2"]] if command == "factor-interval" else [
                e[k] for k in ("d1", "d2") for e in res["edges"]]
            return b"".join(verify.pairs(p["values"]).tobytes() for p in parts)
        if command == "factor-finite":
            keys = ("a_prime", "b_prime")
        elif command == "nondeg-approx":
            keys = ("f_prime", "g_prime")
        else:
            return repr((report["final_defect_norm"], report["distance_f"], report["distance_g"])).encode()
        return b"".join(verify.pairs(report[k]["values"]).tobytes() for k in keys)


WORKLOADS = {w.name: w for w in (IntervalFine, ProbeCoarse, GraphStar, CliBatch)}


def cache_bytes(level):
    """Size in bytes of the unified or data cache at `level` (read-only from /sys)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
        return int(text.rstrip("KMG")) * mult
    return None
