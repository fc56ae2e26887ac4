"""Bit-identity of the pipeline outputs.

Pins the sha256 of the d1/d2 bytes that the interval and graph pipelines
return on the bundled fixtures and on a seeded sample of the four
criterion-1 families, at several grid sizes.  A refactor or optimisation of
the pipeline must leave every digest unchanged; a deliberate change of the
construction must update them and say so.

The digests are of little-endian complex128 bytes as computed by numpy's
float64 arithmetic; a platform whose libm rounds exp/sqrt differently would
need its own table.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmult import (
    EndpointPin,
    EqualModulusRoots,
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    OpenMultError,
    VertexInconsistency,
    delta0,
    function_from_json,
    open_mult_graph,
    open_mult_interval,
    probe_pipeline,
    refine,
    sup_norm,
)
from openmult.interval import (
    Certificate,
    PinTable,
    PipelineConfig,
    _solve_ragged,
    factorize_interval_arrays,
    plan_interval,
    plan_intervals,
    solve_interval,
    solve_intervals,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<c16").tobytes())
    return h.hexdigest()


def _load(name):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return tuple(function_from_json(data[k]) for k in ("f", "g", "d"))


def _family(t, rng, kind):
    """The criterion-1 families: trigonometric, cubic, independent joint
    zero, shared linear factor."""

    def cn(size=None):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    if kind == 0:
        def mk():
            out = np.zeros(t.size, dtype=complex)
            for k in range(-2, 3):
                out += cn() * 0.8 ** abs(k) * np.exp(2j * np.pi * k * t)
            return out
        return mk(), mk()
    if kind == 1:
        def mk():
            c = cn(4)
            return c[0] + c[1] * t + c[2] * t * t + c[3] * t**3
        return mk(), mk()
    if kind == 2:
        tau = rng.uniform(0.15, 0.85)
        def mk():
            return (t - tau) * (cn() + cn() * (t - tau))
        return mk(), mk()
    tau = rng.uniform(0.2, 0.8)
    base = (t - tau).astype(complex)
    return base, base * cn()


def _family_case(n, seed, kind, eps0, scale=1.0):
    dom = IntervalDomain(0.0, 1.0, n)
    rng = np.random.default_rng([seed, kind, n])
    fv, gv = _family(dom.nodes(), rng, kind)
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dv = raw * (scale * delta0(eps0) / float(np.max(np.abs(raw))))
    return GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, dv)


def _interval_fixture(factor):
    f, g, d = _load("interval_joint_zero")
    if factor > 1:
        f, g, d = (refine(x, factor) for x in (f, g, d))
    res = open_mult_interval(f, g, d, 0.7)
    return res.d1.values, res.d2.values, res.meta["cover"]


def _graph_fixture():
    f, g, d = _load("theta_graph")
    res = open_mult_graph(f, g, d, 0.7)
    d1 = np.concatenate(res.d1.edge_values)
    d2 = np.concatenate(res.d2.edge_values)
    covers = [run for r in res.edge_results for run in r.meta["cover"]]
    return d1, d2, covers


def _family_strict(n, seed, kind, eps0):
    f, g, d = _family_case(n, seed, kind, eps0)
    res = open_mult_interval(f, g, d, eps0)
    return res.d1.values, res.d2.values, res.meta["cover"]


def _lone_zeros(n, eps0):
    # f vanishes at the left end and inside while g stays large: the
    # rotation phase is undefined near both zeros, so circle_extend bridges
    # a boundary gap and an interior gap.
    dom = IntervalDomain(0.0, 1.0, n)
    t = dom.nodes()
    fv = t * (t - 0.37) * (2.0 + 1.0j)
    gv = 0.9 * np.exp(3j * np.pi * t)
    rng = np.random.default_rng([5, n])
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dv = raw * (delta0(eps0) / float(np.max(np.abs(raw))))
    res = open_mult_interval(GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, dv), eps0)
    return res.d1.values, res.d2.values, res.meta["cover"]


def _wide_gap(n):
    # |f| stays below the phase threshold on ~80% of the grid, so the
    # defined nodes are a short array of their own.
    dom = IntervalDomain(0.0, 1.0, n)
    t = dom.nodes()
    fv = 0.04 * (t - 0.37) * (1.0 - 0.5j)
    gv = 1.1 * np.exp(2j * np.pi * t)
    rng = np.random.default_rng([6, n])
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dv = raw * (delta0(0.7) / float(np.max(np.abs(raw))))
    res = open_mult_interval(GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, dv), 0.7)
    return res.d1.values, res.d2.values, res.meta["cover"]


def _family_unchecked(n, seed, kind, eps0, scale):
    # Past the certified radius with the gates off, as the probe runs it.
    f, g, d = _family_case(n, seed, kind, eps0, scale)
    d1, d2, cert, _failed = _solve_ragged(plan_interval(f.values, g.values, eps0), d.values)
    return d1, d2, cert.rows()[0][0]["cover"]


CASES = {
    "interval_fixture_257": lambda: _interval_fixture(1),
    "interval_fixture_1025": lambda: _interval_fixture(4),
    "theta_graph": _graph_fixture,
    **{
        f"family{kind}_n{n}_eps{eps0}": (lambda n=n, kind=kind, eps0=eps0: _family_strict(n, 7, kind, eps0))
        for n in (257, 4097)
        for kind in range(4)
        for eps0 in (0.7, 0.35, 0.07)
    },
    # Past numpy's 256 KiB threshold for reusing temporaries in place, which
    # changes the operand order of some complex products.
    **{
        f"family{kind}_n65537_eps{eps0}": (lambda kind=kind, eps0=eps0: _family_strict(65537, 13, kind, eps0))
        for kind in range(4)
        for eps0 in (0.7, 0.07)
    },
    **{
        f"family{kind}_n1025_eps0.7_x{scale}": (
            lambda kind=kind, scale=scale: _family_unchecked(1025, 11, kind, 0.7, scale)
        )
        for kind in range(4)
        for scale in (8.0, 40.0)
    },
    **{
        f"lone_zeros_n{n}_eps{eps0}": (lambda n=n, eps0=eps0: _lone_zeros(n, eps0))
        for n in (257, 4097, 65537)
        for eps0 in (0.7, 0.07)
    },
    "wide_gap_n65537": lambda: _wide_gap(65537),
}

GOLDEN = {
    "family0_n1025_eps0.7_x40.0": "f23c0766f6cdb13f65501b7251257aa73582f6d5668c66216324fd3c1631568b",
    "family0_n1025_eps0.7_x8.0": "dd7a48f633062eb2e6ff1850a59bee04d077e27dac321e2c76913ea5f08193d9",
    "family0_n257_eps0.07": "6d08fc3bacf9173470d86e7a3c396b847b2f126b24fdb015904da94d44718cb6",
    "family0_n257_eps0.35": "25c1f1e59c300545869c4ffd8c2721c0f8e2dd0e28251d13f2f049a78da1bad5",
    "family0_n257_eps0.7": "d5d57ec953e5f809507e32c3fb8413521d60d9f50ef09d20c7ea816682e44124",
    "family0_n4097_eps0.07": "da5aebc1a6fd5664daf77fa7eb8ff18886813de354b4d2cab979871c38d16dc2",
    "family0_n4097_eps0.35": "587fdd2822babd180eb850aed5d61d8b6274e2d8a0a68bfd300ca5afbe3d7b75",
    "family0_n4097_eps0.7": "2ca65482a2afd280a7808b9403770448c4f6621355647a811a6a46d7f34fc794",
    "family0_n65537_eps0.07": "758a3568aa6f66e4c4553921b38f4ac9229e4e626421053f7918773764e995a6",
    "family0_n65537_eps0.7": "b1001a3dc6b3ce2197857189d365c52259d45d4a37952397c9c1638b7927c49b",
    "family1_n1025_eps0.7_x40.0": "c5b459481f4635762c7294fb611c29fbb7a45880fb574dc9e3df31a4c0cbb0b4",
    "family1_n1025_eps0.7_x8.0": "3fed9c018abfcac40262c9ca26b5a943da2b4521f2315338534f040fada2f500",
    "family1_n257_eps0.07": "1dcc2ac33148f1cf108703822cd4b043d4c061fc2bf7ac07d6ca145e535d0bfe",
    "family1_n257_eps0.35": "a36ed6868b9043b96d14c5e391c31cb8ca6c1bc50ee7ad3f84d4ba23b3e33e07",
    "family1_n257_eps0.7": "461e8f0cb32439930d36d05d9b5c6729317aa907c8b37d43ff0c1c17fe1f4dc6",
    "family1_n4097_eps0.07": "522007765dcb76bfb31fce89f7613f5eef7366caa44c2cfe2641ab2b7bdccf17",
    "family1_n4097_eps0.35": "6624671393ca0c517d4c31e180d26eaea3b2c6ce81ed667320c3a5766bfb44ce",
    "family1_n4097_eps0.7": "3d0a1d75dd8b5534f4035e2c1d596c6d531aac70ed4b4cd486c861a2cf1e58fd",
    "family1_n65537_eps0.07": "37e1dbbce1bbeb7bb37a9a4d460d0368bdc0299161a97e80ce235c86dcb0acc5",
    "family1_n65537_eps0.7": "79dc550eb1e6a5c4fc1f861de28cedd2b8b81f309a72229a8fc14ee384875cd4",
    "family2_n1025_eps0.7_x40.0": "af3ca538fd570e153a66ed17ec67129855505a386dc545ccbb584ab839db58c5",
    "family2_n1025_eps0.7_x8.0": "df469a794bdd5a76a797ecbc10272abca78f0c5253ea8f98b3d37648f27cbf3a",
    "family2_n257_eps0.07": "0f77d7b6994ebe66a87dee952268bb44f240ff98065b3ed14f4e0a57458c538e",
    "family2_n257_eps0.35": "50f8c2a0b60d587623951a703e111c2e36bd856af411b88c263da69b73969cc3",
    "family2_n257_eps0.7": "84ad354b51ba9e8084fa8d3450ccf5aee81005b4d9cb96ccbe66dfe153fff555",
    "family2_n4097_eps0.07": "c6eaa30f77c7b2ad5119164c59ed984d77dc1ed096fad81ec87d078778c9e772",
    "family2_n4097_eps0.35": "272e560c036b18ea7a96276603ae59d76842560543b30bd57626992a8c1e5e3c",
    "family2_n4097_eps0.7": "fbf5bf1c260e4d2f8466643c75095063fc0a8e5ab4cccd1bea6309c5bb9bed43",
    "family2_n65537_eps0.07": "553ee73e62529fdb37e2fc470bc35e422dfed36df20a1ea6745352f40a32be0a",
    "family2_n65537_eps0.7": "36f6dee7153a34928c5f6b370802ffcbd899e77698e59851707a05d7d38a1940",
    "family3_n1025_eps0.7_x40.0": "64be66196b8881ff78b8c94aad9df9ea2ce09ab65d7fb04e5c6cbfafdda92a6e",
    "family3_n1025_eps0.7_x8.0": "59f2aff1439a283bdbae27f9031fc13115bb08c71348f5dff8e2c3e5f0faa474",
    "family3_n257_eps0.07": "15ccf5cc393832cc89e86fd3db2faa339502a1b3143973b1c335192381e307d7",
    "family3_n257_eps0.35": "e10daa49d272a0814b23547c5146aa63071976da633910fcd0e047dae6f31a22",
    "family3_n257_eps0.7": "f216728d6f861d2decbf52ed5e6926c28bc15e1e3e6ffc5f4b6dea573b0ddac4",
    "family3_n4097_eps0.07": "cd56bb9cc335bbf254c0a6ab96f7f2c6dd461cae0a359ac9ca4be020acdeca8a",
    "family3_n4097_eps0.35": "447163f2281d9a64c973098b50891b34da5add6bf99e53e152e2de605bfb672b",
    "family3_n4097_eps0.7": "1d1658cc5af9b43ca55b2b3c52c4f66fdb9fca5807ced7503ea38c0452f75fa2",
    "family3_n65537_eps0.07": "5417f267fb31aff752564b61e20ed0888366080ce3586708d6b24dcb98fc5663",
    "family3_n65537_eps0.7": "b7a4fbacdfeb27648026b18a6efd44cf2ed82266bdbc29cafdc7f730d3559f0b",
    "interval_fixture_1025": "c125444eada98c5c0da01704f85e4e24776a4b8819e6300428975c6c576e69f6",
    "interval_fixture_257": "484c396bf8a4110758d9fcfa48f505c19867336d19317a6a1c2087e2e799f602",
    "lone_zeros_n257_eps0.07": "07ba8715e5a91229198d63065b69edc4972f65669b5be69070add7858be57d61",
    "lone_zeros_n257_eps0.7": "ff5f685f82a285f391d4af5ae8c7e9dd0d3753f65e605493b970c20d5c426855",
    "lone_zeros_n4097_eps0.07": "ae7f0a894be6a4ed07e8e59b506af6fc4fe9d8890fe179eb5ce18a05a1f3a5c7",
    "lone_zeros_n4097_eps0.7": "60239e6b9622f251103051a0e5490c56c8138e8837333807dd8f96e5256f3d9f",
    "lone_zeros_n65537_eps0.07": "9f3c4b63024a7e3b035848d35242790306538e55ef556b03a5258122207e8715",
    "lone_zeros_n65537_eps0.7": "c3d2eda0806d2fe93acb0447a7327c6f08922632dcf7b36249a5990ff7a79c9e",
    "theta_graph": "b95e677e3f15eccbdb51022804de4b9a906891409b6af2b3a40178c04ac688ad",
    "wide_gap_n65537": "4078309f1356e33635b01192857b0e826b1914e5c130b646d2417ee135fb3519",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    d1, d2, _cover = CASES[name]()
    assert _digest(d1, d2) == GOLDEN[name]


def _probe(n, kind, trials=4):
    dom = IntervalDomain(0.0, 1.0, n)
    rng = np.random.default_rng([17, kind, n])
    fv, gv = _family(dom.nodes(), rng, kind)
    return probe_pipeline(GridFunction(dom, fv), GridFunction(dom, gv), 0.7, trials=trials, seed=n + kind)


def _readme_probe(n, trials, seed):
    """The README pair: a joint zero at 1/2, so the plan holds a cover run."""
    dom = IntervalDomain(0.0, 1.0, n)
    t = dom.nodes()
    f, g = GridFunction(dom, (t - 0.5).astype(complex)), GridFunction(dom, (t - 0.5) * (1 + 1j))
    return probe_pipeline(f, g, 0.7, trials=trials, seed=seed)


# The probe splits each rung's trials evenly over the fewest chunks below
# numpy's 256 KiB in-place reuse (at most 15 trials of 1025 nodes, one of
# 16385), and pads a short last chunk with copies of its own trials.  These
# cases pin padded last chunks (64 = 4*13 + 12, 17 = 9 + 8, 46 = 3*12 + 10,
# 31 = 2*11 + 9), an even split (16 = 8 + 8), chunks of one trial and a
# chunk of a whole rung on 2 nodes.  Every digest was recorded when the
# probe still chunked by 15 with a shorter remainder.
PROBE_CASES = {
    **{
        f"probe_family{kind}_n{n}": (lambda n=n, kind=kind: _probe(n, kind))
        for n in (129, 1025)
        for kind in range(4)
    },
    "probe_readme_n1025_trials64": lambda: _readme_probe(1025, 64, 1),
    "probe_family2_n1025_trials17": lambda: _probe(1025, 2, 17),
    "probe_family0_n16385_trials2": lambda: _probe(16385, 0, 2),
    "probe_readme_n2_trials8": lambda: _readme_probe(2, 8, 4),
    "probe_family2_n1025_trials16": lambda: _probe(1025, 2, 16),
    "probe_family0_n1025_trials31": lambda: _probe(1025, 0, 31),
    "probe_family3_n1025_trials46": lambda: _probe(1025, 3, 46),
}

PROBE_GOLDEN = {
    "probe_family0_n1025": "e6beb2866ed79d1a490ac4a14d6a165df4216bbafada154e913d68f32932af5f",
    "probe_family0_n129": "f1e97f875f4dd529b360d130e92d69f9de837648e642d5b5306fcfcf45f1ab25",
    "probe_family1_n1025": "54d7f7fc331e11f72759aa0c6e9f31ead5c615fc571513baad81f735acdb0b77",
    "probe_family1_n129": "f1e97f875f4dd529b360d130e92d69f9de837648e642d5b5306fcfcf45f1ab25",
    "probe_family2_n1025": "766dbe7efc08b052f6ad6797ccac626f1fc1b36c125c3efb44e8722398974a41",
    "probe_family2_n129": "de8fda2fb34038fc690d3d3607031ad6b404783d7f27d1fcc498c7a9047f0dca",
    "probe_family3_n1025": "3e9c53e88aacfbd08f1bcac4e542c0de117a87867fa5d25a8b287f2910b1a790",
    "probe_family3_n129": "766dbe7efc08b052f6ad6797ccac626f1fc1b36c125c3efb44e8722398974a41",
    "probe_readme_n1025_trials64": "f1db41fe075154e9cc71de7f005f6212393b652a09aa54f2de3268073a2f9300",
    "probe_family2_n1025_trials17": "e26aaa680b6104dbc08d9843cdf09095bb165a06b749b1870897fd83aa24665c",
    "probe_family0_n16385_trials2": "54d7f7fc331e11f72759aa0c6e9f31ead5c615fc571513baad81f735acdb0b77",
    "probe_readme_n2_trials8": "fc869de7c3f36f3f49c3f403646091c17c0f4a0e5a7c453b97f42d8cc8e68a62",
    "probe_family2_n1025_trials16": "dcd12cf03c57dd847cd06475b2b655f0fe1173b3a1d9d51d425291bf8500c8e7",
    "probe_family0_n1025_trials31": "b29dcd57632e5c6b9e982e40d411de5ba3d6903c7334bd587f4655136975b44c",
    "probe_family3_n1025_trials46": "4537f1b79c493ff9f0321b9316b920f9f2df72cc323e1a20e4700674ba7f77c1",
}


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_probe_golden_digest(name):
    rep = PROBE_CASES[name]()
    digest = hashlib.sha256(repr((rep.delta_empirical, rep.curve)).encode()).hexdigest()
    assert digest == PROBE_GOLDEN[name]


def test_sample_exercises_cover_runs():
    for name in ("interval_fixture_257", "theta_graph", "family2_n4097_eps0.07", "family3_n65537_eps0.7"):
        assert CASES[name]()[2], name


@pytest.mark.parametrize("kind", range(4))
def test_plan_reuse_matches_single_runs(kind):
    f, g, _d = _family_case(1025, 19, kind, 0.7)
    fv, gv = f.values, g.values
    plan = plan_interval(fv, gv, 0.7)
    kept = [a.copy() for a in (plan.fv, plan.gv)] + [a.copy() for seg in plan.segments for a in seg[2:]]
    rng = np.random.default_rng([19, kind])
    for scale, strict in ((0.5, True), (1.0, True), (8.0, False), (40.0, False), (1.0, False)):
        raw = rng.standard_normal(fv.size) + 1j * rng.standard_normal(fv.size)
        dv = raw * (scale * delta0(0.7) / float(np.max(np.abs(raw))))
        if strict:
            want, got = factorize_interval_arrays(fv, gv, dv, 0.7), solve_interval(plan, dv)
        else:
            want, got = (_solve_ragged(p, dv)[:3] for p in (plan_interval(fv, gv, 0.7), plan))
            want, got = ((d1, d2, *cert.rows()[0]) for d1, d2, cert in (want, got))
        assert _digest(got[0], got[1]) == _digest(want[0], want[1])
        assert got[2:] == want[2:]
    now = [plan.fv, plan.gv] + [a for seg in plan.segments for a in seg[2:]]
    assert all(np.array_equal(a, b) for a, b in zip(kept, now))
    assert plan.fv is fv and plan.gv is gv


# ---------------------------------------------------------------------------
# The certificate verdict of _solve_ragged against the probe's former a-posteriori
# check, recomputed here: the same trials fail, and the first failing claim
# is the first false clause of (residual, d1, d2).


RESIDUAL, D1, D2 = "factorization residual out of tolerance", "d1 exceeds eps0", "d2 exceeds eps0"


def _three_clause_failure(plan, dv, residual, bound1, bound2, eps0):
    scale = 1.0 + float(np.max(np.abs(plan.fv * plan.gv + dv)))
    clauses = (
        (residual <= 1e-9 * scale, RESIDUAL),
        (bound1 <= eps0 * (1.0 + 1e-9), D1),
        (bound2 <= eps0 * (1.0 + 1e-9), D2),
    )
    return next((claim for holds, claim in clauses if not holds), None)


# The claims seen failing first, per family and scale of f: 20 rungs of the
# probe ladder at scale 1, where a bound on d1 or d2 always gives way before
# the residual, and rung 0 with f scaled by 1e155, where f*g overflows.
FIRST_FAILURES = {
    (0, 1.0): {D1}, (1, 1.0): {D1}, (2, 1.0): {D1, D2}, (3, 1.0): {D1, D2},
    **{(kind, 1e155): {RESIDUAL} for kind in range(4)},
}


@pytest.mark.parametrize("f_scale", [1.0, 1e155])
@pytest.mark.parametrize("kind", range(4))
def test_solve_verdict_matches_three_clause_check(kind, f_scale):
    f, g, _d = _family_case(1025, 23, kind, 0.7)
    rng = np.random.default_rng([23, kind])
    seen = set()
    with np.errstate(over="ignore", invalid="ignore"):
        plan = plan_interval(f.values * f_scale, g.values, 0.7)
        for k in range(20 if f_scale == 1.0 else 1):
            for _ in range(8):
                raw = rng.standard_normal(f.domain.n) + 1j * rng.standard_normal(f.domain.n)
                dv = raw * (delta0(0.7) * 1.5**k / float(np.max(np.abs(raw))))
                _d1, _d2, cert, refusal = _solve_ragged(plan, dv)
                (residual,), (bound1,), (bound2,), (failed,) = cert.residual, cert.bound1, cert.bound2, cert.failed
                assert failed == _three_clause_failure(plan, dv, residual, bound1, bound2, 0.7)
                assert repr(refusal) == repr(failed and RuntimeError(f"internal invariant failed: {failed}"))
                seen.add(failed)
    assert seen - {None} == FIRST_FAILURES[kind, f_scale]


# A rung of 15 trials solved as the probe solves it, on one plan over 15
# copies of the pair: kind 0 without a cover run (its first failure in the
# third trial), kind 2 with one; both rungs mix certified and failed trials.
@pytest.mark.parametrize("kind,rung", [(0, 15), (2, 14)])
def test_tiled_verdicts_match_single_solves(kind, rung):
    f, g, _d = _family_case(1025, 23, kind, 0.7)
    n, b = f.domain.n, 15
    plan = plan_interval(f.values, g.values, 0.7)
    fv, gv = np.tile(f.values, b), np.tile(g.values, b)
    tiled = plan_intervals(fv, gv, 0.7, np.arange(b + 1) * n, PinTable.of([(None, None)] * b))
    raw = np.random.default_rng([29, kind]).standard_normal((b, 2, n))
    dv = raw[:, 0] + 1j * raw[:, 1]
    dv *= (delta0(0.7) * 1.5**rung / np.max(np.abs(dv), axis=1))[:, None]
    d1, d2, cert, refusal = _solve_ragged(tiled, dv.ravel())
    for i, row in enumerate(dv):
        one_d1, one_d2, one, _refusal = _solve_ragged(plan, row)
        at = slice(i * n, (i + 1) * n)
        assert _digest(d1[at], d2[at]) == _digest(one_d1, one_d2)
        got = (cert.residual[i], cert.bound1[i], cert.bound2[i], cert.failed[i])
        assert repr(got) == repr((*one.residual, *one.bound1, *one.bound2, one.failed[0]))
    assert None in cert.failed and D1 in cert.failed
    first = next(claim for claim in cert.failed if claim is not None)
    assert repr(refusal) == repr(RuntimeError(f"internal invariant failed: {first}"))


# Distinct pairs laid end to end under one plan, root ties injected into some
# of them as in test_tie_index_is_segment_local: a tie fails only its own
# pair, every pair keeps the bits and verdict of its own one-pair solve, and
# the batch refuses with the first tie, else the first failed claim.  At most
# 8 pairs of at most 1025 nodes stay below numpy's 256 KiB in-place reuse.
pair_specs = st.tuples(
    st.integers(0, 3), st.sampled_from([129, 257, 513, 1025]), st.integers(0, 20),
    st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)), max_size=2),
)


def _inject_tie(plan, dv, lo, hi, where):
    segments = [seg for seg in plan.segments if lo <= seg[0] < hi]
    s, e, beta2, f_quad = segments[int(where[0] * len(segments))]
    k = int(where[1] * (e - s + 1))
    dv[s + k] = -(f_quad[k] ** 2) / (2 * beta2[k])


@given(st.lists(pair_specs, min_size=2, max_size=8), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_ties_fail_only_their_own_pair(specs, seed):
    cases = [_family_case(n, seed + i, kind, 0.7, 1.5**rung) for i, (kind, n, rung, _ties) in enumerate(specs)]
    offsets = np.cumsum([0] + [f.domain.n for f, _g, _d in cases])
    fv, gv, dv = (np.concatenate([case[x].values for case in cases]) for x in range(3))
    plan = plan_intervals(fv, gv, 0.7, offsets, PinTable.of([(None, None)] * len(cases)))
    for j, (*_spec, ties) in enumerate(specs):
        for where in ties:
            _inject_tie(plan, dv, offsets[j], offsets[j + 1], where)
    d1, d2, cert, refusal = _solve_ragged(plan, dv)
    refusals = []
    for j, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        one_d1, one_d2, one, one_refusal = _solve_ragged(plan_interval(fv[lo:hi], gv[lo:hi], 0.7), dv[lo:hi])
        assert _digest(d1[lo:hi], d2[lo:hi]) == _digest(one_d1, one_d2)
        got = (cert.residual[j], cert.bound1[j], cert.bound2[j], cert.failed[j])
        assert repr(got) == repr((*one.residual, *one.bound1, *one.bound2, *one.failed))
        assert str(cert.failed[j]).startswith("root moduli tie at index ") == bool(specs[j][3])
        refusals.append(one_refusal)
    want = next((x for x in refusals if isinstance(x, EqualModulusRoots)), None) or next(filter(None, refusals), None)
    assert (type(refusal), str(refusal), getattr(refusal, "index", None)) == (
        type(want), str(want), getattr(want, "index", None))


def test_tie_comes_before_a_pinned_end_disagreement():
    # The left end is pinned with d1 = d2 = 0, which a nonzero d there breaks.
    fv, gv, eps0, left, right = _one_interval("pinned_ends")
    plan = plan_intervals(fv, gv, eps0, (0, fv.size), PinTable.of(((left, right),)))
    dv = np.full(fv.size, 1e-3 + 0j)
    _d1, _d2, cert, refusal = _solve_ragged(plan, dv)
    assert isinstance(refusal, VertexInconsistency) and cert.failed == [str(refusal)]
    s, _e, beta2, f_quad = plan.segments[0]
    dv[s + 5] = -(f_quad[5] ** 2) / (2 * beta2[5])
    _d1, _d2, cert, refusal = _solve_ragged(plan, dv)
    assert (type(refusal).__name__, str(refusal), refusal.index) == (
        "EqualModulusRoots", "root moduli tie at index 5", 5)
    assert cert.failed == ["root moduli tie at index 5"]


def test_pinned_disagreement_tie_and_certified_laid_end_to_end():
    # Three intervals under one pinned plan: the first pinned where the solve
    # misses its right end (test_vertex_inconsistency_refusal's pair), the
    # second with a root tie, the third certified.  Each keeps the bits, row
    # and verdict of its own one-interval solve, and the batch refuses with
    # the tie, else the disagreeing pinned end.
    n = 65
    t = IntervalDomain(0.0, 1.0, n).nodes()
    fv = np.concatenate([(0.8 + 0.3j) * np.exp(1j * t), np.exp(2j * t), (0.9 - 0.2j) + 0.3 * t])
    gv = np.concatenate([(0.2 - 0.7j) * (1.0 + t), (0.5 + 0.5j) * (2.0 - t), np.exp(-1j * t)])
    pin = EndpointPin(kind="nondeg", d1=1e-3 + 0j, d2=-1e-3j, beta2=1j)
    pairs = [(None, pin), (None, None), (None, None)]
    offsets = np.arange(4) * n
    plan = plan_intervals(fv, gv, 0.7, offsets, PinTable.of(pairs))
    dv = np.full(3 * n, 1e-4 + 0j)
    _inject_tie(plan, dv, n, 2 * n, (0.0, 0.5))
    d1, d2, cert, refusal = _solve_ragged(plan, dv)
    for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        one_plan = plan_intervals(fv[lo:hi], gv[lo:hi], 0.7, (0, n), PinTable.of(pairs[k:k + 1]))
        one_d1, one_d2, one, _one_refusal = _solve_ragged(one_plan, dv[lo:hi])
        assert _digest(d1[lo:hi], d2[lo:hi]) == _digest(one_d1, one_d2)
        assert repr((cert.rows()[k], cert.failed[k])) == repr((one.rows()[0], one.failed[0]))
    tie = str(refusal)
    assert cert.failed == [VERTEX_INCONSISTENCY, tie, None]
    assert type(refusal) is EqualModulusRoots and tie == f"root moduli tie at index {refusal.index}"
    dv[n:2 * n] = 1e-4
    _d1, _d2, cert, refusal = _solve_ragged(plan, dv)
    assert cert.failed == [VERTEX_INCONSISTENCY, None, None]
    assert (type(refusal), str(refusal)) == (VertexInconsistency, VERTEX_INCONSISTENCY)


def test_zero_certificate_verdicts():
    cert = Certificate.zero(PipelineConfig.for_target(0.7), (0, 5, 9, 20))
    assert cert.failed == [None, None, None]


# ---------------------------------------------------------------------------
# Graph pins: a vertex of each kind, a loop edge, and the zero perturbation.
# The digests cover d1/d2 and the vertex report.

GRAPH_N = 129
GRAPH_T = IntervalDomain(0.0, 1.0, GRAPH_N).nodes()


def _graph_digest(res):
    h = hashlib.sha256(bytes.fromhex(_digest(*res.d1.edge_values, *res.d2.edge_values)))
    h.update(repr(sorted(res.vertex_report.items())).encode())
    return h.hexdigest()


def _scaled(d, r):
    return d * (r / sup_norm(d))


def _interp(graph, vertex_values, rng, bump):
    vals = []
    for u, v, dom in graph.edges:
        t = dom.nodes()
        raw = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        vals.append(vertex_values[u] * (1 - t) + vertex_values[v] * t + bump * t * (1 - t) * raw)
    return GraphFunction(graph, tuple(vals))


def _graph_degenerate_vertex():
    # joint zero at u on every edge of a theta graph: u gets a cover pin
    dom = IntervalDomain(0.0, 1.0, GRAPH_N)
    graph = GraphDomain(("u", "v"), tuple(("u", "v", dom) for _ in range(3)))
    fe = GRAPH_T.astype(complex) * (1 - 0.5 * GRAPH_T)
    f = GraphFunction(graph, (fe, fe.copy(), fe.copy()))
    g = GraphFunction(graph, (0.5j * fe, 0.5j * fe.copy(), 0.5j * fe.copy()))
    d = _scaled(_interp(graph, {"u": 0.1, "v": -0.1j}, np.random.default_rng(4), 0.5), delta0(0.7))
    return open_mult_graph(f, g, d, 0.7)


def _graph_loop_edge():
    dom = IntervalDomain(0.0, 1.0, GRAPH_N)
    t = GRAPH_T
    graph = GraphDomain(("u",), (("u", "u", dom),))
    fv = 1.0 + 0.3 * np.cos(2 * np.pi * t) + 0.3j * np.sin(2 * np.pi * t)
    fv[-1] = fv[0]
    gv = np.full(dom.n, 0.8 + 0j)
    rng = np.random.default_rng(8)
    raw = t * (1 - t) * (rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)) + 0.1
    de = raw * (delta0(0.7) / np.max(np.abs(raw)))
    de[-1] = de[0]
    parts = (GraphFunction(graph, (x,)) for x in (fv, gv, de))
    return open_mult_graph(*parts, 0.7)


def _graph_mixed_star():
    # leaves a and b are joint zeros (cover pins), the centre c and leaf e
    # are not (nondeg pins)
    dom = IntervalDomain(0.0, 1.0, GRAPH_N)
    graph = GraphDomain(("c", "a", "b", "e"), (("c", "a", dom), ("c", "b", dom), ("c", "e", dom)))
    rng = np.random.default_rng(21)
    f = _interp(graph, {"c": 1.0 + 0.2j, "a": 0.0, "b": 0.0, "e": -0.9}, rng, 0.1)
    g = _interp(graph, {"c": 0.3 - 0.8j, "a": 0.0, "b": 0.0, "e": 1.1j}, rng, 0.1)
    d = _scaled(_interp(graph, {"c": 0.2, "a": 0.1j, "b": -0.1, "e": 0.3}, rng, 0.4), delta0(0.7))
    return open_mult_graph(f, g, d, 0.7)


GRAPH_CASES = {
    "degenerate_vertex": _graph_degenerate_vertex,
    "loop_edge": _graph_loop_edge,
    "mixed_star": _graph_mixed_star,
}

GRAPH_GOLDEN = {
    "degenerate_vertex": "9af7dea2fd8093ecc6735aaa0ec6e1f537cfd1ba8de30bc8ee4d32ff8dd145a9",
    "loop_edge": "c0473bc8cf13aec500a61ddf966efa1a055781b509b983bceed7a3911993bd3f",
    "mixed_star": "afc87e70237f6a9d2f5cbfee4f188aea73d173d255cfc8624d16239c4f4a16e0",
}


@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_graph_golden_digest(name):
    assert _graph_digest(GRAPH_CASES[name]()) == GRAPH_GOLDEN[name]


def test_mixed_star_has_both_pin_kinds():
    kinds = {v: rep["kind"] for v, rep in _graph_mixed_star().vertex_report.items()}
    assert kinds == {"c": "nondeg", "a": "cover", "b": "cover", "e": "nondeg"}


def test_graph_zero_perturbation_with_isolated_vertex():
    dom = IntervalDomain(0.0, 1.0, 33)
    graph = GraphDomain(("u", "v", "w"), (("u", "v", dom), ("v", "u", dom)))
    rng = np.random.default_rng(22)
    f = _interp(graph, {"u": 1.0, "v": 0.5j, "w": 0.0}, rng, 0.2)
    g = _interp(graph, {"u": -0.3, "v": 0.9, "w": 0.0}, rng, 0.2)
    d = GraphFunction(graph, tuple(np.zeros(dom.n, dtype=complex) for _ in graph.edges))
    res = open_mult_graph(f, g, d, 0.35)
    assert res.residual == 0.0 and res.bound1 == 0.0 and res.bound2 == 0.0
    assert {v: rep["kind"] for v, rep in res.vertex_report.items()} == {"u": "trivial", "v": "trivial", "w": "trivial"}
    metas = [(r.residual, r.bound1, r.bound2, list(r.meta.items())) for r in res.edge_results]
    digest = hashlib.sha256(repr((metas, sorted(res.vertex_report.items()))).encode()).hexdigest()
    assert digest == ZERO_GRAPH_GOLDEN


ZERO_GRAPH_GOLDEN = "86b194009829b55e625dd3727798890b95ae8673e1343d48073fc61038fb3d2e"


# ---------------------------------------------------------------------------
# Refusals of explicit endpoint pins: class and message, in refusal order.


def _pin_case(name):
    n = 65
    t = IntervalDomain(0.0, 1.0, n).nodes()
    fv = (0.8 + 0.3j) * np.exp(1j * t)
    gv = (0.2 - 0.7j) * (1.0 + t)
    dv = np.full(n, 1e-4 + 0j)
    zero_left = (t - t[0]) * (1.0 + 0.5j)
    zero_right = (t[-1] - t) * (1.0 + 0.5j)
    cover = EndpointPin(kind="cover", d1=0j, d2=0j, za=0j, wa=0j)
    nondeg = EndpointPin(kind="nondeg", d1=0j, d2=0j, beta2=1j)
    if name == "cover pin left not in sublevel":
        return fv, gv, dv, cover, None
    if name == "cover pin right not in sublevel":
        return fv, gv, dv, None, cover
    if name == "cover pins both not in sublevel":
        return fv, gv, dv, cover, cover
    if name == "nondeg pin left absorbed":
        return zero_left, 0.5j * zero_left, dv, nondeg, None
    if name == "nondeg pin right absorbed":
        return zero_right, 0.5j * zero_right, dv, None, nondeg
    if name == "nondeg pin left absorbed, single-node run right":
        f_both, g_both = zero_left.copy(), 0.5j * zero_left
        f_both[-1], g_both[-1] = 0.25, 0.0
        return f_both, g_both, dv, nondeg, cover
    # |f|^2 + |g|^2 sits between 4 and 9 eps1^2 at the pinned end and jumps
    # past both cover thresholds at the next node
    lone = fv.copy()
    lone_g = gv.copy()
    idx = 0 if name == "single-node run left" else n - 1
    lone[idx] = 0.25
    lone_g[idx] = 0.0
    pins = (cover, None) if idx == 0 else (None, cover)
    return lone, lone_g, dv, *pins


PIN_REFUSALS = {
    "cover pin left not in sublevel":
        ("CoverInfeasible", "left endpoint pinned as degenerate but not in the sublevel set"),
    "cover pin right not in sublevel":
        ("CoverInfeasible", "right endpoint pinned as degenerate but not in the sublevel set"),
    "cover pins both not in sublevel":
        ("CoverInfeasible", "left endpoint pinned as degenerate but not in the sublevel set"),
    "nondeg pin left absorbed":
        ("CoverInfeasible", "cover run absorbed a non-degenerate pinned endpoint"),
    "nondeg pin right absorbed":
        ("CoverInfeasible", "cover run absorbed a non-degenerate pinned endpoint"),
    "nondeg pin left absorbed, single-node run right":
        ("CoverInfeasible", "cover run absorbed a non-degenerate pinned endpoint"),
    "single-node run left":
        ("CoverInfeasible", "single-node boundary cover run; refine the grid"),
    "single-node run right":
        ("CoverInfeasible", "single-node boundary cover run; refine the grid"),
}


@pytest.mark.parametrize("name", sorted(PIN_REFUSALS))
def test_pin_refusal(name):
    fv, gv, dv, pin_left, pin_right = _pin_case(name)
    with pytest.raises(OpenMultError) as exc:
        solve_intervals(plan_intervals(fv, gv, 0.7, (0, fv.size), PinTable.of(((pin_left, pin_right),))), dv)
    assert (type(exc.value).__name__, str(exc.value)) == PIN_REFUSALS[name]


def test_vertex_inconsistency_refusal():
    n = 65
    t = IntervalDomain(0.0, 1.0, n).nodes()
    fv = (0.8 + 0.3j) * np.exp(1j * t)
    gv = (0.2 - 0.7j) * (1.0 + t)
    dv = np.full(n, 1e-4 + 0j)
    pin = EndpointPin(kind="nondeg", d1=1e-3 + 0j, d2=-1e-3j, beta2=1j)
    with pytest.raises(VertexInconsistency) as exc:
        solve_intervals(plan_intervals(fv, gv, 0.7, (0, n), PinTable.of(((None, pin),))), dv)
    assert str(exc.value) == VERTEX_INCONSISTENCY


VERTEX_INCONSISTENCY = "edge construction disagrees with the pinned endpoint by 0.0009700807360431933"


# ---------------------------------------------------------------------------
# Graphs across numpy's 256 KiB threshold: 600 edges whose concatenation
# passes it, and one edge past it on its own next to small edges.  Both have
# cover pins and an interior cover run.  The digests cover d1/d2, the vertex
# report and each edge's residual, bounds and meta.


def _star(sizes, seed):
    """Star with centre "c" and edge i from "c" to "v<i>" on sizes[i] nodes.

    Edge kinds by i % 8: 0 = the outer vertex is a joint zero (a cover pin),
    4 = a joint zero inside the edge (a cover run), 6 = a lone joint zero at
    the middle node that only the wider cover tier accepts, else regular.
    """
    rng = np.random.default_rng(seed)

    def cn(size=None):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    fc, gc = 0.8 * np.exp(2j * np.pi * rng.uniform()), 0.6 * np.exp(2j * np.pi * rng.uniform())
    dc = cn()
    edges, fe, ge, de = [], [], [], []
    for i, n in enumerate(sizes):
        dom = IntervalDomain(0.0, 1.0, n)
        t = dom.nodes()
        edges.append(("c", f"v{i}", dom))
        kind = i % 8
        if kind == 0:
            fo = go = 0.0
        else:
            rot = np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3, 2))
            fo, go = fc * rng.uniform(0.4, 1.25) * rot[0], gc * rng.uniform(0.5, 1.6) * rot[1]
        if kind == 4:
            tau = rng.uniform(0.3, 0.7)
            near, far = (1 - t) * (tau - t) / tau, t * (t - tau) / (1 - tau)
            fe.append(fc * near + fo * far)
            ge.append(gc * near + go * far)
        else:
            bump = 0.2 * t * (1 - t)
            fe.append(fc * (1 - t) + fo * t + bump * cn())
            ge.append(gc * (1 - t) + go * t + bump * cn())
        if kind == 6:
            k = n // 2
            fe[-1][k - 1:k + 2] = 0.2 * fc / abs(fc) * np.array([1, 0, 1])
            ge[-1][k - 1:k + 2] = 0.15 * gc / abs(gc) * np.array([1, 0, 1])
        de.append(dc * (1 - t) + cn() * t + t * (1 - t) * cn(n))
    graph = GraphDomain(("c",) + tuple(v for _c, v, _dom in edges), tuple(edges))
    f, g, d = (GraphFunction(graph, tuple(x)) for x in (fe, ge, de))
    return open_mult_graph(f, g, _scaled(d, delta0(0.7)), 0.7)


def _graph_full_digest(res):
    h = hashlib.sha256(bytes.fromhex(_graph_digest(res)))
    h.update(repr([(r.residual, r.bound1, r.bound2, sorted(r.meta.items())) for r in res.edge_results]).encode())
    return h.hexdigest()


WIDE_GRAPH_CASES = {
    "star_600x33": lambda: _star((33,) * 600, 31),
    "star_big_edges": lambda: _star((33, 16385, 33, 33, 40001, 33, 65, 129), 32),
}

WIDE_GRAPH_GOLDEN = {
    "star_600x33": "6db4cb6e3fffaa5302580a69e3da754ead97b14d8a4b3d64485e2b7bc96d1f93",
    "star_big_edges": "521f9b258d894790ccb0eef0d1256be12bc14a7db69a1a2e4547845d24bda39b",
}


@pytest.mark.parametrize("name", sorted(WIDE_GRAPH_CASES))
def test_wide_graph_golden_digest(name):
    res = WIDE_GRAPH_CASES[name]()
    kinds = {rep["kind"] for rep in res.vertex_report.values()}
    assert kinds == {"cover", "nondeg"}
    assert any(run[0] > 0 and run[1] < r.d1.domain.n - 1 for r in res.edge_results for run in r.meta["cover"])
    assert {r.meta["eps_cover"] / r.meta["epsilon1"] for r in res.edge_results} == {4.0, 5.0}
    assert _graph_full_digest(res) == WIDE_GRAPH_GOLDEN[name]


# ---------------------------------------------------------------------------
# Refusal order on a graph: edge 1's d sample at the shared vertex sits
# 1e-9 off the canonical one, within GraphFunction's vertex tolerance, and
# edge 2 fails at plan time (a seam jump on a coarse grid).  Every edge end
# is solved on its vertex's canonical sample, so edge 1 is certified and
# edge 2's refusal is the one raised.


def _refusal_order_graph():
    dom = IntervalDomain(0.0, 1.0, 17)
    t = dom.nodes()
    graph = GraphDomain(("c", "a", "b", "e"), (("c", "a", dom), ("c", "b", dom), ("c", "e", dom)))
    fc, gc, dc = 0.2 + 0.1j, 0.15 - 0.2j, 5e-4 + 1e-3j
    fe = [fc * (1 - t) + (0.9 + 0.2j) * t, fc * (1 - t) + (0.7 - 0.5j) * t, fc * (1 - t) + (1.1 + 0j) * t]
    ge = [gc * (1 - t) + (0.3 - 0.8j) * t, gc * (1 - t) + (-0.6 + 0.4j) * t, gc * (1 - t) + (0.2 + 0.9j) * t]
    fe[2][8], ge[2][8] = 0j, 0j  # a lone joint zero: h jumps past both cover tiers
    de = [dc * (1 - t) + 1e-3 * t for _ in range(3)]
    de[1] = de[1].copy()
    de[1][0] += 0.9e-9
    f, g, d = (GraphFunction(graph, tuple(x)) for x in (fe, ge, de))
    return f, g, d


GRAPH_REFUSAL = ("CoverInfeasible", "cover seam at node 8 has h <= eta1; refine the grid")


def test_graph_refusal_order():
    f, g, d = _refusal_order_graph()
    with pytest.raises(OpenMultError) as exc:
        open_mult_graph(f, g, d, 0.7)
    assert (type(exc.value).__name__, str(exc.value)) == GRAPH_REFUSAL
    # edge 1 with edge 0 is certified; edge 2 with edge 0 refuses on its own
    parts = {}
    for ei in (1, 2):
        keep = (0, ei)
        sub = GraphDomain(("c", "a", "b", "e"), tuple(f.domain.edges[i] for i in keep))
        parts[ei] = tuple(GraphFunction(sub, tuple(x.edge_values[i] for i in keep)) for x in (f, g, d))
    res = open_mult_graph(*parts[1], 0.7)
    assert res.residual <= 1e-9 and max(res.bound1, res.bound2) <= 0.7
    with pytest.raises(OpenMultError) as exc:
        open_mult_graph(*parts[2], 0.7)
    assert (type(exc.value).__name__, str(exc.value)) == GRAPH_REFUSAL


def test_tie_index_is_segment_local():
    # Past the radius, ungated: d turns the tracked quadratic's discriminant
    # into -f_quad^2 at two nodes of the second complement segment (nodes 10
    # and 13 of it), where the root moduli then tie.
    f, g, d = _family_case(4097, 7, 2, 0.07)
    plan = plan_interval(f.values, g.values, 0.07)
    s, _e, beta2, f_quad = plan.segments[1]
    dv = d.values.copy()
    for k in (10, 13):
        dv[s + k] = -(f_quad[k] ** 2) / (2 * beta2[k])
    _d1, _d2, cert, refusal = _solve_ragged(plan, dv)
    assert cert.failed == ["root moduli tie at index 10"]
    assert (type(refusal).__name__, str(refusal), refusal.index) == (
        "EqualModulusRoots", "root moduli tie at index 10", 10)


def test_tied_solve_takes_one_root_pass(monkeypatch):
    # The plan of test_tie_index_is_segment_local with one tie: the solve forms
    # the roots once, and a tied node keeps the root roots_vec gives second.
    from openmult import quadratic

    f, g, d = _family_case(4097, 7, 2, 0.07)
    plan = plan_interval(f.values, g.values, 0.07)
    s, _e, beta2, f_quad = plan.segments[1]
    dv = d.values.copy()
    dv[s + 10] = -(f_quad[10] ** 2) / (2 * beta2[10])
    passes = []
    scaled_big_root = quadratic._scaled_big_root
    monkeypatch.setattr(quadratic, "_scaled_big_root", lambda *a: passes.append(a) or scaled_big_root(*a))
    _d1, d2, cert, refusal = _solve_ragged(plan, dv)
    assert len(passes) == 1
    assert cert.failed == ["root moduli tie at index 10"] and refusal.index == 10
    keep = plan.pieces[0]
    want = quadratic.roots_vec(-dv[keep], plan.f_quad, plan.beta2)[1]
    assert _digest(d2[keep]) == _digest(want)


def test_plan_holds_phases_on_segment_nodes_only():
    f, g, _d = _family_case(4097, 7, 3, 0.07)
    plan = plan_interval(f.values, g.values, 0.07)
    owned = f.domain.n - sum(e - s + 1 for s, e, _b, _q in plan.segments)
    assert owned > 0 and plan.cover[0].size
    assert plan.beta2.size == plan.f_quad.size == f.domain.n - owned


# ---------------------------------------------------------------------------
# One interval through the ragged plan: offsets (0, n) give the arrays that
# plan_interval gave when it planned one interval at a time.


def _one_interval(name):
    if name.startswith("family"):
        kind, n = (int(x) for x in name[len("family"):].split("_n"))
        f, g, _d = _family_case(n, 7, kind, 0.07)
        return f.values, g.values, 0.07, None, None
    n = 4097
    t = IntervalDomain(0.0, 1.0, n).nodes()
    if name == "lone_zeros":
        return t * (t - 0.37) * (2.0 + 1.0j), 0.9 * np.exp(3j * np.pi * t), 0.7, None, None
    # a right end in the cover with its pin, a rotated left end pinned
    fv = (t[-1] - t) * (1.0 + 0.5j) + 0.1j * t * (1 - t)
    gv = 0.5j * (t[-1] - t)
    za, wa = 0.01 + 0j, 0j
    right = EndpointPin(kind="cover", d1=za - fv[-1], d2=wa - gv[-1], za=za, wa=wa)
    left = EndpointPin(kind="nondeg", d1=0j, d2=0j, beta2=complex(np.exp(0.3j)))
    return fv, gv, 0.7, left, right


def _plan_digest(plan):
    h = hashlib.sha256(repr([seg[:2] for seg in plan.segments]).encode())
    h.update(bytes.fromhex(_digest(*(a for seg in plan.segments for a in seg[2:]))))
    return h.hexdigest()


ONE_INTERVAL_PLAN_GOLDEN = {
    "family0_n65537": "117ade18e2926128f82a174357b2f21ca681c20e08c61167fae1a7f383015680",
    "family2_n4097": "c20badda22b8d1cbffd74e3ca76aca3a70e95e60d52812d94b9c453c02957950",
    "family3_n4097": "ad61260100aabffd91a694d45e0897a52d6b31f59b63c492566d4d14a2ae7c6d",
    "lone_zeros": "9872fa2856b1d17fecb6009cf05a51c9acf731c26225d34fa3187c11b2694847",
    "pinned_ends": "dce31b21595420845d12aa846f6d4a839360d3c75d90c44ed9bad9fd2085a79f",
}


@pytest.mark.parametrize("name", sorted(ONE_INTERVAL_PLAN_GOLDEN))
def test_one_interval_ragged_plan(name):
    from openmult.interval import PinTable, plan_intervals

    fv, gv, eps0, left, right = _one_interval(name)
    ragged = plan_intervals(fv, gv, eps0, (0, fv.size), PinTable.of(((left, right),)))
    assert _plan_digest(ragged) == ONE_INTERVAL_PLAN_GOLDEN[name]
    if left is None and right is None:  # plan_interval plans an interval without end pins
        assert _plan_digest(plan_interval(fv, gv, eps0)) == ONE_INTERVAL_PLAN_GOLDEN[name]


# ---------------------------------------------------------------------------
# Direct factorization with prescribed boundary data, on its edge cases:
# 2- and 3-node runs, the larger/smaller-modulus swap, zhat = 0, a pinned
# complex(-0.0, 0.0) (np.angle gives pi there, the construction takes 0), a
# flat modulus ramp (|p| == |zhat|), and ramps of 3 subnormal ulps over 7 and
# 50 nodes, where np.linspace's step underflows to 0 and it takes its other
# branch.  A "half" case is a factor_halfboundary half pinned at its left
# end, run as given (side left) and mirrored (side right); a "run" case is a
# factor_interval run.  A run's zhat is 0 or at least 1.4e-162, so only a
# half has a subnormal ramp; its moduli sit near 2e-308, where the quotient
# psi / big stays finite.

TINY = 5e-324  # one subnormal ulp


def _rotated_pair(psi, phase):
    z = complex(np.sqrt(psi)) * np.exp(1j * phase)
    return z, (complex(psi) / z if z != 0 else 0j)


def _direct_case(name):
    """(psi, pairs): pairs is (za, wa, zb, wb) for a run, or (za, wa, zhat)
    for a half pinned at its left end."""
    half, kind = name.startswith("half"), name.split("_", 1)[1]
    if kind.startswith("subnormal"):
        return np.zeros(int(kind.split("_")[1]), dtype=complex), (2e-308, 0j, 2e-308 + 3 * TINY)
    t = np.linspace(0.0, 1.0, 9)
    psi = {
        "2": np.array([0.04j, 0.01 - 0.005j]),
        "3": np.array([0.04j, 0.01 - 0.005j, 0.03 + 0.02j]),
        "swap": 0.04 * np.exp(2j * t) * (1.0 + t),
        "zhat0": 0.2 * (t - 0.5) * (1.0 + 1.0j),
        "negzero": 0.1 * t * np.exp(2j * t),
        "flat": np.full(9, 0.09 * np.exp(0.3j)),
    }[kind]
    if half and kind == "zhat0":
        psi = psi[:5]  # psi = 0 at the far end
    zhat = complex(np.sqrt(psi[psi.size // 2]))
    if kind == "swap":  # |za| < |wa| at both ends
        za, zb = 0.1j * np.exp(0.2j), 0.2 * np.exp(-0.7j)
        pairs = (za, complex(psi[0]) / za, zb, complex(psi[-1]) / zb)
    elif kind == "negzero":
        pairs = (complex(-0.0, 0.0), 0j, *_rotated_pair(psi[-1], -0.4))
    elif kind == "flat":  # |p| == |zhat| exactly: hypot ignores the rotation by 1j
        pairs = (1j * zhat, complex(psi[0]) / (1j * zhat), -zhat, complex(psi[-1]) / -zhat)
    else:
        pairs = (*_rotated_pair(psi[0], 0.9), *_rotated_pair(psi[-1], -1.3))
    return psi, (pairs[:2] + (complex(np.sqrt(psi[-1])),) if half else pairs)


def _direct_factor(name, side):
    from openmult import factor_halfboundary, factor_interval

    psi, pairs = _direct_case(name)
    eps = 0.5
    if side is None:
        z1, z2 = factor_interval(GridFunction(IntervalDomain(0.0, 1.0, psi.size), psi), eps, *pairs)
    else:
        psi = psi if side == "left" else psi[::-1].copy()
        z1, z2 = factor_halfboundary(GridFunction(IntervalDomain(0.0, 1.0, psi.size), psi), eps, *pairs, side=side)
    return z1.values, z2.values


DIRECT_RUNS = ("run_2", "run_3", "run_swap", "run_zhat0", "run_negzero", "run_flat")
DIRECT_HALVES = ("half_2", "half_3", "half_swap", "half_zhat0", "half_negzero", "half_flat",
                 "half_subnormal_7", "half_subnormal_50")
DIRECT_CASES = {
    **{name: (name, None) for name in DIRECT_RUNS},
    **{f"{name}_{side}": (name, side) for name in DIRECT_HALVES for side in ("left", "right")},
}

DIRECT_GOLDEN = {
    "half_2_left": "749d3ec71d8d76c2022ead4a6a12ceb8922720f18de975bf70e4d1afcf55a082",
    "half_2_right": "24292103a7317eee00c25bf295005b22ed4b5532cf3db785a26c04085c20c857",
    "half_3_left": "274b1db518b081f0750268b0a6ba3e8cdc091b78f4c61c734791a9d81f41ac0c",
    "half_3_right": "760085a4eca919f71158c645281ee3fd1f2ec378d314af252c9e7dd10f0a10da",
    "half_flat_left": "bdf7bd70ebcdcec09a917d4c0a053c288c0e7f225351352d83676781d9c4e1b8",
    "half_flat_right": "40870318be8572d112b7c653a8fc1be7f86eb34f162d8f79fccac5b74a669b15",
    "half_negzero_left": "42f529d7ccd44bf7213fb556ff5211c5b60c7bc5a321d9cf731856e0689b15f1",
    "half_negzero_right": "fd924b3e31738cf6229cb77b8fd1b7a9b281f085abb77da1c1c2c3c4efe1296b",
    "half_subnormal_50_left": "7fbb6606068b1476e736bd8c21292417d76e56a48b1dd937f837e2dc89579370",
    "half_subnormal_50_right": "b83d1d326e35f6055bec362659a018dc181715d9bc2f29a52440653d4f12c8bb",
    "half_subnormal_7_left": "2ea2b3c03e0b072d7907494e6eeb06a4504230048461f5720dd12e019b0ede92",
    "half_subnormal_7_right": "497ad0976cd415678371b585736a06b0a46aa34820a8062ec0723c49dfe54882",
    "half_swap_left": "683076e6a3c24f0000f6c893616df4afa986cbb41f5b51f62d557d2e79fc9a64",
    "half_swap_right": "57fee3cd4913bd7c947881e3f6e20929986ed69a3765b9f18d9276e098f5c62e",
    "half_zhat0_left": "16e797247f769e53661ac487ac87280b92c2769690e388114124c90ed0c8e1d6",
    "half_zhat0_right": "0f6ce6a79093c2918a6a0d9c1c0b69a976d21821f52d16eaf67cbfe798c02ddd",
    "run_2": "9197f8bc4968a701e3748d8965f7df1bf0790ce539b0de362ab8fac2ea722095",
    "run_3": "1679a4b6462e360dd5032d9795f4b279d3323fbec68c620c9eec6b3fb30ec476",
    "run_flat": "65a33e5e72fb5c770c4b8607d5f6f766919d59c69b765d86441ab50bf0e1e775",
    "run_negzero": "50693eeee2c5dbc4ee22e744a0821767897ad0dbe39e99e853c26c5304e614e2",
    "run_swap": "49095779a52b9313ff66ab832238761328795e5dec439268ea8dba2e3d5266f5",
    "run_zhat0": "0f98dd3ba0217cd3d62e62747841927af39246fcf5711d4d5e768e2537d62894",
}


@pytest.mark.parametrize("name", sorted(DIRECT_CASES))
def test_direct_factor_golden_digest(name):
    assert _digest(*_direct_factor(*DIRECT_CASES[name])) == DIRECT_GOLDEN[name]


def test_direct_factor_one_ragged_call():
    # Every case above in one _factor_arrays call, runs and halves laid end to
    # end, keeps each case's bits.
    from openmult.interval import _factor_arrays, _halves

    psi, counts, k, size, za, wa, zhat = ([] for _ in range(7))
    for name, side in DIRECT_CASES.values():
        p, pairs = _direct_case(name)
        if side is None:
            _nodes, c, kk, s, _far, _pin = _halves(np.array([[0, p.size - 1]]))
            ends = (pairs[0], pairs[2]), (pairs[1], pairs[3]), (np.sqrt(p[p.size // 2]),) * 2
        else:
            p = p if side == "left" else p[::-1].copy()
            kk = np.arange(p.size)[:: 1 if side == "left" else -1]
            c, s, ends = [p.size], [p.size], tuple([x] for x in pairs)
        for acc, x in zip((psi, counts, k, size, za, wa, zhat), (p, c, kk, s, *ends)):
            acc.extend(x)
    counts, k, size = np.array(counts), np.array(k), np.array(size)
    z1, z2 = _factor_arrays(
        np.array(psi), counts, k, size, np.flatnonzero(k == np.repeat(size, counts) - 1), np.flatnonzero(k == 0),
        *(np.array(x, dtype=np.complex128) for x in (za, wa, zhat)),
    )
    cuts = np.cumsum([_direct_case(name)[0].size for name, _side in DIRECT_CASES.values()])[:-1]
    for name, a, b in zip(DIRECT_CASES, np.split(z1, cuts), np.split(z2, cuts)):
        assert _digest(a, b) == DIRECT_GOLDEN[name], name
