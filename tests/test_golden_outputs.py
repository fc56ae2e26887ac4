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

from openmult import (
    GridFunction,
    IntervalDomain,
    delta0,
    function_from_json,
    open_mult_graph,
    open_mult_interval,
    probe_pipeline,
    refine,
)
from openmult.interval import factorize_interval_arrays, plan_interval, solve_interval

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
    d1, d2, meta = factorize_interval_arrays(f.values, g.values, d.values, eps0, strict=False)[:3]
    return d1, d2, meta["cover"]


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


def _probe(n, kind):
    dom = IntervalDomain(0.0, 1.0, n)
    rng = np.random.default_rng([17, kind, n])
    fv, gv = _family(dom.nodes(), rng, kind)
    return probe_pipeline(GridFunction(dom, fv), GridFunction(dom, gv), 0.7, trials=4, seed=n + kind)


PROBE_CASES = {
    f"probe_family{kind}_n{n}": (lambda n=n, kind=kind: _probe(n, kind))
    for n in (129, 1025)
    for kind in range(4)
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
        want = factorize_interval_arrays(fv, gv, dv, 0.7, strict=strict)
        got = solve_interval(plan, dv, strict=strict)
        assert _digest(got[0], got[1]) == _digest(want[0], want[1])
        assert got[2:] == want[2:]
    now = [plan.fv, plan.gv] + [a for seg in plan.segments for a in seg[2:]]
    assert all(np.array_equal(a, b) for a, b in zip(kept, now))
    assert plan.fv is fv and plan.gv is gv
