import math

import numpy as np
import pytest

from openmult import pyarith
from openmult.interval import phase_offset, phase_offsets


def _bits(z):
    """A complex as its parts' bit patterns: signed zeros differ, nan equals nan."""
    return np.asarray(z, dtype=np.complex128).view(np.uint64).tolist()


def _parts(rng, n):
    # random signs and scales 1e-300..1e300, with exact and signed zeros and subnormals
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    kind = rng.integers(0, 10, n)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    x[kind == 2] = rng.standard_normal(np.count_nonzero(kind == 2)) * 1e-310
    x[kind == 3] = rng.integers(-4, 5, np.count_nonzero(kind == 3))  # small integers: ties in Smith's branch test
    return x


def _pairs(seed, n=100_000):
    rng = np.random.default_rng(seed)
    a = _parts(rng, n) + 1j * 0.0
    a.imag = _parts(rng, n)
    b = _parts(rng, n) + 1j * 0.0
    b.imag = _parts(rng, n)
    return a, b


def test_product_matches_cpython_bit_for_bit():
    a, b = _pairs(1)
    with np.errstate(all="ignore"):
        got = pyarith.mul(a, b)
    want = [x * y for x, y in zip(a.tolist(), b.tolist())]
    assert _bits(got) == _bits(want)


def test_quotient_matches_cpython_bit_for_bit():
    a, b = _pairs(2)
    keep = b != 0  # Python raises ZeroDivisionError there
    a, b = a[keep], b[keep]
    assert a.size > 90_000
    got = pyarith.quot(a, b)
    want = [x / y for x, y in zip(a.tolist(), b.tolist())]
    assert _bits(got) == _bits(want)


def test_quotient_by_zero_is_nan():
    assert np.isnan(pyarith.quot(np.array([1 + 1j, 0j]), np.array([0j, -0.0 + 0j]))).all()
    # Python divisors: a zero part divides under errstate as a numpy one does
    for divisor in (0j, 0.0, -0.0, complex(0.0, -0.0)):
        assert np.isnan(pyarith.quot(np.array([1 + 1j, 0j]), divisor)).all()
    assert pyarith.quot(np.array([1 + 1j]), 2.0).tolist() == [(1 + 1j) / 2.0]
    assert pyarith.quot(np.array([1 + 1j]), 2j).tolist() == [(1 + 1j) / 2j]


def test_abs_matches_python():
    a, _b = _pairs(3, 20_000)
    with np.errstate(over="ignore"):
        got_abs = pyarith.cabs(a)
    for z, m in zip(a.tolist(), got_abs.tolist()):
        try:
            assert m == abs(z)
        except OverflowError:
            assert m == math.inf


def test_real_quotient_matches_numpy_scalars():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-150, 150, 20_000) + 1j * rng.standard_normal(20_000)
    r = np.abs(rng.standard_normal(20_000)) * 10.0 ** rng.uniform(-150, 150, 20_000)
    got = pyarith.quot_real(a, r)
    want = [x / y for x, y in zip(a, r)]  # numpy complex128 / float64 scalars
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("seed", [5, 6])
def test_phase_offsets_match_numpy_scalar_formula(seed):
    # the rotation as it was computed one Python complex at a time
    rng = np.random.default_rng(seed)
    n = 20_000
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-100, 100, n)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-100, 100, n)
    want = []
    for x, y in zip(z.tolist(), w.tolist()):
        u = np.conj(y) * x
        want.append(complex(1j * u / abs(u)))
    assert _bits(phase_offsets(z, w)) == _bits(want)
    assert _bits([phase_offset(x, y) for x, y in zip(z[:100].tolist(), w[:100].tolist())]) == _bits(want[:100])
