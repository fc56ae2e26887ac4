"""Complex arithmetic over arrays with the bits of scalar arithmetic.

Code that once ran per element on Python `complex` numbers keeps its output
bits over arrays only if each operation rounds as the scalar one did.  numpy's
array kernels do not: its complex product may fuse a multiply into the add
(FMA), its array `abs` is not `hypot`, and its quotient is not CPython's.
Each helper here runs the scalar formula one real operation (one ufunc) at a
time, in the scalar order.
"""

from __future__ import annotations

import numpy as np

# glibc raises its mmap threshold to the size of the largest block it unmaps,
# and its trim threshold to twice that; freeing one untouched 4 MiB block
# keeps the pipelines' MiB-sized temporaries on the heap between calls (a
# 400-edge open_mult_graph took ~400 minor page faults per call, then 0).
np.empty(4 << 20, dtype=np.uint8)


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def cabs(a):
    """abs(a) as Python's and numpy's scalar `abs` round it: hypot."""
    return np.hypot(np.real(a), np.imag(a))


def mul(a, b):
    """a*b as CPython's `_Py_c_prod`, and numpy's scalar product, round it:
    (ar*br - ai*bi) + (ar*bi + ai*br)j, each product rounded on its own."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def quot(a, b):
    """a/b as CPython's `_Py_c_quot` rounds it (Smith's algorithm, scaled by
    the larger part of b).  nan where b == 0 (Python raises there) or b has a
    nan part."""
    b = np.asarray(b, dtype=np.complex128)  # a Python divisor's parts then divide under errstate too
    ar, ai, br, bi = np.real(a), np.imag(a), b.real, b.imag
    with np.errstate(all="ignore"):  # the branch not taken may divide by zero
        by_real = np.abs(br) >= np.abs(bi)
        ratio = bi / br
        denom = br + bi * ratio
        re = (ar + ai * ratio) / denom
        im = (ai - ar * ratio) / denom
        ratio = br / bi
        denom = br * ratio + bi
        re = np.where(by_real, re, (ar * ratio + ai) / denom)
        im = np.where(by_real, im, (ai * ratio - ar) / denom)
    return _complex(re, im)


def quot_real(a, r):
    """a/r for real r >= 0 as numpy's scalar complex-by-real division rounds
    it: a times 1/r, by parts, with the zero imaginary part of r carried."""
    scl = 1.0 / r
    ar, ai = np.real(a), np.imag(a)
    return _complex((ar + ai * 0.0) * scl, (ai - ar * 0.0) * scl)
