"""The ``%.17g`` digits and decade of doubles in (0, 1), exactly, in numpy: :func:`decimal`."""

from itertools import accumulate
from operator import mul

import numpy as np

_LOW32 = np.uint64(0xFFFFFFFF)
_FIVES = list(accumulate([5] * 341, mul, initial=1))
_POW5 = np.array(_FIVES[:28], dtype=np.uint64)
# By the exponent b = -1074..-1 of a cell's binade [2**b, 2**(b+1)), as a negative index:
# F = floor(log10 2**b) (78913 / 2**18 is log10 2 closely enough for these b), as 10**-F is
# the least power of ten >= 2**-b; and, from Python integers, the least m for which
# m * 2**(b-52) >= 10**(F+1) - 5 * 10**(F-17), so rounds to 10**(F+1) at 17 digits (a tie
# rounds to even: up).
_FLOOR_LOG10 = -((np.arange(1074, 0, -1) * 78913 >> 18) + 1)
_NEXT_DECADE = np.array(
    [-((5 - 10**18 << 35 - b + f) // _FIVES[17 - f])
     for b, f in enumerate(_FLOOR_LOG10.tolist(), -1074)],
    np.uint64,
)
# P_k, the top 128 bits of 5**k in 32-bit limbs from the lowest, and t_k, for which
# 5**k = P_k * 2**t_k + r, 0 <= r < 2**t_k.  For k <= 55, 5**k fits: r = 0 and t_k <= 0.
_P128 = np.frombuffer(
    b"".join(((p << 128) >> p.bit_length()).to_bytes(16, "little") for p in _FIVES), "<u4"
).reshape(-1, 4).astype(np.uint64)
_P128_SHIFT = np.array([p.bit_length() - 128 for p in _FIVES])


def decimal(v: np.ndarray):
    """(D, E, near) for a 1-d float64 array ``v`` of values in (0, 1): each x rounded to
    17 significant digits is D * 10**(E-16), but for the cells ``near`` (:func:`_wide_digits`).

    A cell v = m * 2**(b-52), 2**52 <= m < 2**53 (a subnormal's m shifted up to 53 bits),
    has its decade E in [-324, -1], read from b and m by two tables and one comparison as
    its binade holds at most one power of ten, and its digits
    D = round-half-even(m * 5**k / 2**s), k = 16 - E, s = 36 - b + E.  For E >= -11, 5**k
    fits in 64 bits; below that the 128-bit P_k stands in for it.
    """
    frac, exp = np.frexp(v)
    m, b = (frac * 2.0**53).astype(np.uint64), exp - 1
    E = _FLOOR_LOG10[b] + (m >= _NEXT_DECADE[b])
    s, wide, near = 36 - b + E, E < -11, np.zeros(len(v), bool)
    if not wide.any():
        return _scaled_digits(m, s, 16 - E), E, near
    D, narrow = np.empty(len(v), np.uint64), ~wide
    D[narrow] = _scaled_digits(m[narrow], s[narrow], 16 - E[narrow])
    D[wide], near[wide] = _wide_digits(m[wide], s[wide], 16 - E[wide])
    return D, E, near


def _scaled_digits(m, s, k):
    """m * 5**k / 2**s rounded to an integer, half to even, for
    uint64 ``m`` < 2**53, ``k`` <= 27 and 1 <= ``s`` <= 63."""
    p = _POW5[k]
    s = s.astype(np.uint64)
    one, b32 = np.uint64(1), np.uint64(32)
    m0, m1 = m & _LOW32, m >> b32
    p0, p1 = p & _LOW32, p >> b32
    low, cross, cross2 = m0 * p0, m0 * p1, m1 * p0
    carry = (cross & _LOW32) + (cross2 & _LOW32) + (low >> b32)
    mid = (carry << b32) | (low & _LOW32)  # bits 0..63 of the product
    high = m1 * p1 + (cross >> b32) + (cross2 >> b32) + (carry >> b32)  # bits 64..
    q = (high << (np.uint64(64) - s)) | (mid >> s)
    rem, half = mid & ((one << s) - one), one << (s - one)
    return q + ((rem > half) | ((rem == half) & (q & one == one)))


def _wide_digits(m, s, k):
    """(D, near) for uint64 ``m`` < 2**53 and the ``s`` and ``k`` (28..340) of cells
    below 1e-11: m * 5**k / 2**s rounded, and whether it is too near a half to tell.

    X = m * P_k < 2**181 is taken exactly in 32-bit limbs; D is X / 2**s' rounded,
    s' = s - t_k in [123, 127] as D is in [10**16, 10**17).  The bound: the true
    m * 5**k / 2**s exceeds X / 2**s' by m * r / 2**s, in [0, m / 2**s'), under 2**53
    units of X mod 2**s' (2**-69 of a last digit).  Being never negative, it flips
    only a remainder within 2**53 below the half: that cell is ``near``.  One carried
    past an integer rounds to it all the same.  For k <= 55, r = 0: none is near.
    No cell is a tie, which needs 2**(s-1) to divide m, as s > 53 here.
    """
    b32 = np.uint64(32)
    a = (m & _LOW32)[:, None] * _P128[k]  # below 2**64, at 2**(32j)
    c = (m >> b32)[:, None] * _P128[k]  # below 2**53, at 2**(32(j+1))
    limbs, carry = [None], a[:, 0] >> b32  # limb 0 is never read
    for j in range(1, 4):
        t = (a[:, j] & _LOW32) + (c[:, j - 1] & _LOW32) + carry
        limbs.append(t & _LOW32)
        carry = (t >> b32) + (a[:, j] >> b32) + (c[:, j - 1] >> b32)
    high = ((c[:, 3] + carry) << np.uint64(11)) | (limbs[3] >> np.uint64(21))  # X >> 117
    low = (limbs[3] << np.uint64(43)) | (limbs[2] << np.uint64(11)) | (limbs[1] >> np.uint64(21))
    u = (s - _P128_SHIFT[k] - 117).astype(np.uint64)  # s' - 117, in [6, 10]
    half = np.uint64(1) << (u - np.uint64(1))
    r = high & ((half << np.uint64(1)) - np.uint64(1))  # X mod 2**s', from bit 117 up
    near = (k > 55) & (r == half - np.uint64(1)) & (low == np.uint64(2**64 - 1))
    return (high >> u) + (r >= half), near
