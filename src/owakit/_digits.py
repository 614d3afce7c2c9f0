"""The sweep CSV's weight cells, byte for byte as ``%.17g``, in numpy blocks: :func:`cells`.

Every cell that is +0, 1 or in (0, 1), subnormals included, takes its 17 digits and
decade from :func:`decimal` by exact integer arithmetic; ``"%.17g" % v`` is spliced in
for each other cell alone (-0, NaN, +-inf, a negative cell or one above 1) and for each
cell whose rounding the digits leave too close to call.  A cell's text is a function of
its float64 bytes alone.
"""

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

# By i < 10**4: f"{i:04d}" as bytes and its trailing zeros ("0000": 4); uint16 spares import RSS.
_FOUR = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_FOUR = (_FOUR % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TZ = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
# By -E = 0..324: "-" and the decade's three digits.
_DECADES = np.frombuffer(("-%03d" * 325 % tuple(range(325))).encode(), np.uint32)
# One cell's canvas: "0.000" for the fixed layout, then the 17 digits with a
# point after the first, "e-" and a three-digit decade, then the separator;
# as _FIELDS, d is its 16 digits after the point and e is "-" and the decade.
_CANVAS = np.frombuffer(b"0.000d.0000000000000000e-000,", np.uint8)
_FIELDS = np.dtype(dict(names=["d", "e"], formats=["V16", "V4"], offsets=[7, 24], itemsize=29))


def _keep_masks():
    """The canvas bytes each layout keeps: row 0 for a cell of 0 or 1,
    then one row per decade E = -1..-324 and digit count L = 1..17."""
    col = np.arange(len(_CANVAS))
    E = np.array([-1, -2, -3, -4, -5, -100])[:, None, None]  # the decades' six layouts
    L = np.arange(1, 18)[None, :, None]
    digits = (col == 5) | ((col >= 7) & (col <= 5 + L))
    fixed = digits | (col < 1 - E)  # "0." and -E-1 zeros
    decade = (col == 23) | (col == 24) | ((col >= 26 - (E <= -100)) & (col <= 27))
    scientific = digits | ((col == 6) & (L > 1)) | decade
    keep = np.repeat(np.where(E >= -4, fixed, scientific), [1, 1, 1, 1, 95, 225], axis=0)
    keep = keep.reshape(-1, len(col))
    return np.vstack([col == 0, keep]) | (col == len(col) - 1)


_KEEP = _keep_masks()


def cells(x: np.ndarray) -> list:
    """``",".join("%.17g" % v for v in row)`` for each row of the float64
    matrix ``x``.  The digits D of each cell go onto a canvas four at a
    time, and the layout ``%g`` picks (fixed for decades E >= -4,
    scientific below) keeps the bytes it needs, without trailing zeros.
    """
    n = x.shape[1]
    v = x.ravel()
    inner = (v > 0.0) & (v < 1.0)
    D, E, splice = decimal(np.where(inner, v, 0.5))  # the ends take their own layout
    splice |= ~(inner | (v == 1.0) | ((v == 0.0) & ~np.signbit(v)))
    first, rest = np.divmod(D, np.uint64(10**16))
    eights = np.empty((len(D), 2), np.uint32)
    eights[:, 0], eights[:, 1] = np.divmod(rest, np.uint64(10**8))
    fours = np.empty((len(D), 4), np.uint32)
    fours[:, 0::2], fours[:, 1::2] = np.divmod(eights, np.uint32(10**4))
    canvas = np.frombuffer(bytearray(_CANVAS.tobytes() * len(D)), np.uint8).reshape(len(D), -1)
    canvas[:, 0] += v == 1.0
    canvas[:, 5] = first + ord("0")
    fields = canvas.reshape(-1).view(_FIELDS)
    fields["d"] = np.take(_FOUR, fours).view("V16").ravel()
    fields["e"] = np.take(_DECADES, -E).view("V4")
    canvas[n - 1 :: n, -1] = ord("\n")
    # Digits kept: 17 less the trailing zeros, a chunk's counted if those after it are all 0.
    t = np.take(_TZ, fours)
    z = t == 4
    zeros = t[:, 3] + z[:, 3] * (t[:, 2] + z[:, 2] * (t[:, 1] + z[:, 1] * t[:, 0]))
    layout = np.where(inner, -17 * E - zeros, 0)
    lines = canvas[np.take(_KEEP, layout, axis=0)].tobytes().decode("ascii").split("\n")
    return _splice(lines[:-1], x, splice.reshape(x.shape))


def _splice(lines: list, x: np.ndarray, splice: np.ndarray) -> list:
    """``lines`` with ``"%.17g" % x[i, j]`` for cell j of line i wherever ``splice[i, j]``."""
    for i in np.flatnonzero(splice.any(axis=1)).tolist():
        cells = lines[i].split(",")
        for j in np.flatnonzero(splice[i]).tolist():
            cells[j] = "%.17g" % x[i, j]
        lines[i] = ",".join(cells)
    return lines


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
