"""The sweep CSV's weight cells, byte for byte as ``%.17g``, in numpy blocks: :func:`cells`.

Every cell that is +0, 1 or in (0, 1), subnormals included, takes its 17 digits and
decade from :func:`decimal` by exact integer arithmetic; ``"%.17g" % v`` is spliced in
for each other cell alone (-0, NaN, +-inf, a negative cell or one above 1) and for each
cell whose rounding the digits leave too close to call.  A cell's text is a function of
its float64 bytes alone.

A block's cells go onto one canvas of 29 bytes a cell, where each byte a cell's layout does
not write is NUL: the bytes around its digits come from tables by decade, its digits from a
table of four-digit chunks whose second half has the trailing zeros NUL.  ``bytes.translate``
deletes the NULs of a block, or of each long row, and leaves each row's text ASCII bytes.
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


def _chunk_table():
    """By i < 10**4: f"{i:04d}" as bytes, then (at 10**4 + i) the same with its
    trailing zeros NUL, the form a chunk takes when every later chunk is 0."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # i's digits, highest first
    kept = digits > 0
    for j in (2, 1, 0):
        kept[:, j] |= kept[:, j + 1]  # a digit is kept if it or a later one is not 0
    text = digits + np.uint8(ord("0"))
    return np.ascontiguousarray(np.vstack([text, text * kept])).view(np.uint32).ravel()


def _decade_tables():
    """By decade E = -324..-1 as a negative index, and by 0 and 1 for a cell of 0 and 1:
    the canvas's 8 bytes at "p" and at "e" (:data:`_FIELDS`), NUL where the layout has no
    byte.  "p" is the fixed layout's (E >= -4) "0." and -E-1 zeros, the scientific's point,
    or the cell "0" or "1"; "e" is the scientific's "e-" and decade, then the separator."""
    prefix, suffix = np.zeros((2, 326, 8), np.uint8)
    prefix[:2, 0] = np.frombuffer(b"01", np.uint8)
    zeros = np.arange(5) < np.arange(5, 1, -1)[:, None]  # E = -4..-1 keep 5..2 bytes
    prefix[-4:, :5] = zeros * np.frombuffer(b"0.000", np.uint8)
    prefix[-324:-4, 6] = ord(".")
    suffix[:, 7] = ord(",")
    decades = ("e-%03d" * 320 % tuple(range(324, 4, -1))).encode()
    suffix[-324:-4, 2:7] = np.frombuffer(decades, np.uint8).reshape(320, 5)
    suffix[-99:-4, 4] = 0  # %g writes a decade above -100 in two digits
    return prefix.view(np.uint64).ravel(), suffix.view(np.uint64).ravel()


_FOUR = _chunk_table()
_PREFIX, _SUFFIX = _decade_tables()
# Rows of at least this many cells are cut one at a time from the canvas, shorter ones by one
# split of the block: on blocks of about 8,192 cells, per-row cuts took 1.04x the block's time
# at n = 10, 1.00x at n = 32 to 48, 0.97x at 64 and 0.95x at 100 (2-vCPU x86-64 host).
_ROW_CELLS = 64
# One cell's canvas, 29 bytes: "p" the 5 bytes before the first digit, then 3 bytes, the
# point "q" among them, that "f" and "d" overwrite and "q" keeps; the first digit "f"; the
# 16 digits after the point "d"; and "e", its first 2 bytes under "d", then "e-" and the
# decade and the separator "s".
_FIELDS = np.dtype(
    dict(
        names=["p", "f", "q", "d", "e", "s"],
        formats=["<u8", "u1", "u1", "V16", "<u8", "u1"],
        offsets=[0, 5, 6, 7, 21, 28],
        itemsize=29,
    )
)


def cells(x: np.ndarray) -> list:
    """``b",".join(b"%.17g" % v for v in row)`` for each row of the float64
    matrix ``x``.  Each cell goes onto the canvas in the layout ``%g`` picks
    (fixed for decades E >= -4, scientific below): the bytes before and after
    its digits from ``_PREFIX`` and ``_SUFFIX`` by decade, its 16 digits after
    the first from ``_FOUR``, four at a time, a chunk after which every chunk
    is 0 in its form with the trailing zeros NUL.  The point goes with the
    digits after it.  ``translate`` keeps the bytes that are not NUL: of the
    canvas, split at line breaks, or of each row of ``_ROW_CELLS`` cells or more.
    """
    n = x.shape[1]
    v = x.ravel()
    inner = (v > 0.0) & (v < 1.0)
    one = v == 1.0
    D, E, splice = decimal(np.where(inner, v, 0.5))  # the ends take their own table rows
    splice |= ~(inner | one | ((v == 0.0) & ~np.signbit(v)))
    # Quotient, then the remainder by multiply-subtract: numpy's divmod is several times slower.
    first = D // np.uint64(10**16)
    rest = D - first * np.uint64(10**16)  # 0 for 0.5, so for the ends
    eights = np.empty((len(D), 2), np.uint32)
    eights[:, 0] = high = rest // np.uint64(10**8)
    eights[:, 1] = rest - high * np.uint64(10**8)
    fours = np.empty((len(D), 4), np.uint32)
    fours[:, 0::2] = high = eights // np.uint32(10**4)
    fours[:, 1::2] = eights - high * np.uint32(10**4)
    zero = fours == 0
    tail = np.empty(fours.shape, bool)  # tail[:, j]: every chunk after chunk j is 0
    tail[:, 3] = True
    tail[:, 2] = zero[:, 3]
    np.logical_and(zero[:, 2], tail[:, 2], out=tail[:, 1])
    np.logical_and(zero[:, 1], tail[:, 1], out=tail[:, 0])
    fours += tail * np.uint32(10**4)
    fields = np.empty(len(D), _FIELDS)
    at = np.where(inner, E, one)
    fields["p"] = np.take(_PREFIX, at)
    fields["e"] = np.take(_SUFFIX, at)
    np.multiply(first + ord("0"), inner, out=fields["f"], casting="unsafe")
    fields["q"] *= rest != 0  # no point before no digits
    fields["d"] = np.take(_FOUR, fours).view("V16").ravel()
    if n < _ROW_CELLS:
        fields["s"][n - 1 :: n] = ord("\n")
        lines = fields.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    else:
        fields["s"][n - 1 :: n] = 0
        lines = [row.tobytes().translate(None, b"\0") for row in fields.reshape(-1, n)]
    return _splice(lines, x, splice.reshape(x.shape))


def _splice(lines: list, x: np.ndarray, splice: np.ndarray) -> list:
    """``lines`` with ``b"%.17g" % x[i, j]`` for cell j of line i wherever ``splice[i, j]``."""
    for i in np.flatnonzero(splice.any(axis=1)).tolist():
        cells = lines[i].split(b",")
        for j in np.flatnonzero(splice[i]).tolist():
            cells[j] = b"%.17g" % x[i, j]
        lines[i] = b",".join(cells)
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
    p = np.take(_POW5, k)
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
