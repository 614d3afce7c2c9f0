"""Core OWA machinery: weight vectors, aggregation, orness and dispersion."""

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

# Closed-form weight constructions should be exact to rounding.
WEIGHT_SUM_TOL = 1e-12
# Linear-family shape exponent when none is given: the steepest slope.
DEFAULT_BETA = 1.5


class DimensionMismatchError(ValueError):
    """Raised when a weight vector and an input vector disagree in length."""


def _checked_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` unless it
    is 1-d, non-empty and finite.  May share the caller's buffer."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _simplex_rows(rows: np.ndarray) -> tuple:
    """``(clipped, problems)`` for ``rows``, a non-empty 2-d float array
    holding one weight vector per row: the rows clipped to [0, 1], and per
    row None or the message naming its fault, a weight outside [0, 1] or
    a sum off 1, both by more than ``WEIGHT_SUM_TOL``.  A NaN fails the
    range check."""
    total = rows.sum(axis=1)
    problems = [None] * len(rows)
    if not (
        rows.min() >= -WEIGHT_SUM_TOL
        and rows.max() <= 1.0 + WEIGHT_SUM_TOL
        and abs(total - 1.0).max() <= WEIGHT_SUM_TOL
    ):
        lows, highs = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
        for i, (low, high, row_sum) in enumerate(zip(lows, highs, total.tolist())):
            if not (low >= -WEIGHT_SUM_TOL and high <= 1.0 + WEIGHT_SUM_TOL):
                problems[i] = f"weights must lie in [0, 1]; got range [{low:.17g}, {high:.17g}]"
            elif not abs(row_sum - 1.0) <= WEIGHT_SUM_TOL:
                problems[i] = f"weights must sum to 1; got {row_sum:.17g}"
    return np.clip(rows, 0.0, 1.0), problems


@dataclass(frozen=True, eq=False)
class WeightVector:
    """An OWA weight vector.

    ``w[0]`` is paired with the largest ordered input.  Construction
    validates the simplex invariants: every weight in [0, 1] and the
    weights summing to 1 within ``WEIGHT_SUM_TOL``.
    """

    w: np.ndarray

    def __post_init__(self):
        rows, (problem,) = _simplex_rows(_checked_array(self.w, "weights")[np.newaxis])
        if problem is not None:
            raise ValueError(problem)
        arr = rows[0]
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)

    @property
    def n(self) -> int:
        return self.w.size

    def reversed(self) -> "WeightVector":
        """The mirror operator: weight order flipped end to end."""
        return WeightVector(self.w[::-1])

    def __len__(self) -> int:
        return self.w.size

    def __iter__(self):
        return iter(self.w)


@dataclass(frozen=True)
class OrnessTarget:
    """A requested orness in [0, 1] plus the shape exponent of the
    linear family (defaults to ``DEFAULT_BETA``)."""

    orness: float
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        object.__setattr__(self, "orness", _check_orness(self.orness))
        object.__setattr__(self, "beta", _check_beta(self.beta))


def _check_orness(orness: float) -> float:
    """``orness`` as a plain float; ValueError unless it is in [0, 1]
    (NaN is not)."""
    if not 0.0 <= orness <= 1.0:
        raise ValueError(f"orness must be in [0, 1]; got {orness}")
    return float(orness)


def _check_beta(beta: float) -> float:
    """``beta`` as a plain float; ValueError unless it is in [1, 1.5],
    where every linear weight is >= 0."""
    if not 1.0 <= beta <= 1.5:
        raise ValueError(f"beta must be in [1.0, 1.5]; got {beta}")
    return float(beta)


@dataclass(frozen=True, eq=False)
class InputVector:
    """Values to aggregate.  Carries no ordering assumption."""

    x: np.ndarray

    def __post_init__(self):
        # Freeze a view, not the caller's own array, which stays writeable.
        arr = _checked_array(self.x, "inputs").view()
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size


def orness(w: WeightVector) -> float:
    """Degree to which ``w`` behaves like the maximum (OR) operator.

    Returns (1/(n-1)) * sum((n-i) * w_i), in [0, 1].  For the degenerate
    n = 1 operator (simultaneously min, max and mean) the convention is
    0.5, reported with a warning rather than an error.
    """
    n = w.n
    if n == 1:
        warnings.warn(
            "orness of a length-1 weight vector is degenerate; "
            "returning 0.5 by convention",
            stacklevel=2,
        )
        return 0.5
    return _orness_array(w.w)


def _orness_array(w: np.ndarray) -> float:
    """Orness of a plain weight array of length n >= 2 (no validation)."""
    return _orness_rows((w,))[0]


def _orness_rows(rows) -> list:
    """Orness of each weight array in ``rows``, all of one length n >= 2,
    as floats.  One 1-d dot product per row: a matrix-vector product over
    all rows rounds differently in the last bit."""
    n = len(rows[0])
    coef = np.arange(n - 1, -1, -1, dtype=float)
    return [float(coef @ w / (n - 1)) for w in rows]


def _check_request(orness: float, n, min_n: int) -> tuple:
    """``(orness, n)`` as a plain float and int; ValueError unless orness
    passes :func:`_check_orness` and ``n`` passes :func:`_check_n`."""
    return _check_orness(orness), _check_n(n, min_n)


def _check_n(n, min_n: int, name: str = "n") -> int:
    """``n`` as a plain int; ValueError naming ``name`` unless it is an
    integer (numpy integers included) of at least ``min_n``."""
    try:
        index = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer; got {n!r}") from None
    if index < min_n:
        raise ValueError(f"{name} must be >= {min_n}; got {n}")
    return index


def dispersion(w: WeightVector) -> float:
    """Shannon-style entropy -sum(w_i ln w_i), with 0 ln 0 = 0.

    Ranges from 0 (single atom) to ln n (uniform weights).
    """
    return _dispersion_array(w.w)


def _dispersion_array(w: np.ndarray) -> float:
    """Dispersion of a plain weight array (no validation)."""
    pos = w[w > 0.0]
    # 0.0 - s, not -s: a single atom sums to 0.0 and must give +0.0.
    return 0.0 - float((pos * np.log(pos)).sum())


def aggregate(w: WeightVector, x) -> float:
    """Aggregate ``x`` with the OWA operator ``w``.

    ``x`` may be an :class:`InputVector` or any 1-d sequence; it is
    sorted descending internally, so the caller need not pre-order
    anything.
    """
    xs = x.x if isinstance(x, InputVector) else _checked_array(x, "inputs")
    if xs.size != w.n:
        raise DimensionMismatchError(
            f"weight vector has length {w.n} but input vector has length {xs.size}"
        )
    # Contiguous, unlike np.sort(x)[::-1], whose reversed view changes the
    # dot product's summation order and with it the last bit.
    ordered = -np.sort(-xs)
    return float(w.w @ ordered)


def uniform_weights(n: int) -> WeightVector:
    """The simple-average operator of size ``n``, an integer >= 1."""
    n = _check_n(n, 1)
    return WeightVector(np.full(n, 1.0 / n))
