"""Host speed, measured with fixed reference work that does not use owakit.

On a shared host the same code runs up to a quarter faster or slower from
one minute to the next.  Timing reference work next to the measured work
gives ``HostSpeed.factor``: the reference unit's nominal time over its
measured time.  A time multiplied by it (a rate divided by it) reads as on
a host where the unit takes its nominal time, so drift of the host cancels
while a change to owakit, which the reference work does not run, shows in
full.
"""

from time import perf_counter_ns

_DATA = [((i * 7919) % 64) / 64.0 for i in range(64)]


def python_unit() -> None:
    """Interpreter work, sorting and number formatting.  Plain Python, so it
    can run before the import whose time it scales."""
    data = list(_DATA)
    acc = 0.0
    for i in range(150):
        data.sort(reverse=bool(i & 1))
        acc += sum(x * x for x in data[:16])
        format(acc, ".17g")


def mixed_unit() -> None:
    """Interpreter work, small NumPy calls and number formatting: the mix
    the workloads spend their time on."""
    import numpy as np

    data = np.array(_DATA)
    acc = 0.0
    for i in range(80):
        ordered = np.sort(data)
        acc += float(ordered @ data) + sum(range(i))
        format(acc, ".17g")


# About each unit's time on an idle 2.1 GHz Xeon core; this fixes the scale only.
NOMINAL_NS = {python_unit: 250_000, mixed_unit: 250_000}


class HostSpeed:
    """Reference work timed next to the measured work; ``factor`` scales
    times to the host on which each unit takes ``NOMINAL_NS``."""

    # During a run, reference work fills this share of the wall time, in
    # blocks so that few units start with cold caches.
    SHARE = 0.05
    BLOCK = 20

    def __init__(self, unit=mixed_unit):
        self.unit = unit
        self.start_ns = perf_counter_ns()
        self.ref_ns = 0
        self.units = 0

    def sample(self, units: int) -> "HostSpeed":
        unit = self.unit
        t0 = perf_counter_ns()
        for _ in range(units):
            unit()
        self.ref_ns += perf_counter_ns() - t0
        self.units += units
        return self

    def keep_up(self) -> None:
        """Run reference units until they fill SHARE of the elapsed time."""
        while self.ref_ns < self.SHARE * (perf_counter_ns() - self.start_ns):
            self.sample(self.BLOCK)

    @property
    def factor(self) -> float:
        return self.factor_since(0, 0)

    def factor_since(self, units: int, ref_ns: int) -> float:
        """The factor over the units run since ``units`` and ``ref_ns``."""
        return NOMINAL_NS[self.unit] * (self.units - units) / (self.ref_ns - ref_ns)
