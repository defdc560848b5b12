"""The paper's weighted-average access-rate estimator.

At every sampling instant (every 1000 cycles in the paper)::

    Wt.Avg = (1 - x) * Wt.Avg + x * access_rate

with ``x = 1/2**shift`` so the multiplications reduce to shift operations —
the paper uses ``x = 1/128`` (a 7-bit shift), retaining memory over roughly
``2**shift`` samples (~0.5 M cycles at the paper's sampling rate).

Two implementations are provided: a float :class:`Ewma`, whose blend
expression :class:`~repro.core.usage.UsageMonitor` applies in the scalar
simulator and the batch kernel alike, and :class:`FixedPointEwma`, the
bit-exact integer datapath a hardware implementation would use (one
subtract, one shift, one add), kept to demonstrate the paper's claim that
the monitor is cheap and used in tests to bound the fixed-point error.
"""

from __future__ import annotations

from ..errors import ConfigError


class Ewma:
    """Float exponentially weighted moving average with power-of-two x."""

    __slots__ = ("shift", "x", "value", "samples", "missed")

    def __init__(self, shift: int, initial: float = 0.0) -> None:
        if not 0 <= shift <= 30:
            raise ConfigError("EWMA shift out of range [0, 30]")
        self.shift = shift
        self.x = 1.0 / (1 << shift)
        self.value = initial
        self.samples = 0
        self.missed = 0

    def update(self, sample: float) -> float:
        """Blend in one sample and return the new average."""
        self.value += (sample - self.value) * self.x
        self.samples += 1
        return self.value

    def miss(self) -> float:
        """Record a missed sampling tick; the average is left untouched.

        The hardware datapath has no "no sample arrived" input: a missed
        tick simply does not clock the register, and the *next* sample's
        rate is computed over the widened elapsed window (see
        :meth:`repro.core.usage.UsageMonitor.sample`).  The counter exists
        so fault-injection tests can assert how many ticks were lost.
        """
        self.missed += 1
        return self.value

    def reset(self, value: float = 0.0) -> None:
        self.value = value
        self.samples = 0
        self.missed = 0

    @property
    def window_samples(self) -> int:
        """Effective memory, in samples (the paper's '1000 sample points')."""
        return 1 << self.shift


class FixedPointEwma:
    """Bit-exact integer EWMA: ``avg += (sample - avg) >> shift``.

    ``fraction_bits`` scales samples into fixed point so small rates survive
    the shift.  All arithmetic is integer adds/subtracts/shifts — exactly the
    "peripheral arithmetic logic" the paper budgets per resource per thread.
    """

    __slots__ = ("shift", "fraction_bits", "raw", "samples", "missed")

    def __init__(self, shift: int, fraction_bits: int = 16) -> None:
        if not 0 <= shift <= 30:
            raise ConfigError("EWMA shift out of range [0, 30]")
        if not 0 <= fraction_bits <= 32:
            raise ConfigError("fraction_bits out of range [0, 32]")
        self.shift = shift
        self.fraction_bits = fraction_bits
        self.raw = 0
        self.samples = 0
        self.missed = 0

    def update(self, sample: float) -> float:
        scaled = int(round(sample * (1 << self.fraction_bits)))
        self.raw += (scaled - self.raw) >> self.shift
        self.samples += 1
        return self.value

    def miss(self) -> float:
        """Missed tick: the register is not clocked (see :meth:`Ewma.miss`)."""
        self.missed += 1
        return self.value

    @property
    def value(self) -> float:
        return self.raw / (1 << self.fraction_bits)

    def reset(self) -> None:
        self.raw = 0
        self.samples = 0
        self.missed = 0
