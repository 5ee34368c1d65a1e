"""Minimal cm/sec unit bookkeeping for norms and a priori bounds.

Every quantity in the solver carries units built from centimeters and
seconds, so a two-exponent algebra suffices.  Sobolev norms of dimensionless
fields mix cm powers across terms; those carry a `mixed` flag that survives
multiplication but cannot enter exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class UnitsError(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Unit:
    cm: Fraction = Fraction(0)
    sec: Fraction = Fraction(0)
    mixed: bool = False

    def __mul__(self, other: "Unit") -> "Unit":
        return Unit(self.cm + other.cm, self.sec + other.sec, self.mixed or other.mixed)

    def __truediv__(self, other: "Unit") -> "Unit":
        return Unit(self.cm - other.cm, self.sec - other.sec, self.mixed or other.mixed)

    def __pow__(self, r) -> "Unit":
        r = _frac(r)
        if self.mixed and r != 1:
            raise UnitsError("cannot take powers of a mixed-unit quantity")
        return Unit(self.cm * r, self.sec * r, self.mixed)

    @property
    def dimensionless(self) -> bool:
        return not self.mixed and self.cm == 0 and self.sec == 0

    def __str__(self) -> str:
        if self.mixed:
            return "mixed"
        if self.dimensionless:
            return "dimensionless"
        parts = []
        for sym, exp in (("cm", self.cm), ("sec", self.sec)):
            if exp != 0:
                parts.append(sym if exp == 1 else f"{sym}^{exp}")
        return " ".join(parts)


DIMENSIONLESS = Unit()
CM = Unit(cm=Fraction(1))
SEC = Unit(sec=Fraction(1))
MIXED = Unit(mixed=True)


@dataclass(frozen=True)
class UnitValue:
    """A float tagged with units; addition enforces unit agreement."""

    value: float
    unit: Unit = DIMENSIONLESS

    def __add__(self, other: "UnitValue") -> "UnitValue":
        if self.unit != other.unit:
            # Adding to an exact zero is unit-neutral (empty sums).
            if self.value == 0.0:
                return other
            if other.value == 0.0:
                return self
            raise UnitsError(f"cannot add {self.unit} to {other.unit}")
        return UnitValue(self.value + other.value, self.unit)

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        # An exact zero factor gives zero even against an overflowed +inf:
        # the overflow stands for a finite value, so the product is 0.
        zero = self.value == 0.0 or other.value == 0.0
        value = 0.0 if zero else self.value * other.value
        return UnitValue(value, self.unit * other.unit)

    def __truediv__(self, other: "UnitValue") -> "UnitValue":
        return UnitValue(self.value / other.value, self.unit / other.unit)

    def __pow__(self, r) -> "UnitValue":
        r = _frac(r)
        return UnitValue(float(self.value) ** float(r), self.unit ** r)

    def sqrt(self) -> "UnitValue":
        return self ** Fraction(1, 2)


def uv(value: float, unit: Unit = DIMENSIONLESS) -> UnitValue:
    return UnitValue(float(value), unit)


def uexp(x: UnitValue) -> UnitValue:
    """exp of a dimensionless quantity; overflow saturates to +inf."""
    if not x.unit.dimensionless:
        raise UnitsError(f"exponent must be dimensionless, got {x.unit}")
    try:
        v = math.exp(x.value)
    except OverflowError:
        v = math.inf
    return UnitValue(v, DIMENSIONLESS)
