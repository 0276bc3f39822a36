"""Degree vectors over (Z_2)^n and the pairing that drives every sign.

A degree vector labels coordinates, series and vector fields.  The bilinear
pairing ``<a, b> = sum_i a_i b_i (mod 2)`` produces the factor
``(-1)^{<a,b>}`` picked up whenever two homogeneous factors are transposed.
Note that for n >= 2 a nonzero vector may pair to 0 with itself: such
degrees are even but not zero, and the generators they label are not
nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionError


@dataclass(frozen=True)
class DegreeVector:
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise DimensionError("degree vector needs at least one component")
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise DimensionError(f"degree bits must be 0 or 1: {self.bits!r}")

    @classmethod
    def of(cls, *bits: int) -> "DegreeVector":
        return cls(tuple(bits))

    @classmethod
    def zero(cls, n: int) -> "DegreeVector":
        return cls((0,) * n)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "DegreeVector":
        return cls(tuple(data))

    def _check_length(self, other: "DegreeVector") -> None:
        if len(self.bits) != len(other.bits):
            raise DimensionError(
                f"degree length mismatch: {len(self.bits)} vs {len(other.bits)}"
            )

    def __add__(self, other: "DegreeVector") -> "DegreeVector":
        self._check_length(other)
        return DegreeVector(
            tuple((a + b) % 2 for a, b in zip(self.bits, other.bits))
        )

    def dot(self, other: "DegreeVector") -> int:
        self._check_length(other)
        return sum(a * b for a, b in zip(self.bits, other.bits)) % 2

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    @property
    def is_odd(self) -> bool:
        return self.dot(self) == 1

    def to_json(self) -> list[int]:
        return list(self.bits)

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.bits) + ")"


def scalar_product(a: DegreeVector, b: DegreeVector) -> int:
    """The (Z_2)-valued pairing behind the sign rule."""
    return a.dot(b)


def parity(a: DegreeVector) -> str:
    """``"odd"`` iff ``<a, a> = 1``; nonzero degrees can still be even."""
    return "odd" if a.is_odd else "even"
