"""Bitmask words over GF(2)^n: the public value type, with XOR and printing."""

from __future__ import annotations

__all__ = ["MAX_DIM", "Word"]

from dataclasses import dataclass

# The whole-buffer paths pack one word per 32-bit lane of an array('I')
# (see the lane check in sequences.py), and a lift shifts each value left
# for its two-bit tag: 30 bits plus the tag is all that fits in a lane.
MAX_DIM = 30


@dataclass(frozen=True)
class Word:
    """An n-bit vector stored as an unsigned bitmask.

    Bit j holds coordinate j.  The string form reads most significant bit
    first, so the decimal value of a word equals its 0/1 string read as a
    binary number.
    """

    bits: int
    dim: int

    def __post_init__(self) -> None:
        for name in ("bits", "dim"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits {self.bits} out of range for dimension {self.dim}")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def to_string(self) -> str:
        """0/1 string, most significant bit first."""
        return format(self.bits, f"0{self.dim}b")

    def __str__(self) -> str:
        return self.to_string()

    def __xor__(self, other: "Word") -> "Word":
        """Coordinatewise XOR of two words of the same dimension."""
        if not isinstance(other, Word):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Word(self.bits ^ other.bits, self.dim)
