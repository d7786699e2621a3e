"""Bitmask words over GF(2)^n: XOR algebra, concatenation, printing."""

from __future__ import annotations

__all__ = [
    "MAX_DIM", "Word", "concat", "nonzero_words", "parse_word", "total_xor", "word_add", "zero",
]

from dataclasses import dataclass
from typing import Iterator

# Sequences hold 2**n - 1 words, so anything past this is not desk-scale.
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
        if not isinstance(other, Word):
            return NotImplemented
        return word_add(self, other)


def zero(dim: int) -> Word:
    """The identity word of the given dimension."""
    return Word(0, dim)


def parse_word(text: str) -> Word:
    """Inverse of Word.to_string: a 0/1 string, most significant bit first."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"expected a nonempty 0/1 string, got {text!r}")
    return Word(int(text, 2), len(text))


def word_add(a: Word, b: Word) -> Word:
    """Coordinatewise XOR of two words of the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Word(a.bits ^ b.bits, a.dim)


def concat(prefix: Word, suffix: Word) -> Word:
    """Juxtapose two words; the prefix takes the most significant positions."""
    total = prefix.dim + suffix.dim
    if total > MAX_DIM:
        raise ValueError(f"combined dimension {total} exceeds the cap of {MAX_DIM}")
    return Word((prefix.bits << suffix.dim) | suffix.bits, total)


def nonzero_words(dim: int) -> Iterator[Word]:
    """All 2**dim - 1 nonzero words, in ascending decimal order."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return (Word(v, dim) for v in range(1, 1 << dim))


def total_xor(dim: int) -> Word:
    """XOR of every nonzero word of the given dimension.

    Zero for dim >= 2 (the nonzero words pair up around any fixed vector);
    the lone nonzero word 1 for dim = 1.  Cost grows as 2**dim.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    acc = 0
    for v in range(1, 1 << dim):
        acc ^= v
    return Word(acc, dim)
