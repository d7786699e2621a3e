"""Ordered word sequences and the checks that certify them as ternary.

A ternary permutation of dimension n lists every nonzero n-bit word exactly
once, and at every even position the word XORs with its two neighbours to
zero.  Positions are 1-based in reports and messages, 0-based in storage.
"""

from __future__ import annotations

__all__ = ["TernarySequence", "VerificationFailure", "VerificationReport", "verify"]

import sys
from array import array
from itertools import compress, count
from typing import Iterable, Iterator, Optional

from .words import MAX_DIM, Word, _Frozen

# The whole-buffer paths here, in lifting and in catalog pack one word per
# 32-bit lane of an array('I'); MAX_DIM <= 30 keeps every value and its
# two-bit lift tag inside a lane.
if array("I").itemsize != 4:
    raise ImportError(f"ternaryperm needs 4-byte array('I') items, not {array('I').itemsize}-byte ones")


def lanes(values: array) -> int:
    """The array's items as the 32-bit lanes of one int; XOR, OR and shifts then act lane by lane."""
    return int.from_bytes(le_bytes(values), "little")


def unlanes(packed: int, size: int) -> array:
    """Inverse of lanes(): the first size 32-bit lanes of packed, as an array('I')."""
    return le_values(packed.to_bytes(4 * size, "little"))


def le_bytes(values: Iterable[int]) -> bytes:
    """The values as 4-byte little-endian words, whatever the host's byte order."""
    words = array("I", values)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def le_values(data: bytes) -> array:
    """Inverse of le_bytes(): the 4-byte little-endian words of data, as an array('I')."""
    words = array("I")
    words.frombytes(data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


class VerificationFailure(_Frozen):
    kind: str
    index: int
    detail: str

    def __init__(self, kind: str, index: int, detail: str):
        self._assign(kind=kind, index=index, detail=detail)

    def __str__(self) -> str:
        return f"{self.kind} at i={self.index}: {self.detail}"


class VerificationReport(_Frozen):
    """Outcome of verify(): valid, or the first violation found."""

    valid: bool
    failure: Optional[VerificationFailure]

    def __init__(self, valid: bool, failure: Optional[VerificationFailure] = None):
        if valid == (failure is not None):
            raise ValueError("a report is valid exactly when it carries no failure")
        self._assign(valid=valid, failure=failure)


class TernarySequence(_Frozen):
    """An ordered run of words claimed to be a ternary permutation.

    Holding a TernarySequence certifies nothing; run verify() for that.
    Construction only pins the coherent bits: dimension at least 2 and
    every word of that dimension.  The words are stored as their decimal
    values; .words builds the Word objects on first read, and verify()
    keeps its report on the instance.  Instances are immutable, and
    compare, hash and pickle by (dim, decimals) alone: those are the
    fields, and _words and _report are plain attributes.
    """

    dim: int
    decimals: tuple[int, ...]

    def __init__(self, dim: int, words: Iterable[Word]):
        words = tuple(words)
        self._set(dim, tuple(w.bits for w in words), words)
        for pos, w in enumerate(words, start=1):
            if w.dim != dim:
                raise ValueError(f"word at position {pos} has dimension {w.dim}, expected {dim}")

    def _set(self, dim: int, decimals: tuple[int, ...], words: Optional[tuple[Word, ...]]) -> None:
        """Fill a new instance; every constructor passes here, so the dimension is checked here."""
        if not isinstance(dim, int):
            raise TypeError(f"dim must be an int, got {type(dim).__name__}")
        if dim < 2:
            raise ValueError(f"sequences are defined for dimension >= 2, got {dim}")
        if dim > MAX_DIM:
            raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {dim}")
        self._assign(dim=dim, decimals=decimals, _words=words, _report=None)

    @classmethod
    def from_decimals(cls, dim: int, values: Iterable[int]) -> "TernarySequence":
        seq = cls._trusted(dim, tuple(values))
        if not all(isinstance(value, int) for value in seq.decimals):
            raise TypeError("values must be ints")
        if seq.decimals:
            for bad in (min(seq.decimals), max(seq.decimals)):
                if not 0 <= bad < (1 << dim):
                    raise ValueError(f"bits {bad} out of range for dimension {dim}")
        return seq

    @classmethod
    def _trusted(cls, dim: int, decimals: tuple[int, ...]) -> "TernarySequence":
        """An instance over the values as given; only the dimension is checked."""
        seq = cls.__new__(cls)
        seq._set(dim, decimals, None)
        return seq

    @property
    def words(self) -> tuple[Word, ...]:
        if self._words is None:
            object.__setattr__(self, "_words", tuple(Word(v, self.dim) for v in self.decimals))
        return self._words

    def __reduce__(self):
        return self._trusted, (self.dim, self.decimals)

    def __len__(self) -> int:
        return len(self.decimals)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)


def verify(seq: TernarySequence) -> VerificationReport:
    """Check the three ternary conditions, reporting the first violation.

    Check order is fixed: length, then zero/duplicate words scanning
    positions upward, then the XOR of each even-centred triple.  A full
    pass means the words are a permutation of the nonzero vectors with
    every even-position triple summing to zero.  A sequence cannot change,
    so the report is kept on it and checking the same object again is a
    lookup.
    """
    report = seq._report
    if report is None:
        report = _check(seq)
        object.__setattr__(seq, "_report", report)
    return report


def _check(seq: TernarySequence) -> VerificationReport:
    vals = seq.decimals
    expected = (1 << seq.dim) - 1
    actual = len(vals)
    if actual != expected:
        return VerificationReport(
            False,
            VerificationFailure(
                "length",
                min(actual, expected) + 1,
                f"expected {expected} words for n={seq.dim}, got {actual}",
            ),
        )
    # Values are in [0, expected] by construction, so expected distinct
    # nonzero ones are a permutation; the scan only locates the violation.
    seen = set(vals)
    if len(seen) != expected or 0 in seen:
        first_at: dict[int, int] = {}
        for pos, v in enumerate(vals, start=1):
            if v == 0:
                return VerificationReport(
                    False,
                    VerificationFailure("zero-word", pos, f"word at position {pos} is zero"),
                )
            if v in first_at:
                return VerificationReport(
                    False,
                    VerificationFailure(
                        "duplicate",
                        pos,
                        f"word {v} at position {pos} already appeared at position {first_at[v]}",
                    ),
                )
            first_at[v] = pos
    # Sum j (0-based) is vals[2j] ^ vals[2j + 1] ^ vals[2j + 2], centred on
    # the 1-based even index 2j + 2; expected is odd, so the slices cover
    # every even index 2 .. expected - 1.  All the sums are taken at once,
    # one per 32-bit lane of three big-int XORs.
    arr = array("I", vals)
    odd = arr[0::2]
    packed = lanes(odd[:-1]) ^ lanes(arr[1::2]) ^ lanes(odd[1:])
    if packed:
        sums = unlanes(packed, len(odd) - 1)
        j = next(compress(count(), sums))  # index of the first nonzero sum
        i = 2 * j + 2
        return VerificationReport(
            False,
            VerificationFailure(
                "triple-sum",
                i,
                f"v{i - 1} XOR v{i} XOR v{i + 1} = {sums[j]}, expected 0",
            ),
        )
    return VerificationReport(True)
