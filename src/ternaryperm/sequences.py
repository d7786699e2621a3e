"""Ordered word sequences and the checks that certify them as ternary.

A ternary permutation of dimension n lists every nonzero n-bit word exactly
once, and at every even position the word XORs with its two neighbours to
zero.  Positions are 1-based in failures and messages, 0-based in storage.
"""

from __future__ import annotations

__all__ = ["TernarySequence", "VerificationFailure", "verify"]

import sys
from array import array
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Iterator, Optional

from .words import MAX_DIM, Word, _check_int, _Frozen

# The whole-buffer paths here, in lifting and in catalog pack one word per
# 32-bit lane of an array('I'); MAX_DIM <= 30 keeps every value and its
# two-bit lift tag inside a lane.
if array("I").itemsize != 4:
    raise ImportError(f"ternaryperm needs 4-byte array('I') items, not {array('I').itemsize}-byte ones")


def lanes(values: Iterable[int]) -> int:
    """The values as the 32-bit lanes of one int, on any host; XOR, OR and shifts then act lane by lane."""
    words = array("I", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def unlanes(packed: int, size: int) -> array:
    """Inverse of lanes(): the first size 32-bit lanes of packed, as an array('I')."""
    words = array("I", packed.to_bytes(4 * size, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


class VerificationFailure(_Frozen):
    kind: str
    index: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at i={self.index}: {self.detail}"


class TernarySequence(_Frozen):
    """An ordered run of words claimed to be a ternary permutation.

    Holding a TernarySequence certifies nothing; run verify() for that.
    Construction only pins the coherent bits: dimension at least 2 and
    every word a Word of that dimension.  The words are stored as their
    decimal values; .words builds the Word objects on first read, and
    verify() keeps its result on the instance, both as cached properties.
    Instances are immutable, and compare, hash and pickle by (dim,
    decimals) alone: a copy or a pickle carries neither cached value.
    """

    dim: int
    decimals: tuple[int, ...]

    def __init__(self, dim: int, words: Iterable[Word]):
        words = tuple(words)
        _check_int("dim", dim, 2, MAX_DIM)
        for pos, w in enumerate(words, start=1):
            if not isinstance(w, Word):
                raise TypeError(f"word at position {pos} must be a Word, got {type(w).__name__}")
            if w.dim != dim:
                raise ValueError(f"word at position {pos} has dimension {w.dim}, expected {dim}")
        super().__init__(dim, tuple(w.bits for w in words))
        self.__dict__["words"] = words

    @classmethod
    def from_decimals(cls, dim: int, values: Iterable[int]) -> "TernarySequence":
        seq = cls._trusted(dim, tuple(values))
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, seq.decimals))):
            raise TypeError("values must be ints")
        if seq.decimals:
            _check_int("bits", min(seq.decimals), 0, (1 << dim) - 1)
            _check_int("bits", max(seq.decimals), 0, (1 << dim) - 1)
        return seq

    @classmethod
    def _trusted(cls, dim: int, decimals: tuple[int, ...]) -> "TernarySequence":
        """An instance over the values as given; only the dimension is checked."""
        _check_int("dim", dim, 2, MAX_DIM)
        seq = cls.__new__(cls)
        _Frozen.__init__(seq, dim, decimals)
        return seq

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(v, self.dim) for v in self.decimals)

    @cached_property
    def _failure(self) -> Optional[VerificationFailure]:
        return _check(self)

    def __reduce__(self):
        return self._trusted, (self.dim, self.decimals)

    def __len__(self) -> int:
        return len(self.decimals)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)


def verify(seq: TernarySequence) -> Optional[VerificationFailure]:
    """Check the three ternary conditions: the first violation, or None if all hold.

    Check order is fixed: length, then zero/duplicate words scanning
    positions upward, then the XOR of each even-centred triple.  A full
    pass means the words are a permutation of the nonzero vectors with
    every even-position triple summing to zero.  A sequence cannot change,
    so the result (None too) is kept on it and checking the same object
    again is a lookup.
    """
    if not isinstance(seq, TernarySequence):
        raise TypeError(f"seq must be a TernarySequence, got {type(seq).__name__}")
    return seq._failure


def _require(failure: Optional[VerificationFailure], error: type[Exception], context: str) -> None:
    """Raise error(f"{context}: {failure}") when there is a failure."""
    if failure is not None:
        raise error(f"{context}: {failure}")


def _check(seq: TernarySequence) -> Optional[VerificationFailure]:
    vals = seq.decimals
    expected = (1 << seq.dim) - 1
    actual = len(vals)
    if actual != expected:
        detail = f"expected {expected} words for n={seq.dim}, got {actual}"
        return VerificationFailure("length", min(actual, expected) + 1, detail)
    # Values are in [0, expected] by construction, so expected distinct
    # nonzero ones are a permutation; the scan only locates the violation.
    seen = set(vals)
    if len(seen) != expected or 0 in seen:
        first_at: dict[int, int] = {}
        for pos, v in enumerate(vals, start=1):
            if v == 0:
                return VerificationFailure("zero-word", pos, f"word at position {pos} is zero")
            if v in first_at:
                detail = f"word {v} at position {pos} already appeared at position {first_at[v]}"
                return VerificationFailure("duplicate", pos, detail)
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
        detail = f"v{i - 1} XOR v{i} XOR v{i + 1} = {sums[j]}, expected 0"
        return VerificationFailure("triple-sum", i, detail)
    return None
