"""Raising a ternary permutation from dimension n to dimension n + 2.

Each source word reappears four times in the output, tagged with one of
four periodic two-bit suffixes; three fixed splice words stitch the four
blocks together.  lift() tags each family with one big-int OR over the
source values packed in 32-bit lanes and builds the blocks with slices;
lift_place() states the same placement one output position at a time,
so tests can check the arithmetic against it.
"""

from __future__ import annotations

__all__ = ["lift", "lift_place"]

from array import array

from .sequences import TernarySequence, _require, lanes, unlanes, verify
from .words import MAX_DIM, _check_int


#: The splice tag that closes block b = 0, 1, 2: the output word there is
#: the zero word of the source dimension followed by this two-bit suffix.
SPLICES = (0b10, 0b11, 0b01)


#: The two-bit tag each family gives a source word at 1-based index i,
#: looked up as TAGS[row][i & 3] with rows A, B, C, D; the period is 4.
#:   A: 00 when i = 1 (mod 4), else 01
#:   B: 10 when i is odd, else 00
#:   C: 00 when i = 3 (mod 4), else 11
#:   D: 01 when i = 1 (mod 4), 11 when i = 3 (mod 4), 10 when i is even
TAGS = (
    (0b01, 0b00, 0b01, 0b01),
    (0b00, 0b10, 0b00, 0b10),
    (0b11, 0b11, 0b11, 0b00),
    (0b10, 0b01, 0b10, 0b11),
)


def lift_place(k: int, t: int) -> tuple[int, int]:
    """Where output position t of a k-word lift comes from, as (i, tag).

    k = 2**n - 1 with n >= 3, and t runs over 1 .. 4k + 3.  i is the
    1-based source index, or 0 for a splice, whose source word is zero;
    output word t is (source[i] if i else 0) << 2 | tag.  The positions
    are, in order:

      1 .. k        source k, k-1, ..., 1     tagged A
      k+1           splice 10
      k+2 .. 2k-1   source 1, 2, ..., k-2     tagged B
      2k, 2k+1      source k, then k-1        tagged B
      2k+2          splice 11
      2k+3, 2k+4    source k-1, then k        tagged C
      2k+5 .. 3k    source k-2, ..., 3        tagged C
      3k+1, 3k+2    source 1, then 2          tagged C
      3k+3          splice 01
      3k+4, 3k+5    source 2, then 1          tagged D
      3k+6 .. 4k+3  source 3, 4, ..., k       tagged D

    So block b = (t - 1) // (k + 1) is tagged with family TAGS[b]; blocks
    A and C run down the source, B and D run up, and the last slot of
    each of the first three blocks is a splice.  Together the positions
    hit every (source index, tag family) pair exactly once plus the
    three splices.  At k = 3 positions 2k+4 and 3k+1 would collide,
    hence the k >= 7 floor.
    """
    _check_int("k", k, 7)
    if k & (k + 1):
        raise ValueError(f"k must be 2**n - 1 for some n >= 3, got {k}")
    _check_int("position", t, 1, 4 * k + 3)
    block, j = divmod(t - 1, k + 1)
    if j == k:
        return 0, SPLICES[block]
    i = j + 1 if block & 1 else k - j
    if block >= 2 and i <= 2:  # C and D swap source 1 and 2
        i = 3 - i
    if 1 <= block <= 2 and i >= k - 1:  # B and C swap source k-1 and k
        i = 2 * k - 1 - i
    return i, TAGS[block][i & 3]


def lift(seq: TernarySequence) -> TernarySequence:
    """Turn a verified ternary permutation of dimension n into one of n + 2.

    Every output word is a source word (or the zero word, for splices)
    with a two-bit suffix appended, placed as lift_place states: each
    tag family tags the whole source once, and the four blocks are
    slices of those tagged copies.  Input and output are both verified;
    verify() keeps its result on the sequence, so along a chain of lifts
    the input check is a lookup of the previous lift's output check.
    """
    _check_int("source dimension", seq.dim, 3, MAX_DIM - 2)
    _require(verify(seq), ValueError, "input is not a ternary permutation")
    k = len(seq.decimals)
    shifted = lanes(seq.decimals) << 2
    # a, b, c, d[j] is source index j + 1 tagged with that family; the
    # tag cycle starts at index 1.  Each family is one OR over all k
    # lanes; n + 2 <= MAX_DIM keeps every tagged value inside its lane.
    a, b, c, d = (
        unlanes(shifted | lanes((array("I", row[1:] + row[:1]) * (k // 4 + 1))[:k]), k)
        for row in TAGS
    )
    out = a[::-1]
    out.append(SPLICES[0])
    out += b[: k - 2]
    out.extend((b[k - 1], b[k - 2], SPLICES[1], c[k - 2], c[k - 1]))
    out += c[k - 3 : 1 : -1]
    out.extend((c[0], c[1], SPLICES[2], d[1], d[0]))
    out += d[2:]
    result = TernarySequence._trusted(seq.dim + 2, tuple(out))  # in range by construction
    _require(verify(result), RuntimeError, "lifted sequence failed verification")  # a block arithmetic regression
    return result
