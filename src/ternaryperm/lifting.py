"""Raising a ternary permutation from dimension n to dimension n + 2.

Each source word reappears four times in the output, tagged with one of
four periodic two-bit suffixes; three fixed splice words stitch the four
blocks together.  lift() tags each family with one big-int OR over the
source values packed in 32-bit lanes and builds the blocks with slices;
lift_layout() spells out the same placement one row per output position,
so tests can check the arithmetic against it.
"""

from __future__ import annotations

__all__ = [
    "LiftLayoutEntry", "ModifierKind", "check_modifier_properties", "lift", "lift_layout",
    "modifier",
]

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .sequences import TernarySequence, lanes, unlanes, verify
from .words import Word


class ModifierKind(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


#: Splice suffixes, keyed by the block boundary they close: the output word
#: is the zero word of the source dimension followed by this suffix.
SPLICE_FIRST = Word(0b10, 2)
SPLICE_SECOND = Word(0b11, 2)
SPLICE_THIRD = Word(0b01, 2)


#: The two-bit tag each family gives a source word at 1-based index i,
#: looked up as TAGS[kind][i & 3]; the period is 4.
TAGS = {
    ModifierKind.A: (0b01, 0b00, 0b01, 0b01),
    ModifierKind.B: (0b00, 0b10, 0b00, 0b10),
    ModifierKind.C: (0b11, 0b11, 0b11, 0b00),
    ModifierKind.D: (0b10, 0b01, 0b10, 0b11),
}


def modifier(kind: ModifierKind, i: int) -> Word:
    """The two-bit tag a source word carries at index i, periodic with period 4.

    Families:
      A: 00 when i = 1 (mod 4), else 01
      B: 10 when i is odd, else 00
      C: 00 when i = 3 (mod 4), else 11
      D: 01 when i = 1 (mod 4), 11 when i = 3 (mod 4), 10 when i is even
    """
    if i < 1:
        raise ValueError(f"modifier index must be positive, got {i}")
    return Word(TAGS[kind][i & 3], 2)


@dataclass(frozen=True)
class LiftLayoutEntry:
    """One output position: either a tagged source word or a splice.

    Exactly one of the two source forms is set: (v_index, kind) for a
    tagged copy of the source word at 1-based v_index, or splice for one
    of the three fixed suffixes.
    """

    target_index: int
    v_index: Optional[int] = None
    kind: Optional[ModifierKind] = None
    splice: Optional[Word] = None

    def __post_init__(self) -> None:
        tagged = self.v_index is not None and self.kind is not None
        if tagged == (self.splice is not None):
            raise ValueError("entry must be either a tagged source word or a splice")

    @property
    def is_splice(self) -> bool:
        return self.splice is not None


def lift_layout(k: int) -> list[LiftLayoutEntry]:
    """Placement table for lifting a k-term sequence, k = 2**n - 1 with n >= 3.

    The 4k + 3 output positions are, in order:

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

    Together the entries hit every (source index, tag family) pair exactly
    once plus the three splices.  At k = 3 positions 2k+4 and 3k+1 would
    collide, hence the k >= 7 floor.
    """
    if k < 7 or (k & (k + 1)) != 0:
        raise ValueError(f"k must be 2**n - 1 for some n >= 3, got {k}")
    entries: list[LiftLayoutEntry] = []
    add = entries.append
    for t in range(1, k + 1):
        add(LiftLayoutEntry(t, v_index=k - t + 1, kind=ModifierKind.A))
    add(LiftLayoutEntry(k + 1, splice=SPLICE_FIRST))
    for t in range(k + 2, 2 * k):
        add(LiftLayoutEntry(t, v_index=t - k - 1, kind=ModifierKind.B))
    add(LiftLayoutEntry(2 * k, v_index=k, kind=ModifierKind.B))
    add(LiftLayoutEntry(2 * k + 1, v_index=k - 1, kind=ModifierKind.B))
    add(LiftLayoutEntry(2 * k + 2, splice=SPLICE_SECOND))
    add(LiftLayoutEntry(2 * k + 3, v_index=k - 1, kind=ModifierKind.C))
    add(LiftLayoutEntry(2 * k + 4, v_index=k, kind=ModifierKind.C))
    for t in range(2 * k + 5, 3 * k + 1):
        add(LiftLayoutEntry(t, v_index=3 * k + 3 - t, kind=ModifierKind.C))
    add(LiftLayoutEntry(3 * k + 1, v_index=1, kind=ModifierKind.C))
    add(LiftLayoutEntry(3 * k + 2, v_index=2, kind=ModifierKind.C))
    add(LiftLayoutEntry(3 * k + 3, splice=SPLICE_THIRD))
    add(LiftLayoutEntry(3 * k + 4, v_index=2, kind=ModifierKind.D))
    add(LiftLayoutEntry(3 * k + 5, v_index=1, kind=ModifierKind.D))
    for t in range(3 * k + 6, 4 * k + 4):
        add(LiftLayoutEntry(t, v_index=t - 3 * k - 3, kind=ModifierKind.D))
    return entries


def check_modifier_properties(k: int) -> bool:
    """Confirm the two facts the lift leans on, up to index k.

    First, the four tags at any index are pairwise distinct (so the four
    copies of a source word stay distinct).  Second, over every window
    (i-1, i, i+1) centred on an even i, each tag family XORs to zero (so
    tagged triples inherit the ternary condition from the source).
    """
    if k < 3:
        raise ValueError(f"property check needs k >= 3, got {k}")
    rows = tuple(TAGS.values())
    for i in range(1, k + 1):
        if len({row[i & 3] for row in rows}) != 4:
            return False
    for i in range(2, k, 2):
        for row in rows:
            if row[(i - 1) & 3] ^ row[i & 3] ^ row[(i + 1) & 3]:
                return False
    return True


def lift(seq: TernarySequence) -> TernarySequence:
    """Turn a verified ternary permutation of dimension n into one of n + 2.

    Every output word is a source word (or the zero word, for splices)
    with a two-bit suffix appended, placed as lift_layout lays out: each
    tag family tags the whole source once, and the four blocks are
    slices of those tagged copies.  Input and output are both verified;
    verify() keeps its report on the sequence, so along a chain of lifts
    the input check is a lookup of the previous lift's output check.
    """
    if seq.dim < 3:
        raise ValueError(f"lifting needs dimension >= 3, got {seq.dim}")
    report = verify(seq)
    if not report.valid:
        raise ValueError(f"input is not a ternary permutation: {report.failure}")
    k = len(seq.decimals)
    shifted = lanes(array("I", seq.decimals)) << 2
    # a, b, c, d[j] is source index j + 1 tagged with that family; the
    # tag cycle starts at index 1.  Each family is one OR over all k
    # lanes; n + 2 <= MAX_DIM keeps every tagged value inside its lane.
    a, b, c, d = (
        unlanes(shifted | lanes((array("I", row[1:] + row[:1]) * (k // 4 + 1))[:k]), k)
        for row in TAGS.values()
    )
    out = a[::-1]
    out.append(SPLICE_FIRST.bits)
    out += b[: k - 2]
    out.extend((b[k - 1], b[k - 2], SPLICE_SECOND.bits, c[k - 2], c[k - 1]))
    out += c[k - 3 : 1 : -1]
    out.extend((c[0], c[1], SPLICE_THIRD.bits, d[1], d[0]))
    out += d[2:]
    result = TernarySequence._trusted(seq.dim + 2, tuple(out))  # in range by construction
    report = verify(result)
    if not report.valid:  # block arithmetic regression; cannot happen otherwise
        raise RuntimeError(f"lifted sequence failed verification: {report.failure}")
    return result
