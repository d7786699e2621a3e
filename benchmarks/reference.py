"""Reference answers and an output checker that share no code with ternaryperm.

Everything here is written from the definition alone: a ternary permutation
of dimension n lists every value 1 .. 2**n - 1 once, and every triple centred
on an even 1-based position XORs to zero.  The pinned values were taken from
the program and cross-checked against this definition; a later change that
alters any of them has changed the program's observable output.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

# Exit codes of the command-line front end that the workloads expect.
EXIT_OK = 0
EXIT_INVALID = 1  # verify found the file invalid
EXIT_NONEXISTENT = 3  # no ternary permutation exists for the dimension

#: First solution of `search --dim 5 --mode first --reduce`.
BASE5_DECIMALS = (
    1, 2, 3, 4, 7, 8, 15, 5, 10, 16, 26, 6, 28, 9, 21, 24,
    13, 19, 30, 18, 12, 27, 23, 25, 14, 17, 31, 20, 11, 22, 29,
)

#: Answer of `search --dim 4 --mode count`, sequential or parallel.
COUNT_D4 = 0

#: sha256 of the file `gen --dim n --format f --out F` writes.
OUTPUT_SHA256 = {
    (17, "decimal"): "4e2c5f0b9241c61b23e6d452abb1f397700cfdffc3980451daed33cee369cf12",
    (17, "binary"): "c9308d880b4981ce39276b95b9e45f48bacb7513b97fc1a6a612d5821b6ca9ac",
    (18, "decimal"): "b6d2b6fa98c2b12f47134a0201bb6014d2b95e0053be7ff00f014712f1184ffe",
    (18, "binary"): "a78536e0afa54766446143ca56d401eb300fa5c24a2560d9217c0c2632eba3a4",
}

#: Search nodes of the pinned trees (attempted assignments at open slots).
NODES = {
    "count_d4": 1_963_305,  # search --dim 4 --mode count
    "first_d5r": 3_403_049,  # search --dim 5 --mode first --reduce
    "prove_d3": 12,  # prove --dim 3, reduced run
    "prove_d4": 9_348,  # prove --dim 4
}
#: prove --dim 3 also runs the unreduced tree as a cross-check.
PROVE_D3_UNREDUCED_NODES = 553


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse(text: str) -> tuple[int, list[int], str]:
    """Read either sequence file format: (dimension, values, format).

    The body is binary when its first line is a single 0/1 string of the
    header's length, decimal otherwise.  Raises ValueError on anything that
    is not a header plus integer tokens.
    """
    lines = text.split("\n")
    header = lines[0]
    if not header.startswith("n=") or not header[2:].isdigit():
        raise ValueError(f"bad header {header[:40]!r}")
    dim = int(header[2:])
    body = [line for line in lines[1:] if line]
    if body and len(body[0]) == dim and set(body[0]) <= {"0", "1"}:
        if any(len(line) != dim for line in body):
            raise ValueError("binary lines of unequal length")
        return dim, [int(line, 2) for line in body], "binary"
    return dim, [int(tok) for line in body for tok in line.split()], "decimal"


def render(dim: int, values: list[int], fmt: str) -> str:
    """Write values in the program's file format (byte-checked by OUTPUT_SHA256)."""
    if fmt == "binary":
        width = f"0{dim}b"
        body = "\n".join(format(v, width) for v in values)
    else:
        body = " ".join(map(str, values))
    return f"n={dim}\n{body}\n"


def problem(dim: int, values: list[int]) -> Optional[str]:
    """Why values are not a ternary permutation of dimension dim, or None."""
    size = (1 << dim) - 1
    if len(values) != size or set(values) != set(range(1, size + 1)):
        return f"values are not a permutation of 1..{size}"
    for i in range(1, size - 1, 2):  # 0-based centre of each even-centred triple
        if values[i - 1] ^ values[i] ^ values[i + 1]:
            return f"triple centred at position {i + 1} does not XOR to 0"
    return None
