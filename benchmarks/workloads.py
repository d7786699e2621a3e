"""The two workloads as lists of CLI commands, each with its own check.

Every command is `python -m ternaryperm <args>` run from the checkout root.
A command passes when its exit code is the expected one and its check,
which uses only reference.py, accepts what it printed or wrote.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("construct", "search")
DIMS = (18, 17)

# Given the command's standard output, say what is wrong with it, or None.
Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    expect_exit: int
    check: Check
    prepare: Optional[Callable[[], None]] = None  # untimed, runs just before the command


def _check_file(path: Path, dim: int, fmt: str) -> Check:
    """A gen output: pinned digest, then the definition itself."""

    def check(stdout: str) -> Optional[str]:
        if not path.is_file():
            return f"{path.name} was not written"
        digest = ref.sha256_file(path)
        if digest != ref.OUTPUT_SHA256[(dim, fmt)]:
            return f"{path.name}: sha256 {digest} differs from the pinned digest"
        got_dim, values, got_fmt = ref.parse(path.read_text())
        if (got_dim, got_fmt) != (dim, fmt):
            return f"{path.name}: read back as n={got_dim} {got_fmt}"
        return ref.problem(dim, values)

    return check


def _expect_stdout(predicate: Callable[[str], bool], what: str) -> Check:
    return lambda stdout: None if predicate(stdout) else f"expected {what}, got {stdout[:80]!r}"


def _check_base5(stdout: str) -> Optional[str]:
    dim, values, _ = ref.parse(stdout)
    if (dim, tuple(values)) != (5, ref.BASE5_DECIMALS):
        return "first solution at n=5 differs from BASE5_DECIMALS"
    return ref.problem(dim, values)


def _check_certificate(dim: int) -> Check:
    def check(stdout: str) -> Optional[str]:
        fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        want = {"dim": str(dim), "nonexistent": "true", "nodes_explored": str(ref.NODES[f"prove_d{dim}"])}
        if dim == 3:
            want["cross_check_unreduced_nodes"] = str(ref.PROVE_D3_UNREDUCED_NODES)
        wrong = {k: fields.get(k) for k, v in want.items() if fields.get(k) != v}
        return f"certificate fields {wrong} differ from {want}" if wrong else None

    return check


def _corrupt(source: Path, target: Path, fmt: str, i: int, j: int) -> Callable[[], None]:
    """Write source's values to target in fmt, with 0-based positions i and j swapped.

    Every position but the first and the last lies in a triple that holds
    only one of the two, so the swap always breaks the sequence.  The file
    is written once; later passes reuse it, since a passing gen check
    means the source bytes are the same in every pass.
    """

    def prepare() -> None:
        if target.is_file():
            return
        dim, values, _ = ref.parse(source.read_text())
        values[i], values[j] = values[j], values[i]
        if ref.problem(dim, values) is None:  # unreachable, by the argument above
            raise RuntimeError(f"swapping positions {i + 1} and {j + 1} left {target.name} valid")
        target.write_text(ref.render(dim, values, fmt))

    return prepare


def info(label: str) -> Command:
    """`info --dim 5`: start-up, import and a trivial answer, nothing else."""
    block = ["dim=5", "exists=true", "length=31", "route=base-5"]
    verdict = _expect_stdout(lambda s: s.splitlines() == block, "the n=5 info block")
    return Command(label, ("info", "--dim", "5"), ref.EXIT_OK, verdict)


def construct(seed: int, workdir: Path) -> tuple[list[Command], dict]:
    """Build at n=18 and n=17, refuse n=4, then verify what was written.

    One pass: gen at each dimension (one file per format; the seed picks
    which dimension is binary), gen at n=4 (must exit 3), verify of each
    gen output (must exit 0), and verify of a corrupted copy of each in
    the other format (must exit 1).  The seed also picks the two swapped
    positions per dimension.  Every pass does the same work whatever the
    seed, and across seeds every pinned digest is checked.
    """
    rng = random.Random(seed)
    binary_dim = rng.choice(DIMS)
    gens, verifies, corrupted = [], [], []
    swapped = {}
    for dim in DIMS:
        fmt = "binary" if dim == binary_dim else "decimal"
        other = "decimal" if fmt == "binary" else "binary"
        out = workdir / f"gen{dim}.{fmt}.txt"
        bad = workdir / f"verify{dim}.{other}.corrupted.txt"
        i, j = sorted(rng.sample(range(1, (1 << dim) - 2), 2))
        swapped[dim] = [i + 1, j + 1]
        gen_args = ("gen", "--dim", str(dim), "--format", fmt, "--out", str(out))
        gens.append(Command(f"gen{dim}.{fmt}", gen_args, ref.EXIT_OK, _check_file(out, dim, fmt)))
        valid = _expect_stdout(lambda s: s == "valid\n", "valid")
        verifies.append(Command(f"verify{dim}.{fmt}", ("verify", str(out)), ref.EXIT_OK, valid))
        invalid = _expect_stdout(lambda s: s.startswith("invalid: "), "invalid: ...")
        prepare = _corrupt(out, bad, other, i, j)
        label = f"verify{dim}.{other}.corrupted"
        corrupted.append(Command(label, ("verify", str(bad)), ref.EXIT_INVALID, invalid, prepare))
    no_output = _expect_stdout(lambda s: s == "", "no output")
    refused = Command("gen4.refused", ("gen", "--dim", "4"), ref.EXIT_NONEXISTENT, no_output)
    return gens + [refused] + verifies + corrupted, {"binary_dim": binary_dim, "swapped_positions": swapped}


def search(workers: int) -> tuple[list[Command], dict]:
    """The pinned search trees; fixed inputs, so the seed plays no part."""
    count0 = _expect_stdout(lambda s: s == f"{ref.COUNT_D4}\n", f"count {ref.COUNT_D4}")
    commands = [
        Command("count_d4", ("search", "--dim", "4", "--mode", "count"), ref.EXIT_OK, count0),
        Command("first_d5r", ("search", "--dim", "5", "--mode", "first", "--reduce"), ref.EXIT_OK, _check_base5),
        Command("prove_d3", ("prove", "--dim", "3"), ref.EXIT_OK, _check_certificate(3)),
        Command("prove_d4", ("prove", "--dim", "4"), ref.EXIT_OK, _check_certificate(4)),
        Command(
            f"count_d4.parallel{workers}",
            ("search", "--dim", "4", "--mode", "count", "--parallel", str(workers)),
            ref.EXIT_OK,
            count0,
        ),
    ]
    return commands, {"parallel_workers": workers}


def commands(name: str, seed: int, workdir: Path) -> tuple[list[Command], dict]:
    """The timed commands of a workload, plus the parameters the seed chose."""
    if name == "construct":
        return construct(seed, workdir)
    return search(min(2, len(os.sched_getaffinity(0))))
