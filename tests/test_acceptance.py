"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line on the real stdout so the verdicts
stay visible under pytest's capture.  Tolerances are pinned here: time
limits are wall-clock asserts, everything else is exact equality.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import permutations

import pytest

from ternaryperm.catalog import (
    ParseError,
    format_sequence,
    generate,
    load,
    parse_sequence_text,
    save,
)
from ternaryperm.cli import EXIT_OK, main
from ternaryperm.lifting import SPLICES, TAGS, lift
from ternaryperm.search import SearchConfig, SearchMode, naive_count, prove_impossibility, search
from ternaryperm.sequences import verify
from ternaryperm.words import Word

GENERATED_DIMS = (2, 5, 6, 7, 8, 9, 10, 11, 12)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}", file=sys.__stdout__)
        raise
    print(f"[criterion {number}] PASS {description}", file=sys.__stdout__)


def test_criterion_1_impossibility():
    with criterion(1, "exhaustive nonexistence at dims 3 and 4, within time limits"):
        t0 = time.perf_counter()
        cert3 = prove_impossibility(3)
        elapsed3 = time.perf_counter() - t0
        assert cert3.nonexistent is True
        assert cert3.cross_check_unreduced_nodes is not None
        assert elapsed3 < 1.0

        # independent unreduced cross-check: filter all 7! permutations
        assert naive_count(3) == 0
        unreduced = search(SearchConfig(dim=3, mode=SearchMode.COUNT))
        assert unreduced.count == 0

        t0 = time.perf_counter()
        cert4 = prove_impossibility(4)
        elapsed4 = time.perf_counter() - t0
        assert cert4.nonexistent is True
        assert cert4.symmetry_reduction is True
        assert elapsed4 < 300.0


def test_criterion_2_existence():
    with criterion(2, "generate(n) verified for n in {2, 5..12}, under one minute"):
        t0 = time.perf_counter()
        for n in GENERATED_DIMS:
            seq = generate(n)
            assert len(seq) == 2**n - 1
            failure = verify(seq)  # distinct nonzero words, zero even-centred triples
            assert failure is None, failure
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_lift_correctness():
    with criterion(3, "lift output verified and word multiset exact for dims 5..8"):
        for dim in (5, 6, 7, 8):
            source = generate(dim)
            lifted = lift(source)
            assert verify(lifted) is None
            k = 2**dim - 1
            expected = Counter(
                source.decimals[i - 1] << 2 | row[i & 3]
                for i in range(1, k + 1)
                for row in TAGS
            )
            expected.update(SPLICES)  # the zero word followed by each splice tag
            assert Counter(lifted.decimals) == expected


def test_criterion_4_modifier_tables():
    with criterion(4, "tag families hold for every k <= 1023, table values exact"):
        # the four tags at an index are distinct: the four copies of a word differ
        for i in range(1, 1024):
            assert len({row[i & 3] for row in TAGS}) == 4
        # each family XORs to zero over every window centred on an even index
        for i in range(2, 1023, 2):
            for row in TAGS:
                assert row[(i - 1) & 3] ^ row[i & 3] ^ row[(i + 1) & 3] == 0
        # tags by residue of the index mod 4, rows A, B, C, D
        table = {
            1: (0b00, 0b10, 0b11, 0b01),
            2: (0b01, 0b00, 0b11, 0b10),
            3: (0b01, 0b10, 0b00, 0b11),
        }
        for residue, expected in table.items():
            assert tuple(row[residue & 3] for row in TAGS) == expected
            assert tuple(row[(residue + 8) & 3] for row in TAGS) == expected


def test_criterion_5_splice_identities():
    with criterion(5, "the three splice windows XOR to zero in generated lifts"):
        for dim in (5, 6, 7, 8):
            words = tuple(lift(generate(dim)))
            k = 2**dim - 1
            for centre in (k + 1, 2 * k + 2, 3 * k + 3):
                triple = words[centre - 2] ^ words[centre - 1] ^ words[centre]
                assert triple == Word(0, dim + 2)


def test_criterion_6_counting_oracle():
    with criterion(6, "search count matches the analytic value and the naive filter"):
        assert search(SearchConfig(dim=2, mode=SearchMode.COUNT)).count == 6
        analytic = sum(
            1 for p in permutations((1, 2, 3)) if p[0] ^ p[1] ^ p[2] == 0
        )
        assert analytic == 6
        for dim in (2, 3):
            pruned = search(SearchConfig(dim=dim, mode=SearchMode.COUNT)).count
            assert pruned == naive_count(dim)


def test_criterion_7_serialization(tmp_path):
    with criterion(7, "save/load identity on both formats; malformed files rejected"):
        for n in GENERATED_DIMS:
            seq = generate(n)
            for fmt in ("decimal", "binary"):
                path = tmp_path / f"{n}.{fmt}.txt"
                save(seq, path, fmt)
                loaded, read = load(path)
                assert loaded == seq
                assert read == fmt
                assert verify(loaded) is None

        with pytest.raises(ParseError, match="expected 31 values"):
            parse_sequence_text("n=5\n" + " ".join(str(v) for v in range(1, 31)) + "\n")
        with pytest.raises(ParseError, match="zero word not permitted"):
            parse_sequence_text("n=2\n1 0 2\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_sequence_text("n=2\n1 9 2\n")
        with pytest.raises(ParseError, match="malformed header"):
            parse_sequence_text("dim 5\n1 2 3\n")


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "consecutive gen runs are byte-identical for every supported dim"):
        for n in GENERATED_DIMS:
            for fmt in ("decimal", "binary"):
                paths = []
                for attempt in (1, 2):
                    path = tmp_path / f"{n}.{fmt}.{attempt}"
                    code = main(["gen", "--dim", str(n), "--format", fmt, "--out", str(path)])
                    assert code == EXIT_OK
                    paths.append(path)
                assert paths[0].read_bytes() == paths[1].read_bytes()
        capsys.readouterr()
