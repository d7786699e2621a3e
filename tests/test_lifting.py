import functools

import pytest

from ternaryperm.catalog import generate
from ternaryperm.lifting import SPLICES, TAGS, lift, lift_place
from ternaryperm.sequences import TernarySequence, verify
from ternaryperm.words import MAX_DIM, Word

A, B, C, D = TAGS

# Tag values by residue of i mod 4; row order A, B, C, D.
MODIFIER_TABLE = {
    1: (0b00, 0b10, 0b11, 0b01),
    2: (0b01, 0b00, 0b11, 0b10),
    3: (0b01, 0b10, 0b00, 0b11),
    0: (0b01, 0b00, 0b11, 0b10),
}


def tagged(i, row):
    """What lift_place returns for source index i tagged by family row."""
    return i, row[i & 3]


class TestModifier:
    # indices start at 1, so period 0 has no residue 0
    @pytest.mark.parametrize(
        ("period", "residue"),
        [(0, 1), (0, 2), (0, 3)] + [(p, r) for p in (1, 25) for r in (1, 2, 3, 0)],
    )
    def test_table(self, period, residue):
        i = residue + 4 * period
        assert tuple(row[i & 3] for row in TAGS) == MODIFIER_TABLE[residue]

    def test_first_index_row(self):
        assert (A[1], B[1], C[1], D[1]) == (0b00, 0b10, 0b11, 0b01)

    def test_window_identity_at_i_2_family_a(self):
        assert A[1] ^ A[2] ^ A[3] == 0

    def test_reads_the_tag_table(self):
        # block b of the output is tagged by TAGS[b] at the source index
        for k in (7, 15):
            for t in range(1, 4 * k + 4):
                i, tag = lift_place(k, t)
                if i:
                    assert tag == TAGS[(t - 1) // (k + 1)][i % 4]

    def test_period_is_4(self):
        k = 63
        tags = {}
        for t in range(1, 4 * k + 4):
            i, tag = lift_place(k, t)
            if i:
                tags[(t - 1) // (k + 1), i] = tag
        for (family, i), tag in tags.items():
            if i + 4 <= k:
                assert tags[family, i + 4] == tag


class TestLayoutEntries:
    def test_rejects_bad_k(self):
        for k in (3, 6, 8, 14):
            with pytest.raises(ValueError):
                lift_place(k, 1)

    def test_splices_close_the_first_three_blocks(self):
        for k in (7, 15, 31):
            assert lift_place(k, k + 1) == (0, 0b10) == (0, SPLICES[0])
            assert lift_place(k, 2 * k + 2) == (0, 0b11) == (0, SPLICES[1])
            assert lift_place(k, 3 * k + 3) == (0, 0b01) == (0, SPLICES[2])

    def test_length_is_4k_plus_3(self):
        # positions 0 and 4k + 4 (and -1, 4k + 5) are refused
        for k in (7, 15, 31):
            placed = []
            for t in range(-1, 4 * k + 6):
                try:
                    lift_place(k, t)
                except ValueError:
                    continue
                placed.append(t)
            assert placed == list(range(1, 4 * k + 4))

    def test_target_indices_run_in_order(self):
        # the source index at each output position 1 .. 31 of a 7-word lift
        assert [lift_place(7, t)[0] for t in range(1, 32)] == [
            7, 6, 5, 4, 3, 2, 1, 0,
            1, 2, 3, 4, 5, 7, 6, 0,
            6, 7, 5, 4, 3, 1, 2, 0,
            2, 1, 3, 4, 5, 6, 7,
        ]

    def test_k7_pinned_positions(self):
        place = {t: lift_place(7, t) for t in range(1, 32)}
        assert place[1] == tagged(7, A)
        assert place[7] == tagged(1, A)
        assert place[8] == (0, SPLICES[0])
        assert place[9] == tagged(1, B)
        # the B block ends with the top source index before the one below it
        assert place[14] == tagged(7, B)
        assert place[15] == tagged(6, B)
        assert place[16] == (0, SPLICES[1])
        assert place[17] == tagged(6, C)
        assert place[18] == tagged(7, C)
        assert place[22] == tagged(1, C)
        assert place[23] == tagged(2, C)
        assert place[24] == (0, SPLICES[2])
        assert place[25] == tagged(2, D)
        assert place[26] == tagged(1, D)
        assert place[31] == tagged(7, D)

    @pytest.mark.parametrize("k", (7, 15, 31, 63))
    def test_layout_is_a_bijection(self, k):
        places = [lift_place(k, t) for t in range(1, 4 * k + 4)]
        # the four tags at an index differ, so (i, tag) names the family too
        tagged_places = [p for p in places if p[0]]
        splices = [tag for i, tag in places if not i]
        assert len(tagged_places) == 4 * k
        assert len(set(tagged_places)) == 4 * k
        assert set(tagged_places) == {tagged(v, row) for v in range(1, k + 1) for row in TAGS}
        assert splices == list(SPLICES)

    @pytest.mark.parametrize("k", (7, 15))
    def test_even_windows_decompose(self, k):
        """Off-splice even windows reduce to a source triple plus a tag triple.

        The three positions around any even position (splice centres aside)
        carry one tag family; their source indices form {j-1, j, j+1} for
        an even j, so the source part inherits the input's own window
        condition, and the tag part XORs to zero on its own.
        """
        splice_centres = {k + 1, 2 * k + 2, 3 * k + 3}
        for t in range(2, 4 * k + 3, 2):
            if t in splice_centres:
                continue
            window = [lift_place(k, s) for s in (t - 1, t, t + 1)]
            assert all(i for i, _ in window)
            assert len({(s - 1) // (k + 1) for s in (t - 1, t, t + 1)}) == 1
            indices = sorted(i for i, _ in window)
            j = indices[1]
            assert indices == [j - 1, j, j + 1]
            assert j % 2 == 0
            assert window[0][1] ^ window[1][1] ^ window[2][1] == 0


class TestLift:
    def test_rejects_dimension_below_3(self):
        with pytest.raises(ValueError):
            lift(TernarySequence.from_decimals(2, (1, 2, 3)))

    def test_rejects_a_source_whose_lift_would_pass_max_dim(self):
        # refused up front, before any word is checked or tagged
        for dim in (29, 30):
            with pytest.raises(ValueError, match=rf"^source dimension must be in \[3, 28\], got {dim}$"):
                lift(TernarySequence._trusted(dim, ()))

    def test_rejects_invalid_input(self):
        bad = TernarySequence.from_decimals(5, range(1, 32))
        with pytest.raises(ValueError, match="not a ternary permutation"):
            lift(bad)

    def test_lift_of_base5_is_valid_dim7(self, base5):
        out = lift(base5)
        assert out.dim == 7
        assert len(out) == 127
        assert verify(out) is None

    def test_first_splice_lands_at_position_32(self, base5):
        words = tuple(lift(base5))
        # k + 1 = 32 for a 31-term input; the splice word is 0000010 = 2
        assert words[31] == Word(2, 7)
        assert words[31].to_string() == "0000010"

    def test_splice_window_sums_are_zero(self, base5):
        words = tuple(lift(base5))
        k = 31
        for centre in (k + 1, 2 * k + 2, 3 * k + 3):
            triple = words[centre - 2] ^ words[centre - 1] ^ words[centre]
            assert triple == Word(0, 7)

    def test_double_lift_reaches_dim9(self, base5):
        out = lift(lift(base5))
        assert out.dim == 9
        assert len(out) == 511
        assert verify(out) is None

    def test_even_windows_vanish_componentwise(self, base5):
        # source part and tag part of every off-splice even window each
        # XOR to zero on their own, not just after concatenation
        k = 31
        base_words = tuple(base5)
        splice_centres = {k + 1, 2 * k + 2, 3 * k + 3}
        for t in range(2, 4 * k + 3, 2):
            if t in splice_centres:
                continue
            window = [lift_place(k, s) for s in (t - 1, t, t + 1)]
            sources = [base_words[i - 1] for i, _ in window]
            assert sources[0] ^ sources[1] ^ sources[2] == Word(0, 5)
            tags = [Word(tag, 2) for _, tag in window]
            assert tags[0] ^ tags[1] ^ tags[2] == Word(0, 2)


def layout_walk(seq):
    """The lift as one lift_place call per output word, the slow way."""
    k = len(seq)
    return tuple(
        (seq.decimals[i - 1] if i else 0) << 2 | tag
        for i, tag in (lift_place(k, t) for t in range(1, 4 * k + 4))
    )


@pytest.mark.parametrize("dim", range(5, 15))
def test_lift_matches_the_layout_table(dim):
    source = generate(dim)
    assert lift(source).decimals == layout_walk(source)


def pieces(k):
    """lift_place's runs of positions, in order, as (first, last).

    Inside a run the source index moves by a fixed step of +1 or -1 and
    the block does not change; a run of one position is a splice.  These
    are the rows of lift_place's docstring, with each two-position swap
    a run of its own.
    """
    return (
        (1, k), (k + 1, k + 1), (k + 2, 2 * k - 1), (2 * k, 2 * k + 1), (2 * k + 2, 2 * k + 2),
        (2 * k + 3, 2 * k + 4), (2 * k + 5, 3 * k), (3 * k + 1, 3 * k + 2), (3 * k + 3, 3 * k + 3),
        (3 * k + 4, 3 * k + 5), (3 * k + 6, 4 * k + 3),
    )


def window_vanishes(place, t):
    """Whether the triple centred at even output position t XORs to 0 for every valid source.

    Output word s is src[i] << 2 | tag for (i, tag) = place(s), with
    src[0] = 0.  The tag parts must cancel, and the source parts must be
    a source triple {j - 1, j, j + 1} with j even, which the source's own
    condition zeroes, or {0, x, x}, which cancels whatever x holds.
    """
    (i0, g0), (i1, g1), (i2, g2) = (place(s) for s in (t - 1, t, t + 1))
    low, j, high = sorted((i0, i1, i2))
    source_triple = low == j - 1 and high == j + 1 and j % 2 == 0
    return g0 ^ g1 ^ g2 == 0 and (source_triple or (low == 0 and j == high))


class TestPlacementProof:
    """lift() is correct for every k = 2**m - 1 up to MAX_DIM, from lift_place alone.

    Output word t is src[i] << 2 | tag with (i, tag) = lift_place(k, t).
    For every ternary permutation src of length k the output is one of
    length 4k + 3 when two things hold:

    * Triples: every even t passes window_vanishes.
    * Permutation: the nonzero positions hit each (index, block) pair
      once, the tag of (i, block b) is TAGS[b][i & 3], and each column of
      TAGS holds four distinct tags; so every word x << 2 | y with x
      nonzero appears once.  The three splices give 0 << 2 | y for the
      three nonzero y.

    m = 3 .. 16 are checked at every position.  Larger m cannot be
    walked in test time, so they rest on the shape of lift_place: its
    formula is the same for every k, and within each of the runs in
    pieces(k) it gives i = c + step * t with step = +1 or -1 and a fixed
    block.  So for an even t with t - 1 and t + 1 in one run, the sorted
    indices are (j - 1, j, j + 1) with j = c + step * t, and j mod 4
    (hence j's parity and every tag, which have period 4 in i) depends
    only on t mod 4: one period of four positions inside each run
    stands for every such t.  The even t whose window crosses a run
    boundary lie within two positions of a run's first position; a
    window of four on each side of every first position covers them.
    A run's indices form the interval between its end values, so each
    block covers 1 .. k once exactly when its runs' intervals tile it.
    At m <= 16 the runs themselves are checked against every position.
    """

    def test_every_position_for_m_up_to_16(self):
        assert all(len({row[col] for row in TAGS}) == 4 for col in range(4))
        for m in range(3, 17):
            k = (1 << m) - 1
            places = [None] + [lift_place(k, t) for t in range(1, 4 * k + 4)]
            place = places.__getitem__
            assert all(window_vanishes(place, t) for t in range(2, 4 * k + 3, 2)), m
            hit = bytearray(4 * (k + 1))
            for t, (i, tag) in enumerate(places[1:], start=1):
                block = (t - 1) // (k + 1)
                hit[4 * i + block] += 1
                assert tag == (TAGS[block][i & 3] if i else SPLICES[block]), (m, t)
            assert hit == bytes([1, 1, 1, 0]) + bytes([1]) * (4 * k), m
            for first, last in pieces(k):
                steps = {places[t + 1][0] - places[t][0] for t in range(first, last)}
                assert steps <= {1} or steps <= {-1}, (m, first)

    def test_windows_and_runs_for_m_17_to_28(self):
        for m in range(17, MAX_DIM - 1):
            k = (1 << m) - 1
            place = functools.partial(lift_place, k)
            covered = [[] for _ in range(4)]
            for first, last in pieces(k):
                block = (first - 1) // (k + 1)
                start = place(first)[0]
                step = 0 if first == last else place(first + 1)[0] - start
                assert step in (-1, 1) or (start == 0 and first == last == (block + 1) * (k + 1)), (m, first)
                middle = (first + last) // 2 & ~3
                for t in [*range(first - 4, first + 5), *range(middle, middle + 4)]:
                    if first <= t <= last:
                        i, tag = place(t)
                        assert i == start + step * (t - first), (m, t)
                        assert tag == (TAGS[block][i & 3] if i else SPLICES[block]), (m, t)
                    if t % 2 == 0 and 2 <= t <= 4 * k + 2:
                        assert window_vanishes(place, t), (m, t)
                if start:
                    end = start + step * (last - first)
                    covered[block].append((min(start, end), max(start, end)))
            for runs in covered:
                runs.sort()
                assert runs[0][0] == 1 and runs[-1][1] == k, m
                assert all(b[0] == a[1] + 1 for a, b in zip(runs, runs[1:])), m
