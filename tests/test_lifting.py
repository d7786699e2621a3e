from collections import Counter

import pytest

from ternaryperm.catalog import generate
from ternaryperm.lifting import (
    SPLICE_FIRST,
    SPLICE_SECOND,
    SPLICE_THIRD,
    TAGS,
    LiftLayoutEntry,
    ModifierKind,
    check_modifier_properties,
    lift,
    lift_layout,
    modifier,
)
from ternaryperm.sequences import TernarySequence, verify
from ternaryperm.words import Word, concat, zero

A, B, C, D = ModifierKind.A, ModifierKind.B, ModifierKind.C, ModifierKind.D

# Tag values by residue of i mod 4; row order A, B, C, D.
MODIFIER_TABLE = {
    1: (0b00, 0b10, 0b11, 0b01),
    2: (0b01, 0b00, 0b11, 0b10),
    3: (0b01, 0b10, 0b00, 0b11),
    0: (0b01, 0b00, 0b11, 0b10),
}


class TestModifier:
    @pytest.mark.parametrize("residue", (1, 2, 3, 0))
    @pytest.mark.parametrize("period", (0, 1, 25))
    def test_table(self, residue, period):
        i = residue + 4 * period
        if i < 1:
            pytest.skip("index starts at 1")
        expected = MODIFIER_TABLE[residue]
        for kind, bits in zip((A, B, C, D), expected):
            assert modifier(kind, i) == Word(bits, 2)

    def test_first_index_row(self):
        assert modifier(A, 1) == Word(0b00, 2)
        assert modifier(B, 1) == Word(0b10, 2)
        assert modifier(C, 1) == Word(0b11, 2)
        assert modifier(D, 1) == Word(0b01, 2)

    def test_window_identity_at_i_2_family_a(self):
        total = modifier(A, 1) ^ modifier(A, 2) ^ modifier(A, 3)
        assert total == zero(2)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            modifier(A, 0)

    def test_reads_the_tag_table(self):
        for kind in ModifierKind:
            for i in range(1, 9):
                assert modifier(kind, i).bits == TAGS[kind][i % 4]

    def test_period_is_4(self):
        for kind in ModifierKind:
            for i in range(1, 50):
                assert modifier(kind, i) == modifier(kind, i + 4)


class TestModifierProperties:
    def test_holds_at_small_k(self):
        assert check_modifier_properties(7)
        assert check_modifier_properties(31)

    def test_holds_up_to_64(self):
        for k in range(3, 65):
            assert check_modifier_properties(k)

    def test_rejects_k_below_3(self):
        with pytest.raises(ValueError):
            check_modifier_properties(2)


class TestLayoutEntries:
    def test_entry_must_pick_one_source_form(self):
        with pytest.raises(ValueError):
            LiftLayoutEntry(1)
        with pytest.raises(ValueError):
            LiftLayoutEntry(1, v_index=1, kind=A, splice=SPLICE_FIRST)

    def test_rejects_bad_k(self):
        for k in (3, 6, 8, 14):
            with pytest.raises(ValueError):
                lift_layout(k)

    def test_length_is_4k_plus_3(self):
        for k in (7, 15, 31):
            assert len(lift_layout(k)) == 4 * k + 3

    def test_target_indices_run_in_order(self):
        layout = lift_layout(7)
        assert [e.target_index for e in layout] == list(range(1, 32))

    def test_k7_pinned_positions(self):
        layout = {e.target_index: e for e in lift_layout(7)}
        assert (layout[1].v_index, layout[1].kind) == (7, A)
        assert (layout[7].v_index, layout[7].kind) == (1, A)
        assert layout[8].splice == SPLICE_FIRST
        assert (layout[9].v_index, layout[9].kind) == (1, B)
        # the B block ends with the top source index before the one below it
        assert (layout[14].v_index, layout[14].kind) == (7, B)
        assert (layout[15].v_index, layout[15].kind) == (6, B)
        assert layout[16].splice == SPLICE_SECOND
        assert (layout[17].v_index, layout[17].kind) == (6, C)
        assert (layout[18].v_index, layout[18].kind) == (7, C)
        assert (layout[22].v_index, layout[22].kind) == (1, C)
        assert (layout[23].v_index, layout[23].kind) == (2, C)
        assert layout[24].splice == SPLICE_THIRD
        assert (layout[25].v_index, layout[25].kind) == (2, D)
        assert (layout[26].v_index, layout[26].kind) == (1, D)
        assert (layout[31].v_index, layout[31].kind) == (7, D)

    @pytest.mark.parametrize("k", (7, 15, 31, 63))
    def test_layout_is_a_bijection(self, k):
        layout = lift_layout(k)
        tagged = [(e.v_index, e.kind) for e in layout if not e.is_splice]
        splices = [e.splice for e in layout if e.is_splice]
        assert len(tagged) == 4 * k
        assert len(set(tagged)) == 4 * k
        assert set(tagged) == {(v, kind) for v in range(1, k + 1) for kind in ModifierKind}
        assert splices == [SPLICE_FIRST, SPLICE_SECOND, SPLICE_THIRD]

    @pytest.mark.parametrize("k", (7, 15))
    def test_even_windows_decompose(self, k):
        """Off-splice even windows reduce to a source triple plus a tag triple.

        The three entries around any even position (splice centres aside)
        carry one tag family; their source indices form {j-1, j, j+1} for
        an even j, so the source part inherits the input's own window
        condition, and the tag part XORs to zero on its own.
        """
        layout = {e.target_index: e for e in lift_layout(k)}
        splice_centres = {k + 1, 2 * k + 2, 3 * k + 3}
        for t in range(2, 4 * k + 3, 2):
            if t in splice_centres:
                continue
            window = [layout[t - 1], layout[t], layout[t + 1]]
            assert all(not e.is_splice for e in window)
            kinds = {e.kind for e in window}
            assert len(kinds) == 1
            indices = sorted(e.v_index for e in window)
            j = indices[1]
            assert indices == [j - 1, j, j + 1]
            assert j % 2 == 0
            kind = kinds.pop()
            tags = [modifier(kind, e.v_index).bits for e in window]
            assert tags[0] ^ tags[1] ^ tags[2] == 0


class TestLift:
    def test_rejects_dimension_below_3(self):
        with pytest.raises(ValueError):
            lift(TernarySequence.from_decimals(2, (1, 2, 3)))

    def test_rejects_invalid_input(self):
        bad = TernarySequence.from_decimals(5, range(1, 32))
        with pytest.raises(ValueError, match="not a ternary permutation"):
            lift(bad)

    def test_lift_of_base5_is_valid_dim7(self, base5):
        out = lift(base5)
        assert out.dim == 7
        assert len(out) == 127
        assert verify(out).valid

    def test_first_splice_lands_at_position_32(self, base5):
        out = lift(base5)
        # k + 1 = 32 for a 31-term input; the splice word is 0000010 = 2
        assert out.words[31] == Word(2, 7)
        assert out.words[31].to_string() == "0000010"

    def test_splice_window_sums_are_zero(self, base5):
        out = lift(base5)
        k = 31
        for centre in (k + 1, 2 * k + 2, 3 * k + 3):
            triple = (
                out.words[centre - 2] ^ out.words[centre - 1] ^ out.words[centre]
            )
            assert triple == zero(7)

    def test_output_multiset_is_tagged_copies_plus_splices(self, base5):
        out = lift(base5)
        z = zero(5)
        expected = Counter(
            concat(base5.words[i - 1], modifier(kind, i))
            for i in range(1, 32)
            for kind in ModifierKind
        )
        expected.update(
            [concat(z, SPLICE_FIRST), concat(z, SPLICE_SECOND), concat(z, SPLICE_THIRD)]
        )
        assert Counter(out.words) == expected

    def test_double_lift_reaches_dim9(self, base5):
        out = lift(lift(base5))
        assert out.dim == 9
        assert len(out) == 511
        assert verify(out).valid

    def test_even_windows_vanish_componentwise(self, base5):
        # source part and tag part of every off-splice even window each
        # XOR to zero on their own, not just after concatenation
        k = 31
        layout = {e.target_index: e for e in lift_layout(k)}
        splice_centres = {k + 1, 2 * k + 2, 3 * k + 3}
        for t in range(2, 4 * k + 3, 2):
            if t in splice_centres:
                continue
            window = [layout[t - 1], layout[t], layout[t + 1]]
            sources = [base5.words[e.v_index - 1] for e in window]
            assert sources[0] ^ sources[1] ^ sources[2] == zero(5)
            tags = [modifier(e.kind, e.v_index) for e in window]
            assert tags[0] ^ tags[1] ^ tags[2] == zero(2)


def layout_walk(seq):
    """The lift as one lift_layout row per output word, the slow way."""
    out = []
    for entry in lift_layout(len(seq)):
        if entry.is_splice:
            out.append(concat(zero(seq.dim), entry.splice).bits)
        else:
            tag = modifier(entry.kind, entry.v_index)
            out.append(concat(seq.words[entry.v_index - 1], tag).bits)
    return tuple(out)


@pytest.mark.parametrize("dim", range(5, 15))
def test_lift_matches_the_layout_table(dim):
    source = generate(dim)
    assert lift(source).decimals == layout_walk(source)
