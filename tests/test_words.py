from functools import reduce
from operator import xor

import pytest
from hypothesis import given, strategies as st

from ternaryperm.words import MAX_DIM, Word, _check_int


def w(text):
    return Word(int(text, 2), len(text))


class TestWordType:
    def test_rejects_stray_high_bits(self):
        with pytest.raises(ValueError, match=r"^bits must be in \[0, 3\], got 4$"):
            Word(4, 2)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match=rf"^dim must be in \[1, {MAX_DIM}\], got 0$"):
            Word(0, 0)
        with pytest.raises(ValueError, match=rf"^dim must be in \[1, {MAX_DIM}\], got {MAX_DIM + 1}$"):
            Word(0, MAX_DIM + 1)

    def test_rejects_non_integer_fields(self):
        # a float that passes the range checks would break str() and ^,
        # and Word(1.0, 2) would equal Word(1, 2); a bool is an int to
        # isinstance, and Word(1, True) printed as Word(bits=1, dim=True)
        for bits, dim in ((1.5, 2), (1.0, 2), (1, 2.0), ("1", 2), (True, 2), (1, True)):
            with pytest.raises(TypeError):
                Word(bits, dim)

    def test_is_zero(self):
        assert Word(0, 3).is_zero
        assert not Word(5, 3).is_zero

    def test_printing_is_msb_first(self):
        assert Word(2, 7).to_string() == "0000010"
        assert str(Word(5, 3)) == "101"

    def test_decimal_equals_string_read_as_binary(self):
        for bits in range(1, 1 << 6):
            word = Word(bits, 6)
            assert int(word.to_string(), 2) == word.bits

    def test_round_trip_parse_print_all_words_to_dim_10(self):
        for dim in range(1, 11):
            for bits in range(1 << dim):
                word = Word(bits, dim)
                assert w(word.to_string()) == word

    def test_parse_rejects_non_binary(self):
        # parse_word's migration, below; int() alone takes "0b", "_" and spaces
        for text in ("012", "", "0b1", "1_0", " 1"):
            with pytest.raises(ValueError):
                parse_word(text)


class TestCheckInt:
    """The one integer check: every dimension, budget, worker count and prefix word goes through it."""

    def test_an_int_in_range_passes(self):
        class Small(int):
            pass

        for value, lo, hi in ((0, 0, 0), (7, 1, 7), (1, 1, 7), (10**30, 1, None), (Small(2), 1, 3)):
            assert _check_int("x", value, lo, hi) is None

    @pytest.mark.parametrize("value, kind", [(5.0, "float"), (True, "bool"), (False, "bool"), ("5", "str"), (None, "NoneType")])
    def test_anything_else_is_a_type_error(self, value, kind):
        with pytest.raises(TypeError, match=f"^x must be an int, got {kind}$"):
            _check_int("x", value, 0)

    def test_out_of_range_is_a_value_error_in_one_of_two_forms(self):
        for value in (0, 8):
            with pytest.raises(ValueError, match=rf"^x must be in \[1, 7\], got {value}$"):
                _check_int("x", value, 1, 7)
        with pytest.raises(ValueError, match="^x must be at least 1, got -3$"):
            _check_int("x", -3, 1)


class TestWordAdd:
    def test_self_inverse(self):
        assert w("01") ^ w("01") == w("00")

    def test_disjoint_supports(self):
        assert w("10") ^ w("01") == w("11")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            w("01") ^ w("011")

    def test_xor_operator(self):
        assert (w("110") ^ w("011")) == w("101")

    def test_xor_with_a_non_word(self):
        # NotImplemented lets Python try the other operand, then raise TypeError
        assert Word(1, 3).__xor__(1) is NotImplemented
        with pytest.raises(TypeError):
            Word(1, 3) ^ 1

    def test_exhaustive_group_laws_dim_2(self):
        words = [Word(b, 2) for b in range(4)]
        for a in words:
            assert a ^ a == Word(0, 2)
            for b in words:
                assert a ^ b == b ^ a
                for c in words:
                    assert (a ^ b) ^ c == a ^ (b ^ c)


@st.composite
def same_dim_words(draw, count, max_dim=8):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    return [
        Word(draw(st.integers(min_value=0, max_value=(1 << dim) - 1)), dim)
        for _ in range(count)
    ]


@given(same_dim_words(2))
def test_commutativity(pair):
    a, b = pair
    assert a ^ b == b ^ a


@given(same_dim_words(3))
def test_associativity(triple):
    a, b, c = triple
    assert (a ^ b) ^ c == a ^ (b ^ c)


@given(same_dim_words(1))
def test_every_word_is_its_own_inverse(single):
    (a,) = single
    assert a ^ a == Word(0, a.dim)
    assert a ^ Word(0, a.dim) == a


# The README's migration for each helper that words.py no longer has.  The
# tests below are the helpers' own tests, run on these one-liners, so each
# stated migration gives what the helper gave.


def zero(dim):
    return Word(0, dim)


def concat(prefix, suffix):
    return Word(prefix.bits << suffix.dim | suffix.bits, prefix.dim + suffix.dim)


def parse_word(text):
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"expected a 0/1 string, got {text!r}")
    return Word(int(text, 2), len(text))


def nonzero_words(dim):
    return (Word(v, dim) for v in range(1, 1 << dim))


def total_xor(dim):
    return Word(reduce(xor, range(1 << dim), 0), dim)


class TestConcat:
    def test_prefix_takes_most_significant_positions(self):
        out = concat(zero(5), w("10"))
        assert out == Word(2, 7)
        assert out.to_string() == "0000010"

    def test_zero_prefix_keeps_suffix_value(self):
        assert concat(zero(5), w("01")) == Word(1, 7)

    def test_direct_juxtaposition(self):
        assert concat(w("1"), w("01")) == Word(5, 3)

    def test_symbol_string_expansion(self):
        # 1, then 01, then 0, then 10 reads as the 6-bit word 101010
        alpha = w("01")
        beta = w("10")
        out = concat(concat(concat(w("1"), alpha), w("0")), beta)
        assert out == Word(0b101010, 6)
        assert out.to_string() == "101010"

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            concat(Word(0, 16), Word(0, 15))


class TestTotalXor:
    def test_dim_1_is_one(self):
        assert total_xor(1) == Word(1, 1)

    def test_dim_2_is_zero(self):
        assert total_xor(2) == zero(2)

    def test_dim_3_is_zero(self):
        assert total_xor(3) == zero(3)

    def test_zero_for_all_dims_to_10(self):
        for dim in range(2, 11):
            assert total_xor(dim) == zero(dim)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            total_xor(0)


def test_nonzero_words_enumeration():
    words = list(nonzero_words(3))
    assert [word.bits for word in words] == list(range(1, 8))
    assert all(word.dim == 3 for word in words)
