import copy
import importlib
import pickle
import struct
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from ternaryperm import lifting, sequences
from ternaryperm.catalog import BaseCaseStore, generate, save
from ternaryperm.lifting import lift
from ternaryperm.search import SearchConfig, SearchMode, search
from ternaryperm.sequences import TernarySequence, VerificationFailure, verify
from ternaryperm.words import Word

from conftest import BASE5_DECIMALS


def seq(dim, values):
    return TernarySequence.from_decimals(dim, values)


def naive_is_ternary(dim, decimals):
    """Independent re-implementation: set equality plus the triple loop."""
    if sorted(decimals) != list(range(1, 2**dim)):
        return False
    for i in range(2, 2**dim - 1, 2):  # 1-based even centres
        if decimals[i - 2] ^ decimals[i - 1] ^ decimals[i]:
            return False
    return True


class TestSequenceType:
    def test_rejects_dimension_below_2(self):
        with pytest.raises(ValueError):
            TernarySequence(1, (Word(1, 1),))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            TernarySequence(3, (Word(1, 3), Word(1, 2)))

    @pytest.mark.parametrize("dim", (31, 40))
    def test_empty_sequences_refuse_dimensions_past_the_cap(self, dim):
        for build in (TernarySequence, TernarySequence.from_decimals):
            with pytest.raises(ValueError, match=f"^dim must be in \\[2, 30\\], got {dim}$"):
                build(dim, ())
        assert seq(30, ()).dim == 30

    def test_nonempty_input_keeps_its_messages(self):
        with pytest.raises(ValueError, match=r"^dim must be in \[2, 30\], got 40$"):
            seq(40, (1, 2, 3))
        with pytest.raises(ValueError, match=r"^bits must be in \[0, 3\], got 4$"):
            seq(2, (1, 2, 4))
        with pytest.raises(ValueError, match="word at position 2 has dimension 2, expected 3"):
            TernarySequence(3, (Word(1, 3), Word(1, 2)))
        with pytest.raises(ValueError, match=r"^dim must be in \[2, 30\], got 1$"):
            TernarySequence(1, (Word(1, 1),))

    def test_words_coerced_to_tuple(self):
        s = TernarySequence(2, [Word(1, 2), Word(2, 2)])
        assert isinstance(s.words, tuple)

    def test_decimals_round_trip(self):
        s = seq(3, (1, 2, 3, 4, 5, 6, 7))
        assert s.decimals == (1, 2, 3, 4, 5, 6, 7)
        assert len(s) == 7

    def test_from_decimals_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            seq(2, (1, 2, 4))
        with pytest.raises(ValueError):
            seq(2, (1, -1, 2))

    def test_from_decimals_rejects_non_integer_values(self):
        # a float passed the range check, and verify() then raised TypeError;
        # a bool passed every check, and the repr showed True for a word
        for values in ([1.0, 2.0, 3.0], [1, 2.5, 3], [1, "2", 3], [True, 2, 3]):
            with pytest.raises(TypeError, match="values must be ints"):
                seq(2, values)

    def test_rejects_non_integer_dimension(self):
        # 2.0 passed the range and per-word checks, and verify() then raised TypeError
        with pytest.raises(TypeError, match="dim must be an int, got float"):
            TernarySequence.from_decimals(2.0, ())
        with pytest.raises(TypeError, match="dim must be an int, got float"):
            TernarySequence(2.0, [Word(1, 2)])
        # True passed as dimension 1 and was refused with ValueError
        with pytest.raises(TypeError, match="dim must be an int, got bool"):
            TernarySequence.from_decimals(True, ())
        with pytest.raises(TypeError, match="dim must be an int, got bool"):
            TernarySequence(True, [])

    def test_rejects_words_that_are_not_words(self):
        # an int used to fail with AttributeError: 'int' object has no attribute 'bits'
        with pytest.raises(TypeError, match="^word at position 1 must be a Word, got int$"):
            TernarySequence(2, [1, 2, 3])
        with pytest.raises(TypeError, match="^word at position 2 must be a Word, got int$"):
            TernarySequence(2, [Word(1, 2), 2, Word(3, 2)])

    def test_both_constructors_agree(self):
        from_words = TernarySequence(3, [Word(v, 3) for v in (1, 2, 3, 4, 5, 6, 7)])
        from_ints = seq(3, [1, 2, 3, 4, 5, 6, 7])
        assert from_words == from_ints
        assert hash(from_words) == hash(from_ints)
        assert len({from_words, from_ints}) == 1
        assert from_words.decimals == from_ints.decimals
        assert from_words.words == from_ints.words
        assert list(from_ints) == list(from_ints.words)

    def test_repr_and_hash_are_the_fields(self):
        s = seq(2, (1, 2, 3))
        assert repr(s) == "TernarySequence(dim=2, decimals=(1, 2, 3))"
        assert hash(s) == hash((2, (1, 2, 3)))

    def test_inequality(self):
        assert seq(2, (1, 2, 3)) != seq(2, (1, 3, 2))
        assert seq(2, (1, 2, 3)) != (1, 2, 3)
        assert seq(2, ()) != seq(3, ())

    def test_words_are_built_once_on_first_read(self):
        s = seq(3, (1, 2, 3))
        assert s.words == (Word(1, 3), Word(2, 3), Word(3, 3))
        assert s.words is s.words

    @pytest.mark.parametrize("name", ("dim", "decimals", "words", "_failure", "other"))
    def test_immutable(self, name):
        s = seq(2, (1, 2, 3))
        with pytest.raises(FrozenInstanceError):
            setattr(s, name, 5)
        with pytest.raises(FrozenInstanceError):
            delattr(s, name)
        assert s.decimals == (1, 2, 3)

    def test_copies_and_pickles_equal(self):
        s = seq(3, (1, 2, 3, 4, 5, 6, 7))
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.deepcopy(s) == s


@pytest.fixture
def checks(monkeypatch):
    """Count verify's full checks: the ones not served from a kept result."""
    real = sequences._check
    done = []

    def counted(s):
        done.append(s)
        return real(s)

    monkeypatch.setattr(sequences, "_check", counted)
    return done


class TestKeptReport:
    def test_a_repeat_check_is_a_lookup(self, checks):
        s, t = seq(3, (1, 2, 3, 4, 5, 6, 7)), seq(2, (1, 3, 2))
        failure = verify(s)
        assert failure is not None and verify(s) is failure  # a failure is kept...
        assert verify(t) is None and verify(t) is None  # ...and so is None
        assert checks == [s, t]

    def test_kept_per_object_not_per_value(self, checks):
        s, t = seq(2, (1, 3, 2)), seq(2, (1, 3, 2))
        assert verify(s) is None and verify(t) is None
        assert checks == [s, t]

    def test_equality_hash_and_pickling_ignore_it(self, checks):
        s = seq(2, (1, 3, 2))
        verify(s)
        fresh = seq(2, (1, 3, 2))
        assert s == fresh and hash(s) == hash(fresh)
        for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert clone == s
            assert verify(clone) is None
        assert len(checks) == 3  # s, then each clone: a copy carries no kept result


class TestVerifyAndRaise:
    """The five places that verify a sequence and raise on a failure: the error type and the whole message."""

    @pytest.mark.parametrize("site", ["lift input", "lift output", "search", "save", "fixture"])
    def test_each_site_raises_its_message(self, site, monkeypatch, tmp_path):
        bad = seq(3, range(1, 8))
        found = "triple-sum at i=4: v3 XOR v4 XOR v5 = 2, expected 0"
        # the two tripwires fire only on a regression, so their verify is patched
        failed = VerificationFailure("triple-sum", 2, "patched")
        patched = "triple-sum at i=2: patched"
        fixture = tmp_path / "5.txt"
        if site == "fixture":
            fixture.write_text("n=5\n" + " ".join(str(v) for v in range(1, 32)) + "\n")  # fails as bad does
        if site == "lift output":
            monkeypatch.setattr(lifting, "verify", lambda s: verify(s) if s.dim == 5 else failed)
        if site == "search":
            # the package re-exports the function search over the submodule's name
            monkeypatch.setattr(importlib.import_module("ternaryperm.search"), "verify", lambda s: failed)
        call, error, message = {
            "lift input": (lambda: lift(bad), ValueError, f"input is not a ternary permutation: {found}"),
            "lift output": (
                lambda: lift(seq(5, BASE5_DECIMALS)),
                RuntimeError,
                f"lifted sequence failed verification: {patched}",
            ),
            "search": (
                lambda: search(SearchConfig(2, SearchMode.FIRST)),
                RuntimeError,
                f"search returned an invalid sequence: {patched}",
            ),
            "save": (lambda: save(bad, tmp_path / "bad.txt"), ValueError, f"refusing to save an invalid sequence: {found}"),
            "fixture": (
                lambda: BaseCaseStore(tmp_path).get(5),
                ValueError,
                f"fixture {fixture} is not a ternary permutation: {found}",
            ),
        }[site]
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message


class TestVerify:
    def test_valid_dim_2(self):
        assert verify(seq(2, (1, 3, 2))) is None

    def test_all_dim_2_permutations_are_ternary(self):
        # 1 XOR 2 XOR 3 = 0, and position 2 is the only even index
        from itertools import permutations

        for perm in permutations((1, 2, 3)):
            assert verify(seq(2, perm)) is None

    def test_triple_sum_failure(self):
        failure = verify(seq(3, (1, 2, 3, 4, 5, 6, 7)))
        assert failure.kind == "triple-sum"
        assert failure.index == 4
        assert "2" in failure.detail  # 3 XOR 4 XOR 5 = 2

    def test_duplicate_failure(self):
        failure = verify(seq(2, (1, 1, 2)))
        assert failure.kind == "duplicate"
        assert failure.index == 2

    def test_zero_word_failure(self):
        failure = verify(seq(2, (1, 0, 3)))
        assert failure.kind == "zero-word"
        assert failure.index == 2

    def test_length_failure_too_short(self):
        failure = verify(seq(2, (1, 2)))
        assert failure.kind == "length"
        assert failure.index == 3  # first missing position
        assert "expected 3" in failure.detail

    def test_length_failure_too_long(self):
        failure = verify(seq(2, (1, 2, 3, 1)))
        assert failure.kind == "length"
        assert failure.index == 4  # first surplus position

    def test_zero_and_duplicate_scan_order(self):
        # zero at position 2 is hit before the duplicate at position 3
        failure = verify(seq(2, (1, 0, 1)))
        assert failure.kind == "zero-word"
        assert failure.index == 2

    def test_duplicates_scan_before_triple_sums(self):
        # triple at i=2 already fails, but the duplicate scan runs first
        failure = verify(seq(3, (1, 2, 4, 5, 2, 6, 7)))
        assert failure.kind == "duplicate"
        assert failure.index == 5

    def test_a_report_is_its_failure(self):
        # verify returns the first violation itself, and None when there is none
        failure = verify(seq(2, (1, 1, 2)))
        assert type(failure) is VerificationFailure
        assert failure == VerificationFailure("duplicate", 2, "word 1 at position 2 already appeared at position 1")
        assert verify(seq(2, (1, 2, 3))) is None
        with pytest.raises(FrozenInstanceError):
            failure.kind = "length"

    def test_refuses_what_is_not_a_sequence(self):
        # a tuple used to fail with AttributeError naming the private _report
        with pytest.raises(TypeError, match="^seq must be a TernarySequence, got tuple$"):
            verify((1, 2, 3))

    def test_failure_message_uses_1_based_positions(self):
        failure = verify(seq(3, (1, 2, 3, 4, 5, 6, 7)))
        assert "i=4" in str(failure)


@given(
    dim=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_verify_matches_naive_oracle_on_permutations(dim, data):
    values = data.draw(st.permutations(list(range(1, 2**dim))))
    s = seq(dim, values)
    assert (verify(s) is None) == naive_is_ternary(dim, list(values))


@given(
    dim=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_verify_matches_naive_oracle_on_arbitrary_words(dim, data):
    size = 2**dim - 1
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=size), min_size=size, max_size=size)
    )
    s = seq(dim, values)
    assert (verify(s) is None) == naive_is_ternary(dim, list(values))


def reference_failure(dim, vals):
    """The first violation as (kind, index, detail), found one word at a time; None if valid."""
    expected = 2**dim - 1
    if len(vals) != expected:
        detail = f"expected {expected} words for n={dim}, got {len(vals)}"
        return "length", min(len(vals), expected) + 1, detail
    seen = {}
    for pos, v in enumerate(vals, start=1):
        if v == 0:
            return "zero-word", pos, f"word at position {pos} is zero"
        if v in seen:
            return "duplicate", pos, f"word {v} at position {pos} already appeared at position {seen[v]}"
        seen[v] = pos
    for i in range(2, expected, 2):
        total = vals[i - 2] ^ vals[i - 1] ^ vals[i]
        if total:
            return "triple-sum", i, f"v{i - 1} XOR v{i} XOR v{i + 1} = {total}, expected 0"
    return None


class TestLittleEndianWords:
    """catalog's binary I/O reads and writes values through these; the bytes must not depend on the host."""

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=64))
    def test_lanes_match_struct(self, values):
        packed = sequences.lanes(values).to_bytes(4 * len(values), "little")
        assert packed == struct.pack(f"<{len(values)}I", *values)

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=64))
    def test_unlanes_inverts_lanes(self, values):
        packed = int.from_bytes(struct.pack(f"<{len(values)}I", *values), "little")
        assert list(sequences.unlanes(packed, len(values))) == values


def check_outcome(dim, vals):
    failure = sequences._check(TernarySequence._trusted(dim, tuple(vals)))
    return None if failure is None else (failure.kind, failure.index, failure.detail)


class TestTripleCheck:
    """_check finds the first failing triple in packed lanes; these pin it to a per-word scan."""

    @given(
        dim=st.sampled_from((2, 5, 6, 7, 8)),
        data=st.data(),
    )
    def test_matches_a_per_word_scan_on_random_corruptions(self, dim, data):
        vals = list(generate(dim).decimals)
        size = len(vals)
        edits = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("swap"), st.integers(0, size - 1), st.integers(0, size - 1)),
                    st.tuples(st.just("set"), st.integers(0, size - 1), st.integers(0, size)),
                    # out of the dimension's range: sums reach bit 29 without colliding
                    st.tuples(st.just("flip29"), st.integers(0, size - 1), st.just(1 << 29)),
                ),
                max_size=4,
            )
        )
        for kind, i, x in edits:
            if kind == "swap":
                vals[i], vals[x] = vals[x], vals[i]
            elif kind == "set":
                vals[i] = x
            else:
                vals[i] ^= x
        assert check_outcome(dim, vals) == reference_failure(dim, vals)

    @pytest.mark.parametrize("dim", (5, 8))
    def test_a_failure_in_the_last_triple(self, dim):
        vals = list(generate(dim).decimals)
        vals[-1] |= 1 << 29
        got = check_outcome(dim, vals)
        assert got == reference_failure(dim, vals)
        assert got[:2] == ("triple-sum", len(vals) - 1)
        assert got[2].endswith(f"= {1 << 29}, expected 0")

