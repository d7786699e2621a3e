import io
import os
import random
import stat
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from ternaryperm import catalog, sequences
from ternaryperm.catalog import (
    BASE_DIMS,
    BaseCaseStore,
    NonexistentDimensionError,
    ParseError,
    construction_route,
    exists,
    format_sequence,
    generate,
    load,
    parse_sequence_text,
    save,
)
from ternaryperm.cli import main
from ternaryperm.lifting import lift
from ternaryperm.search import search_randomized
from ternaryperm.sequences import TernarySequence, verify

from conftest import BASE5_DECIMALS


class TestExists:
    @pytest.mark.parametrize("n,expected", [(2, True), (3, False), (4, False), (5, True), (9, True), (30, True)])
    def test_characterization(self, n, expected):
        assert exists(n) is expected

    def test_rejects_dims_below_2(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                exists(n)


class TestGenerate:
    def test_dim2_is_the_fixed_triple(self):
        assert generate(2).decimals == (1, 2, 3)

    def test_nonexistent_dims_raise_their_own_error(self):
        for n in (3, 4):
            with pytest.raises(NonexistentDimensionError) as err:
                generate(n)
            assert f"n={n}" in str(err.value)
            assert not isinstance(err.value, ValueError)

    def test_invalid_dims_raise_value_error(self):
        with pytest.raises(ValueError):
            generate(1)
        with pytest.raises(ValueError):
            generate(31)

    def test_refuses_a_peak_beyond_physical_memory(self, monkeypatch):
        peak = catalog.GEN_BYTES_PER_WORD * (2**7 - 1)
        monkeypatch.setattr(catalog, "_physical_memory", lambda: peak)
        assert generate(7).dim == 7
        monkeypatch.setattr(catalog, "_physical_memory", lambda: peak - 1)
        with pytest.raises(ValueError, match="n=7 needs about .* physical memory"):
            generate(7)
        assert generate(6).dim == 6

    def test_unknown_physical_memory_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(catalog, "_physical_memory", lambda: None)
        assert generate(7).dim == 7

    def test_memory_probe(self):
        memory = catalog._physical_memory()
        assert memory is None or memory > 0

    @pytest.mark.parametrize("n", (5, 6, 7, 8, 9, 10))
    def test_generated_sequences_are_valid(self, n):
        seq = generate(n)
        assert seq.dim == n
        assert len(seq) == 2**n - 1
        assert verify(seq) is None

    def test_each_sequence_on_the_chain_is_checked_once(self, monkeypatch):
        real = sequences._check
        checked = []
        monkeypatch.setattr(sequences, "_check", lambda s: checked.append(s.dim) or real(s))
        result = generate(11, store=BaseCaseStore())
        assert verify(result) is None
        assert checked == [5, 7, 9, 11]  # the base case, then each lift's output

    def test_lift_still_rejects_an_invalid_input_checked_before(self):
        bad = TernarySequence.from_decimals(5, range(1, 32))
        assert verify(bad) is not None
        with pytest.raises(ValueError, match="not a ternary permutation"):
            lift(bad)

    def test_dim7_is_the_lift_of_dim5(self):
        assert generate(7) == lift(generate(5))

    def test_deterministic(self):
        assert generate(9).decimals == generate(9).decimals

    def test_agrees_with_base5_regression(self):
        assert generate(5).decimals == BASE5_DECIMALS


def test_exists_agrees_with_the_impossibility_runs():
    from ternaryperm.search import prove_impossibility

    for n in (3, 4):
        assert exists(n) is False
        assert prove_impossibility(n).nonexistent is True
    for n in (2, 5, 6, 7, 8, 9, 10, 11, 12):
        assert exists(n) is True
        assert verify(generate(n)) is None


class TestRoute:
    def test_base_dims(self):
        assert construction_route(2) == ["base-2"]
        assert construction_route(5) == ["base-5"]
        assert construction_route(6) == ["base-6"]

    def test_lift_chains(self):
        assert construction_route(9) == ["lifted-from-7", "lifted-from-5", "base-5"]
        assert construction_route(8) == ["lifted-from-6", "base-6"]

    def test_nonexistent(self):
        with pytest.raises(NonexistentDimensionError):
            construction_route(4)

    @pytest.mark.parametrize("n", (31, 20000))
    def test_refuses_what_generate_refuses(self, n):
        for build in (construction_route, generate):
            with pytest.raises(ValueError, match=rf"^n must be in \[2, 30\], got {n}$"):
                build(n)


class TestFormats:
    def test_decimal_layout(self):
        text = format_sequence(generate(2), "decimal")
        assert text == "n=2\n1 2 3\n"

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_binary_matches_the_per_word_layout(self, dim):
        values = list(range(1, 1 << dim))
        random.Random(dim).shuffle(values)
        s = TernarySequence.from_decimals(dim, values)
        assert format_sequence(s, "binary") == binary_reference(dim, values)

    @pytest.mark.parametrize(
        "dim,values",
        [(5, ()), (30, ((1 << 30) - 1, 1 << 29, (1 << 29) | 0x00F0F0F, 1, 0x2AAAAAAA))],
        ids=["empty", "short-dim-30"],
    )
    def test_binary_layout_of_invalid_sequences(self, dim, values):
        s = TernarySequence.from_decimals(dim, values)
        assert format_sequence(s, "binary") == binary_reference(dim, values)

    def test_binary_layout(self):
        text = format_sequence(generate(2), "binary")
        assert text == "n=2\n01\n10\n11\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            format_sequence(generate(2), "octal")

    @pytest.mark.parametrize("n", (2, 5, 6, 7))
    @pytest.mark.parametrize("fmt", ("decimal", "binary"))
    def test_round_trip_identity(self, n, fmt, tmp_path):
        seq = generate(n)
        path = tmp_path / f"{n}.{fmt}.txt"
        save(seq, path, fmt)
        loaded, read = load(path)
        assert loaded == seq
        assert read == fmt
        assert verify(loaded) is None

    def test_save_replaces_a_file_in_one_step(self, tmp_path):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        save(generate(5), target)
        assert load(target)[0] == generate(5)
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path, writes_fail_midway):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        with pytest.raises(OSError, match="No space left"):
            save(generate(5), target)
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_save_into_a_missing_directory_names_the_target(self, tmp_path):
        # an unwritable directory takes the same path; root writes anywhere, so it is not tested
        target = tmp_path / "missing" / "seq.txt"
        with pytest.raises(FileNotFoundError) as err:
            save(generate(5), target)
        assert err.value.filename == str(target)
        assert ".tmp" not in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_save_writes_into_a_fifo_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        save(generate(5), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [format_sequence(generate(5))]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_save_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        link = tmp_path / "link"
        link.symlink_to(target.name)
        save(generate(5), link)
        assert link.is_symlink()
        assert target.read_text() == format_sequence(generate(5))
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("mode", (0o600, 0o640), ids=oct)
    def test_save_keeps_the_mode_of_the_file_it_replaces(self, tmp_path, mode):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        target.chmod(mode)
        save(generate(5), target)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_text() == format_sequence(generate(5))

    def test_save_to_a_new_file_gets_the_umask_default(self, tmp_path):
        mask = os.umask(0o027)
        try:
            save(generate(5), tmp_path / "new.txt")
        finally:
            os.umask(mask)
        assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o640

    @pytest.mark.skipif(os.geteuid() != 0, reason="only root may give a file away")
    def test_save_keeps_the_owner_of_the_file_it_replaces(self, tmp_path):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        os.chown(target, 12345, 23456)
        save(generate(5), target)
        assert (target.stat().st_uid, target.stat().st_gid) == (12345, 23456)

    def test_save_refuses_invalid_sequences(self, tmp_path):
        bad = TernarySequence.from_decimals(3, range(1, 8))
        with pytest.raises(ValueError, match="refusing to save"):
            save(bad, tmp_path / "bad.txt")


class TestLoadMetadata:
    def test_well_formed_but_not_ternary_still_loads(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("n=3\n1 2 3 4 5 6 7\n")
        seq, fmt = load(path)
        assert seq.decimals == (1, 2, 3, 4, 5, 6, 7)
        assert fmt == "decimal"
        failure = verify(seq)
        assert failure.kind == "triple-sum"
        assert failure.index == 4

    def test_duplicates_are_verification_not_parse_failures(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("n=2\n1 1 2\n")
        assert verify(load(path)[0]).kind == "duplicate"

    @pytest.mark.parametrize("fmt", ("decimal", "binary"))
    def test_load_is_the_parse_of_the_file_text_checked(self, fmt, tmp_path, monkeypatch):
        path = tmp_path / f"7.{fmt}.txt"
        assert main(["gen", "--dim", "7", "--format", fmt, "--out", str(path)]) == 0
        real = sequences._check
        checked = []
        monkeypatch.setattr(sequences, "_check", lambda s: checked.append(s) or real(s))
        loaded = load(path)
        assert type(loaded) is tuple
        assert loaded == parse_sequence_text(path.read_text(encoding="utf-8"))
        assert loaded[1] == fmt
        assert len(checked) == 1 and checked[0] is loaded[0]  # load ran the check...
        assert verify(loaded[0]) is None
        assert len(checked) == 1  # ...so verify looks up its kept result


class TestParseErrors:
    def assert_parse_error(self, text, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_sequence_text(text)
        assert fragment in str(err.value)
        assert "line" in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_wrong_count_too_few(self):
        body = " ".join(str(v) for v in range(1, 31))
        self.assert_parse_error(f"n=5\n{body}\n", "expected 31 values, got 30")

    def test_wrong_count_too_many(self):
        body = " ".join(str(v) for v in list(range(1, 32)) + [7])
        self.assert_parse_error(f"n=5\n{body}\n", "expected 31 values, got more", line=2)

    def test_zero_word(self):
        self.assert_parse_error("n=2\n1 0 2\n", "zero word not permitted", line=2)

    def test_zero_word_binary(self):
        self.assert_parse_error("n=2\n01\n00\n10\n", "zero word not permitted", line=3)

    def test_value_out_of_range(self):
        self.assert_parse_error("n=2\n1 4 2\n", "out of range [1, 3]", line=2)

    def test_non_decimal_token(self):
        self.assert_parse_error("n=2\n1 two 3\n", "not a decimal value", line=2)

    def test_non_ascii_digit_token(self):
        self.assert_parse_error("n=2\n1 2 \u00b3\n", "not a decimal value", line=2)

    def test_non_ascii_digit_header(self):
        self.assert_parse_error("n=\u00b2\n1 2 3\n", "malformed header", line=1)

    def test_malformed_header(self):
        self.assert_parse_error("m=5\n1 2 3\n", "malformed header", line=1)

    def test_header_dimension_too_small(self):
        self.assert_parse_error("n=1\n1\n", "at least 2", line=1)

    def test_header_dimension_too_large(self):
        self.assert_parse_error("n=31\n1\n", "at most 30", line=1)

    def test_header_past_int_digit_limit(self):
        text = "n=" + "9" * 5000 + "\n1 2 3\n"
        assert whole_body(text) is None
        self.assert_parse_error(text, "at most 30, got a 5000-digit number", line=1)

    def test_leading_zeros_do_not_count_toward_the_digit_limit(self):
        padded = "n=" + "0" * 5000 + "2\n1 2\n" + "0" * 5000 + "3\n"
        assert parse_sequence_text(padded) == parse_sequence_text("n=2\n1 2 3\n")

    def test_empty_file(self):
        self.assert_parse_error("", "empty file", line=1)

    def test_binary_wrong_line_length(self):
        self.assert_parse_error("n=3\n001\n01\n", "0/1 string", line=3)

    def test_truncated_binary(self):
        self.assert_parse_error("n=2\n01\n10\n", "expected 3 values, got 2")

    @pytest.mark.parametrize(
        "brk", ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    )
    def test_lines_are_numbered_by_newlines_alone(self, brk):
        # the tokens around the break still split, as at any whitespace
        self.assert_parse_error(f"n=3\n1 2{brk}3 4\n5 6 x\n", "'x' is not a decimal value", line=3)

    @pytest.mark.parametrize("ending", ("\n", "\r\n"))
    def test_a_line_ending_is_one_break_and_a_final_one_starts_no_line(self, ending):
        e = ending
        self.assert_parse_error(f"n=2{e}1 2{e}3{e}4{e}", "expected 3 values, got more", line=4)
        self.assert_parse_error(f"n=2{e}1 2{e}", "expected 3 values, got 2", line=2)

    def test_a_header_line_carrying_values_is_malformed(self):
        self.assert_parse_error("n=2\x0c1 2 3\n", "malformed header", line=1)

    def test_binary_words_on_one_line_are_not_separate_lines(self):
        # after a binary first line, so the body reads as binary
        self.assert_parse_error("n=2\n01\n10\x0c11\n", "0/1 string", line=3)

    def test_text_must_be_a_str(self):
        with pytest.raises(TypeError, match=r"^text must be a str, got bytes$"):
            parse_sequence_text(b"n=2\n1 2 3\n")
        # load and save take a path; a file object is refused before any I/O
        with pytest.raises(TypeError, match="BytesIO"):
            load(io.BytesIO(b"n=2\n1 2 3\n"))
        buffer = io.StringIO()
        with pytest.raises(TypeError, match="StringIO"):
            save(generate(2), buffer)
        assert buffer.getvalue() == ""


def binary_reference(dim, values):
    """The binary text written one word at a time."""
    return f"n={dim}\n" + "\n".join(format(v, f"0{dim}b") for v in values) + "\n"


def outcome(parse, text, fmt):
    """What a parser does with text: its result, or the error it raises."""
    try:
        return parse(text, fmt)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def read(text, fmt=None):
    """parse_sequence_text(text), or with fmt the body read as fmt.

    parse_sequence_text reads the body in the format it detects.  A given
    fmt calls the two body readers as it does once it has detected fmt,
    so that the whole-body read and the line scan of each format are also
    compared on bodies that detection hands to the other format.
    """
    if fmt is None:
        return parse_sequence_text(text)
    dim, body = catalog._parse_header(text)
    values = catalog._read_body(body.encode(), dim, fmt) if body.isascii() else None
    if values is None:
        values = catalog._scan_lines(body, dim, fmt)
    return TernarySequence._trusted(dim, values), fmt


class LineScanStarted(Exception):
    """Raised in place of the line scan, to see whether a parse needed it."""


def whole_body(text, fmt=None):
    """What read returns by the whole-body read alone.

    None when the body would go to the line scan, or when the header line
    already fails and no body is read.
    """
    with mock.patch.object(catalog, "_scan_lines", side_effect=LineScanStarted):
        try:
            return read(text, fmt)
        except (LineScanStarted, ParseError):
            return None


def line_scan(text, fmt=None):
    """read with every body read by the line scan."""
    with mock.patch.object(catalog, "_read_body", return_value=None):
        return read(text, fmt)


def well_formed(dim, fmt, seed):
    values = list(range(1, 1 << dim))
    random.Random(seed).shuffle(values)
    return format_sequence(TernarySequence.from_decimals(dim, values), fmt)


#: Pieces spliced into a well-formed file: digits, whitespace, and characters
#: that int() accepts in places where the file format does not.
MUTATIONS = (
    "0", "1", "2", "7", " ", "\n", "\r\n", "\r", "\t", "\x0c", "\u2028", "x", "-", "+", "_", "b", "\u00b3",
    "\u0661", "",
)

#: Ways to bend the canonical binary file of generate(5), each a function of its lines.
BINARY_VARIANTS = {
    "canonical": lambda lines: "\n".join(lines) + "\n",
    "no-final-newline": lambda lines: "\n".join(lines),
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank-line": lambda lines: "\n".join(lines[:7] + [""] + lines[7:]) + "\n",
    "trailing-space": lambda lines: "\n".join(lines[:7] + [lines[7] + " "] + lines[8:]) + "\n",
    "short-line": lambda lines: "\n".join(lines[:7] + [lines[7][1:]] + lines[8:]) + "\n",
    "long-line": lambda lines: "\n".join(lines[:7] + [lines[7] + "1"] + lines[8:]) + "\n",
    "a-2": lambda lines: "\n".join(lines[:7] + ["2" + lines[7][1:]] + lines[8:]) + "\n",
    "zero-word": lambda lines: "\n".join(lines[:7] + ["00000"] + lines[8:]) + "\n",
    # same length and a newline at every stride, but one line is split in two
    "newline-inside-a-line": lambda lines: "\n".join(lines[:7] + ["01\n10"] + lines[8:]) + "\n",
    "missing-line": lambda lines: "\n".join(lines[:-1]) + "\n",
    "extra-line": lambda lines: "\n".join(lines + [lines[1]]) + "\n",
}

#: The format argument of read: None for the detected format.
FORMAT_ARGS = st.sampled_from((None, "decimal", "binary"))


class TestBulkParse:
    @pytest.mark.parametrize("n", (2, 5, 8))
    @pytest.mark.parametrize("fmt", ("decimal", "binary"))
    def test_takes_the_bulk_path_on_written_files(self, n, fmt):
        text = format_sequence(generate(n), fmt)
        assert whole_body(text) == (generate(n), fmt)

    @pytest.mark.parametrize("header", (" n=5 \n", "n=5\r\n", "\tn=05\x0c\n"))
    @pytest.mark.parametrize("fmt", ("decimal", "binary"))
    def test_takes_the_bulk_path_under_a_padded_header(self, header, fmt):
        plain = format_sequence(generate(5), fmt)
        padded = header + plain.partition("\n")[2]
        assert whole_body(padded) == parse_sequence_text(plain)

    @pytest.mark.parametrize("fmt", ("decimal", "binary"))
    def test_takes_the_bulk_path_across_byte_lanes(self, fmt):
        text = format_sequence(generate(17), fmt)
        assert whole_body(text) == (generate(17), fmt)

    def test_binary_columns_reach_every_byte_lane(self):
        values = ((1 << 30) - 1, 1 << 29, (1 << 29) | 0x00F0F0F, 1, 0x2AAAAAAA, 0)
        body = binary_reference(30, values).partition("\n")[2].encode()
        assert catalog._read_binary_columns(body, 30, len(values)) == values

    @pytest.mark.parametrize("fmt", (None, "decimal", "binary"))  # read's format argument
    @pytest.mark.parametrize("variant", BINARY_VARIANTS)
    def test_binary_layouts_agree_with_line_scan(self, variant, fmt):
        lines = format_sequence(generate(5), "binary").splitlines()
        text = BINARY_VARIANTS[variant](lines)
        expected = outcome(line_scan, text, fmt)
        assert outcome(read, text, fmt) == expected
        bulk = whole_body(text, fmt)
        assert bulk is None or bulk == expected
        if variant == "canonical" and fmt != "decimal":
            assert bulk == (generate(5), "binary")

    @pytest.mark.parametrize(
        "text",
        (
            "n=2\n+1 2 3\n",
            "n=2\n1 2 0_3\n",
            "n=2\n1 2 \u0663\n",
            "n=2\n1 2\t3\n",
            "n=3\n0b1\n010\n011\n100\n101\n110\n111\n",
            "n=3\n001\n0_1\n011\n100\n101\n110\n111\n",
            "n=3\n001 010\n011\n100\n101\n110\n111\n",
            "n=3\n0001\n010\n011\n100\n101\n110\n111\n",
            "n=3\n01\n010\n011\n100\n101\n110\n111\n",
            "n=2\n01\n10\n11\n",
        ),
    )
    def test_agrees_with_line_scan_on_tricky_tokens(self, text):
        for fmt in (None, "decimal", "binary"):
            bulk = whole_body(text, fmt)
            assert bulk is None or bulk == line_scan(text, fmt)

    @given(
        dim=st.integers(min_value=2, max_value=10),
        fmt=st.sampled_from(("decimal", "binary")),
        seed=st.integers(min_value=0, max_value=2**32),
        parse_fmt=FORMAT_ARGS,
    )
    def test_agrees_with_line_scan_on_well_formed_files(self, dim, fmt, seed, parse_fmt):
        text = well_formed(dim, fmt, seed)
        assert outcome(read, text, parse_fmt) == outcome(line_scan, text, parse_fmt)
        bulk = whole_body(text, parse_fmt)
        assert bulk is not None or parse_fmt not in (None, fmt)
        if bulk is not None:
            assert bulk == line_scan(text, parse_fmt)
            assert format_sequence(bulk[0], bulk[1]) == text

    @given(
        dim=st.integers(min_value=2, max_value=5),
        fmt=st.sampled_from(("decimal", "binary")),
        seed=st.integers(min_value=0, max_value=2**32),
        parse_fmt=FORMAT_ARGS,
        edits=st.lists(
            st.tuples(st.floats(min_value=0, max_value=1, exclude_max=True), st.sampled_from(MUTATIONS), st.booleans()),
            min_size=1,
            max_size=3,
        ),
    )
    # the inserted "0" makes the header n=30 over a 32-byte body
    @example(dim=3, fmt="binary", seed=0, parse_fmt="binary", edits=[(0.09375, "0", False)])
    def test_agrees_with_line_scan_on_corrupted_files(self, dim, fmt, seed, parse_fmt, edits):
        text = well_formed(dim, fmt, seed)
        for where, piece, replace in edits:
            at = int(where * len(text))
            text = text[:at] + piece + text[at + replace :]
        bulk = whole_body(text, parse_fmt)
        lines = outcome(line_scan, text, parse_fmt)
        assert bulk is None or bulk == lines
        assert outcome(read, text, parse_fmt) == lines

    def test_header_dimension_sizes_nothing_before_the_body_length_is_checked(self):
        text = well_formed(3, "binary", 0)
        text = text[:3] + "0" + text[3:]  # n=30: a body of 2**30 - 1 lines is expected
        text = text.replace("\n", "\n" + "0" * 27, 1)  # a 30-character first line: the body reads as binary
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_sequence_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.line == 3
        assert peak < 1 << 20


@pytest.fixture
def searches(monkeypatch):
    """The calls the store makes to its two searches, as (name, dimension)."""
    calls = []

    def counted(fn, dim_of):
        def call(*args, **kwargs):
            calls.append((fn.__name__, dim_of(*args, **kwargs)))
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(catalog, "search", counted(catalog.search, lambda config: config.dim))
    randomized = counted(catalog.search_randomized, lambda dim, seed=0: dim)
    monkeypatch.setattr(catalog, "search_randomized", randomized)
    return calls


class TestBaseCaseStore:
    def test_packaged_fixtures_back_every_base_dim_without_a_search(self, searches):
        store = BaseCaseStore()
        for dim in BASE_DIMS:
            assert verify(store.get(dim)) is None
        assert store.get(2).decimals == (1, 2, 3)
        assert store.get(5).decimals == BASE5_DECIMALS
        assert searches == []

    def test_only_base_dims_are_stored(self):
        store = BaseCaseStore()
        with pytest.raises(ValueError):
            store.get(7)
        assert BASE_DIMS == (2, 5, 6)

    def test_search_on_demand_matches_committed_fixtures(self, tmp_path, searches):
        # 6.txt came from a shuffled-order search_randomized the package no
        # longer has, so the n=6 fallback finds another verified base
        fresh = BaseCaseStore(fixture_dir=tmp_path)
        packaged = BaseCaseStore()
        for dim in BASE_DIMS:
            assert fresh.get(dim) is fresh.get(dim)
        for dim in (2, 5):
            assert fresh.get(dim) == packaged.get(dim)
        assert verify(fresh.get(6)) is None
        assert fresh.get(6) == search_randomized(6, seed=0).sequence
        assert searches == [("search", 2), ("search", 5), ("search_randomized", 6)]

    def test_a_non_int_dim_is_refused_before_the_cache_and_any_search(self, monkeypatch):
        # 5.0 == 5, so a store holding 5 handed it out, and a fresh store
        # looked for 5.0.txt, missed the packaged 5.txt and started a search
        def no_search(*args, **kwargs):
            pytest.fail("the store started a search")

        monkeypatch.setattr(catalog, "search", no_search)
        monkeypatch.setattr(catalog, "search_randomized", no_search)
        for dim in (5.0, 6.0):
            with pytest.raises(TypeError, match="^dim must be an int, got float$"):
                BaseCaseStore().get(dim)
        store = BaseCaseStore()
        assert store.get(5).decimals == BASE5_DECIMALS
        with pytest.raises(TypeError, match="^dim must be an int, got float$"):
            store.get(5.0)
        with pytest.raises(TypeError, match="^dim must be an int, got bool$"):
            store.get(True)

    def test_sequences_are_cached(self):
        store = BaseCaseStore()
        assert store.get(5) is store.get(5)

    def test_a_fixture_file_is_read_instead_of_the_search(self, tmp_path, searches):
        # bits 0 and 4 swapped: a linear map, so still a ternary permutation,
        # and not the one the search finds
        swapped = [v & 0b01110 | (v & 1) << 4 | (v >> 4) & 1 for v in BASE5_DECIMALS]
        save(TernarySequence.from_decimals(5, swapped), tmp_path / "5.txt")
        assert BaseCaseStore(fixture_dir=tmp_path).get(5).decimals == tuple(swapped)
        assert searches == []

    def test_rejects_invalid_fixture_file(self, tmp_path):
        (tmp_path / "5.txt").write_text("n=5\n" + " ".join(str(v) for v in range(1, 32)) + "\n")
        store = BaseCaseStore(fixture_dir=tmp_path)
        with pytest.raises(ValueError, match="not a ternary permutation"):
            store.get(5)

    def test_rejects_fixture_of_wrong_dimension(self, tmp_path):
        save(generate(5), tmp_path / "6.txt")
        store = BaseCaseStore(fixture_dir=tmp_path)
        with pytest.raises(ValueError, match="dimension"):
            store.get(6)

    def test_generate_uses_supplied_store(self, tmp_path, searches):
        # n=8 lifts from the n=6 base, which a store without fixtures finds
        # by the seeded search in 51,630 nodes; n=5 would take 3.4M
        store = BaseCaseStore(fixture_dir=tmp_path)
        seq = generate(8, store=store)
        assert verify(seq) is None
        assert searches == [("search_randomized", 6)]
