import importlib
import stat

import pytest

from ternaryperm import catalog
from ternaryperm.catalog import format_sequence, generate
from ternaryperm.cli import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_NONEXISTENT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    main,
)
from ternaryperm.words import MAX_DIM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_dim2_decimal(self, capsys):
        code, out, err = run(capsys, "gen", "--dim", "2", "--format", "decimal")
        assert code == EXIT_OK
        assert out == "n=2\n1 2 3\n"
        assert err == ""

    def test_dim4_is_a_distinct_nonexistence_exit(self, capsys):
        code, out, err = run(capsys, "gen", "--dim", "4")
        assert code == EXIT_NONEXISTENT
        assert out == ""  # errors never interleave with data output
        assert "n=4" in err
        assert "{3, 4}" in err

    def test_dim7_binary_body_has_127_lines(self, capsys):
        code, out, err = run(capsys, "gen", "--dim", "7", "--format", "binary")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n=7"
        body = lines[1:]
        assert len(body) == 127
        assert all(len(line) == 7 and set(line) <= {"0", "1"} for line in body)

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "seq.txt"
        code, out, err = run(capsys, "gen", "--dim", "5", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == format_sequence(generate(5))

    @pytest.mark.parametrize("mode", (0o600, 0o640), ids=oct)
    def test_out_keeps_the_mode_of_the_file_it_replaces(self, capsys, tmp_path, mode):
        target = tmp_path / "priv.txt"
        target.write_text("old\n")
        target.chmod(mode)
        code, _, _ = run(capsys, "gen", "--dim", "5", "--out", str(target))
        assert code == EXIT_OK
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_text() == format_sequence(generate(5))

    def test_out_through_a_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        target = tmp_path / "seq.txt"
        link = tmp_path / "link"
        link.symlink_to(target)
        code, out, err = run(capsys, "gen", "--dim", "5", "--out", str(link))
        assert code == EXIT_OK
        assert link.is_symlink()
        assert target.read_text() == format_sequence(generate(5))

    def test_failed_write_keeps_the_old_file(self, capsys, tmp_path, writes_fail_midway):
        target = tmp_path / "seq.txt"
        target.write_text("old\n")
        code, out, err = run(capsys, "gen", "--dim", "5", "--out", str(target))
        assert code == EXIT_FAILURE
        assert "No space left" in err
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_out_takes_a_name_of_250_bytes(self, capsys, tmp_path):
        # the temporary file is named apart from the target, so it fits NAME_MAX too
        target = tmp_path / ("a" * 250)
        code, out, err = run(capsys, "gen", "--dim", "5", "--out", str(target))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert target.read_text() == format_sequence(generate(5))
        assert list(tmp_path.iterdir()) == [target]

    def test_out_in_a_missing_directory_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "gen", "--dim", "5", "--out", str(target))
        assert code == EXIT_FAILURE
        assert out == ""
        assert f"No such file or directory: '{target}'" in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_dim_beyond_physical_memory_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "_physical_memory", lambda: 10**6)
        code, out, err = run(capsys, "gen", "--dim", "15")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "n=15 needs about 4 MB at its peak, more than the 1 MB of physical memory" in err

    def test_invalid_dim(self, capsys):
        code, _, err = run(capsys, "gen", "--dim", "1")
        assert code == EXIT_INVALID_INPUT
        assert "error" in err

    def test_deterministic_output(self, capsys):
        first = run(capsys, "gen", "--dim", "6")
        second = run(capsys, "gen", "--dim", "6")
        assert first == second


class TestVerify:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "good.txt"
        run(capsys, "gen", "--dim", "6", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert out == "valid\n"

    def test_invalid_file_reports_kind_and_index(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=3\n1 2 3 4 5 6 7\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_FAILURE
        assert out == "invalid: triple-sum at i=4: v3 XOR v4 XOR v5 = 2, expected 0\n"

    def test_truncated_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("n=3\n1 2 3\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE_ERROR
        assert "line" in err

    @pytest.mark.parametrize(
        "text,line",
        [("n=2\n1 2 \u00b3\n", 2), ("n=\u00b2\n1 2 3\n", 1)],
        ids=["superscript-value", "superscript-header"],
    )
    def test_non_ascii_digits_are_a_parse_error(self, capsys, tmp_path, text, line):
        path = tmp_path / "digits.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert f"line {line}:" in err

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("n=" + "9" * 5000 + "\n1 2 3\n", 1, "dimension must be at most 30"),
            ("n=2\n1 2 " + "9" * 5000 + "\n", 2, "5000-digit value out of range [1, 3]"),
        ],
        ids=["long-header", "long-value"],
    )
    def test_tokens_past_the_int_digit_limit_are_a_parse_error(self, capsys, tmp_path, text, line, message):
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert f"line {line}: {message}" in err

    def test_long_leading_zeros_keep_their_meaning(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("n=2\n1 2\n" + "0" * 5000 + "3\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert out == "valid\n"

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"n=2\n1 2 \xff\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert "line 2: byte 0xff is not UTF-8 text" in err

    def test_parse_errors_name_the_line_grep_counts(self, capsys, tmp_path):
        path = tmp_path / "formfeed.txt"
        path.write_bytes(b"n=3\n1 2\x0c3 4\n5 6 x\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert "line 3: 'x' is not a decimal value" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == EXIT_FAILURE
        assert err != ""

    def test_the_file_states_its_format(self, capsys, tmp_path):
        # a decimal value as written never has n characters, so no decimal
        # file gen writes has a first line that reads as one binary word
        assert all(len(str((1 << n) - 1)) < n for n in range(2, MAX_DIM + 1))
        # a zero-padded first decimal value reads as binary, and a short
        # first binary word as decimal: both files are parse errors
        for text, message in (
            ("n=3\n001\n2\n3 4 5 6 7\n", "line 3: expected one 3-character 0/1 string per line, got '2'"),
            ("n=3\n01\n010\n011\n100\n101\n110\n111\n", "line 3: 2-digit value out of range [1, 7]"),
        ):
            path = tmp_path / "seq.txt"
            path.write_text(text)
            assert run(capsys, "verify", str(path)) == (EXIT_PARSE_ERROR, "", f"error: {message}\n")
        # the arguments that chose a format, or turned --reduce off, are gone
        run(capsys, "gen", "--dim", "5", "--format", "binary", "--out", str(path))
        assert run(capsys, "verify", str(path)) == (EXIT_OK, "valid\n", "")
        with pytest.raises(TypeError):
            catalog.load(path, "binary")
        with pytest.raises(TypeError):
            catalog.parse_sequence_text(path.read_text(), "binary")
        for argv in (["verify", str(path), "--format", "binary"], ["search", "--dim", "2", "--no-reduce"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == EXIT_INVALID_INPUT


class TestSearch:
    def test_count_dim2(self, capsys):
        code, out, _ = run(capsys, "search", "--dim", "2", "--mode", "count")
        assert code == EXIT_OK
        assert out == "6\n"

    def test_first_dim2_prints_sequence(self, capsys):
        code, out, _ = run(capsys, "search", "--dim", "2", "--mode", "first")
        assert code == EXIT_OK
        assert out == "n=2\n1 2 3\n"

    @pytest.mark.parametrize("option", ["--format", "--out"])
    def test_the_output_options_are_gone(self, capsys, tmp_path, option):
        # a search prints its answer; gen --format/--out writes the same bytes
        target = tmp_path / "answer.txt"
        value = "decimal" if option == "--format" else str(target)
        with pytest.raises(SystemExit) as err:
            main(["search", "--dim", "2", option, value])
        assert err.value.code == EXIT_INVALID_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("reduce", [(), ("--reduce",)])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_a_first_search_prints_what_gen_prints(self, capsys, dim, reduce):
        # n = 2 and 5 are the dimensions where a first search without a budget
        # finds a sequence
        expected = run(capsys, "gen", "--dim", str(dim))
        assert expected[0] == EXIT_OK
        assert run(capsys, "search", "--dim", str(dim), "--mode", "first", *reduce) == expected

    def test_prove_none_dim3(self, capsys):
        # the retired mode is an invalid choice; a first search answers the question
        with pytest.raises(SystemExit) as err:
            main(["search", "--dim", "3", "--mode", "prove-none"])
        assert err.value.code == EXIT_INVALID_INPUT
        stderr = capsys.readouterr().err
        assert "invalid choice" in stderr and "prove-none" in stderr
        assert run(capsys, "search", "--dim", "3", "--mode", "first")[0] == EXIT_NONEXISTENT

    def test_first_dim3_exits_nonexistent(self, capsys):
        code, out, err = run(capsys, "search", "--dim", "3", "--mode", "first")
        assert code == EXIT_NONEXISTENT
        assert out == ""
        assert "n=3" in err

    def test_budget_exhaustion_exit(self, capsys):
        code, _, err = run(capsys, "search", "--dim", "4", "--mode", "count", "--budget", "5")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("workers", [(), ("--parallel", "2")])
    @pytest.mark.parametrize("reduce", [(), ("--reduce",)])
    @pytest.mark.parametrize("mode", ["first", "count"])
    def test_n6_without_a_budget_is_refused_before_any_walk(self, capsys, monkeypatch, mode, reduce, workers):
        # a kernel that fails the test, in place of a walk of a tree too large to finish
        def walk(*args, **kwargs):
            raise AssertionError("the kernel was called")

        monkeypatch.setattr(importlib.import_module("ternaryperm.search"), "_explore", walk)
        code, out, err = run(capsys, "search", "--dim", "6", "--mode", mode, *reduce, *workers)
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err == "error: a search at dimension 6 needs a node budget: its tree is too large\n"

    def test_n6_with_a_budget_walks_to_it(self, capsys):
        code, out, err = run(capsys, "search", "--dim", "6", "--mode", "first", "--budget", "1000")
        assert (code, out, err) == (EXIT_BUDGET, "", "error: node budget exhausted after 1001 nodes\n")

    def test_parallel_count(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "3", "--mode", "count", "--parallel", "2"
        )
        assert code == EXIT_OK
        assert out == "0\n"

    @pytest.mark.parametrize("mode,expected", [("count", "1\n"), ("first", "n=2\n1 2 3\n")])
    def test_parallel_with_nothing_to_split_gives_the_sequential_answer(self, capsys, mode, expected):
        # the reduction prefix (1, 2) fills every slot at dimension 2
        args = ("search", "--dim", "2", "--mode", mode, "--reduce")
        assert run(capsys, *args) == (EXIT_OK, expected, "")
        assert run(capsys, *args, "--parallel", "2") == (EXIT_OK, expected, "")

    @pytest.mark.parametrize(
        "args,code",
        [
            (("--dim", "3", "--mode", "first"), EXIT_NONEXISTENT),
            (("--dim", "4", "--mode", "count", "--budget", "5"), EXIT_BUDGET),
        ],
    )
    def test_parallel_gives_the_answer_and_exit_of_a_walk_that_stops(self, capsys, args, code):
        # a search that stops, at its first solution or at a budget, runs in one process
        sequential = run(capsys, "search", *args)
        assert sequential[0] == code
        assert run(capsys, "search", *args, "--parallel", "2") == sequential

    def test_parallel_zero_workers_is_invalid(self, capsys):
        code, out, err = run(
            capsys, "search", "--dim", "3", "--mode", "count", "--parallel", "0"
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: workers must be at least 1, got 0\n"

    def test_reduce_toggle(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "2", "--mode", "count", "--reduce"
        )
        assert code == EXIT_OK
        assert out == "1\n"

    def test_dim_above_cap(self, capsys):
        code, _, err = run(capsys, "search", "--dim", "7", "--mode", "count")
        assert code == EXIT_INVALID_INPUT
        assert "error" in err


class TestProve:
    def test_dim3_certificate(self, capsys):
        code, out, _ = run(capsys, "prove", "--dim", "3")
        assert code == EXIT_OK
        assert "dim=3" in out
        assert "nonexistent=true" in out
        assert "cross_check_unreduced_nodes=" in out
        assert "total_xor_zero=true" in out
        assert "verifier_version=" in out

    def test_dim4_certificate(self, capsys):
        code, out, _ = run(capsys, "prove", "--dim", "4")
        assert code == EXIT_OK
        assert "dim=4" in out
        assert "nonexistent=true" in out

    def test_other_dims_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["prove", "--dim", "5"])
        assert err.value.code == 2


class TestInfo:
    def test_dim9_route(self, capsys):
        code, out, _ = run(capsys, "info", "--dim", "9")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "dim=9" in lines
        assert "exists=true" in lines
        assert "length=511" in lines
        assert "route=lifted-from-7 ← lifted-from-5 ← base-5" in lines

    def test_dim3_reports_nonexistence_informationally(self, capsys):
        code, out, _ = run(capsys, "info", "--dim", "3")
        assert code == EXIT_OK
        assert "exists=false" in out
        assert "route=none" in out

    def test_dim1_is_invalid(self, capsys):
        code, _, err = run(capsys, "info", "--dim", "1")
        assert code == EXIT_INVALID_INPUT
        assert "error" in err

    def test_base_dim(self, capsys):
        code, out, _ = run(capsys, "info", "--dim", "6")
        assert "route=base-6" in out
        assert code == EXIT_OK

    def test_answers_a_dim_beyond_physical_memory_that_gen_refuses(self, capsys, monkeypatch):
        # info builds nothing, so its route is a fact at every n <= 30
        monkeypatch.setattr(catalog, "_physical_memory", lambda: 10**6)
        code, out, err = run(capsys, "gen", "--dim", "20")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "n=20 needs about 142 MB at its peak, more than the 1 MB of physical memory" in err
        code, out, err = run(capsys, "info", "--dim", "20")
        assert code == EXIT_OK
        assert err == ""
        route = " ← ".join(f"lifted-from-{m}" for m in range(18, 4, -2)) + " ← base-6"
        assert out == f"dim=20\nexists=true\nlength=1048575\nroute={route}\n"
        code, out, _ = run(capsys, "info", "--dim", "30")
        assert code == EXIT_OK
        assert "route=lifted-from-28 ← " in out

    @pytest.mark.parametrize("dim", ("31", "20000"))
    def test_refuses_the_dimensions_gen_refuses(self, capsys, dim):
        for command in ("info", "gen"):
            code, out, err = run(capsys, command, "--dim", dim)
            assert code == EXIT_INVALID_INPUT
            assert out == ""
            assert err == f"error: n must be in [2, 30], got {dim}\n"


@pytest.mark.parametrize("dim", (2, 5, 6, 7, 8, 9, 10, 11, 12))
def test_gen_verify_pipeline(capsys, tmp_path, dim):
    path = tmp_path / f"{dim}.txt"
    code, _, _ = run(capsys, "gen", "--dim", str(dim), "--out", str(path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert out == "valid\n"


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
