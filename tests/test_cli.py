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
        assert "triple-sum at i=4" in out

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

    def test_explicit_format(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        run(capsys, "gen", "--dim", "5", "--format", "binary", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--format", "binary")
        assert code == EXIT_OK
        assert out == "valid\n"


class TestSearch:
    def test_count_dim2(self, capsys):
        code, out, _ = run(capsys, "search", "--dim", "2", "--mode", "count")
        assert code == EXIT_OK
        assert out == "6\n"

    def test_first_dim2_prints_sequence(self, capsys):
        code, out, _ = run(capsys, "search", "--dim", "2", "--mode", "first")
        assert code == EXIT_OK
        assert out == "n=2\n1 2 3\n"

    def test_prove_none_dim3(self, capsys):
        code, out, _ = run(capsys, "search", "--dim", "3", "--mode", "prove-none")
        assert code == EXIT_OK
        assert out == "nonexistent=true\n"

    def test_first_dim3_exits_nonexistent(self, capsys):
        code, out, err = run(capsys, "search", "--dim", "3", "--mode", "first")
        assert code == EXIT_NONEXISTENT
        assert out == ""
        assert "n=3" in err

    def test_budget_exhaustion_exit(self, capsys):
        code, _, err = run(capsys, "search", "--dim", "4", "--mode", "count", "--budget", "5")
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_parallel_count(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "3", "--mode", "count", "--parallel", "2"
        )
        assert code == EXIT_OK
        assert out == "0\n"

    @pytest.mark.parametrize("mode,expected", [("count", "1\n"), ("prove-none", "nonexistent=false\n")])
    def test_parallel_with_nothing_to_split_gives_the_sequential_answer(self, capsys, mode, expected):
        # the reduction prefix (1, 2) fills every slot at dimension 2
        args = ("search", "--dim", "2", "--mode", mode, "--reduce")
        assert run(capsys, *args) == (EXIT_OK, expected, "")
        assert run(capsys, *args, "--parallel", "2") == (EXIT_OK, expected, "")

    def test_parallel_first_is_invalid(self, capsys):
        code, _, err = run(
            capsys, "search", "--dim", "3", "--mode", "first", "--parallel", "2"
        )
        assert code == EXIT_INVALID_INPUT
        assert "sequential" in err
        assert "drop --parallel" in err

    def test_parallel_zero_workers_is_invalid(self, capsys):
        code, out, err = run(
            capsys, "search", "--dim", "3", "--mode", "count", "--parallel", "0"
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "worker count must be positive" in err

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

    def test_refuses_a_dim_beyond_physical_memory_as_gen_does(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "_physical_memory", lambda: 10**6)
        message = "n=20 needs about 142 MB at its peak, more than the 1 MB of physical memory"
        for command in ("info", "gen"):
            code, out, err = run(capsys, command, "--dim", "20")
            assert code == EXIT_INVALID_INPUT
            assert out == ""
            assert message in err
        code, out, _ = run(capsys, "info", "--dim", "3")
        assert code == EXIT_OK
        assert "exists=false" in out

    @pytest.mark.parametrize("dim", ("31", "20000"))
    def test_refuses_the_dimensions_gen_refuses(self, capsys, dim):
        for command in ("info", "gen"):
            code, out, err = run(capsys, command, "--dim", dim)
            assert code == EXIT_INVALID_INPUT
            assert out == ""
            assert f"dimension must be at most 30, got {dim}" in err


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
