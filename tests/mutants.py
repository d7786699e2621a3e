"""Mutation runner: every mutant in MUTANTS must make the tests it names fail.

Each entry edits one source file: its old text, which must occur exactly
once in that file, becomes its new text.  The runner copies src/ to a
temporary directory, applies one edit there and runs

    python -m pytest -x -q -p no:cacheprovider -m "" <the entry's test ids>

from the repository root with the copy first on PYTHONPATH, so the tests
import the mutant.  The empty -m overrides the one in pyproject's
addopts, so an entry may name a slow test.  A mutant is killed when
pytest reports a failed test (exit code 1).  An entry marked equivalent
cannot change what any test can observe; the runner only checks that its
old text applies.  Before the mutants, the named tests must pass on an
unmutated copy.

Run from anywhere, with the interpreter flags the tests should run under
(they are passed on to each pytest run):

    python -X dev -W error tests/mutants.py

It exits 0 when every non-equivalent mutant is killed, and 1 when one
survives, an old text is missing or not unique, or a run cannot decide
(an error other than a failed test, or a run past TIMEOUT seconds).
Standard library and pytest only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 120  # seconds for one pytest run


class Mutant(NamedTuple):
    file: str  # under src/ternaryperm
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids under tests/
    equivalent: Optional[str] = None  # why no test can observe it


PREFIX = "test_search.py::TestPrefixChecks::"
RANDOMIZED = "test_search.py::TestRandomizedDiscovery::"
ORBIT = "test_search.py::TestOrbitScaling::"
RECORD_BINDING = "test_package.py::test_a_record_refuses_a_call_that_does_not_bind_each_field_once[VerificationFailure]"
FORMAT_RULE = "test_cli.py::TestVerify::test_the_file_states_its_format"
PARSE_ERRORS = "test_catalog.py::TestParseErrors::"
STORE_THREADS = "test_catalog.py::TestBaseCaseStore::test_two_threads_find_a_missing_base_case_once"

MUTANTS = [
    # _apply_prefix's checks (TestPrefixChecks)
    Mutant("search.py", "        if used & fm:\n            return None\n", "", (PREFIX + "test_a_taken_follower",)),
    Mutant("search.py", "        if used & m:\n            return None\n", "", (PREFIX + "test_a_repeated_word",)),
    Mutant(
        "search.py",
        '    if len(prefix) > len(free):\n        raise ValueError(f"prefix longer than the {len(free)} open slots")\n',
        "",
        (PREFIX + "test_a_prefix_longer_than_the_open_slots",),
    ),
    Mutant(
        "search.py",
        '        _check_int("prefix value", w, 1, size)\n',
        "",
        (PREFIX + "test_a_word_out_of_range", PREFIX + "test_a_word_that_is_not_an_int"),
    ),
    Mutant("search.py", "    if applied is None:\n        return None, 0, 0\n", "", (PREFIX + "test_a_taken_follower",)),
    # search_randomized's draw
    Mutant(
        "search.py",
        "if first is not None or not drawn:",
        "if first is not None:",
        (RANDOMIZED + "test_one_finished_attempt_settles_nonexistence",),
    ),
    Mutant(  # one attempt more than _ATTEMPTS
        "search.py",
        "for attempt in range(_ATTEMPTS):",
        "for attempt in range(_ATTEMPTS + 1):",
        (RANDOMIZED + "test_all_attempts_exhausted_raises",),
    ),
    Mutant(  # draw among unused words without the follower check
        "search.py",
        "if not (used >> w | used >> (w ^ prev)) & 1]",
        "if not used >> w & 1]",
        (RANDOMIZED + "test_dim6_node_count_is_pinned",),
    ),
    Mutant(  # skip the first drawn slot
        "search.py",
        "[len(_OPENING) : -_TAIL]",
        "[len(_OPENING) + 1 : -_TAIL]",
        (RANDOMIZED + "test_dim6_node_count_is_pinned",),
    ),
    Mutant(
        "search.py",
        "            if not assignable:  # a dead slot: the walk below counts its tries\n                break\n",
        "            if not assignable:  # a dead slot: the walk below counts its tries\n                continue\n",
        (RANDOMIZED + "test_a_dead_slot_before_the_last_drawn_one_ends_the_draw",),
    ),
    # the kernel's node and orbit arithmetic
    Mutant(  # a dead slot credits none of its tries
        "search.py",
        "            if not nok:  # dead: every free word there is tried and collides\n"
        "                nodes += nfree.bit_count()\n",
        "            if not nok:  # dead: every free word there is tried and collides\n",
        ("test_search.py::TestKernelOracle::test_full_trees",),
    ),
    Mutant(  # an off-by-one scale factor
        "search.py",
        "size + 1 - lim))",
        "size - lim))",
        (ORBIT + "test_scaled_matches_unscaled_and_the_reference",),
    ),
    Mutant(  # a word that doubles the span never stops the scaled walk
        "search.py",
        "lim = 2 * lim if w == lim else 0",
        "lim = 2 * lim",
        ("test_search.py::TestKernelOracle::test_random_valid_prefixes",),
    ),
    Mutant(  # every prefix walks plain
        "search.py",
        "lim = 2 * lim if w == lim else 0",
        "lim = 0",
        (ORBIT + "test_the_frontier",),
    ),
    Mutant(  # a frontier entry's nodes credited once
        "search.py",
        "nodes += copies * sub_nodes",
        "nodes += sub_nodes",
        (ORBIT + "test_a_count_is_the_one_walk_total[False-4]",),
    ),
    Mutant(  # a frontier entry's count credited once
        "search.py",
        "count += copies * sub_count",
        "count += sub_count",
        ("test_search.py::TestParallel::test_each_frontier_entry_is_credited_by_its_factor",),
    ),
    Mutant(  # an in-walk credit multiplies the solutions counted before it too
        "search.py",
        "count = saved_count + copies * (count - saved_count)",
        "count = saved_count + copies * count",
        (ORBIT + "test_a_budgeted_count_credits_the_solutions_it_walked",),
    ),
    Mutant(
        "search.py",
        "            if d + 1 == pen:  # four words left there\n",
        "            if False:  # four words left there\n",
        (),
        "the second-to-last slot is then always entered, and its walk counts the nodes"
        " the skip credits in place: answers and node totals are unchanged, only time",
    ),
    Mutant(  # a pool as wide as --parallel, even for a one-entry frontier
        "search.py",
        "    processes = min(workers, len(prefixes))\n",
        "    processes = workers\n",
        ("test_package.py::test_commands_import_neither_dataclasses_nor_a_process_pool",),
    ),
    Mutant(  # prove trusts the reduced search without its cross-check
        "search.py",
        "        if (count == 0) != (reduced.sequence is None):  # soundness tripwire\n",
        "        if False:  # soundness tripwire\n",
        (
            "test_search.py::TestImpossibility::test_the_tripwire_fires_when_the_two_searches_disagree[reduced]",
            "test_search.py::TestImpossibility::test_the_tripwire_fires_when_the_two_searches_disagree[unreduced]",
        ),
    ),
    # the seed, the sequence type and verify
    Mutant(
        "search.py",
        '    _check_int("seed", seed, 0)\n',
        "",
        (RANDOMIZED + "test_a_negative_seed_is_refused", RANDOMIZED + "test_a_seed_that_is_not_an_int_is_refused"),
    ),
    Mutant(  # iterating keeps its Words on the sequence
        "sequences.py",
        "        return map(Word, self.decimals, repeat(self.dim))\n",
        '        self.__dict__["words"] = words = tuple(map(Word, self.decimals, repeat(self.dim)))\n'
        "        return iter(words)\n",
        ("test_sequences.py::TestSequenceType::test_iterating_keeps_nothing_on_the_sequence",),
    ),
    Mutant(
        "sequences.py",
        "    if not isinstance(seq, TernarySequence):\n"
        '        raise TypeError(f"seq must be a TernarySequence, got {type(seq).__name__}")\n',
        "",
        ("test_sequences.py::TestVerify::test_refuses_what_is_not_a_sequence",),
    ),
    Mutant(
        "sequences.py",
        "    if failure is not None:\n        raise error(",
        "    if failure is None:\n        raise error(",
        ("test_sequences.py::TestVerifyAndRaise::test_each_site_raises_its_message",),
    ),
    Mutant(  # a sequence that passes every check still fails
        "sequences.py",
        "    return None\n",
        '    return VerificationFailure("length", 1, "mutant")\n',
        ("test_sequences.py::TestVerify::test_valid_dim_2",),
    ),
    Mutant(  # an import left behind: the source checks read the package the tests imported
        "sequences.py",
        "import sys\n",
        "import os\nimport sys\n",
        ("test_package.py::test_no_module_imports_a_name_it_never_uses",),
    ),
    Mutant(  # a copy or a pickle carries the cached result
        "sequences.py",
        "    def __reduce__(self):\n        return self._trusted, (self.dim, self.decimals)\n",
        "",
        ("test_sequences.py::TestKeptReport::test_equality_hash_and_pickling_ignore_it",),
    ),
    # how _Frozen binds a record's fields
    Mutant("words.py", "                if name not in fields:\n", "                if False:\n", (RECORD_BINDING,)),
    Mutant("words.py", "                if name in values:\n", "                if False:\n", (RECORD_BINDING,)),
    Mutant(  # a short positional call binds no defaults and reports no missing field
        "words.py",
        "        if kwargs or len(args) < len(fields):",
        "        if kwargs:",
        (RECORD_BINDING,),
    ),
    Mutant(  # a bool passes for an int
        "words.py",
        "(type(value) is bool or not isinstance(value, int))",
        "(not isinstance(value, int))",
        ("test_catalog.py::TestBaseCaseStore::test_a_non_int_dim_is_refused_before_the_cache_and_any_search",),
    ),
    Mutant(  # a short call leaves the defaults unbound and reports them missing
        "words.py",
        "            values = {**self._defaults, **values, **kwargs}\n",
        "            values = {**values, **kwargs}\n",
        ("test_package.py::test_only_the_records_have_defaults_and_no_init_of_their_own",),
    ),
    Mutant(  # keyword arguments bound out of field order
        "words.py",
        "            values = {name: values[name] for name in fields}\n",
        "",
        ("test_package.py::test_every_call_style_builds_the_same_value[ImpossibilityCertificate]",),
    ),
    # the lift's placement
    Mutant(  # C opens with source k, then k - 1, unswapped: the triple at the second splice breaks
        "lifting.py",
        "    if 1 <= block <= 2 and i >= k - 1:",
        "    if block == 1 and i >= k - 1:",
        ("test_lifting.py::TestPlacementProof::test_every_position_for_m_up_to_16",),
    ),
    # the file formats and the search options
    Mutant(
        "catalog.py",
        "    if not isinstance(text, str):\n"
        '        raise TypeError(f"text must be a str, got {type(text).__name__}")\n',
        "",
        ("test_catalog.py::TestParseErrors::test_text_must_be_a_str",),
    ),
    Mutant(  # the line scan takes one value past the count before it stops
        "catalog.py",
        "if len(values) == expected:",
        "if len(values) > expected:",
        (PARSE_ERRORS + "test_wrong_count_too_many",),
    ),
    Mutant(  # the line scan takes one value past the range
        "catalog.py",
        "if value > expected:",
        "if value > expected + 1:",
        (PARSE_ERRORS + "test_value_out_of_range",),
    ),
    Mutant(  # a 0/1 string of any length reads as a binary word
        "catalog.py",
        "return len(text) == dim and set(text)",
        "return set(text)",
        (FORMAT_RULE,),
    ),
    Mutant(  # the mode before the owner: the change of owner clears the set-id bits
        "catalog.py",
        "                try:\n"
        "                    os.fchown(handle.fileno(), old.st_uid, old.st_gid)\n"
        "                except PermissionError:\n"
        "                    pass\n"
        "                os.fchmod(handle.fileno(), stat.S_IMODE(old.st_mode))\n",
        "                os.fchmod(handle.fileno(), stat.S_IMODE(old.st_mode))\n"
        "                try:\n"
        "                    os.fchown(handle.fileno(), old.st_uid, old.st_gid)\n"
        "                except PermissionError:\n"
        "                    pass\n",
        ("test_catalog.py::TestFormats::test_save_keeps_the_mode_of_the_file_it_replaces",),
    ),
    Mutant(  # a binary file with CRLF line ends reads as decimal
        "catalog.py",
        "    return (body if end < 0 else body[:end]).rstrip()\n",
        "    return body if end < 0 else body[:end]\n",
        ("test_catalog.py::TestFormats::test_a_binary_file_with_crlf_line_ends_reads_as_binary",),
    ),
    Mutant(  # an empty sequence's decimal body
        "catalog.py",
        ' % values if values else ""\n',
        " % values\n",
        ("test_catalog.py::TestFormats::test_decimal_layout_of_an_empty_sequence",),
    ),
    # the base-case store finds each base case once
    Mutant(
        "catalog.py",
        "        with self._lock:\n",
        "        if True:\n",
        (STORE_THREADS,),
    ),
    Mutant(
        "catalog.py",
        "            if dim not in self._found:\n",
        "            if True:\n",
        (STORE_THREADS,),
    ),
    Mutant(  # verify prints valid for an invalid file, and invalid for a valid one
        "cli.py",
        "    if failure is None:\n",
        "    if failure is not None:\n",
        ("test_cli.py::TestVerify::test_invalid_file_reports_kind_and_index",),
    ),
    Mutant(  # --reduce with its --no-reduce twin
        "cli.py",
        '        action="store_true",\n',
        "        action=argparse.BooleanOptionalAction,\n        default=False,\n",
        (FORMAT_RULE,),
    ),
]


def interpreter_flags() -> list[str]:
    """This interpreter's -X dev and -W options, for each pytest run."""
    return (["-X", "dev"] if sys.flags.dev_mode else []) + [f"-W{option}" for option in sys.warnoptions]


def pytest_run(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    command = [sys.executable, *interpreter_flags(), "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", ""]
    command += [f"tests/{test}" for test in tests]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(copy), os.environ.get("PYTHONPATH"))))}
    try:
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(command, -1, "", f"timed out after {TIMEOUT} s")


def source_copy(tmp: str, mutant: Optional[Mutant] = None) -> Path:
    """src/ copied under tmp, with the mutant's edit applied when one is given."""
    copy = Path(tmp) / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        target = copy / "ternaryperm" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
    return copy


def table_errors() -> list[str]:
    errors = []
    for i, mutant in enumerate(MUTANTS):
        found = (SRC / "ternaryperm" / mutant.file).read_text().count(mutant.old)
        if found != 1:
            errors.append(f"mutant {i}: its old text occurs {found} times in {mutant.file}")
        if bool(mutant.tests) == bool(mutant.equivalent):
            errors.append(f"mutant {i}: give either the tests that must fail or the reason it is equivalent")
    return errors


def main() -> int:
    errors = table_errors()
    for error in errors:
        print(error)
    if errors:
        return 1
    started = time.perf_counter()
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    with tempfile.TemporaryDirectory() as tmp:
        baseline = pytest_run(source_copy(tmp), named)
    if baseline.returncode != 0:
        print("the named tests do not all pass on the unmutated source:")
        print(baseline.stdout, baseline.stderr)
        return 1
    print(f"unmutated: {len(named)} named test ids pass ({time.perf_counter() - started:.1f} s)")
    survived = 0
    for i, mutant in enumerate(MUTANTS):
        label = f"{i:2} {mutant.file}: {mutant.old.strip().splitlines()[0]}"
        if mutant.equivalent:
            print(f"equivalent  {label}  ({mutant.equivalent})")
            continue
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            result = pytest_run(source_copy(tmp, mutant), mutant.tests)
        seconds = time.perf_counter() - began
        if result.returncode == 1:
            print(f"killed      {label}  ({seconds:.1f} s)")
            continue
        survived += 1
        outcome = "SURVIVED" if result.returncode == 0 else f"UNDECIDED (pytest exit {result.returncode})"
        print(f"{outcome}  {label}  ({seconds:.1f} s)")
        print(result.stdout[-2000:], result.stderr[-2000:])
    equivalent = sum(1 for mutant in MUTANTS if mutant.equivalent)
    killed = len(MUTANTS) - equivalent - survived
    print(
        f"{len(MUTANTS)} mutants: {killed} killed, {equivalent} equivalent, {survived} not killed,"
        f" in {time.perf_counter() - started:.1f} s"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
