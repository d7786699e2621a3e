import ast
import copy
import importlib
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ternaryperm
from ternaryperm.catalog import NonexistentDimensionError, ParseError
from ternaryperm.cli import EXIT_OK, build_parser, main
from ternaryperm.search import BudgetExhaustedError
from ternaryperm.words import _Frozen

ROOT = Path(__file__).resolve().parent.parent
#: The package these tests imported; tests/mutants.py puts a mutated copy first on the path
PACKAGE = Path(ternaryperm.__file__).parent
MODULES = ("catalog", "lifting", "search", "sequences", "words")

#: The package's public names, pinned: adding, removing or moving one is a
#: decision about the public surface, made here on purpose.
PUBLIC = {
    "__version__",
    # words
    "MAX_DIM", "Word",
    # sequences
    "TernarySequence", "VerificationFailure", "verify",
    # lifting
    "lift", "lift_place",
    # search
    "MAX_SEARCH_DIM", "BudgetExhaustedError", "ImpossibilityCertificate", "SearchConfig",
    "SearchMode", "SearchOutcome", "lemma_n3", "naive_count",
    "prove_impossibility", "search", "search_parallel", "search_randomized",
    # catalog
    "BASE_DIMS", "BaseCaseStore", "NonexistentDimensionError",
    "ParseError", "construction_route", "default_store", "exists", "format_sequence", "generate",
    "load", "parse_sequence_text", "save",
}

#: Module-level names that no code in the package reads, kept for callers.
LIBRARY_ONLY = {
    "save",  # the verifying writer; the CLI writes with format_sequence
    "lift_place",  # the reference placement that tests check lift against
    "naive_count",  # the independent count, sharing no code with the kernel
}


def module(name):
    # not `ternaryperm.search`: the package binds that name to the function
    return importlib.import_module(f"ternaryperm.{name}")


def test_package_exports_the_pinned_names_once():
    assert len(PUBLIC) == 32
    assert set(ternaryperm.__all__) == PUBLIC
    assert len(ternaryperm.__all__) == len(PUBLIC)


def test_each_module_declares_its_part_and_the_parts_do_not_overlap():
    parts = [module(name).__all__ for name in MODULES]
    names = [n for part in parts for n in part]
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC - {"__version__"}


def test_each_name_is_the_object_its_module_defines():
    for name in MODULES:
        mod = module(name)
        for public in mod.__all__:
            assert getattr(ternaryperm, public) is getattr(mod, public), public


def test_search_is_the_function():
    assert ternaryperm.search is module("search").search
    assert callable(ternaryperm.search)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ternaryperm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert namespace["__version__"] == ternaryperm.__version__


def test_readme_python_examples_run():
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def readme_cli_lines():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("ternaryperm ")
    ]
    assert lines
    return lines


def test_readme_cli_examples_parse():
    parser = build_parser()
    for line in readme_cli_lines():
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # in order, in one directory: `verify nine.txt` reads what the line
    # before writes; a comment ending in ": <text>" states the output
    monkeypatch.chdir(tmp_path)
    for line in readme_cli_lines():
        assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK, line
        stated = re.search(r"#.*: (\S+)$", line)
        out = capsys.readouterr().out
        if stated:
            assert out == stated.group(1) + "\n", line


@pytest.mark.parametrize(
    "error,text",
    [
        (BudgetExhaustedError(11), "node budget exhausted after 11 nodes"),
        (BudgetExhaustedError(11, "all 2 attempts"), "all 2 attempts exhausted after 11 nodes"),
        (
            NonexistentDimensionError(3),
            "no ternary permutation exists for n=3; they exist exactly for n >= 2 with n not in {3, 4}",
        ),
        (ParseError(3, "bad"), "line 3: bad"),
    ],
    ids=["budget", "attempts", "nonexistent", "parse"],
)
def test_errors_rebuild_from_their_fields_through_pickle_and_copy(error, text):
    # a process pool pickles what its workers raise
    assert str(error) == text
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(clone) is type(error)
        assert (str(clone), clone.args, vars(clone)) == (text, error.args, vars(error))


#: Run with `python -S`, so that site's own imports stay out of sys.modules.
IMPORT_GRAPH_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from ternaryperm import cli
heavy = ("dataclasses", "inspect", "concurrent.futures")
print(*[name for name in heavy if name in sys.modules])
for workers in ([], ["--parallel", "2"]):
    cli.main(["search", "--dim", "4", "--mode", "count", *workers])
    print("concurrent.futures" in sys.modules)
"""


def test_commands_import_neither_dataclasses_nor_a_process_pool():
    # dataclasses would bring inspect, ast, dis and tokenize into every
    # command; every count walks its frontier, and the n = 4 count's one
    # entry is walked in process, with or without --parallel
    result = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_GRAPH_CHECK, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "\n0\nFalse\n0\nFalse\n"


#: The fields of each value type, in order: repr, == and hash go by them.
FIELDS = {
    "Word": ("bits", "dim"),
    "TernarySequence": ("dim", "decimals"),
    "VerificationFailure": ("kind", "index", "detail"),
    "SearchConfig": ("dim", "mode", "symmetry_reduction", "node_budget"),
    "SearchOutcome": ("dim", "mode", "symmetry_reduction", "nodes_explored", "sequence", "count"),
    "ImpossibilityCertificate": (
        "dim", "nonexistent", "symmetry_reduction", "nodes_explored",
        "cross_check_unreduced_nodes", "total_xor_zero", "verifier_version",
    ),
}


def test_the_value_types_fields_are_their_annotations():
    # a field left out of a hand-written list dropped out of repr, == and hash
    assert {cls.__name__ for cls in _Frozen.__subclasses__()} == set(FIELDS)
    for name, fields in FIELDS.items():
        assert getattr(ternaryperm, name)._fields == fields, name


#: The fields that take a default when a call leaves them out, with it:
#: given beside the annotation, and bound by _Frozen.__init__.
DEFAULTS = {
    "SearchOutcome": {"sequence": None, "count": None},
    "ImpossibilityCertificate": {
        "cross_check_unreduced_nodes": None, "total_xor_zero": None,
        "verifier_version": ternaryperm.__version__,
    },
}

#: The value types without an __init__ of their own: _Frozen binds their fields.
RECORDS = ("VerificationFailure", "SearchOutcome", "ImpossibilityCertificate")

_SEQ = ternaryperm.TernarySequence.from_decimals(2, (1, 2, 3))

#: One call per value type, as the keyword arguments its constructor takes, in order.
SAMPLES = {
    "Word": {"bits": 5, "dim": 3},
    "TernarySequence": {"dim": 2, "values": (1, 2, 3)},
    "VerificationFailure": {"kind": "length", "index": 1, "detail": "expected 3 words for n=2, got 0"},
    "SearchConfig": {
        "dim": 4, "mode": ternaryperm.SearchMode.COUNT, "symmetry_reduction": True, "node_budget": 100,
    },
    "SearchOutcome": {
        "dim": 2, "mode": ternaryperm.SearchMode.FIRST, "symmetry_reduction": False,
        "nodes_explored": 0, "sequence": _SEQ, "count": None,
    },
    "ImpossibilityCertificate": {
        "dim": 3, "nonexistent": True, "symmetry_reduction": True, "nodes_explored": 12,
        "cross_check_unreduced_nodes": 30, "total_xor_zero": True, "verifier_version": "0.0",
    },
}


def test_only_the_records_have_defaults_and_no_init_of_their_own():
    for name in FIELDS:
        cls = getattr(ternaryperm, name)
        defaults = DEFAULTS.get(name, {})
        assert cls._defaults == defaults, name
        assert ("__init__" in cls.__dict__) == (name not in RECORDS), name
        if defaults:
            given = {key: value for key, value in SAMPLES[name].items() if key not in defaults}
            for short in (cls(*given.values()), cls(**given)):
                assert {key: getattr(short, key) for key in defaults} == defaults, name


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_call_style_builds_the_same_value(name):
    cls = getattr(ternaryperm, name)
    kwargs = SAMPLES[name]
    args = list(kwargs.values())
    rest = dict(list(kwargs.items())[1:])
    built = [cls(*args), cls(**kwargs), cls(**dict(reversed(kwargs.items()))), cls(args[0], **rest)]
    if name in RECORDS:
        assert built[0]._values() == tuple(args)
    for value in built + [pickle.loads(pickle.dumps(built[0])), copy.deepcopy(built[0])]:
        assert type(value) is cls
        assert value == built[0]
        assert hash(value) == hash(built[0])
        assert repr(value) == repr(built[0])
        # the same bytes: every call style stores the fields in field order
        assert pickle.dumps(value) == pickle.dumps(built[0])


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_a_call_that_does_not_bind_each_field_once(name):
    cls = getattr(ternaryperm, name)
    kwargs = SAMPLES[name]
    args = list(kwargs.values())
    first = FIELDS[name][0]
    with pytest.raises(TypeError, match=f"^{name} has {len(args)} fields, got {len(args) + 1} positional"):
        cls(*args, None)
    with pytest.raises(TypeError, match=f"^{name} got field '{first}' twice$"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match=f"^{name} has no field 'colour'$"):
        cls(*args, colour=None)
    required = [field for field in FIELDS[name] if field not in DEFAULTS.get(name, {})]
    with pytest.raises(TypeError, match=f"^{name} is missing field '{FIELDS[name][1]}'$"):
        cls(args[0])
    with pytest.raises(TypeError, match=f"^{name} is missing field '{required[-1]}'$"):
        cls(**{key: value for key, value in kwargs.items() if key != required[-1]})


#: Entry points that took a float or a bool for an int: exists(5.0) said
#: True, and the others failed inside arithmetic or a later constructor.
NON_INT_CALLS = (
    ("exists", (5.0,), "n", "float"),
    ("generate", (5.0,), "n", "float"),
    ("construction_route", (True,), "n", "bool"),
    ("prove_impossibility", (3.0,), "dim", "float"),
    ("naive_count", (3.0,), "dim", "float"),
    ("lift_place", (7.0, 1), "k", "float"),
)


@pytest.mark.parametrize("name, args, argument, kind", NON_INT_CALLS, ids=[c[0] for c in NON_INT_CALLS])
def test_entry_points_refuse_a_non_int_naming_the_argument(name, args, argument, kind):
    with pytest.raises(TypeError, match=f"^{argument} must be an int, got {kind}$"):
        getattr(ternaryperm, name)(*args)


def unused_imports(source):
    """Names a module imports and neither uses nor lists in its __all__.

    `from __future__` imports and star imports bind nothing to check.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return imported - used - exported


def test_no_module_imports_a_name_it_never_uses():
    # what deleting a function can leave behind
    assert unused_imports("import os\nfrom .words import Word, total_xor\ntotal_xor(3)\n") == {"os", "Word"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert unused_imports(path.read_text(encoding="utf-8")) == set(), path.name


def unread_definitions(sources):
    """Module-level def, class and assignment names that no source reads.

    A name counts as read where it is loaded as a bare name in any of the
    sources; `__all__` is the export list, not a definition to read.
    """
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    loaded = {
        node.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return defined - loaded - {"__all__"}


def test_every_module_level_name_is_used():
    # what deleting a caller can leave behind
    snippet = (
        "__all__ = ['f', 'X']\nX = 1\nY = 2\nclass C: pass\n"
        "def f(): return g()\ndef g(): return C\n"
    )
    assert unread_definitions([snippet, "from .a import Y\n"]) == {"X", "f", "Y"}
    assert unread_definitions([snippet, "from .a import Y\nY + f()\n"]) == {"X"}
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_definitions(sources) == LIBRARY_ONLY


def tracing_constants():
    """CALL_SITES and METHODS as benchmarks/tracing.py states them, read without importing it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    wanted = {"CALL_SITES", "METHODS"}
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in wanted
    }


def test_the_benchmark_patch_points_exist():
    # the traced benchmark pass points each of these at a wrapper by name
    constants = tracing_constants()
    assert set(constants) == {"CALL_SITES", "METHODS"}
    for module_name, names in constants["CALL_SITES"].items():
        mod = importlib.import_module(module_name)
        for name in names:
            assert callable(vars(mod).get(name)), f"{module_name}.{name}"
    for module_name, cls_name, method in constants["METHODS"]:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert method in cls.__dict__, f"{module_name}.{cls_name}.{method}"
