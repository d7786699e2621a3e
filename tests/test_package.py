import importlib

import ternaryperm

MODULES = ("catalog", "lifting", "search", "sequences", "words")

#: The package's public names, pinned: adding, removing or moving one is a
#: decision about the public surface, made here on purpose.
PUBLIC = {
    "__version__",
    # words
    "MAX_DIM", "Word", "concat", "nonzero_words", "parse_word", "total_xor", "word_add", "zero",
    # sequences
    "TernarySequence", "VerificationFailure", "VerificationReport", "verify",
    # lifting
    "LiftLayoutEntry", "ModifierKind", "check_modifier_properties", "lift", "lift_layout",
    "modifier",
    # search
    "MAX_SEARCH_DIM", "BudgetExhaustedError", "ImpossibilityCertificate", "SearchConfig",
    "SearchMode", "SearchOutcome", "canonical_prefix", "lemma_n3", "naive_count",
    "prove_impossibility", "search", "search_parallel", "search_randomized",
    # catalog
    "BASE_DIMS", "BaseCaseEntry", "BaseCaseStore", "LoadResult", "NonexistentDimensionError",
    "ParseError", "construction_route", "default_store", "exists", "format_sequence", "generate",
    "load", "parse_sequence_text", "save",
}


def module(name):
    # not `ternaryperm.search`: the package binds that name to the function
    return importlib.import_module(f"ternaryperm.{name}")


def test_package_exports_the_pinned_names_once():
    assert len(PUBLIC) == 46
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
