import random

import pytest

from ternaryperm.search import (
    MAX_SEARCH_DIM,
    BudgetExhaustedError,
    SearchConfig,
    SearchMode,
    canonical_prefix,
    lemma_n3,
    naive_count,
    prove_impossibility,
    search,
    search_parallel,
    search_randomized,
)
from ternaryperm.search import _explore, _free_positions, _reduction_prefix
from ternaryperm.sequences import verify
from ternaryperm.words import Word

from conftest import BASE5_DECIMALS


def run(dim, mode, reduce=False, budget=None):
    return search(
        SearchConfig(dim=dim, mode=mode, symmetry_reduction=reduce, node_budget=budget)
    )


@pytest.fixture(scope="module")
def dim5_first_reduced():
    """The reduced first-mode search at dimension 5, about 3.4M nodes, run once."""
    return run(5, SearchMode.FIRST, reduce=True)


class TestConfig:
    def test_dim_caps(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=1)
        with pytest.raises(ValueError):
            SearchConfig(dim=MAX_SEARCH_DIM + 1)

    def test_mode_coercion_from_string(self):
        assert SearchConfig(dim=2, mode="count").mode is SearchMode.COUNT
        with pytest.raises(ValueError):
            SearchConfig(dim=2, mode="everything")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=2, node_budget=0)


class TestCanonicalPrefix:
    def test_fixed_pair(self):
        assert canonical_prefix(4) == (Word(1, 4), Word(2, 4))
        assert canonical_prefix(2) == (Word(1, 2), Word(2, 2))

    def test_rejects_dim_below_2(self):
        with pytest.raises(ValueError):
            canonical_prefix(1)


class TestCounting:
    def test_dim2_count_matches_analytic_value(self):
        outcome = run(2, SearchMode.COUNT)
        assert outcome.count == 6

    def test_dim2_count_matches_naive_filter(self):
        assert run(2, SearchMode.COUNT).count == naive_count(2)

    def test_dim3_count_matches_naive_filter(self):
        assert run(3, SearchMode.COUNT).count == naive_count(3) == 0

    def test_dim2_node_counter_is_exact(self):
        # 3 assignments at position 1, then 2 at position 2 under each
        assert run(2, SearchMode.COUNT).nodes_explored == 9

    def test_reduced_count_covers_only_the_pinned_prefix(self):
        outcome = run(2, SearchMode.COUNT, reduce=True)
        assert outcome.count == 1
        assert outcome.nodes_explored == 0


class TestFirstMode:
    def test_dim2_returns_lexicographically_smallest(self):
        from itertools import permutations

        solutions = [
            p
            for p in permutations(range(1, 4))
            if (p[0] ^ p[1] ^ p[2]) == 0
        ]
        outcome = run(2, SearchMode.FIRST)
        assert outcome.sequence.decimals == min(solutions) == (1, 2, 3)

    def test_dim3_first_finds_nothing(self):
        outcome = run(3, SearchMode.FIRST)
        assert outcome.sequence is None

    def test_returned_sequences_pass_verify(self, dim5_first_reduced):
        for outcome in (run(2, SearchMode.FIRST, reduce=True), dim5_first_reduced):
            assert verify(outcome.sequence).valid

    def test_dim5_first_reduced_regression(self, dim5_first_reduced):
        assert dim5_first_reduced.sequence.decimals == BASE5_DECIMALS
        assert dim5_first_reduced.nodes_explored == 3403049

    def test_reruns_are_identical(self):
        first = run(3, SearchMode.PROVE_NONE)
        second = run(3, SearchMode.PROVE_NONE)
        assert first == second


class TestProveNone:
    def test_dim3_nonexistent(self):
        assert run(3, SearchMode.PROVE_NONE).nonexistent is True

    def test_dim4_nonexistent_reduced(self):
        assert run(4, SearchMode.PROVE_NONE, reduce=True).nonexistent is True

    def test_dim2_not_nonexistent(self):
        assert run(2, SearchMode.PROVE_NONE).nonexistent is False

    def test_reduction_consistency(self):
        for dim in (2, 3, 4):
            reduced = run(dim, SearchMode.PROVE_NONE, reduce=True)
            unreduced = run(dim, SearchMode.PROVE_NONE)
            assert reduced.nonexistent == unreduced.nonexistent


class TestCandidateOrder:
    """_explore visits one tree whatever the candidate order at each slot."""

    @pytest.mark.parametrize(
        "dim,mode,reduce,expected",
        [
            (2, SearchMode.COUNT, False, (6, 9)),
            (3, SearchMode.COUNT, False, (0, 553)),
            (4, SearchMode.PROVE_NONE, True, (0, 9348)),
        ],
    )
    def test_shuffled_orders_give_the_same_full_traversal(self, dim, mode, reduce, expected):
        prefix = _reduction_prefix(dim, reduce)
        size = (1 << dim) - 1
        rng = random.Random(7)
        orders = [
            rng.sample(range(1, size + 1), size)
            for _ in range(len(_free_positions(dim)) - len(prefix))
        ]
        _, count, nodes = _explore(dim, mode, prefix, orders=orders)
        assert (count, nodes) == expected
        _, count, nodes = _explore(dim, mode, prefix)
        assert (count, nodes) == expected


class TestBudget:
    def test_exhaustion_raises(self):
        with pytest.raises(BudgetExhaustedError) as err:
            run(4, SearchMode.COUNT, budget=10)
        assert err.value.nodes_explored == 11

    def test_sufficient_budget_is_silent(self):
        assert run(2, SearchMode.COUNT, budget=1000).count == 6


class TestParallel:
    def test_counts_and_nodes_match_sequential(self):
        for dim in (2, 3):
            sequential = run(dim, SearchMode.COUNT)
            parallel = search_parallel(SearchConfig(dim=dim, mode=SearchMode.COUNT), workers=2)
            assert parallel.count == sequential.count
            assert parallel.nodes_explored == sequential.nodes_explored

    def test_prove_none_dim4(self):
        sequential = run(4, SearchMode.PROVE_NONE, reduce=True)
        parallel = search_parallel(
            SearchConfig(dim=4, mode=SearchMode.PROVE_NONE, symmetry_reduction=True), workers=2
        )
        assert parallel.nonexistent is True
        assert parallel.nodes_explored == sequential.nodes_explored

    def test_first_mode_rejected(self):
        with pytest.raises(ValueError):
            search_parallel(SearchConfig(dim=3, mode=SearchMode.FIRST), workers=2)

    def test_budget_rejected(self):
        with pytest.raises(ValueError):
            search_parallel(
                SearchConfig(dim=3, mode=SearchMode.COUNT, node_budget=100), workers=2
            )


class TestRandomizedDiscovery:
    def test_finds_valid_dim6_sequence(self):
        outcome = search_randomized(6, seed=0)
        assert outcome.sequence.dim == 6
        assert verify(outcome.sequence).valid

    def test_deterministic_for_fixed_seed(self):
        a = search_randomized(6, seed=0)
        b = search_randomized(6, seed=0)
        assert a.sequence == b.sequence
        assert a.nodes_explored == b.nodes_explored

    def test_dim6_node_count_is_pinned(self):
        assert search_randomized(6, seed=0).nodes_explored == 2204

    def test_tiny_dims_work(self):
        outcome = search_randomized(2, seed=0)
        assert outcome.sequence.decimals == (1, 2, 3)

    def test_all_attempts_exhausted_raises(self):
        with pytest.raises(BudgetExhaustedError) as err:
            search_randomized(3, seed=0, attempts=2, attempt_budget=5)
        # each attempt stops on its sixth node, one past its budget of five
        assert err.value.nodes_explored == 12


class TestImpossibility:
    def test_lemma_n3(self):
        assert lemma_n3() is True

    def test_dim3_certificate(self):
        cert = prove_impossibility(3)
        assert cert.nonexistent is True
        assert cert.symmetry_reduction is True
        assert cert.cross_check_unreduced_nodes is not None
        assert cert.total_xor_zero is True
        text = cert.to_text()
        assert "dim=3" in text
        assert "nonexistent=true" in text
        assert "verifier_version=" in text

    def test_dim4_certificate(self):
        cert = prove_impossibility(4)
        assert cert.nonexistent is True
        assert cert.cross_check_unreduced_nodes is None
        assert cert.total_xor_zero is None

    def test_other_dims_rejected(self):
        with pytest.raises(ValueError):
            prove_impossibility(5)

    def test_naive_count_caps(self):
        with pytest.raises(ValueError):
            naive_count(4)
