import importlib
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
from ternaryperm.search import _explore, _free_positions
from ternaryperm.sequences import verify
from ternaryperm.words import Word

from conftest import BASE5_DECIMALS


def run(dim, mode, reduce=False, budget=None):
    return search(
        SearchConfig(dim=dim, mode=mode, symmetry_reduction=reduce, node_budget=budget)
    )


def reference_explore(dim, mode, prefix=(), node_budget=None, orders=None):
    """_explore's contract restated one candidate at a time, by recursion.

    The test oracle for the bitmask kernel: same tree, same node rule
    (every unused candidate tried at an open slot counts, collided
    followers included), same budget rule and the same return value.
    """
    size = (1 << dim) - 1
    slots = [1] + list(range(2, size, 2))
    seq = [0] * (size + 1)
    nodes = count = 0
    first = None

    def visit(i, used):
        nonlocal nodes, count, first
        if i == len(slots):
            count += 1
            first = first or tuple(seq[1:])
            return mode is not SearchMode.COUNT
        if i < len(prefix):
            candidates = prefix[i : i + 1]
        else:
            candidates = range(1, size + 1) if orders is None else orders[i - len(prefix)]
        p = slots[i]
        for w in candidates:
            if used >> w & 1:
                continue
            if i >= len(prefix):
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExhaustedError(nodes)
            seq[p] = w
            placed = 1 << w
            if p > 1:  # even position: the next word is forced
                seq[p + 1] = seq[p - 1] ^ w
                if used >> seq[p + 1] & 1:
                    continue
                placed |= 1 << seq[p + 1]
            if visit(i + 1, used | placed):
                return True
        return False

    visit(0, 0)
    return first, count, nodes


def random_valid_prefix(rng, dim, length):
    """Up to `length` slot values drawn at random, each placeable after the ones before."""
    size = (1 << dim) - 1
    slots = [1] + list(range(2, size, 2))
    seq = [0] * (size + 1)
    used = set()
    prefix = []
    for p in slots[:length]:
        options = [
            w for w in range(1, size + 1)
            if w not in used and (p == 1 or seq[p - 1] ^ w not in used)
        ]
        if not options:
            break
        w = rng.choice(options)
        seq[p] = w
        used.add(w)
        if p > 1:
            seq[p + 1] = seq[p - 1] ^ w
            used.add(seq[p + 1])
        prefix.append(w)
    return tuple(prefix)


#: Eleven slot values of a dimension-5 solution; the subtree below them
#: holds 4 solutions in 226 nodes.
DEEP_DIM5_PREFIX = (1, 2, 4, 8, 5, 16, 6, 18, 17, 9, 29)


def budgeted(explore, dim, mode, prefix, budget, orders=None):
    """explore's result, or the node count its BudgetExhaustedError reports."""
    try:
        return explore(dim, mode, prefix, budget, orders)
    except BudgetExhaustedError as exc:
        return exc.nodes_explored


def shuffled_orders(rng, dim, n_prefix):
    size = (1 << dim) - 1
    return [
        rng.sample(range(1, size + 1), size)
        for _ in range(len(_free_positions(dim)) - n_prefix)
    ]


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
        prefix = (1, 2) if reduce else ()
        orders = shuffled_orders(random.Random(7), dim, len(prefix))
        _, count, nodes = _explore(dim, mode, prefix, orders=orders)
        assert (count, nodes) == expected
        _, count, nodes = _explore(dim, mode, prefix)
        assert (count, nodes) == expected


class TestKernelOracle:
    """_explore against the per-candidate reference_explore: (first, count, nodes)."""

    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_full_trees(self, dim, mode, reduce):
        prefix = (1, 2) if reduce else ()
        outcome = _explore(dim, mode, prefix)
        assert outcome == reference_explore(dim, mode, prefix)
        # no solutions at dimensions 3 and 4: every mode traverses the whole tree
        pinned_nodes = {(3, False): 553, (3, True): 12, (4, False): 1963305, (4, True): 9348}
        if dim > 2:
            assert outcome == (None, 0, pinned_nodes[dim, reduce])

    def test_random_valid_prefixes(self):
        rng = random.Random(11)
        for dim, length in ((3, 2), (4, 3), (4, 5), (5, 9), (5, 11)):
            for _ in range(6):
                prefix = random_valid_prefix(rng, dim, length)
                for mode in SearchMode:
                    assert _explore(dim, mode, prefix) == reference_explore(dim, mode, prefix)

    def test_shuffled_orders(self):
        rng = random.Random(13)
        cases = [(2, ()), (3, ()), (3, (1, 2)), (4, (1, 2))]
        cases += [(5, random_valid_prefix(rng, 5, 9)) for _ in range(6)]
        for dim, prefix in cases:
            orders = shuffled_orders(rng, dim, len(prefix))
            for mode in SearchMode:
                expected = reference_explore(dim, mode, prefix, orders=orders)
                assert _explore(dim, mode, prefix, orders=orders) == expected

    def test_every_budget_stops_where_the_reference_does(self):
        for budget in range(1, 554):
            expected = budget + 1 if budget < 553 else (None, 0, 553)
            outcome = budgeted(_explore, 3, SearchMode.COUNT, (), budget)
            assert outcome == budgeted(reference_explore, 3, SearchMode.COUNT, (), budget) == expected

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_every_budget_on_a_subtree_with_solutions(self, shuffle):
        # Its 226 nodes pass through every way the kernel treats a child
        # slot: dead ones and solution-free second-to-last ones counted in
        # place, solvable second-to-last ones and the rest entered.
        prefix = DEEP_DIM5_PREFIX
        orders = shuffled_orders(random.Random(17), 5, len(prefix)) if shuffle else None
        full = reference_explore(5, SearchMode.COUNT, prefix, orders=orders)
        assert full[1:] == (4, 226)
        for mode in (SearchMode.FIRST, SearchMode.COUNT):
            for budget in range(1, full[2] + 1):
                expected = budgeted(reference_explore, 5, mode, prefix, budget, orders)
                assert budgeted(_explore, 5, mode, prefix, budget, orders) == expected

    def test_solvable_second_to_last_slots_are_entered(self):
        # Three open slots left: each child of the first is a second-to-last
        # slot, so each solution found came through one judged solvable.
        first, _, _ = reference_explore(5, SearchMode.FIRST, DEEP_DIM5_PREFIX)
        rng = random.Random(19)
        for decimals in (BASE5_DECIMALS, first):
            prefix = tuple(decimals[p - 1] for p in _free_positions(5)[:13])
            for orders in (None, shuffled_orders(rng, 5, 13), shuffled_orders(rng, 5, 13)):
                for mode in SearchMode:
                    expected = reference_explore(5, mode, prefix, orders=orders)
                    assert _explore(5, mode, prefix, orders=orders) == expected
                    assert expected[1] > 0

    @pytest.mark.slow
    def test_unreduced_count_under_a_five_word_prefix(self):
        # 3,416 GL(5,2) normal forms under this prefix, times the 16 maps
        # that fix 1, 2, 4 and 8 (ROADMAP item 1's cross-check); the smallest
        # solution lies under this prefix too
        expected = (BASE5_DECIMALS, 54656, 48145634)
        assert _explore(5, SearchMode.COUNT, (1, 2, 4, 8, 5)) == expected


class TestSymmetricTop:
    """search walks the subtree under (1, 2, 4) once and scales it by its GL(n,2) orbit."""

    @pytest.fixture
    def top(self, monkeypatch):
        """search's (first, count, nodes) as _explore returns them, or its budget error's nodes."""
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_outcome", lambda config, *result: result)

        def call(dim, mode, prefix, budget=None):
            config = SearchConfig(dim, mode, symmetry_reduction=bool(prefix), node_budget=budget)
            try:
                return search(config)
            except BudgetExhaustedError as exc:
                return exc.nodes_explored

        return call

    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_the_raw_kernel_and_the_reference(self, top, dim, mode, reduce):
        prefix = (1, 2) if reduce else ()
        expected = _explore(dim, mode, prefix)
        assert top(dim, mode, prefix) == expected
        # TestKernelOracle already holds the raw kernel to the reference on
        # the unreduced n = 4 tree, whose per-candidate walk takes seconds
        if (dim, reduce) != (4, False):
            assert expected == reference_explore(dim, mode, prefix)

    def test_the_walked_subtree_scales_to_the_pinned_totals(self, top):
        assert _explore(4, SearchMode.COUNT, (1, 2, 4)) == (None, 0, 778)
        # 12 + 12 * 778 reduced; 15 + 15 * 14 + 15 * 14 * 12 * (1 + 778) unreduced
        assert top(4, SearchMode.COUNT, (1, 2)) == (None, 0, 9348)
        assert top(4, SearchMode.COUNT, ()) == (None, 0, 1963305)
        assert _explore(3, SearchMode.COUNT, (1, 2, 4)) == (None, 0, 2)
        assert top(3, SearchMode.COUNT, (1, 2)) == (None, 0, 12)
        assert top(3, SearchMode.COUNT, ()) == (None, 0, 553)
        # (1, 2) fills both slots at dimension 2: 3 + 3 * 2 nodes, 3 * 2 solutions
        assert top(2, SearchMode.COUNT, ()) == ((1, 2, 3), 6, 9)
        assert top(2, SearchMode.FIRST, ()) == ((1, 2, 3), 1, 2)

    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("dim,reduce", [(2, False), (2, True), (3, False), (3, True)])
    def test_every_budget_stops_where_the_raw_kernel_does(self, top, dim, mode, reduce):
        prefix = (1, 2) if reduce else ()
        _, _, nodes = _explore(dim, SearchMode.COUNT, prefix)
        for budget in range(1, nodes + 2):
            assert top(dim, mode, prefix, budget) == budgeted(_explore, dim, mode, prefix, budget)

    def test_every_budget_on_the_reduced_n4_tree(self, top):
        # The tree holds no solution, so the raw kernel raises on node
        # budget + 1 below 9,348 nodes and returns from there on: checked on
        # the raw kernel at a seeded sample of budgets (each walks up to
        # 9,348 nodes) and on search at every budget.
        def expected(budget):
            return budget + 1 if budget < 9348 else (None, 0, 9348)

        rng = random.Random(29)
        for budget in [1, 2, 12, 13, 9347, 9348, 9349] + rng.sample(range(1, 9349), 20):
            assert budgeted(_explore, 4, SearchMode.COUNT, (1, 2), budget) == expected(budget)
        for budget in range(1, 9350):
            assert top(4, SearchMode.COUNT, (1, 2), budget) == expected(budget)

    def test_every_budget_when_the_walk_stops_at_a_solution(self, top, monkeypatch):
        # The walk under (1, 2, 4) stands in for the deep dimension-5 subtree,
        # whose first solution comes after a few dozen nodes; the scan's total
        # is the path through the top slots plus those.
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_explore", lambda dim, mode, prefix, budget: (
            _explore(dim, mode, DEEP_DIM5_PREFIX, budget)))
        first, count, nodes = _explore(5, SearchMode.FIRST, DEEP_DIM5_PREFIX)
        assert count == 1 and nodes > 1
        for prefix, path in (((), 3), ((1, 2), 1)):
            for mode in (SearchMode.FIRST, SearchMode.PROVE_NONE):
                for budget in range(1, path + nodes + 2):
                    expected = budget + 1 if budget < path + nodes else (first, 1, path + nodes)
                    assert top(5, mode, prefix, budget) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,reduce",
        [
            (SearchMode.COUNT, False), (SearchMode.COUNT, True),
            (SearchMode.PROVE_NONE, False), (SearchMode.PROVE_NONE, True),
        ],
    )
    def test_parallel_matches_search(self, mode, reduce, workers):
        for dim in (2, 3, 4):
            config = SearchConfig(dim=dim, mode=mode, symmetry_reduction=reduce)
            assert search_parallel(config, workers=workers) == search(config)


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

    def test_all_attempts_exhausted_raises(self, monkeypatch):
        # the package re-exports the function search over the submodule's name
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPTS", 2)
        monkeypatch.setattr(module, "_ATTEMPT_BUDGET", 5)
        with pytest.raises(BudgetExhaustedError) as err:
            search_randomized(3, seed=0)
        # each attempt stops on its sixth node, one past its budget of five
        assert err.value.nodes_explored == 12

    @pytest.mark.parametrize("dim,nodes", [(3, 12), (4, 9348)])
    def test_one_finished_attempt_settles_nonexistence(self, dim, nodes):
        # the reduced prove-none tree, walked once rather than once per attempt
        outcome = search_randomized(dim, seed=0)
        assert outcome.sequence is None
        assert outcome.nodes_explored == nodes

    def test_nodes_of_exhausted_attempts_add_to_the_finished_one(self, monkeypatch):
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPT_BUDGET", 1000)
        # at dimension 5 the shuffle of seed 1 needs 1,415 nodes, that of seed 2 needs 975
        outcome = search_randomized(5, seed=1)
        assert verify(outcome.sequence).valid
        assert outcome.nodes_explored == 1001 + 975

    def test_dimension_is_checked_by_search_config(self):
        for dim in (1, MAX_SEARCH_DIM + 1):
            with pytest.raises(ValueError, match=rf"search dimension must be in \[2, {MAX_SEARCH_DIM}\]"):
                search_randomized(dim)


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

    def test_dim3_cross_check_is_a_raw_unreduced_walk(self, monkeypatch):
        # through search() it would rest on the symmetry argument it checks
        module = importlib.import_module("ternaryperm.search")
        prefixes = []

        def watched(dim, mode, prefix=(), *args):
            prefixes.append(prefix)
            return _explore(dim, mode, prefix, *args)

        monkeypatch.setattr(module, "_explore", watched)
        cert = prove_impossibility(3)
        assert sorted(prefixes) == [(), (1, 2, 4)]
        assert (cert.nodes_explored, cert.cross_check_unreduced_nodes) == (12, 553)

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
