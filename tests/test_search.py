import importlib
import random

import pytest

from ternaryperm._version import VERSION
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
        # Walked unscaled, this is the n = 5 cross-check of the orbit
        # scaling, which meets 3,416 solutions here and credits each 16
        # times; the smallest solution lies under this prefix too.
        expected = (BASE5_DECIMALS, 54656, 48145634)
        assert unscaled(5, SearchMode.COUNT, (1, 2, 4, 8, 5)) == expected


#: Prefixes at dimensions 2 to 4, in normal form (their used words span
#: exactly {0, ..., 2**r - 1}, so the walk under them scales) and not (so
#: it is plain): (1, 2, 5) and (1, 2, 4, 9) have a full span, (2, 1) is in
#: normal form though not ascending, and (3,), (2,), (6, 1), (4,) and
#: (3, 5, 9) are not in normal form.
ORBIT_CASES = [
    (2, ()), (2, (1,)), (2, (3,)),
    (3, ()), (3, (1,)), (3, (2, 1)), (3, (1, 2, 5)), (3, (2,)), (3, (6, 1)),
    (4, ()), (4, (1, 2)), (4, (2, 1)), (4, (1, 2, 5)), (4, (1, 2, 4, 9)),
    (4, (6, 1)), (4, (4,)), (4, (3, 5, 9)),
]

#: |GL(5,2)| = (32 - 1)(32 - 2)(32 - 4)(32 - 8)(32 - 16)
GL5 = 9999360


def unscaled(dim, mode, prefix=(), node_budget=None, orders=None):
    return _explore(dim, mode, prefix, node_budget, orders, scale=False)


class TestOrbitScaling:
    """_explore walks one word outside the span wherever it grows and credits its GL(n,2) orbit."""

    @pytest.mark.parametrize("dim,prefix", ORBIT_CASES)
    def test_scaled_matches_unscaled_and_the_reference(self, dim, prefix):
        for mode in SearchMode:
            expected = unscaled(dim, mode, prefix)
            assert _explore(dim, mode, prefix) == expected
            # TestKernelOracle holds the kernel to the reference on the
            # unreduced n = 4 tree, whose per-candidate walk takes seconds
            if (dim, prefix) != (4, ()):
                assert expected == reference_explore(dim, mode, prefix)

    # the trees of fewer than 1,000 nodes
    @pytest.mark.parametrize("dim,prefix", [case for case in ORBIT_CASES if case[0] < 4 or len(case[1]) > 2])
    def test_every_budget_matches_unscaled_and_the_reference(self, dim, prefix):
        _, _, nodes = unscaled(dim, SearchMode.COUNT, prefix)
        for mode in SearchMode:
            for budget in range(1, nodes + 2):
                expected = budgeted(reference_explore, dim, mode, prefix, budget)
                assert budgeted(_explore, dim, mode, prefix, budget) == expected
                assert budgeted(unscaled, dim, mode, prefix, budget) == expected

    def test_every_budget_on_the_reduced_n4_tree(self):
        # The tree holds no solution, so a scan raises on node budget + 1
        # below 9,348 nodes and returns from there on: checked on the
        # unscaled walk at a seeded sample of budgets (each walks up to
        # 9,348 nodes) and on the scaled one at every budget.
        def expected(budget):
            return budget + 1 if budget < 9348 else (None, 0, 9348)

        rng = random.Random(29)
        for budget in [1, 2, 12, 13, 9347, 9348, 9349] + rng.sample(range(1, 9349), 20):
            assert budgeted(unscaled, 4, SearchMode.COUNT, (1, 2), budget) == expected(budget)
        for budget in range(1, 9350):
            assert budgeted(_explore, 4, SearchMode.COUNT, (1, 2), budget) == expected(budget)

    def test_budgets_on_the_unreduced_n4_tree(self):
        # The walk credits copies at slots 3, 2, 1 and 0, each time the subtree
        # under lim is finished; with k words of (1, 2, 4, 8) walked above slot
        # k, its total is then k plus the nodes under (1, 2, 4, 8)[:k].  The
        # budgets on either side of each of those totals, and a seeded sample.
        checks = [k + unscaled(4, SearchMode.COUNT, (1, 2, 4, 8)[:k])[2] for k in range(4)]
        assert checks == [1963305, 130887, 9350, 781]
        rng = random.Random(31)
        budgets = [c + delta for c in checks for delta in (-1, 0, 1)]
        budgets += rng.sample(range(1, 1963306), 200)
        for mode in SearchMode:
            for budget in budgets:
                expected = budget + 1 if budget < 1963305 else (None, 0, 1963305)
                assert budgeted(_explore, 4, mode, (), budget) == expected

    def test_budgets_when_a_scaled_walk_stops_at_a_solution(self):
        # At dimension 2 both slots are ones where the span grows, and the
        # walk stops at the solution (1, 2, 3) with both credits pending.
        for prefix in ((), (1,)):
            for mode in (SearchMode.FIRST, SearchMode.PROVE_NONE):
                for budget in range(1, 4):
                    expected = budgeted(reference_explore, 2, mode, prefix, budget)
                    assert budgeted(_explore, 2, mode, prefix, budget) == expected
                    assert budgeted(unscaled, 2, mode, prefix, budget) == expected
        # At dimension 5 the first walk credits four subtrees of 16 copies
        # (at slots 6, 7, 7 and 6), none holding a solution, before the one
        # that does: budgets on either side of each credited total, of the
        # stop, and a seeded sample.  Reduced, every total is 2 lower.
        rng = random.Random(37)
        for prefix, stop in (((), 3403051), ((1, 2), 3403049)):
            checks = [c + stop - 3403049 for c in (1625146, 1654993, 1684836, 3396117, 3403049)]
            budgets = [c + delta for c in checks for delta in (-1, 0, 1)] + rng.sample(range(1, stop), 6)
            for budget in budgets:
                expected = budget + 1 if budget < stop else (BASE5_DECIMALS, 1, stop)
                assert budgeted(_explore, 5, SearchMode.FIRST, prefix, budget) == expected

    def test_the_frontier(self):
        # below (1, 2, 4, 8) the span is full at n = 4; its factor is
        # 15 * 14 * 12 * 8 unreduced and 12 * 8 with (1, 2) pinned
        for prefix, copies, above in (((), 15 * 14 * 12 * 8, 27945), ((1, 2), 12 * 8, 132)):
            frontier = []
            assert _explore(4, SearchMode.COUNT, prefix, frontier=frontier) == (None, 0, above)
            assert frontier == [((1, 2, 4, 8), copies)]
            below = _explore(4, SearchMode.COUNT, (1, 2, 4, 8))[2]
            assert above + copies * below == unscaled(4, SearchMode.COUNT, prefix)[2]
        # at n = 5 every entry ends with 16, the word that fills the span,
        # and its factor is |GL(5,2)|, or |GL(5,2)| / (31 * 30) reduced
        for prefix, copies in (((), GL5), ((1, 2), GL5 // 930)):
            frontier = []
            _explore(5, SearchMode.COUNT, prefix, frontier=frontier)
            assert len(frontier) == 25
            assert all(p[:4] == (1, 2, 4, 8) and p[-1] == 16 and m == copies for p, m in frontier)

    def test_a_scaled_count_under_a_five_word_prefix(self):
        # the slow test walks the same tree unscaled
        assert _explore(5, SearchMode.COUNT, (1, 2, 4, 8, 5)) == (BASE5_DECIMALS, 54656, 48145634)

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

    @pytest.mark.slow
    def test_the_number_of_ternary_permutations_at_n5(self):
        # a result beyond the paper: 123,008 GL(5,2) orbits, each of
        # |GL(5,2)| solutions (only the identity fixes a basis)
        outcome = search_parallel(SearchConfig(5, SearchMode.COUNT), workers=2)
        assert (outcome.count, outcome.nodes_explored) == (1230001274880, 765277229826601)
        assert outcome.count == 123008 * GL5

    @pytest.mark.slow
    def test_the_reduced_count_at_n5(self):
        # One walk, not the frontier split: under (1, 2, 4, 8) the words 5, 6,
        # 9 and 10 lead to solutions before 16 is walked and credited, so
        # only this walk credits a subtree after solutions were counted.
        # It counts the solutions that open with (1, 2), one in 31 * 30.
        outcome = search(SearchConfig(5, SearchMode.COUNT, symmetry_reduction=True))
        assert (outcome.count, outcome.nodes_explored) == (1322582016, 822878741748)
        assert outcome.count * 31 * 30 == 123008 * GL5


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

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count must be positive, got 0"):
            search_parallel(SearchConfig(dim=3, mode=SearchMode.COUNT), workers=0)


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
        assert cert.to_text() == (
            "dim=3\n"
            "nonexistent=true\n"
            "symmetry_reduction=true\n"
            "nodes_explored=12\n"
            "cross_check_unreduced_nodes=553\n"
            "total_xor_zero=true\n"
            f"verifier_version={VERSION}\n"
        )

    def test_dim3_cross_check_is_an_unscaled_unreduced_walk(self, monkeypatch):
        # scaled, it would rest on the symmetry argument it checks
        module = importlib.import_module("ternaryperm.search")
        calls = []

        def watched(dim, mode, prefix=(), *args, scale=True):
            calls.append((prefix, scale))
            return _explore(dim, mode, prefix, *args, scale=scale)

        monkeypatch.setattr(module, "_explore", watched)
        cert = prove_impossibility(3)
        assert sorted(calls) == [((), False), ((1, 2), True)]
        assert (cert.nodes_explored, cert.cross_check_unreduced_nodes) == (12, 553)

    def test_dim4_certificate(self):
        cert = prove_impossibility(4)
        assert cert.nonexistent is True
        assert cert.cross_check_unreduced_nodes is None
        assert cert.total_xor_zero is None
        assert cert.to_text() == (
            "dim=4\n"
            "nonexistent=true\n"
            "symmetry_reduction=true\n"
            "nodes_explored=9348\n"
            f"verifier_version={VERSION}\n"
        )

    def test_other_dims_rejected(self):
        with pytest.raises(ValueError):
            prove_impossibility(5)

    def test_naive_count_caps(self):
        with pytest.raises(ValueError):
            naive_count(4)
