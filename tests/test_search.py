import concurrent.futures
import importlib
import random

import pytest

from ternaryperm._version import VERSION
from ternaryperm.search import (
    MAX_SEARCH_DIM,
    BudgetExhaustedError,
    SearchConfig,
    SearchMode,
    SearchOutcome,
    lemma_n3,
    naive_count,
    prove_impossibility,
    search,
    search_parallel,
    search_randomized,
)
from ternaryperm.search import _apply_prefix, _explore, _free_positions, _walk_subtrees
from ternaryperm.sequences import TernarySequence, verify

from conftest import BASE5_DECIMALS


def run(dim, mode, reduce=False, budget=None):
    return search(
        SearchConfig(dim=dim, mode=mode, symmetry_reduction=reduce, node_budget=budget)
    )


def reference_explore(dim, mode, prefix=(), *, node_budget=None):
    """_explore's contract restated one candidate at a time, by recursion.

    The test oracle for the bitmask kernel: same tree, same node rule
    (every unused candidate tried at an open slot counts, collided
    followers included), same budget rule and the same return value: the
    first solution in first mode, None in count mode.
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
            if mode is SearchMode.COUNT:
                return False
            first = tuple(seq[1:])
            return True
        candidates = prefix[i : i + 1] if i < len(prefix) else range(1, size + 1)
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


def budgeted(explore, dim, mode, prefix, budget):
    """explore's result, or the node count its BudgetExhaustedError reports."""
    try:
        return explore(dim, mode, prefix, node_budget=budget)
    except BudgetExhaustedError as exc:
        return exc.nodes_explored


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
        assert [m.value for m in SearchMode] == ["first", "count"]
        for mode in ("everything", "prove_none"):
            with pytest.raises(ValueError):
                SearchConfig(dim=2, mode=mode)

    def test_rejects_non_integer_fields(self):
        # a float dimension passed the range check and failed in the
        # kernel's shifts; a float budget was reported as 11.5 nodes
        for kwargs in ({"dim": 4.0}, {"dim": "4"}, {"dim": 4, "node_budget": 10.5}):
            with pytest.raises(TypeError):
                SearchConfig(**kwargs)
        with pytest.raises(TypeError):
            search_parallel(SearchConfig(dim=3, mode=SearchMode.COUNT), 2.5)

    def test_rejects_bools_for_integer_fields(self):
        # bool is a subclass of int: node_budget=True stood for one node
        cases = (
            ({"dim": True}, "search dimension"),
            ({"dim": 3, "node_budget": True}, "node_budget"),
            ({"dim": 3, "node_budget": False}, "node_budget"),
        )
        for kwargs, name in cases:
            with pytest.raises(TypeError, match=f"^{name} must be an int, got bool$"):
                SearchConfig(**kwargs)

    def test_symmetry_reduction_must_be_a_bool(self):
        # "no" is truthy: it ran the reduced walk and showed in the repr
        for value in ("no", 0, 1, None):
            with pytest.raises(TypeError, match="symmetry_reduction must be a bool"):
                SearchConfig(4, "first", value)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="^node_budget must be at least 1, got 0$"):
            SearchConfig(dim=2, node_budget=0)


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
            assert verify(outcome.sequence) is None

    def test_dim5_first_reduced_regression(self, dim5_first_reduced):
        assert dim5_first_reduced.sequence.decimals == BASE5_DECIMALS
        assert dim5_first_reduced.nodes_explored == 3403049

    def test_reruns_are_identical(self):
        first = run(3, SearchMode.FIRST)
        second = run(3, SearchMode.FIRST)
        assert first == second


class TestProveNone:
    """None exists at n exactly when a first search's sequence is None."""

    def test_dim3_nonexistent(self):
        assert run(3, SearchMode.FIRST).sequence is None

    def test_dim4_nonexistent_reduced(self):
        assert run(4, SearchMode.FIRST, reduce=True).sequence is None

    def test_dim2_not_nonexistent(self):
        assert run(2, SearchMode.FIRST).sequence is not None

    def test_reduction_consistency(self):
        for dim in (2, 3, 4):
            reduced = run(dim, SearchMode.FIRST, reduce=True)
            unreduced = run(dim, SearchMode.FIRST)
            assert (reduced.sequence is None) == (unreduced.sequence is None)


class TestPrefixChecks:
    """_apply_prefix refuses what is not a prefix and reports an inconsistent one as None; _explore then walks nothing."""

    def test_a_taken_follower(self):
        # at n = 3 the open slots are positions 1, 2, 4 and 6; the last
        # slot takes 3 after 2, so its forced follower is 1, the first word
        assert _apply_prefix(3, (1, 7, 4, 3)) is None
        assert _explore(3, SearchMode.COUNT, (1, 7, 4, 3)) == (None, 0, 0)

    def test_a_repeated_word(self):
        assert _apply_prefix(3, (1, 1)) is None
        assert _explore(3, SearchMode.COUNT, (1, 1)) == (None, 0, 0)

    def test_a_prefix_longer_than_the_open_slots(self):
        with pytest.raises(ValueError, match="^prefix longer than the 4 open slots$"):
            _explore(3, SearchMode.COUNT, (1, 2, 4, 6, 3))

    def test_a_word_out_of_range(self):
        for w in (0, 8):
            with pytest.raises(ValueError, match=rf"^prefix value must be in \[1, 7\], got {w}$"):
                _explore(3, SearchMode.COUNT, (1, w))

    def test_a_word_that_is_not_an_int(self):
        # True used to stand for the word 1
        for w, kind in ((2.0, "float"), (True, "bool")):
            with pytest.raises(TypeError, match=f"^prefix value must be an int, got {kind}$"):
                _explore(3, SearchMode.COUNT, (1, w))


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

    def test_budget_scale_and_frontier_are_keyword_only(self):
        with pytest.raises(TypeError):
            _explore(3, SearchMode.COUNT, (), 5)
        assert _explore(3, SearchMode.COUNT, (), node_budget=553) == (None, 0, 553)

    def test_random_valid_prefixes(self):
        rng = random.Random(11)
        for dim, length in ((3, 2), (4, 3), (4, 5), (5, 9), (5, 11)):
            for _ in range(6):
                prefix = random_valid_prefix(rng, dim, length)
                for mode in SearchMode:
                    assert _explore(dim, mode, prefix) == reference_explore(dim, mode, prefix)

    def test_every_budget_stops_where_the_reference_does(self):
        for budget in range(1, 554):
            expected = budget + 1 if budget < 553 else (None, 0, 553)
            outcome = budgeted(_explore, 3, SearchMode.COUNT, (), budget)
            assert outcome == budgeted(reference_explore, 3, SearchMode.COUNT, (), budget) == expected

    def test_every_budget_on_a_subtree_with_solutions(self):
        # Its 226 nodes pass through every way the kernel treats a child
        # slot: dead ones and solution-free second-to-last ones counted in
        # place, solvable second-to-last ones and the rest entered.
        prefix = DEEP_DIM5_PREFIX
        full = reference_explore(5, SearchMode.COUNT, prefix)
        assert full[1:] == (4, 226)
        for mode in (SearchMode.FIRST, SearchMode.COUNT):
            for budget in range(1, full[2] + 1):
                expected = budgeted(reference_explore, 5, mode, prefix, budget)
                assert budgeted(_explore, 5, mode, prefix, budget) == expected

    def test_solvable_second_to_last_slots_are_entered(self):
        # Three open slots left: each child of the first is a second-to-last
        # slot, so each solution found came through one judged solvable.
        first, _, _ = reference_explore(5, SearchMode.FIRST, DEEP_DIM5_PREFIX)
        for decimals in (BASE5_DECIMALS, first):
            prefix = tuple(decimals[p - 1] for p in _free_positions(5)[:13])
            for mode in SearchMode:
                expected = reference_explore(5, mode, prefix)
                assert _explore(5, mode, prefix) == expected
                assert expected[1] > 0

    @pytest.mark.slow
    def test_unreduced_count_under_a_five_word_prefix(self):
        # Walked unscaled, this is the n = 5 cross-check of the orbit
        # scaling, which meets 3,416 solutions here and credits each 16
        # times; the smallest solution lies under this prefix too.
        assert unscaled(5, SearchMode.COUNT, (1, 2, 4, 8, 5)) == (None, 54656, 48145634)
        assert unscaled(5, SearchMode.FIRST, (1, 2, 4, 8, 5))[0] == BASE5_DECIMALS


#: Prefixes at dimensions 2 to 4 that the scaled walk takes itself (each
#: word inside the span of the words before it, or the smallest word
#: outside it, so the walk under them scales) and not (so it is plain):
#: (1, 2, 5) and (1, 2, 4, 9) have a full span, and (2, 1), (3,), (2,),
#: (6, 1), (4,) and (3, 5, 9) are off the scaled walk's path.
ORBIT_CASES = [
    (2, ()), (2, (1,)), (2, (3,)),
    (3, ()), (3, (1,)), (3, (2, 1)), (3, (1, 2, 5)), (3, (2,)), (3, (6, 1)),
    (4, ()), (4, (1, 2)), (4, (2, 1)), (4, (1, 2, 5)), (4, (1, 2, 4, 9)),
    (4, (6, 1)), (4, (4,)), (4, (3, 5, 9)),
]

#: |GL(5,2)| = (32 - 1)(32 - 2)(32 - 4)(32 - 8)(32 - 16)
GL5 = 9999360


def answer(driver, *args):
    """A driver's outcome, or the node total of the budget error it raises."""
    try:
        return driver(*args)
    except BudgetExhaustedError as exc:
        return "budget exhausted", exc.nodes_explored


def unscaled(dim, mode, prefix=(), *, node_budget=None):
    return _explore(dim, mode, prefix, node_budget=node_budget, scale=False)


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
            for budget in range(1, 4):
                expected = budgeted(reference_explore, 2, SearchMode.FIRST, prefix, budget)
                assert budgeted(_explore, 2, SearchMode.FIRST, prefix, budget) == expected
                assert budgeted(unscaled, 2, SearchMode.FIRST, prefix, budget) == expected
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
        # the slow test walks the same tree unscaled; the smallest solution lies under it
        assert _explore(5, SearchMode.COUNT, (1, 2, 4, 8, 5)) == (None, 54656, 48145634)
        assert _explore(5, SearchMode.FIRST, (1, 2, 4, 8, 5))[0] == BASE5_DECIMALS

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("mode,reduce", [(mode, reduce) for mode in SearchMode for reduce in (False, True)])
    def test_parallel_matches_search(self, mode, reduce, workers):
        # only a count without a budget reaches the pool (at n = 4 it hands
        # out the frontier entry (1, 2, 4, 8)); budgets on either side of the
        # tree's total, or of the node total where a first search stops
        for dim in (2, 3, 4):
            total = search(SearchConfig(dim, mode, reduce)).nodes_explored
            for budget in (None, total - 1, total, total + 1):
                if budget is not None and budget < 1:
                    continue
                config = SearchConfig(dim, mode, reduce, budget)
                assert answer(search_parallel, config, workers) == answer(search, config)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_a_count_is_the_one_walk_total(self, dim, reduce):
        # search walks a count as its frontier entries; the kernel, given
        # no frontier, walks the whole tree in one call
        outcome = search(SearchConfig(dim, SearchMode.COUNT, reduce))
        _, count, nodes = _explore(dim, SearchMode.COUNT, (1, 2) if reduce else ())
        assert (outcome.count, outcome.nodes_explored) == (count, nodes)

    @pytest.mark.parametrize("reduce,nodes", [(False, 3403051), (True, 3403049)])
    def test_parallel_matches_search_at_n5(self, reduce, nodes):
        # a first search stops at its first solution, in one process
        config = SearchConfig(5, SearchMode.FIRST, reduce)
        outcome = search_parallel(config, workers=2)
        assert outcome == search(config)
        assert outcome.nodes_explored == nodes

    @pytest.mark.slow
    def test_the_number_of_ternary_permutations_at_n5(self):
        # a result beyond the paper: 123,008 GL(5,2) orbits, each of
        # |GL(5,2)| solutions (only the identity fixes a basis)
        outcome = search_parallel(SearchConfig(5, SearchMode.COUNT), workers=2)
        assert (outcome.count, outcome.nodes_explored) == (1230001274880, 765277229826601)
        assert outcome.count == 123008 * GL5

    @pytest.mark.slow
    def test_the_reduced_count_at_n5(self):
        # The frontier split with its 25 entries walked in this process (the
        # unreduced count above hands them to a pool). It counts the
        # solutions that open with (1, 2), one in 31 * 30.
        outcome = search(SearchConfig(5, SearchMode.COUNT, symmetry_reduction=True))
        assert (outcome.count, outcome.nodes_explored) == (1322582016, 822878741748)
        assert outcome.count * 31 * 30 == 123008 * GL5

    @pytest.mark.slow
    def test_a_budgeted_count_credits_the_solutions_it_walked(self):
        # A budget makes the count one kernel call with no frontier. The walk
        # then credits 16's subtree at slot 4 after the (1, 2, 4, 8, 5/6/9/10)
        # subtrees, whose solutions it has already counted. Unbudgeted, the
        # count stops at its frontier, above every solution, so each credit
        # there multiplies zero.
        outcome = search(SearchConfig(5, SearchMode.COUNT, True, node_budget=10**12))
        assert (outcome.count, outcome.nodes_explored) == (1322582016, 822878741748)


class TestBudget:
    def test_exhaustion_raises(self):
        with pytest.raises(BudgetExhaustedError) as err:
            run(4, SearchMode.COUNT, budget=10)
        assert err.value.nodes_explored == 11
        assert err.value.limit == "node budget"
        assert str(err.value) == "node budget exhausted after 11 nodes"

    def test_sufficient_budget_is_silent(self):
        assert run(2, SearchMode.COUNT, budget=1000).count == 6


class TestDefaultBudget:
    """A search without a budget runs to its answer below MAX_SEARCH_DIM and is refused at it."""

    @pytest.fixture
    def module(self):
        # the package re-exports the function search over the submodule's name
        return importlib.import_module("ternaryperm.search")

    @pytest.fixture
    def budgets(self, module, monkeypatch):
        """The node_budget each _explore call gets; the call walks nothing."""
        seen = []

        def watched(dim, mode, prefix=(), *, node_budget=None, **kwargs):
            seen.append(node_budget)
            return None, 0, 0

        monkeypatch.setattr(module, "_explore", watched)
        return seen

    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("mode", list(SearchMode))
    def test_a_search_at_n6_needs_one(self, budgets, mode, reduce):
        with pytest.raises(ValueError, match="dimension 6 needs a node budget"):
            SearchConfig(MAX_SEARCH_DIM, mode, reduce)
        config = SearchConfig(MAX_SEARCH_DIM, mode, reduce, node_budget=1000)
        assert config.node_budget == 1000
        search(config)
        assert budgets == [1000]

    def test_no_search_below_n6_gets_one(self, budgets):
        # none: every search below n = 6 walks with no budget, in every mode
        for dim in range(2, MAX_SEARCH_DIM):
            for mode in SearchMode:
                for reduce in (False, True):
                    run(dim, mode, reduce)
        assert budgets == [None] * 16

    def test_a_given_budget_is_passed_on(self, budgets):
        run(5, SearchMode.FIRST, budget=7)
        assert budgets == [7]

    def test_prove_is_unaffected(self, module, monkeypatch):
        walks = []
        walk = module._explore

        def watched(*args, **kwargs):
            walks.append(kwargs.get("node_budget"))
            return walk(*args, **kwargs)

        monkeypatch.setattr(module, "_explore", watched)
        assert prove_impossibility(3).nodes_explored == 12
        assert prove_impossibility(4).nodes_explored == 9348
        assert walks == [None] * 3  # n = 3 adds the unreduced cross-check


class TestParallel:
    def test_counts_and_nodes_match_sequential(self):
        for dim in (2, 3):
            sequential = run(dim, SearchMode.COUNT)
            parallel = search_parallel(SearchConfig(dim=dim, mode=SearchMode.COUNT), workers=2)
            assert parallel.count == sequential.count
            assert parallel.nodes_explored == sequential.nodes_explored

    def test_prove_none_dim4(self):
        sequential = run(4, SearchMode.FIRST, reduce=True)
        parallel = search_parallel(
            SearchConfig(dim=4, mode=SearchMode.FIRST, symmetry_reduction=True), workers=2
        )
        assert parallel.sequence is None
        assert parallel.nodes_explored == sequential.nodes_explored

    def test_a_budget_stops_where_the_sequential_walk_does(self):
        # the n = 3 count walks 553 nodes; a budget of 100 stops it at 101
        config = SearchConfig(dim=3, mode=SearchMode.COUNT, node_budget=100)
        with pytest.raises(BudgetExhaustedError) as exc:
            search_parallel(config, workers=2)
        assert exc.value.nodes_explored == 101
        assert answer(search, config) == ("budget exhausted", 101)

    def test_a_frontier_of_several_entries_goes_through_the_pool(self, monkeypatch):
        # no frontier at n <= 4 has two entries, and one entry is walked in
        # process; the words of (1, 2, 4, 8, 5) span {0, ..., 15}, and below
        # it the span fills wherever 16 is placed, each time with factor 16
        frontier = []
        _, count, nodes = _explore(5, SearchMode.COUNT, (1, 2, 4, 8, 5), frontier=frontier)
        prefixes, factors = zip(*frontier)
        assert len(prefixes) == 5 and set(factors) == {16}
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        in_process = _walk_subtrees(5, SearchMode.COUNT, prefixes, 1)
        assert pools == []
        pooled = _walk_subtrees(5, SearchMode.COUNT, prefixes, 2)
        assert pools == [2]
        assert pooled == in_process
        for copies, (_, sub_count, sub_nodes) in zip(factors, pooled):
            count += copies * sub_count
            nodes += copies * sub_nodes
        assert (count, nodes) == (54656, 48145634)  # the slow test's unscaled walk

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_each_frontier_entry_is_credited_by_its_factor(self, monkeypatch, reduce, workers):
        # below n = 5 each frontier entry counts 0 solutions (n = 2 has no
        # frontier), so no count there shows a factor left out: this takes
        # the n = 5 frontier, with a distinct count and node total per entry
        frontier = []
        _, _, above = _explore(5, SearchMode.COUNT, (1, 2) if reduce else (), frontier=frontier)
        prefixes, factors = zip(*frontier)
        assert (len(frontier), sum(factors), above) == (
            (25, 268800, 334068) if reduce else (25, 249984000, 310684201)
        )
        walks = [(None, i + 1, 1000 + 7 * i) for i in range(len(prefixes))]
        calls = []

        def walked(*args):
            calls.append(args)
            return walks

        monkeypatch.setattr(importlib.import_module("ternaryperm.search"), "_walk_subtrees", walked)
        outcome = search_parallel(SearchConfig(5, SearchMode.COUNT, reduce), workers)
        assert calls == [(5, SearchMode.COUNT, prefixes, workers)]
        assert outcome.count == sum(f * c for f, (_, c, _) in zip(factors, walks))
        assert outcome.nodes_explored == above + sum(f * n for f, (_, _, n) in zip(factors, walks))

    def test_a_bool_worker_count_is_rejected(self):
        # True ran the search with one worker
        config = SearchConfig(dim=3, mode=SearchMode.COUNT)
        for workers in (True, False):
            with pytest.raises(TypeError, match="workers must be an int, got bool"):
                search_parallel(config, workers)

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError, match=r"^workers must be at least 1, got 0$"):
            search_parallel(SearchConfig(dim=3, mode=SearchMode.COUNT), workers=0)


class TestRandomizedDiscovery:
    def test_finds_valid_dim6_sequence(self):
        outcome = search_randomized(6, seed=0)
        assert outcome.sequence.dim == 6
        assert verify(outcome.sequence) is None

    def test_deterministic_for_fixed_seed(self):
        a = search_randomized(6, seed=0)
        b = search_randomized(6, seed=0)
        assert a.sequence == b.sequence
        assert a.nodes_explored == b.nodes_explored

    def test_dim6_node_count_is_pinned(self):
        # nine attempts whose subtrees hold no solution, then one that
        # finds a solution after 3,276 nodes
        assert search_randomized(6, seed=0).nodes_explored == 51630

    def test_tiny_dims_work(self):
        outcome = search_randomized(2, seed=0)
        assert outcome.sequence.decimals == (1, 2, 3)
        assert outcome.nodes_explored == 0

    def test_all_attempts_exhausted_raises(self, monkeypatch):
        # the package re-exports the function search over the submodule's name
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPTS", 2)
        monkeypatch.setattr(module, "_ATTEMPT_BUDGET", 5)
        with pytest.raises(BudgetExhaustedError) as err:
            search_randomized(3, seed=0)
        # each attempt stops on its sixth node, one past its budget of five;
        # what ran out is the attempts, not the budget of any one of them
        assert err.value.nodes_explored == 12
        assert err.value.limit == "all 2 attempts"
        assert str(err.value) == "all 2 attempts exhausted after 12 nodes"

    @pytest.mark.parametrize("dim,nodes", [(3, 12), (4, 9348)])
    def test_one_finished_attempt_settles_nonexistence(self, dim, nodes):
        # the whole reduced tree, walked once rather than once per attempt
        outcome = search_randomized(dim, seed=0)
        assert outcome.sequence is None
        assert outcome.nodes_explored == nodes

    def test_nodes_of_exhausted_attempts_add_to_the_finished_one(self, monkeypatch):
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPT_BUDGET", 10000)
        # at dimension 5 the walk below the prefix drawn with seed 1 needs
        # 17,383 nodes, that below the one drawn with seed 2 needs 5,317
        outcome = search_randomized(5, seed=1)
        assert verify(outcome.sequence) is None
        assert outcome.nodes_explored == 10001 + 5317

    def test_a_dead_slot_ends_the_draw_and_the_walk_counts_its_tries(self, monkeypatch):
        # With seed 25 at dimension 6 no word is assignable at the 21st
        # drawn slot: the walk below the 20 drawn ones tries the 20 free
        # words there, each colliding, and the attempt finds nothing.
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPTS", 1)
        with pytest.raises(BudgetExhaustedError) as err:
            search_randomized(6, seed=25)
        assert err.value.nodes_explored == 20
        assert err.value.limit == "all 1 attempts"

    def test_a_dead_slot_before_the_last_drawn_one_ends_the_draw(self, monkeypatch):
        # With seed 234 at dimension 6 no word is assignable at the 19th of
        # the 21 drawn slots: the draw stops there, and the walk below the 18
        # drawn ones tries the 24 free words there, each colliding.
        module = importlib.import_module("ternaryperm.search")
        monkeypatch.setattr(module, "_ATTEMPTS", 1)
        with pytest.raises(BudgetExhaustedError) as err:
            search_randomized(6, seed=234)
        assert err.value.nodes_explored == 24

    @pytest.mark.parametrize("dim", [5, 6])
    def test_every_seed_finds_the_ascending_answer_below_its_prefix(self, dim):
        # The slots above the last _TAIL come from the attempt that found
        # the sequence; the kernel's ascending walk below them stops there.
        module = importlib.import_module("ternaryperm.search")
        slots = _free_positions(dim)[: -module._TAIL]
        for seed in range(20):
            found = search_randomized(dim, seed).sequence
            assert verify(found) is None
            prefix = tuple(found.decimals[p - 1] for p in slots)
            assert _explore(dim, SearchMode.FIRST, prefix)[0] == found.decimals

    @pytest.mark.slow
    @pytest.mark.parametrize("dim,seeds", [(5, 1000), (6, 300)])
    def test_seed_sweep(self, dim, seeds, monkeypatch, capsys):
        # Each attempt is one kernel walk; the largest attempt index shows
        # how far each sweep stays from the last of the _ATTEMPTS.
        module = importlib.import_module("ternaryperm.search")
        walks = []

        def counted(*args, **kwargs):
            walks.append(args[2])
            return _explore(*args, **kwargs)

        monkeypatch.setattr(module, "_explore", counted)
        largest = 0
        for seed in range(seeds):
            walks.clear()
            assert search_randomized(dim, seed).sequence is not None
            largest = max(largest, len(walks) - 1)
        with capsys.disabled():
            print(f"\nn = {dim}, seeds 0-{seeds - 1}: largest attempt index {largest} of {module._ATTEMPTS - 1}")

    def test_a_negative_seed_is_refused(self):
        # random.Random(-s) seeds as Random(s): seed -8 redrew the prefixes of
        # earlier attempts and took 95,538 nodes where seed 0 takes 51,630
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            search_randomized(5, seed=-1)

    @pytest.mark.parametrize("seed,kind", [(True, "bool"), (2.5, "float"), ("a", "str")])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed, kind):
        # True ran as seed 1, 2.5 ran, and "a" failed inside the seed arithmetic
        with pytest.raises(TypeError, match=f"^seed must be an int, got {kind}$"):
            search_randomized(5, seed=seed)

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

        def watched(dim, mode, prefix=(), *, scale=True, **kwargs):
            calls.append((prefix, scale))
            return _explore(dim, mode, prefix, scale=scale, **kwargs)

        monkeypatch.setattr(module, "_explore", watched)
        cert = prove_impossibility(3)
        assert sorted(calls) == [((), False), ((1, 2), True)]
        assert (cert.nodes_explored, cert.cross_check_unreduced_nodes) == (12, 553)

    @pytest.mark.parametrize("found_by", ["reduced", "unreduced"])
    def test_the_tripwire_fires_when_the_two_searches_disagree(self, found_by, monkeypatch):
        # the two searches agree on correct code, so one of them is made to find a sequence
        module = importlib.import_module("ternaryperm.search")
        if found_by == "reduced":
            real = module.search

            def finding(config):
                outcome = real(config)
                found = TernarySequence.from_decimals(3, range(1, 8))
                return SearchOutcome(3, config.mode, True, outcome.nodes_explored, found)

            monkeypatch.setattr(module, "search", finding)
        else:
            monkeypatch.setattr(module, "_explore", lambda *args, **kwargs: (None, 1, 0))
        with pytest.raises(RuntimeError, match="^reduced and unreduced searches disagree$"):
            prove_impossibility(3)

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
