"""Backtracking search for ternary permutations, with forced-move pruning.

The defining conditions leave little freedom: once positions j - 1 and j
are chosen for an even j, the word at j + 1 must be their XOR.  The open
choices are position 1 and the even positions, 2**(n-1) slots in all; the
search branches only there and fills each forced follower immediately.
"""

from __future__ import annotations

__all__ = [
    "MAX_SEARCH_DIM", "BudgetExhaustedError", "ImpossibilityCertificate", "SearchConfig",
    "SearchMode", "SearchOutcome", "lemma_n3", "naive_count",
    "prove_impossibility", "search", "search_parallel", "search_randomized",
]

import random
from enum import Enum
from functools import partial, reduce
from itertools import permutations
from math import inf, prod
from operator import xor
from typing import Optional

from ._version import VERSION
from .sequences import TernarySequence, _require, verify
from .words import _check_int, _Frozen

#: The largest search dimension: a search there needs a node budget, one below runs to its answer.
MAX_SEARCH_DIM = 6

#: search_randomized's tuning: attempts, node budget per attempt, and the
#: last open slots, which each attempt walks below its random prefix.
_ATTEMPTS = 64
_ATTEMPT_BUDGET = 2_000_000
_TAIL = 9

#: The opening that symmetry reduction pins in the first two open slots
#: (see SearchConfig).
_OPENING = (1, 2)


class SearchMode(Enum):
    FIRST = "first"
    COUNT = "count"


class BudgetExhaustedError(Exception):
    """A limit, the node budget or search_randomized's attempts, ran out before a conclusive answer."""

    def __init__(self, nodes_explored: int, limit: str = "node budget"):
        super().__init__(nodes_explored, limit)  # the fields: pickle and copy rebuild from args
        self.nodes_explored = nodes_explored
        self.limit = limit

    def __str__(self) -> str:
        return f"{self.limit} exhausted after {self.nodes_explored} nodes"


class SearchConfig(_Frozen):
    """What to search for and how hard to try.

    Hitting the node budget raises rather than returning a guess: a count,
    or a first search that finds nothing, must traverse the whole tree.
    A search at MAX_SEARCH_DIM needs a budget, since no walk of its tree
    runs to an answer; below it a search without one runs to its answer.

    symmetry_reduction pins the first two entries to the words 1 and 2.
    That loses no generality for existence questions.  The defining
    conditions are XOR equations, so any map in GL(n,2) carries ternary
    permutations to ternary permutations; the first two entries of any
    candidate are distinct and nonzero, hence linearly independent, and
    some map in GL(n,2) takes them to (1, 2).  Solution counts are another
    matter: a reduced count covers only sequences opening with (1, 2) and
    is reported as such, never scaled up.
    """

    dim: int
    mode: SearchMode
    symmetry_reduction: bool
    node_budget: Optional[int]

    def __init__(
        self,
        dim: int,
        mode: SearchMode = SearchMode.FIRST,
        symmetry_reduction: bool = False,
        node_budget: Optional[int] = None,
    ):
        _check_int("search dimension", dim, 2, MAX_SEARCH_DIM)
        if node_budget is not None:
            _check_int("node_budget", node_budget, 1)
        if not isinstance(symmetry_reduction, bool):
            raise TypeError(f"symmetry_reduction must be a bool, got {type(symmetry_reduction).__name__}")
        mode = SearchMode(mode)
        if node_budget is None and dim == MAX_SEARCH_DIM:
            raise ValueError(f"a search at dimension {dim} needs a node budget: its tree is too large")
        super().__init__(dim, mode, symmetry_reduction, node_budget)


class SearchOutcome(_Frozen):
    """Result of one search run.

    nodes_explored counts candidate assignments attempted at open slots,
    including ones whose forced follower immediately collided; candidates
    skipped because their word was already in use are not assignments.
    Many are counted in bulk rather than one at a time: those of a slot
    where none fits and of a second-to-last slot that holds no solution
    are added without the slot being entered, and wherever the span of
    the used words grows, one word outside it is walked and its subtree's
    count and nodes are credited once per word of its GL(n,2) orbit (see
    _explore).  The total is the same as one candidate at a time, so
    nodes per second counts these credited nodes too.  A first search
    sets sequence, None when no solution exists; a count sets count.
    """

    dim: int
    mode: SearchMode
    symmetry_reduction: bool
    nodes_explored: int
    sequence: Optional[TernarySequence] = None
    count: Optional[int] = None


def _free_positions(dim: int) -> list[int]:
    size = (1 << dim) - 1
    return [1] + list(range(2, size, 2))


def _apply_prefix(dim: int, prefix: tuple[int, ...]):
    """Fill the leading open slots with fixed values, forced moves included.

    Returns (seq, used, lim) on success, where seq is 1-based position
    storage, used is a bitmask over word values and lim is the span limit
    of the scaled walk below the prefix (see _explore), 0 if it walks
    plain; or None if the prefix is inconsistent (a repeated word, or a
    forced follower already taken).
    """
    size = (1 << dim) - 1
    free = _free_positions(dim)
    if len(prefix) > len(free):
        raise ValueError(f"prefix longer than the {len(free)} open slots")
    seq = [0] * (size + 1)
    used = 0
    lim = 1
    for slot, w in enumerate(prefix):
        _check_int("prefix value", w, 1, size)
        m = 1 << w
        if used & m:
            return None
        if w >= lim:  # lim doubles the span; a larger word is off the walk's path: walk plain
            lim = 2 * lim if w == lim else 0
        p = free[slot]
        f = seq[p - 1] ^ w  # at position 1, w itself: a placeholder that slot 1 overwrites
        fm = 1 << f
        if used & fm:
            return None
        seq[p] = w
        seq[p + 1] = f
        used |= m | fm
    return seq, used, lim


def _xor_swaps(dim: int) -> list[tuple[tuple[int, int], ...]]:
    """Per word c, the butterfly steps that carry bit w of a mask to bit w ^ c.

    Flipping bit b of every index swaps neighbouring blocks of 2**b bits;
    lo marks the indices whose bit b is clear.  One step
    ((m >> s) & lo) | ((m & lo) << s), s = 2**b, per set bit b of c maps
    a mask over 0 .. 2**dim - 1 through w -> w ^ c.
    """
    steps = []
    for b in range(dim):
        s = 1 << b
        lo = sum(1 << w for w in range(1 << dim) if not w & s)
        steps.append((s, lo))
    return [tuple(steps[b] for b in range(dim) if c >> b & 1) for c in range(1 << dim)]


def _explore(
    dim: int,
    mode: SearchMode,
    prefix: tuple[int, ...] = (),
    *,
    node_budget: Optional[int] = None,
    scale: bool = True,
    frontier: Optional[list] = None,
):
    """Depth-first scan of every ternary permutation extending `prefix`.

    prefix fixes the values of the leading open slots and costs no nodes.
    Every slot tries its candidates in ascending decimal order, so with an
    empty prefix the first full assignment found is the smallest solution
    in decimal-tuple order.  nodes counts candidates assigned at open
    slots, including ones whose forced follower collides; candidates whose
    word is already in use do not count.  Going past node_budget raises
    BudgetExhaustedError(node_budget + 1).  Stops at the first solution
    except in count mode.  Returns (first solution as decimals or None,
    solution count so far, nodes).

    A slot works on two bitmasks, not candidate by candidate: free holds
    the unused words and ok those of them whose forced follower (the word
    XOR the one before it) is unused too.  The lowest bit of ok is the next
    assignment; every free bit up to it is a candidate tried on the way,
    so nodes grows by their bit count.

    The next slot's masks are worked out before an assignment is
    committed, and two kinds of next slot are counted without being
    entered.  A dead slot (ok empty) tries each free word, and each
    collides: free.bit_count() nodes.  The second-to-last slot has four
    words left; when it holds no solution, each of them is tried and each
    assignable one leaves the last slot two words, both tried and both
    colliding: free.bit_count() + 2 * ok.bit_count() nodes.  It holds a
    solution exactly when ok has two bits, x and its follower y, and the
    two words left over (free ^ ok) XOR to one of them, say y: assigning
    x puts y just before the last slot, where each leftover word then has
    the other as its follower.  Such a slot is entered.  A subtree counted
    in place holds no solution and would be traversed in full, so its
    nodes are those of its full scan, and the count, the nodes and the
    first solution are the ones a slot by slot scan gives.  The budget is
    not checked after these two adds: nodes only grow, and the next add,
    which comes before any solution is recorded or any result returned,
    is checked and raises the same error.

    Where the span of the used words grows, one word stands for many
    (McKay's isomorph rejection).  Say the used words span exactly
    {0, ..., lim - 1}, with lim = 2**r <= N = 2**dim - 1.  The defining
    conditions are XOR equations, so a map g in GL(dim, 2) is an
    isomorphism of search trees: it carries used words, free words and
    forced followers onto each other.  The M = 2**dim - lim words from lim
    on lie outside the span, and so do their followers (the word before
    the slot is used, or 0 at position 1): all M are assignable.  The maps
    that fix the span pointwise fix every used word and the word before
    the slot, and they are transitive on those M words, so their subtrees
    are copies of one another, and a full traversal of each gives the
    same count and nodes.  So the slot tries its unused words inside the
    span as before, then lim, the smallest word outside, and no other: its
    free and ok masks keep bits 1 .. lim only, so lim is its last
    candidate.  When lim's subtree is finished and the slot is exhausted,
    with nodes and count saved just before lim's own node, nodes = saved +
    M * (nodes - saved), count likewise, and the budget is checked (the
    scan passes every total up to that one while it walks the copies).
    An ascending scan tries every word inside the span (all below lim)
    before lim, and lim before the other M - 1, so it stops under lim
    exactly when it would stop under the first outside word: the first
    solution, the node total at a stop and every budget error are the
    scan's.  Assigning lim doubles the span, so the slots below it have
    lim doubled; a word inside the span leaves it as it is.  The follower
    translate and the two in-place adds above use the unmasked masks:
    those adds count whole subtrees.  From an empty prefix the factors M
    along the walk are N, N - 1, N - 3, ..., 2**dim - 2**(dim - 1), whose
    product is |GL(dim, 2)|.  Scaling runs only with scale true and a
    prefix the scaled walk could take itself, each word inside the span or
    equal to lim (see _apply_prefix); otherwise the walk is plain.

    frontier, a list, stops the scaled walk at each walked prefix where
    the span first fills GF(2)**dim above the last slot (below it nothing
    scales): it appends (prefix, multiplier), multiplier being the product
    of the factors M pending there, and counts that prefix's own node but
    nothing under it.  The whole walk's count and nodes are then those
    returned plus, per entry, multiplier times those of _explore(dim, mode,
    prefix).
    """
    size = (1 << dim) - 1
    free_pos = _free_positions(dim)
    n_free = len(free_pos)
    applied = _apply_prefix(dim, prefix)
    if applied is None:
        return None, 0, 0
    seq, used, span_lim = applied
    start = len(prefix)
    if start == n_free:
        # the prefix and its forced moves already fill every position
        return tuple(seq[1:]), 1, 0
    swaps = _xor_swaps(dim)
    budget = inf if node_budget is None else node_budget
    nodes = 0
    count = 0
    first: Optional[tuple[int, ...]] = None
    free_left = [0] * n_free  # per entered slot: free candidates not tried yet
    ok_left = [0] * n_free  # per entered slot: assignable candidates not tried yet
    und = [0] * n_free  # bits to give back to avail when a slot's assignment is undone
    last = n_free - 1
    pen = n_free - 2  # the second-to-last slot
    # lim is slot d's span limit, size + 1 once the span is full or when
    # the walk is plain; growing holds (slot, saved nodes, saved count, M)
    # per slot whose word lim is being walked, deepest last, and sd is the
    # deepest such slot.
    lim = span_lim if scale and span_lim else size + 1
    growing = []
    sd = -1
    # Slot d sits at position p, after the word prev; avail holds every
    # unused word.  At position 1 prev is seq[0], which stays 0, so every
    # free word there is assignable and c = w below adds no second bit.
    d = start
    p = free_pos[d]
    prev = seq[p - 1]
    avail = ((1 << (size + 1)) - 2) ^ used  # words 1 .. size, less the used ones
    t = avail
    for s, lo in swaps[prev]:
        t = ((t >> s) & lo) | ((t & lo) << s)
    free = avail
    ok = avail & t
    while True:  # slot d was just entered
        if lim <= size:  # the span is not full: lim stands for every word outside it
            free &= (2 << lim) - 2
            ok &= (2 << lim) - 2
        while True:  # try slot d's candidates until one enters slot d + 1
            while not ok:  # slot d is exhausted: back up
                if d == sd:  # its last candidate was lim: credit the M words lim stands for
                    _, saved, saved_count, copies = growing.pop()
                    nodes = saved + copies * (nodes - saved)
                    count = saved_count + copies * (count - saved_count)
                    sd = growing[-1][0] if growing else -1
                    lim >>= 1
                nodes += free.bit_count()
                if nodes > budget:
                    raise BudgetExhaustedError(node_budget + 1)
                d -= 1
                if d < start:
                    return first, count, nodes
                avail ^= und[d]
                free = free_left[d]
                ok = ok_left[d]
                p = free_pos[d]
                prev = seq[p - 1]
            low = ok & -ok
            tried = free & ((low << 1) - 1)
            nodes += tried.bit_count()
            if nodes > budget:
                raise BudgetExhaustedError(node_budget + 1)
            free ^= tried
            ok ^= low
            w = low.bit_length() - 1
            if w == lim:  # the span grows
                growing.append((d, nodes - 1, count, size + 1 - lim))
                sd = d
                lim <<= 1
                if frontier is not None and lim > size and d < last:
                    walked = tuple(seq[q] for q in free_pos[:d]) + (w,)
                    frontier.append((walked, prod(g[3] for g in growing)))
                    continue
            c = prev ^ w  # the forced follower, and the word before slot d + 1
            m = (1 << w) | (1 << c)
            if d == last:
                seq[p] = w
                seq[p + 1] = c
                count += 1
                if first is None:
                    first = tuple(seq[1:])
                if mode is not SearchMode.COUNT:
                    return first, count, nodes
                continue
            # slot d + 1's masks, worked out before w is committed
            nfree = avail ^ m
            t = nfree
            for s, lo in swaps[c]:
                t = ((t >> s) & lo) | ((t & lo) << s)
            nok = nfree & t
            if not nok:  # dead: every free word there is tried and collides
                nodes += nfree.bit_count()
                continue
            if d + 1 == pen:  # four words left there
                rest = nfree ^ nok
                # the XOR of the two words left over when ok has two bits
                x = ((rest & -rest).bit_length() - 1) ^ (rest.bit_length() - 1)
                if nok.bit_count() != 2 or not nok >> x & 1:  # holds no solution
                    nodes += nfree.bit_count() + 2 * nok.bit_count()
                    continue
            break
        seq[p] = w
        seq[p + 1] = c  # at position 1, a placeholder that slot 1 overwrites
        avail = nfree
        und[d] = m
        free_left[d] = free
        ok_left[d] = ok
        d += 1
        p = free_pos[d]
        prev = c
        free = nfree
        ok = nok


def _outcome(config: SearchConfig, first: Optional[tuple], count: int, nodes: int) -> SearchOutcome:
    """A run's result, with only config.mode's field set and a found sequence verified."""
    sequence = None
    if config.mode is SearchMode.FIRST and first is not None:
        sequence = TernarySequence.from_decimals(config.dim, first)
        _require(verify(sequence), RuntimeError, "search returned an invalid sequence")
    return SearchOutcome(
        dim=config.dim,
        mode=config.mode,
        symmetry_reduction=config.symmetry_reduction,
        nodes_explored=nodes,
        sequence=sequence,
        count=count if config.mode is SearchMode.COUNT else None,
    )


def search(config: SearchConfig) -> SearchOutcome:
    """search_parallel(config, 1): the configured search, every walk in this process."""
    return search_parallel(config, 1)


def search_parallel(config: SearchConfig, workers: int) -> SearchOutcome:
    """Run the configured search to completion (or budget exhaustion), on at most `workers` processes.

    Mode semantics: first returns the smallest solution in candidate
    order, or none after exhausting the space, which proves that none
    exists; count returns the exact number of solutions found (of the
    reduced space when reduction is on).  The kernel walks from the empty
    prefix, or from (1, 2) when reduced; wherever the span of the used
    words grows, it walks one word outside the span and credits its
    subtree once per word of that word's GL(n,2) orbit (see _explore), so
    every answer and node total is the one a scan of the whole tree gives.

    A walk that can stop, at its first solution or at a budget, is one
    kernel walk in this process: a budget is checked in walk order.  A
    count without a budget is a plain sum over subtrees, whatever order
    they finish in.  It walks down to its frontier, the walked prefixes at
    which the span first fills GF(2)^n, each with the factor its subtree
    is credited by; below them nothing scales.  The total is the walk
    above the frontier plus factor times each entry's count and nodes, the
    entries walked by _walk_subtrees, in this process for a single entry
    or a single worker.
    """
    _check_int("workers", workers, 1)
    budget = config.node_budget
    prefix = _OPENING if config.symmetry_reduction else ()
    frontier = [] if config.mode is SearchMode.COUNT and budget is None else None
    first, count, nodes = _explore(config.dim, config.mode, prefix, node_budget=budget, frontier=frontier)
    if frontier:
        prefixes, factors = zip(*frontier)
        results = _walk_subtrees(config.dim, config.mode, prefixes, workers)
        for copies, (_, sub_count, sub_nodes) in zip(factors, results):
            count += copies * sub_count
            nodes += copies * sub_nodes
    return _outcome(config, first, count, nodes)


def _walk_subtrees(dim: int, mode: SearchMode, prefixes: tuple, workers: int) -> list:
    """[_explore(dim, mode, prefix) for prefix in prefixes], on min(workers, len(prefixes)) processes.

    With one, the walks run in this process: a pool of one worker would
    only add its start-up to the same walks.  Every count at n <= 4 has at
    most one frontier entry, so only larger ones start a pool.
    """
    walk = partial(_explore, dim, mode)
    processes = min(workers, len(prefixes))
    if processes == 1:
        return list(map(walk, prefixes))
    # imported here: it pulls in multiprocessing, which no other command needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(walk, prefixes))


def search_randomized(dim: int, seed: int = 0) -> SearchOutcome:
    """Find some ternary permutation quickly: ascending walks below seeded random prefixes.

    Ascending order pays for its smallest-solution guarantee: at dimension
    6 the first solution in that order sits beyond any practical budget
    (an optimized native mirror of the kernel passed 10**11 nodes without
    reaching it).  Solutions themselves are plentiful, so attempt i draws
    a prefix with random.Random(seed + i): after (1, 2), each open slot but
    the last _TAIL gets a word drawn uniformly among those assignable there
    (unused, with an unused forced follower), and the kernel walks the tree
    below it in ascending order, within _ATTEMPT_BUDGET nodes.  Dimensions
    2 to 4 have at most _TAIL open slots, so nothing is drawn: the first
    attempt walks the whole reduced tree and its answer is final, sequence
    None at 3 and 4.  When all _ATTEMPTS attempts find nothing, raises a
    BudgetExhaustedError over their nodes: "all 64 attempts exhausted after N nodes".
    """
    config = SearchConfig(dim, symmetry_reduction=True, node_budget=_ATTEMPT_BUDGET)
    _check_int("seed", seed, 0)
    drawn = _free_positions(dim)[len(_OPENING) : -_TAIL]
    total_nodes = 0
    for attempt in range(_ATTEMPTS):
        rng = random.Random(seed + attempt)
        prefix = _OPENING
        for p in drawn:
            seq, used, _ = _apply_prefix(dim, prefix)
            prev = seq[p - 1]
            assignable = [w for w in range(1, 1 << dim) if not (used >> w | used >> (w ^ prev)) & 1]
            if not assignable:  # a dead slot: the walk below counts its tries
                break
            prefix += (rng.choice(assignable),)
        try:
            first, count, nodes = _explore(dim, config.mode, prefix, node_budget=config.node_budget)
        except BudgetExhaustedError as exc:
            total_nodes += exc.nodes_explored
            continue
        total_nodes += nodes
        if first is not None or not drawn:
            return _outcome(config, first, count, total_nodes)
    raise BudgetExhaustedError(total_nodes, f"all {_ATTEMPTS} attempts")


def naive_count(dim: int) -> int:
    """Count solutions by filtering every permutation of the nonzero words.

    No pruning and no shared code with the search kernel, which is the
    point: this is the independent cross-check.  Feasible for dim <= 3
    (at most 7! candidates).
    """
    _check_int("dim", dim, 2, 3)
    size = (1 << dim) - 1
    total = 0
    for perm in permutations(range(1, size + 1)):
        for i in range(2, size, 2):
            if perm[i - 2] ^ perm[i - 1] ^ perm[i]:
                break
        else:
            total += 1
    return total


def lemma_n3() -> bool:
    """XOR of all seven nonzero 3-bit words is zero.

    This is the counting fact behind the dimension-3 impossibility: the
    whole sequence XORs to zero, so if both outer triples vanished the
    middle word would have to be zero, which no entry is.
    """
    return reduce(xor, range(1, 8)) == 0


class ImpossibilityCertificate(_Frozen):
    """Record of an exhaustive nonexistence run, printable as key=value lines."""

    dim: int
    nonexistent: bool
    symmetry_reduction: bool
    nodes_explored: int
    cross_check_unreduced_nodes: Optional[int] = None
    total_xor_zero: Optional[bool] = None
    verifier_version: str = VERSION

    def to_text(self) -> str:
        """One key=value line per field in declaration order; None fields are left out."""
        lines = []
        for name in self._fields:
            value = getattr(self, name)
            if value is not None:
                if isinstance(value, bool):
                    value = "true" if value else "false"
                lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"


def prove_impossibility(dim: int) -> ImpossibilityCertificate:
    """Exhaustively confirm that no ternary permutation exists at dim 3 or 4.

    Runs the reduced search to completion; at dimension 3, where the
    space is tiny, an unreduced traversal and the XOR-sum lemma are run
    as cross-checks and recorded in the certificate.  The traversal is an
    unscaled kernel walk of the whole tree: a scaled one would rest on
    the same symmetry argument it is meant to check.
    """
    _check_int("dim", dim, 3, 4)
    reduced = search(SearchConfig(dim, SearchMode.FIRST, True))
    cross_nodes = None
    lemma = None
    if dim == 3:
        _, count, cross_nodes = _explore(dim, SearchMode.FIRST, (), scale=False)
        if (count == 0) != (reduced.sequence is None):  # soundness tripwire
            raise RuntimeError("reduced and unreduced searches disagree")
        lemma = lemma_n3()
    return ImpossibilityCertificate(
        dim=dim,
        nonexistent=reduced.sequence is None,
        symmetry_reduction=True,
        nodes_explored=reduced.nodes_explored,
        cross_check_unreduced_nodes=cross_nodes,
        total_xor_zero=lemma,
    )
