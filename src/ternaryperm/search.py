"""Backtracking search for ternary permutations, with forced-move pruning.

The defining conditions leave little freedom: once positions j - 1 and j
are chosen for an even j, the word at j + 1 must be their XOR.  The open
choices are position 1 and the even positions, 2**(n-1) slots in all; the
search branches only there and fills each forced follower immediately.
"""

from __future__ import annotations

__all__ = [
    "MAX_SEARCH_DIM", "BudgetExhaustedError", "ImpossibilityCertificate", "SearchConfig",
    "SearchMode", "SearchOutcome", "canonical_prefix", "lemma_n3", "naive_count",
    "prove_impossibility", "search", "search_parallel", "search_randomized",
]

import random
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from itertools import permutations
from math import inf, prod
from typing import Optional

from ._version import VERSION
from .sequences import TernarySequence, verify
from .words import Word, total_xor

#: Exhaustive search stays desk-scale up to here; raise at your own risk.
MAX_SEARCH_DIM = 6

#: Applied in first mode at dimensions 5 and 6 when no budget is given.
DEFAULT_FIRST_MODE_BUDGET = 10**9

#: search_randomized's tuning: shuffle attempts, node budget per attempt.
_ATTEMPTS = 64
_ATTEMPT_BUDGET = 2_000_000

#: The opening that symmetry reduction pins in the first two open slots
#: (see canonical_prefix).
_OPENING = (1, 2)


class SearchMode(Enum):
    FIRST = "first"
    COUNT = "count"
    PROVE_NONE = "prove_none"


class BudgetExhaustedError(Exception):
    """The node budget ran out before the search reached a conclusive answer."""

    def __init__(self, nodes_explored: int):
        super().__init__(f"node budget exhausted after {nodes_explored} nodes")
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class SearchConfig:
    """What to search for and how hard to try.

    count and prove_none answers require exhaustive traversal, so hitting
    the node budget in those modes raises rather than returning a guess.
    """

    dim: int
    mode: SearchMode = SearchMode.FIRST
    symmetry_reduction: bool = False
    node_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SearchMode):
            object.__setattr__(self, "mode", SearchMode(self.mode))
        if not 2 <= self.dim <= MAX_SEARCH_DIM:
            raise ValueError(f"search dimension must be in [2, {MAX_SEARCH_DIM}], got {self.dim}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node budget must be positive, got {self.node_budget}")


@dataclass(frozen=True)
class SearchOutcome:
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
    nodes per second counts these credited nodes too.  Fields other than
    the one matching the mode stay None.
    """

    dim: int
    mode: SearchMode
    symmetry_reduction: bool
    nodes_explored: int
    sequence: Optional[TernarySequence] = None
    count: Optional[int] = None
    nonexistent: Optional[bool] = None


def canonical_prefix(dim: int) -> tuple[Word, Word]:
    """The fixed opening pair (decimal 1, decimal 2) used under symmetry reduction.

    Pinning the first two entries loses no generality for existence
    questions.  The defining conditions are XOR equations, so any
    invertible linear map of GF(2)^n carries ternary permutations to
    ternary permutations; the first two entries of any candidate are
    distinct and nonzero, hence linearly independent, and some invertible
    map takes them to this pair.  Solution counts are another matter:
    a reduced count covers only sequences opening with (1, 2) and is
    reported as such, never scaled up.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return Word(_OPENING[0], dim), Word(_OPENING[1], dim)


def _free_positions(dim: int) -> list[int]:
    size = (1 << dim) - 1
    return [1] + list(range(2, size, 2))


def _apply_prefix(dim: int, prefix: tuple[int, ...]):
    """Fill the leading open slots with fixed values, forced moves included.

    Returns (seq, used) on success, where seq is 1-based position storage
    and used is a bitmask over word values, or None if the prefix is
    inconsistent (a repeated word, or a forced follower already taken).
    """
    size = (1 << dim) - 1
    free = _free_positions(dim)
    if len(prefix) > len(free):
        raise ValueError(f"prefix longer than the {len(free)} open slots")
    seq = [0] * (size + 1)
    used = 0
    for slot, w in enumerate(prefix):
        if not 1 <= w <= size:
            raise ValueError(f"prefix value {w} out of range [1, {size}]")
        m = 1 << w
        if used & m:
            return None
        p = free[slot]
        if p & 1:
            seq[p] = w
            used |= m
            continue
        f = seq[p - 1] ^ w  # nonzero: seq[p - 1] is a different used word
        fm = 1 << f
        if used & fm:
            return None
        seq[p] = w
        seq[p + 1] = f
        used |= m | fm
    return seq, used


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


def _span_limit(used: int) -> Optional[int]:
    """lim = 2**r if the words in the bitmask used span exactly {0, ..., lim - 1}, else None.

    That is, the rank of the used words equals the bit length of the
    largest one: the words are in normal form.
    """
    span = {0}
    for w in range(1, used.bit_length()):
        if used >> w & 1 and w not in span:
            span |= {x ^ w for x in span}
    return len(span) if max(span) < len(span) else None


def _explore(
    dim: int,
    mode: SearchMode,
    prefix: tuple[int, ...] = (),
    node_budget: Optional[int] = None,
    orders: Optional[list[list[int]]] = None,
    scale: bool = True,
    frontier: Optional[list] = None,
):
    """Depth-first scan of every ternary permutation extending `prefix`.

    prefix fixes the values of the leading open slots and costs no nodes.
    orders[i] lists the candidates for open slot len(prefix) + i in the
    order they are tried, and must hold each of 1 .. 2**dim - 1 once;
    None means ascending decimal order at every slot, so with an empty
    prefix the first full assignment found is the smallest solution in
    decimal-tuple order.  The tree is the same whatever the order: a full
    traversal (count mode, or one that finds nothing) gives the same count
    and nodes, and only where it stops depends on the order.  nodes counts
    candidates assigned at open slots, including ones whose forced follower
    collides; candidates whose word is already in use do not count.  Going
    past node_budget raises BudgetExhaustedError(node_budget + 1).  Stops
    at the first solution except in count mode.  Returns (first solution
    as decimals or None, solution count so far, nodes).

    A slot works on two bitmasks, not candidate by candidate: free holds
    the unused words and ok those of them whose forced follower (the word
    XOR the one before it) is unused too.  The lowest bit of ok is the next
    assignment; every free bit up to it is a candidate tried on the way,
    so nodes grows by their bit count.  Given orders, both masks are
    re-indexed on slot entry so that bit r stands for the slot's r-th
    candidate, which makes the lowest bit the next one in that order.

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
    nodes do not depend on the order, and the count, the nodes and the
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
    same count and nodes (the tree does not depend on the order).  So the
    slot tries its unused words inside the span as before, then lim, the
    smallest word outside, and no other: its free and ok masks keep bits
    1 .. lim only, so lim is its last candidate.  When lim's subtree is
    finished and the slot is exhausted, with nodes and count saved just
    before lim's own node, nodes = saved + M * (nodes - saved), count
    likewise, and the budget is checked (the scan passes every total up
    to that one while it walks the copies).  An ascending scan tries
    every word inside the span (all below lim) before lim, and lim before
    the other M - 1, so it stops under lim exactly when it would stop under
    the first outside word: the first solution, the node total at a stop
    and every budget error are the scan's.  Assigning lim doubles the
    span, so the slots below it have lim doubled; a word inside the span
    leaves it as it is.  The follower translate and the two in-place adds
    above use the unmasked masks: those adds count whole subtrees.  From
    an empty prefix the factors M along the walk are N, N - 1, N - 3, ...,
    2**dim - 2**(dim - 1), whose product is |GL(dim, 2)|.  Scaling runs
    only with scale true, orders None and a prefix in normal form (see
    _span_limit); otherwise the walk is plain.

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
    seq, used = applied
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
    lim = size + 1
    if scale and orders is None:
        lim = _span_limit(used) or lim
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
    while True:
        if orders is not None:  # slot d was just entered
            order = orders[d - start]
            free = sum(1 << r for r, w in enumerate(order) if free >> w & 1)
            ok = sum(1 << r for r, w in enumerate(order) if ok >> w & 1)
        elif lim <= size:  # the span is not full: lim stands for every word outside it
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
            if orders is not None:
                w = orders[d - start][w]
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
        report = verify(sequence)
        if not report.valid:
            raise RuntimeError(f"search returned an invalid sequence: {report.failure}")
    return SearchOutcome(
        dim=config.dim,
        mode=config.mode,
        symmetry_reduction=config.symmetry_reduction,
        nodes_explored=nodes,
        sequence=sequence,
        count=count if config.mode is SearchMode.COUNT else None,
        nonexistent=count == 0 if config.mode is SearchMode.PROVE_NONE else None,
    )


def search(config: SearchConfig) -> SearchOutcome:
    """Run the configured search to completion (or budget exhaustion).

    Mode semantics: first returns the smallest solution in candidate
    order, or none after exhausting the space; count returns the exact
    number of solutions found (of the reduced space when reduction is
    on); prove_none reports True only after a full traversal finds
    nothing, and short-circuits to False on the first solution.  One
    scaled kernel walk from the empty prefix, or from (1, 2) when reduced,
    gives the answer: wherever the span of the used words grows, it walks
    one word outside the span and credits its subtree once per word of
    that word's GL(n,2) orbit (see _explore), so every answer and node
    total is the one a scan of the whole tree gives.
    """
    budget = config.node_budget
    if budget is None and config.mode is SearchMode.FIRST and config.dim >= 5:
        budget = DEFAULT_FIRST_MODE_BUDGET
    prefix = _OPENING if config.symmetry_reduction else ()
    return _outcome(config, *_explore(config.dim, config.mode, prefix, budget))


def search_parallel(config: SearchConfig, workers: int) -> SearchOutcome:
    """Hand the scaled walk's frontier out to worker processes.

    The frontier is the set of walked prefixes at which the span of the
    used words first fills GF(2)^n, each with the factor its subtree is
    credited by (see _explore); below them nothing scales.  Each worker
    walks one entry's subtree, and the total is the walk above the
    frontier plus the sum of factor times each entry's count and nodes.
    Only count and prove_none run here: their per-subtree results merge
    by plain addition, so completion order does not matter.  first mode
    stays sequential to keep its smallest-solution guarantee.  Node totals
    match the sequential search exactly, except that prove_none workers
    cannot short-circuit each other, so when solutions exist the parallel
    total may be higher.
    """
    if config.mode is SearchMode.FIRST:
        raise ValueError("first mode is sequential; use search()")
    if config.node_budget is not None:
        raise ValueError("node budgets do not split across workers; run sequentially")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    frontier = []
    prefix = _OPENING if config.symmetry_reduction else ()
    first, count, nodes = _explore(config.dim, config.mode, prefix, frontier=frontier)
    if frontier:
        # imported here: it pulls in multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        prefixes, factors = zip(*frontier)
        with ProcessPoolExecutor(max_workers=min(workers, len(frontier))) as pool:
            results = pool.map(partial(_explore, config.dim, config.mode), prefixes)
            for copies, (_, sub_count, sub_nodes) in zip(factors, results):
                count += copies * sub_count
                nodes += copies * sub_nodes
    return _outcome(config, first, count, nodes)


def search_randomized(dim: int, seed: int = 0) -> SearchOutcome:
    """Find some ternary permutation quickly via seeded random candidate order.

    Ascending order pays for its smallest-solution guarantee: at dimension
    6 the first solution in that order sits beyond any practical budget
    (an optimized native mirror of the kernel passed 10**11 nodes without
    reaching it).  Solutions themselves are plentiful, so visiting
    candidates in a seeded shuffled order finds one within a few hundred
    thousand nodes.  Deterministic for a fixed seed: attempt i shuffles
    with seed + i, so reruns are bit-identical.  An attempt that finishes
    its tree proves the answer, which does not depend on the order: at
    dimensions 3 and 4 the outcome has sequence None.  Raises
    BudgetExhaustedError only after every attempt runs out.
    """
    config = SearchConfig(dim, symmetry_reduction=True, node_budget=_ATTEMPT_BUDGET)
    prefix = _OPENING
    size = (1 << dim) - 1
    n_open = len(_free_positions(dim)) - len(prefix)
    total_nodes = 0
    for attempt in range(_ATTEMPTS):
        rng = random.Random(seed + attempt)
        orders = [rng.sample(range(1, size + 1), size) for _ in range(n_open)]
        try:
            first, count, nodes = _explore(dim, config.mode, prefix, config.node_budget, orders)
        except BudgetExhaustedError as exc:
            total_nodes += exc.nodes_explored
            continue
        return _outcome(config, first, count, total_nodes + nodes)
    raise BudgetExhaustedError(total_nodes)


def naive_count(dim: int) -> int:
    """Count solutions by filtering every permutation of the nonzero words.

    No pruning and no shared code with the search kernel, which is the
    point: this is the independent cross-check.  Feasible for dim <= 3
    (at most 7! candidates).
    """
    if not 2 <= dim <= 3:
        raise ValueError(f"naive filtering is feasible for dimensions 2 and 3, got {dim}")
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
    return total_xor(3).is_zero


@dataclass(frozen=True)
class ImpossibilityCertificate:
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
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                if isinstance(value, bool):
                    value = "true" if value else "false"
                lines.append(f"{field.name}={value}")
        return "\n".join(lines) + "\n"


def prove_impossibility(dim: int) -> ImpossibilityCertificate:
    """Exhaustively confirm that no ternary permutation exists at dim 3 or 4.

    Runs the reduced search to completion; at dimension 3, where the
    space is tiny, an unreduced traversal and the XOR-sum lemma are run
    as cross-checks and recorded in the certificate.  The traversal is an
    unscaled kernel walk of the whole tree: a scaled one would rest on
    the same symmetry argument it is meant to check.
    """
    if dim not in (3, 4):
        raise ValueError(f"exhaustive impossibility runs cover dimensions 3 and 4, got {dim}")
    reduced = search(SearchConfig(dim=dim, mode=SearchMode.PROVE_NONE, symmetry_reduction=True))
    cross_nodes = None
    lemma = None
    if dim == 3:
        _, count, cross_nodes = _explore(dim, SearchMode.PROVE_NONE, (), scale=False)
        if (count == 0) != reduced.nonexistent:  # soundness tripwire
            raise RuntimeError("reduced and unreduced searches disagree")
        lemma = lemma_n3()
    return ImpossibilityCertificate(
        dim=dim,
        nonexistent=bool(reduced.nonexistent),
        symmetry_reduction=True,
        nodes_explored=reduced.nodes_explored,
        cross_check_unreduced_nodes=cross_nodes,
        total_xor_zero=lemma,
    )
