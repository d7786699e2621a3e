"""A second construction, n -> n + 1, that shares no code with lift().

Take ternary permutations s and t of dimension n with s_N = t_1, and a
map a from the nonzero words to {0, 1} that sums to 0 over each triple
of s and to 1 over each triple of t.  Then

    (s_i << 1 | a(s_i))_i,  1,  (t_i << 1 | 1 ^ a(t_i))_i

is a ternary permutation of dimension n + 1:

* every word x << 1 appears with both low bits, and 1 is 0 << 1 | 1;
* the triples of the first block XOR to (s's triple) << 1 | 0;
* the middle triple is (x << 1 | a, 1, x << 1 | 1 ^ a) with x = s_N = t_1;
* the second block starts at the odd position N + 2, so its even
  positions are t's, and its triples XOR to (t's triple) << 1 | 0.

Here t = g.rev(s) for a seeded random g in GL(n, 2) that fixes s_N, and
a is found by GF(2) elimination; most draws admit no a, so the helper
draws again.  (g, a) is a small certificate for the output.
"""

import random

from ternaryperm.catalog import default_store
from ternaryperm.sequences import TernarySequence, verify


def apply(columns, x):
    """g(x) for the linear map whose image of bit b is columns[b]."""
    image = 0
    for b, column in enumerate(columns):
        if x >> b & 1:
            image ^= column
    return image


def draw_fixing(rng, dim, fixed):
    """A random linear map of GF(2)^dim that sends fixed to itself, as its columns.

    Bit p is one bit set in fixed; every other column is drawn at random
    and column p is then the one that sends fixed to fixed.  The map may
    be singular; the caller sees that as a repeated image.
    """
    p = fixed.bit_length() - 1
    columns = [rng.getrandbits(dim) for _ in range(dim)]
    columns[p] = 0
    columns[p] = fixed ^ apply(columns, fixed ^ 1 << p)
    return columns


def triples(values):
    """The triples centred at the even 1-based positions of values."""
    return zip(values[0:-2:2], values[1::2], values[2::2])


def solve_a(s, t):
    """An a over the nonzero words with the triple sums the construction needs, or None.

    a is the int whose bit w is a(w).  Each equation is one int row:
    bit w for each word of a triple, and bit 0 for the right-hand side
    (0 for a triple of s, 1 for one of t).  Rows are reduced at their top
    bit; free variables are 0, and each pivot variable is then set from
    the lower ones.
    """
    rows = [1 << x | 1 << y | 1 << z for x, y, z in triples(s)]
    rows += [1 << x | 1 << y | 1 << z | 1 for x, y, z in triples(t)]
    pivots = {}
    for row in rows:
        while row > 1:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
        if row == 1:  # 0 = 1: no a exists
            return None
    a = 0
    for top in sorted(pivots):
        row = pivots[top]
        if (row ^ (row & a).bit_count()) & 1:
            a |= 1 << top
    return a


def double(s, rng, max_draws=10_000):
    """A ternary permutation of dimension dim + 1 from s, and the draws it took."""
    dim, values = s.dim, s.decimals
    for draws in range(1, max_draws + 1):
        g = draw_fixing(rng, dim, values[-1])
        t = [apply(g, x) for x in reversed(values)]
        if len(set(t)) < len(t):  # g is singular
            continue
        a = solve_a(values, t)
        if a is not None:
            out = [x << 1 | a >> x & 1 for x in values]
            out.append(1)
            out += [x << 1 | 1 ^ a >> x & 1 for x in t]
            return TernarySequence.from_decimals(dim + 1, out), draws
    raise AssertionError(f"no a found in {max_draws} draws at n={dim}")


def test_the_doubling_lift_builds_verified_n6_and_n7_from_the_n5_base_case():
    rng = random.Random(0)
    seq = default_store().get(5)
    for dim in (6, 7):
        seq, draws = double(seq, rng)
        assert seq.dim == dim
        assert verify(seq) is None, (dim, draws, verify(seq))

