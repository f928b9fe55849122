"""Closed-form cohomology of line bundles on a product of projective spaces.

On a single factor P^n only two groups of O(a) can be nonzero, h^0 for
a >= 0 and h^n for a <= -n-1, and everything in between vanishes.
factor_group is the one place that decides which: it returns (q, x), and
h^q = C(x+n, n), the number of compositions of x into n+1 parts, which
are the exponent vectors of the group's Bott classes.  On a product the
Kunneth formula multiplies the factor contributions, so O(a_1, ..., a_t)
has at most one nonzero group, in the sum of the factors' degrees q, and
only when every factor has a group.

Dimensions of line-bundle cohomology do not depend on the base field.
"""

import math


def factor_group(n, a):
    """(q, x) for the one group h^q = C(x+n, n) of O(a) on P^n that can be
    nonzero: (0, a) when a >= 0, (n, -a-n-1) when a <= -n-1, and None in
    between, where every group vanishes."""
    if a >= 0:
        return 0, a
    if a <= -n - 1:
        return n, -a - n - 1
    return None


def line_bundle_h(space, a):
    """Cohomology vector (h^0, ..., h^m) of O(a) on the product: by Kunneth,
    the product of the factor groups, in the sum of their degrees."""
    a = space.degree(a)
    h = [0] * (space.m + 1)
    groups = [factor_group(n, aj) for n, aj in zip(space.factor_dims, a)]
    if None not in groups:
        h[sum(q for q, _ in groups)] = math.prod(
            math.comb(x + n, n) for n, (_, x) in zip(space.factor_dims, groups))
    return tuple(h)


def kunneth_window(space, window, terms):
    """{a: [h^0, ..., h^m]} over the window, in its twist order, of the sum of
    O(b)^mult placed in degree shift over the entries (shift, b, mult) of
    terms.  Each term's factor groups are tabulated once per window
    coordinate, and only the twists where every factor has a group are
    multiplied out; an index outside 0..m is dropped."""
    space.degree(window.lo)  # a window of the wrong length is refused, not truncated
    m = space.m
    out = {a: [0] * (m + 1) for a in window.twists()}
    for shift, b, mult in terms:
        cells = [((), shift, mult)]  # (twist prefix, degree, dimension)
        for n, bj, lo, hi in zip(space.factor_dims, space.degree(b), window.lo, window.hi):
            col = [(c, q, math.comb(x + n, n)) for c in range(lo, hi + 1)
                   if (group := factor_group(n, c + bj)) for q, x in [group]]
            cells = [(a + (c,), i + q, h * dim) for a, i, h in cells for c, q, dim in col]
        for a, i, h in cells:
            if 0 <= i <= m:
                out[a][i] += h
    return out
