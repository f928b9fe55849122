"""Closed-form cohomology of line bundles on a product of projective spaces.

On a single factor P^n only two groups of O(a) can be nonzero:

    h^0 = C(a+n, n)   for a >= 0,
    h^n = C(-a-1, n)  for a <= -n-1,

and everything in between vanishes.  On a product the Kunneth formula
multiplies the factor contributions, so O(a_1, ..., a_t) has at most one
nonzero group, in degree sum(n_j) over the set S of factors whose twist is
in the top range, and only when every factor outside S has a_j >= 0.

Dimensions of line-bundle cohomology do not depend on the base field.
"""

import math


def factor_group(n, a):
    """(q, h^q) of the one group of O(a) on P^n that can be nonzero, q = 0 or
    n, or None when every group vanishes."""
    if a >= 0:
        return 0, math.comb(a + n, n)
    if a <= -n - 1:
        return n, math.comb(-a - 1, n)
    return None


def line_bundle_h(space, a):
    """Cohomology vector (h^0, ..., h^m) of O(a) on the product: by Kunneth,
    the product of the factor groups, in the sum of their degrees."""
    a = space.degree(a)
    h = [0] * (space.m + 1)
    groups = [factor_group(n, aj) for n, aj in zip(space.factor_dims, a)]
    if None not in groups:
        h[sum(q for q, _ in groups)] = math.prod(dim for _, dim in groups)
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
            col = [(x,) + group for x in range(lo, hi + 1) if (group := factor_group(n, x + bj))]
            cells = [(a + (x,), i + q, h * dim) for a, i, h in cells for x, q, dim in col]
        for a, i, h in cells:
            if 0 <= i <= m:
                out[a][i] += h
    return out


def signature(space, a):
    """Sparse view of line-bundle cohomology.

    Returns None when every group vanishes, otherwise (i, S) with i the
    unique nonzero cohomological index and S the frozenset of factors whose
    twist sits in the top range.  Intermediate means 0 < i < m.
    """
    a = space.degree(a)
    neg = frozenset(
        j for j, (nj, aj) in enumerate(zip(space.factor_dims, a)) if aj <= -nj - 1
    )
    for j, aj in enumerate(a):
        if j not in neg and aj < 0:
            return None
    i = sum(space.factor_dims[j] for j in neg)
    return (i, neg)


def is_intermediate(space, sig):
    return sig is not None and 0 < sig[0] < space.m
