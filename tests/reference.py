"""Test-only references: the routes the tests cross the package against.

The truncated Cech route computes hypercohomology from the total complex
of Cech (x) C with no Bott classes and no perturbation series.  In a fixed
multidegree the section spaces are infinite-dimensional, so it cuts
exponents below a per-factor depth chosen to keep every top-cohomology
monomial of every summand, builds the total complex with the Cech
coboundary and polynomial multiplication as its two differentials as
sparse rows, eliminates it with linalg.rank_sparse over F_p or Q, and
recomputes one depth deeper.  If the two answers disagree it raises
TruncationInstability rather than reporting a wrong number.

cell_table stores a table's cells one at a time with set_cell, the
reference of the tables the engine writes a vector at a time.

Beside it: the rank of a dense matrix, through the package's one sparse
elimination; intermediate_k_range, the per-twist scan over k that
lattice.safe_region must agree with; the monomial basis of a multidegree
(monomials, from compositions), which counts h^0 of a line bundle
independently of bott; and Euler characteristics from polynomial
binomials (euler_characteristic, poly_binom) with the Serre dual twist
(serre_dual_twist), the closed forms bott's vectors are checked against.
"""

import itertools
import math
from operator import add

from prodcoh import bott, linalg, minmodel
from prodcoh.cech import EngineCheckFailed
from prodcoh.lattice import LatticeError, Polarization, canonical_twist, vadd, vscale
from prodcoh.tate import CohomologyTable


class TruncationInstability(EngineCheckFailed):
    """The truncated answer changed when the depth was raised by one."""


def cover_sets(n):
    """Nonempty subsets of {0..n} as sorted tuples, ordered by (size, lex)."""
    out = []
    for size in range(1, n + 2):
        out.extend(itertools.combinations(range(n + 1), size))
    return tuple(out)


def cover_indices(space):
    """All products of per-factor cover sets, in a fixed deterministic order."""
    return tuple(itertools.product(*[cover_sets(n) for n in space.factor_dims]))


def cech_degree(idx):
    return sum(len(S) - 1 for S in idx)


def factor_monomials(n, deg, inverted, depth):
    """Exponent tuples e of length n+1 with sum(e) = deg, e_i >= -depth on
    the inverted variables and e_i >= 0 elsewhere, in lexicographic order."""
    inverted = set(inverted)
    lows = [-depth if i in inverted else 0 for i in range(n + 1)]
    suffix_low = [0] * (n + 2)
    for i in range(n, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
    out = []

    def rec(i, remaining, prefix):
        if i == n:
            if remaining >= lows[i]:
                out.append(prefix + (remaining,))
            return
        hi = remaining - suffix_low[i + 1]
        for e in range(lows[i], hi + 1):
            rec(i + 1, remaining - e, prefix + (e,))

    rec(0, deg, ())
    return tuple(out)


def cech_basis(space, b, idx, a, depths):
    """Laurent-monomial basis of the summand O(b) in twist a over the open
    given by a cover index: per-factor monomials of degree a_j + b_j with
    negatives only on the inverted variables, cut at the factor depth."""
    delta = vadd(space.degree(a), space.degree(b))
    per_factor = [
        factor_monomials(n, dj, S, depth)
        for n, dj, S, depth in zip(space.factor_dims, delta, idx, depths)
    ]
    return tuple(itertools.product(*per_factor))


def default_depths(space, deltas):
    """Smallest safe truncation depths for the given section multidegrees:
    deep enough that every all-negative (top cohomology) monomial of every
    summand survives in every factor."""
    depths = []
    for j, nj in enumerate(space.factor_dims):
        need = 1
        for delta in deltas:
            need = max(need, -delta[j] - nj)
        depths.append(need)
    return tuple(depths)


def _insert_sign(v, new_set):
    return -1 if new_set.index(v) % 2 else 1


def _prefix_sign(idx, j):
    return -1 if sum(len(S) - 1 for S in idx[:j]) % 2 else 1


def _coboundary(space, idx):
    """The Cech coboundary out of a cover index: (target index, sign) for
    each vertex v added to one factor's set S_j."""
    out = []
    for j, Sj in enumerate(idx):
        pref = _prefix_sign(idx, j)
        for v in range(space.factor_dims[j] + 1):
            if v not in Sj:
                newS = tuple(sorted(Sj + (v,)))
                out.append((idx[:j] + (newS,) + idx[j + 1 :], pref * _insert_sign(v, newS)))
    return out


# ---------------------------------------------------------------------------
# Assembled route for complexes with differentials.


def _total_bases(C, a, depths):
    space = C.space
    idxs = cover_indices(space)
    bases = {}
    place = {}
    for p in C.degrees:
        summands = C.summands(p)
        for ii, idx in enumerate(idxs):
            k = p + cech_degree(idx)
            lst = bases.setdefault(k, [])
            for s, b in enumerate(summands):
                for mono in cech_basis(space, b, idx, a, depths):
                    place[(p, ii, s, mono)] = len(lst)
                    lst.append((p, ii, s, mono))
    return idxs, bases, place


def _total_matrices(C, a, depths):
    """Ordered bases and differential matrices of Tot(Cech (x) C) in twist a.

    The differential out of bidegree (p, q) is the polynomial map of the
    complex plus (-1)^p times the Cech coboundary; both preserve the
    per-variable exponent bounds, so the truncated spaces form an honest
    subcomplex.  Each matrix is a list of sparse rows, one per target basis
    element, each a {column: nonzero field value} dict.
    """
    field = C.field
    idxs, bases, place = _total_bases(C, a, depths)
    idx_pos = {idx: ii for ii, idx in enumerate(idxs)}
    # Cech targets of each cover index, with the field value of the sign
    # for even and for odd p.
    cob = [
        [(idx_pos[t], (field.coerce(sign), field.coerce(-sign)))
         for t, sign in _coboundary(C.space, idx)]
        for idx in idxs
    ]
    poly = minmodel.polynomial_maps(C)
    mats = {}
    for k in sorted(bases):
        # No (row, column) pair gets two contributions: Cech targets keep p,
        # polynomial targets move to p + 1, and distinct terms give distinct
        # monomials.
        rows = [{} for _ in bases.get(k + 1, [])]
        for col, (p, ii, s, mono) in enumerate(bases[k]):
            for ii2, signs in cob[ii]:
                rows[place[(p, ii2, s, mono)]][col] = signs[p % 2]
            for r, terms in poly[(p, s)]:
                for ev, coeff in terms:
                    prod = tuple(tuple(map(add, b1, b2)) for b1, b2 in zip(mono, ev))
                    rows[place[(p + 1, ii, r, prod)]][col] = coeff
        mats[k] = rows
    return bases, mats


def _assembled_h(C, a, depths):
    bases, mats = _total_matrices(C, a, depths)
    ranks = {k: linalg.rank_sparse(rows, C.field) for k, rows in mats.items()}
    return tuple(
        len(bases.get(i, [])) - ranks.get(i, 0) - ranks.get(i - 1, 0)
        for i in range(C.space.m + 1)
    )


def _complex_depths(C, a):
    deltas = [vadd(a, b) for p in C.degrees for b in C.summands(p)]
    return default_depths(C.space, deltas or [a])


def assembled_hypercohomology(C, a):
    """Hypercohomology from the truncated total complex, with the depth
    stability re-check: the reference the tests cross the engine against."""
    a = C.space.degree(a)
    depths = _complex_depths(C, a)
    h1 = _assembled_h(C, a, depths)
    h2 = _assembled_h(C, a, tuple(d + 1 for d in depths))
    if h1 != h2:
        raise TruncationInstability(
            "truncation depth %r too shallow at twist %r: %r vs %r"
            % (depths, a, h1, h2)
        )
    return h1


def rank(rows, ncols, field):
    """Rank of a matrix given as a list of dense rows over the field."""
    return linalg.rank_sparse(_sparse(rows, field), field)


def _sparse(rows, field):
    out = []
    for row in rows:
        entries = {}
        for j, x in enumerate(row):
            x = field.coerce(x)
            if x:
                entries[j] = x
        out.append(entries)
    return out


def intermediate_k_range(space, d, a):
    """All integers k for which O(kH)(a) has nonzero intermediate cohomology.

    Mixing needs one factor in the global-sections range (k*d_j + a_j >= 0)
    and another in the top range (k*d_i + a_i <= -n_i - 1), which pins k to
    the interval [min_j ceil(-a_j/d_j), max_i floor((-a_i-n_i-1)/d_i)].
    Every k in that interval is tested exactly; outside it no factor pair
    can have opposite signs.  Returns a sorted tuple, possibly empty.
    """
    a = space.degree(a)
    dd = d.d if isinstance(d, Polarization) else Polarization(d).d
    if len(dd) != space.t:
        raise LatticeError("polarization length does not match space")
    lo = min(-(aj // dj) for aj, dj in zip(a, dd))
    hi = max((-aj - nj - 1) // dj for aj, nj, dj in zip(a, space.factor_dims, dd))
    ks = []
    for k in range(lo, hi + 1):
        if any(bott.line_bundle_h(space, vadd(vscale(k, dd), a))[1:space.m]):
            ks.append(k)
    return tuple(ks)


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials(space, degree):
    """All exponent vectors of the given multidegree, lexicographic order.

    An exponent vector is a tuple of per-factor exponent tuples.  Empty when
    some coordinate of the degree is negative.
    """
    degree = space.degree(degree)
    if any(dj < 0 for dj in degree):
        return ()
    per_factor = [
        tuple(compositions(dj, nj + 1))
        for dj, nj in zip(degree, space.factor_dims)
    ]
    return tuple(itertools.product(*per_factor))


def poly_binom(x, n):
    """C(x, n) as the degree-n polynomial x(x-1)...(x-n+1)/n!, any integer x.

    Used for Euler characteristics, where the polynomial extension avoids
    the sign ambiguity of negative-argument binomials.
    """
    num = 1
    for i in range(n):
        num *= x - i
    return num // math.factorial(n)


def euler_characteristic(space, a):
    """chi(O(a)) = prod_j C(a_j + n_j, n_j), polynomial binomials."""
    a = space.degree(a)
    chi = 1
    for nj, aj in zip(space.factor_dims, a):
        chi *= poly_binom(aj + nj, nj)
    return chi


def serre_dual_twist(space, a):
    """The twist paired with a under Serre duality: -a + canonical."""
    return tuple(w - x for w, x in zip(canonical_twist(space), space.degree(a)))


def cell_table(T):
    """A table holding T's cells, stored one at a time with set_cell."""
    U = CohomologyTable(T.space, T.window)
    for a, h in T.rows().items():
        for i, dim in enumerate(h):
            U.set_cell(a, i, dim)
    return U
