"""Cech cohomology on a product of projective spaces, by exact linear algebra.

Each factor P^n carries its standard affine cover U_0, ..., U_n, and the
product is covered by products of those opens.  The total Cech complex used
here is the tensor product of the per-factor complexes, so a cover index is
a tuple of nonempty subsets S_j of {0..n_j} and the term count is
prod C(n_j+1, p_j+1) -- much smaller than the flat cover on the same
product.  Sections over an intersection are Laurent monomials whose
exponent may be negative only on inverted variables.

hypercohomology, the engine of every command, works on the minimal model of
Tot(Cech (x) C) (module minmodel): each term's Cech complex contracts onto
its Bott classes and the differential of the complex is moved onto them by
homological perturbation, with no truncation, set up once per table.

assembled_hypercohomology is the independent reference the tests cross it
against.  In a fixed multidegree the section spaces are infinite-dimensional,
so it cuts exponents below a per-factor depth chosen to keep every
top-cohomology monomial of every summand, builds the total complex with the
Cech coboundary and polynomial multiplication as its two differentials as
sparse rows, eliminates it with linalg.rank_sparse over F_p or Q, and
recomputes one depth deeper.  If the two answers disagree it raises
TruncationInstability rather than reporting a wrong number.
"""

import itertools
from operator import add

from . import linalg, minmodel
from .coxring import validate_complex
from .lattice import vadd
from .tate import CohomologyTable


class CechError(ValueError):
    pass


EngineCheckFailed = minmodel.EngineCheckFailed


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


def _check_valid(C):
    violations = validate_complex(C)
    if violations:
        raise CechError("invalid complex: %r" % (violations[:3],))


def hypercohomology(C, a):
    """Dimensions of H^i(F(a)), i = 0..m, for the degree-0 cohomology sheaf
    F of a validated line-bundle complex."""
    _check_valid(C)
    return minmodel.engine(C)(C.space.degree(a))


def cohomology_table(C, window):
    """h^i(F(a)) for every twist a in the window, every cell computed.  The
    complex is validated and the engine set up once for the whole window."""
    _check_valid(C)
    table = CohomologyTable(C.space, window)
    h = minmodel.engine(C)
    for a in window.twists():
        table.set_h(a, h(a))
    return table
