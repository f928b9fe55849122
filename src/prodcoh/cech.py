"""Cech cohomology on a product of projective spaces, by exact linear algebra.

Each factor P^n carries its standard affine cover U_0, ..., U_n, and the
product is covered by products of those opens.  The total Cech complex used
here is the tensor product of the per-factor complexes, so a cover index is
a tuple of nonempty subsets S_j of {0..n_j} and the term count is
prod C(n_j+1, p_j+1) -- much smaller than the flat cover on the same
product.  Sections over an intersection are Laurent monomials whose
exponent may be negative only on inverted variables.

In a fixed multidegree those section spaces are infinite-dimensional, the
sole source being unbounded negative exponents.  All cohomology classes
live in bounded exponents, so the engine cuts exponents below a per-factor
depth chosen to keep every top-cohomology monomial of every summand, then
recomputes at depth+1.  If the two answers disagree the computation aborts
with TruncationInstability rather than reporting a wrong number.

Two evaluation routes share that contract:

* a plain direct sum in homological degree 0 splits into monomial blocks
  (the Cech differential never changes a monomial), so the complex is a
  direct sum over Laurent monomials of tiny cover subcomplexes, one per
  sign pattern; block ranks are computed once per pattern shape and reused
  while the per-twist work is pure counting;
* a complex with differentials gets the assembled total complex, with the
  Cech coboundary and polynomial multiplication as the two differentials
  and honest ranks of the resulting matrices.  Those matrices hold a few
  nonzeros per column, so they are built as sparse rows and never stored
  densely; linalg.rank_sparse eliminates them over F_p or Q alike.
"""

import itertools
import math
from operator import add

from . import linalg
from .coxring import validate_complex
from .lattice import vadd
from .tate import STATUS_COMPUTED, CohomologyTable


class CechError(ValueError):
    pass


class TruncationInstability(RuntimeError):
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
# Blockwise route for plain direct sums.

_PATTERN_CACHE = {}


def _pattern_profile(space, sizes, field):
    """Cohomology dimensions of the cover subcomplex of monomials whose
    negative support has the given size in each factor.

    The subcomplex keeps the cover indices with S_j containing a fixed set
    N_j of q_j variables; its differential is the Cech coboundary with the
    monomial left untouched.  Computed once per size vector by straight
    rank computations over the field and cached.
    """
    key = (space.factor_dims, tuple(sizes), field.name)
    hit = _PATTERN_CACHE.get(key)
    if hit is not None:
        return hit
    anchors = [tuple(range(q)) for q in sizes]
    positions = [
        idx
        for idx in cover_indices(space)
        if all(set(N) <= set(S) for N, S in zip(anchors, idx))
    ]
    by_deg = {}
    place = {}
    for idx in positions:
        q = cech_degree(idx)
        place[idx] = (q, len(by_deg.setdefault(q, [])))
        by_deg[q].append(idx)
    m = space.m
    ranks = {}
    for q in range(m):
        src = by_deg.get(q, [])
        tgt = by_deg.get(q + 1, [])
        if not src or not tgt:
            ranks[q] = 0
            continue
        rows = [[0] * len(src) for _ in tgt]
        for col, idx in enumerate(src):
            for new_idx, sign in _coboundary(space, idx):
                rows[place[new_idx][1]][col] = sign
        ranks[q] = linalg.rank(rows, len(src), field)
    profile = tuple(
        len(by_deg.get(q, [])) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        for q in range(m + 1)
    )
    _PATTERN_CACHE[key] = profile
    return profile


def _nonneg_count(total, parts):
    if parts == 0:
        return 1 if total == 0 else 0
    if total < 0:
        return 0
    return math.comb(total + parts - 1, parts - 1)


def _bounded_count(total, parts, bound):
    """Number of ways to write total as an ordered sum of ints in [0, bound]."""
    if total < 0 or total > parts * bound:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    row = [0] * (total + 1)
    row[0] = 1
    for _ in range(parts):
        new = [0] * (total + 1)
        run = 0
        for s in range(total + 1):
            run += row[s]
            if s - bound - 1 >= 0:
                run -= row[s - bound - 1]
            new[s] = run
        row = new
    return row[total]


def _support_count(n, delta, q, depth):
    """Monomials on one factor with exactly q variables negative: those q
    exponents in [-depth, -1], the rest >= 0, summing to delta."""
    r = n + 1 - q
    if q == 0:
        return _nonneg_count(delta, r)
    total = 0
    for s in range(q, q * depth + 1):
        ways = _bounded_count(s - q, q, depth - 1)
        if not ways:
            continue
        total += ways * _nonneg_count(delta + s, r)
    return total


def _blockwise_h(space, delta, depths, field):
    m = space.m
    h = [0] * (m + 1)
    size_ranges = [range(n + 2) for n in space.factor_dims]
    for sizes in itertools.product(*size_ranges):
        count = 1
        for nj, dj, q, depth in zip(space.factor_dims, delta, sizes, depths):
            count *= math.comb(nj + 1, q) * _support_count(nj, dj, q, depth)
            if count == 0:
                break
        if count == 0:
            continue
        profile = _pattern_profile(space, sizes, field)
        for i, dim in enumerate(profile):
            if dim:
                h[i] += count * dim
    return tuple(h)


def cech_line_bundle_h(space, b, a, field=None):
    """Cohomology vector of O(b)(a) = O(a+b) from the truncated complex.

    Computed at the working depth and again one deeper; disagreement raises
    TruncationInstability.
    """
    field = field or linalg.default_field()
    delta = vadd(space.degree(a), space.degree(b))
    depths = default_depths(space, [delta])
    h1 = _blockwise_h(space, delta, depths, field)
    h2 = _blockwise_h(space, delta, tuple(d + 1 for d in depths), field)
    if h1 != h2:
        raise TruncationInstability(
            "truncation depth %r too shallow for O(%r): %r vs %r"
            % (depths, delta, h1, h2)
        )
    return h1


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
    # Polynomial targets of each summand: (target summand, [(exponent, coefficient)]).
    poly = {
        (p, s): [
            (r, [(ev, field.coerce(c)) for ev, c in C.entry(p, r, s).terms.items()])
            for r in range(len(C.summands(p + 1)))
            if C.entry(p, r, s) is not None
        ]
        for p in C.degrees
        for s in range(len(C.summands(p)))
    }
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
    """General-route hypercohomology, with the depth stability re-check.
    Exposed separately so tests can cross it against the blockwise route."""
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


def hypercohomology(C, a):
    """Dimensions of H^i(F(a)), i = 0..m, for the degree-0 cohomology sheaf
    F of a validated line-bundle complex."""
    violations = validate_complex(C)
    if violations:
        raise CechError("invalid complex: %r" % (violations[:3],))
    a = C.space.degree(a)
    if C.is_free_term():
        total = [0] * (C.space.m + 1)
        for b in C.summands(0):
            h = cech_line_bundle_h(C.space, b, a, field=C.field)
            total = [x + y for x, y in zip(total, h)]
        return tuple(total)
    return assembled_hypercohomology(C, a)


def cohomology_table(C, window):
    """h^i(F(a)) for every twist a in the window, every cell computed."""
    violations = validate_complex(C)
    if violations:
        raise CechError("invalid complex: %r" % (violations[:3],))
    table = CohomologyTable(C.space, window)
    for a in window.twists():
        h = hypercohomology(C, a)
        for i, dim in enumerate(h):
            table.set_cell(a, i, dim, STATUS_COMPUTED)
    return table
