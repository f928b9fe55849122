"""Hypercohomology from the minimal model of Tot(Cech (x) C).

The Cech differential never changes a Laurent monomial e, so each term's
Cech complex splits into blocks: per factor j, the cover sets containing
the negative support N_j of e.  That factor complex is one-dimensional in
degree 0 when N_j is empty, in degree n_j when N_j is every vertex, and
contractible otherwise, by the cone on the smallest vertex v0 outside N_j.
Tensored, these give a contraction (i, p, h) of each term onto its Bott
classes, and the basic perturbation lemma (Crainic, arXiv:math/0403266)
moves the differential delta of C onto them as

    D_H = sum_r (-1)^r p (delta h)^r delta i,

finite because delta raises the term degree and h keeps it.  Multiplication
only raises exponents, so no truncation is needed.  For the same reason a
factor with empty negative support keeps it down the whole series, so its
i_j(1) = sum_v {v} rides along as one symbol, ALL, and a section class, empty
in every factor, has h i = 0 and D_H = delta.  For a class in term k at Cech
degree q, level r of the series lies in term k+r+1 at Cech degree q-r, and
the projection p kills it unless that term has Bott classes in that degree;
so the series stops at the last such level, and when that is level 0,
D_H = p delta i is local cohomology multiplication.  engine(C) sets up what
depends on C alone once, for every twist of a window.  Terms no differential
touches, as in every free sum, are Kunneth products of per-factor Bott values.
"""

import itertools
from collections import defaultdict
from operator import add

from . import bott, linalg
from .coxring import compositions
from .lattice import vadd


class EngineCheckFailed(RuntimeError):
    """A self-check of the cohomology engine failed; no answer is given."""


def bott_classes(space, c):
    """Cech degree and exponent vectors of the Bott classes of O(c).  Per
    factor the exponents are the compositions of c_j into n_j+1 parts when
    c_j >= 0, in degree 0, or minus one minus those of -c_j-n_j-1 when
    c_j <= -n_j-1, in degree n_j; in between O(c) has no cohomology."""
    pairs = list(zip(space.factor_dims, c))
    if any(-n - 1 < cj < 0 for n, cj in pairs):
        return 0, ()
    blocks = [
        [e if cj >= 0 else tuple(-1 - x for x in e)
         for e in compositions(cj if cj >= 0 else -cj - n - 1, n + 1)]
        for n, cj in pairs
    ]
    return sum(n for n, cj in pairs if cj < 0), tuple(itertools.product(*blocks))


def _negative_support(e):
    return tuple(frozenset(v for v, x in enumerate(ej) if x < 0) for ej in e)


# i_j(1) = sum_v {v} on a factor with empty negative support, as one symbol.
# That support stays empty down the chain, where h_j kills the symbol, (ip)_j
# fixes it and p_j sends it to 1.  Its length keeps the Koszul shift |S|-1 = 0.
ALL = (-1,)


def _factor_ip(n, N, S):
    """i p on one factor: the cover sets of i(p(S))."""
    if len(N) == n + 1:
        return [S]
    return [ALL] if not N and S in ((0,), ALL) else []


def include(space, neg):
    """i(1): the cover index of the class of the block, coefficient 1."""
    return [tuple(tuple(range(n + 1)) if len(N) == n + 1 else ALL
                  for n, N in zip(space.factor_dims, neg))]


def projects(space, neg, idx):
    """p(idx) = 1: idx is {0} or ALL in every factor with empty negative
    support and the full set in every other factor.  Otherwise p(idx) = 0."""
    return all(len(N) == n + 1 or (not N and S in ((0,), ALL))
               for n, N, S in zip(space.factor_dims, neg, idx))


def contraction(space, neg, idx):
    """h(idx), before the (-1)^p of the term, as (cover index, sign) pairs:
    sum_j (-1)^{sum_{j'<j}(|S_j'|-1)} (ip)_{<j} (x) h_j (x) 1, where the cone
    h_j sends S to (-1)^{pos(v0,S)} (S minus v0) if v0 is in S and |S| >= 2."""
    out = []
    prefixes = [()]
    shift = 0
    for j, (n, N, S) in enumerate(zip(space.factor_dims, neg, idx)):
        v0 = next((v for v in range(n + 1) if v not in N), None)
        if v0 in S and len(S) > 1:
            sign = -1 if (shift + S.index(v0)) % 2 else 1
            rest = (tuple(v for v in S if v != v0),) + idx[j + 1:]
            out.extend((pre + rest, sign) for pre in prefixes)
        ip = _factor_ip(n, N, S)
        if not ip:
            break
        prefixes = [pre + (T,) for pre in prefixes for T in ip]
        shift += len(S) - 1
    return out


def polynomial_maps(C):
    """(p, s) -> [(target summand, [(exponent, field coefficient)])]."""
    poly = defaultdict(list)
    for p in C.degrees:
        for s in range(len(C.summands(p))):
            for r in range(len(C.summands(p + 1))):
                f = C.entry(p, r, s)
                if f is not None:
                    poly[(p, s)].append((r, [(ev, C.field.coerce(c)) for ev, c in f.terms.items()]))
    return poly


def _reduced(vec, prime):
    if prime:
        return {k: x % prime for k, x in vec.items() if x % prime}
    return {k: x for k, x in vec.items() if x}


def _times(e, ev):
    return tuple(tuple(map(add, b1, b2)) for b1, b2 in zip(e, ev))


def _transfer(space, poly, p, s, e, prime, blocks):
    """The column D_H(x) of the class x = (p, s, e), as {(p', r, e'): value}.
    blocks holds the (term, Cech degree) pairs with Bott classes.  The series
    stops at the last level r with (p+r+1, q-r) in blocks, q the Cech degree
    of x; none means an empty column.  At level 0 alone, D_H(x) = p delta i x
    keeps e+ev when every fully negative factor of e stays fully negative;
    a section (q = 0) has none, so its column is delta x."""
    neg = _negative_support(e)
    q = sum(n for n, N in zip(space.factor_dims, neg) if N)
    last = next((r for r in range(q, -1, -1) if (p + r + 1, q - r) in blocks), None)
    if last is None:
        return {}
    if last == 0:
        full = [j for j, N in enumerate(neg) if N]
        return {(p + 1, r, f): c for r, terms in poly.get((p, s), ()) for ev, c in terms
                for f in (_times(e, ev),) if all(max(f[j]) < 0 for j in full)}
    v = {(s, e, idx): 1 for idx in include(space, neg)}
    out = defaultdict(int)
    for level in range(last + 1):
        w = defaultdict(int)
        for (s, e, idx), x in v.items():
            for r, terms in poly.get((p, s), ()):
                for ev, c in terms:
                    w[(r, _times(e, ev), idx)] += x * c
        p += 1
        sign_h = 1 if p % 2 else -1  # the (-1)^r of the series times the (-1)^p of h
        v = defaultdict(int)
        for (r, e, idx), x in _reduced(w, prime).items():
            N = _negative_support(e)
            if projects(space, N, idx):
                out[(p, r, e)] += x
            if level < last:
                for idx2, sign in contraction(space, N, idx):
                    v[(r, e, idx2)] += sign_h * sign * x
        v = _reduced(v, prime)
    return _reduced(out, prime)


def engine(C):
    """The function a -> (h^0, ..., h^m) of the validated complex C, with the
    field prime, the polynomial maps and the term list read once.  The factor
    groups of untouched terms are memoized for the life of that function."""
    space = C.space
    prime = C.field.p if isinstance(C.field, linalg.PrimeField) else 0
    poly = polynomial_maps(C)
    touched = {p for p, _ in poly} | {p + 1 for p, _ in poly}
    terms = [(p, s, b) for p in C.degrees for s, b in enumerate(C.summands(p))]
    free = [(p, tuple(zip(space.factor_dims, b))) for p, _, b in terms if p not in touched]
    touched_terms = [term for term in terms if term[0] in touched]
    m = space.m
    groups = {}  # (n, c) -> the factor group of O(c) on P^n, () when none

    def hypercohomology(a):
        counts = defaultdict(int)
        for k, nb in free:
            dim = 1
            for (n, bj), aj in zip(nb, a):
                group = groups.get((n, aj + bj))
                if group is None:
                    group = groups[(n, aj + bj)] = bott.factor_group(n, aj + bj) or ()
                if not group:
                    break
                k += group[0]
                dim *= group[1]
            else:
                counts[k] += dim
        if not touched_terms:  # a free sum: no class to transfer or self-check
            return tuple(counts[i] for i in range(m + 1))
        where = {}  # touched class (p, s, e) -> (total degree, position)
        blocks = set()  # (term, Cech degree) pairs holding Bott classes
        for p, s, b in touched_terms:
            q, classes = bott_classes(space, vadd(a, b))
            if classes:
                blocks.add((p, q))
            for e in classes:
                where[(p, s, e)] = (p + q, counts[p + q])
                counts[p + q] += 1
        cols = {where[x]: {where[y][1]: v
                           for y, v in _transfer(space, poly, *x, prime, blocks).items()}
                for x in where}
        rows = defaultdict(list)
        for (k, _), col in cols.items():
            square = defaultdict(int)
            for y, v in col.items():
                for z, u in cols[(k + 1, y)].items():
                    square[z] += v * u
            if _reduced(square, prime):
                raise EngineCheckFailed(
                    "engine self-check failed: D_H o D_H != 0 at twist %r" % (a,))
            rows[k].append(col)
        ranks = defaultdict(int, {k: linalg.rank_sparse(r, C.field) for k, r in rows.items()})
        return tuple(counts[i] - ranks[i] - ranks[i - 1] for i in range(m + 1))

    return hypercohomology
