"""Hypercohomology from the minimal model of Tot(Cech (x) C).

The Cech differential keeps each Laurent monomial e, so a term's Cech complex
splits into blocks: per factor j, the cover sets containing the negative
support N_j of e.  That factor complex is one-dimensional in degree 0 when N_j
is empty, in degree n_j when N_j is every vertex, and otherwise contracted by
the cone on the smallest vertex v0 outside N_j.  Tensored, these contract
(i, p, h) each term onto its Bott classes, and the basic perturbation lemma
(Crainic, arXiv:math/0403266) moves the differential delta of C onto them as
D_H = sum_r (-1)^r p (delta h)^r delta i, finite as delta raises the term
degree and h keeps it.  Multiplication only raises exponents, so nothing is
truncated and an empty N_j stays empty: its i_j(1) = sum_v {v} rides along as
one symbol, ALL.  Level r of the series of a class in term k at Cech degree q
lies in term k+r+1 at Cech degree q-r, so the series stops at the last level
that can reach a class; at level 0, D_H = p delta i is local cohomology
multiplication.  An exponent vector is one int of biased fields, wide enough
that no sum carries: a product is an add, N_j is read off the top bits, and
the level-0 filter is one AND.  Columns are indexed by a class's position in
its total degree.  engine(C) sets up what depends on C once for every window;
untouched terms, as in every free sum, come from one bott.kunneth_window call
per window, the Kunneth products of their Bott values.
"""

import itertools
from collections import defaultdict
from operator import add, mul

from . import bott, linalg
from .lattice import vadd


class EngineCheckFailed(RuntimeError):
    """A self-check of the cohomology engine failed; no answer is given."""


def _packed_compositions(total, u):
    """sum_k x_k u_k over the compositions x of total into len(u) >= 2 parts, lex order."""
    if len(u) == 2:
        return [x * u[0] + (total - x) * u[1] for x in range(total + 1)]
    return [x * u[0] + y for x in range(total + 1) for y in _packed_compositions(total - x, u[1:])]


def bott_classes(space, c, width):
    """Cech degree and packed exponent vectors of the Bott classes of O(c):
    variable k's exponent plus 2^(width-1) in bits [k*width, (k+1)*width),
    so a top bit is set exactly for an exponent >= 0.  Per factor they are
    the compositions of c_j into n_j+1 parts when c_j >= 0, in degree 0, or
    minus one minus those of -c_j-n_j-1 when c_j <= -n_j-1, in degree n_j."""
    pairs = list(zip(space.factor_dims, c))
    if any(-n - 1 < cj < 0 for n, cj in pairs):
        return 0, ()
    classes, units = [0], [1 << k * width for k in range(space.m + space.t)]
    for n, cj in pairs:  # sums of per-factor packed compositions x, or -1-x when cj < 0
        u, units = units[:n + 1], units[n + 1:]
        base, sign = (sum(u) << width - 1, 1) if cj >= 0 else (sum(u) * ((1 << width - 1) - 1), -1)
        block = [base + sign * y for y in _packed_compositions(cj if cj >= 0 else -cj - n - 1, u)]
        classes = [x + y for x in classes for y in block]
    return sum(n for n, cj in pairs if cj < 0), classes


def _negative_support(space, width, f):
    """Per factor, the variables with a clear top bit, a negative exponent, in f."""
    tops = iter(range(width - 1, (space.m + space.t) * width, width))
    return tuple(frozenset(v for v in range(n + 1) if not f >> next(tops) & 1)
                 for n in space.factor_dims)


# i_j(1) = sum_v {v} on a factor with empty negative support, as one symbol.
# That support stays empty down the chain, where h_j kills the symbol, (ip)_j
# fixes it and p_j sends it to 1.  Its length keeps the Koszul shift |S|-1 = 0.
ALL = (-1,)


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
    out, prefixes, shift = [], [()], 0
    for j, (n, N, S) in enumerate(zip(space.factor_dims, neg, idx)):
        v0 = next((v for v in range(n + 1) if v not in N), None)
        if v0 in S and len(S) > 1:
            sign = -1 if (shift + S.index(v0)) % 2 else 1
            rest = (tuple(v for v in S if v != v0),) + idx[j + 1:]
            out.extend((pre + rest, sign) for pre in prefixes)
        ip = [S] if len(N) == n + 1 else [ALL] if not N and S in ((0,), ALL) else []  # i p(S)
        if not ip:
            break
        prefixes = [pre + (T,) for pre in prefixes for T in ip]
        shift += len(S) - 1
    return out


def polynomial_maps(C):
    """(p, s) -> [(target summand, [(exponent, field coefficient)])], target
    summands ascending, from one walk over the rows of each matrix of the
    validated complex C.  An entry's coefficients are already elements of
    its own field; they are coerced into C's field only when that differs."""
    poly = defaultdict(list)
    for p in C.degrees:
        for r, row in enumerate(C.diffs.get(p, ())):
            for s, f in enumerate(row):
                if f is not None and f.terms:
                    terms = f.terms.items()
                    poly[(p, s)].append((r, list(terms) if f.field == C.field else
                                         [(ev, C.field.coerce(c)) for ev, c in terms]))
    return poly


def _reduced(vec, prime):
    if prime:
        return {k: x % prime for k, x in vec.items() if x % prime}
    return {k: x for k, x in vec.items() if x}


def _transfer(space, poly, p, s, q, prime, blocks, where, width):
    """The columns D_H(x), {position: value}, of the classes x of summand s
    of term p, at Cech degree q, in the order of where[(p, s)]: where[(p', r)]
    maps a packed class to its position in its total degree, poly holds
    unbiased packed exponents, blocks the (term, Cech degree) pairs with
    classes.  At level 0, e+ev stays when every fully negative factor of e
    stays so, that is when no top bit clear in e is set in e+ev."""
    classes = where[(p, s)]
    last = next((r for r in range(q, -1, -1) if (p + r + 1, q - r) in blocks), None)
    if not last:  # None too: then no e+ev passes the filter
        tops = sum(1 << k * width for k in range(space.m + space.t)) << width - 1
        mask = tops & ~next(iter(classes))
        targets = [(where[(p + 1, r)], terms) for r, terms in poly.get((p, s), ())]
        return [{at[f]: c for at, terms in targets for ev, c in terms if not (f := e + ev) & mask}
                for e in classes]
    neg = _negative_support(space, width, next(iter(classes)))
    v = {(i, s, e, idx): 1 for i, e in enumerate(classes) for idx in include(space, neg)}
    out, k = [defaultdict(int) for _ in classes], p
    for level in range(last + 1):
        w = defaultdict(int)
        for (i, r, f, idx), x in v.items():
            for r2, terms in poly.get((k, r), ()):
                for ev, c in terms:
                    w[(i, r2, f + ev, idx)] += x * c
        k += 1
        sign_h = 1 if k % 2 else -1  # the (-1)^r of the series times the (-1)^p of h
        v = defaultdict(int)
        for (i, r, f, idx), x in _reduced(w, prime).items():
            N = _negative_support(space, width, f)
            if projects(space, N, idx):
                out[i][where[(k, r)][f]] += x
            if level < last:
                for idx2, sign in contraction(space, N, idx):
                    v[(i, r, f, idx2)] += sign_h * sign * x
        v = _reduced(v, prime)
    return [_reduced(col, prime) for col in out]


def engine(C):
    """The function window -> (a, (h^0, ..., h^m)) pairs, in the window's
    twist order, of the validated complex C, reading C once: untouched terms
    come from one bott.kunneth_window call per window, touched ones from the
    packed maps, per twist."""
    space = C.space
    prime = C.field.p if isinstance(C.field, linalg.PrimeField) else 0
    poly = polynomial_maps(C)
    touched = {p for p, _ in poly} | {p + 1 for p, _ in poly}
    terms = [(p, s, b) for p in C.degrees for s, b in enumerate(C.summands(p))]
    untouched = defaultdict(int)  # (p, b) -> multiplicity
    for p, _, b in terms:
        if p not in touched:
            untouched[p, b] += 1
    free = [(p, b, mult) for (p, b), mult in untouched.items()]  # kunneth_window's terms
    touched_terms = [term for term in terms if term[0] in touched]
    bs = zip(*[b for _, _, b in touched_terms])  # per factor, the touched summand degrees
    ends = [(n, max(x), min(x)) for n, x in zip(space.factor_dims, bs)]
    packed = {}  # width -> packed poly

    def touched_h(a):
        """The classes of the touched terms at twist a, less the ranks of D_H."""
        # An exponent is a class's, in [c_j+n_j, -1] or [0, c_j] for c = a+b, plus at most the
        # spread hi_j - lo_j of the b_j: in [-top-1, top], so 2^bit_length(top) bias never carries.
        width = max(max(aj + hi, -aj - lo - n - 1, hi - lo - 1)
                    for (n, hi, lo), aj in zip(ends, a)).bit_length() + 1
        units = [1 << k * width for k in range(space.m + space.t)]
        pk = packed.get(width) or packed.setdefault(width, {key: [
            (r, [(sum(map(mul, itertools.chain(*ev), units)), c) for ev, c in terms])
            for r, terms in maps] for key, maps in poly.items()})
        where, blocks, sizes, order = {}, set(), defaultdict(int), []
        for p, s, b in touched_terms:
            q, classes = bott_classes(space, vadd(a, b), width)
            where[(p, s)] = dict(zip(classes, itertools.count(sizes[p + q])))
            if classes:
                blocks.add((p, q))
                sizes[p + q] += len(classes)
                order.append((p, s, q))
        cols = defaultdict(list)  # total degree -> columns, by position
        for p, s, q in order:
            cols[p + q] += _transfer(space, pk, p, s, q, prime, blocks, where, width)
        for k, col_k in cols.items():
            for col in col_k:
                square = defaultdict(int)
                for y, v in col.items():
                    for z, u in cols[k + 1][y].items():
                        square[z] += v * u
                if _reduced(square, prime):
                    raise EngineCheckFailed(
                        "engine self-check failed: D_H o D_H != 0 at twist %r" % (a,))
        ranks = defaultdict(int, {k: linalg.rank_sparse(r, C.field) for k, r in cols.items()})
        return [sizes[i] - ranks[i] - ranks[i - 1] for i in range(space.m + 1)]

    def table(window):
        for a, h in bott.kunneth_window(space, window, free).items():
            yield a, tuple(map(add, h, touched_h(a)) if touched_terms else h)

    return table
