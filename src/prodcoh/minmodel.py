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
the level-0 filter is one AND.  D_H is built one block at a time, a twist's
classes on the per-twist route, a chamber's on the chamber route, and a
column is labelled by its class's position in its total degree in the block.
Which factor group of a term is nonzero, if any, bott.factor_group alone
decides: bott_classes enumerates the classes of its (q, x), and chambers
reads a term's Cech degree at a twist as the sum of its q.

engine(C, window) sets up what depends on C once, then yields the window's
vectors.  Terms no differential touches, as in every free sum, come from
one bott.kunneth_window call, the Kunneth products of their Bott values.
The touched terms take one of two routes, chosen per complex:
- a monomial complex, whose every nonzero entry has one term and whose
  summands take consistent fine shifts: chambers, which counts the fine
  degrees of each chamber in closed form and builds one small block per
  distinct chamber with one _transfer call, the series included,
  enumerating no class, so its cost does not grow with the twist;
- any other complex, with an entry of two or more terms or clashing
  shifts: per_twist, which enumerates the Bott classes and transfers them.
"""

import itertools
import math
from collections import defaultdict
from operator import add, mul, sub

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
    so a top bit is set exactly for an exponent >= 0.  Per factor, with
    (q_j, x_j) = bott.factor_group(n_j, c_j), they are the compositions of
    x_j into n_j+1 parts when q_j = 0, or minus one minus those when q_j =
    n_j; the Cech degree is the sum of the q_j."""
    groups = [bott.factor_group(n, cj) for n, cj in zip(space.factor_dims, c)]
    if None in groups:
        return 0, ()
    classes, units = [0], [1 << k * width for k in range(space.m + space.t)]
    for n, (q, x) in zip(space.factor_dims, groups):  # sums of packed y, or -1-y in degree n
        u, units = units[:n + 1], units[n + 1:]
        base, sign = (sum(u) * ((1 << width - 1) - 1), -1) if q else (sum(u) << width - 1, 1)
        block = [base + sign * y for y in _packed_compositions(x, u)]
        classes = [z + y for z in classes for y in block]
    return sum(q for q, _ in groups), classes


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
    out, prefix, shift = [], (), 0
    for j, (n, N, S) in enumerate(zip(space.factor_dims, neg, idx)):
        v0 = next((v for v in range(n + 1) if v not in N), None)
        if v0 in S and len(S) > 1:
            sign = -1 if (shift + S.index(v0)) % 2 else 1
            out.append((prefix + (tuple(v for v in S if v != v0),) + idx[j + 1:], sign))
        ip = S if len(N) == n + 1 else ALL if not N and S in ((0,), ALL) else None  # i p(S)
        if ip is None:
            break
        prefix += (ip,)
        shift += len(S) - 1
    return out


def polynomial_maps(C):
    """(p, s) -> [(target summand, [(exponent, field coefficient)])], target
    summands ascending, from one walk over the rows of each matrix of the
    complex C.  Its constructor has checked C and stores every entry over
    C's field, with nonzero coefficients only, and a zero entry as None."""
    poly = defaultdict(list)
    for p in C.degrees:
        for r, row in enumerate(C.diffs.get(p, ())):
            for s, f in enumerate(row):
                if f is not None:
                    poly[(p, s)].append((r, list(f.terms.items())))
    return poly


def _reduced(vec, prime):
    if prime:
        return {k: x % prime for k, x in vec.items() if x % prime}
    return {k: x for k, x in vec.items() if x}


def _transfer(space, poly, block, prime, width):
    """D_H on one block, {(p, s): (q, packed classes)}: the classes of
    summand s of term p, all at Cech degree q, a summand without classes
    left out.  Returns {total degree: {label: column}}, a column being
    {label of a class one total degree up: value}, and a class's label its
    position among the classes of its total degree, in the block's order.
    poly holds unbiased packed exponents.  The (term, Cech degree) pairs
    with classes, the top-bit constant and each summand's last level are
    worked out once per block.  At level 0, e+ev stays when every fully
    negative factor of e stays so, that is when no top bit clear in e is
    set in e+ev."""
    where, sizes = {}, defaultdict(int)  # (p, s) -> {packed class: label}, total degree -> count
    for (p, s), (q, classes) in block.items():
        n = sizes[p + q]
        where[(p, s)] = dict(zip(classes, range(n, n + len(classes))))
        sizes[p + q] = n + len(classes)
    blocks = {(p, q) for (p, _), (q, _) in block.items()}
    # The top bit of every field: sum_k 2^(k width) = (2^((m+t) width) - 1) / (2^width - 1).
    tops = ((1 << (space.m + space.t) * width) - 1) // ((1 << width) - 1) << width - 1
    cols = defaultdict(dict)
    for (p, s), (q, classes) in block.items():
        labels, col_k = where[(p, s)], cols[p + q]
        last = 0
        for r in range(q, 0, -1):
            if (p + r + 1, q - r) in blocks:
                last = r
                break
        if not last:  # or no level at all: then no e+ev passes the filter
            mask = tops & ~classes[0]
            targets = [(where.get((p + 1, r), {}), terms) for r, terms in poly.get((p, s), ())]
            for e, i in labels.items():
                col_k[i] = {at[f]: c for at, terms in targets for ev, c in terms
                            if not (f := e + ev) & mask}
            continue
        neg = _negative_support(space, width, classes[0])
        v = {(i, s, e, idx): 1 for e, i in labels.items() for idx in include(space, neg)}
        out, k = {i: defaultdict(int) for i in labels.values()}, p
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
        col_k.update((i, _reduced(col, prime)) for i, col in out.items())
    return cols


def _homology(space, field, prime, cols, a):
    """(h^0, ..., h^m) of the differential whose columns out of total degree
    k are cols[k], {class: {class of degree k+1: value}}, one per class,
    after the D_H o D_H = 0 self-check.  The columns are consumed.  The
    check can fail only at a class with classes one and two total degrees
    above it: in a block whose classes lie in two adjacent total degrees
    alone, D_H o D_H = 0 whatever the columns hold, and a wrong column goes
    unseen."""
    ranks = defaultdict(int)
    for k, col_k in cols.items():
        above = cols.get(k + 1)
        for col in col_k.values() if above else ():
            square = defaultdict(int)
            for y, v in col.items():
                for z, u in above[y].items():
                    square[z] += v * u
            if _reduced(square, prime):
                raise EngineCheckFailed(
                    "engine self-check failed: D_H o D_H != 0 at twist %r" % (a,))
    for k, col_k in cols.items():
        ranks[k] = _rank([col for col in col_k.values() if col], field)
    return [len(cols.get(i, ())) - ranks[i] - ranks[i - 1] for i in range(space.m + 1)]


def _rank(cols, field):
    """The rank of the nonzero columns cols: their number when there is at
    most one, their distinct entries' number when none has two, else
    linalg.rank_sparse's, which consumes them."""
    if len(cols) < 2:
        return len(cols)
    if all(len(col) == 1 for col in cols):
        return len({y for col in cols for y in col})
    return linalg.rank_sparse(cols, field)


def _terms(C, poly):
    """The terms no differential touches, as kunneth_window's (shift, b,
    multiplicity) entries, and the touched summands as (p, s, b)."""
    touched = {p for p, _ in poly} | {p + 1 for p, _ in poly}
    terms = [(p, s, b) for p in C.degrees for s, b in enumerate(C.summands(p))]
    untouched = defaultdict(int)  # (p, b) -> multiplicity
    for p, _, b in terms:
        if p not in touched:
            untouched[p, b] += 1
    return ([(p, b, mult) for (p, b), mult in untouched.items()],
            [term for term in terms if term[0] in touched])


def per_twist(space, field, poly, terms):
    """The per-twist route: a -> (h^0, ..., h^m) of the touched summands
    terms, (p, s, b), from their Bott classes at a, transferred as one
    block, and the packed maps."""
    prime = field.p
    bs = zip(*[b for _, _, b in terms])  # per factor, the touched summand degrees
    ends = [(n, max(x), min(x)) for n, x in zip(space.factor_dims, bs)]
    packed = {}  # width -> packed poly

    def touched_h(a):
        # An exponent is a class's, in [c_j+n_j, -1] or [0, c_j] for c = a+b, plus at most the
        # spread hi_j - lo_j of the b_j: in [-top-1, top], so 2^bit_length(top) bias never carries.
        width = max(max(aj + hi, -aj - lo - n - 1, hi - lo - 1)
                    for (n, hi, lo), aj in zip(ends, a)).bit_length() + 1
        units = [1 << k * width for k in range(space.m + space.t)]
        pk = packed.get(width) or packed.setdefault(width, {key: [
            (r, [(sum(map(mul, itertools.chain(*ev), units)), c) for ev, c in terms])
            for r, terms in maps] for key, maps in poly.items()})
        block = {}
        for p, s, b in terms:
            q, classes = bott_classes(space, vadd(a, b), width)
            if classes:
                block[(p, s)] = q, classes
        return _homology(space, field, prime, _transfer(space, pk, block, prime, width), a)

    return touched_h


def _compositions(n, top, caps):
    """The number of integer vectors y >= 0 of length n+1 with sum top and
    y_v < cap_v on len(caps) of their coordinates, which ones not changing
    the count: by inclusion-exclusion over those, each term a count
    C(N + n, n) of the compositions of N into n+1 parts."""
    if top < 0:
        return 0
    terms = [(top, 1)]  # (N, (-1)^size) over the subsets of the capped variables
    for cap in caps:
        terms += [(N - cap, -k) for N, k in terms if N >= cap]
    return sum(k * math.comb(N + n, n) for N, k in terms)


def chambers(space, field, poly, terms):
    """The chamber route of a monomial complex: a -> (h^0, ..., h^m) of the
    touched summands terms, (p, s, b), at every twist.  None in place of
    the function when an entry has two or more terms or the fine shifts
    clash.

    The shifts psi put the entry x^ev from s to r at psi_r = psi_s + ev,
    each connected piece rooted at a summand with b_j on the first variable
    of factor j, so deg_j psi_s = b_{s,j}, and the Cech complexes of all
    summands split by the fine degree u = e - psi_s, sum_{v in j} u_v = a_j.
    Summand s has a class at u when in each factor j all u_v >= -psi_{s,v}
    (G_j) or all u_v < -psi_{s,v} (L_j).  Per variable the thresholds
    -psi_{s,v} cut Z into intervals; a factor's chamber, one interval per
    variable, fixes the bitmasks G_j and L_j, and its count of u with sum
    a_j is a number of bounded compositions.  A chamber of all factors has
    classes mask = AND_j (G_j | L_j) and Cech degrees by L_j.  A series
    state stays at its class's u, as delta adds ev to e and psi alike and h
    keeps e, and its negative supports depend only on the chamber.  So D_H
    is the direct sum of one block per chamber, and h the sum over chambers
    of their count times the h of their block.

    A block is built by one _transfer call on the classes at one
    representative u of its chamber: per variable the lower end of its
    interval, or one below the least threshold.  Every u + psi_s then lies
    in [-top-1, top], top the largest spread of a variable's psi column, so
    the maps are packed at one width for every twist.  The packed u is the
    same at every twist and differs between chambers, so it keys the block,
    at level 0 and with the series alike.  Each distinct block with two or
    more classes is built, self-checked and ranked once."""
    prime = field.p
    dims = space.factor_dims
    index = {(p, s): i for i, (p, s, _) in enumerate(terms)}
    adjacent = [[] for _ in terms]  # (summand, add or sub, ev) along each entry, both ways
    links = []  # (p, s, r, summand of (p, s), summand of (p + 1, r), coefficient) per entry
    for (p, s), maps in poly.items():
        i = index[(p, s)]
        for r, entry in maps:
            if len(entry) != 1:
                return None
            [(ev, c)] = entry
            k, ev = index[(p + 1, r)], sum(ev, ())
            links.append((p, s, r, i, k, c))
            adjacent[i].append((k, add, ev))
            adjacent[k].append((i, sub, ev))
    firsts = list(itertools.accumulate([n + 1 for n in dims], initial=0))
    psi = [None] * len(terms)
    for root, (_, _, b) in enumerate(terms):
        if psi[root] is None:
            psi[root] = [0] * (space.m + space.t)
            for v, bj in zip(firsts, b):
                psi[root][v] = bj
            stack = [root]
            while stack:
                i = stack.pop()
                for k, op, ev in adjacent[i]:
                    want = list(map(op, psi[i], ev))
                    if psi[k] is None:
                        psi[k] = want
                        stack.append(k)
                    elif psi[k] != want:
                        return None
    full = (1 << len(terms)) - 1
    columns = list(zip(*psi))  # per variable, psi_{s,v} by summand
    width = max(map(sub, map(max, columns), map(min, columns))).bit_length() + 1
    units = [1 << k * width for k in range(space.m + space.t)]
    bias = sum(units) << width - 1
    at = [sum(map(mul, x, units)) + bias for x in psi]  # the packed class of s at u is at[s] + u
    packed = defaultdict(list)  # poly at width, its ev = psi_r - psi_s
    for p, s, r, i, k, c in links:
        packed[(p, s)].append((r, [(at[k] - at[i], c)]))
    # Per factor, its chambers with a class: (G, L, sum of lower bounds, sum of
    # upper bounds, caps: the number of values of each variable bounded on
    # both sides, u: the representative, packed), a sum None when a bound is.
    factors = []
    for n, first in zip(dims, firsts):
        cells = [(full, full, 0, 0, (), 0)]
        for col, unit in zip(columns[first:first + n + 1], units[first:]):
            bits = {}  # threshold -> the summands that have it
            for s, x in enumerate(col):
                bits[-x] = bits.get(-x, 0) | 1 << s
            ge, lo, intervals = 0, None, []  # (lo, hi, the summands with u_v >= threshold)
            for t in sorted(bits):
                intervals.append((lo, t - 1, ge))
                ge, lo = ge | bits[t], t
            intervals.append((lo, None, ge))
            cells = [(G & ge, L & ~ge, None if lo is None or los is None else los + lo,
                      None if hi is None or his is None else his + hi,
                      caps if lo is None or hi is None else caps + (hi - lo + 1,),
                      u + (hi if lo is None else lo) * unit)
                     for G, L, los, his, caps, u in cells for lo, hi, ge in intervals
                     if G & ge or L & ~ge]
        factors.append(cells)
    counts = {}  # (factor, a_j) -> [(G, L, u, count)] over its chambers with a u
    memo = {}  # the chamber's packed u -> h of its block

    def touched_h(a):
        weights = [(full, (), 0, 1)]  # (mask, negs, u, count of u) over the factors so far
        for j, (n, cells, aj) in enumerate(zip(dims, factors, a)):
            if (j, aj) not in counts:
                # With a class, no variable is unbounded below while another
                # is unbounded above; when one is, u -> -u bounds all below.
                counts[j, aj] = [(G, L, u, x) for G, L, los, his, caps, u in cells if (x := (
                    _compositions(n, aj - los, caps) if los is not None else
                    _compositions(n, his - aj, caps)))]
            weights = [(mask & (G | L), negs + (L,), u + v, x * y) for G, L, v, x in counts[j, aj]
                       for mask, negs, u, y in weights if mask & (G | L)]
        h = [0] * (space.m + 1)
        for mask, negs, u, x in weights:
            if not mask & mask - 1:  # one class and no entry: 1 in its total degree
                i = mask.bit_length() - 1
                k = terms[i][0] + sum(n for n, N in zip(dims, negs) if N >> i & 1)
                if 0 <= k <= space.m:
                    h[k] += x
                continue
            if u not in memo:
                memo[u] = _homology(space, field, prime, _transfer(space, packed, {
                    (p, s): (sum(n for n, N in zip(dims, negs) if N >> i & 1), [u + at[i]])
                    for i, (p, s, _) in enumerate(terms) if mask >> i & 1}, prime, width), a)
            for i, y in enumerate(memo[u]):
                h[i] += x * y
        return h

    return touched_h


def engine(C, window):
    """The (a, (h^0, ..., h^m)) pairs of the complex C (valid, as its
    constructor checked) on the window, in twist order, reading C once:
    untouched terms by one bott.kunneth_window call, touched ones by the
    chamber route (a monomial complex, consistent shifts) or per_twist."""
    space = C.space
    poly = polynomial_maps(C)
    free, terms = _terms(C, poly)
    touched_h = terms and (chambers(space, C.field, poly, terms)
                           or per_twist(space, C.field, poly, terms))
    for a, h in bott.kunneth_window(space, window, free).items():
        yield a, tuple(map(add, h, touched_h(a)) if terms else h)
