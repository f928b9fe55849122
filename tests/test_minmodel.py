import functools
import itertools
import operator
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import koszul_point_complex
from prodcoh import bott, cech, minmodel, splitter
from prodcoh.coxring import LineBundleComplex, MultiHomogPoly, free_complex
from prodcoh.lattice import ProductSpace, Window, vadd
from prodcoh.linalg import RATIONALS, PrimeField, default_field
from prodcoh.tate import STATUS_COMPUTED
from test_cech import koszul_complex, koszul_points

FIELDS = [default_field(), RATIONALS]


def _vertex_subsets(n):
    return [frozenset(S) for k in range(n + 2) for S in itertools.combinations(range(n + 1), k)]


def _combine(terms):
    """Sum (cover index, coefficient) pairs, dropping zeros."""
    acc = defaultdict(int)
    for idx, x in terms:
        acc[idx] += x
    return {idx: x for idx, x in acc.items() if x}


def _singletons(sp, terms):
    """Expand the symbol minmodel.ALL = i_j(1) into its singletons sum_v {v}."""
    return [(t, x) for idx, x in terms for t in itertools.product(*[
        [(v,) for v in range(n + 1)] if S == minmodel.ALL else [S]
        for n, S in zip(sp.factor_dims, idx)
    ])]


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1)])
def test_contraction_identity(dims):
    # d h + h d = 1 - i p on every basis element of every monomial block,
    # with d the Cech coboundary.
    sp = ProductSpace(dims)
    d = functools.partial(reference._coboundary, sp)
    for neg in itertools.product(*[_vertex_subsets(n) for n in dims]):
        h = functools.partial(minmodel.contraction, sp, neg)
        for idx in reference.cover_indices(sp):
            if not all(N <= set(S) for N, S in zip(neg, idx)):
                continue
            lhs = [(u, x * y) for t, x in d(idx) for u, y in h(t)]
            lhs += [(u, x * y) for t, x in _singletons(sp, h(idx)) for u, y in d(t)]
            rhs = [(idx, 1)]
            if minmodel.projects(sp, neg, idx):
                rhs += [(t, -1) for t in minmodel.include(sp, neg)]
            assert _combine(_singletons(sp, lhs)) == _combine(_singletons(sp, rhs)), (neg, idx)


def unpack(space, width, f):
    """The exponent vector, per factor, of a packed exponent f: the k-th
    variable, in factor order, holds its exponent plus 2^(width-1) in bits
    [k*width, (k+1)*width)."""
    xs = [(f >> k * width & (1 << width) - 1) - (1 << width - 1)
          for k in range(space.m + space.t)]
    starts = list(itertools.accumulate([n + 1 for n in space.factor_dims], initial=0))
    return tuple(tuple(xs[i:j]) for i, j in zip(starts, starts[1:]))


def cech_degree(space, e):
    """The Cech degree of a Bott class with exponent vector e."""
    return sum(n for n, ej in zip(space.factor_dims, e) if max(ej) < 0)


def test_bott_classes_count_and_degree():
    sp = ProductSpace((1, 2))
    for c, width in itertools.product(itertools.product(range(-5, 4), repeat=2), [4, 5, 8]):
        q, classes = minmodel.bott_classes(sp, c, width)
        h = bott.line_bundle_h(sp, c)
        assert len(classes) == sum(h)
        if classes:
            assert h[q] == len(classes)
            es = [unpack(sp, width, e) for e in classes]
            assert all(tuple(map(sum, e)) == c for e in es)
            assert all(cech_degree(sp, e) == q for e in es)
            assert len(set(es)) == len(es)


# ---------------------------------------------------------------------------
# The engine against the truncated Cech reference.

# Per space: the form degrees, and the most forms the truncated reference
# handles quickly there.
FORMS = {
    (1, 1): ([(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)], 3),
    (1, 2): ([(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)], 2),
    (1, 1, 1): ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (2, 0, 1), (0, 0, 2)], 2),
}


def ideal_of(K):
    """The Koszul complex K without its degree-0 term, shifted up by one: a
    presentation of the ideal sheaf of what K resolves."""
    terms = {p + 1: K.summands(p) for p in K.degrees if p < 0}
    diffs = {p + 1: mat for p, mat in K.diffs.items() if p < -1}
    return LineBundleComplex(K.space, K.field, terms, diffs)


@st.composite
def mixed_koszul(draw):
    """Koszul complexes, or their truncations, of 2-3 random dense forms of
    mixed multidegree, with a small twist.  Three generic forms on a surface
    have no common zero, so their Koszul complex is exact and its Bott
    classes cancel only through the higher terms of the perturbation series."""
    dims = draw(st.sampled_from(sorted(FORMS)))
    sp = ProductSpace(dims)
    field = draw(st.sampled_from(FIELDS))
    degrees, most = FORMS[dims]
    forms = []
    for _ in range(draw(st.sampled_from(range(most, 1, -1)))):
        deg = draw(st.sampled_from(degrees))
        forms.append(functools.reduce(operator.add, [
            MultiHomogPoly.monomial(sp, field, draw(st.sampled_from([1, -1, 2, -3])), e)
            for e in reference.monomials(sp, deg)
        ]))
    K = koszul_complex(sp, field, forms)
    if draw(st.booleans()):
        K = ideal_of(K)
    a = tuple(draw(st.integers(-2, 1)) for _ in range(sp.t))
    return K, a


@settings(max_examples=50, deadline=None)
@given(mixed_koszul())
def test_engine_matches_truncated_reference(case):
    K, a = case
    assert cech.hypercohomology(K, a) == reference.assembled_hypercohomology(K, a)


def typed(poly):
    """polynomial_maps with each coefficient's type, each entry's terms in
    exponent order: a complex read from JSON holds them sorted."""
    return {key: [(r, sorted((ev, c, type(c).__name__) for ev, c in terms)) for r, terms in maps]
            for key, maps in poly.items()}


@settings(max_examples=30, deadline=None)
@given(koszul_points(), mixed_koszul(), st.sampled_from([None, PrimeField(7), RATIONALS]))
def test_polynomial_maps_equal_coercing_every_entry(point, dense, field):
    # field, when drawn, replaces the complex's field and leaves its entries
    # over theirs, as a library caller can.  The constructor converts them,
    # as --field converts every coefficient of the complex's JSON: the two
    # complexes are both built, so both are valid, and have the same entries
    # and maps.
    for K in (point[0], ideal_of(point[0]), dense[0]):
        F = field or K.field
        C = LineBundleComplex(K.space, F, {p: K.summands(p) for p in K.degrees}, K.diffs)
        J = LineBundleComplex.from_json(K.to_json(), field_override=F)
        assert C.diffs == J.diffs
        assert typed(minmodel.polynomial_maps(C)) == typed(minmodel.polynomial_maps(J))


@pytest.mark.parametrize("coefficient", [7, 14])
def test_an_entry_zero_in_the_complexs_field_is_no_map(coefficient):
    # O(-1,0) -> O by 7 x_{0,1} over F_65521, read over F_7: the map is zero
    # there, so h is that of O(-1,0)[1] + O.
    sp = ProductSpace((1, 1))
    f = MultiHomogPoly.variable(sp, default_field(), 0, 1, coefficient)
    C = LineBundleComplex(sp, PrimeField(7), {-1: [(-1, 0)], 0: [(0, 0)]}, {-1: [[f]]})
    assert not minmodel.polynomial_maps(C)
    for a in [(0, 0), (2, 1), (-3, 1), (1, -3)]:
        shifted = bott.line_bundle_h(sp, vadd(a, (-1, 0)))[1:] + (0,)
        assert cech.hypercohomology(C, a) == tuple(map(operator.add, bott.line_bundle_h(sp, a),
                                                       shifted)), a
    K = LineBundleComplex(sp, PrimeField(7), {-1: [(-1, 0)], 0: [(0, 0)]},
                          {-1: [[f + MultiHomogPoly.variable(sp, default_field(), 0, 0)]]})
    assert minmodel.polynomial_maps(K)[(-1, 0)] == [(0, [(((1, 0), (0, 0)), 1)])]
    for a in [(0, 0), (2, 1), (-3, 1)]:
        assert cech.hypercohomology(K, a) == reference.assembled_hypercohomology(K, a), a


@pytest.mark.parametrize("field", FIELDS)
def test_koszul_complex_without_common_zero_is_acyclic(field):
    # Three forms with no common zero on P1xP1 give an exact Koszul complex,
    # so every hypercohomology group vanishes.  Its Bott classes spread over
    # several Cech degrees and cancel only through the higher terms of the
    # perturbation series and their signs.
    sp = ProductSpace((1, 1))
    x0, x1, y0, y1 = (MultiHomogPoly.variable(sp, field, j, i) for j in (0, 1) for i in (0, 1))
    for forms in (
        [x0, y0, x1 * y1],
        [x0 + x1, y0 - y1, x1 * y1 - x0 * y0],
        [x0 * y0, x1 * y1, x0 * y1 + x1 * y0],
    ):
        K = koszul_complex(sp, field, forms)
        for a in itertools.product(range(-3, 3), repeat=2):
            assert cech.hypercohomology(K, a) == (0, 0, 0), (forms, a)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 4), st.integers(-6, 4)), min_size=1, max_size=4),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.sampled_from(FIELDS),
)
def test_free_sums_on_p2xp3_match_bott(twists, a, field):
    sp = ProductSpace((2, 3))
    h = cech.hypercohomology(free_complex(sp, twists, field), a)
    expected = [0] * (sp.m + 1)
    for b in twists:
        expected = [x + y for x, y in zip(expected, bott.line_bundle_h(sp, vadd(a, b)))]
    assert h == tuple(expected)


def koszul_point(sp, field):
    """The Koszul complex of x_{j,1..n_j} over all factors j: a resolution of
    the point where they vanish, so h = (1, 0, ..., 0) at every twist."""
    return koszul_complex(sp, field, [
        MultiHomogPoly.variable(sp, field, j, i)
        for j, n in enumerate(sp.factor_dims) for i in range(1, n + 1)
    ])


def ideal_point_h(sp, a):
    """h(I_p(a)) from 0 -> I_p -> O -> O_p -> 0: evaluation at the point maps
    H^0(O(a)) onto the field when a >= 0, and H^0(O(a)) = 0 otherwise."""
    h = list(bott.line_bundle_h(sp, a))
    if all(x >= 0 for x in a):
        h[0] -= 1
    else:
        h[1] += 1
    return tuple(h)


# Sections take the shortcut D_H = delta at positive twists; at mixed-sign
# twists one factor's i_j(1) rides down the series as a single symbol.
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dims, twists", [
    ((2, 2), [(4, 4), (3, 4), (3, -4), (-4, 3), (-3, -3)]),
    ((2, 3), [(4, 4), (3, 4), (3, -4), (3, -5), (-3, 4)]),
])
def test_koszul_point_on_bigger_spaces(field, dims, twists):
    sp = ProductSpace(dims)
    K = koszul_point(sp, field)
    for a in twists:
        assert cech.hypercohomology(K, a) == (1,) + (0,) * sp.m, a


@pytest.mark.parametrize("field", FIELDS)
def test_ideal_of_point_on_p2xp2(field):
    sp = ProductSpace((2, 2))
    I = ideal_of(koszul_point(sp, field))
    for a in [(4, 4), (3, 4), (3, -4), (-4, 3), (-3, -3), (-1, 2), (2, -1), (0, 0), (1, 1)]:
        assert cech.hypercohomology(I, a) == ideal_point_h(sp, a), a


# The engine packs an exponent vector into fields that hold [-2^w, 2^w - 1]
# for the smallest w the twist allows.  At (t, s) with t > 0 the products of
# the Koszul point's maps reach the exponent t, and at (-t, s) its lowest
# term has the class exponent -t, so t = 2^k - 1, 2^k, 2^k + 1 put the
# largest exponent just below, at and just above the edge of a field width.
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dims", [(1, 1), (1, 2)])
@pytest.mark.parametrize("k", [4, 5])
def test_packing_width_edges(field, dims, k):
    sp = ProductSpace(dims)
    K = koszul_point(sp, field)
    for t in (2 ** k - 1, 2 ** k, 2 ** k + 1):
        for a in [(t, -2), (-t, 1), (-2, t), (1, -t)]:
            assert cech.hypercohomology(K, a) == (1,) + (0,) * sp.m, a
            assert cech.hypercohomology(ideal_of(K), a) == ideal_point_h(sp, a), a


def per_twist_table(C, window):
    """The cells of cohomology_table, from one cech.hypercohomology call per
    twist: the reference of the window engine, whose set-up and Kunneth
    tabulation of untouched terms are shared by every twist of the window."""
    return {(a, i): (dim, STATUS_COMPUTED)
            for a in window.twists() for i, dim in enumerate(cech.hypercohomology(C, a))}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dims", [(1, 1), (1, 2)])
def test_window_engine_matches_per_twist_on_koszul_point(field, dims):
    sp = ProductSpace(dims)
    window = Window((-3,) * sp.t, (2,) * sp.t)
    K = koszul_point(sp, field)
    for C in (K, ideal_of(K)):
        assert cech.cohomology_table(C, window).cells == per_twist_table(C, window)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (1, 2), (2, 3), (1, 1, 1)]), st.data())
def test_window_engine_matches_per_twist_on_free_sums(dims, data):
    sp = ProductSpace(dims)
    twist = st.tuples(*[st.integers(-6, 4)] * sp.t)
    C = free_complex(sp, data.draw(st.lists(twist, min_size=1, max_size=4)))
    lo = data.draw(st.tuples(*[st.integers(-5, 2)] * sp.t))
    window = Window(lo, tuple(x + data.draw(st.integers(0, 3)) for x in lo))
    assert cech.cohomology_table(C, window).cells == per_twist_table(C, window)


def named_classes(block):
    """{(total degree, label): (p, s, packed class)} over the classes of a
    minmodel._transfer block, {(p, s): (q, packed classes)}, by its
    labelling rule: a class's label is its position among the classes of
    its total degree, in the block's order."""
    named, sizes = {}, defaultdict(int)
    for (p, s), (q, classes) in block.items():
        for f in classes:
            named[(p + q, sizes[p + q])] = (p, s, f)
            sizes[p + q] += 1
    return named


def block_pairs(block):
    """The (term, Cech degree) pairs of a minmodel._transfer block."""
    return {(p, q) for (p, _), (q, _) in block.items()}


def break_transfer(monkeypatch):
    """Double one entry of each column of D_H out of the degree -2 term,
    wherever it has one, in minmodel._transfer: the one seam through which
    both routes build D_H.  For the Koszul point at twist (1, 1) that breaks
    D_H o D_H = 0.  Returns the number of _transfer calls by route: per
    twist once bott_classes has enumerated a term's classes, chambers
    before."""
    hits = defaultdict(int)
    transfer, bott_classes = minmodel._transfer, minmodel.bott_classes

    def enumerating(*args):
        hits["enumerations"] += 1
        return bott_classes(*args)

    def corrupted(space, poly, block, prime, width):
        hits["per twist" if hits["enumerations"] else "chambers"] += 1
        cols = transfer(space, poly, block, prime, width)
        for (k, label), (p, _, _) in named_classes(block).items():
            col = cols[k][label]
            if p == -2 and col:
                key = min(col)
                col[key] = 2 * col[key] % prime
        return cols

    monkeypatch.setattr(minmodel, "_transfer", corrupted)
    monkeypatch.setattr(minmodel, "bott_classes", enumerating)
    return hits


def per_twist_only(monkeypatch):
    """Make the engine take the per-twist route at every twist, as it does
    for a complex that is not monomial."""
    monkeypatch.setattr(minmodel, "chambers", lambda *args: None)


def test_failed_self_check_makes_split_check_inconclusive(monkeypatch):
    # On the chamber route of the Koszul point, then on the per-twist route.
    K = koszul_point_complex()
    window = Window((0, 0), (1, 1))
    assert cech.hypercohomology(K, (1, 1)) == (1, 0, 0)
    hits = break_transfer(monkeypatch)
    for route in ("chambers", "per twist"):
        if route == "per twist":
            assert not hits["per twist"]  # the chamber route took every twist
            per_twist_only(monkeypatch)
        with pytest.raises(cech.EngineCheckFailed):
            cech.hypercohomology(K, (1, 1))
        verdict = splitter.split_check(K, (1, 1), window)
        assert verdict.kind == "inconclusive" and "self-check" in verdict.reason
        assert hits[route], route


# ---------------------------------------------------------------------------
# The degree-bounded series against the series run to its end.

def _times(e, ev):
    return tuple(tuple(map(operator.add, b1, b2)) for b1, b2 in zip(e, ev))


def _negative_support(e):
    return tuple(frozenset(v for v, x in enumerate(ej) if x < 0) for ej in e)


def _reduced(vec, prime):
    if prime:
        return {k: x % prime for k, x in vec.items() if x % prime}
    return {k: x for k, x in vec.items() if x}


def uncapped_transfer(space, poly, p, s, e, prime):
    """The column D_H(x) of the class x = (p, s, e), with e and the exponents
    of poly as tuples of per-factor tuples, as {(p', r, e'): value}, from the
    series run until its states die out: the reference of minmodel._transfer,
    which stops at the last level that can reach a class."""
    neg = _negative_support(e)
    if not any(neg):
        return {(p + 1, r, _times(e, ev)): c
                for r, terms in poly.get((p, s), ()) for ev, c in terms}
    v = {(s, e, idx): 1 for idx in minmodel.include(space, neg)}
    out = defaultdict(int)
    while v:
        w = defaultdict(int)
        for (s, e, idx), x in v.items():
            for r, terms in poly.get((p, s), ()):
                for ev, c in terms:
                    w[(r, _times(e, ev), idx)] += x * c
        p += 1
        sign_h = 1 if p % 2 else -1
        v = defaultdict(int)
        for (r, e, idx), x in _reduced(w, prime).items():
            N = _negative_support(e)
            if minmodel.projects(space, N, idx):
                out[(p, r, e)] += x
            for idx2, sign in minmodel.contraction(space, N, idx):
                v[(r, e, idx2)] += sign_h * sign * x
        v = _reduced(v, prime)
    return _reduced(out, prime)


def classes_and_blocks(C, a, width):
    """The Bott classes (p, s, e) of every term of C(a), e unpacked, and the
    (term, Cech degree) pairs that hold them."""
    classes, blocks = [], set()
    for p in C.degrees:
        for s, b in enumerate(C.summands(p)):
            q, es = minmodel.bott_classes(C.space, vadd(a, b), width)
            if es:
                blocks.add((p, q))
            classes += [(p, s, unpack(C.space, width, e)) for e in es]
    return classes, blocks


def last_level(space, p, e, blocks):
    """The last level r of the series of the class (p, s, e) whose states,
    in term p+r+1 at Cech degree q-r, can project onto a class; None when
    there is none.  For a section, q = 0, so it is 0 or None."""
    q = cech_degree(space, e)
    return max((r for r in range(q + 1) if (p + r + 1, q - r) in blocks), default=None)


def per_twist_h(C, a):
    """h of the touched terms of C(a) by the per-twist route, which the
    engine takes only where the chamber route does not apply."""
    poly = minmodel.polynomial_maps(C)
    return minmodel.per_twist(C.space, C.field, poly, minmodel._terms(C, poly)[1])(a)


def engine_columns(C, a):
    """The arguments of every minmodel._transfer call the per-twist route
    makes for C(a), with copies of the columns it returned, which
    rank_sparse consumes."""
    calls = []
    transfer = minmodel._transfer

    def recording(*args):
        cols = transfer(*args)
        calls.append((args, {k: {label: dict(col) for label, col in col_k.items()}
                             for k, col_k in cols.items()}))
        return cols

    minmodel._transfer = recording
    try:
        per_twist_h(C, a)
    finally:
        minmodel._transfer = transfer
    return calls


def check_columns(C, a):
    """Assert that every column the engine builds for C(a), its positions
    named back as (p', r, e') with e' unpacked, equals the uncapped series,
    and that every class gets one; count the classes by (last level, is a
    section)."""
    prime = getattr(C.field, "p", 0)
    poly = minmodel.polynomial_maps(C)
    [((space, _, block, _, width), cols)] = engine_columns(C, a)  # one block per twist
    named = {key: (p, s, unpack(space, width, f))  # (total degree, label) -> (p', r, e')
             for key, (p, s, f) in named_classes(block).items()}
    assert named.keys() == {(k, label) for k, col_k in cols.items() for label in col_k}
    blocks, levels = block_pairs(block), defaultdict(int)
    for (k, label), (p, s, e) in named.items():
        assert block[(p, s)][0] == cech_degree(space, e) == k - p
        got = {named[(k + 1, y)]: v for y, v in cols[k][label].items()}
        assert got == uncapped_transfer(space, poly, p, s, e, prime), (a, p, s, e)
        levels[(last_level(space, p, e, blocks), min(map(min, e)) >= 0)] += 1
    classes, all_blocks = classes_and_blocks(C, a, width)
    assert sorted(named.values()) == sorted(classes) and all_blocks == blocks
    return levels


@st.composite
def capped_cases(draw):
    """mixed_koszul's complexes, or the Koszul point or its ideal sheaf on
    P^1 x P^2 or (P^1)^3, at a twist with a negative entry."""
    if draw(st.booleans()):
        K, _ = draw(mixed_koszul())
    else:
        sp = ProductSpace(draw(st.sampled_from([(1, 2), (1, 1, 1)])))
        K = koszul_point(sp, draw(st.sampled_from(FIELDS)))
        if draw(st.booleans()):
            K = ideal_of(K)
    a = [draw(st.integers(-6, 2)) for _ in range(K.space.t)]
    a[draw(st.integers(0, K.space.t - 1))] = draw(st.integers(-6, -1))
    return K, tuple(a)


def dense_koszul(sp, degree, count, seed):
    """The Koszul complex of count dense forms of one degree over F_p, with
    coefficients random.Random(seed).randrange(1, p)."""
    field = default_field()
    rng = random.Random(seed)
    return koszul_complex(sp, field, [functools.reduce(operator.add, [
        MultiHomogPoly.monomial(sp, field, rng.randrange(1, field.p), e)
        for e in reference.monomials(sp, degree)
    ]) for _ in range(count)])


# Four dense (1,1) forms on P^1 x P^2 have no common zero.  At (1,-4) some
# series reach level 1 and at (-4,1) level 2, in terms where the sign of
# the series is -1: a wrong sign or a series stopped one level early
# changes their columns.  mixed_koszul's two forms never get that far.
DENSE_P12 = dense_koszul(ProductSpace((1, 2)), (1, 1), 4, 5)


@settings(max_examples=60, deadline=None)
@given(capped_cases())
@example((DENSE_P12, (1, -4)))
@example((DENSE_P12, (-4, 1)))
def test_capped_series_columns_equal_uncapped(case):
    check_columns(*case)


@pytest.mark.parametrize("field", FIELDS)
def test_capped_series_reaches_every_level(field):
    # The acyclic Koszul complexes' classes cancel only through the higher
    # levels of the series, so the cap stops some series after level 1 or 2.
    # The Koszul point and its ideal sheaf take the level-0 multiplication
    # at negative and mixed twists.
    sp = ProductSpace((1, 1))
    x0, x1, y0, y1 = (MultiHomogPoly.variable(sp, field, j, i) for j in (0, 1) for i in (0, 1))
    acyclic = defaultdict(int)
    for forms in (
        [x0, y0, x1 * y1],
        [x0 + x1, y0 - y1, x1 * y1 - x0 * y0],
        [x0 * y0, x1 * y1, x0 * y1 + x1 * y0],
    ):
        for a in itertools.product(range(-3, 3), repeat=2):
            for key, count in check_columns(koszul_complex(sp, field, forms), a).items():
                acyclic[key] += count
    assert acyclic[(1, False)] and acyclic[(2, False)], dict(acyclic)
    for dims, a in [((1, 2), (-3, -4)), ((1, 2), (2, -4)), ((1, 1, 1), (-3, 1, -2))]:
        K = koszul_point(ProductSpace(dims), field)
        for C in (K, ideal_of(K)):
            assert check_columns(C, a)[(0, False)], (dims, a)


# ---------------------------------------------------------------------------
# Serre duality for complexes: h^i(C(a)) = h^{m-i}(C^v (x) omega(-a)).

def dual_twisted(C):
    """C^v (x) omega, omega = O(-n_1-1, ..., -n_t-1): the summand O(b) of C^p
    becomes O(omega - b) in degree -p, and d^p: C^p -> C^{p+1} becomes its
    transpose out of degree -p-1.  The sign the dual differential carries in
    each degree changes no rank, so it is left out."""
    omega = tuple(-n - 1 for n in C.space.factor_dims)
    terms = {-p: [tuple(w - x for w, x in zip(omega, b)) for b in C.summands(p)]
             for p in C.degrees}
    diffs = {-p - 1: [list(col) for col in zip(*mat)] for p, mat in C.diffs.items()}
    return LineBundleComplex(C.space, C.field, terms, diffs)


@settings(max_examples=60, deadline=None)
@given(capped_cases())
def test_serre_duality_for_complexes(case):
    # At a twist with a negative entry the Koszul point's classes take the
    # level-0 multiplication; at its negation, sections take D_H = delta.
    C, a = case
    dual = cech.hypercohomology(dual_twisted(C), tuple(-x for x in a))
    assert cech.hypercohomology(C, a) == dual[::-1]


# ---------------------------------------------------------------------------
# The chamber route of monomial complexes against the per-twist route.

CHAMBER_SPACES = [(1, 1), (1, 2), (2, 2), (1, 1, 1)]
SIGNS = [1, -1, 2, -3]


def direct_sum(C1, C2):
    """C1 + C2 on one space and field: summands side by side in each
    degree, block-diagonal maps."""
    degrees = sorted(set(C1.degrees) | set(C2.degrees))
    terms = {p: list(C1.summands(p)) + list(C2.summands(p)) for p in degrees}

    def rows(C, p):
        return C.diffs.get(p) or [[None] * len(C.summands(p)) for _ in C.summands(p + 1)]

    diffs = {}
    for p in sorted(set(C1.diffs) | set(C2.diffs)):
        n1, n2 = len(C1.summands(p)), len(C2.summands(p))
        diffs[p] = ([list(row) + [None] * n2 for row in rows(C1, p)]
                    + [[None] * n1 + list(row) for row in rows(C2, p)])
    return LineBundleComplex(C1.space, C1.field, terms, diffs)


def euler_complex(sp, field, j, signs):
    """O^{n_j+1} -> O(e_j) by the variables x_{j,0..n_j}, scaled by signs."""
    e_j = tuple(int(k == j) for k in range(sp.t))
    n = sp.factor_dims[j]
    return LineBundleComplex(sp, field, {-1: [(0,) * sp.t] * (n + 1), 0: [e_j]}, {-1: [[
        MultiHomogPoly.variable(sp, field, j, i, c) for i, c in enumerate(signs)]]})


@st.composite
def monomial_piece(draw, sp, field):
    """A Koszul complex of random variables with random signs, of 1-3 random
    monomials (such as x_{0,0} x_{1,1}, whose classes need the series at
    some twists), or an Euler complex; the first two maybe as the ideal
    sheaf presentation."""
    kind = draw(st.sampled_from(["variables", "monomials", "euler"]))
    if kind == "euler":
        j = draw(st.integers(0, sp.t - 1))
        size = sp.factor_dims[j] + 1
        return euler_complex(sp, field, j, draw(st.lists(
            st.sampled_from(SIGNS), min_size=size, max_size=size)))
    variables = [(j, i) for j, n in enumerate(sp.factor_dims) for i in range(n + 1)]
    if kind == "variables":
        chosen = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=4, unique=True))
        forms = [MultiHomogPoly.variable(sp, field, j, i, draw(st.sampled_from(SIGNS)))
                 for j, i in chosen]
    else:
        forms = []
        for _ in range(draw(st.integers(1, 3))):
            e = [[0] * (n + 1) for n in sp.factor_dims]
            for j, i in draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3)):
                e[j][i] += 1
            forms.append(MultiHomogPoly.monomial(sp, field, draw(st.sampled_from(SIGNS)), e))
    K = koszul_complex(sp, field, forms)
    return ideal_of(K) if len(forms) > 1 and draw(st.booleans()) else K


@st.composite
def monomial_complexes(draw):
    """A monomial piece, maybe plus a second one (two disconnected pieces)
    and maybe plus free terms: an isolated summand in a touched degree, or
    a term no map touches; with a twist and a small window."""
    sp = ProductSpace(draw(st.sampled_from(CHAMBER_SPACES)))
    field = draw(st.sampled_from(FIELDS))
    C = draw(monomial_piece(sp, field))
    if draw(st.booleans()):
        C = direct_sum(C, draw(monomial_piece(sp, field)))
    twist = st.tuples(*[st.integers(-3, 2)] * sp.t)
    for p in draw(st.lists(st.sampled_from([0, 2, -5]), max_size=2)):
        C = direct_sum(C, LineBundleComplex(sp, field, {p: [draw(twist)]}))
    span = 4 if sp.t == 2 and sp.m <= 3 else 2
    a = tuple(draw(st.integers(-span, span - 1)) for _ in range(sp.t))
    window = Window(a, tuple(x + draw(st.integers(0, 2)) for x in a))
    return C, a, window


def per_twist_engine(C, a):
    """h of C(a) with every touched term by the per-twist route."""
    poly = minmodel.polynomial_maps(C)
    free, terms = minmodel._terms(C, poly)
    [h] = bott.kunneth_window(C.space, Window(a, a), free).values()
    return tuple(map(operator.add, h, per_twist_h(C, a) if terms else [0] * len(h)))


@settings(max_examples=150, deadline=None)
@given(monomial_complexes())
def test_chamber_route_matches_per_twist_route(case):
    C, a, window = case
    poly = minmodel.polynomial_maps(C)
    _, terms = minmodel._terms(C, poly)
    route = minmodel.chambers(C.space, C.field, poly, terms)
    assert route is not None  # every entry is one monomial, and the shifts agree
    h = route(a)
    per_twist = per_twist_h(C, a)
    assert h is not None and h == per_twist, (a, h, per_twist)
    assert cech.hypercohomology(C, a) == per_twist_engine(C, a)
    assert cech.cohomology_table(C, window).cells == {
        (b, i): (dim, STATUS_COMPUTED)
        for b in window.twists() for i, dim in enumerate(per_twist_engine(C, b))}


@settings(max_examples=25, deadline=None)
@given(monomial_complexes().filter(lambda case: case[0].space.factor_dims in ((1, 1), (1, 2))))
def test_chamber_route_matches_truncated_reference(case):
    # On a window of one or two twists in [-2,1]^2.
    C, a, _ = case
    lo = tuple(max(-2, min(1, x)) for x in a)
    window = Window(lo, (min(lo[0] + 1, 1),) + lo[1:])
    assert cech.cohomology_table(C, window).cells == {
        (b, i): (dim, STATUS_COMPUTED)
        for b in window.twists() for i, dim in enumerate(reference.assembled_hypercohomology(C, b))}


def monomial_koszul(sp, field, exponents):
    """The Koszul complex of the monomials x^e, e per factor, coefficient 1."""
    return koszul_complex(sp, field, [MultiHomogPoly.monomial(sp, field, 1, e) for e in exponents])


# Monomial Koszul complexes some of whose classes need the series on whole
# lines of twists: name -> (space, exponents, window of the sweep).
SERIES_COMPLEXES = {
    "x00x11,x01": ((1, 1), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], Window((-6, -6), (5, 5))),
    "x00^2,x01^2,x10x11": ((1, 1), [[[2, 0], [0, 0]], [[0, 2], [0, 0]], [[0, 0], [1, 1]]],
                           Window((-6, -6), (5, 5))),
    "x00x11,x01,x02,x12": ((2, 2), [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 0]],
                                    [[0, 0, 1], [0, 0, 0]], [[0, 0, 0], [0, 0, 1]]],
                           Window((-5, -5), (4, 4))),
    # At (1,1) two chambers have the same classes and sign patterns but
    # different series blocks: keyed by (mask, negs) alone, h^0 reads 3, not 4.
    "x01^2x12,x00x01x12,x01^2x10,x00x11": ((1, 2), [[[0, 2], [0, 0, 1]], [[1, 1], [0, 0, 1]],
                                                    [[0, 2], [1, 0, 0]], [[1, 0], [0, 1, 0]]],
                                           Window((-3, -3), (3, 3))),
}


def series_complex(name, field):
    dims, exponents, _ = SERIES_COMPLEXES[name]
    return monomial_koszul(ProductSpace(dims), field, exponents)


def series_levels(C, window):
    """Per twist of the window, h by the chamber route and by the per-twist
    route, and whether a chamber block ran some class's series past level 0."""
    poly = minmodel.polynomial_maps(C)
    _, terms = minmodel._terms(C, poly)
    route = minmodel.chambers(C.space, C.field, poly, terms)
    reference_h = minmodel.per_twist(C.space, C.field, poly, terms)
    transfer, levels = minmodel._transfer, []

    def recording(space, poly, block, prime, width):
        levels.extend(last_level(space, p, unpack(space, width, f), block_pairs(block))
                      for p, _, f in named_classes(block).values())
        return transfer(space, poly, block, prime, width)

    out = {}
    for a in window.twists():
        levels.clear()
        minmodel._transfer = recording
        try:
            h = route(a)
        finally:
            minmodel._transfer = transfer
        out[a] = h, reference_h(a), any(level and level > 0 for level in levels)
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(SERIES_COMPLEXES))
def test_chamber_route_matches_per_twist_on_series_complexes(name, field):
    # Every twist of the window, the lines where the series is needed included.
    C = series_complex(name, field)
    answers = series_levels(C, SERIES_COMPLEXES[name][2])
    assert any(series for _, _, series in answers.values())
    for a, (h, per_twist, _) in answers.items():
        assert h is not None and h == per_twist, (a, h, per_twist)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name, twists", [
    ("x00x11,x01", list(Window((-2, -2), (1, 1)).twists())),
    ("x00^2,x01^2,x10x11", list(Window((-2, -2), (1, 1)).twists())),
    ("x00x11,x01,x02,x12", [(0, -2)]),  # the truncated reference takes 1-2 s per twist here
    ("x01^2x12,x00x01x12,x01^2x10,x00x11", [(1, 1)]),
])
def test_series_complexes_match_truncated_reference(name, twists, field):
    C = series_complex(name, field)
    assert any(series_levels(C, Window(a, a))[a][2] for a in twists)
    for a in twists:
        assert cech.hypercohomology(C, a) == reference.assembled_hypercohomology(C, a), a


@pytest.mark.parametrize("field", FIELDS)
def test_monomial_generators_fall_back_where_the_series_is_needed(field):
    # The Koszul complex of x_{0,0} x_{1,1} and x_{0,1}: at some twists a
    # class of degree -2 needs the series, and its chamber block falls back
    # from level 0 to the series; the chamber route still answers there.
    K = series_complex("x00x11,x01", field)
    answers = series_levels(K, Window((-4, -4), (3, 3)))
    assert any(series for _, _, series in answers.values())
    for a, (h, per_twist, _) in answers.items():
        assert h is not None and h == per_twist, a
        assert cech.hypercohomology(K, a) == tuple(per_twist), a


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["x00x11,x01,x02,x12", "x01^2x12,x00x01x12,x01^2x10,x00x11"])
def test_one_transfer_call_per_block(name, field, monkeypatch):
    # The per-twist route hands _transfer each twist's classes as one block.
    # The chamber route hands it one block per distinct chamber with two or
    # more classes, whichever twists share that chamber, level 0 and series
    # alike; a second pass over the window builds no block.
    C = series_complex(name, field)
    poly = minmodel.polynomial_maps(C)
    _, terms = minmodel._terms(C, poly)
    twists = list(SERIES_COMPLEXES[name][2].twists())
    transfer, blocks = minmodel._transfer, []

    def counting(space, poly, block, prime, width):
        blocks.append(tuple((key, q, tuple(classes)) for key, (q, classes) in block.items()))
        return transfer(space, poly, block, prime, width)

    monkeypatch.setattr(minmodel, "_transfer", counting)
    per_twist = minmodel.per_twist(C.space, C.field, poly, terms)
    for a in twists:
        per_twist(a)
    assert len(blocks) == len(twists)
    blocks.clear()
    route = minmodel.chambers(C.space, C.field, poly, terms)
    for a in twists + twists:
        route(a)
    assert len(blocks) > 1 and len(set(blocks)) == len(blocks)
    assert all(sum(len(classes) for _, _, classes in block) >= 2 for block in blocks)


class ClassEnumerated(AssertionError):
    pass


def no_classes(*args):
    raise ClassEnumerated("bott_classes called")


def clashing_complex(field):
    """O(-1,0)^2 -> O^2 by [[x_{0,0}, x_{0,1}], [x_{0,1}, x_{0,0}]]: every
    entry one monomial, but going round the square shifts x_{0,0} - x_{0,1}
    twice, so no fine shifts exist."""
    sp = ProductSpace((1, 1))
    x0, x1 = (MultiHomogPoly.variable(sp, field, 0, i) for i in (0, 1))
    return LineBundleComplex(sp, field, {-1: [(-1, 0)] * 2, 0: [(0, 0)] * 2},
                             {-1: [[x0, x1], [x1, x0]]})


@pytest.mark.parametrize("field", FIELDS)
def test_chamber_route_enumerates_no_class(field, monkeypatch):
    sp = ProductSpace((2, 3))
    K = koszul_point(sp, field)
    dense = dense_koszul(ProductSpace((1, 2)), (1, 1), 3, 7)
    clash = clashing_complex(field)
    expected = {a: cech.hypercohomology(clash, a) for a in [(1, -3), (-3, 1), (0, 0)]}
    for a, h in expected.items():
        assert h == reference.assembled_hypercohomology(clash, a), a
    series = series_complex("x00x11,x01,x02,x12", field)
    monkeypatch.setattr(minmodel, "bott_classes", no_classes)
    for a in [(7, 8), (40, 40), (-40, -41), (1000, -1000)]:
        assert cech.hypercohomology(K, a) == (1, 0, 0, 0, 0, 0), a
    for a in [(0, 12), (0, 30)]:  # a chamber block runs the series at both
        assert cech.hypercohomology(series, a) == (1, 0, 0, 0, 0), a
    for C in (dense, clash):
        poly = minmodel.polynomial_maps(C)
        assert minmodel.chambers(C.space, C.field, poly, minmodel._terms(C, poly)[1]) is None
        with pytest.raises(ClassEnumerated):
            cech.hypercohomology(C, (0, 0))
