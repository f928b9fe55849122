import functools
import itertools
import operator
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from conftest import ideal_sheaf_complex, koszul_point_complex, truncated_line_bundle_h
from prodcoh import bott, cech
from prodcoh.coxring import CoxError, LineBundleComplex, MultiHomogPoly, free_complex
from prodcoh.lattice import ProductSpace, Window, vadd
from prodcoh.linalg import RATIONALS, default_field


def test_cover_indices_counts(p23):
    # Tensor-of-factor covers: prod (2^(n_j+1) - 1) indices.
    assert len(reference.cover_indices(p23)) == 7 * 15
    degs = [reference.cech_degree(idx) for idx in reference.cover_indices(p23)]
    assert min(degs) == 0 and max(degs) == p23.m


def test_cech_basis_single_point(p11):
    # Degree (0,0) over the chart x_0 != 0, y_0 != 0: the constant section,
    # plus depth-many coboundary-equivalent monomials per factor.
    basis = reference.cech_basis(p11, (0, 0), ((0,), (0,)), (0, 0), (1, 1))
    assert ((0, 0), (0, 0)) in basis
    assert len(basis) == 4
    assert truncated_line_bundle_h(p11, (0, 0), (0, 0)) == (1, 0, 0)


def test_cech_basis_p1_truncation():
    sp = ProductSpace((1,))
    # Fully inverted chart, degree -2, depth 2: three bounded monomials.
    basis = reference.cech_basis(sp, (0,), ((0, 1),), (-2,), (2,))
    assert [b[0] for b in basis] == [(-2, 0), (-1, -1), (0, -2)]
    # Single inverted variable at depth 1: the sum cannot reach -2.
    assert reference.cech_basis(sp, (0,), ((0,),), (-2,), (1,)) == ()
    assert reference.cech_basis(sp, (0,), ((0,),), (-2,), (2,)) == (((-2, 0),),)
    assert truncated_line_bundle_h(sp, (0,), (-2,)) == (0, 1)


def test_line_bundle_oracle_small_window(p11):
    for a in itertools.product(range(-4, 5), repeat=2):
        assert truncated_line_bundle_h(p11, (0, 0), a) == bott.line_bundle_h(p11, a)


def test_line_bundle_nonzero_base_twist(p11):
    for b in [(1, -1), (-2, 0), (2, 3)]:
        for a in itertools.product(range(-3, 3), repeat=2):
            assert truncated_line_bundle_h(p11, b, a) == bott.line_bundle_h(
                p11, vadd(a, b)
            )


def test_line_bundle_spots(p23):
    assert truncated_line_bundle_h(p23, (0, 0), (-3, -4)) == (0, 0, 0, 0, 0, 1)
    assert truncated_line_bundle_h(p23, (2, -1), (-2, 1))[0] == 1  # a + b = 0


def test_truncation_stability_deeper_depths(p11):
    # Past the certified depth the truncated complex gives the same answer.
    K = koszul_point_complex()
    for a in [(-2, -1), (1, -3)]:
        depths = reference._complex_depths(K, a)
        for bump in (1, 2):
            deeper = tuple(d + bump for d in depths)
            assert reference._assembled_h(K, a, deeper) == (1, 0, 0)


def test_truncation_instability_detected(p11, monkeypatch):
    # Below the certified depth the re-check one deeper must catch the
    # missing top cohomology instead of reporting a number.
    monkeypatch.setattr(reference, "default_depths", lambda space, deltas: (1, 1))
    with pytest.raises(reference.TruncationInstability):
        reference.assembled_hypercohomology(free_complex(p11, [(0, 0)]), (-4, 0))


def test_hypercohomology_point_sheaf():
    K = koszul_point_complex()
    window = Window((-3, -3), (3, 3))
    table = cech.cohomology_table(K, window)
    for a in window.twists():
        assert table.h_vector(a) == (1, 0, 0), a


def test_hypercohomology_ideal_sheaf():
    I = ideal_sheaf_complex()
    assert cech.hypercohomology(I, (1, 1)) == (3, 0, 0)
    assert cech.hypercohomology(I, (-1, 0)) == (0, 1, 0)
    assert cech.hypercohomology(I, (0, 0)) == (0, 0, 0)


def test_ideal_sheaf_h0_oracle(p11):
    # Independent count of sections of O(1,1) vanishing at the point
    # x = (1:0), y = (1:0): evaluation is one linear condition.
    F = default_field()
    values = []
    for e in reference.monomials(p11, (1, 1)):
        (e0, e1), (f0, f1) = e
        values.append(1 if (e1 == 0 and f1 == 0) else 0)
    r = reference.rank([values], len(values), F)
    assert len(values) - r == 3


def test_single_term_matches_line_bundle(p11):
    C = free_complex(p11, [(0, 0)])
    for a in [(-2, -2), (1, 3), (-3, 0)]:
        assert cech.hypercohomology(C, a) == bott.line_bundle_h(p11, a)


def test_free_sum_table_matches_closed_form(p11):
    C = free_complex(p11, [(1, 1), (-1, -1)])
    window = Window((-3, -3), (3, 3))
    table = cech.cohomology_table(C, window)
    assert table.known_dim((-2, -2), 2) == 4
    for a in window.twists():
        expected = tuple(
            x + y
            for x, y in zip(
                bott.line_bundle_h(p11, vadd(a, (1, 1))),
                bott.line_bundle_h(p11, vadd(a, (-1, -1))),
            )
        )
        assert table.h_vector(a) == expected, a


@pytest.mark.parametrize("field", [default_field(), RATIONALS], ids=["F_p", "Q"])
def test_untouched_terms_add_their_bott_table(field):
    """The Koszul point with O(1,-2)^2 + O(-3,0) in degree 1, which no map
    reaches: the window engine takes those from one Kunneth tabulation and
    the point's terms twist by twist.  The table is the point's plus their
    Bott vectors moved up one degree, where h^2 leaves 0..m and is dropped,
    and its cells come twist by twist, then by index."""
    K = koszul_point_complex(field)
    sp, extra = K.space, [(1, -2), (-3, 0), (1, -2)]
    C = LineBundleComplex(sp, field, {**{p: K.summands(p) for p in K.degrees}, 1: extra},
                          K.diffs)
    window = Window((-4, -3), (2, 1))
    table = cech.cohomology_table(C, window)
    point = cech.cohomology_table(K, window)
    assert list(table.cells) == [(a, i) for a in window.twists() for i in range(sp.m + 1)]
    for a in window.twists():
        moved = [0] + [sum(bott.line_bundle_h(sp, vadd(a, b))[i - 1] for b in extra)
                       for i in range(1, sp.m + 1)]
        assert table.h_vector(a) == tuple(map(operator.add, point.h_vector(a), moved)), a
        assert cech.hypercohomology(C, a) == table.h_vector(a), a


def test_assembled_matches_blockwise(p11):
    C = free_complex(p11, [(1, 1), (-2, 0)])
    for a in itertools.product(range(-3, 3), repeat=2):
        assert reference.assembled_hypercohomology(C, a) == cech.hypercohomology(C, a)


def test_assembled_differential_squares_to_zero():
    a = (-1, -2)
    for field in (default_field(), RATIONALS):
        K = koszul_point_complex(field)
        depths = reference._complex_depths(K, a)
        bases, mats = reference._total_matrices(K, a, depths)
        products = 0
        for k in sorted(mats):
            if k + 1 not in mats:
                continue
            m1, m2 = mats[k], mats[k + 1]
            assert len(m1) == len(bases.get(k + 1, [])), k
            # Row i of d_{k+1} d_k is the sum over j of m2[i][j] * (row j of d_k).
            for i, row in enumerate(m2):
                acc = {}
                for j, x in row.items():
                    for col, y in m1[j].items():
                        acc[col] = field.coerce(acc.get(col, 0) + x * y)
                        products += 1
                assert not any(acc.values()), (field, k, i)
        assert products, field


def test_euler_characteristic_of_hypercohomology():
    for C in (koszul_point_complex(), ideal_sheaf_complex()):
        sp = C.space
        for a in itertools.product(range(-2, 3), repeat=2):
            h = cech.hypercohomology(C, a)
            chi = sum((-1) ** i * x for i, x in enumerate(h))
            expected = 0
            for p in C.degrees:
                for b in C.summands(p):
                    expected += (-1) ** p * reference.euler_characteristic(sp, vadd(a, b))
            assert chi == expected, (a, h)


def test_point_on_p1xp2_codim3_koszul(p12):
    # Koszul complex of (x_{0,1}, x_{1,1}, x_{1,2}): a point of P^1 x P^2.
    F = default_field()
    x1 = MultiHomogPoly.variable(p12, F, 0, 1)
    y1 = MultiHomogPoly.variable(p12, F, 1, 1)
    y2 = MultiHomogPoly.variable(p12, F, 1, 2)
    C = LineBundleComplex(
        p12,
        F,
        {
            -3: [(-1, -2)],
            -2: [(-1, -1), (-1, -1), (0, -2)],
            -1: [(-1, 0), (0, -1), (0, -1)],
            0: [(0, 0)],
        },
        {
            -3: [[y2], [y1.scale(-1)], [x1]],
            -2: [
                [y1.scale(-1), y2.scale(-1), None],
                [x1, None, y2.scale(-1)],
                [None, x1, y1],
            ],
            -1: [[x1, y1, y2]],
        },
    )
    for a in [(-1, -1), (0, 0), (1, -2), (-2, 1)]:
        assert cech.hypercohomology(C, a) == (1, 0, 0, 0), a


def test_divisor_structure_sheaf(p11):
    # [O(-1,0) --x_{0,1}--> O] presents the divisor {x_{0,1}=0} = point x P^1,
    # so cohomology of any twist is that of O(a_2) on the second factor.
    from prodcoh.coxring import LineBundleComplex, MultiHomogPoly

    F = default_field()
    x1 = MultiHomogPoly.variable(p11, F, 0, 1)
    C = LineBundleComplex(p11, F, {-1: [(-1, 0)], 0: [(0, 0)]}, {-1: [[x1]]})
    for a in itertools.product(range(-3, 4), repeat=2):
        h = cech.hypercohomology(C, a)
        expected = bott.line_bundle_h(ProductSpace((1,)), (a[1],)) + (0,)
        assert h == expected, (a, h)


def test_rational_field_agrees():
    Kp = koszul_point_complex()
    Kq = koszul_point_complex(RATIONALS)
    for a in [(0, 0), (-2, 1), (-1, -1)]:
        assert cech.hypercohomology(Kq, a) == cech.hypercohomology(Kp, a)
    sp = ProductSpace((1, 2))
    for a in [(-3, -4), (2, 1), (-2, 0)]:
        assert truncated_line_bundle_h(sp, (0, 0), a, RATIONALS) == \
            truncated_line_bundle_h(sp, (0, 0), a)


def test_serre_duality_spot_checks(p11):
    for a in [(-3, -1), (0, 0), (-2, -2), (1, -4)]:
        h = truncated_line_bundle_h(p11, (0, 0), a)
        hd = truncated_line_bundle_h(p11, (0, 0), reference.serre_dual_twist(p11, a))
        assert h == tuple(reversed(hd))


def test_invalid_complex_rejected(p11):
    # Refused where it is built, before any engine call can see it.
    F = default_field()
    x1 = MultiHomogPoly.variable(p11, F, 0, 1)
    with pytest.raises(CoxError, match=re.escape(
            "invalid complex: [(0, 0, 0, 'degree', 'entry degree (1, 0), expected (0, 1)')]")):
        LineBundleComplex(p11, F, {0: [(0, 0)], 1: [(0, 1)]}, {0: [[x1]]})


# ---------------------------------------------------------------------------
# Property tests.

SPACES = [ProductSpace((1, 1)), ProductSpace((1, 2)), ProductSpace((1, 1, 1))]


@st.composite
def space_and_twist(draw):
    sp = draw(st.sampled_from(SPACES))
    return sp, tuple(draw(st.integers(-4, 3)) for _ in range(sp.t))


@settings(max_examples=150, deadline=None)
@given(space_and_twist(), st.sampled_from([default_field(), RATIONALS]))
def test_engine_matches_bott_and_serre_duality(case, field):
    sp, a = case
    h = truncated_line_bundle_h(sp, (0,) * sp.t, a, field)
    assert h == bott.line_bundle_h(sp, a)
    assert cech.hypercohomology(free_complex(sp, [(0,) * sp.t], field), a) == h
    dual = truncated_line_bundle_h(sp, (0,) * sp.t, reference.serre_dual_twist(sp, a), field)
    assert h == tuple(reversed(dual))


def koszul_complex(sp, field, forms):
    """Koszul complex of the given forms: the summand for a subset S of the
    forms sits in degree -|S| with twist minus the sum of their degrees, and
    d maps S to S minus its i-th form with sign (-1)^i."""
    m = len(forms)
    subsets = {-k: list(itertools.combinations(range(m), k)) for k in range(m + 1)}
    terms = {
        p: [tuple(-sum(forms[i].degree[j] for i in S) for j in range(sp.t)) for S in Ss]
        for p, Ss in subsets.items()
    }
    diffs = {}
    for p in range(-m, 0):
        diffs[p] = rows = []
        for T in subsets[p + 1]:
            rows.append([])
            for S in subsets[p]:
                extra = set(S) - set(T)
                if len(extra) == 1:
                    i = extra.pop()
                    rows[-1].append(forms[i].scale(-1 if S.index(i) % 2 else 1))
                else:
                    rows[-1].append(None)
    return LineBundleComplex(sp, field, terms, diffs)


@st.composite
def koszul_points(draw):
    """n_j random linear forms in the variables of each factor P^{n_j},
    linearly independent, so together they cut out one reduced point."""
    sp = draw(st.sampled_from(SPACES))
    field = draw(st.sampled_from([default_field(), RATIONALS]))
    forms = []
    for j, n in enumerate(sp.factor_dims):
        coeffs = [[draw(st.integers(-3, 3)) for _ in range(n + 1)] for _ in range(n)]
        assume(reference.rank(coeffs, n + 1, field) == n)
        for row in coeffs:
            forms.append(functools.reduce(
                operator.add,
                (MultiHomogPoly.variable(sp, field, j, i, c) for i, c in enumerate(row)),
            ))
    a = tuple(draw(st.integers(-2, 1)) for _ in range(sp.t))
    return koszul_complex(sp, field, forms), a


@settings(max_examples=15, deadline=None)
@given(koszul_points())
def test_koszul_point_euler_characteristic(case):
    K, a = case
    sp = K.space
    h = cech.hypercohomology(K, a)
    alternating_bott = sum(
        (-1) ** (p + i) * x
        for p in K.degrees
        for b in K.summands(p)
        for i, x in enumerate(bott.line_bundle_h(sp, vadd(a, b)))
    )
    assert sum((-1) ** i * x for i, x in enumerate(h)) == alternating_bott
    assert h == (1,) + (0,) * sp.m
