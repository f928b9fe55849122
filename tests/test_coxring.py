import pytest

from conftest import koszul_point_complex
from reference import monomials
from prodcoh.coxring import (
    CoxError,
    LineBundleComplex,
    MultiHomogPoly,
    free_complex,
    poly_mult,
    validate_complex,
)
from prodcoh.lattice import LatticeError, ProductSpace
from prodcoh.linalg import RATIONALS, default_field


def var(sp, field, j, i, c=1):
    return MultiHomogPoly.variable(sp, field, j, i, c)


def test_monomial_counts(p11, p23):
    assert len(monomials(p11, (1, 1))) == 4
    assert monomials(p11, (-1, 0)) == ()
    assert len(monomials(p23, (4, 2))) == 150
    assert len(monomials(p11, (3, 1))) == 8


def test_poly_homogeneity():
    sp = ProductSpace((1,))
    F = default_field()
    with pytest.raises(CoxError):
        MultiHomogPoly(sp, F, (2,), {((1, 0),): 1})  # degree 1 term, declared 2
    p = MultiHomogPoly(sp, F, (1,), {((1, 0),): 1, ((0, 1),): 0})
    assert len(p.terms) == 1  # zero coefficients dropped


def test_poly_mult():
    sp = ProductSpace((1,))
    F = default_field()
    x0, x1 = var(sp, F, 0, 0), var(sp, F, 0, 1)
    prod = poly_mult(x0, x1)
    assert prod.degree == (2,)
    assert prod.terms == {((1, 1),): 1}
    square = poly_mult(x0 + x1, x0 - x1)
    assert square.terms == {((2, 0),): 1, ((0, 2),): F.coerce(-1)}
    zero = MultiHomogPoly(sp, F, (1,), {})
    assert poly_mult(x0, zero).is_zero()


def test_graded_basis_dimension_formula(p11, p23):
    # The monomials of degree a + b are a basis of H^0(O(b)(a)).
    from prodcoh import bott
    from prodcoh.lattice import vadd

    for sp in (p11, p23):
        for b in [(0, 0), (1, -2), (-3, 2)]:
            for a in [(0, 0), (2, 3), (-1, 4), (3, 0)]:
                n = len(monomials(sp, vadd(a, b)))
                assert n == bott.line_bundle_h(sp, vadd(a, b))[0], (sp, b, a)


def test_validate_koszul_ok():
    assert validate_complex(koszul_point_complex()) == []


def test_validate_sign_flip():
    sp = ProductSpace((1, 1))
    F = default_field()
    x1 = var(sp, F, 0, 1)
    y1 = var(sp, F, 1, 1)
    bad = LineBundleComplex(
        sp,
        F,
        {-2: [(-1, -1)], -1: [(-1, 0), (0, -1)], 0: [(0, 0)]},
        {-2: [[y1], [x1]], -1: [[x1, y1]]},  # sign flip: d o d = 2*x1*y1
    )
    violations = validate_complex(bad)
    assert any(kind == "dd" for (_, _, _, kind, _) in violations)


def test_validate_degree_violation():
    sp = ProductSpace((1, 1))
    F = default_field()
    x1 = var(sp, F, 0, 1)
    bad = LineBundleComplex(
        sp, F, {0: [(0, 0)], 1: [(0, 1)]}, {0: [[x1]]}
    )
    violations = validate_complex(bad)
    assert violations and violations[0][3] == "degree"


def test_validate_single_term():
    sp = ProductSpace((1, 1))
    assert validate_complex(free_complex(sp, [(2, 2)])) == []


def test_complex_json_roundtrip():
    K = koszul_point_complex()
    obj = K.to_json()
    K2 = LineBundleComplex.from_json(obj)
    assert K2.to_json() == obj
    assert K2.terms == K.terms


def test_rational_coefficients():
    sp = ProductSpace((1,))
    p = MultiHomogPoly(sp, RATIONALS, (1,), {((1, 0),): "1/2"})
    q = poly_mult(p, p)
    assert q.terms[((2, 0),)] == RATIONALS.coerce("1/4")


@pytest.mark.parametrize("twist", [(0.5, 0), (True, 0), (0, "1")])
def test_free_sum_accepts_only_integers(p11, twist):
    # int() read (0.5, 0) as O(0,0) and (True, 0) as O(1,0).
    with pytest.raises(CoxError, match="twists must be integers"):
        free_complex(p11, [twist])


@pytest.mark.parametrize("terms, diffs", [
    ({0.0: [(0, 0)]}, {}),
    ({True: [(0, 0)]}, {}),
    ({-1: [(-1, 0)], 0: [(0, 0)]}, {-1.0: [[None]]}),
    ({-1: [(-1, 0)], 0: [(0, 0)]}, {False: [[None]]}),
])
def test_complex_degrees_accept_only_integers(p11, terms, diffs):
    with pytest.raises(CoxError, match="homological degree"):
        LineBundleComplex(p11, default_field(), terms, diffs)


@pytest.mark.parametrize("e", [((True, False), (0, 0)), ((1.0, 0), (0, 0))])
def test_poly_exponents_accept_only_integers(p11, e):
    # Both exponent vectors have degree (1, 0) under int(), so int() took them
    # for x_{0,0}.
    F = default_field()
    with pytest.raises(CoxError, match="not an integer"):
        MultiHomogPoly(p11, F, (1, 0), {e: 1})
    with pytest.raises(CoxError, match="not an integer"):
        MultiHomogPoly.monomial(p11, F, 1, e)


@pytest.mark.parametrize("degree", [(0.5, "x"), (True, 0), (1,)])
def test_zero_poly_degree_is_validated(p11, degree):
    # A polynomial without terms keeps a declared degree, validated like any other.
    with pytest.raises(LatticeError):
        MultiHomogPoly(p11, default_field(), degree, {})
    assert MultiHomogPoly(p11, default_field(), [1, 2], {}).degree == (1, 2)
