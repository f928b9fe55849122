import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ideal_sheaf_complex, koszul_point_complex, koszul_sign_flip_json
from reference import monomials
from prodcoh.coxring import (
    CoxError,
    LineBundleComplex,
    MultiHomogPoly,
    free_complex,
    poly_mult,
)
from prodcoh import cech
from prodcoh.lattice import LatticeError, ProductSpace, Window
from prodcoh.linalg import RATIONALS, FieldError, PrimeField, default_field


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
    koszul_point_complex()
    koszul_point_complex(RATIONALS)


KOSZUL_TERMS = {-2: [(-1, -1)], -1: [(-1, 0), (0, -1)], 0: [(0, 0)]}


def invalid(violations):
    """A pattern matching the whole CoxError message of a complex whose
    first violations are these."""
    return "^%s$" % re.escape("invalid complex: %r" % (violations,))


def test_validate_sign_flip(p11):
    # The whole violation tuple, detail included, as recorded before the
    # d o d check summed its products in a term dict.  The constructor
    # returned the complex, and the engine refused it later.
    for F in (default_field(), RATIONALS):
        x1, y1 = var(p11, F, 0, 1), var(p11, F, 1, 1)
        with pytest.raises(CoxError, match=invalid([
            (-2, 0, 0, "dd", "composite 2*x0_1*x1_1 is nonzero"),
        ])):
            LineBundleComplex(p11, F, KOSZUL_TERMS, {-2: [[y1], [x1]], -1: [[x1, y1]]})


@pytest.mark.parametrize("F", [default_field(), RATIONALS], ids=["fp", "q"])
def test_sign_flip_read_from_json_is_refused_by_the_constructor(F):
    # from_json ends in the constructor and does not wrap its error, so the
    # command line prints the message the engine's check used to raise.
    with pytest.raises(CoxError, match=invalid([
        (-2, 0, 0, "dd", "composite 2*x0_1*x1_1 is nonzero"),
    ])):
        LineBundleComplex.from_json(koszul_sign_flip_json(F))


@pytest.mark.parametrize("F", [default_field(), RATIONALS], ids=["fp", "q"])
def test_validate_partial_cancellation(F):
    # x1*(y1 + y0) + y1*(-x1): the x1*y1 terms of the two products cancel,
    # the x1*y0 term is left over.
    sp = ProductSpace((1, 1))
    x1, y0, y1 = var(sp, F, 0, 1), var(sp, F, 1, 0), var(sp, F, 1, 1)
    with pytest.raises(CoxError, match=invalid([
        (-2, 0, 0, "dd", "composite 1*x0_1*x1_0 is nonzero"),
    ])):
        LineBundleComplex(sp, F, KOSZUL_TERMS, {-2: [[y1 + y0], [x1.scale(-1)]], -1: [[x1, y1]]})


def test_validate_composite_of_mixed_degrees():
    # x_{0,0} where a degree-(0,1) entry belongs: the two products of the
    # composite have degrees (2,0) and (1,1).  Adding them as polynomials
    # raised CoxError, a traceback through the command line.
    sp = ProductSpace((1, 1))
    F = default_field()
    x0, x1, y1 = var(sp, F, 0, 0), var(sp, F, 0, 1), var(sp, F, 1, 1)
    with pytest.raises(CoxError, match=invalid([
        (-2, 0, 0, "degree", "entry degree (1, 0), expected (0, 1)"),
        (-2, 0, 0, "dd", "composite 65520*x0_1*x1_1 + 1*x0_0*x0_1 is nonzero"),
    ])):
        LineBundleComplex(sp, F, KOSZUL_TERMS, {-2: [[x0], [x1.scale(-1)]], -1: [[x1, y1]]})


@pytest.mark.parametrize("row, shape", [
    # One entry short: composing it raised IndexError.
    ("short", "1x1"),
    # One entry long, and the first two do not compose to zero: a map whose
    # shape is wrong is not composed, however its rows are wrong.
    ("long", "1x3"),
])
def test_validate_misshapen_row_is_a_shape_violation_only(row, shape):
    sp = ProductSpace((1, 1))
    F = default_field()
    x1, y0, y1 = var(sp, F, 0, 1), var(sp, F, 1, 0), var(sp, F, 1, 1)
    d = [x1] if row == "short" else [x1, y0, x1]
    with pytest.raises(CoxError, match=invalid([
        (-1, -1, -1, "shape", "matrix is %s, expected 1x2" % shape),
    ])):
        LineBundleComplex(sp, F, KOSZUL_TERMS, {-2: [[y1], [x1.scale(-1)]], -1: [d]})


def test_validate_degree_violation():
    sp = ProductSpace((1, 1))
    F = default_field()
    x1 = var(sp, F, 0, 1)
    with pytest.raises(CoxError, match=invalid([
        (0, 0, 0, "degree", "entry degree (1, 0), expected (0, 1)"),
    ])):
        LineBundleComplex(sp, F, {0: [(0, 0)], 1: [(0, 1)]}, {0: [[x1]]})


def test_validate_single_term():
    free_complex(ProductSpace((1, 1)), [(2, 2)])


def test_complex_json_roundtrip():
    # from_json builds the instance through the constructor; it must be the
    # complex the constructor builds.
    for K in (koszul_point_complex(), koszul_point_complex(RATIONALS), ideal_sheaf_complex(),
              free_complex(ProductSpace((1, 2)), [(1, -2), (0, 0), (1, -2)])):
        obj = K.to_json()
        K2 = LineBundleComplex.from_json(obj)
        assert K2.to_json() == obj
        assert (K2.space, K2.field, K2.terms, K2.diffs) == (K.space, K.field, K.terms, K.diffs)


def test_rational_coefficients():
    sp = ProductSpace((1,))
    p = MultiHomogPoly(sp, RATIONALS, (1,), {((1, 0),): "1/2"})
    q = poly_mult(p, p)
    assert q.terms[((2, 0),)] == RATIONALS.coerce("1/4")


def test_eq_is_a_bool_and_false_across_fields(p11):
    # Over F_p against Q, == evaluated to the terms dict.
    F = default_field()
    f = var(p11, F, 0, 0)
    assert (f == var(p11, F, 0, 0)) is True
    assert (f == var(p11, RATIONALS, 0, 0)) is False
    assert (f == var(p11, PrimeField(7), 0, 0)) is False


@pytest.mark.parametrize("op", [operator.add, operator.sub, poly_mult], ids=["add", "sub", "mult"])
def test_arithmetic_refuses_operands_on_another_space_or_field(p11, op):
    # x_{0,0} on P^1 x P^1 plus x_{0,0} on P^2 x P^2 raised "exponent block
    # (1, 0, 0) has wrong length"; x_{0,0} over F_p plus x_{0,0} over Q
    # returned 2*x0_0 over F_p.
    F = default_field()
    x = var(p11, F, 0, 0)
    with pytest.raises(CoxError, match="polynomials live on different spaces"):
        op(x, var(ProductSpace((2, 2)), F, 0, 0))
    with pytest.raises(CoxError, match="polynomials live over different fields"):
        op(x, var(p11, RATIONALS, 0, 0))


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_sum_refuses_polynomials_of_different_degrees(p11, op):
    F = default_field()
    x00 = var(p11, F, 0, 0)
    with pytest.raises(CoxError, match=re.escape("cannot add degrees (1, 0) and (1, 1)")):
        op(x00, poly_mult(x00, var(p11, F, 1, 0)))  # x00 + x00*x10


@pytest.mark.parametrize("expr, types", [
    ("x00 * 2", "*: 'MultiHomogPoly' and 'int'"),
    ("2 * x00", "*: 'int' and 'MultiHomogPoly'"),
    ("x00 + 2", "+: 'MultiHomogPoly' and 'int'"),
    ("x00 - 2", "-: 'MultiHomogPoly' and 'int'"),
])
def test_arithmetic_with_an_operand_that_is_not_a_polynomial(p11, expr, types):
    # x00 * 2, x00 + 2 and x00 - 2 raised AttributeError: 'int' object has
    # no attribute 'space'.
    x00 = var(p11, default_field(), 0, 0)
    with pytest.raises(TypeError, match=re.escape("unsupported operand type(s) for " + types)):
        eval(expr, {"x00": x00})


def test_poly_mult_names_an_operand_that_is_not_a_polynomial(p11):
    x00 = var(p11, default_field(), 0, 0)
    with pytest.raises(CoxError, match=re.escape("operand 2 is not a polynomial")):
        poly_mult(x00, 2)
    with pytest.raises(CoxError, match=re.escape("operand '1/2' is not a polynomial")):
        poly_mult("1/2", x00)


def test_complex_refielded_in_python_equals_the_one_read_with_field_override():
    # The Koszul point over F_65521, built over F_7 with its entries left
    # over F_65521.  -x_{0,1} was 65520 x_{0,1}, which is 0 mod 7, so d o d
    # read "composite 1*x0_1*x1_1 is nonzero"; --field p:7 reads the JSON's
    # balanced lift -1, and so does the constructor.
    K = koszul_point_complex()
    F7 = PrimeField(7)
    C = LineBundleComplex(K.space, F7, {p: K.summands(p) for p in K.degrees}, K.diffs)
    J = LineBundleComplex.from_json(K.to_json(), field_override=F7)
    assert C.diffs == J.diffs
    window = Window((-3, -3), (3, 3))
    assert cech.cohomology_table(C, window) == cech.cohomology_table(J, window)


def test_entries_over_q_are_converted_into_the_complexs_field():
    # y/2 and (p-1)x/2 over Q in the Koszul point over F_p: d o d is
    # p/2 x_{0,1} x_{1,1}, nonzero over Q, where validate_complex computed
    # it, and zero in F_p, so the complex is built.
    sp = ProductSpace((1, 1))
    F = default_field()

    def koszul(field):
        x, y = var(sp, field, 0, 1), var(sp, field, 1, 1)
        return {-2: [[y.scale("1/2")], [x.scale(Fraction(F.p - 1, 2))]], -1: [[x, y]]}

    C = LineBundleComplex(sp, F, KOSZUL_TERMS, koszul(RATIONALS))
    assert C.diffs == LineBundleComplex(sp, F, KOSZUL_TERMS, koszul(F)).diffs
    assert cech.hypercohomology(C, (0, 0)) == (1, 0, 0)
    seventh = var(sp, RATIONALS, 1, 1).scale("1/7")
    with pytest.raises(FieldError, match="denominator divisible by 7"):
        LineBundleComplex(sp, PrimeField(7), KOSZUL_TERMS, {-2: [[seventh], [None]]})


@pytest.mark.parametrize("twist", [(0.5, 0), (True, 0), (0, "1")])
def test_free_sum_accepts_only_integers(p11, twist):
    # int() read (0.5, 0) as O(0,0) and (True, 0) as O(1,0).
    with pytest.raises(CoxError, match="twists must be integers"):
        free_complex(p11, [twist])


def _parts(case):
    """A complex on P^1 x P^1 whose one map O(-1,0) -> O holds a part the
    space does not have."""
    p11, p22, F = ProductSpace((1, 1)), ProductSpace((2, 2)), default_field()
    x00, x01 = var(p11, F, 0, 0), var(p11, F, 0, 1)
    twist, entry = {
        # Read as (0,0,0) at (0,0): x_{0,2} is a variable of P^2 x P^2.
        "foreign-space": ((-1, 0), var(p22, F, 0, 2)),
        # Read as O(-1,0), or IndexError on the chamber route.
        "long-twist-monomial": ((-1, 0, 7), x01),
        "long-twist-non-monomial": ((-1, 0, 7), x00 + x01),
        # AttributeError wherever the entry was read.
        "zero": ((-1, 0), 0),
    }[case]
    return p11, F, {-1: [twist], 0: [(0, 0)]}, {-1: [[entry]]}


@pytest.mark.parametrize("case, message", [
    ("foreign-space", "lives on ProductSpace(factor_dims=(2, 2))"),
    ("long-twist-monomial", "twist (-1, 0, 7) has length 3, expected 2"),
    ("long-twist-non-monomial", "twist (-1, 0, 7) has length 3, expected 2"),
    ("zero", "matrix entry 0 is neither None nor a polynomial"),
], ids=["foreign-space", "long-twist-monomial", "long-twist-non-monomial", "zero"])
def test_complex_checks_its_parts_where_it_is_built(case, message):
    with pytest.raises(CoxError, match=re.escape(message)):
        LineBundleComplex(*_parts(case))


def test_free_complex_checks_twist_length(p11):
    with pytest.raises(CoxError, match="has length 3, expected 2"):
        free_complex(p11, [(0, 0), (1, 1, 1)])


def test_entry_without_terms_is_stored_as_none(p11):
    # A polynomial whose coefficients all vanish is the zero map, stored as
    # None whichever way it was built.
    F = default_field()
    zero = MultiHomogPoly(p11, F, (1, 0), {((1, 0), (0, 0)): F.p})
    C = LineBundleComplex(p11, F, {-1: [(-1, 0)], 0: [(0, 0)]}, {-1: [[zero]]})
    assert C.diffs == {-1: ((None,),)} and C.entry(-1, 0, 0) is None
    assert LineBundleComplex.from_json(C.to_json()).diffs == C.diffs


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


P11, P12 = ProductSpace((1, 1)), ProductSpace((1, 2))
PRIME = default_field().p


@st.composite
def json_polys(draw):
    """A field and a polynomial object on P^1 x P^2 as the JSON format
    spells it: distinct exponent vectors of the declared degree, whose
    coefficients are integers (zero and multiples of p among them) or
    "num/den" strings."""
    field = draw(st.sampled_from([default_field(), RATIONALS]))
    degree = (draw(st.integers(-1, 2)), draw(st.integers(-1, 2)))
    basis = monomials(P12, degree)
    es = draw(st.lists(st.sampled_from(basis), unique=True)) if basis else []
    coeff = st.one_of(
        st.integers(-3, 3),
        st.integers(-2, 2).map(lambda k: k * PRIME),
        st.tuples(st.integers(-40, 40), st.integers(1, 40)).map(lambda nd: "%d/%d" % nd),
    )
    terms = [{"c": draw(coeff), "e": [list(block) for block in e]} for e in es]
    return field, {"degree": list(degree), "terms": terms}


@settings(max_examples=80, deadline=None)
@given(json_polys())
def test_one_pass_reader_agrees_with_constructor(case):
    field, obj = case
    read = MultiHomogPoly.from_json(P12, field, obj)
    built = MultiHomogPoly(P12, field, obj["degree"],
                           {tuple(map(tuple, t["e"])): t["c"] for t in obj["terms"]})
    assert (read.terms, read.degree) == (built.terms, built.degree)
    assert len(read.terms) == sum(1 for t in obj["terms"] if field.coerce(t["c"]))
    assert MultiHomogPoly.from_json(P12, field, built.to_json()) == built


def _raw_coefficients(field):
    """ints and Fractions whose denominators every field here can invert,
    multiples of its p among them."""
    return st.one_of(
        st.integers(-20, 20),
        st.integers(-2, 2).map(lambda k: k * (field.p or 1)),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
    )


@st.composite
def raw_polys(draw):
    """A field, a degree, two raw term maps of that degree on P^1 x P^2 (the
    second cancels some terms of the first) and a raw scalar."""
    field = draw(st.sampled_from([default_field(), PrimeField(7), RATIONALS]))
    coeff = _raw_coefficients(field)
    degree = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    basis = monomials(P12, degree)
    f = {e: draw(coeff) for e in draw(st.lists(st.sampled_from(basis), unique=True))}
    g = {e: draw(st.sampled_from([-f[e], -f[e] + field.p])) if e in f and draw(st.booleans())
         else draw(coeff) for e in draw(st.lists(st.sampled_from(basis), unique=True))}
    return field, degree, f, g, draw(coeff)


def _coerced(field, raw):
    return {e: x for e, c in raw.items() if (x := field.coerce(c))}


@settings(max_examples=120, deadline=None)
@given(raw_polys())
def test_arithmetic_equals_termwise_reference(case):
    # Each result is the term-wise reference on the raw ints and Fractions,
    # coerced: coercion is a ring map, so reducing once at the end agrees
    # with reducing every step.
    field, degree, rf, rg, c = case
    f, g = (MultiHomogPoly(P12, field, degree, raw) for raw in (rf, rg))
    both = rf.keys() | rg.keys()
    product = {}
    for e1, c1 in rf.items():
        for e2, c2 in rg.items():
            e = tuple(tuple(map(operator.add, b1, b2)) for b1, b2 in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    for got, want in [
        (f + g, {e: rf.get(e, 0) + rg.get(e, 0) for e in both}),
        (f - g, {e: rf.get(e, 0) - rg.get(e, 0) for e in both}),
        (-f, {e: -x for e, x in rf.items()}),
        (f.scale(c), {e: x * c for e, x in rf.items()}),
        (f * g, product),
    ]:
        assert got.field == field and got.terms == _coerced(field, want)
        for x in got.terms.values():
            assert x and (type(x) is int and 0 < x < field.p if field.p else type(x) is Fraction)


def _x(j, i):
    """The exponent vector of x_{j,i} on P^1 x P^1."""
    return tuple(tuple(int(jj == j and ii == i) for ii in range(2)) for jj in range(2))


@st.composite
def two_map_complexes(draw):
    """The Koszul shape over F_7 or Q with raw int entries of one or two
    terms, d_{-1} = [f1, f2] and d_{-2} = [g1, g2]^T.  Half the draws take
    g1 = l*f2 and g2 = -l*f1, so that d o d = 0, and may then move one
    coefficient of g1 by a multiple of 7 or by anything."""
    field = draw(st.sampled_from([PrimeField(7), RATIONALS]))
    coeff = st.integers(-8, 8)

    def entry(j):  # one or two of x_{j,0}, x_{j,1}
        exps = draw(st.lists(st.sampled_from([_x(j, 0), _x(j, 1)]),
                             min_size=1, max_size=2, unique=True))
        return {e: draw(coeff) for e in exps}

    f1, f2 = entry(0), entry(1)
    if draw(st.booleans()):
        lam = draw(coeff)
        g1 = {e: lam * c for e, c in f2.items()}
        g2 = {e: -lam * c for e, c in f1.items()}
        if draw(st.booleans()):
            e = next(iter(g1))
            g1[e] += draw(st.integers(-2, 2).map(lambda k: 7 * k) | coeff)
    else:
        g1, g2 = entry(1), entry(0)
    return field, f1, f2, g1, g2


@settings(max_examples=120, deadline=None)
@given(two_map_complexes())
def test_complex_is_built_exactly_when_its_termwise_composite_is_zero(case):
    field, f1, f2, g1, g2 = case
    composite = {}
    for f, g in [(f1, g1), (f2, g2)]:
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(tuple(map(operator.add, b1, b2)) for b1, b2 in zip(e1, e2))
                composite[e] = composite.get(e, 0) + c1 * c2
    x, y = (1, 0), (0, 1)
    d1 = [[MultiHomogPoly(P11, field, x, f1), MultiHomogPoly(P11, field, y, f2)]]
    d2 = [[MultiHomogPoly(P11, field, y, g1)], [MultiHomogPoly(P11, field, x, g2)]]

    def build():
        return LineBundleComplex(P11, field, KOSZUL_TERMS, {-2: d2, -1: d1})

    if _coerced(field, composite):
        with pytest.raises(CoxError, match=re.escape("invalid complex: [(-2, 0, 0, 'dd', ")):
            build()
    else:
        build()
