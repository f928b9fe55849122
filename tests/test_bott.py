import itertools

from hypothesis import example, given, settings, strategies as st

import reference
from prodcoh import bott
from prodcoh.lattice import ProductSpace, Window, vadd


def convolve(vectors):
    out = [1]
    for v in vectors:
        new = [0] * (len(out) + len(v) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(v):
                new[i + j] += x * y
        out = new
    return tuple(out)


def test_factor_h_values():
    assert bott.line_bundle_h(ProductSpace((1,)), (0,)) == (1, 0)
    assert bott.line_bundle_h(ProductSpace((1,)), (-1,)) == (0, 0)
    assert bott.line_bundle_h(ProductSpace((1,)), (-2,)) == (0, 1)
    assert bott.line_bundle_h(ProductSpace((2,)), (-4,)) == (0, 0, 3)
    assert bott.line_bundle_h(ProductSpace((2,)), (3,)) == (10, 0, 0)
    assert bott.line_bundle_h(ProductSpace((3,)), (-5,)) == (0, 0, 0, 4)
    # (q, x): h^q counts the compositions of x into n+1 parts.
    assert bott.factor_group(2, 3) == (0, 3)
    assert bott.factor_group(2, -4) == (2, 1)
    assert bott.factor_group(2, -3) == (2, 0)
    assert bott.factor_group(2, -1) is None


def test_line_bundle_values(p11, p23):
    h = bott.line_bundle_h(p23, (-3, 1))
    assert h[2] == 4 and sum(h) == 4
    assert bott.line_bundle_h(p23, (-1, 0)) == (0,) * 6
    assert bott.line_bundle_h(p11, (-2, -2)) == (0, 0, 1)
    assert bott.line_bundle_h(p23, (4, 2))[0] == 150


def test_kunneth_consistency(p12):
    for a in itertools.product(range(-5, 5), repeat=2):
        vectors = [
            bott.line_bundle_h(ProductSpace((n,)), (aj,)) for n, aj in zip(p12.factor_dims, a)
        ]
        assert bott.line_bundle_h(p12, a) == convolve(vectors)


def test_serre_duality(p11, p23):
    for sp in (p11, p23):
        m = sp.m
        for a in itertools.product(range(-5, 4), repeat=2):
            dual = reference.serre_dual_twist(sp, a)
            h = bott.line_bundle_h(sp, a)
            hd = bott.line_bundle_h(sp, dual)
            assert h == tuple(reversed(hd)), (sp, a)


def test_euler_characteristic_polynomial(p11, p23):
    for sp in (p11, p23):
        for a in itertools.product(range(-6, 5), repeat=2):
            h = bott.line_bundle_h(sp, a)
            chi = sum((-1) ** i * x for i, x in enumerate(h))
            assert chi == reference.euler_characteristic(sp, a), (sp, a)


def test_poly_binom():
    assert reference.poly_binom(-2, 2) == 3
    assert reference.poly_binom(5, 2) == 10
    assert reference.poly_binom(-1, 3) == -1
    assert reference.poly_binom(0, 0) == 1


def test_at_most_one_nonzero_group(p23):
    for a in itertools.product(range(-6, 4), repeat=2):
        h = bott.line_bundle_h(p23, a)
        assert sum(1 for x in h if x) <= 1


@st.composite
def kunneth_cases(draw):
    """A space, terms (shift, b, mult) with shifts from -m-1 to m+1, so that
    some indices leave 0..m, and a window of up to 4 steps per factor."""
    sp = ProductSpace(draw(st.sampled_from([(1, 1), (1, 2), (1, 1, 1), (2, 3)])))
    twist = st.tuples(*[st.integers(-6, 4)] * sp.t)
    shift = st.integers(-sp.m - 1, sp.m + 1)
    terms = draw(st.lists(st.tuples(shift, twist, st.integers(1, 3)), max_size=4))
    lo = draw(st.tuples(*[st.integers(-5, 2)] * sp.t))
    window = Window(lo, tuple(x + draw(st.integers(0, 3)) for x in lo))
    return sp, terms, window


@settings(max_examples=80, deadline=None)
@given(kunneth_cases())
@example((ProductSpace((2, 3)), [(-2, (0, -4), 2), (3, (-3, 0), 1), (0, (1, 1), 3)],
          Window((-5, -6), (1, 2))))
def test_kunneth_window_equals_bott_sum(case):
    """kunneth_window against sum mult * line_bundle_h(a + b), each vector
    moved up by shift and cut to 0..m, at every twist of the window."""
    sp, terms, window = case
    got = bott.kunneth_window(sp, window, terms)
    assert list(got) == list(window.twists())
    for a, h in got.items():
        want = [0] * (sp.m + 1)
        for shift, b, mult in terms:
            for q, dim in enumerate(bott.line_bundle_h(sp, vadd(a, b))):
                if 0 <= q + shift <= sp.m:
                    want[q + shift] += mult * dim
        assert h == want, a
