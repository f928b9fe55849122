import itertools

import reference
from prodcoh import bott
from prodcoh.lattice import ProductSpace


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


def test_line_bundle_values(p11, p23):
    h = bott.line_bundle_h(p23, (-3, 1))
    assert h[2] == 4 and sum(h) == 4
    assert bott.line_bundle_h(p23, (-1, 0)) == (0,) * 6
    assert bott.line_bundle_h(p11, (-2, -2)) == (0, 0, 1)
    assert bott.line_bundle_h(p23, (4, 2))[0] == 150


def test_signature(p23):
    assert bott.signature(p23, (-5, 0)) == (2, frozenset({0}))
    assert bott.signature(p23, (0, -5)) == (3, frozenset({1}))
    assert bott.signature(p23, (0, 0)) == (0, frozenset())
    assert bott.signature(p23, (-1, 0)) is None
    assert bott.is_intermediate(p23, bott.signature(p23, (-5, 0)))
    assert not bott.is_intermediate(p23, bott.signature(p23, (0, 0)))


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
