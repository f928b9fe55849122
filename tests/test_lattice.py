import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from prodcoh import bott
from reference import intermediate_k_range
from prodcoh.lattice import (
    LatticeError,
    Polarization,
    ProductSpace,
    Window,
    canonical_twist,
    leq,
    lt,
    render_region,
    safe_region,
    vadd,
    vscale,
)


def test_product_space_m_and_t_are_set_once():
    sp = ProductSpace([2, 3, 1])
    assert (sp.m, sp.t) == (6, 3)
    assert [f.name for f in dataclasses.fields(sp)] == ["factor_dims"]
    assert sp == ProductSpace((2, 3, 1)) and hash(sp) == hash(ProductSpace((2, 3, 1)))
    assert sp != ProductSpace((2, 4)) and repr(sp) == "ProductSpace(factor_dims=(2, 3, 1))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.m = 7


def brute_k_range(space, d, a, bound=10):
    """Independent oracle: scan a fixed symmetric k-interval and test
    mixedness directly from the cohomology vector."""
    out = []
    for k in range(-bound, bound + 1):
        h = bott.line_bundle_h(space, vadd(vscale(k, d.d), a))
        if any(h[i] for i in range(1, space.m)):
            out.append(k)
    return tuple(out)


def test_leq():
    assert leq((0, 0), (0, 0))
    assert leq((-1, 2), (0, 2))
    assert not leq((-1, 3), (0, 2))
    assert not lt((0, 0), (0, 0))
    assert lt((-1, 2), (0, 2))
    with pytest.raises(LatticeError):
        leq((0, 0), (0, 0, 0))


def test_canonical_twist():
    assert canonical_twist(ProductSpace((1, 1))) == (-2, -2)
    assert canonical_twist(ProductSpace((2, 3))) == (-3, -4)
    assert canonical_twist(ProductSpace((1, 1, 2))) == (-2, -2, -3)


def test_space_validation():
    with pytest.raises(LatticeError):
        ProductSpace(())
    with pytest.raises(LatticeError):
        ProductSpace((0, 1))
    with pytest.raises(LatticeError):
        Polarization((1, 0))
    with pytest.raises(LatticeError):
        Window((0, 0), (-1, 0))


def test_degree_accepts_only_integers(p11):
    assert p11.degree([3, -4]) == (3, -4)
    for a in ((0.9, 0), (True, 0), ("1", 0), (1.0, 0)):
        with pytest.raises(LatticeError):
            p11.degree(a)
    with pytest.raises(LatticeError):
        ProductSpace((1, 1.5))


def test_polarization_accepts_only_integers():
    assert Polarization([2, 1]).d == (2, 1)
    for d in ((1.0, 1), (1.5, 1), (True, 1), ("1", 1)):
        with pytest.raises(LatticeError, match="polarization degrees must be integers"):
            Polarization(d)


def test_window_accepts_only_integers():
    assert Window([-1, 0], [2, 3]).lo == (-1, 0)
    for lo, hi in (((0.5, 0), (1, 1)), ((0, 0), (1, 1.0)), ((False, 0), (1, 1)),
                   (("0", 0), (1, 1))):
        with pytest.raises(LatticeError, match="window corners must be integers"):
            Window(lo, hi)


def test_window_contains_refuses_a_twist_of_another_length():
    # zip used to truncate the twist: (1, 2, 3) and (1,) were both in the window.
    w = Window((0, 0), (5, 5))
    assert (1, 2) in w and (6, 2) not in w
    for a in ((1, 2, 3), (1,), ()):
        with pytest.raises(LatticeError, match=r"twist .* has length %d, the window's corners 2"
                           % len(a)):
            a in w


@st.composite
def polarized_windows(draw):
    """A space with t <= 4 factors of dimension <= 4, a polarization with
    degrees <= 4, and a small window inside [-15, 15]^t."""
    t = draw(st.integers(1, 4))
    space = ProductSpace(tuple(draw(st.integers(1, 4)) for _ in range(t)))
    d = Polarization(tuple(draw(st.integers(1, 4)) for _ in range(t)))
    lo = tuple(draw(st.integers(-15, 15)) for _ in range(t))
    hi = tuple(min(15, x + draw(st.integers(0, 3))) for x in lo)
    return space, d, Window(lo, hi)


@settings(max_examples=300, deadline=None)
@given(polarized_windows())
def test_safe_region_equals_k_range_scan(case):
    space, d, window = case
    assert safe_region(space, d, window) == {
        a for a in window.twists() if not intermediate_k_range(space, d, a)
    }


@st.composite
def wide_polarized_windows(draw):
    """As polarized_windows, with windows up to 12 wide for t <= 2, 8 for
    t = 3 and 4 for t = 4, so that rows are long and, for t >= 3, prefixes
    are mixed at several k."""
    t = draw(st.integers(1, 4))
    width = {1: 12, 2: 12, 3: 8, 4: 4}[t]
    space = ProductSpace(tuple(draw(st.integers(1, 4)) for _ in range(t)))
    d = Polarization(tuple(draw(st.integers(1, 4)) for _ in range(t)))
    lo = tuple(draw(st.integers(-15, 15)) for _ in range(t))
    hi = tuple(x + draw(st.integers(0, width - 1)) for x in lo)
    return space, d, Window(lo, hi)


@settings(max_examples=300, deadline=None)
@given(wide_polarized_windows())
def test_safe_region_equals_k_range_scan_on_wide_windows(case):
    space, d, window = case
    assert safe_region(space, d, window) == {
        a for a in window.twists() if not intermediate_k_range(space, d, a)
    }


def test_safe_region_rows_with_a_prefix_mixed_at_several_k():
    # On P^1 x P^1 x P^4 the prefix (a_1, a_2) is mixed at every k of
    # intermediate_k_range on P^1 x P^1; with n_3 = 4 and d_3 = 1 the last
    # factor's gap can hold up to four such k, so the mixed-prefix cut alone
    # decides these rows.
    space, d = ProductSpace((1, 1, 4)), Polarization((1, 1, 1))
    window = Window((-6, -6, -9), (6, 6, 3))
    prefix_space, prefix_d = ProductSpace((1, 1)), Polarization((1, 1))
    region = safe_region(space, d, window)
    assert region == {a for a in window.twists() if not intermediate_k_range(space, d, a)}
    decided = {len(intermediate_k_range(prefix_space, prefix_d, a[:2])) for a in region}
    assert {2, 3, 4} <= decided
    # (0, -4): the prefix is mixed at k = 0, 1, 2, so x is safe iff -5 < x < -2.
    assert [x for x in range(-9, 4) if (0, -4, x) in region] == [-4, -3]


def test_safe_region_band_at_500(p11):
    # The band's closed form holds at any size: with |a_1 - a_2| >= 2 the
    # twist is mixed at k = -max(a), and with |a_1 - a_2| <= 1 at no k.
    window = Window((-500, -500), (500, 500))
    expected = {(x, x + e) for x in range(-500, 501) for e in (-1, 0, 1)
                if -500 <= x + e <= 500}
    assert safe_region(p11, Polarization((1, 1)), window) == expected


def test_intermediate_k_range_examples(p11):
    d = Polarization((1, 1))
    assert intermediate_k_range(p11, d, (0, 0)) == ()
    assert intermediate_k_range(p11, d, (-3, 0)) == (0, 1)
    assert intermediate_k_range(p11, d, (-1, -2)) == ()


def test_intermediate_k_range_matches_brute_force(p11, p23):
    for sp, d in [(p11, Polarization((1, 1))), (p23, Polarization((4, 2)))]:
        for a in itertools.product(range(-4, 5), repeat=2):
            assert intermediate_k_range(sp, d, a) == brute_k_range(sp, d, a), (sp, a)


def test_k_range_shift_equivariance(p11):
    # Twisting by d shifts the whole k-family by one.
    d = Polarization((1, 1))
    for a in itertools.product(range(-4, 5), repeat=2):
        shifted = intermediate_k_range(p11, d, vadd(a, d.d))
        assert shifted == tuple(k - 1 for k in intermediate_k_range(p11, d, a))


def test_safe_region_band(p11):
    d = Polarization((1, 1))
    window = Window((-4, -4), (4, 4))
    region = safe_region(p11, d, window)
    expected = {
        a for a in window.twists() if abs(a[0] - a[1]) <= 1
    }
    assert region == expected
    assert (-2, -2) in region
    # On safe twists every O(kH)(a) is zero or concentrated at 0 or m.
    for a in region:
        for k in range(-10, 11):
            assert not any(bott.line_bundle_h(p11, vadd(vscale(k, d.d), a))[1:p11.m])


def test_safe_region_p2p3(p23):
    d = Polarization((4, 2))
    window = Window((-10, -5), (2, 2))
    region = safe_region(p23, d, window)
    assert region
    assert (-3, 0) not in region
    # Cross-check every cell against the brute-force oracle.
    for a in window.twists():
        assert (a in region) == (not brute_k_range(p23, d, a, bound=12))


def test_safe_region_diagonal_shift(p11):
    d = Polarization((1, 1))
    window = Window((-5, -5), (5, 5))
    region = safe_region(p11, d, window)
    for a in region:
        shifted = vadd(a, d.d)
        if shifted in window:
            assert shifted in region


REFERENCE_FULL_GRID = "\n".join(
    [
        "###..##",
        "###..##",
        "###..##",
        ".......",
        ".......",
        ".......",
        "###..##",
        "###..##",
    ]
)

REFERENCE_INTERMEDIATE_GRID = "\n".join(
    [
        "###....",
        "###....",
        "###....",
        ".......",
        ".......",
        ".......",
        ".....##",
        ".....##",
    ]
)


def test_render_region_reference_grids(p23):
    window = Window((-5, -5), (1, 2))
    full = {a for a in window.twists() if any(bott.line_bundle_h(p23, a))}
    inter = {a for a in window.twists() if any(bott.line_bundle_h(p23, a)[1:p23.m])}
    assert render_region(full, window) == REFERENCE_FULL_GRID
    assert render_region(inter, window) == REFERENCE_INTERMEDIATE_GRID


def test_render_region_empty():
    window = Window((-1, -1), (1, 1))
    assert render_region(set(), window) == "...\n...\n..."


def test_render_region_needs_2d():
    with pytest.raises(LatticeError):
        render_region(set(), Window((0, 0, 0), (1, 1, 1)))
