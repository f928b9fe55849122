import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bott_table, ideal_sheaf_complex, koszul_point_complex
from prodcoh import bott, cech, tate
from prodcoh.coxring import free_complex
from prodcoh.lattice import ProductSpace, Window
from prodcoh.tate import (
    STATUS_COMPUTED,
    STATUS_INFERRED,
    CohomologyTable,
    StrandInconsistency,
    TateCoverageError,
    corner_checksum,
    strand_checksum,
    strand_is_guaranteed,
    strand_propagate,
    support_box,
    tate_checksum,
    tate_term_dims,
)
from test_cech import koszul_points
from test_minmodel import ideal_of


def all_covered_degrees(space, window, margin=0):
    """Internal degrees whose support box sits inside the window."""
    lo = tuple(l + n + 1 for l, n in zip(window.lo, space.factor_dims))
    return Window(lo, window.hi).twists()


def test_profile_structure_sheaf(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    prof = tate_term_dims(T, (0, 0))
    assert prof.dims == {-2: 1, -1: 2, 0: 1}
    assert tate_checksum(T, (0, 0)) == 0


def test_profile_negative_degree(p11):
    # b = (-1,-1): contributions from (-2,-2) [weight 4, d=-2],
    # (-3,-2)/(-2,-3) [weight 2 each, h^2 = 2, d=-3] and (-3,-3)
    # [weight 1, h^2 = 4, d=-4]; the alternating sum vanishes.
    T = bott_table(p11, [((0, 0), 1)], Window((-4, -4), (3, 3)))
    prof = tate_term_dims(T, (-1, -1))
    assert prof.dims == {-4: 4, -3: 8, -2: 4}
    assert prof.checksum() == 0


def test_profile_zero_sheaf(p11):
    T = bott_table(p11, [], Window((-3, -3), (3, 3)))
    prof = tate_term_dims(T, (0, 0))
    assert prof.dims == {}
    assert tate_checksum(T, (0, 0)) == 0


def test_checksums_vanish_for_test_sheaves(p11):
    window = Window((-5, -5), (4, 4))
    tables = [
        bott_table(p11, [((0, 0), 1)], window),
        bott_table(p11, [((1, 1), 1), ((-1, -1), 1)], window),
        bott_table(p11, [((2, -1), 1), ((0, 0), 2)], window),
        cech.cohomology_table(koszul_point_complex(), window),
        cech.cohomology_table(ideal_sheaf_complex(), window),
    ]
    for T in tables:
        for b in all_covered_degrees(p11, window):
            assert tate_checksum(T, b) == 0, (T, b)


def test_checksum_detects_corruption(p11):
    window = Window((-4, -4), (3, 3))
    T = bott_table(p11, [((0, 0), 1)], window)
    T.set_cell((-1, -1), 1, T.known_dim((-1, -1), 1) + 1, STATUS_COMPUTED)
    assert tate_checksum(T, (-1, -1)) != 0


def test_strand_checksums(p11):
    window = Window((-5, -5), (4, 4))
    T = bott_table(p11, [((0, 0), 1)], window)
    # One-factor strands carry the exactness guarantee.
    assert strand_is_guaranteed(p11, set(), {0}, set())
    for b in [(0, 0), (1, 0), (-1, 2)]:
        assert strand_checksum(T, (0, 0), set(), {0}, set(), b) == 0
        assert strand_checksum(T, (-1, 1), {1}, set(), set(), b) == 0
        assert strand_checksum(T, (0, 0), set(), set(), {0}, b) == 0
    # Exhausting the factors voids the guarantee but still computes.
    assert not strand_is_guaranteed(p11, {0}, {1}, set())
    value = strand_checksum(T, (0, 0), {0}, {1}, set(), (0, 0))
    assert isinstance(value, int)


def test_strand_checksum_corruption(p11):
    window = Window((-4, -4), (3, 3))
    T = bott_table(p11, [((0, 0), 1)], window)
    T.set_cell((0, -1), 1, 5, STATUS_COMPUTED)
    assert strand_checksum(T, (0, 0), set(), {0}, set(), (0, 0)) != 0


def test_strand_disjointness_enforced(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    with pytest.raises(ValueError):
        strand_checksum(T, (0, 0), {0}, {0}, set(), (0, 0))


def test_corner_checksums(p11):
    window = Window((-6, -6), (4, 4))
    T = bott_table(p11, [((0, 0), 1)], window)
    T2 = bott_table(p11, [((1, 1), 1), ((-2, -2), 1)], window)
    for b in all_covered_degrees(p11, window):
        assert corner_checksum(T, (0, 0), b) == 0
        assert corner_checksum(T2, (-1, -1), b) == 0
    T2.set_cell((-2, -2), 2, 1, STATUS_COMPUTED)
    assert any(
        corner_checksum(T2, (-1, -1), b) != 0
        for b in all_covered_degrees(p11, window)
    )


def test_checksums_three_factors():
    sp = ProductSpace((1, 1, 1))
    window = Window((-4, -4, -4), (3, 3, 3))
    T = bott_table(sp, [((0, 0, 0), 1), ((1, 0, -1), 1)], window)
    for b in [(0, 0, 0), (1, 1, 1), (-1, 0, 1)]:
        assert tate_checksum(T, b) == 0
        assert strand_checksum(T, (0, 0, 0), {0}, {1}, set(), b) == 0
        assert strand_checksum(T, (-1, 1, 0), set(), set(), {2}, b) == 0
        assert corner_checksum(T, (0, 0, 0), b) == 0
        assert corner_checksum(T, (-1, 0, 1), b) == 0


def test_corner_checksum_single_factor():
    sp = ProductSpace((1,))
    T = bott_table(sp, [((0,), 1)], Window((-4,), (3,)))
    for b in [(-1,), (0,), (1,)]:
        assert corner_checksum(T, (0,), b) == 0


def test_coverage_error_names_missing(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-1, -1), (1, 1)))
    with pytest.raises(TateCoverageError) as err:
        tate_term_dims(T, (0, 0))
    assert (-2, -2) in err.value.missing


def test_support_box(p11):
    box = support_box(p11, (1, 0))
    assert box.lo == (-1, -2) and box.hi == (1, 0)


def test_propagation_sound_for_line_bundles(p11):
    window = Window((-3, -3), (3, 3))
    T = bott_table(p11, [((0, 0), 1)], window)
    out = strand_propagate(T)
    inferred = [
        (a, i) for (a, i), (dim, s) in out.cells.items() if s == STATUS_INFERRED
    ]
    assert inferred, "expected the rule to fire somewhere"
    for a, i in inferred:
        assert bott.line_bundle_h(p11, a)[i] == 0, (a, i)
    # Original knowledge is preserved.
    for key, cell in T.cells.items():
        assert out.cells[key] == cell


def test_propagation_extends_below_window(p11):
    window = Window((-3, -3), (3, 3))
    T = bott_table(p11, [((0, 0), 1)], window)
    out = strand_propagate(T)
    assert any(a not in window for (a, i) in out.cells)


def test_propagation_no_extension_when_disabled(p11):
    window = Window((-2, -2), (2, 2))
    T = CohomologyTable(p11, window)
    for a in window.twists():
        for i in range(p11.m + 1):
            T.set_cell(a, i, 0, STATUS_COMPUTED)
    out = strand_propagate(T, extend=0)
    assert out.cells == T.cells


def test_propagation_detects_sabotage(p11):
    # O(0,-2) has h^1(F(0,0)) = 1. Zeroing the h^0 antecedent above tricks
    # the rule into inferring zero there, which clashes with the table.
    window = Window((-2, -2), (2, 2))
    T = bott_table(p11, [((0, -2), 1)], window)
    assert T.known_dim((0, 0), 1) == 1
    T.set_cell((0, 2), 0, 0, STATUS_COMPUTED)
    with pytest.raises(StrandInconsistency) as err:
        strand_propagate(T)
    (a, i), dim = err.value.cell, err.value.dim
    assert dim > 0 and T.known_dim(a, i) == dim


def test_propagation_inferences_match_recomputation(p11):
    # Sampled inferred cells agree with direct recomputation.
    rng = random.Random(5)
    C = koszul_point_complex()
    T = cech.cohomology_table(C, Window((-2, -2), (2, 2)))
    out = strand_propagate(T)
    inferred = [
        (a, i) for (a, i), (d, s) in out.cells.items() if s == STATUS_INFERRED
    ]
    for a, i in rng.sample(inferred, min(20, len(inferred))):
        assert cech.hypercohomology(C, a)[i] == 0


def test_profile_duality(p11):
    # dims_b[d] of the structure sheaf equals dims_{-b}[-t-d].
    window = Window((-6, -6), (5, 5))
    T = bott_table(p11, [((0, 0), 1)], window)
    for b in itertools.product(range(-2, 3), repeat=2):
        prof = tate_term_dims(T, b)
        dual = tate_term_dims(T, tuple(-x for x in b))
        assert prof.dims == {
            -p11.t - d: v for d, v in dual.dims.items()
        }, b


def test_table_json_csv_roundtrip(p11):
    T = bott_table(p11, [((1, 0), 1)], Window((-2, -2), (2, 2)))
    T2 = CohomologyTable.from_json(T.to_json())
    assert T2 == T
    csv_text = T.to_csv()
    assert csv_text.splitlines()[0] == "a1,a2,i,dim,status"
    assert len(csv_text.splitlines()) == 1 + 25 * 3


# ---------------------------------------------------------------------------
# Property test: the one-sweep propagation equals the naive fixed point.


def naive_propagate(T, extend=None):
    """Reference: rescan the box for every factor until no rule fires."""
    space = T.space
    if extend is None:
        margins = tuple(nj + 1 for nj in space.factor_dims)
    elif isinstance(extend, int):
        margins = (extend,) * space.t
    else:
        margins = tuple(int(x) for x in extend)
    lo = tuple(l - mg for l, mg in zip(T.window.lo, margins))
    box = Window(lo, T.window.hi)
    out = T.copy()
    m = space.m

    def known_zero(a, i):
        if i < 0 or i > m:
            return True
        cell = out.cells.get((a, i))
        return cell is not None and cell[0] == 0

    changed = True
    while changed:
        changed = False
        for j in range(space.t):
            nj = space.factor_dims[j]
            step = tuple(1 if jj == j else 0 for jj in range(space.t))
            for a in box.twists():
                target = tuple(x - s for x, s in zip(a, step))
                if target not in box:
                    continue
                for n in range(m + 1):
                    if (target, n) in out.cells:
                        continue
                    ante = [
                        (tuple(x + k * s for x, s in zip(a, step)), n - k)
                        for k in range(nj + 1)
                    ]
                    if all(known_zero(aa, ii) for aa, ii in ante):
                        out.cells[(target, n)] = (0, STATUS_INFERRED)
                        changed = True
    for j in range(space.t):
        nj = space.factor_dims[j]
        step = tuple(1 if jj == j else 0 for jj in range(space.t))
        for (a, n), (dim, status) in T.cells.items():
            if dim == 0 or status != STATUS_COMPUTED:
                continue
            src = tuple(x + s for x, s in zip(a, step))
            ante = [
                (tuple(x + k * s for x, s in zip(src, step)), n - k)
                for k in range(nj + 1)
            ]
            if all(known_zero(aa, ii) for aa, ii in ante):
                raise StrandInconsistency((a, n), dim, ante)
    return out


@st.composite
def random_tables(draw):
    """A table of zero, nonzero and unknown cells over a small window, plus
    cells outside it (above hi and below lo), and an `extend` argument."""
    dims = draw(st.sampled_from([(1,), (1, 1), (1, 2), (1, 1, 1), (2, 3)]))
    sp = ProductSpace(dims)
    lo = tuple(draw(st.integers(-2, 1)) for _ in dims)
    hi = tuple(l + draw(st.integers(0, 3 if sp.t < 3 else 2)) for l in lo)
    T = CohomologyTable(sp, Window(lo, hi))
    nonzero_rate = draw(st.integers(0, 2))
    # Cell codes 0..9: below nonzero_rate nonzero, 8 and 9 unknown, 7 an
    # inferred zero, the rest computed zeros.
    near = st.tuples(*[st.integers(l - 3, h + 3) for l, h in zip(lo, hi)])
    outside = draw(st.lists(near, max_size=8))
    for a in itertools.chain(T.window.twists(), outside):
        codes = draw(st.lists(st.integers(0, 9), min_size=sp.m + 1, max_size=sp.m + 1))
        for i, code in enumerate(codes):
            if code < nonzero_rate:
                T.set_cell(a, i, draw(st.integers(1, 3)))
            elif code < 8:
                T.set_cell(a, i, 0, STATUS_INFERRED if code == 7 else STATUS_COMPUTED)
    extend = draw(st.one_of(
        st.none(),
        st.just(0),
        st.integers(1, 3),
        st.tuples(*[st.integers(0, 3)] * sp.t),
    ))
    return T, extend


def propagation_outcome(propagate, T, extend):
    """The closed cells, or the clash StrandInconsistency reports."""
    try:
        return propagate(T, extend).cells
    except StrandInconsistency as exc:
        return ("clash", exc.cell, exc.dim, exc.antecedents)


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_propagation_sweep_equals_naive_fixed_point(case):
    T, extend = case
    before = list(T.cells.items())
    got = propagation_outcome(strand_propagate, T, extend)
    assert list(T.cells.items()) == before
    assert got == propagation_outcome(naive_propagate, T, extend)


# ---------------------------------------------------------------------------
# Property tests: tables from the engine.


@st.composite
def sheaf_tables(draw):
    """The engine's table of a Koszul point, its ideal sheaf or a free sum,
    over a random window at least one support box wide in every factor."""
    K, _ = draw(koszul_points())
    sp, field = K.space, K.field
    kind = draw(st.sampled_from(["point", "ideal", "free"]))
    if kind == "ideal":
        K = ideal_of(K)
    elif kind == "free":
        twist = st.tuples(*[st.integers(-3, 2)] * sp.t)
        K = free_complex(sp, draw(st.lists(twist, min_size=1, max_size=3)), field)
    lo = tuple(draw(st.integers(-5, -1)) for _ in range(sp.t))
    hi = tuple(l + n + 1 + draw(st.integers(0, 1)) for l, n in zip(lo, sp.factor_dims))
    return cech.cohomology_table(K, Window(lo, hi))


@settings(max_examples=20, deadline=None)
@given(sheaf_tables(), st.data())
def test_checksums_vanish_on_engine_tables(T, data):
    sp = T.space
    c = tuple(data.draw(st.integers(l, h)) for l, h in zip(T.window.lo, T.window.hi))
    # Each factor goes to I, J, K or none of them.
    parts = [data.draw(st.sampled_from("IJK-")) for _ in range(sp.t)]
    I, J, K = ({j for j, x in enumerate(parts) if x == name} for name in "IJK")
    for b in all_covered_degrees(sp, T.window):
        assert tate_checksum(T, b) == 0, b
        assert corner_checksum(T, c, b) == 0, (c, b)
        if strand_is_guaranteed(sp, I, J, K):
            assert strand_checksum(T, c, I, J, K, b) == 0, (c, I, J, K, b)
