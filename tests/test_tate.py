import itertools
import random
import re
import time
from collections.abc import Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import bott_table, ideal_sheaf_complex, koszul_point_complex
from prodcoh import bott, cech, splitter
from prodcoh.coxring import MultiHomogPoly, free_complex
from prodcoh.lattice import LatticeError, Polarization, ProductSpace, Window
from prodcoh.linalg import default_field
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
    tate_term_dims,
)
from test_cech import koszul_complex, koszul_points
from test_minmodel import ideal_of


def all_covered_degrees(space, window, margin=0):
    """Internal degrees whose support box sits inside the window."""
    lo = tuple(l + n + 1 for l, n in zip(window.lo, space.factor_dims))
    return Window(lo, window.hi).twists()


def test_profile_structure_sheaf(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    prof = tate_term_dims(T, (0, 0))
    assert prof.dims == {-2: 1, -1: 2, 0: 1}
    assert tate_term_dims(T, (0, 0)).checksum() == 0


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
    assert tate_term_dims(T, (0, 0)).checksum() == 0


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
            assert tate_term_dims(T, b).checksum() == 0, (T, b)


def test_checksum_detects_corruption(p11):
    window = Window((-4, -4), (3, 3))
    T = bott_table(p11, [((0, 0), 1)], window)
    T.set_cell((-1, -1), 1, T.known_dim((-1, -1), 1) + 1, STATUS_COMPUTED)
    assert tate_term_dims(T, (-1, -1)).checksum() != 0


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
        assert tate_term_dims(T, b).checksum() == 0
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


@pytest.mark.parametrize("extend", [(1.7, 2.2), (2, 2, 2), -1, True, (True, 1)],
                         ids=["float", "too-long", "negative", "bool", "bool-in-tuple"])
def test_malformed_extend_is_refused(p11, extend):
    T = bott_table(p11, [((0, 0), 1)], Window((-2, -2), (2, 2)))
    with pytest.raises(ValueError, match="extend must be"):
        strand_propagate(T, extend=extend)


def test_first_factor_clash_is_reported_in_either_order(p11):
    # h^0(O(a)) vanishes iff some a_j < 0.  Raised to 1, h^0 at (2,-1)
    # clashes along factor 0 only (h^0(O(3,-1)) = 0 but h^0(O(2,0)) = 3),
    # and h^0 at (-1,2) along factor 1 only.
    base = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    raised = [((-1, 2), 0), ((2, -1), 0)]
    for order in (raised, raised[::-1]):
        cells = {key: cell for key, cell in base.cells.items() if key not in raised}
        cells.update((key, (1, STATUS_COMPUTED)) for key in order)
        T = CohomologyTable(p11, base.window, cells)
        with pytest.raises(StrandInconsistency) as err:
            strand_propagate(T)
        assert (err.value.cell, err.value.dim, err.value.antecedents) == (
            ((2, -1), 0), 1, (((3, -1), 0), ((4, -1), -1)))
        assert propagation_outcome(naive_propagate, T, None) == (
            "clash", ((2, -1), 0), 1, (((3, -1), 0), ((4, -1), -1)))


def test_no_inference_at_window_top():
    # On P^1 over [0, 2] with twist 2 unknown and zeros stored at 3 and 4,
    # the rule would force twist 2 from above, but only twists of the box
    # serve as antecedents, so it stays unknown; 1 and 0 force -1 and -2.
    p1 = ProductSpace((1,))
    T = CohomologyTable(p1, Window((0,), (2,)))
    for a, i in itertools.product((0, 1, 3, 4), (0, 1)):
        T.set_cell((a,), i, 0)
    out = strand_propagate(T)
    assert out.cells == naive_propagate(T).cells
    assert [key for key in out.cells if key not in T.cells] == [
        ((-2,), 0), ((-2,), 1), ((-1,), 0), ((-1,), 1)]


def test_clashes_at_the_window_top_and_outside_the_box(p11):
    def zeros(space, window):
        T = CohomologyTable(space, window)
        for a in window.twists():
            for i in range(space.m + 1):
                T.set_cell(a, i, 0)
        return T

    # A cell at the window top has antecedents up to n_j + 1 above it.
    p1 = ProductSpace((1,))
    T = zeros(p1, Window((0,), (1,)))
    T.set_cell((1,), 1, 1)
    T.set_cell((2,), 1, 0)
    T.set_cell((3,), 0, 0)
    want = ("clash", ((1,), 1), 1, (((2,), 1), ((3,), 0)))
    assert propagation_outcome(strand_propagate, T, None) == want
    assert propagation_outcome(naive_propagate, T, None) == want
    # Two steps above the window top of factor 1, (0,3) has no antecedent
    # along it; the next row of the layout, at (1,-2), is an inferred zero.
    T = zeros(p11, Window((0, 0), (1, 1)))
    T.set_cell((0, 3), 0, 1)
    assert propagation_outcome(strand_propagate, T, None) == naive_propagate(T).cells
    # A stray below the box is the only clash.
    T.set_cell((3, -10), 0, 1)
    T.set_cell((4, -10), 0, 0)
    want = ("clash", ((3, -10), 0), 1, (((4, -10), 0), ((5, -10), -1)))
    assert propagation_outcome(strand_propagate, T, None) == want
    assert propagation_outcome(naive_propagate, T, None) == want


def test_far_stray_cell_is_cheap(p11):
    # The bit planes span the box, not the cells: a zero 10^6 steps away
    # neither grows them nor changes what is inferred.
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    want = strand_propagate(T).cells
    for far in ((10 ** 6, 0), (-10 ** 6, -10 ** 6)):
        U = T.copy()
        U.set_cell(far, 1, 0)
        start = time.perf_counter()
        got = strand_propagate(U).cells
        assert time.perf_counter() - start < 1.0
        assert got == {**want, (far, 1): (0, STATUS_COMPUTED)}


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


@pytest.mark.parametrize("second", [
    {"dim": 5, "status": STATUS_COMPUTED},
    {"dim": 1, "status": STATUS_COMPUTED},
    {"dim": 0, "status": STATUS_INFERRED},
], ids=["other-dim", "same-dim", "inferred"])
def test_table_from_json_refuses_a_cell_given_twice(p11, second):
    # The last entry used to win: dim 1 and then dim 5 at ((0, 0), 0) read
    # as h = (5, 0, 0).
    obj = CohomologyTable(p11, Window((0, 0), (0, 0))).to_json()
    obj["cells"] = [{"a": [0, 0], "i": 0, "dim": 1, "status": STATUS_COMPUTED},
                    {"a": [0, 0], "i": 0, **second}]
    with pytest.raises(ValueError, match=re.escape("cell ((0, 0), 0) is given twice")):
        CohomologyTable.from_json(obj)
    obj["cells"][1]["i"] = 1
    assert CohomologyTable.from_json(obj).known_dim((0, 0), 1) == second["dim"]


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
        cell = out.get(a, i)
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
                    if out.get(target, n) is not None:
                        continue
                    ante = [
                        (tuple(x + k * s for x, s in zip(a, step)), n - k)
                        for k in range(nj + 1)
                    ]
                    if all(known_zero(aa, ii) for aa, ii in ante):
                        out.set_cell(target, n, 0, STATUS_INFERRED)
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


@st.composite
def computed_tables(draw):
    """A table with every cell of a small window computed, nonzero at a
    drawn rate, and no cell outside it: what split_check propagates."""
    sp = ProductSpace(draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 2)])))
    lo = tuple(draw(st.integers(-3, 1)) for _ in range(sp.t))
    hi = tuple(l + draw(st.integers(0, 3 if sp.t < 3 else 2)) for l in lo)
    T = CohomologyTable(sp, Window(lo, hi))
    rate = draw(st.integers(1, 5))  # a cell is nonzero when its code is below rate
    for a in T.window.twists():
        codes = draw(st.lists(st.integers(0, 9), min_size=sp.m + 1, max_size=sp.m + 1))
        T.set_h(a, [draw(st.integers(1, 3)) if code < rate else 0 for code in codes])
    return T


def strand_clash(T, extend):
    """What StrandInconsistency reports, message included, or None."""
    try:
        strand_propagate(T, extend)
    except StrandInconsistency as exc:
        return exc.cell, exc.dim, exc.antecedents, str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(computed_tables())
def test_window_only_strand_check_finds_the_same_clash(T):
    # split_check's claim: on a fully computed table, a derived zero in the
    # window rests on cells above it alone, so forbidding extension below
    # the window changes neither whether the rule clashes nor which clash.
    assert strand_clash(T, 0) == strand_clash(T, None)


@settings(max_examples=200, deadline=None)
@given(computed_tables(), st.one_of(st.none(), st.integers(0, 3)))
def test_propagation_equals_naive_on_computed_tables(T, extend):
    # T holds its window's vectors, as the engine's tables do: with extend 0
    # they are the planes' whole layout, else the window's top part of it.
    got = propagation_outcome(strand_propagate, T, extend)
    assert got == propagation_outcome(naive_propagate, T, extend)


def test_reading_an_engine_table_keeps_its_store(p11):
    # copy, ==, propagation within the window and split_check read the
    # engine's vectors and never build the (a, i) dict.
    window = Window((-4, -4), (3, 3))
    d = Polarization((1, 1))
    K = cech.cohomology_table(koszul_point_complex(), window)
    cells = reference.cell_table(K)
    cases = [
        (free_complex(p11, [(1, 1), (0, 0), (-1, -1)]), window, "split"),
        (free_complex(p11, [(1, 1), (1, -2)]), window, "nonsplit"),
        (free_complex(p11, [(1, 1), (-1, -1)]), Window((-1, -1), (0, 0)), "inconclusive"),
        (koszul_point_complex(), window, "inconclusive"),
    ]

    def no_dict(table):
        raise AssertionError("the cell dict was built")

    with mock.patch.object(CohomologyTable, "cells", property(no_dict)):
        T = cech.cohomology_table(koszul_point_complex(), window)
        U = T.copy()
        assert U.rows() == T.rows() and U.rows() is not T.rows()
        assert U == T and T == K and T == cells and not T != cells
        assert strand_propagate(T, extend=0) == T
        for C, w, kind in cases:
            assert splitter.split_check(C, d, w).kind == kind


def test_set_h_checks_the_vector_as_set_cell_does(p11):
    T = CohomologyTable(p11, Window((0, 0), (1, 1)))
    T.set_h((1, 0), (2, 0, 1))
    T.set_h((0, 0), [0, 3, 0])
    assert list(T.cells.items()) == [
        (((0, 0), i), (dim, STATUS_COMPUTED)) for i, dim in enumerate((0, 3, 0))] + [
        (((1, 0), i), (dim, STATUS_COMPUTED)) for i, dim in enumerate((2, 0, 1))]
    for h, message in [((1, -1, 0), "negative dimension at ((0, 1), 1)"),
                       ((1, 0, 2.0), "dimension 2.0 at ((0, 1), 2) is not an integer"),
                       ((1, "1", 0), "dimension '1' at ((0, 1), 1) is not an integer"),
                       ((True, 0, 0), "dimension True at ((0, 1), 0) is not an integer"),
                       ((1, 0), "vector (1, 0) at (0, 1) needs 3 entries")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            T.set_h((0, 1), h)
    with pytest.raises(LatticeError):
        T.set_h((0, 1.0), (1, 0, 0))
    assert len(T.cells) == 6  # a refused vector stores nothing


def test_constructor_checks_cells_as_set_cell_does(p11):
    window = Window((0, 0), (1, 1))
    with pytest.raises(ValueError, match="index 7 is not one of 0..2"):
        CohomologyTable(p11, window, {((0, 0), 7): (1, "computed"),
                                      ((0, 0), 0): (-3, "bogus")})
    for cell, message in [((-3, STATUS_COMPUTED), "negative dimension"),
                          ((0, "bogus"), "unknown cell status 'bogus'"),
                          ((1, STATUS_INFERRED), "inferred cells must be zero")]:
        with pytest.raises(ValueError, match=message):
            CohomologyTable(p11, window, {((0, 0), 0): cell})


def test_cells_read_in_sorted_order_whatever_the_store_order(p11):
    # h^0(O(a)) vanishes iff some a_j < 0.  Raised to 1, h^0 at (2,-2) and
    # at (2,-1) each clash along factor 0 only; the first in sorted order
    # is reported, whichever was stored first.
    base = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    cells = {**base.cells, ((2, -1), 0): (1, STATUS_COMPUTED), ((2, -2), 0): (1, STATUS_COMPUTED)}
    T, U = (CohomologyTable(p11, base.window, dict(order))
            for order in (cells.items(), reversed(cells.items())))
    assert list(T.cells.items()) == list(U.cells.items()) == sorted(cells.items())
    assert T.to_json() == U.to_json() and T.to_csv() == U.to_csv()
    assert strand_clash(T, None) == strand_clash(U, None) == (
        ((2, -2), 0), 1, (((3, -2), 0), ((4, -2), -1)),
        "strand rule forces h^0(F((2, -2))) = 0 but the table has 1")
    with pytest.raises(TypeError):
        T.cells[((0, 0), 0)] = (5, STATUS_COMPUTED)
    with pytest.raises(TypeError):
        del T.cells[((0, 0), 0)]
    assert T.get((0, 0), 0) == (1, STATUS_COMPUTED)


def test_a_cell_keeps_the_status_it_was_last_written_with(p11):
    T = CohomologyTable(p11, Window((0, 0), (1, 1)))
    T.set_cell((0, 0), 1, 0, STATUS_INFERRED)
    U = T.copy()
    assert T.get((0, 0), 1) == (0, STATUS_INFERRED) and U == T
    U.set_cell((0, 0), 1, 0)
    assert U.get((0, 0), 1) == (0, STATUS_COMPUTED) and U != T
    T.set_h((0, 0), (1, 0, 0))
    assert T.get((0, 0), 1) == (0, STATUS_COMPUTED)
    assert T.cells == {((0, 0), i): (dim, STATUS_COMPUTED) for i, dim in enumerate((1, 0, 0))}


def test_factor_indices_outside_the_space_are_refused(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (3, 3)))
    for (I, J, K), bad in [(({-1}, set(), set()), -1), (({5}, set(), set()), 5),
                           (({0, 7}, (), ()), 7), ((set(), {0}, {2}), 2)]:
        message = "factor index %d is not one of 0..1" % bad
        with pytest.raises(ValueError, match=re.escape(message)):
            strand_is_guaranteed(p11, I, J, K)
        with pytest.raises(ValueError, match=re.escape(message)):
            strand_checksum(T, (0, 0), I, J, K, (0, 0))


# ---------------------------------------------------------------------------
# Property tests: tables from the engine.


@st.composite
def engine_tables_with_strays(draw):
    """The engine's table of a free sum, a Koszul point or its ideal sheaf on
    P^1 x P^2, (P^1)^3 or P^2 x P^3, plus stray cells up to 20 steps
    outside the box that propagation fills by default."""
    sp = draw(st.sampled_from([ProductSpace((1, 2)), ProductSpace((1, 1, 1)),
                               ProductSpace((2, 3))]))
    field = default_field()
    kind = draw(st.sampled_from(["point", "ideal", "free"]))
    if kind == "free":
        twist = st.tuples(*[st.integers(-3, 2)] * sp.t)
        K = free_complex(sp, draw(st.lists(twist, min_size=1, max_size=3)), field)
    else:
        # x_{j,i} + c x_{j,0} for i = 1..n_j cut out the point (1 : -c_1 : ...).
        K = koszul_complex(sp, field, [
            MultiHomogPoly.variable(sp, field, j, i + 1)
            + MultiHomogPoly.variable(sp, field, j, 0, draw(st.integers(-2, 2)))
            for j, n in enumerate(sp.factor_dims) for i in range(n)])
        K = ideal_of(K) if kind == "ideal" else K
    lo = tuple(draw(st.integers(-2, 1)) for _ in range(sp.t))
    hi = tuple(l + draw(st.integers(0, 2)) for l in lo)
    T = cech.cohomology_table(K, Window(lo, hi))
    near = st.tuples(*[st.integers(l - n - 21, h + 20)
                       for l, h, n in zip(lo, hi, sp.factor_dims)])
    for a in draw(st.lists(near, max_size=6)):
        dim = draw(st.sampled_from([0, 0, 0, 1, 2]))
        status = STATUS_INFERRED if not dim and draw(st.booleans()) else STATUS_COMPUTED
        T.set_cell(a, draw(st.integers(0, sp.m)), dim, status)
    return T


@settings(max_examples=25, deadline=None)
@given(engine_tables_with_strays())
def test_propagation_equals_naive_on_engine_tables(T):
    got = propagation_outcome(strand_propagate, T, None)
    assert got == propagation_outcome(naive_propagate, T, None)
    if isinstance(got, Mapping):  # the cells, inferred ones among them, in sorted order
        assert list(got) == sorted(got)


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
        assert tate_term_dims(T, b).checksum() == 0, b
        assert corner_checksum(T, c, b) == 0, (c, b)
        if strand_is_guaranteed(sp, I, J, K):
            assert strand_checksum(T, c, I, J, K, b) == 0, (c, I, J, K, b)


@settings(max_examples=20, deadline=None)
@given(sheaf_tables(), st.data())
def test_vector_table_reads_as_its_cells(T, data):
    # T holds the engine's vectors, U the same cells stored one at a time
    # with set_cell; every read must agree, and again with one cell left out.
    U = reference.cell_table(T)
    sp, window = T.space, T.window
    near = st.tuples(*[st.integers(l - 2, h + 2) for l, h in zip(window.lo, window.hi)])
    probes = list(window.twists()) + data.draw(st.lists(near, max_size=5))

    def same_reads():
        for a in probes:
            assert T.h_vector(a) == U.h_vector(a), a
            for i in range(-1, sp.m + 2):
                assert T.get(a, i) == U.get(a, i), (a, i)
                assert T.known_dim(a, i) == U.known_dim(a, i), (a, i)
                assert T.known_zero(a, i) == U.known_zero(a, i), (a, i)

    same_reads()
    assert T.to_json() == U.to_json()
    assert T.to_csv() == U.to_csv()
    assert T.copy() == U and T == U.copy() and U == T
    assert list(T.cells.items()) == list(U.cells.items())
    key = data.draw(st.sampled_from(sorted(U.cells)))
    a, i = key
    T = CohomologyTable(sp, window)
    T.set_vectors((b, h) for b, h in U.rows().items() if b != a)
    for n, dim in enumerate(U.rows()[a]):
        if n != i:
            T.set_cell(a, n, dim)
    U = CohomologyTable(sp, window, {k: cell for k, cell in U.cells.items() if k != key})
    assert T.known_dim(*key) is None and T.h_vector(a) is None
    same_reads()
    assert T.to_json() == U.to_json()
