import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bott_table, ideal_sheaf_complex, polarized_table
from prodcoh import bott, cech, cli
from prodcoh.coxring import free_complex
from prodcoh.lattice import (
    Polarization,
    ProductSpace,
    Window,
    canonical_twist,
    lt,
    safe_region,
    vadd,
    vscale,
)
from prodcoh.splitter import (
    ExtremalReport,
    SplitterError,
    extremal_hm,
    hm_monotonicity_check,
    hypothesis_violations,
    multiplicities,
    split_check,
    verify_split,
)
from prodcoh.tate import STATUS_COMPUTED, CohomologyTable
from test_cli import write_complex


D11 = Polarization((1, 1))


def test_hypothesis_violations_clean(p11):
    T = polarized_table(p11, [(1, 1), (0, 1)], (1, 1), Window((-5, -5), (5, 5)))
    assert hypothesis_violations(T, safe_region(p11, D11, T.window)) == []


def test_hypothesis_violations_witness(p11):
    T = bott_table(p11, [((1, 0), 1)], Window((-5, -5), (5, 5)))
    violations = hypothesis_violations(T, safe_region(p11, D11, T.window))
    assert ((-1, -2), 1) in violations
    assert violations[0] == ((-1, -2), 1)  # lexicographic twist, lowest index


def test_monotonicity(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-4, -4), (4, 4)))
    assert hm_monotonicity_check(T) is None
    T.set_cell((-3, -3), 2, 0, STATUS_COMPUTED)
    bad = hm_monotonicity_check(T)
    assert bad == ((-3, -3), (-2, -3)) or bad == ((-3, -3), (-3, -2))
    # Only unit steps inside the window are checked: a zero stored below it
    # is no violation.
    T = bott_table(p11, [((0, 0), 1)], Window((-4, -4), (-3, -3)))
    T.set_cell((-5, -4), 2, 0, STATUS_COMPUTED)
    assert hm_monotonicity_check(T) is None


def test_extremal_structure_sheaf_p23(p23):
    T = bott_table(p23, [((0, 0), 1)], Window((-6, -6), (2, 2)))
    for d in (Polarization((1, 1)), Polarization((4, 2))):
        report = extremal_hm(T, d)
        assert report.certified
        assert report.positions == ((-3, -4),)
        assert report.aligned_k == 0


def test_extremal_two_summands(p11):
    T = polarized_table(p11, [(1, 1), (-1, 1)], (1, 1), Window((-5, -5), (5, 5)))
    report = extremal_hm(T, D11)
    assert report.certified
    assert report.positions == ((-1, -1),)
    assert report.aligned_k == 1


def test_extremal_uncertifiable_at_boundary(p11):
    T = bott_table(p11, [((0, 0), 1)], Window((-4, -4), (-2, -2)))
    report = extremal_hm(T, D11)
    assert not report.certified
    assert (-2, -2) in report.notes


def quadratic_extremal_hm(T, d):
    """extremal_hm comparing every locus twist with every other one: the
    reference of the maximal-front walk."""
    space = T.space
    m = space.m
    locus = [a for (a, i), (dim, _) in T.cells.items() if i == m and dim > 0]
    positions, notes = [], []
    for a in sorted(locus):
        if any(lt(a, c) for c in locus if c != a):
            continue
        ups = [tuple(x + (1 if jj == j else 0) for jj, x in enumerate(a)) for j in range(space.t)]
        (positions if all(T.known_zero(u, m) for u in ups) else notes).append(a)
    aligned = None
    for a in positions:
        nums = [aj - wj for aj, wj in zip(a, canonical_twist(space))]
        ks = {num // dj for num, dj in zip(nums, d.d)}
        if all(num % dj == 0 for num, dj in zip(nums, d.d)) and len(ks) == 1:
            aligned = ks.pop()
            break
    return ExtremalReport(tuple(positions), aligned, not notes, tuple(notes))


@st.composite
def hm_locus_tables(draw):
    """A table whose h^m cells are zero, nonzero or unknown at random, over
    the window and one step above it (mostly zero there) and at up to eight
    twists at most three steps outside it, so the locus is not down-closed."""
    sp = ProductSpace(draw(st.sampled_from([(1,), (1, 1), (1, 2), (2, 3), (1, 1, 1)])))
    d = Polarization(tuple(draw(st.integers(1, 3)) for _ in range(sp.t)))
    lo = tuple(draw(st.integers(-5, 1)) for _ in range(sp.t))
    window = Window(lo, tuple(x + draw(st.integers(0, 3)) for x in lo))
    T = CohomologyTable(sp, window)
    near = st.tuples(*[st.integers(l - 3, h + 3) for l, h in zip(window.lo, window.hi)])
    rim = Window(window.lo, tuple(h + 1 for h in window.hi)).twists()
    for a in itertools.chain(rim, draw(st.lists(near, max_size=8))):
        choices = [None, 0, 0, 0, 1, 2] if a in window else [None, 0, 0, 0, 0, 1]
        dim = draw(st.sampled_from(choices))
        if dim is not None:
            T.set_cell(a, sp.m, dim, STATUS_COMPUTED)
    locus = {a for (a, i), (dim, _) in T.cells.items() if i == sp.m and dim}
    assume(any(tuple(x - (jj == j) for jj, x in enumerate(a)) not in locus
               for a in locus for j in range(sp.t)))
    return T, d


@settings(max_examples=300, deadline=None)
@given(hm_locus_tables())
def test_extremal_front_equals_quadratic(case):
    T, d = case
    assert extremal_hm(T, d) == quadratic_extremal_hm(T, d)


def test_multiplicities_two_summands(p11):
    T = polarized_table(p11, [(1, 1), (-1, 1)], (1, 1), Window((-5, -5), (5, 5)))
    assert multiplicities(T, D11, extremal_hm(T, D11)) == ((1, 1), (-1, 1))


def test_multiplicities_double_summand(p11):
    T = polarized_table(p11, [(2, 2)], (1, 1), Window((-6, -6), (6, 6)))
    assert multiplicities(T, D11, extremal_hm(T, D11)) == ((2, 2),)


def test_multiplicities_gap(p11):
    T = polarized_table(p11, [(2, 1), (0, 1)], (1, 1), Window((-6, -6), (6, 6)))
    assert multiplicities(T, D11, extremal_hm(T, D11)) == ((2, 1), (0, 1))


def test_multiplicities_single_polarized(p11):
    d = Polarization((1, 2))
    T = polarized_table(p11, [(1, 1)], (1, 2), Window((-7, -7), (5, 5)))
    assert multiplicities(T, d, extremal_hm(T, d)) == ((1, 1),)


def test_multiplicities_negative_residual(p11):
    import pytest

    from prodcoh.splitter import SplitterError
    from prodcoh.tate import STATUS_COMPUTED as COMPUTED

    T = polarized_table(p11, [(1, 1), (-1, 1)], (1, 1), Window((-5, -5), (5, 5)))
    T.set_cell((1, 1), 0, 5, COMPUTED)  # h^0(F(H)) is really 10
    with pytest.raises(SplitterError, match="negative residual"):
        multiplicities(T, D11, extremal_hm(T, D11))


def test_multiplicities_vanishing_at_the_aligned_k(p11):
    # h^0(F(kH)) = 0 under the nonzero aligned h^m(F(kH + canonical)) fails
    # the sections check, before the h^0 descent.
    T = bott_table(p11, [((0, 0), 1)], Window((-3, -3), (1, 1)))
    T.set_cell((0, 0), 0, 0)
    with pytest.raises(SplitterError) as exc:
        multiplicities(T, D11, extremal_hm(T, D11))
    assert str(exc.value) == (
        "h^0(F(kH)) < h^m(F(kH + canonical)) at k=0; table cannot "
        "come from a torsion-free sheaf satisfying the hypothesis")


def test_multiplicities_unknown_h0(p11):
    # The O(1,1) + O table with h^0(F) left out: the descent reads it at k=0.
    window = Window((-4, -4), (3, 3))
    full = polarized_table(p11, [(1, 1), (0, 1)], (1, 1), window)
    T = CohomologyTable(p11, window, {c: v for c, v in full.cells.items() if c != ((0, 0), 0)})
    with pytest.raises(SplitterError) as exc:
        multiplicities(T, D11, extremal_hm(T, D11))
    assert str(exc.value) == "h^0(F((0, 0))) unknown"


def test_split_check_window_below_the_aligned_twist(p11, tmp_path, capsys):
    # The window holds the extremal position (-2,-2) of O but not the
    # twist 0 the h^0 descent starts from.
    reason = "window does not cover twist -kH for k=0"
    C = free_complex(p11, [(0, 0)])
    v = split_check(C, D11, Window((-5, -5), (-1, -1)))
    assert (v.kind, v.reason) == ("inconclusive", reason)
    code = cli.main(["split-check", "--input", write_complex(tmp_path, C),
                     "--d", "1,1", "--window", "-5:-1,-5:-1"])
    head, body = capsys.readouterr().out.split("\n", 1)
    assert (code, head) == (cli.EXIT_INCONCLUSIVE, "INCONCLUSIVE: " + reason)
    assert json.loads(body)["reason"] == reason


def test_verify_split(p11):
    window = Window((-5, -5), (5, 5))
    T = polarized_table(p11, [(1, 1), (-1, 1)], (1, 1), window)
    assert verify_split(T, ((1, 1), (-1, 1)), D11) is None
    mismatch = verify_split(T, ((1, 1),), D11)
    assert mismatch is not None


def test_verify_split_first_mismatch(p11):
    window = Window((-1, -1), (1, 1))
    T = polarized_table(p11, [(1, 1)], (1, 1), window)
    mismatch = verify_split(T, ((0, 1),), D11)
    assert mismatch[:2] == ((-1, -1), 0)


def test_verify_split_empty_multiset(p11):
    T = bott_table(p11, [], Window((-2, -2), (2, 2)))
    assert verify_split(T, (), D11) is None


def cell_by_cell_verify(T, ms, d):
    """verify_split as one bott.line_bundle_h call per twist and summand:
    the reference of the per-factor tables."""
    for a in T.window.twists():
        expected = [0] * (T.space.m + 1)
        for k, mult in ms:
            h = bott.line_bundle_h(T.space, vadd(vscale(k, d.d), a))
            expected = [x + mult * y for x, y in zip(expected, h)]
        for i in range(T.space.m + 1):
            if T.known_dim(a, i) != expected[i]:
                return (a, i, T.known_dim(a, i), expected[i])
    return None


@st.composite
def candidate_and_table(draw):
    """A candidate multiset, and the table of it or of another multiset
    over a small window, with at most one cell raised, lowered or removed."""
    sp = ProductSpace(draw(st.sampled_from([(1,), (1, 1), (1, 2), (2, 3), (1, 1, 1)])))
    d = Polarization(tuple(draw(st.integers(1, 3)) for _ in range(sp.t)))
    multiset = st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3)
    ms = tuple(sorted(draw(multiset).items(), reverse=True))
    lo = tuple(draw(st.integers(-6, 2)) for _ in range(sp.t))
    window = Window(lo, tuple(x + draw(st.integers(0, 3)) for x in lo))
    T = polarized_table(sp, ms if draw(st.booleans()) else draw(multiset).items(), d.d, window)
    a = tuple(draw(st.integers(l, h)) for l, h in zip(window.lo, window.hi))
    i = draw(st.integers(0, sp.m))
    change = draw(st.sampled_from([None, 1, -1, "remove"]))
    if change == "remove":
        T = CohomologyTable(sp, window, {key: cell for key, cell in T.cells.items()
                                         if key != (a, i)})
    elif change is not None and T.known_dim(a, i) + change >= 0:
        T.set_cell(a, i, T.known_dim(a, i) + change, STATUS_COMPUTED)
    return T, ms, d


@settings(max_examples=300, deadline=None)
@given(candidate_and_table())
def test_verify_split_equals_cell_by_cell(case):
    T, ms, d = case
    assert verify_split(T, ms, d) == cell_by_cell_verify(T, ms, d)


def test_split_check_two_summands(p11):
    C = free_complex(p11, [(1, 1), (-1, -1)])
    v = split_check(C, D11, Window((-5, -5), (5, 5)), torsion_free_asserted=True)
    assert v.kind == "split"
    assert v.summands == ((1, 1), (-1, 1))
    assert v.extremal_positions == ((-1, -1),)
    assert v.aligned_k == 1
    assert v.torsion_free_asserted


def test_split_check_nonsplit_line_bundle(p11):
    C = free_complex(p11, [(1, 0)])
    v = split_check(C, D11, Window((-5, -5), (5, 5)))
    assert v.kind == "nonsplit"
    assert v.witness == ((-1, -2), 1)
    region = safe_region(p11, D11, v.window)
    assert v.witness[0] in region


def test_split_check_ideal_sheaf(p11):
    C = ideal_sheaf_complex()
    v = split_check(C, D11, Window((-3, -3), (3, 3)), torsion_free_asserted=True)
    assert v.kind == "nonsplit"
    a, i = v.witness
    assert 0 < i < p11.m
    assert a in safe_region(p11, D11, v.window)


def test_split_check_tiny_window_inconclusive(p11):
    C = free_complex(p11, [(1, 1), (-1, -1)])
    v = split_check(C, D11, Window((-1, -1), (0, 0)))
    assert v.kind == "inconclusive"


def test_split_check_strand_inconsistency(p11, monkeypatch, tmp_path, capsys):
    # The engine's table of O with h^1 at (-1,-1) raised to 1: h^1(O(0,-1))
    # and h^0(O(1,-1)) vanish, so the rule along factor 0 forces it to 0.
    real = cech.cohomology_table

    def raised(C, window):
        T = real(C, window)
        T.set_cell((-1, -1), 1, 1)
        return T

    monkeypatch.setattr(cech, "cohomology_table", raised)
    reason = ("strand propagation inconsistency: strand rule forces "
              "h^1(F((-1, -1))) = 0 but the table has 1")
    C = free_complex(p11, [(0, 0)])
    v = split_check(C, D11, Window((-3, -3), (3, 3)))
    assert (v.kind, v.reason) == ("inconclusive", reason)
    code = cli.main(["split-check", "--input", write_complex(tmp_path, C),
                     "--d", "1,1", "--window", "-3:3,-3:3"])
    head, body = capsys.readouterr().out.split("\n", 1)
    assert (code, head) == (cli.EXIT_INCONCLUSIVE, "INCONCLUSIVE: " + reason)
    assert json.loads(body)["reason"] == reason


@pytest.mark.parametrize("summands, edits, reason", [
    pytest.param([(0, 0)], {((-3, -3), 2): 0},
                 "top-cohomology monotonicity fails between (-3, -3) and (-3, -2); "
                 "the table cannot come from a sheaf", id="monotonicity"),
    pytest.param([(0, 0)], {((-2, -2), 2): 2},
                 "h^0(F(kH)) < h^m(F(kH + canonical)) at k=0; table cannot come from "
                 "a torsion-free sheaf satisfying the hypothesis", id="sections-below-top"),
    pytest.param([(0, 0)], {((1, 0), 0): 3},
                 "candidate sum disagrees with the table at a=(1, 0), i=0 (3 vs 2)",
                 id="candidate-mismatch"),
    pytest.param([(1, 1), (0, 0)], {((0, 0), 0): 4},
                 "aligned extremal position predicts a summand at k=0 but the h^0 "
                 "descent found none", id="no-summand-at-the-aligned-k"),
    pytest.param([(0, 0)], {((1, 1), 0): 5},
                 "nonzero residual 1 below the smallest summand twist", id="residual-below"),
])
def test_split_check_inconclusive_on_an_edited_table(p11, monkeypatch, summands, edits,
                                                     reason):
    # A free sum that splits, its engine table edited cell by cell, where
    # the strand check finds no clash: each edit stops a later stage.
    C, window = free_complex(p11, summands), Window((-3, -3), (1, 1))
    assert split_check(C, D11, window).kind == "split"
    real = cech.cohomology_table

    def edited(C, window):
        T = real(C, window)
        for (a, i), dim in edits.items():
            T.set_cell(a, i, dim)
        return T

    monkeypatch.setattr(cech, "cohomology_table", edited)
    v = split_check(C, D11, window)
    assert (v.kind, v.reason) == ("inconclusive", reason)


def test_split_check_uncertifiable_extremality(p11):
    C = free_complex(p11, [(0, 0)])
    v = split_check(C, D11, Window((-4, -4), (-2, -2)))
    assert v.kind == "inconclusive"
    assert "extremality uncertifiable" in v.reason


def test_split_check_prop2_form_and_prop3_inequality(p11, p12):
    # On split inputs the unique certified extremal position is
    # (-min k_j) * d + canonical, and sections dominate top cohomology
    # at the aligned twist.
    rng = random.Random(17)
    for sp in (p11, p12):
        for _ in range(5):
            d = Polarization((rng.randint(1, 2), rng.randint(1, 2)))
            ks = sorted(
                {rng.randint(-2, 2) for _ in range(rng.randint(1, 3))},
                reverse=True,
            )
            mults = [(k, rng.randint(1, 2)) for k in ks]
            window = _window_for(sp, d, ks)
            C = free_complex(
                sp, [vscale(k, d.d) for k, mult in mults for _ in range(mult)]
            )
            v = split_check(C, d, window, torsion_free_asserted=True)
            assert v.kind == "split", (sp, d.d, mults, v.reason)
            k_min = min(k for k, _ in mults)
            expected_pos = vadd(vscale(-k_min, d.d), canonical_twist(sp))
            assert v.extremal_positions == (expected_pos,)
            assert v.aligned_k == -k_min
            # h^0(F(kH)) >= h^m(F(kH + canonical)) at the aligned k.
            h0 = sum(
                mult * bott.line_bundle_h(sp, vscale(k + v.aligned_k, d.d))[0]
                for k, mult in mults
            )
            hm = sum(
                mult
                * bott.line_bundle_h(
                    sp, vadd(vscale(k + v.aligned_k, d.d), canonical_twist(sp))
                )[sp.m]
                for k, mult in mults
            )
            assert h0 >= hm >= 1


def _window_for(space, d, ks):
    k_max, k_min = max(ks), min(ks)
    lo = tuple(
        -(k_max + 1) * dj - nj - 2 for dj, nj in zip(d.d, space.factor_dims)
    )
    hi = tuple(
        (-k_min) * dj + nj + 2 for dj, nj in zip(d.d, space.factor_dims)
    )
    return Window(lo, hi)


def test_split_check_three_factors():
    sp = ProductSpace((1, 1, 1))
    d = Polarization((1, 1, 1))
    C = free_complex(sp, [(1, 1, 1), (0, 0, 0)])
    v = split_check(C, d, Window((-5, -5, -5), (4, 4, 4)), torsion_free_asserted=True)
    assert v.kind == "split"
    assert v.summands == ((1, 1), (0, 1))
    assert v.extremal_positions == ((-2, -2, -2),)
    # An unbalanced bundle is not a sum of O(k,k,k).
    v = split_check(free_complex(sp, [(1, 0, 0)]), d, Window((-5, -5, -5), (4, 4, 4)))
    assert v.kind == "nonsplit"


def test_split_check_zero_sheaf(p11):
    C = free_complex(p11, [])
    v = split_check(C, D11, Window((-2, -2), (2, 2)))
    assert v.kind == "split" and v.summands == ()


def test_single_factor_mode():
    sp = ProductSpace((2,))
    C = free_complex(sp, [(1,)])
    v = split_check(C, Polarization((1,)), Window((-8,), (6,)))
    assert v.mode == "single-factor-classical"
    assert v.kind == "split" and v.summands == ((1, 1),)


def test_window_stability(p11):
    # Doubling the window does not change the verdict on a sample.
    cases = [
        ([(1, 1), (-1, -1)], "split"),
        ([(2, 2)], "split"),
        ([(1, 0)], "nonsplit"),
        ([(0, -2)], "nonsplit"),
    ]
    for twists, expected in cases:
        C = free_complex(p11, twists)
        v1 = split_check(C, D11, Window((-5, -5), (5, 5)))
        v2 = split_check(C, D11, Window((-10, -10), (10, 10)))
        assert v1.kind == expected and v2.kind == expected
        if expected == "split":
            assert v1.summands == v2.summands

