"""Acceptance suite.

One test per criterion; each prints a PASS line with its measured numbers
(run pytest -s to see them), and any failure fails the corresponding test.
"""

import itertools
import random
import time

import reference
from conftest import (
    bott_table,
    ideal_sheaf_complex,
    koszul_point_complex,
    truncated_line_bundle_h,
)
from prodcoh import bott, cech, cli, linalg, splitter, tate
from prodcoh.coxring import free_complex
from prodcoh.lattice import (
    Polarization,
    ProductSpace,
    Window,
    canonical_twist,
    safe_region,
    vadd,
    vscale,
)
from test_lattice import REFERENCE_FULL_GRID, REFERENCE_INTERMEDIATE_GRID

P11 = ProductSpace((1, 1))
P12 = ProductSpace((1, 2))
P23 = ProductSpace((2, 3))


def _ok(n, msg):
    print("[criterion %d] PASS - %s" % (n, msg))


def test_criterion_1_region_reproduction(capsys):
    t0 = time.monotonic()
    assert cli.main(
        ["regions", "--space", "2,3", "--window", "-5:1,-5:2", "--mode", "full"]
    ) == 0
    full = capsys.readouterr().out.strip("\n")
    assert cli.main(
        ["regions", "--space", "2,3", "--window", "-5:1,-5:2",
         "--mode", "intermediate"]
    ) == 0
    inter = capsys.readouterr().out.strip("\n")
    elapsed = time.monotonic() - t0
    assert full == REFERENCE_FULL_GRID
    assert inter == REFERENCE_INTERMEDIATE_GRID
    assert elapsed < 1.0
    with capsys.disabled():
        _ok(1, "both region tables reproduced cell-for-cell in %.3fs" % elapsed)


def test_criterion_2_embedding_dimension():
    # Monomial-count oracle against the closed form.
    count = len(reference.monomials(P23, (4, 2)))
    assert count == 150
    assert bott.line_bundle_h(P23, (4, 2))[0] == 150
    assert cech.hypercohomology(free_complex(P23, [(0, 0)]), (4, 2))[0] == 150
    # The truncated Cech complex at O(1,1), where it is fast: 12 sections.
    assert truncated_line_bundle_h(P23, (0, 0), (1, 1))[0] == len(reference.monomials(P23, (1, 1))) == 12
    N = count - 1
    assert N == 149
    _ok(2, "h^0(O(4,2)) = 150 on P2xP3, embedding dimension N = 149")


def test_criterion_3_oracle_equivalence():
    # The truncated Cech complex is slow on P2xP3, so it covers a corner
    # there holding h^3, h^5 and zeros, plus one h^2 twist.
    t0 = time.monotonic()
    cells = 0
    for sp, twists in (
        (P11, itertools.product(range(-6, 7), repeat=2)),
        (P12, itertools.product(range(-6, 7), repeat=2)),
        (P23, itertools.chain(itertools.product(range(-4, 1), range(-5, -3)), [(-3, 1)])),
    ):
        zero = (0,) * sp.t
        for a in twists:
            assert truncated_line_bundle_h(sp, zero, a) == bott.line_bundle_h(
                sp, a
            ), (sp, a)
            cells += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _ok(3, "closed form == Cech on %d twists across 3 spaces in %.2fs"
        % (cells, elapsed))


def test_criterion_4_hypercohomology():
    window = Window((-3, -3), (3, 3))
    table = cech.cohomology_table(koszul_point_complex(), window)
    for a in window.twists():
        assert table.h_vector(a) == (1, 0, 0), a
    ideal = ideal_sheaf_complex()
    h = cech.hypercohomology(ideal, (1, 1))
    # Independent oracle: sections of O(1,1) vanishing at the point are the
    # kernel of the evaluation row (1,0,0,0) on the 4 monomials.
    eval_row = [
        1 if (e[0][1] == 0 and e[1][1] == 0) else 0 for e in reference.monomials(P11, (1, 1))
    ]
    oracle = len(eval_row) - reference.rank([eval_row], 4, linalg.default_field())
    assert oracle == 3
    assert h == (3, 0, 0)
    _ok(4, "point sheaf table constant (1,0,0); h^0(I_p(1,1)) = 3 = oracle")


D_CHOICES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
SPACES_T2 = [(1, 1), (1, 2), (2, 1), (2, 2)]


def _random_split_case(rng):
    sp = ProductSpace(rng.choice(SPACES_T2))
    d = Polarization(rng.choice(D_CHOICES))
    rank = rng.randint(1, 4)
    ks = [rng.randint(-3, 3) for _ in range(rank)]
    mults = {}
    for k in ks:
        mults[k] = mults.get(k, 0) + 1
    expected = tuple(sorted(mults.items(), reverse=True))
    k_max, k_min = max(ks), min(ks)
    lo = tuple(-(k_max + 1) * dj - nj - 2 for dj, nj in zip(d.d, sp.factor_dims))
    hi = tuple((-k_min) * dj + nj + 2 for dj, nj in zip(d.d, sp.factor_dims))
    C = free_complex(sp, [vscale(k, d.d) for k in ks])
    return sp, d, C, expected, Window(lo, hi)


def test_criterion_5_soundness_on_random_splits():
    t0 = time.monotonic()
    rng = random.Random(20250810)
    for case in range(20):
        sp, d, C, expected, window = _random_split_case(rng)
        verdict = splitter.split_check(C, d, window, torsion_free_asserted=True)
        assert verdict.kind == "split", (case, sp, d.d, expected, verdict.reason)
        assert verdict.summands == expected, (case, sp, d.d)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _ok(5, "20 randomized direct sums recovered exactly in %.2fs" % elapsed)


def test_criterion_6_completeness_on_line_bundles():
    d = Polarization((1, 1))
    window = Window((-6, -6), (6, 6))
    region = safe_region(P11, d, window)
    n_nonsplit = n_split = 0
    for a in itertools.product(range(-3, 4), repeat=2):
        C = free_complex(P11, [a])
        verdict = splitter.split_check(C, d, window, torsion_free_asserted=True)
        if a[0] == a[1]:
            assert verdict.kind == "split", (a, verdict.reason)
            assert verdict.summands == ((a[0], 1),), a
            n_split += 1
        else:
            assert verdict.kind == "nonsplit", (a, verdict.kind)
            w, i = verdict.witness
            assert w in region and 0 < i < P11.m, a
            assert bott.line_bundle_h(P11, vadd(w, a))[i] != 0
            n_nonsplit += 1
    _ok(6, "%d off-diagonal bundles NonSplit with safe witnesses, "
        "%d diagonal bundles Split" % (n_nonsplit, n_split))


def _covered_degrees(space, window):
    lo = tuple(l + n + 1 for l, n in zip(window.lo, space.factor_dims))
    return list(Window(lo, window.hi).twists())


def test_criterion_7_tate_checksums():
    window = Window((-5, -5), (4, 4))
    tables = {
        "point": cech.cohomology_table(koszul_point_complex(), Window((-4, -4), (3, 3))),
        "ideal": cech.cohomology_table(ideal_sheaf_complex(), Window((-4, -4), (3, 3))),
        "O(1,0)": bott_table(P11, [((1, 0), 1)], window),
        "O(1,1)+O(-1,-1)": bott_table(P11, [((1, 1), 1), ((-1, -1), 1)], window),
        "O(2,2)^2": bott_table(P11, [((2, 2), 2)], window),
    }
    checked = 0
    for name, T in tables.items():
        sp = T.space
        for b in _covered_degrees(sp, T.window):
            assert tate.tate_term_dims(T, b).checksum() == 0, (name, b)
            checked += 1
            for c in [(0, 0), (-1, 1)]:
                assert tate.strand_checksum(T, c, set(), {0}, set(), b) == 0
                assert tate.strand_checksum(T, c, {1}, set(), set(), b) == 0
                assert tate.corner_checksum(T, c, b) == 0
    # Sabotage: a single corrupted cell must break a checksum.
    T = tables["O(1,1)+O(-1,-1)"]
    bad = T.copy()
    bad.set_cell((0, 0), 1, bad.known_dim((0, 0), 1) + 1)
    assert tate.tate_term_dims(bad, (0, 0)).checksum() != 0
    _ok(7, "tate/strand/corner checksums all zero over %d internal degrees; "
        "sabotage detected" % checked)


def test_criterion_8_extremal_position_and_inequality():
    rng = random.Random(814)
    cases = 0
    for _ in range(8):
        sp, d, C, expected, window = _random_split_case(rng)
        table = cech.cohomology_table(C, window)
        report = splitter.extremal_hm(table, d)
        k_min = min(k for k, _ in expected)
        aligned = vadd(vscale(-k_min, d.d), canonical_twist(sp))
        assert report.certified
        assert report.positions == (aligned,), (sp, d.d, expected)
        assert report.aligned_k == -k_min
        kd = vscale(-k_min, d.d)
        h0 = table.known_dim(kd, 0)
        hm = table.known_dim(vadd(kd, canonical_twist(sp)), sp.m)
        assert h0 is not None and hm is not None
        assert h0 >= hm >= 1, (sp, d.d, expected)
        cases += 1
    _ok(8, "unique aligned extremal position and h^0 >= h^m on %d split inputs"
        % cases)


def test_criterion_9_propagation_soundness():
    rng = random.Random(99)
    pool = []
    jobs = [
        (free_complex(P11, [(0, 0)]), Window((-4, -4), (4, 4)), (5, 5)),
        (free_complex(P11, [(1, 0)]), Window((-4, -4), (4, 4)), (5, 5)),
        (free_complex(P11, [(2, -1), (0, 1)]), Window((-4, -4), (4, 4)), (5, 5)),
        (free_complex(P11, [(1, 1), (-1, -1)]), Window((-4, -4), (4, 4)), (5, 5)),
        (free_complex(P12, [(0, 0)]), Window((-4, -4), (4, 4)), (4, 4)),
        (free_complex(P12, [(1, -2)]), Window((-4, -4), (4, 4)), (4, 4)),
        (koszul_point_complex(), Window((-2, -2), (2, 2)), (3, 3)),
        (ideal_sheaf_complex(), Window((-2, -2), (2, 2)), (3, 3)),
    ]
    for C, window, extend in jobs:
        T = cech.cohomology_table(C, window)
        out = tate.strand_propagate(T, extend=extend)
        for (a, i), (dim, status) in out.cells.items():
            if status == tate.STATUS_INFERRED:
                pool.append((C, a, i))
    assert len(pool) >= 1000, "inferred-cell pool too small: %d" % len(pool)
    contradictions = 0
    for C, a, i in rng.sample(pool, 1000):
        if cech.hypercohomology(C, a)[i] != 0:
            contradictions += 1
    assert contradictions == 0
    _ok(9, "1000 sampled inferred cells (pool %d) all recompute to zero"
        % len(pool))
