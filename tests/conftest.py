import pytest

import reference
from prodcoh import bott
from prodcoh.coxring import LineBundleComplex, MultiHomogPoly, free_complex
from prodcoh.lattice import ProductSpace, vadd, vscale
from prodcoh.linalg import default_field
from prodcoh.tate import STATUS_COMPUTED, CohomologyTable


@pytest.fixture
def p11():
    return ProductSpace((1, 1))


@pytest.fixture
def p12():
    return ProductSpace((1, 2))


@pytest.fixture
def p23():
    return ProductSpace((2, 3))


def koszul_point_complex(field=None):
    """Resolution of the structure sheaf of the point V(x_{0,1}, x_{1,1})
    on P^1 x P^1: O(-1,-1) -> O(-1,0) + O(0,-1) -> O."""
    sp = ProductSpace((1, 1))
    field = field or default_field()
    x1 = MultiHomogPoly.variable(sp, field, 0, 1)
    y1 = MultiHomogPoly.variable(sp, field, 1, 1)
    return LineBundleComplex(
        sp,
        field,
        {-2: [(-1, -1)], -1: [(-1, 0), (0, -1)], 0: [(0, 0)]},
        {-2: [[y1], [x1.scale(-1)]], -1: [[x1, y1]]},
    )


def koszul_sign_flip_json(field=None):
    """The JSON of the Koszul point with the sign of -x_{0,1} dropped, so
    that d o d = 2 x_{0,1} x_{1,1} is not zero: an invalid complex, which
    LineBundleComplex refuses to build and so is written as JSON directly."""
    obj = koszul_point_complex(field).to_json()
    [minus_x1] = obj["complex"]["diffs"][0]["entries"][1][0]["terms"]
    assert minus_x1 == {"c": -1, "e": [[0, 1], [0, 0]]}
    minus_x1["c"] = 1
    return obj


def ideal_sheaf_complex(field=None):
    """Truncation presenting the ideal sheaf of the same point:
    O(-1,-1) -> O(-1,0) + O(0,-1), cokernel I_p."""
    sp = ProductSpace((1, 1))
    field = field or default_field()
    x1 = MultiHomogPoly.variable(sp, field, 0, 1)
    y1 = MultiHomogPoly.variable(sp, field, 1, 1)
    return LineBundleComplex(
        sp,
        field,
        {-1: [(-1, -1)], 0: [(-1, 0), (0, -1)]},
        {-1: [[y1], [x1.scale(-1)]]},
    )


def truncated_line_bundle_h(space, b, a, field=None):
    """h(O(b)(a)) from the truncated Cech complex of a one-summand free
    complex: the reference route, which never reads Bott classes."""
    return reference.assembled_hypercohomology(free_complex(space, [b], field), a)


def bott_table(space, summands, window):
    """Closed-form cohomology table of a direct sum given as
    [(twist, mult), ...]; the second route of every dual-route check."""
    T = CohomologyTable(space, window)
    for a in window.twists():
        h = [0] * (space.m + 1)
        for b, mult in summands:
            hb = bott.line_bundle_h(space, vadd(a, b))
            h = [x + mult * y for x, y in zip(h, hb)]
        for i, dim in enumerate(h):
            T.set_cell(a, i, dim, STATUS_COMPUTED)
    return T


def polarized_table(space, ks_mults, d, window):
    """bott_table for a sum of O(kH)."""
    return bott_table(
        space, [(vscale(k, d), mult) for k, mult in ks_mults], window
    )
