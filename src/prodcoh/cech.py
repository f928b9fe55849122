"""The entry points of the cohomology engine: one twist, or a table.

Both run the engine of module minmodel, the minimal model of the total
Cech complex of a line-bundle complex on the standard affine covers.  A
LineBundleComplex is valid once built, so they check nothing themselves.
The Cech signs live in one place, minmodel.contraction; the truncated
total complex the tests cross the engine against is in tests/reference.py.
"""

from . import minmodel
from .lattice import Window
from .tate import CohomologyTable

EngineCheckFailed = minmodel.EngineCheckFailed


def hypercohomology(C, a):
    """Dimensions of H^i(F(a)), i = 0..m, for the degree-0 cohomology sheaf
    F of the line-bundle complex C: the engine on the window {a}."""
    a = C.space.degree(a)
    [(_, h)] = minmodel.engine(C, Window(a, a))
    return h


def cohomology_table(C, window):
    """h^i(F(a)) for every twist a in the window, every cell computed: the
    engine's vectors, set up once for the complex C, in twist order."""
    table = CohomologyTable(C.space, window)
    table.set_vectors(minmodel.engine(C, window))
    return table
