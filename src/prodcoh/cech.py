"""Cech cohomology on a product of projective spaces, by exact linear algebra.

Each factor P^n carries its standard affine cover U_0, ..., U_n, and the
product is covered by products of those opens.  The total Cech complex used
here is the tensor product of the per-factor complexes, so a cover index is
a tuple of nonempty subsets S_j of {0..n_j}.  Sections over an intersection
are Laurent monomials whose exponent may be negative only on inverted
variables.

hypercohomology, the engine of every command, works on the minimal model of
Tot(Cech (x) C) (module minmodel): each term's Cech complex contracts onto
its Bott classes and the differential of the complex is moved onto them by
homological perturbation, with no truncation, set up once per table.  The
Cech signs live in one place, minmodel.contraction.  The truncated total
complex the tests cross the engine against is in tests/reference.py.
"""

from . import minmodel
from .coxring import validate_complex
from .lattice import Window
from .tate import CohomologyTable


class CechError(ValueError):
    pass


EngineCheckFailed = minmodel.EngineCheckFailed


def _check_valid(C):
    violations = validate_complex(C)
    if violations:
        raise CechError("invalid complex: %r" % (violations[:3],))


def hypercohomology(C, a):
    """Dimensions of H^i(F(a)), i = 0..m, for the degree-0 cohomology sheaf
    F of a validated line-bundle complex: the engine on the window {a}."""
    _check_valid(C)
    a = C.space.degree(a)
    [(_, h)] = minmodel.engine(C)(Window(a, a))
    return h


def cohomology_table(C, window):
    """h^i(F(a)) for every twist a in the window, every cell computed: the
    engine's vectors, set up once for the validated complex, in twist order."""
    _check_valid(C)
    table = CohomologyTable(C.space, window)
    table.set_vectors(minmodel.engine(C)(window))
    return table
