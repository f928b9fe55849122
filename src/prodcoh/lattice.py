"""Degree lattice Z^t for a product of projective spaces.

Twists of line bundles on P^{n_1} x ... x P^{n_t} are indexed by integer
vectors of length t.  This module provides the componentwise partial order,
the canonical twist, and the combinatorics of "safe" twists: the twists a
such that O(k*d_1, ..., k*d_t)(a) has no intermediate cohomology for any
integer k.  The safe region of a window is decided a row along the last
factor at a time, in closed form: the other factors' ranges in k cut the
row's safe twists to one interval, with no scan over twists or over k.
Safe twists form the test region of the splitting criterion in
``splitter``; the per-twist scan over k that the tests compare it with is in
tests/reference.py.  SchemaError and json_key live here, beneath every JSON
reader of the package, so a missing key is refused one way in all of them.
"""

import itertools
from dataclasses import dataclass


class LatticeError(ValueError):
    pass


class SchemaError(ValueError):
    """Raised on malformed JSON input; the message carries the path."""


def json_key(obj, key, path=""):
    """obj[key] of the JSON object read at path; a missing key is refused
    as SchemaError("<path>: missing key '<key>'")."""
    try:
        return obj[key]
    except KeyError as exc:
        raise SchemaError("%smissing key %r" % (path and path + ": ", key)) from exc


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(k, a):
    return tuple(k * x for x in a)


@dataclass(frozen=True)
class ProductSpace:
    """P^{n_1} x ... x P^{n_t}, recorded by its factor dimensions."""

    factor_dims: tuple

    def __post_init__(self):
        dims = tuple(self.factor_dims)
        if any(type(n) is not int for n in dims):  # no bool, float or str
            raise LatticeError("factor dimensions must be integers, got %r" % (dims,))
        if not dims:
            raise LatticeError("a product space needs at least one factor")
        if any(n < 1 for n in dims):
            raise LatticeError("factor dimensions must be >= 1, got %r" % (dims,))
        object.__setattr__(self, "factor_dims", dims)
        # The number of factors t and the dimension m, set once; they are not
        # fields, so eq and hash read factor_dims only.
        object.__setattr__(self, "t", len(dims))
        object.__setattr__(self, "m", sum(dims))

    def degree(self, a):
        """Validate a multidegree of ints and return it as a tuple."""
        a = tuple(a)
        if any(type(x) is not int for x in a):
            raise LatticeError("multidegree %r has an entry that is not an integer" % (a,))
        if len(a) != self.t:
            raise LatticeError(
                "multidegree %r has length %d, expected %d" % (a, len(a), self.t)
            )
        return a

    def to_json(self):
        return {"factor_dims": list(self.factor_dims)}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(json_key(obj, "factor_dims", "space")))


@dataclass(frozen=True)
class Polarization:
    """A very ample multidegree d = (d_1, ..., d_t), all d_j >= 1.

    O(kH) means O(k*d_1, ..., k*d_t).
    """

    d: tuple

    def __post_init__(self):
        d = tuple(self.d)
        if any(type(x) is not int for x in d):  # no bool, float or str
            raise LatticeError("polarization degrees must be integers, got %r" % (d,))
        if any(x < 1 for x in d):
            raise LatticeError("polarization degrees must be >= 1, got %r" % (d,))
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class Window:
    """A closed box lo <= a <= hi in Z^t.  All region and table operations
    are window-relative and never extrapolate silently."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = tuple(self.lo), tuple(self.hi)
        if any(type(x) is not int for x in lo + hi):  # no bool, float or str
            raise LatticeError("window corners must be integers, got lo=%r hi=%r" % (lo, hi))
        if len(lo) != len(hi):
            raise LatticeError("window corners have mismatched lengths")
        if any(l > h for l, h in zip(lo, hi)):
            raise LatticeError("empty window: lo=%r hi=%r" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, a):
        if len(a) != len(self.lo):
            raise LatticeError("twist %r has length %d, the window's corners %d"
                               % (a, len(a), len(self.lo)))
        return all(l <= x <= h for l, x, h in zip(self.lo, a, self.hi))

    def twists(self):
        """All lattice points of the box in lexicographic order."""
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return itertools.product(*ranges)

    @property
    def size(self):
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l + 1
        return n

    def to_json(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(json_key(obj, "lo", "window")), tuple(json_key(obj, "hi", "window")))


def leq(a, b):
    """Componentwise partial order a <= b."""
    if len(a) != len(b):
        raise LatticeError("cannot compare degrees of different lengths")
    return all(x <= y for x, y in zip(a, b))


def lt(a, b):
    """Strict partial order: a <= b and a != b."""
    return leq(a, b) and tuple(a) != tuple(b)


def canonical_twist(space):
    """The twist of the canonical sheaf: (-n_1-1, ..., -n_t-1)."""
    return tuple(-n - 1 for n in space.factor_dims)


def safe_region(space, d, window):
    """Twists a in the window for which no O(kH)(a) has intermediate
    cohomology -- the region the splitting hypothesis quantifies over.

    Factor j of O(kH)(a) is in its h^0 range for k >= L_j, in its top range
    for k <= U_j and in neither, its gap, for U_j < k < L_j: these are
    bott.factor_group's ranges, k*d_j + a_j >= 0 and <= -n_j-1, solved for
    k.  O(kH)(a) has intermediate cohomology iff no factor is in its gap and
    some factor is in each range.  The window is decided a row at a time: a
    row fixes every coordinate but the last, x, and its prefix pairs
    (L_j, U_j), j < t, cut the safe x to one interval, where n = n_t and
    d = d_t.  At each k the prefix is in a gap, all top, all h^0 or mixed:
    1. for k <= min U it is all top, so x is unsafe if the last factor
       reaches its h^0 range there: x >= -(min U)*d;
    2. for k >= max L it is all h^0, so x is unsafe if the last factor
       reaches its top range there: x <= -(max L)*d - n - 1;
    3. at the k of [min L, max U] in no prefix gap it is mixed, so x is safe
       only if the last factor is in its gap at each, that is at the least,
       k_min, and the greatest, k_max: -k_min*d - n - 1 < x < -k_max*d.
       k_min is min L or follows a gap, so it is an L_j; k_max is a U_j.
    Each row costs O(t^2), and only the safe twists are built.  A single
    factor never has intermediate cohomology.
    """
    space.degree(window.lo)  # a window of the wrong length is refused, not truncated
    dd = d.d if isinstance(d, Polarization) else Polarization(d).d
    if len(dd) != space.t:
        raise LatticeError("polarization length does not match space")
    if space.t == 1:
        return frozenset(window.twists())
    *dims, n = space.factor_dims
    *dd, dt = dd
    lo, hi = window.lo, window.hi
    ends = [[(-(x // dj), (-x - nj - 1) // dj) for x in range(l, h + 1)]
            for nj, dj, l, h in zip(dims, dd, lo, hi)]
    rows = itertools.product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1])))
    safe = []
    for row, pairs in zip(rows, itertools.product(*ends)):
        ls, us = zip(*pairs)
        bottom, top = min(ls), max(us)
        first = max(lo[-1], -max(ls) * dt - n)  # cut 2
        last = min(hi[-1], -min(us) * dt - 1)  # cut 1
        if bottom <= top:  # the prefix can be mixed; it never is with one factor
            mixed = [k for k in ls + us if bottom <= k <= top
                     and all(k <= u or l <= k for l, u in pairs)]
            if mixed:  # cut 3
                first = max(first, -min(mixed) * dt - n)
                last = min(last, -max(mixed) * dt - 1)
        safe.extend([row + (x,) for x in range(first, last + 1)])
    return frozenset(safe)


def render_region(cells, window):
    """ASCII grid of a 2-D set of twists.

    Columns are the first coordinate ascending left to right, rows the
    second coordinate descending top to bottom; members are '#', the rest
    '.'.  Higher-dimensional regions must be sliced to 2-D first.
    """
    if len(window.lo) != 2:
        raise LatticeError("render_region draws 2-D windows only; slice first")
    cells = set(tuple(c) for c in cells)
    lines = []
    for a2 in range(window.hi[1], window.lo[1] - 1, -1):
        row = "".join(
            "#" if (a1, a2) in cells else "."
            for a1 in range(window.lo[0], window.hi[0] + 1)
        )
        lines.append(row)
    return "\n".join(lines)
