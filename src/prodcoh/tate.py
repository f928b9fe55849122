"""Dimension-level bookkeeping for Tate resolutions.

For a sheaf F the Tate resolution is a minimal exact complex over the
exterior algebra whose term in homological degree d collects every
H^{d-|a|}(F(a)).  Only dimensions are tracked here: the term of internal
degree b receives h^i(F(a)) with weight prod_j C(n_j+1, b_j-a_j) from each
twist a in the box 0 <= b_j - a_j <= n_j + 1, placed in homological degree
d = |a| + i.  Exactness of the resolution -- and of its quadrant strands
and corner cones -- forces every alternating sum of those dimensions to
vanish, which turns a cohomology table into a pile of verifiable checksums.
A CohomologyTable stores one vector (h^0, ..., h^m) per twist, None at an
unknown index, and marks the zeros the strand rule inferred; the checksums
and the rule read those vectors.

The vanishing-propagation rule is the minimality consequence along a
one-factor strand: if H^n(F(a)), H^{n-1}(F(a+e_j)), ..., H^{n-n_j}(F(a+n_j e_j))
all vanish, then H^n(F(a-e_j)) vanishes too.  Applied to a computed window
it extends certified zeros in the decreasing directions and cross-checks
the input table; it never defaults a cell to zero silently.  It runs on
planes of one byte per twist, one Python int per index n and kind of
knowledge, so the rule fires on every twist at once by shifts and ANDs.
strand_propagate iterates it until it settles and then looks for its
clashes; on the engine's window with extend=0 nothing can be inferred, so
that is one pass over the window's vectors.
"""

import csv
import functools
import io
import itertools
import math
import operator
import types

from .lattice import LatticeError, ProductSpace, Window

STATUS_COMPUTED = "computed"
STATUS_INFERRED = "inferred_zero"


class TateCoverageError(ValueError):
    """A checksum needed twists outside the table's certified knowledge."""

    def __init__(self, missing):
        self.missing = tuple(sorted(set(missing)))
        super().__init__("table does not cover required twists: %s"
                         % ", ".join(repr(a) for a in self.missing))


class StrandInconsistency(ValueError):
    """Propagation derived zero at a cell the table says is nonzero."""

    def __init__(self, cell, dim, antecedents):
        self.cell = cell
        self.dim = dim
        self.antecedents = tuple(antecedents)
        super().__init__("strand rule forces h^%d(F(%r)) = 0 but the table has %d"
                         % (cell[1], cell[0], dim))


_INT = {int}


def _check_dim(a, i, dim):
    if type(dim) is not int:  # no bool
        raise ValueError("dimension %r at %r is not an integer" % (dim, (a, i)))
    if dim < 0:
        raise ValueError("negative dimension at %r" % ((a, i),))


class CohomologyTable:
    """A window of cohomology dimensions h^i(F(a)) with per-cell provenance.

    The store holds one (h^0, ..., h^m) tuple per twist with a stored cell,
    None at an unknown index, and the set of (a, i) cells that are zeros
    inferred by the strand rule; every other stored cell was computed by an
    engine.  A stored cell is trusted knowledge and may sit outside the
    window after propagation.  Indices outside [0, m] vanish for every
    sheaf and count as known zero without being stored.  set_vectors and
    set_h write whole vectors, set_cell (and the constructor's cells) one
    entry; .cells, to_json, to_csv and == read the cells in sorted (a, i)
    order, whatever order they were stored in.
    """

    def __init__(self, space, window, cells=None):
        self.space = space
        self.window = window
        if len(window.lo) != space.t:
            raise LatticeError("window dimension does not match space")
        self._rows, self._inferred = {}, set()
        for (a, i), (dim, status) in (cells or {}).items():
            self.set_cell(a, i, dim, status)

    @property
    def cells(self):
        """A read-only snapshot {(a, i): (dim, status)} of the stored cells."""
        return types.MappingProxyType(dict(self.sorted_cells()))

    def rows(self):
        """{a: (h^0, ..., h^m)} over the twists with a stored cell, None at an
        unknown index: the store itself, to be read and not changed."""
        return self._rows

    def set_cell(self, a, i, dim, status=STATUS_COMPUTED):
        a, m = self.space.degree(a), self.space.m
        if not (type(i) is int and 0 <= i <= m):
            raise ValueError("cohomological index %r is not one of 0..%d" % (i, m))
        if status not in (STATUS_COMPUTED, STATUS_INFERRED):
            raise ValueError("unknown cell status %r" % (status,))
        _check_dim(a, i, dim)
        if status == STATUS_INFERRED and dim != 0:
            raise ValueError("inferred cells must be zero")
        row = list(self._rows.get(a, (None,) * (m + 1)))
        row[i] = dim
        self._rows[a] = tuple(row)
        (self._inferred.add if status == STATUS_INFERRED else self._inferred.discard)((a, i))

    def set_h(self, a, h):
        """Store a computed (h^0, ..., h^m) at twist a, in index order."""
        self.set_vectors([(a, h)])

    def set_vectors(self, pairs):
        """set_h for each (a, h) of pairs, in order.  The twists, the lengths
        and the entries are checked once for all pairs; if that fails, pair
        by pair and entry by entry, as by set_cell, and a refused pair
        stores nothing."""
        space = self.space
        pairs = [(tuple(a), h) for a, h in pairs]
        dims = [x for _, h in pairs for x in h]
        if not ({(len(a), len(h)) for a, h in pairs} <= {(space.t, space.m + 1)}
                and {type(x) for a, _ in pairs for x in a} | {*map(type, dims)} <= _INT
                and min(dims, default=0) >= 0):
            for a, h in pairs:
                space.degree(a)
                if len(h) != space.m + 1:
                    raise ValueError("vector %r at %r needs %d entries" % (h, a, space.m + 1))
                for i, dim in enumerate(h):
                    _check_dim(a, i, dim)
        self._rows.update((a, tuple(h)) for a, h in pairs)
        if self._inferred:
            self._inferred -= {(a, i) for a, _ in pairs for i in range(space.m + 1)}

    def get(self, a, i):
        """(dim, status) or None if the cell is unknown."""
        if i < 0 or i > self.space.m:
            return (0, STATUS_COMPUTED)
        a = tuple(a)
        h = self._rows.get(a)
        if h is None or h[i] is None:
            return None
        return (h[i], STATUS_INFERRED if (a, i) in self._inferred else STATUS_COMPUTED)

    def known_dim(self, a, i):
        cell = self.get(a, i)
        return None if cell is None else cell[0]

    def known_zero(self, a, i):
        return self.known_dim(a, i) == 0

    def h_vector(self, a):
        """The full (h^0..h^m) vector at a, or None if any cell is unknown."""
        h = self._rows.get(tuple(a))
        return None if h is None or None in h else h

    def copy(self):
        """A new table with the same cells."""
        out = CohomologyTable(self.space, self.window)
        out._rows, out._inferred = dict(self._rows), set(self._inferred)
        return out

    def __eq__(self, other):
        return isinstance(other, CohomologyTable) and (
            self.space, self.window, self._rows, self._inferred) == (
            other.space, other.window, other._rows, other._inferred)

    def sorted_cells(self):
        """The stored ((a, i), (dim, status)) cells in sorted (a, i) order."""
        rows, inferred = self._rows, self._inferred
        return [((a, i), (dim, STATUS_INFERRED if (a, i) in inferred else STATUS_COMPUTED))
                for a in sorted(rows) for i, dim in enumerate(rows[a]) if dim is not None]

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "window": self.window.to_json(),
            "cells": [
                {"a": list(a), "i": i, "dim": dim, "status": status}
                for (a, i), (dim, status) in self.sorted_cells()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        space = ProductSpace.from_json(obj["space"])
        window = Window.from_json(obj["window"])
        table, seen = cls(space, window), set()
        for cell in obj["cells"]:
            a, i = tuple(cell["a"]), cell["i"]
            table.set_cell(a, i, cell["dim"], cell["status"])
            if (a, i) in seen:  # after set_cell, so its refusals come first
                raise ValueError("cell %r is given twice" % ((a, i),))
            seen.add((a, i))
        return table

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a%d" % (j + 1) for j in range(self.space.t)] + ["i", "dim", "status"])
        for (a, i), (dim, status) in self.sorted_cells():
            writer.writerow(list(a) + [i, dim, status])
        return buf.getvalue()


class TateTermProfile:
    """Dimensions of the Tate terms in one internal degree b, per
    homological degree d."""

    def __init__(self, b, dims):
        self.b = tuple(b)
        self.dims = {int(d): int(v) for d, v in dims.items() if v}

    def __eq__(self, other):
        return isinstance(other, TateTermProfile) and (self.b, self.dims) == (other.b, other.dims)

    def __repr__(self):
        return "TateTermProfile(b=%r, dims=%r)" % (self.b, dict(sorted(self.dims.items())))

    def checksum(self):
        return sum((-1) ** (d % 2) * v for d, v in self.dims.items())


def support_box(space, b):
    """Twists contributing to internal degree b: 0 <= b_j - a_j <= n_j + 1."""
    b = space.degree(b)
    lo = tuple(bj - nj - 1 for bj, nj in zip(b, space.factor_dims))
    return Window(lo, b)


def _gather(T, b, keep=None):
    """Accumulate weighted dimensions over the support box, optionally
    filtered by a twist predicate.  Raises on unknown cells."""
    space = T.space
    b = space.degree(b)
    dims = {}
    missing = []
    for a in support_box(space, b).twists():
        if keep is not None and not keep(a):
            continue
        h = T.h_vector(a)
        if h is None:
            missing.append(a)
            continue
        w = math.prod(math.comb(nj + 1, bj - aj) for nj, bj, aj in zip(space.factor_dims, b, a))
        for i, dim in enumerate(h):
            if dim:
                d = sum(a) + i
                dims[d] = dims.get(d, 0) + w * dim
    if missing:
        raise TateCoverageError(missing)
    return dims


def tate_term_dims(T, b):
    """The dimension profile of the Tate term in internal degree b."""
    return TateTermProfile(T.space.degree(b), _gather(T, b))


def _factor_sets(space, I, J, K):
    """I, J, K as frozensets, refusing an index that names no factor."""
    sets = tuple(map(frozenset, (I, J, K)))
    bad = [j for js in sets for j in js if j not in range(space.t)]
    if bad:
        raise ValueError("factor index %r is not one of 0..%d" % (bad[0], space.t - 1))
    return sets


def strand_is_guaranteed(space, I, J, K):
    """Exactness of the quadrant strand is guaranteed only when the three
    index sets do not exhaust the factors."""
    I, J, K = _factor_sets(space, I, J, K)
    return len(I | J | K) < space.t


def strand_checksum(T, c, I, J, K, b):
    """Alternating dimension sum of the quadrant strand at c restricted to
    internal degree b: a_i < c_i on I, = c_i on J, >= c_i on K (factor
    indices are 0-based).  Predicted 0 when I|J|K is a proper subset of the
    factors; the value is still computed otherwise, without the guarantee.
    """
    space = T.space
    c = space.degree(c)
    I, J, K = _factor_sets(space, I, J, K)
    if (I & J) or (I & K) or (J & K):
        raise ValueError("I, J, K must be disjoint")

    def keep(a):
        return (all(a[j] < c[j] for j in I) and all(a[j] == c[j] for j in J)
                and all(a[j] >= c[j] for j in K))

    dims = _gather(T, b, keep)
    return sum((-1) ** (d % 2) * v for d, v in dims.items())


def corner_checksum(T, c, b):
    """Alternating sum over the corner cone at c in internal degree b.

    The cone joins the strictly-lower quadrant (shifted so its terms land
    one degree higher, t steps back) to the upper quadrant, and is exact;
    the lower part therefore enters the checksum with sign (-1)^(t-1).
    """
    space = T.space
    c = space.degree(c)

    dims_up = _gather(T, b, lambda a: all(x >= y for x, y in zip(a, c)))
    dims_lo = _gather(T, b, lambda a: all(x < y for x, y in zip(a, c)))
    chi_up = sum((-1) ** (d % 2) * v for d, v in dims_up.items())
    chi_lo = sum((-1) ** (d % 2) * v for d, v in dims_lo.items())
    return chi_up + (-1) ** ((space.t - 1) % 2) * chi_lo


def _derive(zero, n, nj, step, targets):
    """The targets at which the strand rule along a factor P^nj derives
    h^n = 0 from the known-zero planes, in a layout where a twist's step
    up along the factor is `step` bits up: the AND over k = 0..min(n, nj)
    of zero[n-k] >> (k+1)*step."""
    for k in range(min(n, nj) + 1):
        targets &= zero[n - k] >> (k + 1) * step
    return targets


def strand_propagate(T, extend=None):
    """Close a table under the strand vanishing rule.

    Whenever the n_j+1 cells h^n(F(a)), h^{n-1}(F(a+e_j)), ...,
    h^{n-n_j}(F(a+n_j e_j)) are all known zero, the cell h^n(F(a-e_j)) is
    marked inferred_zero.  New cells may extend below the window by at most
    `extend` steps per factor, a non-negative int or a tuple of t of them
    (default n_j + 1); pass 0 to forbid extension.

    The rule runs on planes of one byte per twist, one Python int per index
    n and kind of knowledge (zero, nonzero), over the layout lo - extend <=
    a <= top in twist order, so a step up along factor j is 8*stride_j
    bits.  top is hi when the table stores no cell outside lo - extend ..
    hi (the engine's window), and hi + n_j + 1 otherwise, so that every
    stored antecedent of the box is laid out.  One pass over T.rows()
    codes each cell unknown, zero or nonzero, a byte per cell in twist
    order, and each index's planes are read off its slice.  The targets
    along factor j at index n are _derive's, masked by the unknown cells of
    the box, the guard a_j < hi_j and antecedents inside the layout, so no
    shift wraps; the rule is monotone, so iterating it reaches its least
    fixed point.  A derived zero clashing with a nonzero cell (which may sit
    at a_j = hi_j; one outside the box is looked up cell by cell) raises
    StrandInconsistency for the first clashing factor and its first clash
    in sorted (a, n) order: the rule holds for every coherent sheaf, so the
    table is invalid.  Returns a new table; the input is not modified.
    """
    space = T.space
    dims, m, t = space.factor_dims, space.m, space.t
    margins = (tuple(nj + 1 for nj in dims) if extend is None
               else (extend,) * t if type(extend) is int else extend)
    if not (type(margins) is tuple and len(margins) == t
            and all(type(x) is int and x >= 0 for x in margins)):  # no bool or float
        raise ValueError("extend must be a non-negative integer or a tuple of %d of them, "
                         "got %r" % (t, extend))
    lo = tuple(l - mg for l, mg in zip(T.window.lo, margins))
    hi = T.window.hi
    rows = T.rows()
    stored = list(rows)

    def in_box(a):
        return all(l <= x <= h for l, x, h in zip(lo, a, hi))

    top = hi
    twists = list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, top))))
    inside = stored == twists or all(map(in_box, stored))
    if not inside:
        top = tuple(h + nj + 1 for h, nj in zip(hi, dims))
        twists = list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, top))))
    sizes = [h - l + 1 for l, h in zip(lo, top)]
    strides = [math.prod(sizes[j + 1:]) for j in range(t)]

    def under(j, c):
        """The layout positions with a_j <= c."""
        keep = min(max(c - lo[j] + 1, 0), sizes[j])
        run = b"\x01" * keep * strides[j] + bytes((sizes[j] - keep) * strides[j])
        return int.from_bytes(run * (len(twists) // len(run)), "little")

    ones = int.from_bytes(b"\x01" * len(twists), "little")
    box = ones if inside else functools.reduce(operator.and_, map(under, range(t), hi))
    # reach[j][k]: the box twists whose k+1 steps up along factor j stay in
    # the layout, where the antecedents at an index n >= k lie.
    reach = [[box & under(j, top[j] - k - 1) for k in range(nj + 1)]
             for j, nj in enumerate(dims)]
    vectors = (rows.values() if stored == twists
               else map(rows.get, twists, itertools.repeat((None,) * (m + 1))))
    coded = bytes([0 if x is None else 1 if x == 0 else 2 for vector in vectors for x in vector])
    codes = [int.from_bytes(coded[n::m + 1], "little") for n in range(m + 1)]
    zero = [c & ones for c in codes]
    nonzero = [c >> 1 & ones for c in codes]
    unknown = [box & ~(z | nz) for z, nz in zip(zero, nonzero)]
    todo = list(unknown)
    changed = any(todo)
    while changed:
        changed = False
        for n, j in itertools.product(range(m + 1), range(t)):
            new = _derive(zero, n, dims[j], 8 * strides[j],
                          reach[j][min(n, dims[j])] & under(j, hi[j] - 1) & todo[n])
            if new:
                zero[n] |= new
                todo[n] ^= new
                changed = True
    out = T.copy()
    inferred = [(p, n) for n, (u, left) in enumerate(zip(unknown, todo)) if u != left
                for p, bit in enumerate((u ^ left).to_bytes(len(twists), "little")) if bit]
    for p, n in inferred:
        out.set_cell(twists[p], n, 0, STATUS_INFERRED)

    def ante(a, n, j):
        return [(a[:j] + (a[j] + k + 1,) + a[j + 1:], n - k) for k in range(dims[j] + 1)]

    def clash(a, n, j):
        return all(out.known_zero(*key) for key in ante(a, n, j)[:max(n + 1, 0)])

    outside = [] if inside else [(a, n) for a, vector in rows.items() if not in_box(a)
                                 for n, dim in enumerate(vector) if dim]
    for j, nj in enumerate(dims):
        if (any(_derive(zero, n, nj, 8 * strides[j], nonzero[n] & reach[j][min(n, nj)])
                for n in range(m + 1)) or any(clash(a, n, j) for a, n in outside)):
            a, n, dim = next((a, n, dim) for a in sorted(rows)
                             for n, dim in enumerate(rows[a]) if dim and clash(a, n, j))
            raise StrandInconsistency((a, n), dim, ante(a, n, j))
    return out
