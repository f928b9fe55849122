"""Dimension-level bookkeeping for Tate resolutions.

For a sheaf F the Tate resolution is a minimal exact complex over the
exterior algebra whose term in homological degree d collects every
H^{d-|a|}(F(a)).  Only dimensions are tracked here: the term of internal
degree b receives h^i(F(a)) with weight prod_j C(n_j+1, b_j-a_j) from each
twist a in the box 0 <= b_j - a_j <= n_j + 1, placed in homological degree
d = |a| + i.  Exactness of the resolution -- and of its quadrant strands
and corner cones -- forces every alternating sum of those dimensions to
vanish, which turns a cohomology table into a pile of verifiable checksums.

The vanishing-propagation rule is the minimality consequence along a
one-factor strand: if H^n(F(a)), H^{n-1}(F(a+e_j)), ..., H^{n-n_j}(F(a+n_j e_j))
all vanish, then H^n(F(a-e_j)) vanishes too.  Applied to a computed window
it extends certified zeros in the decreasing directions and cross-checks
the input table; it never defaults a cell to zero silently.  It runs on
bit planes, one Python int per index n and kind of knowledge, so the rule
fires on every twist at once by shifts and ANDs.  strand_propagate iterates
it until it settles; strand_check, on a fully computed window where nothing
can be inferred, only looks for its clashes, in one pass.
"""

import csv
import io
import itertools
import math
import re

from .bott import binom
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
    if not isinstance(dim, int):
        raise ValueError("dimension %r at %r is not an integer" % (dim, (a, i)))
    if dim < 0:
        raise ValueError("negative dimension at %r" % ((a, i),))


class CohomologyTable:
    """A window of cohomology dimensions h^i(F(a)) with per-cell provenance.

    Cells are keyed (a, i); a stored cell is trusted knowledge, either
    computed by an engine or inferred zero by the strand rule (cells may
    sit outside the window after propagation).  Absent cells are unknown.
    Indices outside [0, m] vanish for every sheaf and count as known zero
    without being stored.

    A table starts as computed vectors, one (h^0, ..., h^m) per twist in the
    order set_h stored them, and every read below takes them from there.
    The (a, i) -> (dim, status) dict is built from them the first time
    .cells is asked for (set_cell, copy, == and strand_propagate ask), and
    from then on it is the table.
    """

    def __init__(self, space, window, cells=None):
        self.space = space
        self.window = window
        if len(window.lo) != space.t:
            raise LatticeError("window dimension does not match space")
        self._rows = {} if cells is None else None
        self._cells = None if cells is None else dict(cells)

    @property
    def cells(self):
        if self._cells is None:
            self._cells = {(a, i): (dim, STATUS_COMPUTED)
                           for a, h in self._rows.items() for i, dim in enumerate(h)}
            self._rows = None
        return self._cells

    def rows(self):
        """{a: (h^0, ..., h^m)} over the twists with a stored cell, None at an
        unknown index.  On a table of computed vectors this is the store
        itself, to be read and not changed."""
        if self._cells is None:
            return self._rows
        m = self.space.m
        rows = {}
        for (a, i), (dim, _) in self._cells.items():
            if 0 <= i <= m:
                rows.setdefault(a, [None] * (m + 1))[i] = dim
        return rows

    def set_cell(self, a, i, dim, status=STATUS_COMPUTED):
        a = self.space.degree(a)
        if not (isinstance(i, int) and 0 <= i <= self.space.m):
            raise ValueError("cohomological index %r is not one of 0..%d" % (i, self.space.m))
        if status not in (STATUS_COMPUTED, STATUS_INFERRED):
            raise ValueError("unknown cell status %r" % (status,))
        _check_dim(a, i, dim)
        if status == STATUS_INFERRED and dim != 0:
            raise ValueError("inferred cells must be zero")
        self.cells[(a, i)] = (dim, status)

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
        if self._cells is None:
            self._rows.update((a, tuple(h)) for a, h in pairs)
        else:
            self._cells.update(((a, i), (dim, STATUS_COMPUTED))
                               for a, h in pairs for i, dim in enumerate(h))

    def get(self, a, i):
        """(dim, status) or None if the cell is unknown."""
        if i < 0 or i > self.space.m:
            return (0, STATUS_COMPUTED)
        if self._cells is None:
            h = self._rows.get(tuple(a))
            return None if h is None else (h[i], STATUS_COMPUTED)
        return self._cells.get((tuple(a), i))

    def known_dim(self, a, i):
        cell = self.get(a, i)
        return None if cell is None else cell[0]

    def known_zero(self, a, i):
        return self.known_dim(a, i) == 0

    def h_vector(self, a):
        """The full (h^0..h^m) vector at a, or None if any cell is unknown."""
        h = tuple(self.known_dim(a, i) for i in range(self.space.m + 1))
        return None if None in h else h

    def copy(self):
        return CohomologyTable(self.space, self.window, self.cells)

    def __eq__(self, other):
        return isinstance(other, CohomologyTable) and (self.space, self.window, self.cells) == (
            other.space, other.window, other.cells)

    def sorted_cells(self):
        if self._cells is None:
            return [((a, i), (dim, STATUS_COMPUTED))
                    for a, h in sorted(self._rows.items()) for i, dim in enumerate(h)]
        return sorted(self._cells.items())

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
        table = cls(space, window)
        for cell in obj["cells"]:
            table.set_cell(tuple(cell["a"]), cell["i"], cell["dim"], cell["status"])
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
        w = math.prod(binom(nj + 1, bj - aj) for nj, bj, aj in zip(space.factor_dims, b, a))
        if w == 0:
            continue
        for i in range(space.m + 1):
            cell = T.get(a, i)
            if cell is None:
                missing.append(a)
                break
            if cell[0]:
                d = sum(a) + i
                dims[d] = dims.get(d, 0) + w * cell[0]
    if missing:
        raise TateCoverageError(missing)
    return dims


def tate_term_dims(T, b):
    """The dimension profile of the Tate term in internal degree b."""
    return TateTermProfile(T.space.degree(b), _gather(T, b))


def strand_is_guaranteed(space, I, J, K):
    """Exactness of the quadrant strand is guaranteed only when the three
    index sets do not exhaust the factors."""
    return len(set(I) | set(J) | set(K)) < space.t


def strand_checksum(T, c, I, J, K, b):
    """Alternating dimension sum of the quadrant strand at c restricted to
    internal degree b: a_i < c_i on I, = c_i on J, >= c_i on K (factor
    indices are 0-based).  Predicted 0 when I|J|K is a proper subset of the
    factors; the value is still computed otherwise, without the guarantee.
    """
    space = T.space
    c = space.degree(c)
    I, J, K = frozenset(I), frozenset(J), frozenset(K)
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


def _raise_first_clash(T, derives, computed, outside):
    """The strand rule's clash step.  Take the first factor j for which
    derives(j), the planes, or the antecedents of an (a, n) of outside,
    looked up in T, derive h^n = 0 at a computed nonzero cell.  Raise
    StrandInconsistency for its first such cell in computed, the computed
    nonzero (a, n, dim) cells in the input's order."""
    dims = T.space.factor_dims

    def ante(a, n, j):
        return [(a[:j] + (a[j] + k + 1,) + a[j + 1:], n - k) for k in range(dims[j] + 1)]

    def clash(a, n, j):
        return all(T.known_zero(*key) for key in ante(a, n, j)[:max(n + 1, 0)])

    for j in range(len(dims)):
        if derives(j) or any(clash(a, n, j) for a, n in outside):
            a, n, dim = next(c for c in computed if clash(c[0], c[1], j))
            raise StrandInconsistency((a, n), dim, ante(a, n, j))


def strand_check(T):
    """Raise StrandInconsistency where strand_propagate(T, extend=0) would.
    On a table of computed vectors that are its window's, in twist order,
    every window cell is known and nothing can be inferred, so one pass of
    the clash step decides, with no fixpoint and no copy.  Its planes hold
    a byte per twist, in twist order: a step up along factor j is
    8*stride_j bits, and a target is kept only when its antecedents lie in
    the window, so no shift wraps.  Other tables go to strand_propagate."""
    rows = T._rows or {}
    if list(rows) != list(T.window.twists()):
        strand_propagate(T, extend=0)
        return
    sizes = [h - l + 1 for l, h in zip(T.window.lo, T.window.hi)]
    strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    zero = [int.from_bytes(bytes([not x for x in col]), "little") for col in zip(*rows.values())]
    nonzero = [int.from_bytes(b"\x01" * len(rows), "little") ^ z for z in zero]

    def below(j, c):
        """The window twists with a_j + c <= hi_j."""
        keep = min(c, sizes[j])
        run = b"\x01" * (sizes[j] - keep) * strides[j] + bytes(keep * strides[j])
        return int.from_bytes(run * (len(rows) // len(run)), "little")

    def derives(j):
        nj = T.space.factor_dims[j]
        return any(_derive(zero, n, nj, 8 * strides[j], plane & below(j, min(n, nj) + 1))
                   for n, plane in enumerate(nonzero))

    computed = ((a, n, dim) for a, h in rows.items() for n, dim in enumerate(h) if dim)
    _raise_first_clash(T, derives, computed, ())


def strand_propagate(T, extend=None):
    """Close a table under the strand vanishing rule.

    Whenever the n_j+1 cells h^n(F(a)), h^{n-1}(F(a+e_j)), ...,
    h^{n-n_j}(F(a+n_j e_j)) are all known zero, the cell h^n(F(a-e_j)) is
    marked inferred_zero.  New cells may extend below the window by at most
    `extend` steps per factor, a non-negative int or a tuple of t of them
    (default n_j + 1); pass 0 to forbid extension.

    The rule runs on bit planes: the box lo - extend <= a <= hi is laid out
    row-major, padded n_j + 1 above hi so that a shift by (k+1)*stride_j
    never carries into the next coordinate, and each index n holds three
    ints over it (known, known zero, computed nonzero).  The targets along
    factor j at index n are _derive's, masked by the unknown cells and the
    guard a_j < hi_j; the rule is monotone, so iterating it reaches its
    least fixed point.  Inferred cells are stored in decreasing
    lexicographic order.  A derived zero clashing with a computed nonzero
    cell (one outside the box is looked up cell by cell) raises
    StrandInconsistency for the first clashing factor and its first clash
    in the input's order, by _raise_first_clash: the rule holds for every
    coherent sheaf, so the table is invalid.  Returns a new table; the
    input is not modified.
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
    sizes = [h - l + nj + 2 for l, h, nj in zip(lo, hi, dims)]
    strides = [math.prod(sizes[j + 1:]) for j in range(t)]
    twists = list(itertools.product(*(range(l, l + z) for l, z in zip(lo, sizes))))

    def block(tops):
        """The layout positions with lo <= a <= tops."""
        mask = 1
        for j in range(t - 1, -1, -1):
            mask = sum(mask << x * strides[j] for x in range(tops[j] - lo[j] + 1))
        return mask

    known, zero, nonzero = ([bytearray(b"0") * len(twists) for _ in range(m + 1)]
                            for _ in range(3))
    where = {a: p for p, a in enumerate(twists)}
    box = block(hi)
    computed, outside = [], []
    for (a, n), (dim, status) in T.cells.items():
        p = where.get(a) if 0 <= n <= m else None
        if p is not None:  # bit p is byte ~p of the base-2 digits
            known[n][~p] = 49
            if not dim:
                zero[n][~p] = 49
        if dim and status == STATUS_COMPUTED:
            if p is not None and box >> p & 1:
                nonzero[n][~p] = 49
            else:
                outside.append((a, n))
            computed.append((a, n, dim))
    known, zero, nonzero = ([int(digits, 2) for digits in plane]
                            for plane in (known, zero, nonzero))
    guards = [block(hi[:j] + (hi[j] - 1,) + hi[j + 1:]) for j in range(t)]
    unknown = [box & ~plane for plane in known]
    todo = list(unknown)
    changed = True
    while changed:
        changed = False
        for n, j in itertools.product(range(m + 1), range(t)):
            new = _derive(zero, n, dims[j], strides[j], guards[j] & todo[n])
            if new:
                zero[n] |= new
                todo[n] ^= new
                changed = True
    out = T.copy()
    cells = out.cells
    digits = [format(u ^ left, "0%db" % len(twists)) for u, left in zip(unknown, todo)]
    hits = sorted((hit.start(), n) for n, s in enumerate(digits) for hit in re.finditer("1", s))
    for i, n in hits:  # character i of the digits is bit ~i
        cells[(twists[~i], n)] = (0, STATUS_INFERRED)
    _raise_first_clash(out, lambda j: any(_derive(zero, n, dims[j], strides[j], nonzero[n])
                                          for n in range(m + 1)), computed, outside)
    return out
