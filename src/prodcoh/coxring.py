"""The Z^t-graded coordinate ring of a product of projective spaces.

Variables come in factor blocks x_{j,0}, ..., x_{j,n_j}; the multidegree of
a monomial is the vector of per-factor exponent sums.  On top of the
polynomials sit direct sums of twisted line bundles and bounded complexes
of them with multihomogeneous polynomial differentials -- the input format
for every sheaf this package computes with.

Twist convention: the summand O(b) contributes, in twist a, the monomials
of multidegree a + b, and a map O(b) -> O(c) is multiplication by a
polynomial of degree c - b (zero whenever c - b has a negative coordinate).
The represented sheaf is the degree-0 cohomology sheaf of the complex;
exactness away from degree 0 is asserted by the caller, not verified.

A complex is checked once, where it is built, for complexes built in
Python and read from JSON alike: LineBundleComplex's constructor checks its
parts against the space and ends with validate_complex, the check of what
needs the whole complex (shapes, entry degrees, d o d = 0).  An invalid
complex raises CoxError, so every LineBundleComplex that exists is valid.

Coefficients live in one field per complex.  MultiHomogPoly's constructor
alone coerces coefficients into its field, reduces them and drops zeros;
its arithmetic computes on plain ints and Fractions and hands the result
to it.  LineBundleComplex's constructor alone moves an entry over another
field into the complex's, by the same lift a JSON round trip takes.
"""

import re

from . import linalg
from .lattice import LatticeError, ProductSpace, SchemaError, json_key, vadd, vsub


class CoxError(ValueError):
    pass


def expvec_degree(space, e):
    if len(e) != space.t:
        raise CoxError("exponent vector has %d factor blocks, expected %d" % (len(e), space.t))
    for block, nj in zip(e, space.factor_dims):
        if len(block) != nj + 1:
            raise CoxError("exponent block %r has wrong length" % (block,))
        for x in block:
            if type(x) is not int:  # no bool, float or str
                raise CoxError("exponent vector %r has an entry that is not an integer" % (e,))
            if x < 0:
                raise CoxError("negative exponent in %r" % (e,))
    return tuple(sum(block) for block in e)


def _check_term(space, e, degree):
    """Refuse the exponent vector e, a tuple of int tuples, as a term of a
    polynomial of the declared degree."""
    got = expvec_degree(space, e)
    if got != degree:
        raise CoxError("term %r has degree %r, declared %r" % (e, got, degree))


# The coefficient strings of the JSON format: an optional minus sign, ASCII
# digits, and an optional denominator of ASCII digits.
_COEFF = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class MultiHomogPoly:
    """A multihomogeneous polynomial: a declared multidegree plus a term map
    exponent-vector -> nonzero coefficient.  The zero polynomial keeps its
    declared degree so matrix shapes stay meaningful.  The arithmetic
    refuses operands on another space or over another field (CoxError);
    +, - and * with an operand that is not a polynomial raise TypeError."""

    __slots__ = ("space", "field", "degree", "terms")

    def __init__(self, space, field, degree, terms):
        degree = space.degree(degree)
        clean = {}
        for e, c in terms.items():
            e = tuple(tuple(block) for block in e)
            _check_term(space, e, degree)
            c = field.coerce(c)
            if not c:
                continue
            if e in clean:
                raise CoxError("duplicate exponent vector %r" % (e,))
            clean[e] = c
        self.space = space
        self.field = field
        self.degree = degree
        self.terms = clean

    @classmethod
    def monomial(cls, space, field, coeff, e):
        e = tuple(tuple(block) for block in e)
        return cls(space, field, expvec_degree(space, e), {e: coeff})

    @classmethod
    def variable(cls, space, field, j, i, coeff=1):
        """The variable x_{j,i} (factor j, homogeneous coordinate i)."""
        e = tuple(
            tuple(1 if (jj == j and ii == i) else 0 for ii in range(nj + 1))
            for jj, nj in enumerate(space.factor_dims)
        )
        return cls.monomial(space, field, coeff, e)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiHomogPoly)
            and self.space == other.space
            and self.field == other.field
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, self.degree, tuple(sorted(self.terms.items()))))

    def __neg__(self):
        return MultiHomogPoly(self.space, self.field, self.degree,
                              {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiHomogPoly):
            return NotImplemented
        _check_operands(self, other)
        if self.degree != other.degree and self.terms and other.terms:
            raise CoxError("cannot add degrees %r and %r" % (self.degree, other.degree))
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        deg = self.degree if self.terms or not other.terms else other.degree
        return MultiHomogPoly(self.space, self.field, deg, terms)

    def __sub__(self, other):
        if not isinstance(other, MultiHomogPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiHomogPoly):
            return NotImplemented
        return poly_mult(self, other)

    def scale(self, c):
        c = self.field.coerce(c)
        return MultiHomogPoly(self.space, self.field, self.degree,
                              {e: co * c for e, co in self.terms.items()})

    def __repr__(self):
        return _terms_repr(self.terms) if self.terms else "0[deg=%r]" % (self.degree,)

    def to_json(self):
        return {
            "degree": list(self.degree),
            "terms": [
                {"c": _coeff_to_json(c, self.field), "e": [list(block) for block in e]}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, space, field, obj, path="poly"):
        """Read a polynomial object.  Errors name the path and come in a
        fixed order: the format's checks of each term's entries, repetition
        and coefficient, in term order; then the constructor's, of the
        declared degree and then of each term's block shape, sign and
        degree, in term order."""
        if not isinstance(obj, dict):
            raise SchemaError("%s: %r is neither 0, null nor a polynomial object" % (path, obj))
        terms = {}
        try:
            degree = tuple(json_key(obj, "degree", path))
            for k, term in enumerate(obj.get("terms", [])):
                where = "%s.terms[%d]" % (path, k)
                e = tuple(tuple(block) for block in json_key(term, "e", where))
                if any(type(x) is not int for block in e for x in block):
                    raise SchemaError("%s.e: %r has an entry that is not an integer" % (where, e))
                if e in terms:
                    raise SchemaError("%s.e: exponent vector %r is given twice" % (where, e))
                c = json_key(term, "c", where)
                if type(c) is not int and not (type(c) is str and _COEFF.fullmatch(c)):
                    raise SchemaError("%s.c: %r is neither an integer nor a 'num/den' string"
                                      % (where, c))
                try:
                    terms[e] = field.coerce(c)
                except (ValueError, ZeroDivisionError) as exc:  # FieldError is a ValueError
                    raise SchemaError("%s.c: %r is not a coefficient in %r (%s)"
                                      % (where, c, field, exc)) from exc
        except TypeError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
        try:
            return cls(space, field, degree, terms)
        except (CoxError, LatticeError) as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc


def _terms_repr(terms):
    """A term map as text, terms in exponent order: "3*x0_1^2*x1_0 + ..."."""
    bits = []
    for e in sorted(terms):
        mono = "*".join(
            "x%d_%d%s" % (j, i, "" if p == 1 else "^%d" % p)
            for j, block in enumerate(e)
            for i, p in enumerate(block)
            if p
        ) or "1"
        bits.append("%s*%s" % (terms[e], mono))
    return " + ".join(bits)


def _coeff_to_json(c, field):
    """The coefficient c of field as an int or a 'num/den' string."""
    if not field.p:
        return str(c) if c.denominator != 1 else int(c)
    # Balanced lift keeps small coefficients portable across fields.
    return c - field.p if c > field.p // 2 else c


def _check_operands(f, g):
    for h in (f, g):
        if not isinstance(h, MultiHomogPoly):
            raise CoxError("operand %r is not a polynomial" % (h,))
    if f.space != g.space:
        raise CoxError("polynomials live on different spaces")
    if f.field != g.field:
        raise CoxError("polynomials live over different fields, %r and %r" % (f.field, g.field))


def poly_mult(f, g):
    """Product of two multihomogeneous polynomials (degrees add)."""
    _check_operands(f, g)
    degree = vadd(f.degree, g.degree)
    return MultiHomogPoly(f.space, f.field, degree, _mult_into({}, f.terms, g.terms))


def _mult_into(acc, f_terms, g_terms):
    """Add the product of two {exponent: coefficient} term maps into acc,
    unreduced."""
    for e1, c1 in f_terms.items():
        for e2, c2 in g_terms.items():
            e = tuple(
                tuple(x + y for x, y in zip(b1, b2)) for b1, b2 in zip(e1, e2)
            )
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


class LineBundleComplex:
    """A bounded complex of twisted free sums, checked where it is built:
    its parts against its space, then the whole complex by validate_complex.
    Both refuse with CoxError, so every instance is valid.

    terms maps homological degree p to a tuple of twists, each of space.t
    integers; diffs maps p to the matrix of the map term(p) -> term(p+1),
    stored as rows over target summands, each entry None (zero) or a
    MultiHomogPoly on the complex's space and over its field, one without
    terms stored as None.  An entry over another field is converted where
    the complex is built, by the balanced lift that to_json writes and then
    the complex field's coerce, so the complex equals the one from_json
    reads from its JSON with that field_override.  The represented sheaf is
    the degree-0 cohomology sheaf; the caller asserts the complex is exact
    in every other degree.
    """

    def __init__(self, space, field, terms, diffs=None):
        self.space = space
        self.field = field
        self.terms = {_degree_key(p): _twists(space, tw) for p, tw in terms.items()}
        self.diffs = {_degree_key(p): tuple(tuple(_entry(space, field, e) for e in row)
                                            for row in mat)
                      for p, mat in (diffs or {}).items()}
        violations = validate_complex(self)
        if violations:
            raise CoxError("invalid complex: %r" % (violations[:3],))

    @property
    def degrees(self):
        return sorted(self.terms)

    def summands(self, p):
        return self.terms.get(p, ())

    def entry(self, p, row, col):
        mat = self.diffs.get(p)
        return None if mat is None else mat[row][col]

    def to_json(self):
        terms = [{"p": p, "twists": [list(b) for b in self.terms[p]]} for p in self.degrees]
        diffs = []
        for p in sorted(self.diffs):
            rows = [[0 if e is None else e.to_json() for e in row] for row in self.diffs[p]]
            diffs.append({"p": p, "entries": rows})
        return {
            "space": self.space.to_json(),
            "field": self.field.name,
            "complex": {"terms": terms, "diffs": diffs},
        }

    @classmethod
    def from_json(cls, obj, field_override=None):
        """Read a complex object, refusing anything malformed with a
        SchemaError that names its JSON path; the constructor's checks of
        the parts then hold by construction, and its whole-complex check
        refuses an invalid complex with CoxError, unwrapped.  field_override,
        when given, replaces the object's field, and every coefficient is
        read into it."""
        try:
            space = ProductSpace.from_json(json_key(obj, "space"))
        except (TypeError, LatticeError) as exc:
            raise SchemaError("space: %s" % exc) from exc
        try:
            field = field_override or linalg.parse_field(obj.get("field", "p:%d" % linalg.DEFAULT_PRIME))
        except linalg.FieldError as exc:
            raise SchemaError("field: %s" % exc) from exc
        body = obj.get("complex")
        if not isinstance(body, dict):
            raise SchemaError("complex: missing or not an object")
        terms = {}
        try:
            for k, entry in enumerate(json_key(body, "terms", "complex")):
                path = "complex.terms[%d]" % k
                p = _once(_integer(json_key(entry, "p", path), path + ".p"), terms, path)
                terms[p] = tuple(_degree(space, b, "%s.twists[%d]" % (path, t))
                                 for t, b in enumerate(json_key(entry, "twists", path)))
        except TypeError as exc:
            raise SchemaError("complex.terms: %s" % exc) from exc
        diffs = {}
        for d, dent in enumerate(_list(body.get("diffs", []), "complex.diffs")):
            path = "complex.diffs[%d]" % d
            try:
                p = _once(_integer(json_key(dent, "p", path), path + ".p"), diffs, path)
                rows = _list(json_key(dent, "entries", path), path + ".entries")
            except TypeError as exc:
                raise SchemaError("%s: %s" % (path, exc)) from exc
            mat = []
            for r, row in enumerate(rows):
                out = []
                for c, e in enumerate(_list(row, "%s.entries[%d]" % (path, r))):
                    if e is None or (type(e) is int and e == 0):
                        out.append(None)
                    else:
                        out.append(
                            MultiHomogPoly.from_json(
                                space, field, e,
                                path="complex.diffs[%d].entries[%d][%d]" % (d, r, c),
                            )
                        )
                mat.append(out)
            diffs[p] = mat
        return cls(space, field, terms, diffs)


def _twists(space, twists):
    twists = tuple(tuple(b) for b in twists)
    if any(type(x) is not int for b in twists for x in b):  # no bool, float or str
        raise CoxError("twists must be integers, got %r" % (twists,))
    for b in twists:
        if len(b) != space.t:
            raise CoxError("twist %r has length %d, expected %d" % (b, len(b), space.t))
    return twists


def _entry(space, field, e):
    if e is None:
        return None
    if not isinstance(e, MultiHomogPoly):
        raise CoxError("matrix entry %r is neither None nor a polynomial" % (e,))
    if e.space != space:
        raise CoxError("matrix entry %r lives on %r, not on %r" % (e, e.space, space))
    if e.field != field:  # by the lift the JSON writer uses, as --field reads it
        e = MultiHomogPoly(space, field, e.degree,
                           {ev: _coeff_to_json(c, e.field) for ev, c in e.terms.items()})
    return e if e.terms else None


def _degree_key(p):
    if type(p) is not int:  # no bool, float or str
        raise CoxError("homological degree %r is not an integer" % (p,))
    return p


def _integer(x, path):
    if type(x) is not int:  # no bool, float or str
        raise SchemaError("%s: %r is not an integer" % (path, x))
    return x


def _list(x, path):
    if type(x) is not list:
        raise SchemaError("%s: %r is not a list" % (path, x))
    return x


def _degree(space, b, path):
    try:
        return space.degree(b)
    except LatticeError as exc:
        raise SchemaError("%s: %s" % (path, exc)) from exc


def _once(p, seen, path):
    if p in seen:
        raise SchemaError("%s.p: degree %d is given twice" % (path, p))
    return p


def free_complex(space, twists, field=None):
    """The complex with a single term in degree 0: the sheaf is the direct
    sum of the given twists."""
    return LineBundleComplex(space, field or linalg.default_field(), {0: tuple(twists)})


def validate_complex(C):
    """The whole-complex check that LineBundleComplex's constructor ends
    with, once its parts are checked.

    Verifies matrix shapes, homogeneity of every nonzero entry (declared
    degree equal to target twist minus source twist; a nonzero polynomial
    has no negative degree, so a negative step forces a zero entry) and
    d o d = 0 symbolically.  Returns a list of violation tuples
    (p, row, col, kind, detail); empty means ok, as it is on every complex
    the constructor returns.  Exactness away from degree 0 is not checked.
    """
    out = []
    misshapen = set()
    for p, mat in sorted(C.diffs.items()):
        src = C.summands(p)
        tgt = C.summands(p + 1)
        if len(mat) != len(tgt) or any(len(row) != len(src) for row in mat):
            out.append((p, -1, -1, "shape",
                        "matrix is %dx%d, expected %dx%d"
                        % (len(mat), len(mat[0]) if mat else 0, len(tgt), len(src))))
            misshapen.add(p)
            continue
        for r, row in enumerate(mat):
            for c, e in enumerate(row):
                if e is None:
                    continue
                want = vsub(tgt[r], src[c])
                if e.degree != want:
                    out.append((p, r, c, "degree",
                                "entry degree %r, expected %r" % (e.degree, want)))
    # d o d = 0, symbolically: each composite's products summed in one
    # {exponent vector: coefficient} dict, and reduced once into C's field.
    for p in sorted(C.diffs):
        if p + 1 not in C.diffs or p in misshapen or p + 1 in misshapen:
            continue
        d1, d2 = C.diffs[p], C.diffs[p + 1]
        src = C.summands(p)
        mid = C.summands(p + 1)
        tgt = C.summands(p + 2)
        for r in range(len(tgt)):
            for c in range(len(src)):
                acc = {}
                for s in range(len(mid)):
                    f2, f1 = d2[r][s], d1[s][c]
                    if f1 is not None and f2 is not None:
                        _mult_into(acc, f2.terms, f1.terms)
                composite = {e: x for e, v in acc.items() if (x := C.field.coerce(v))}
                if composite:
                    out.append((p, r, c, "dd",
                                "composite %s is nonzero" % _terms_repr(composite)))
    return out

