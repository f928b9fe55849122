"""Exact ranks over prime fields and the rationals.

A field here has no arithmetic of its own.  It has a characteristic p (0
for Q), inv for elimination, and coerce, which maps an int, a Fraction or
a 'num/den' string to the field's canonical element: an int in [0, p) over
F_p, a Fraction over Q.  Callers compute with plain ints and Fractions and
reduce the result with coerce; for polynomial coefficients that is
coxring.MultiHomogPoly's constructor.

One sparse Gaussian elimination serves both fields.  A matrix is a list of
rows, each a {column: value} dict holding only nonzero entries: Python ints
in [0, p) over F_p, so no modulus the field accepts can overflow, and
Fractions over Q.  Pivots are chosen deterministically, Markowitz-style
(after Bouillaguet et al., SpaSM), to keep fill low on the very sparse Cech
matrices.
"""

import heapq
from collections import defaultdict
from fractions import Fraction

DEFAULT_PRIME = 65521

# Miller-Rabin with the first k primes as bases is exact below psi_k, the
# least odd composite that is a strong pseudoprime to all of them (OEIS
# A014233; psi_10 to psi_13 by Sorenson and Webster, 2015).  _MR_PSI holds
# each distinct psi_k with the least k that has it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
           (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
           (318665857834031151167461, 12), (3317044064679887385961981, 13))
_MR_LIMIT = _MR_PSI[-1][0]


class FieldError(ValueError):
    pass


def _is_prime(p):
    """Deterministic Miller-Rabin with the fewest bases exact for p; exact
    for p < _MR_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES[:next((k for psi, k in _MR_PSI if p < psi), len(_MR_BASES))]:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _exact(x):
    """x, unless it is a float or a bool, which a field would misread: int(2.7)
    is 2, Fraction(2.7) a binary approximation, and True the integer 1."""
    if isinstance(x, (float, bool)):
        raise FieldError("coefficient %r is a %s, not an exact field element"
                         % (x, type(x).__name__))
    return x


class PrimeField:
    """The field Z/p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if type(p) is not int:  # no bool, float or str
            raise FieldError("modulus %r is not an integer" % (p,))
        if p >= _MR_LIMIT:
            raise FieldError(
                "modulus %d is too large: primality is certified below %d"
                % (p, _MR_LIMIT)
            )
        if p <= 2 or not _is_prime(p):
            raise FieldError("modulus must be an odd prime, got %d" % p)
        self.p = p

    @property
    def name(self):
        return "p:%d" % self.p

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError("denominator divisible by %d" % self.p)
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        return int(_exact(x)) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class RationalField:
    """The field Q, of characteristic p = 0; elements are fractions.Fraction."""

    name = "q"
    p = 0

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        return Fraction(_exact(x))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return type(other) is RationalField

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


RATIONALS = RationalField()


def default_field():
    return PrimeField(DEFAULT_PRIME)


def parse_field(spec):
    """Parse a field flag: "q" for the rationals, "p:<prime>" for F_p."""
    if not isinstance(spec, str):
        raise FieldError("field %r is not a string (expected 'q' or 'p:<prime>')" % (spec,))
    spec = spec.strip()
    if spec == "q":
        return RATIONALS
    if spec.startswith("p:"):
        try:
            p = int(spec[2:])
        except ValueError as exc:
            raise FieldError("bad modulus in field %r: %s" % (spec, exc)) from exc
        return PrimeField(p)
    raise FieldError("unrecognized field %r (expected 'q' or 'p:<prime>')" % spec)


def rank_sparse(rows, field):
    """Rank of a matrix given as sparse rows ({column: nonzero value} dicts
    with values already in the field), by Gaussian elimination in place.

    The pivot row is the live row with the fewest entries (a heap keyed
    (nnz, row)), the pivot column that row's column with the fewest live
    rows, lowest index on ties.  A pivot row retires once it has cleared
    its column from the live rows.  The rows are consumed.
    """
    p = field.p
    where = defaultdict(set)  # column -> rows holding it
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    done = set()
    while heap:
        nnz, r = heapq.heappop(heap)
        if r in done or nnz != len(rows[r]):
            continue
        prow = rows[r]
        c = min(prow, key=lambda j: (len(where[j]), j))
        inv = field.inv(prow[c])
        for i in where[c] - {r}:
            row = rows[i]
            f = row.pop(c) * inv
            if p:
                f %= p
            for j, v in prow.items():
                if j == c:
                    continue
                x = row.get(j, 0) - f * v
                if p:
                    x %= p
                if x:
                    row[j] = x
                    where[j].add(i)
                else:
                    del row[j]
                    where[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
        where[c].clear()
        for j in prow:
            where[j].discard(r)
        done.add(r)
    return len(done)
