import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

import reference
from prodcoh import linalg
from prodcoh.coxring import MultiHomogPoly
from prodcoh.lattice import ProductSpace
from prodcoh.linalg import PrimeField, RATIONALS, parse_field

BIG_PRIME = 4294967291  # the largest prime below 2**32


def test_parse_field():
    assert parse_field("q") is RATIONALS
    assert parse_field("p:65521").p == 65521
    with pytest.raises(linalg.FieldError):
        parse_field("p:65520")  # not prime
    with pytest.raises(linalg.FieldError):
        parse_field("float")
    with pytest.raises(linalg.FieldError, match="unrecognized field 'p'"):
        parse_field("p")  # the default prime is spelled out: p:65521


def test_primality_is_miller_rabin():
    # 2**61 - 1 is prime; trial division would take minutes.
    assert parse_field("p:2305843009213693951").p == 2305843009213693951
    assert parse_field("p:%d" % BIG_PRIME).p == BIG_PRIME
    for composite in (561, 1105, 3215031751, 4294967297, 3825123056546413051):
        with pytest.raises(linalg.FieldError):
            PrimeField(composite)
    # Above the bound where 13 Miller-Rabin bases certify primality.
    with pytest.raises(linalg.FieldError, match="too large"):
        parse_field("p:%d" % (2**89 - 1))


# psi_k (OEIS A014233): the least odd composite that is a strong pseudoprime
# to each of the first k prime bases, for k = 1..6, 7 (= psi_8) and 9.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051)


def miller_rabin_13_bases(n):
    """Trial division by the first 13 primes, then Miller-Rabin with all
    of them as bases whatever n is: the reference of the base prefix."""
    if n < 2:
        return False
    for b in linalg._MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in linalg._MR_BASES:
        x = pow(b, d, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def test_each_psi_k_is_refused():
    # Each psi_k passes the first k bases, so a prefix one base too short
    # at psi_k would call it prime.
    for psi in PSI:
        assert not linalg._is_prime(psi) and not miller_rabin_13_bases(psi)
        with pytest.raises(linalg.FieldError, match="odd prime"):
            PrimeField(psi)


def test_base_prefix_agrees_with_all_13_bases():
    for n in range(10**5):
        assert linalg._is_prime(n) == miller_rabin_13_bases(n), n
    rng = random.Random(13)
    sample = [rng.randrange(2, 10 ** rng.randint(6, 24)) | 1 for _ in range(3000)]
    sample += [psi + k for psi, _ in linalg._MR_PSI for k in range(-60, 61)]
    sample += [2**61 - 1, BIG_PRIME, 2**31 - 1, 10**18 + 9, 10**24 + 7]
    primes = 0
    for n in sample:
        if n < linalg._MR_LIMIT:
            assert linalg._is_prime(n) == miller_rabin_13_bases(n), n
            primes += linalg._is_prime(n)
    assert primes > 100


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.coerce(-1) == 6
    assert F.coerce("1/2") == 4  # 2*4 = 8 = 1 mod 7
    assert F.coerce(Fraction(3, 5)) == F.coerce(3 * F.inv(5))
    with pytest.raises(linalg.FieldError):
        PrimeField(2)


@pytest.mark.parametrize("p", [7.9, 7.0, "65521", True, Fraction(7)])
def test_prime_field_modulus_must_be_int(p):
    # int() once took 7.9 for 7 and the string "65521" for the prime.
    with pytest.raises(linalg.FieldError, match="not an integer"):
        PrimeField(p)


@pytest.mark.parametrize("field", [PrimeField(7), RATIONALS], ids=["F_7", "Q"])
@pytest.mark.parametrize("x", [2.7, True], ids=["float", "bool"])
def test_coerce_refuses_float_and_bool(field, x):
    # int(2.7) once read 2 in F_7, Fraction(2.7) a binary approximation in Q,
    # and True the integer 1 in both.
    with pytest.raises(linalg.FieldError, match="not an exact field element"):
        field.coerce(x)
    sp = ProductSpace((1, 1))
    with pytest.raises(linalg.FieldError, match="not an exact field element"):
        MultiHomogPoly(sp, field, (1, 0), {((1, 0), (0, 0)): x})


def test_coerce_reads_int_fraction_and_string():
    F = PrimeField(7)
    assert [F.coerce(x) for x in (3, -1, 10, Fraction(3, 5), "3/5", "-2")] == [3, 6, 3, 2, 2, 5]
    assert [RATIONALS.coerce(x) for x in (3, -1, Fraction(3, 5), "3/5", "-2")] == [
        3, -1, Fraction(3, 5), Fraction(3, 5), -2]


def test_rank_both_fields():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert reference.rank(rows, 3, PrimeField(65521)) == 2
    assert reference.rank(rows, 3, RATIONALS) == 2
    assert reference.rank([], 3, PrimeField(65521)) == 0
    assert reference.rank([[0, 0]], 2, RATIONALS) == 0


def test_rank_agrees_across_fields():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert reference.rank(rows, ncols, PrimeField(65521)) == reference.rank(
            rows, ncols, RATIONALS
        )


def test_rational_kernel_with_fractions():
    # Fraction entries are eliminated exactly: 3 * row 0 = row 1.
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert reference.rank(rows, 2, RATIONALS) == 1
    assert reference.rank(rows + [[Fraction(1, 3), Fraction(1, 2)]], 2, RATIONALS) == 2


def test_rank_exact_for_large_prime():
    # Six combinations of three independent rows, entries near p, so that
    # products of entries exceed 2**63: the rank is 3.
    p = BIG_PRIME
    basis = [
        [p - 1, p - 2, p - 3, p - 5, p - 7],
        [p - 11, p - 13, p - 17, p - 19, p - 23],
        [p - 29, p - 31, p - 37, p - 41, p - 43],
    ]
    coeffs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (p - 1, p - 2, 1), (3, p - 5, 7), (p - 2, 1, p - 3)]
    rows = [[sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(5)] for cs in coeffs]
    F = PrimeField(p)
    assert reference.rank(rows, 5, F) == 3


@st.composite
def sparse_matrices(draw):
    """Random sparse integer matrices up to 30x30: a product B C of sparse
    factors, so the rank is often below both dimensions, plus a few rows
    that combine others."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    inner = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))

    def sparse(m, n):
        return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]

    B, C = sparse(nrows, inner), sparse(inner, ncols)
    rows = [[sum(b * C[k][j] for k, b in enumerate(brow)) for j in range(ncols)] for brow in B]
    for _ in range(draw(st.integers(0, 4))):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
    return rows, ncols


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.sampled_from([3, 5, 65521, BIG_PRIME]))
def test_kernel_against_sympy(matrix, p):
    rows, ncols = matrix
    ranks = {}
    for field, domain in ((PrimeField(p), GF(p)), (RATIONALS, QQ)):
        r = reference.rank(rows, ncols, field)
        assert r == DomainMatrix.from_list(rows, ZZ).convert_to(domain).rank()
        ranks[field.name] = r
    assert ranks["q"] >= ranks["p:%d" % p]
