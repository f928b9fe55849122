"""Seeded inputs and independent reference answers for the benchmark.

Each workload is a fixed list of `prodcoh` command lines over complex-JSON
files written to a work directory.  The seed draws the signs of a Koszul
complex's generators, the free sums of the split-check requests and the
order of the requests; what decides the cost of a pass (the point a Koszul
complex cuts out, twist boxes, windows, summand counts) is fixed, so that
different seeds give the same amount of work.  The point is fixed because
the elimination cost of a twist depends on which coordinate chart holds it:
with a seeded point, complex-q's tail latency moved by 20% between seeds.

Every request carries its reference answer, computed without the Cech
engine: a point sheaf has h = (1,0,...,0) at every twist, the ideal sheaf of
a point follows from 0 -> I_p -> O -> O_p -> 0 and the closed-form line
bundle cohomology in `bott`, and a free sum's split-check verdict follows
from `bott` and `lattice.safe_region`.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass

from prodcoh import bott, linalg
from prodcoh.coxring import LineBundleComplex, MultiHomogPoly, validate_complex
from prodcoh.lattice import Polarization, ProductSpace, Window, safe_region, vadd, vscale

EXIT_OK = 0
EXIT_NONSPLIT = 10


@dataclass
class Request:
    """One command line and the answer it must produce."""

    argv: list
    twists: int  # twists whose full cohomology vector the request computes
    exit_code: int
    expect: dict  # the fields of the JSON answer that must match
    cpu_share: float = 1.0  # share of its time that scales with hostspeed's kernel


@dataclass
class Workload:
    name: str
    requests: list
    composition: str


# ---------------------------------------------------------------------------
# Complexes.


def koszul(space, field, gens):
    """Koszul complex of the polynomials gens: term -k is the sum of
    O(-deg f_S) over k-subsets S, and e_S maps to sum_i (-1)^i f_{s_i} e_{S-s_i},
    so d o d = 0 holds by construction."""
    r = len(gens)
    subsets = [list(itertools.combinations(range(r), k)) for k in range(r + 1)]

    def twist(S):
        deg = (0,) * space.t
        for s in S:
            deg = vadd(deg, gens[s].degree)
        return tuple(-x for x in deg)

    terms = {-k: [twist(S) for S in subsets[k]] for k in range(r + 1)}
    diffs = {}
    for k in range(1, r + 1):
        row_of = {S: i for i, S in enumerate(subsets[k - 1])}
        rows = [[None] * len(subsets[k]) for _ in subsets[k - 1]]
        for col, S in enumerate(subsets[k]):
            for i, s in enumerate(S):
                rows[row_of[S[:i] + S[i + 1:]]][col] = gens[s] if i % 2 == 0 else -gens[s]
        diffs[-k] = rows
    return _validated(LineBundleComplex(space, field, terms, diffs))


def ideal_of(K):
    """The Koszul complex without its degree-0 term, shifted up by one: its
    degree-0 cohomology sheaf is the ideal sheaf of the zero locus."""
    terms = {p + 1: list(K.summands(p)) for p in K.degrees if p < 0}
    diffs = {p + 1: K.diffs[p] for p in K.diffs if p < -1}
    return _validated(LineBundleComplex(K.space, K.field, terms, diffs))


def _validated(C):
    violations = validate_complex(C)
    if violations:
        raise RuntimeError("generated complex is invalid: %r" % (violations[:3],))
    return C


def point_koszul(rng, space, field):
    """Koszul complex of the point [1:0:...:0] in every factor: in each
    factor j, the coordinates x_1..x_{n_j}, each with a seeded sign."""
    gens = []
    for j, nj in enumerate(space.factor_dims):
        for i in range(1, nj + 1):
            gens.append(MultiHomogPoly.variable(space, field, j, i, rng.choice((1, -1))))
    return koszul(space, field, gens)


def free_sum(space, twists):
    return LineBundleComplex(space, linalg.default_field(), {0: [tuple(b) for b in twists]})


def write_complex(workdir, name, C):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(C.to_json(), fh, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Reference answers.


def point_h(space):
    return [1] + [0] * space.m


def ideal_point_h(space, a):
    """h(I_p(a)) from 0 -> I_p -> O -> O_p -> 0.  Evaluation at a coordinate
    point is onto exactly when O(a) has sections, so it removes one section
    or, failing that, adds one class to h^1."""
    h = list(bott.line_bundle_h(space, a))
    if h[0]:
        h[0] -= 1
    else:
        h[1] += 1
    return h


def split_expectation(space, d, safe, twists):
    """Verdict of split-check on a free sum, from closed forms only; safe is
    the window's safe region.

    A sum of O(kH) is Split with its multiplicities; anything else carries
    intermediate cohomology at some safe twist, and the witness is the first
    such (twist, i) in lexicographic twist order."""
    ks = {}
    for b in twists:
        k = b[0] // d.d[0]
        if vscale(k, d.d) != tuple(b):
            break
        ks[k] = ks.get(k, 0) + 1
    else:
        summands = [{"k": k, "mult": ks[k]} for k in sorted(ks, reverse=True)]
        return EXIT_OK, {"verdict": "split", "summands": summands,
                         "safe_region_size": len(safe)}
    for a in sorted(safe):
        h = [0] * (space.m + 1)
        for b in twists:
            h = [x + y for x, y in zip(h, bott.line_bundle_h(space, vadd(a, b)))]
        for i in range(1, space.m):
            if h[i]:
                return EXIT_NONSPLIT, {"verdict": "nonsplit",
                                       "witness": {"twist": list(a), "i": i},
                                       "safe_region_size": len(safe)}
    raise RuntimeError("free sum %r has no witness in the window" % (twists,))


def check(req, code, out):
    """None when the answer matches the reference, else a one-line reason."""
    if code != req.exit_code:
        return "exit code %r, expected %d" % (code, req.exit_code)
    text = out[out.find("{"):] if "{" in out else ""
    try:
        got = json.loads(text)
    except ValueError:
        return "no JSON answer in %r" % out[:80]
    for key, want in req.expect.items():
        if got.get(key) != want:
            return "%s = %r, expected %r" % (key, got.get(key), want)
    return None


# ---------------------------------------------------------------------------
# Workloads.

P11 = ProductSpace((1, 1))
P12 = ProductSpace((1, 2))


def _h_request(path, a, h, field=None, cpu_share=1.0):
    argv = ["cohomology", "--input", path, "--twist", ",".join(map(str, a)),
            "--format", "json"]
    if field:
        argv += ["--field", field]
    return Request(argv, 1, EXIT_OK, {"twist": list(a), "h": list(h)}, cpu_share)


def complex_fp(rng, workdir):
    """Koszul point on P^1xP^1 at the 49 twists of [-6,6]^2 with even
    coordinates (matrices from 24 to 1,136 rows), and on P^1xP^2 at three
    twists with 1,330 to 5,167-row matrices, over F_65521."""
    field = linalg.default_field()
    k11 = write_complex(workdir, "point11", point_koszul(rng, P11, field))
    k12 = write_complex(workdir, "point12", point_koszul(rng, P12, field))
    box = [a for a in Window((-6, -6), (6, 6)).twists() if a[0] % 2 == a[1] % 2 == 0]
    reqs = [_h_request(k11, a, point_h(P11)) for a in box]
    # Eliminations of 1,330-5,167 rows are largely bound by memory traffic.
    reqs += [_h_request(k12, a, point_h(P12), cpu_share=0.5)
             for a in [(-2, -2), (0, 0), (2, 2)]]
    rng.shuffle(reqs)
    return Workload("complex-fp", reqs,
                    "P1xP1 point at 49 twists of [-6,6]^2 + P1xP2 point at 3 twists, F_65521")


def complex_q(rng, workdir):
    """The P^1xP^1 Koszul point and its ideal sheaf over the box [-2,1]^2,
    with --field q."""
    K = point_koszul(rng, P11, linalg.default_field())
    kp = write_complex(workdir, "point11", K)
    ki = write_complex(workdir, "ideal11", ideal_of(K))
    box = list(Window((-2, -2), (1, 1)).twists())
    reqs = [_h_request(kp, a, point_h(P11), "q") for a in box]
    reqs += [_h_request(ki, a, ideal_point_h(P11, a), "q") for a in box]
    rng.shuffle(reqs)
    return Workload("complex-q", reqs,
                    "P1xP1 point + its ideal sheaf over [-2,1]^2 (32 req), --field q")


# (space, window) per split-check family, with the non-polarized summands
# that make a request NonSplit.  Polarization is (1,...,1) throughout.
SPLIT_FAMILIES = [
    (P11, Window((-4, -4), (3, 3)),
     [(1, -2), (-2, 1), (0, -2), (-2, 0)]),
    (ProductSpace((1, 1, 1)), Window((-3, -3, -3), (2, 2, 2)),
     [(1, -2, 0), (0, 1, -2), (-2, 0, 1), (1, 0, -2)]),
    (ProductSpace((2, 3)), Window((-4, -5), (2, 2)),
     [(1, -3), (-3, 1), (0, -4), (-3, 0)]),
]
SPLIT_PER_FAMILY = 4  # Split sums per family; each non-polarized summand adds a NonSplit one
SUMMANDS = 4  # line bundles per free sum


def split_batch(rng, workdir):
    """Free sums on P^1xP^1, P^1xP^1xP^1 and P^2xP^3.  In each family the
    Split sums deal out a fixed multiset of O(-H), O, O(H) at random, and
    each NonSplit sum swaps one summand for a non-polarized line bundle, so
    every seed gives the same summands in total."""
    reqs = []
    for space, window, bad in SPLIT_FAMILIES:
        d = Polarization((1,) * space.t)
        safe = safe_region(space, d, window)
        n_split = SPLIT_PER_FAMILY * SUMMANDS
        n_nonsplit = len(bad) * (SUMMANDS - 1)
        pool = [vscale(k, d.d) for k in itertools.islice(itertools.cycle((-1, 0, 1)),
                                                         n_split + n_nonsplit)]
        rng.shuffle(pool)
        bad = list(bad)
        rng.shuffle(bad)
        sums = [pool[i * SUMMANDS:(i + 1) * SUMMANDS] for i in range(SPLIT_PER_FAMILY)]
        rest = pool[n_split:]
        sums += [rest[i * (SUMMANDS - 1):(i + 1) * (SUMMANDS - 1)] + [b]
                 for i, b in enumerate(bad)]
        for twists in sums:
            rng.shuffle(twists)
            name = "sum%d" % len(reqs)
            path = write_complex(workdir, name, free_sum(space, twists))
            code, expect = split_expectation(space, d, safe, twists)
            argv = ["split-check", "--input", path, "--d", ",".join(map(str, d.d)),
                    "--window", ",".join("%d:%d" % lh for lh in zip(window.lo, window.hi))]
            reqs.append(Request(argv, window.size, code, expect))
    rng.shuffle(reqs)
    return Workload("split-batch", reqs,
                    "free sums of 4 line bundles, 4 Split + 4 NonSplit on each of "
                    "P1xP1, P1^3, P2xP3 (24 req)")


WORKLOADS = {"complex-fp": complex_fp, "complex-q": complex_q, "split-batch": split_batch}


def build(name, seed, workdir):
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)), workdir)
