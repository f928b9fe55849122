"""Decision procedure for splitting into a direct sum of O(kH).

A torsion-free sheaf F on a product of projective spaces splits as a sum
of powers O(kH) of a very ample O(H) = O(d_1, ..., d_t) exactly when F has
no intermediate cohomology at any twist where the bundles O(kH) themselves
have none (the safe region).  The procedure works window-by-window:

1. compute a cohomology table, check it against the strand rule, and
   check the monotonicity of top cohomology (a failed check means the
   table does not come from a sheaf).  Every window cell is computed, so
   tate.strand_propagate(table, extend=0) infers nothing and only looks
   for the rule's clashes, in one pass over the window: a zero derived
   there rests on cells above it alone, so the clash is the one a run
   extended below the window finds.  Every stage reads the table's one
   store, its vectors (CohomologyTable.rows);
2. scan the safe region for intermediate cohomology: a hit is a certified
   NonSplit witness;
3. find the maximal twists with nonzero h^m; for a splitting candidate one
   of them must be aligned, i.e. of the form k*d + canonical twist;
4. extract summand multiplicities by descending h^0 counts and verify the
   whole window against the candidate sum's per-factor closed forms.

The verdict is Split only when every finite check passes; anything the
window cannot certify comes back Inconclusive rather than extrapolated.
Torsion-freeness is an input assertion, recorded in the verdict, never
verified.
"""

from dataclasses import dataclass

from . import bott, cech, tate
from .lattice import (
    LatticeError,
    Polarization,
    Window,
    canonical_twist,
    lt,
    safe_region,
    vadd,
    vscale,
)


class SplitterError(ValueError):
    pass


@dataclass
class ExtremalReport:
    """Certified maximal twists of the h^m-nonvanishing locus.

    positions lists twists a with h^m(F(a)) != 0 and h^m(F(a+e_j)) known
    zero for every j (by top-cohomology monotonicity that certifies
    h^m(F(c)) = 0 for every c > a).  aligned_k is the k with some position
    equal to k*d + canonical twist, if any.  When the locus touches the
    window in an increasing direction, certified is False and notes name
    the offending twists.
    """

    positions: tuple = ()
    aligned_k: int = None
    certified: bool = True
    notes: tuple = ()


@dataclass
class SplitVerdict:
    kind: str  # "split" | "nonsplit" | "inconclusive"
    summands: tuple = ()  # ((k, mult), ...) with k descending
    witness: tuple = None  # (twist, i)
    reason: str = ""
    window: Window = None
    torsion_free_asserted: bool = False
    safe_region_size: int = 0
    extremal_positions: tuple = ()
    aligned_k: int = None
    mode: str = "product"

    def to_json(self):
        out = {
            "verdict": self.kind,
            "window": self.window.to_json() if self.window else None,
            "assertions": {"torsion_free": self.torsion_free_asserted},
            "safe_region_size": self.safe_region_size,
            "extremal_positions": [list(a) for a in self.extremal_positions],
            "aligned_k": self.aligned_k,
            "mode": self.mode,
        }
        if self.kind == "split":
            out["summands"] = [{"k": k, "mult": m} for k, m in self.summands]
        elif self.kind == "nonsplit":
            out["witness"] = {"twist": list(self.witness[0]), "i": self.witness[1]}
        else:
            out["reason"] = self.reason
        return out


def hypothesis_violations(T, safe):
    """Twists of safe, the safe region in T's window, carrying intermediate
    cohomology in T.

    Returned in lexicographic twist order, lowest index first, so the first
    entry is the canonical witness.
    """
    rows, m = T.rows(), T.space.m
    unknown = (None,) * (m + 1)
    return [(a, i) for a in sorted(safe) for i, dim in enumerate(rows.get(a, unknown)[1:m], 1)
            if dim]


def hm_monotonicity_check(T):
    """Top cohomology can only grow downward: h^m(F(a)) != 0 forces
    h^m(F(b)) != 0 for every b <= a.  Checks every unit step in the window;
    returns None or the offending pair (lower twist, upper twist)."""
    m, lo = T.space.m, T.window.lo
    top = {a: h[m] for a, h in T.rows().items()}
    for a in T.window.twists():
        if top.get(a):
            for j, (x, l) in enumerate(zip(a, lo)):
                b = a[:j] + (x - 1,) + a[j + 1:]
                if x > l and top.get(b) == 0:
                    return (b, a)
    return None


def extremal_hm(T, d):
    """Maximal elements of the h^m-nonvanishing locus, with certification.

    A position a is certified extremal when h^m(F(a)) != 0 and every
    h^m(F(a+e_j)) is known zero; monotonicity then kills everything above.
    Maximal nonvanishing twists with an unknown upper neighbour make the
    report uncertified.  The locus is walked in decreasing lexicographic
    order against the front of maximal twists found so far: every c > a
    comes before a, and so does a maximal twist above c, so a twist below
    no front member is maximal.  Positions and notes are reported ascending.
    """
    space = T.space
    m = space.m
    top = {a: h[m] for a, h in T.rows().items()}
    front = []
    for a in sorted((a for a, dim in top.items() if dim), reverse=True):
        if not any(lt(a, c) for c in front):
            front.append(a)
    positions, notes = [], []
    for a in reversed(front):
        ups = [a[:j] + (x + 1,) + a[j + 1:] for j, x in enumerate(a)]
        (positions if all(top.get(u) == 0 for u in ups) else notes).append(a)
    certified = not notes
    aligned = None
    for a in positions:  # a = k*d + canonical twist in every factor, for one k
        qr = [divmod(aj - wj, dj) for aj, wj, dj in zip(a, canonical_twist(space), d.d)]
        if not any(r for _, r in qr) and len({q for q, _ in qr}) == 1:
            aligned = qr[0][0]
            break
    return ExtremalReport(
        positions=tuple(positions),
        aligned_k=aligned,
        certified=certified,
        notes=tuple(notes),
    )


def _h0_of_twist_sum(space, d, ks_mults, shift_k):
    """h^0 of (+) O(k_j H)^{m_j} twisted by shift_k * H, via the closed form."""
    total = 0
    for k, mult in ks_mults:
        total += mult * bott.line_bundle_h(space, vscale(k + shift_k, d.d))[0]
    return total


def multiplicities(T, d, report):
    """Summand multiplicities of a split candidate by h^0 descent.

    k_max is the largest k with h^0(F(-kH)) nonzero; descending from there,
    mult(k) = h^0(F(-kH)) - sum_{k'>k} mult(k') * h^0(O((k'-k)H)).  The
    descent stops at the k pinned by the aligned extremal position (the
    smallest summand twist of any splitting) and is verified one step
    further down when the window allows.  report is extremal_hm(T, d).
    An uncertified report, a missing aligned position, h^0(F(kH)) below
    h^m(F(kH + canonical)) at the aligned k, negative residuals and missing
    window coverage raise SplitterError, whose message is split_check's
    Inconclusive reason.
    """
    space = T.space
    if not report.certified:
        raise SplitterError(
            "extremality uncertifiable: h^m locus touches the window at %r" % (report.notes,)
        )
    if report.aligned_k is None:
        raise SplitterError(
            "no extremal position of the aligned form k*d + canonical; "
            "window evidence cannot certify a splitting"
        )
    # Sections must dominate top cohomology at the aligned position.
    k = report.aligned_k
    kd = vscale(k, d.d)
    if kd in T.window:
        h0 = T.known_dim(kd, 0)
        hm = T.known_dim(vadd(kd, canonical_twist(space)), space.m)
        if h0 is not None and hm is not None and h0 < hm:
            raise SplitterError(
                "h^0(F(kH)) < h^m(F(kH + canonical)) at k=%d; table cannot "
                "come from a torsion-free sheaf satisfying the hypothesis" % k
            )
    k_low = -k

    def h0(k):
        a = vscale(-k, d.d)
        if a not in T.window:
            raise SplitterError("window does not cover twist -kH for k=%d" % k)
        dim = T.known_dim(a, 0)
        if dim is None:
            raise SplitterError("h^0(F(%r)) unknown" % (a,))
        return dim

    # Largest k with sections, certified by a vanishing h^0 one step above.
    k = k_low
    while True:
        a = vscale(-(k + 1), d.d)
        if a not in T.window:
            raise SplitterError(
                "window too small to certify the largest summand twist (need %r)" % (a,)
            )
        if h0(k + 1) == 0:
            break
        k += 1
    k_max = k

    mults = []
    for k in range(k_max, k_low - 1, -1):
        residual = h0(k) - _h0_of_twist_sum(space, d, mults, -k)
        if residual < 0:
            raise SplitterError("negative residual %d at k=%d" % (residual, k))
        if residual:
            mults.append((k, residual))
    if not mults or mults[-1][0] != k_low:
        raise SplitterError(
            "aligned extremal position predicts a summand at k=%d but the "
            "h^0 descent found none" % k_low
        )
    below = vscale(-(k_low - 1), d.d)
    if below in T.window:
        residual = h0(k_low - 1) - _h0_of_twist_sum(space, d, mults, -(k_low - 1))
        if residual != 0:
            raise SplitterError(
                "nonzero residual %d below the smallest summand twist" % residual
            )
    return tuple(mults)


def verify_split(T, ms, d):
    """Necessary-condition check: compare the table's vector at each twist
    with the closed-form one of (+) O(kH)^mult, bott.kunneth_window over
    the window.  Returns None or the first mismatch (a, i, got, expected)
    in lexicographic order."""
    space = T.space
    space.degree(d.d)  # a polarization of the wrong length is refused, not truncated
    terms = [(0, vscale(k, d.d), mult) for k, mult in ms]
    rows, unknown = T.rows(), [None] * (space.m + 1)
    for a, expected in bott.kunneth_window(space, T.window, terms).items():
        got = rows.get(a, unknown)
        if list(got) != expected:
            return next((a, i, x, y) for i, (x, y) in enumerate(zip(got, expected)) if x != y)
    return None


def split_check(C, d, window, torsion_free_asserted=False):
    """Run the full splitting pipeline on a line-bundle complex.

    cohomology table -> strand check on the window -> monotonicity ->
    hypothesis scan (hit = NonSplit) -> extremal positions -> multiplicity
    extraction -> verification (pass = Split).  Upstream failures and every
    condition the window cannot certify yield Inconclusive with a reason.
    """
    space = C.space
    d = d if isinstance(d, Polarization) else Polarization(d)
    if len(d.d) != space.t:
        raise LatticeError("polarization length does not match space")
    # What each verdict reports besides its kind, growing stage by stage.
    found = dict(window=window, torsion_free_asserted=torsion_free_asserted,
                 mode="product" if space.t >= 2 else "single-factor-classical")

    def inconclusive(reason):
        return SplitVerdict(kind="inconclusive", reason=reason, **found)

    try:
        table = cech.cohomology_table(C, window)
    except cech.EngineCheckFailed as exc:
        return inconclusive("cohomology computation failed: %s" % exc)

    try:
        tate.strand_propagate(table, extend=0)
    except tate.StrandInconsistency as exc:
        return inconclusive("strand propagation inconsistency: %s" % exc)

    violation = hm_monotonicity_check(table)
    if violation is not None:
        return inconclusive(
            "top-cohomology monotonicity fails between %r and %r; the table "
            "cannot come from a sheaf" % violation
        )

    safe = safe_region(space, d, window)
    found["safe_region_size"] = len(safe)
    violations = hypothesis_violations(table, safe)
    if violations:
        return SplitVerdict(kind="nonsplit", witness=violations[0], **found)

    if not any(map(any, table.rows().values())):
        return SplitVerdict(kind="split", summands=(), **found)

    report = extremal_hm(table, d)
    if report.certified:
        found.update(extremal_positions=report.positions, aligned_k=report.aligned_k)
    try:
        ms = multiplicities(table, d, report)
    except SplitterError as exc:
        return inconclusive(str(exc))

    mismatch = verify_split(table, ms, d)
    if mismatch is not None:
        return inconclusive(
            "candidate sum disagrees with the table at a=%r, i=%d (%s vs %s)" % mismatch
        )
    return SplitVerdict(kind="split", summands=ms, **found)
