"""Distance-regularity certificates and the end-to-end theorem verdict.

The pipeline: a connected graph with d+1 distinct adjacency eigenvalues and
finite odd girth >= 2d+1 should be distance-regular (and a generalized odd
graph, diameter d with odd girth 2d+1).  Each step of the argument becomes a
certificate; the brute-force intersection-array check is the independent
oracle at the end.

verify_theorem runs it in two steps.  check_hypothesis decides the
hypothesis exactly, with one distance_data call and, on a prefilter graph,
the walk counts and their recurrence; no eigenvalue is solved for.
theorem_report builds the report from that record: the spectrum, and on a
met graph the certificates and the conclusion.  A caller that keeps only
the met graphs (scan_corpus) runs the first step on every graph and the
second on the met ones.

A graph that meets the distance layer's exact prefilter (connected, odd girth
og finite and og >= 2D+1) has its walk counts tr(A^ell), ell <= og + 1, read
off the powers of A, and the Chebyshev algorithm on them finds d exactly
(predistance.walk_recurrence).  The hypothesis holds iff a norm vanishes by
pi_L, L = (og + 1) / 2, so no tolerance enters the verdict.  On that met path
every certificate is exact, the report's spectrum comes from the Jacobi
matrix, and nothing n x n is solved or evaluated beyond the powers, unless
the intersection array disagrees with the exact recurrence (its rows must sum
to k, and the monic recurrence (a_i, b_{i-1} c_i) of its distance polynomials
must be the walk recurrence's (a_i, b_i)): then the p_i(A) pass
(check_polynomial_identities) names the first level that breaks; it alone
expands the graph again, for the levels A_i it compares with.  Every
other graph gets spectral.spectrum, a clustered eigvalsh, for its report.
The float certificates below (vandermonde_certificate, check_walk_regular on
local multiplicities, ...) are the exact path's oracles.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import graphs, predistance, spectral
from .graphs import GraphError, distance_data, distance_levels


# the float oracles' thresholds, kept in every report's tolerances: the
# predistance recurrence's reconstruction residual, and the condition number
# above which vandermonde_certificate flags its system as ill-conditioned
RECURRENCE_TOL = 1e-8
DET_CONDITION = 1e12


@dataclass
class Tolerances:
    """Numerical thresholds for the verification pipeline.

    cluster=None resolves to spectral.cluster_breaks' 1e-8 * n * max(1, |lambda|max),
    which also bounds each raw eigenvalue's distance from its cluster value.
    It clusters the spectrum of a graph that does not meet the hypothesis; a
    met graph's d is exact and nothing of it is clustered.  certificate must
    be finite and >= 0, cluster None or finite and > 0; anything else is a
    ValueError.
    """

    cluster: float = None
    certificate: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.certificate) and self.certificate >= 0):
            raise ValueError(
                "certificate tolerance must be finite and >= 0, got %r" % self.certificate
            )
        if self.cluster is not None and not (math.isfinite(self.cluster) and self.cluster > 0):
            raise ValueError("cluster tolerance must be finite and > 0, got %r" % self.cluster)


@dataclass
class Certificate:
    """One named check: pass/fail/not-applicable plus the residual achieved.

    For eigenvalue_symmetry the residual is a margin (smallest |lambda| or
    |lambda_i + lambda_j|) and passing requires residual > tol; every other
    certificate passes when residual <= tol.  On the met path the verdicts
    are exact and the residuals are reported beside them
    (exact_certificates).
    """

    name: str
    passed: bool = None
    residual: float = None
    tol: float = None
    witness: object = None

    def to_dict(self):
        return {
            "pass": None if self.passed is None else bool(self.passed),
            "residual": None if self.residual is None else float(self.residual),
        }


# ---------------------------------------------------------------------------
# distance matrices and the definitional intersection-array check

def distance_matrices(g, dd=None):
    """Distance-i indicators A_0..A_D for a connected graph, int64; sum is all-ones."""
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("distance matrices require a connected graph")
    return [level.astype(np.int64) for level in distance_levels(dd.product)]


@dataclass
class IntersectionArray:
    """Structure constants {b_0..b_{D-1}; c_1..c_D} with a_i = b_0 - b_i - c_i."""

    b: list
    c: list
    a: list
    D: int

    def to_dict(self):
        return {
            "b": [int(x) for x in self.b],
            "c": [int(x) for x in self.c],
            "a": [int(x) for x in self.a],
        }


@dataclass
class NotDistanceRegular:
    """First violating pair found by the definitional check.

    For the pair (u, v) at distance i, the count of neighbors of v at distance
    i-1/i/i+1 from u (kind 'c'/'a'/'b') differs from the count at the
    reference pair.
    """

    i: int
    kind: str
    pair: tuple
    found: int
    expected: int
    reference: tuple


def intersection_array(g, dd=None):
    """Brute-force intersection numbers; IntersectionArray or a counterexample pair.

    For every ordered pair (u, v) at distance i the counts |Gamma(v) cap
    Gamma_{i-1}(u)|, |Gamma(v) cap Gamma_i(u)|, |Gamma(v) cap Gamma_{i+1}(u)|
    must depend on i alone.  The distance expansion already reduced each
    of them over the pairs at distance i, to the count at the first pair
    and the first pair whose count differs (DistanceData.intersection_counts),
    so nothing n x n runs here.  The witness is the first violating pair in
    row-major order, levels in increasing order and kinds tested in the
    order c, a, b.
    """
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("intersection array requires a connected graph")
    D = dd.diameter
    numbers = {kind: [0] * (D + 1) for kind in "cab"}
    for count in dd.intersection_counts:
        if count.pair is not None:
            return NotDistanceRegular(
                i=count.i,
                kind=count.kind,
                pair=count.pair,
                found=count.found,
                expected=count.expected,
                reference=count.reference,
            )
        numbers[count.kind][count.i] = count.expected
    # there is no c_0, and b_D = 0 holds trivially
    return IntersectionArray(b=numbers["b"][:D], c=numbers["c"][1:], a=numbers["a"], D=D)


# ---------------------------------------------------------------------------
# individual certificates

def check_polynomial_identities(g, system, tol=1e-6, dd=None):
    """(hoffman, distance_polynomial) certificates from one pass over p_0(A)..p_d(A).

    The pass runs predistance.matrix_values once (d - 1 matrix products).  It
    sums H(A) = p_0(A) + ... + p_d(A), which must be the all-ones matrix J,
    and compares each p_i(A) with the distance-i indicator A_i, level i of
    a new expansion (graphs.distance_levels); the distance_polynomial
    residual is the largest over the levels, and its witness the first
    level i whose residual exceeds tol (None if none does).  A_i is the
    zero matrix beyond the diameter, which is how a graph with too many
    eigenvalues for its diameter fails loudly: p_d has positive norm, so
    p_d(A) cannot vanish.  Both are not applicable if g is irregular.
    """
    if not g.is_regular():
        return (Certificate(name="hoffman", tol=tol),
                Certificate(name="distance_polynomial", tol=tol))
    product = graphs.Product(g.adj) if dd is None else dd.product
    H = -np.ones((g.n, g.n))  # H(A) - J
    worst, first_bad = 0.0, None
    # on BLAS the levels take a Product of their own, so that each casts A
    # once, float32 for the levels and float64 for p_i(A), not once a
    # product; the gathers cast nothing and share the one neighbour table
    levels = distance_levels(product if product.gathers else graphs.Product(g.adj))
    for i, PA in enumerate(predistance.matrix_values(system, product)):
        H += PA
        diff = PA - next(levels, 0)  # A_i, zero past the diameter
        residual = float(np.abs(diff, out=diff).max())
        worst = max(worst, residual)
        if first_bad is None and residual > tol:
            first_bad = i
    hoffman = float(np.abs(H, out=H).max())
    return (
        Certificate(name="hoffman", passed=hoffman <= tol, residual=hoffman, tol=tol),
        Certificate(name="distance_polynomial", passed=worst <= tol, residual=worst,
                    tol=tol, witness=first_bad),
    )


def check_distance_polynomial(g, system, tol=1e-6, dd=None):
    """Does p_i(A) equal the distance-i matrix at every level i <= d?

    Not applicable if g is irregular; see check_polynomial_identities.
    """
    return check_polynomial_identities(g, system, tol, dd)[1]


def excess_comparison(g, system, dd=None):
    """(spectral excess p_d(lambda_0), average count of distance-d vertices).

    Equality certifies distance-regularity for connected regular graphs; used
    as a cross-check, not as the primary proof path.  None if g is irregular.
    """
    if not g.is_regular():
        return None
    product = graphs.Product(g.adj) if dd is None else dd.product
    lam0 = float(system.spectrum.values[0])
    spectral_excess = float(predistance.poly_eval(system.polys[system.d], lam0))
    at_d = next(islice(distance_levels(product), system.d, None), False)  # A_d, none past D
    average_excess = np.count_nonzero(at_d) / g.n
    return spectral_excess, average_excess


def check_eigenvalue_symmetry(s, tol=1e-6):
    """No eigenvalue may vanish and no two may sum to zero.

    A graph with finite odd girth >= 2d+1 has neither a zero eigenvalue nor a
    +/- pair; bipartite graphs always fail with the pair (lambda_0, lambda_d).
    The residual is the margin: min over |lambda_i| and |lambda_i + lambda_j|.
    """
    vals = s.values
    zero_i = int(np.argmin(np.abs(vals)))
    zero_margin = float(abs(vals[zero_i]))

    pair_margin = math.inf
    pair = None
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            m = abs(float(vals[i] + vals[j]))
            if m < pair_margin:
                pair_margin = m
                pair = (float(vals[i]), float(vals[j]))

    margin = min(zero_margin, pair_margin)
    witness = {
        "zero": float(vals[zero_i]) if zero_margin <= tol else None,
        "pair": pair if pair_margin <= tol else None,
    }
    return Certificate(
        name="eigenvalue_symmetry",
        passed=margin > tol,
        residual=margin,
        tol=tol,
        witness=witness,
    )


@dataclass
class VandermondeCertificate:
    """Constructive spectrum-regularity data from the odd-power moment system.

    Solving sum_{i>=1} x_i lambda_i^(2l-1) = -lambda_0^(2l-1) (l = 1..d) with
    x_0 = 1 gives proportionality constants; every vertex's local
    multiplicities must equal proportionality / sum(proportionality).
    det_value is prod(lambda_i) * prod_{i>j}(lambda_i^2 - lambda_j^2) over
    i, j >= 1, the system's determinant.  condition is that of the system
    actually solved, in the rows T_{2l-1}(lambda / lambda_0).
    """

    det_value: float
    proportionality: np.ndarray
    residual: float
    condition: float
    ill_conditioned: bool


def _moment_determinant(vals):
    """prod(lambda_i) * prod_{i>j}(lambda_i^2 - lambda_j^2) over i, j >= 1."""
    tail = vals[1:]
    det = float(np.prod(tail)) if len(tail) else 1.0
    for i in range(len(tail)):
        for j in range(i):
            det *= float(tail[i] ** 2 - tail[j] ** 2)
    return det


def vandermonde_certificate(s, lm, tol=1e-6):
    """Solve the odd-power system and compare against all local multiplicities."""
    vals = s.values
    d = s.d
    det = _moment_determinant(vals)

    if d == 0:
        prop = np.array([1.0])
        condition = 1.0
    else:
        # the odd Chebyshev polynomials T_1, T_3, ..., T_{2d-1} span the odd
        # powers up to 2d-1, so the solution is the same, but well conditioned
        T = np.polynomial.chebyshev.chebvander(vals / vals[0], 2 * d - 1)[:, 1::2]
        M = T[1:].T
        rhs = -T[0]
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            cert = VandermondeCertificate(
                det_value=det,
                proportionality=None,
                residual=math.inf,
                condition=math.inf,
                ill_conditioned=True,
            )
            return Certificate(
                name="vandermonde", passed=False, residual=math.inf, tol=tol, witness=cert
            )
        condition = float(np.linalg.cond(M))
        prop = np.concatenate(([1.0], x))

    total = float(prop.sum())
    if abs(total) < 1e-300:
        residual = math.inf
    else:
        residual = float(np.abs(lm - prop[None, :] / total).max())
    cert = VandermondeCertificate(
        det_value=det,
        proportionality=prop,
        residual=residual,
        condition=condition,
        ill_conditioned=condition > DET_CONDITION,
    )
    return Certificate(
        name="vandermonde",
        passed=bool(residual <= tol),
        residual=residual,
        tol=tol,
        witness=cert,
    )


def _walk_regular(deg, spread, passed, tol):
    """The walk_regular certificate: diagonals with this spread, plus a direct degree check on deg."""
    regular = bool((deg == deg[0]).all())
    witness = None if regular else ("degrees", (int(deg.min()), int(deg.max())))
    return Certificate(name="walk_regular", passed=bool(passed and regular),
                       residual=float(spread), tol=tol, witness=witness)


def check_walk_regular(g, lm, tol=1e-6):
    """Constant idempotent diagonals plus a direct degree check.

    The degree check guards against a numerical false positive on the
    diagonals silently corrupting the steps that assume regularity.
    """
    spread = spectral.walk_regular_spread(lm)
    return _walk_regular(g.degrees(), spread, spread <= tol, tol)


def check_hoffman(g, system, tol=1e-6):
    """H(A) = J for connected regular graphs; see check_polynomial_identities."""
    return check_polynomial_identities(g, system, tol)[0]


# ---------------------------------------------------------------------------
# the met path: every certificate in exact arithmetic

def exact_certificates(g, dd, walks, recurrence, s, ia, tol=1e-6):
    """The certificates of a hypothesis-met graph, each decided exactly.

    walks are predistance.closed_walks' diagonals, recurrence the exact
    predistance.WalkRecurrence with d set, s its jacobi_spectrum and ia the
    intersection_array result.  A certificate that holds has residual 0, and
    every residual but eigenvalue_symmetry's (the float margin of s's
    values, as in check_eigenvalue_symmetry) is an exact count or defect
    named below, as a float.  parity's tol is 0.0, the bound its exact
    residual is held to, and the report's tolerances.parity; every other
    certificate keeps tol for the report.

    - eigenvalue_symmetry: gcd(pi_{d+1}(x), pi_{d+1}(-x)) = 1 over the
      rationals (predistance.reflection_free).
    - vandermonde: every odd diagonal diag(A^ell), ell <= 2d - 1, is zero
      (residual: the largest such walk count), and the odd-moment system is
      nonsingular.  Its determinant vanishes iff some lambda_i, i >= 1, is
      zero or the negative of another; -lambda_0 is no eigenvalue of a
      connected graph with an odd cycle, so that is the reflection test
      again.  Then every vertex solves the same system, and
      its local multiplicities are m_i / n.
    - walk_regular: diag(A^ell) is one integer at every vertex for ell <= d
      (with d+1 distinct eigenvalues this fixes every idempotent diagonal;
      residual: the largest spread max - min of such a diagonal), plus the
      degree check of check_walk_regular.
    - parity: a_i = 0 for i < d and a_d != 0 (residual: max |a_i|, i < d).
      For i <= d, pi_i has the parity of i iff a_0..a_{i-1} vanish, so
      coefficient parity is the first condition.
    - hoffman and distance_polynomial: on a regular graph lambda_0 = k, and
      the distance polynomials v_i of an array whose rows sum to k
      (a_i + b_i + c_i = k, c_0 = b_D = 0) satisfy
      x v_i = b_{i-1} v_{i-1} + a_i v_i + c_{i+1} v_{i+1}, so the monic
      c_1...c_i v_i have the recurrence (a_i, b_{i-1} c_i).  Given the row
      sums, the a_i and the products P_i = b_{i-1} c_i fix the array
      (b_0 = k - a_0, c_i = P_i / b_{i-1}, b_i = k - a_i - c_i).  So if ia is
      an array whose rows sum to k, with the recurrence's a_0..a_d and its
      b_i = b_{i-1} c_i, the monic pi_i are the c_1...c_i v_i and the
      normalized p_i are the v_i: p_i(A) = A_i at every level and H(A) = J.
      Otherwise the p_i(A) pass (check_polynomial_identities) on the exact
      recurrence (WalkRecurrence.predistance_system), rounded to floats,
      measures the residuals (0 when the recurrences match) and names the
      first broken level.  Both are not applicable if g is irregular.
    """
    d, a = recurrence.d, recurrence.a
    free = predistance.reflection_free(recurrence.integer_polynomials()[d + 1])
    symmetry = check_eigenvalue_symmetry(s, tol)
    symmetry.passed = free

    odd = max((int(np.abs(w).max()) for w in walks[1:2 * d:2]), default=0)
    spread = max(int(w.max() - w.min()) for w in walks[: d + 1])
    deg = g.degrees()  # one row sum for the degree check and the regular branch
    walk_regular = _walk_regular(deg, spread, not spread, tol)

    if not (deg == deg[0]).all():
        hoffman = Certificate(name="hoffman", tol=tol)
        distance_polynomial = Certificate(name="distance_polynomial", tol=tol)
    else:
        k = int(deg[0])
        if (isinstance(ia, IntersectionArray)
                and all(x + y + z == k for x, y, z in zip(ia.a, ia.b + [0], [0] + ia.c))
                and a == ia.a
                and recurrence.b == [y * z for y, z in zip(ia.b, ia.c)]):
            hoffman = Certificate(name="hoffman", passed=True, residual=0.0, tol=tol)
            distance_polynomial = Certificate(name="distance_polynomial", passed=True,
                                              residual=0.0, tol=tol)
        else:
            hoffman, distance_polynomial = check_polynomial_identities(
                g, recurrence.predistance_system(k, s), tol, dd
            )

    interior = max((abs(x) for x in a[:d]), default=0)
    return {
        "eigenvalue_symmetry": symmetry,
        "vandermonde": Certificate(name="vandermonde", passed=not odd and free,
                                   residual=float(odd), tol=tol),
        "walk_regular": walk_regular,
        "hoffman": hoffman,
        "parity": Certificate(name="parity", passed=not interior and bool(a[d]),
                              residual=float(interior), tol=0.0),
        "distance_polynomial": distance_polynomial,
    }


# ---------------------------------------------------------------------------
# the end-to-end verdict

@dataclass
class Conclusion:
    distance_regular: bool
    intersection_array: IntersectionArray = None
    generalized_odd_graph: bool = False
    witness: NotDistanceRegular = None


@dataclass
class TheoremReport:
    """Everything verify_theorem found, serializable to the stable JSON schema."""

    input: str
    n: int
    spectrum: spectral.Spectrum
    odd_girth_value: object
    hypotheses: dict
    certificates: dict
    conclusion: Conclusion
    warnings: list
    tolerances: Tolerances

    @property
    def hypothesis_met(self):
        return self.hypotheses["hypothesis_met"]

    @property
    def alarm(self):
        """True when the hypotheses hold but some certificate or the verdict fails."""
        if not self.hypothesis_met:
            return False
        if any(c.passed is False for c in self.certificates.values()):
            return True
        return not (self.conclusion and self.conclusion.distance_regular)

    def to_dict(self):
        og = self.odd_girth_value
        og_json = "inf" if og == math.inf else int(og)
        parity = self.certificates.get("parity")
        conclusion = None
        if self.conclusion is not None:
            ia = self.conclusion.intersection_array
            conclusion = {
                "distance_regular": bool(self.conclusion.distance_regular),
                "intersection_array": ia.to_dict() if ia is not None else None,
                "generalized_odd_graph": bool(self.conclusion.generalized_odd_graph),
            }
        return {
            "input": self.input,
            "n": int(self.n),
            "spectrum": [
                [float(v), int(m)] for v, m in zip(self.spectrum.values, self.spectrum.mults)
            ],
            "d": int(self.spectrum.d),
            "odd_girth": og_json,
            "hypotheses": {
                "connected": bool(self.hypotheses["connected"]),
                "eigenvalue_count": int(self.hypotheses["eigenvalue_count"]),
                "odd_girth": og_json,
                "hypothesis_met": bool(self.hypotheses["hypothesis_met"]),
            },
            "certificates": {name: c.to_dict() for name, c in self.certificates.items()},
            "conclusion": conclusion,
            "warnings": list(self.warnings),
            "tolerances": {
                "cluster": float(self.spectrum.cluster_tol),
                "certificate": float(self.tolerances.certificate),
                "recurrence": RECURRENCE_TOL,
                "parity": None if parity is None or parity.tol is None else float(parity.tol),
                "det_condition": DET_CONDITION,
            },
        }


class Hypothesis(NamedTuple):
    """What check_hypothesis decided about one graph, exactly.

    dd is the graph's distance_data.  walks (predistance.closed_walks'
    diagonals) and recurrence (its WalkRecurrence) are None unless the graph
    meets the prefilter, and met is whether the hypothesis holds.  Each
    walks[ell] is int64, or an object array of Python integers when the
    bound of its row dot reaches 2^53; that is decided per ell, so a long
    cycle's walks switch part way.
    """

    dd: object
    walks: list
    recurrence: object
    met: bool


def check_hypothesis(g):
    """Decide the hypothesis exactly: one all-sources expansion, and walk counts on a prefilter graph.

    A graph that meets the prefilter (spectral.meets_prefilter: connected,
    finite odd girth og >= 2D+1) has its d decided exactly from its walk
    counts up to tr(A^(og+1)) (see the module docstring), and the hypothesis
    holds iff d <= (og - 1) / 2.  No eigenvalue is solved for and no
    tolerance enters.
    """
    dd = distance_data(g)
    walks = recurrence = None
    if spectral.meets_prefilter(dd):
        walks = predistance.closed_walks(dd.product, (dd.odd_girth + 1) // 2)
        recurrence = predistance.walk_recurrence(predistance.closed_walk_total(walks))
    met = recurrence is not None and recurrence.d is not None
    return Hypothesis(dd, walks, recurrence, met)


def theorem_report(g, hypothesis, tolerances=None, input_label=None):
    """The report of g from its check_hypothesis record.

    When the hypothesis holds, every certificate (exact_certificates) must
    pass and the brute-force check must find an intersection array; any
    failure is a counterexample alarm.  When it does not hold the conclusion
    is not-applicable (None), no certificates are computed, and the report's
    spectrum is spectral.spectrum's, eigvalsh clustered; a graph has at
    least D+1 distinct eigenvalues, and a prefilter graph whose walk counts
    did not fix d at least L+1, so a clustering that finds fewer raises
    NumericalError.
    """
    tols = tolerances if tolerances is not None else Tolerances()
    dd, walks, recurrence, met = hypothesis
    og = dd.odd_girth

    if met:
        s = spectral.jacobi_spectrum([float(x) for x in recurrence.a],
                                     [float(x) for x in recurrence.b], g.n, tols.cluster)
    else:
        s = spectral.spectrum(g, tols.cluster, dd)
        floor = dd.diameter if recurrence is None else len(recurrence.norms) - 1
        if s.d < floor:
            raise spectral.NumericalError(
                "%d clustered eigenvalues where at least %d are distinct: the cluster "
                "tolerance %.3e merged distinct eigenvalues" % (s.d + 1, floor + 1, s.cluster_tol)
            )
    warnings = list(s.warnings)
    d = s.d
    hypotheses = {
        "connected": dd.connected,
        "eigenvalue_count": d + 1,
        "odd_girth": og,
        "hypothesis_met": met,
    }

    certificates = {}
    conclusion = None
    if met:
        ia = intersection_array(g, dd)
        certificates = exact_certificates(g, dd, walks, recurrence, s, ia, tols.certificate)
        if isinstance(ia, IntersectionArray):
            conclusion = Conclusion(
                distance_regular=True,
                intersection_array=ia,
                generalized_odd_graph=bool(dd.diameter == d and og == 2 * dd.diameter + 1),
            )
        else:
            conclusion = Conclusion(distance_regular=False, witness=ia)

    return TheoremReport(
        input=input_label,
        n=g.n,
        spectrum=s,
        odd_girth_value=og,
        hypotheses=hypotheses,
        certificates=certificates,
        conclusion=conclusion,
        warnings=warnings,
        tolerances=tols,
    )


def verify_theorem(g, tolerances=None, input_label=None):
    """Run the whole pipeline on one graph and assemble the report.

    Hypotheses: connected, d+1 distinct eigenvalues, finite odd girth >= 2d+1.
    check_hypothesis decides them exactly, and theorem_report builds the
    report from its record; see both.
    """
    return theorem_report(g, check_hypothesis(g), tolerances, input_label)
