"""Distance-regularity certificates and the end-to-end theorem verdict.

The pipeline: a connected graph with d+1 distinct adjacency eigenvalues and
finite odd girth >= 2d+1 should be distance-regular (and a generalized odd
graph, diameter d with odd girth 2d+1).  Each step of the argument becomes a
numerical certificate; the brute-force intersection-array check is the
independent oracle at the end.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import predistance, spectral
from .graphs import GraphError, distance_data


# warn above these: the predistance recurrence's reconstruction residual, and
# the condition number of the Vandermonde system solved
RECURRENCE_TOL = 1e-8
DET_CONDITION = 1e12


@dataclass
class Tolerances:
    """Numerical thresholds for the verification pipeline.

    cluster=None resolves to spectral.cluster_breaks' 1e-8 * n * max(1, |lambda|max),
    which also bounds each raw eigenvalue's distance from its cluster value.
    """

    cluster: float = None
    certificate: float = 1e-6


@dataclass
class Certificate:
    """One named check: pass/fail/not-applicable plus the residual achieved.

    For eigenvalue_symmetry the residual is a margin (smallest |lambda| or
    |lambda_i + lambda_j|) and passing requires residual > tol; every other
    certificate passes when residual <= tol.
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

def _check_partition(dd):
    """The distance-i indicators A_0..A_D partition J: every entry of dd.dist lies in 0..D."""
    if dd.dist.min() < 0 or dd.dist.max() > dd.diameter:
        raise RuntimeError(
            "distance matrices A_0..A_%d do not sum to the all-ones matrix" % dd.diameter
        )


def distance_matrices(g, dd=None):
    """Distance-i indicators A_0..A_D for a connected graph; sum is all-ones."""
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("distance matrices require a connected graph")
    _check_partition(dd)
    return [(dd.dist == i).astype(np.int64) for i in range(dd.diameter + 1)]


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
    must depend on i alone.  They are the entries (u, v) of the level counts
    M_{i-1}, M_i, M_{i+1} (M_j = A_j A) that the distance expansion already
    computed, so no matrix product runs here.  The witness is the first
    violating pair in row-major order, kinds tested in the order c, a, b.
    """
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("intersection array requires a connected graph")
    dist, M, D = dd.dist, dd.level_counts, dd.diameter
    n = g.n

    b = np.zeros(D + 1, dtype=np.int64)
    c = np.zeros(D + 1, dtype=np.int64)
    a = np.zeros(D + 1, dtype=np.int64)
    for i in range(D + 1):
        # there is no level -1, and none at D+1, where b_D = 0 holds trivially
        below = M[i - 1] if i else None
        above = M[i + 1] if i < D else None
        at_i = dist == i
        ref = divmod(int(at_i.argmax()), n)  # the first pair at distance i
        for kind, counts in (("c", below), ("a", M[i]), ("b", above)):
            if counts is None:
                continue
            expected = int(counts[ref])
            bad = at_i & (counts != expected)
            if bad.any():
                pair = divmod(int(bad.argmax()), n)
                return NotDistanceRegular(
                    i=i,
                    kind=kind,
                    pair=pair,
                    found=int(counts[pair]),
                    expected=expected,
                    reference=ref,
                )
            if kind == "c":
                c[i] = expected
            elif kind == "a":
                a[i] = expected
            elif i < D:
                b[i] = expected
    return IntersectionArray(
        b=[int(x) for x in b[:D]],
        c=[int(x) for x in c[1:]],
        a=[int(x) for x in a],
        D=D,
    )


# ---------------------------------------------------------------------------
# individual certificates

def check_polynomial_identities(g, system, tol=1e-6, dd=None):
    """(hoffman, distance_polynomial) certificates from one pass over p_0(A)..p_d(A).

    The pass runs predistance.matrix_values once (d - 1 matrix products).  It
    sums H(A) = p_0(A) + ... + p_d(A), which must be the all-ones matrix J,
    and compares each p_i(A) with the distance-i indicator dist == i; the
    distance_polynomial residual is the largest over the levels, and its
    witness the first level i whose residual exceeds tol (None if none
    does).  A_i is the zero matrix beyond the diameter, which is how a graph
    with too many eigenvalues for its diameter fails loudly: p_d has
    positive norm, so p_d(A) cannot vanish.  Both are not applicable if g is
    irregular.
    """
    if not g.is_regular():
        return (Certificate(name="hoffman", tol=tol),
                Certificate(name="distance_polynomial", tol=tol))
    if dd is None:
        dd = distance_data(g)
    H = -np.ones((g.n, g.n))  # H(A) - J
    worst, first_bad = 0.0, None
    for i, PA in enumerate(predistance.matrix_values(system, g.adj)):
        H += PA
        diff = PA - (dd.dist == i)
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
    if dd is None:
        dd = distance_data(g)
    lam0 = float(system.spectrum.values[0])
    spectral_excess = float(predistance.poly_eval(system.polys[system.d], lam0))
    average_excess = float((dd.dist == system.d).sum(axis=1).mean())
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


def vandermonde_certificate(s, lm, tol=1e-6):
    """Solve the odd-power system and compare against all local multiplicities."""
    vals = s.values
    d = s.d
    tail = vals[1:]
    det = float(np.prod(tail)) if d else 1.0
    for i in range(d):
        for j in range(i):
            det *= float(tail[i] ** 2 - tail[j] ** 2)

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


def check_walk_regular(g, lm, tol=1e-6):
    """Constant idempotent diagonals plus a direct degree check.

    The degree check guards against a numerical false positive on the
    diagonals silently corrupting the steps that assume regularity.
    """
    spread = spectral.walk_regular_spread(lm)
    deg = g.degrees()
    regular = bool((deg == deg[0]).all())
    witness = None if regular else ("degrees", (int(deg.min()), int(deg.max())))
    return Certificate(
        name="walk_regular",
        passed=bool(spread <= tol and regular),
        residual=spread,
        tol=tol,
        witness=witness,
    )


def check_hoffman(g, system, tol=1e-6):
    """H(A) = J for connected regular graphs; see check_polynomial_identities."""
    return check_polynomial_identities(g, system, tol)[0]


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
                "parity": float(parity.tol) if parity is not None and parity.tol else None,
                "det_condition": DET_CONDITION,
            },
        }


def verify_theorem(g, tolerances=None, input_label=None):
    """Run the whole pipeline on one graph and assemble the report.

    Hypotheses: connected, d+1 distinct eigenvalues, finite odd girth >= 2d+1.
    When they hold, every certificate must pass and the brute-force check must
    find an intersection array; any failure is a counterexample alarm.  When
    they do not hold the conclusion is not-applicable (None) and no
    certificates are computed.
    """
    tols = tolerances if tolerances is not None else Tolerances()
    dd = distance_data(g)
    s = spectral.spectrum(g, tols.cluster, dd)
    warnings = list(s.warnings)
    og = dd.odd_girth
    d = s.d

    met = bool(dd.connected and og != math.inf and og >= 2 * d + 1)
    hypotheses = {
        "connected": dd.connected,
        "eigenvalue_count": d + 1,
        "odd_girth": og,
        "hypothesis_met": met,
    }

    certificates = {}
    conclusion = None
    if met:
        certificates["eigenvalue_symmetry"] = check_eigenvalue_symmetry(s, tols.certificate)

        # a connected graph of diameter D has at least D+1 distinct eigenvalues;
        # with d >= D a met graph meets the prefilter under which spectrum
        # solved for the eigenvectors too
        if d < dd.diameter:
            raise spectral.NumericalError(
                "%d clustered eigenvalues for diameter %d: the cluster tolerance %.3e "
                "merged distinct eigenvalues" % (d + 1, dd.diameter, s.cluster_tol)
            )
        lm = s.local_mults
        certificates["vandermonde"] = vandermonde_certificate(s, lm, tols.certificate)
        if certificates["vandermonde"].witness.ill_conditioned:
            warnings.append(
                "vandermonde system ill-conditioned (cond %.3e)"
                % certificates["vandermonde"].witness.condition
            )
        certificates["walk_regular"] = check_walk_regular(g, lm, tols.certificate)

        system = predistance.predistance_polynomials(s)
        max_rec = float(system.recurrence_residuals.max())
        if max_rec > RECURRENCE_TOL:
            warnings.append(
                "recurrence reconstruction residual %.3e exceeds %.3e"
                % (max_rec, RECURRENCE_TOL)
            )
        _check_partition(dd)
        certificates["hoffman"], distance_polynomial = check_polynomial_identities(
            g, system, tols.certificate, dd
        )

        parity_report = predistance.check_parity(system, og)
        certificates["parity"] = Certificate(
            name="parity",
            passed=parity_report.passed,
            residual=None
            if not parity_report.applicable
            else max(parity_report.max_interior_alpha, parity_report.max_offparity_coeff),
            tol=parity_report.tol,
            witness=parity_report,
        )

        certificates["distance_polynomial"] = distance_polynomial

        ia = intersection_array(g, dd)
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
