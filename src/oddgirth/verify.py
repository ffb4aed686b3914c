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


@dataclass
class Tolerances:
    """Numerical thresholds for the verification pipeline.

    cluster=None resolves to spectral.cluster_breaks' 1e-8 * n * max(1, |lambda|max),
    which also bounds each raw eigenvalue's distance from its cluster value;
    parity=None resolves to 1e-7 * the largest polynomial coefficient.
    """

    cluster: float = None
    certificate: float = 1e-6
    recurrence: float = 1e-8
    parity: float = None
    det_condition: float = 1e12


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

def distance_matrices(g, dd=None):
    """Distance-i indicators A_0..A_D for a connected graph; sum is all-ones."""
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("distance matrices require a connected graph")
    mats = [(dd.dist == i).astype(np.int64) for i in range(dd.diameter + 1)]
    if not np.array_equal(sum(mats), np.ones((g.n, g.n), dtype=np.int64)):
        raise RuntimeError(
            "distance matrices A_0..A_%d do not sum to the all-ones matrix" % dd.diameter
        )
    return mats


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
    must depend on i alone.
    """
    if dd is None:
        dd = distance_data(g)
    if not dd.connected:
        raise GraphError("intersection array requires a connected graph")
    dist = dd.dist
    A = g.adj.astype(np.float64)
    D = dd.diameter

    def level_product(j):
        # (A_j A)[u, v] = |Gamma(v) cap Gamma_j(u)|; float64 BLAS, exact since counts <= n
        return (dist == j).astype(np.float64) @ A

    b = np.zeros(D + 1, dtype=np.int64)
    c = np.zeros(D + 1, dtype=np.int64)
    a = np.zeros(D + 1, dtype=np.int64)
    # rolling window of the level products for i-1, i, i+1: each computed once;
    # there is no level -1, and none at D+1, where b_D = 0 holds trivially
    below, here = None, level_product(0)
    for i in range(D + 1):
        above = level_product(i + 1) if i < D else None
        at_i = dist == i
        ref = tuple(int(x) for x in np.argwhere(at_i)[0])
        for kind, counts in (("c", below), ("a", here), ("b", above)):
            if counts is None:
                continue
            expected = int(counts[ref])
            bad = at_i & (counts != expected)
            if bad.any():
                pair = tuple(int(x) for x in np.argwhere(bad)[0])
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
        below, here = here, above
    return IntersectionArray(
        b=[int(x) for x in b[:D]],
        c=[int(x) for x in c[1:]],
        a=[int(x) for x in a],
        D=D,
    )


# ---------------------------------------------------------------------------
# individual certificates

def check_distance_polynomial(g, system, tol=1e-6, dm=None):
    """Does p_d(A) equal the distance-d matrix?  Not applicable if g is irregular.

    A_d is the zero matrix when the diameter falls short of d, which is how a
    graph with too many eigenvalues for its diameter fails loudly: p_d has
    positive norm, so p_d(A) cannot vanish.
    """
    if not g.is_regular():
        return Certificate(name="distance_polynomial", tol=tol)
    if dm is None:
        dm = distance_matrices(g)
    d = system.d
    target = dm[d] if d < len(dm) else np.zeros((g.n, g.n))
    for PA in predistance.matrix_values(system, g.adj):
        pass  # p_d(A) is the last one
    residual = float(np.abs(PA - target).max())
    return Certificate(
        name="distance_polynomial", passed=residual <= tol, residual=residual, tol=tol
    )


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


def vandermonde_certificate(s, lm, tol=1e-6, cond_threshold=1e12):
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
        ill_conditioned=condition > cond_threshold,
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
    """H(A) = J for connected regular graphs; not applicable if g is irregular."""
    if not g.is_regular():
        return Certificate(name="hoffman", tol=tol)
    HA = sum(predistance.matrix_values(system, g.adj))
    residual = float(np.abs(HA - np.ones((g.n, g.n))).max())
    return Certificate(name="hoffman", passed=residual <= tol, residual=residual, tol=tol)


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
                "recurrence": float(self.tolerances.recurrence),
                "parity": float(parity.tol) if parity is not None and parity.tol else None,
                "det_condition": float(self.tolerances.det_condition),
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
    s = spectral.spectrum(g, tols.cluster)
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

        mats = spectral.idempotents(g, s)
        lm = spectral.local_multiplicities(mats)
        certificates["vandermonde"] = vandermonde_certificate(
            s, lm, tols.certificate, tols.det_condition
        )
        if certificates["vandermonde"].witness.ill_conditioned:
            warnings.append(
                "vandermonde system ill-conditioned (cond %.3e)"
                % certificates["vandermonde"].witness.condition
            )
        certificates["walk_regular"] = check_walk_regular(g, lm, tols.certificate)

        system = predistance.predistance_polynomials(s)
        max_rec = float(system.recurrence_residuals.max())
        if max_rec > tols.recurrence:
            warnings.append(
                "recurrence reconstruction residual %.3e exceeds %.3e"
                % (max_rec, tols.recurrence)
            )
        certificates["hoffman"] = check_hoffman(g, system, tols.certificate)

        parity_report = predistance.check_parity(system, og, tols.parity)
        certificates["parity"] = Certificate(
            name="parity",
            passed=parity_report.passed,
            residual=None
            if not parity_report.applicable
            else max(parity_report.max_interior_alpha, parity_report.max_offparity_coeff),
            tol=parity_report.tol,
            witness=parity_report,
        )

        dm = distance_matrices(g, dd)
        certificates["distance_polynomial"] = check_distance_polynomial(
            g, system, tols.certificate, dm
        )

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
