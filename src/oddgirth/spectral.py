"""Eigenstructure of the adjacency matrix.

A graph that meets the theorem's hypothesis gets its spectrum with no n x n
eigensolve: jacobi_spectrum reads the distinct eigenvalues and their
multiplicities off the (d+1) x (d+1) Jacobi matrix of the exact walk-count
recurrence (predistance.walk_recurrence).  Every other graph gets
eigvalsh, clustered into distinct values (spectrum).

The float oracles of that exact path stay here: spectrum itself on a met
graph, principal idempotents E_i = U_i U_i^T (one eigh), local
multiplicities (idempotent diagonals), closed-walk counts predicted from
them, and the walk-regularity test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import distance_data


class NumericalError(RuntimeError):
    """Eigensolver failure or other numerical breakdown."""


def cluster_breaks(raw, tol=None):
    """(tol, breaks) for rows of n ascending eigenvalues: a gap above tol starts a cluster.

    breaks[..., j] is whether raw[..., j + 1] starts a new distinct value; tol
    defaults, per row, to 1e-8 * n * max(1, |lambda|max).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if tol is None:
        tol = 1e-8 * raw.shape[-1] * np.maximum(1.0, np.abs(raw).max(axis=-1, initial=0.0))
    tol = np.asarray(tol, dtype=np.float64)
    return tol, np.diff(raw, axis=-1) > tol[..., None]


@dataclass
class Spectrum:
    """Distinct eigenvalues (strictly descending) with multiplicities.

    The distinct-value count drives everything downstream, so the clustering
    step records the tolerance it used, the smallest inter-cluster gap, and
    an ambiguity flag when that gap comes within a factor 10 of the tolerance.
    A spectrum read off the Jacobi matrix (jacobi_spectrum) clustered
    nothing: d is exact, ambiguous is False, and cluster_tol is the tolerance
    a clustering of its n eigenvalues would have used.
    """

    values: np.ndarray
    mults: np.ndarray
    n: int
    cluster_tol: float
    min_gap: float
    ambiguous: bool
    warnings: list = field(default_factory=list)

    @property
    def d(self):
        return len(self.values) - 1


def cluster_spectrum(raw, cluster_tol=None):
    """Spectrum of n ascending eigenvalues, greedily clustered into distinct values.

    cluster_breaks splits raw: a gap above cluster_tol starts a new cluster;
    each cluster reports its mean as the distinct value and its size as the
    multiplicity.  Results are returned in descending order, matching the
    usual lambda_0 > ... > lambda_d indexing.  No warnings are attached.
    """
    tol, breaks = cluster_breaks(raw, cluster_tol)
    cluster_tol = float(tol)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")

    raw = np.asarray(raw, dtype=np.float64)
    starts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
    mults = np.diff(np.append(starts, len(raw)))[::-1]
    values = np.add.reduceat(raw, starts)[::-1] / mults

    gaps = -np.diff(values)
    min_gap = float(gaps.min()) if len(gaps) else math.inf
    return Spectrum(
        values=values,
        mults=mults,
        n=len(raw),
        cluster_tol=cluster_tol,
        min_gap=min_gap,
        ambiguous=bool(min_gap < 10.0 * cluster_tol),
    )


def meets_prefilter(dd):
    """The distance layer's exact prefilter: connected, finite odd girth >= 2D+1.

    A connected graph of diameter D has at least D+1 distinct eigenvalues,
    so d >= D and every graph that meets the hypothesis meets the prefilter.
    """
    og = dd.odd_girth
    return bool(dd.connected and og != math.inf and og >= 2 * dd.diameter + 1)


def _eigensolve(solver, g):
    try:
        return solver(g.adj.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)


def spectrum(g, cluster_tol=None, dd=None):
    """eigvalsh's eigenvalues of the adjacency matrix, clustered (cluster_spectrum), with warnings.

    dd is g's DistanceData, computed when not given; a disconnected graph,
    and an ambiguous clustering, add a warning.  verify_theorem calls it on
    every graph that does not meet the hypothesis; on a met graph it is the
    float oracle of jacobi_spectrum.
    """
    if dd is None:
        dd = distance_data(g)
    s = cluster_spectrum(_eigensolve(np.linalg.eigvalsh, g), cluster_tol)
    if not dd.connected:
        s.warnings.append("graph is disconnected; the pipeline assumes connectivity")
    if s.ambiguous:
        s.warnings.append(
            "eigenvalue clustering ambiguous: smallest inter-cluster gap %.3e "
            "is within 10x of tolerance %.3e" % (s.min_gap, s.cluster_tol)
        )
    return s


def jacobi_spectrum(a, b, n, cluster_tol=None):
    """Spectrum of the measure whose monic orthogonal polynomials have recurrence (a, b).

    pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1} for k = 0..d, with b_1..b_d > 0
    and pi_{d+1} the minimal polynomial: the measure is
    (1/n) sum_i m_i delta_{lambda_i}.  Its d+1 points are the eigenvalues of
    the Jacobi matrix with diagonal a_0..a_d and off-diagonal
    sqrt(b_1)..sqrt(b_d), and its weights m_i / n the squared first components
    of the eigenvectors (Golub and Welsch, Math. Comp. 23, 1969).  Raises
    NumericalError unless n times each weight lies within 1e-6 n of a
    positive integer and those integers sum to n.  cluster_tol, when given,
    is reported as the spectrum's tolerance; nothing is clustered.
    """
    off = np.sqrt(np.asarray(b, dtype=np.float64))
    jacobi = np.diag(np.asarray(a, dtype=np.float64)) + np.diag(off, 1) + np.diag(off, -1)
    try:
        values, U = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Jacobi eigensolver failed: %s" % exc)
    weights = n * np.square(U[0, ::-1])
    mults = np.rint(weights).astype(np.int64)
    drift = float(np.abs(weights - mults).max())
    if mults.min() < 1 or mults.sum() != n or drift > 1e-6 * n:
        raise NumericalError(
            "Jacobi multiplicities %s do not round to positive integers summing to n = %d"
            % (np.array2string(weights, precision=6), n)
        )
    values = values[::-1]
    gaps = -np.diff(values)
    min_gap = float(gaps.min()) if len(gaps) else math.inf
    if cluster_tol is None:  # what cluster_breaks uses for n eigenvalues
        cluster_tol = 1e-8 * n * max(1.0, float(np.abs(values).max()))
    return Spectrum(values=values, mults=mults, n=n, cluster_tol=float(cluster_tol),
                    min_gap=min_gap, ambiguous=False)


def idempotents(g, s):
    """Principal idempotents E_i = U_i U_i^T, eigh's columns split by the multiplicities.

    Any orthonormal basis U_i of an eigenspace gives the same E_i, so eigh's
    choice inside a multiplicity > 1 eigenspace does not matter.  Raises
    ValueError when two of s's distinct values lie within s.cluster_tol, and
    NumericalError when a raw eigenvalue lies more than s.cluster_tol from
    its cluster's value.
    """
    vals = s.values
    if len(vals) >= 2:
        sep = np.abs(np.diff(vals)).min()
        if sep <= s.cluster_tol:
            raise ValueError(
                "degenerate spectrum: distinct eigenvalues separated by %.3e" % sep
            )
    raw, U = _eigensolve(np.linalg.eigh, g)
    raw, U = raw[::-1], U[:, ::-1]  # the clusters' descending order
    off = np.abs(raw - np.repeat(vals, s.mults))
    worst = int(np.argmax(off))
    if off[worst] > s.cluster_tol:
        raise NumericalError(
            "eigenvalue %.12g lies %.3e from its cluster value, beyond tolerance %.3e"
            % (raw[worst], off[worst], s.cluster_tol)
        )
    return [Ui @ Ui.T for Ui in np.split(U, np.cumsum(s.mults)[:-1], axis=1)]


def idempotent_residuals(g, s, mats):
    """Max-norm residuals of the idempotent algebra; all should be ~1e-6 or below."""
    A = g.adj.astype(np.float64)
    eye = np.eye(g.n)
    total = sum(mats)
    recon = sum(lam * E for lam, E in zip(s.values, mats))
    ortho = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ortho = max(ortho, float(np.abs(mats[i] @ mats[j]).max()))
    return {
        "sum_to_identity": float(np.abs(total - eye).max()),
        "idempotency": max(float(np.abs(E @ E - E).max()) for E in mats),
        "orthogonality": ortho,
        "eigen_relation": max(
            float(np.abs(A @ E - lam * E).max()) for lam, E in zip(s.values, mats)
        ),
        "reconstruction": float(np.abs(recon - A).max()),
    }


def local_multiplicities(mats):
    """n x (d+1) matrix of idempotent diagonals; row u holds m_u(lambda_i)."""
    return np.column_stack([np.diag(E) for E in mats])


def closed_walk_count(lm, s, u, ell):
    """Number of closed ell-walks at u predicted by the local multiplicities.

    Equals sum_i m_u(lambda_i) * lambda_i**ell, which must match (A**ell)_uu.
    """
    if ell < 0:
        raise ValueError("walk length must be nonnegative")
    return float(np.dot(lm[u], s.values ** ell))


def walk_regular_spread(lm):
    """Largest per-eigenvalue spread of local multiplicities across vertices."""
    return float((lm.max(axis=0) - lm.min(axis=0)).max())


def is_walk_regular(lm, tol=1e-6):
    """Constant idempotent diagonals (within tol) characterize walk-regularity."""
    return walk_regular_spread(lm) <= tol
