"""Eigenstructure of the adjacency matrix.

Clustered spectrum, principal idempotents by Lagrange interpolation,
local multiplicities (idempotent diagonals), closed-walk counts, and the
walk-regularity test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import is_connected


class NumericalError(RuntimeError):
    """Eigensolver failure or other numerical breakdown."""


def default_cluster_tol(n, lam_max):
    """Default eigenvalue clustering tolerance: 1e-8 * n * max(1, lam_max)."""
    return 1e-8 * n * max(1.0, float(lam_max))


@dataclass
class Spectrum:
    """Distinct eigenvalues (strictly descending) with multiplicities.

    The distinct-value count drives everything downstream, so the clustering
    step records the tolerance it used, the smallest inter-cluster gap, and
    an ambiguity flag when that gap comes within a factor 10 of the tolerance.
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


def spectrum(g, cluster_tol=None):
    """Eigenvalues of the adjacency matrix, greedily clustered into distinct values.

    Raw eigenvalues sorted ascending are merged whenever a consecutive gap is
    at most cluster_tol; each cluster reports its mean as the distinct value
    and its size as the multiplicity.  Results are returned in descending
    order, matching the usual lambda_0 > ... > lambda_d indexing.
    """
    A = g.adj.astype(np.float64)
    try:
        raw = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)
    lam_max = float(np.abs(raw).max()) if g.n else 0.0
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(g.n, lam_max)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")

    # cluster boundaries sit at gaps exceeding the tolerance
    values, mults = [], []
    start = 0
    for i in range(1, g.n + 1):
        if i == g.n or raw[i] - raw[i - 1] > cluster_tol:
            values.append(float(raw[start:i].mean()))
            mults.append(i - start)
            start = i
    values = np.array(values[::-1])
    mults = np.array(mults[::-1], dtype=np.int64)

    gaps = -np.diff(values)
    min_gap = float(gaps.min()) if len(gaps) else math.inf
    ambiguous = bool(min_gap < 10.0 * cluster_tol)

    warns = []
    if not is_connected(g):
        warns.append("graph is disconnected; the pipeline assumes connectivity")
    if ambiguous:
        warns.append(
            "eigenvalue clustering ambiguous: smallest inter-cluster gap %.3e "
            "is within 10x of tolerance %.3e" % (min_gap, cluster_tol)
        )
    return Spectrum(
        values=values,
        mults=mults,
        n=g.n,
        cluster_tol=float(cluster_tol),
        min_gap=min_gap,
        ambiguous=ambiguous,
        warnings=warns,
    )


def idempotents(g, s):
    """Principal idempotents E_0..E_d via Lagrange interpolation in A.

    E_i = prod_{j != i} (A - lambda_j I) / (lambda_i - lambda_j); this avoids
    eigenvector sign/rotation ambiguity inside multiplicity > 1 eigenspaces.
    """
    vals = s.values
    if len(vals) >= 2:
        sep = np.abs(np.diff(vals)).min()
        if sep <= s.cluster_tol:
            raise ValueError(
                "degenerate spectrum: distinct eigenvalues separated by %.3e" % sep
            )
    A = g.adj.astype(np.float64)
    eye = np.eye(g.n)
    mats = []
    for i, lam in enumerate(vals):
        E = eye
        for j, mu in enumerate(vals):
            if j != i:
                E = E @ (A - mu * eye) / (lam - mu)
        mats.append((E + E.T) / 2.0)
    return mats


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
