"""Eigenstructure of the adjacency matrix.

Clustered spectrum, principal idempotents E_i = U_i U_i^T from one symmetric
eigendecomposition, local multiplicities (idempotent diagonals), closed-walk
counts, and the walk-regularity test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import is_connected


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

    Raw eigenvalues sorted ascending are split by cluster_breaks: a gap above
    cluster_tol starts a new cluster; each cluster reports its mean as the
    distinct value and its size as the multiplicity.  Results are returned in
    descending order, matching the usual lambda_0 > ... > lambda_d indexing.
    """
    A = g.adj.astype(np.float64)
    try:
        raw = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)
    tol, breaks = cluster_breaks(raw, cluster_tol)
    cluster_tol = float(tol)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")

    clusters = np.split(raw, np.flatnonzero(breaks) + 1)[::-1]
    values = np.array([c.mean() for c in clusters])
    mults = np.array([len(c) for c in clusters], dtype=np.int64)

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
        cluster_tol=cluster_tol,
        min_gap=min_gap,
        ambiguous=ambiguous,
        warnings=warns,
    )


def idempotents(g, s):
    """Principal idempotents E_i = U_i U_i^T, eigh's columns split by the multiplicities.

    Any orthonormal basis U_i of an eigenspace gives the same E_i, so eigh's
    choice inside a multiplicity > 1 eigenspace does not matter.  Each raw
    eigenvalue must lie within s.cluster_tol of its cluster's value.
    """
    vals = s.values
    if len(vals) >= 2:
        sep = np.abs(np.diff(vals)).min()
        if sep <= s.cluster_tol:
            raise ValueError(
                "degenerate spectrum: distinct eigenvalues separated by %.3e" % sep
            )
    try:
        raw, U = np.linalg.eigh(g.adj.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)
    # eigh sorts ascending; the clusters run descending
    raw, U = raw[::-1], U[:, ::-1]
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
