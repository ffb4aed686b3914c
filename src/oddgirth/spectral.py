"""Eigenstructure of the adjacency matrix.

Clustered spectrum, principal idempotents E_i = U_i U_i^T from one symmetric
eigendecomposition, local multiplicities (idempotent diagonals), closed-walk
counts, and the walk-regularity test.  A graph that may meet the theorem's
hypothesis gets its local multiplicities from the same eigendecomposition as
its spectrum, with no E_i formed.
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
    local_mults is the n x (d+1) matrix of local multiplicities m_u(lambda_i)
    when spectrum() solved for eigenvectors too, None otherwise.
    """

    values: np.ndarray
    mults: np.ndarray
    n: int
    cluster_tol: float
    min_gap: float
    ambiguous: bool
    warnings: list = field(default_factory=list)
    local_mults: np.ndarray = None

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


def spectrum(g, cluster_tol=None, dd=None):
    """Clustered eigenvalues of the adjacency matrix (cluster_spectrum), with warnings.

    dd is g's DistanceData, computed when not given.  A graph that meets the
    distance layer's exact prefilter (connected, finite odd girth >= 2D+1 for
    diameter D) gets one eigh, and its local multiplicities are the row sums
    of U_i^2 over each eigenvalue block, under the guards of idempotents.
    Every hypothesis-met graph meets the prefilter, since d >= D; every other
    graph gets eigvalsh alone, so rejecting it costs no eigenvectors.
    """
    if dd is None:
        dd = distance_data(g)
    og = dd.odd_girth
    prefilter = dd.connected and og != math.inf and og >= 2 * dd.diameter + 1
    A = g.adj.astype(np.float64)
    try:
        raw, U = np.linalg.eigh(A) if prefilter else (np.linalg.eigvalsh(A), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)
    s = cluster_spectrum(raw, cluster_tol)

    if not dd.connected:
        s.warnings.append("graph is disconnected; the pipeline assumes connectivity")
    if s.ambiguous:
        s.warnings.append(
            "eigenvalue clustering ambiguous: smallest inter-cluster gap %.3e "
            "is within 10x of tolerance %.3e" % (s.min_gap, s.cluster_tol)
        )
    if U is not None:
        U = np.square(_eigenspace_columns(s, raw, U))
        starts = np.concatenate(([0], np.cumsum(s.mults)[:-1]))
        s.local_mults = np.add.reduceat(U, starts, axis=1)
    return s


def _eigenspace_columns(s, raw, U):
    """eigh's ascending (raw, U) as eigenvector columns in the clusters' descending order.

    Raises ValueError when two of s's distinct values lie within
    s.cluster_tol, and NumericalError when a raw eigenvalue lies more than
    s.cluster_tol from its cluster's value.
    """
    vals = s.values
    if len(vals) >= 2:
        sep = np.abs(np.diff(vals)).min()
        if sep <= s.cluster_tol:
            raise ValueError(
                "degenerate spectrum: distinct eigenvalues separated by %.3e" % sep
            )
    raw, U = raw[::-1], U[:, ::-1]
    off = np.abs(raw - np.repeat(vals, s.mults))
    worst = int(np.argmax(off))
    if off[worst] > s.cluster_tol:
        raise NumericalError(
            "eigenvalue %.12g lies %.3e from its cluster value, beyond tolerance %.3e"
            % (raw[worst], off[worst], s.cluster_tol)
        )
    return U


def idempotents(g, s):
    """Principal idempotents E_i = U_i U_i^T, eigh's columns split by the multiplicities.

    Any orthonormal basis U_i of an eigenspace gives the same E_i, so eigh's
    choice inside a multiplicity > 1 eigenspace does not matter.  Each raw
    eigenvalue must lie within s.cluster_tol of its cluster's value.
    """
    try:
        raw, U = np.linalg.eigh(g.adj.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed: %s" % exc)
    U = _eigenspace_columns(s, raw, U)
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
