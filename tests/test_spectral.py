"""spectral: clustered spectra, idempotents, local multiplicities, walk counts."""

import math

import numpy as np
import pytest

import oddgirth as og
from oddgirth.spectral import cluster_breaks

from conftest import KNOWN_SPECTRA


def test_spectrum_k2():
    s = og.spectrum(og.generate_family("complete", [2]))
    assert np.allclose(s.values, [1, -1])
    assert list(s.mults) == [1, 1]
    assert s.d == 1


def test_spectrum_petersen(petersen):
    s = og.spectrum(petersen)
    assert s.d == 2
    assert np.allclose(s.values, [3, 1, -2], atol=1e-9)
    assert list(s.mults) == [1, 5, 4]
    assert not s.ambiguous


def test_spectrum_c5_circulant_oracle(c5):
    s = og.spectrum(c5)
    want = [2.0, 2 * math.cos(2 * math.pi / 5), 2 * math.cos(4 * math.pi / 5)]
    assert np.allclose(s.values, want, atol=1e-9)
    assert list(s.mults) == [1, 2, 2]


def test_spectrum_family_suite_oracles(family_suite):
    for label, g in family_suite:
        s = og.spectrum(g)
        want = KNOWN_SPECTRA[label]
        assert len(s.values) == len(want), label
        for (got_v, got_m), (v, m) in zip(zip(s.values, s.mults), want):
            assert abs(got_v - v) < 1e-8, label
            assert got_m == m, label


def test_spectrum_moment_invariants(family_suite):
    # sum m_i lambda_i^l = trace(A^l); l = 3 counts each triangle six times
    for label, g in family_suite:
        s = og.spectrum(g)
        A = g.adj
        P = np.eye(g.n, dtype=np.int64)
        lam0 = float(s.values[0])
        for ell in range(4):
            moment = float(np.sum(s.mults * s.values**ell))
            assert abs(moment - np.trace(P)) <= 1e-6 * g.n * max(1.0, lam0) ** ell, label
            P = P @ A


def test_spectrum_disconnected_warns():
    s = og.spectrum(og.graph_from_edges(4, [(0, 1), (2, 3)]))
    assert any("disconnected" in w for w in s.warnings)


def test_spectrum_clustering_and_ambiguity(c5):
    # huge tolerance merges everything into a single cluster
    merged = og.spectrum(c5, cluster_tol=10.0)
    assert merged.d == 0 and merged.mults[0] == 5
    # a tolerance within 10x of the smallest gap trips the ambiguity flag
    s = og.spectrum(c5, cluster_tol=0.2)
    assert s.d == 2 and s.ambiguous
    assert any("ambiguous" in w for w in s.warnings)
    assert not og.spectrum(c5).ambiguous
    with pytest.raises(ValueError):
        og.spectrum(c5, cluster_tol=-1.0)


def test_spectrum_cluster_values_are_means():
    g = og.generate_family("complete", [4])
    s = og.spectrum(g)
    raw = np.linalg.eigvalsh(g.adj.astype(float))
    assert abs(s.values[1] - raw[:3].mean()) < 1e-12


def test_idempotents_k2():
    g = og.generate_family("complete", [2])
    mats = og.idempotents(g, og.spectrum(g))
    assert np.allclose(mats[0], 0.5 * np.ones((2, 2)))
    assert np.allclose(mats[1], 0.5 * np.array([[1, -1], [-1, 1]]))


def test_idempotents_petersen_e0(petersen):
    mats = og.idempotents(petersen, og.spectrum(petersen))
    assert np.abs(mats[0] - 0.1).max() < 1e-8


def test_idempotents_trace_is_multiplicity(c5):
    s = og.spectrum(c5)
    mats = og.idempotents(c5, s)
    for E, m in zip(mats, s.mults):
        assert abs(np.trace(E) - m) < 1e-8


def test_idempotent_algebra_residuals(family_suite):
    for label, g in family_suite:
        s = og.spectrum(g)
        mats = og.idempotents(g, s)
        res = og.idempotent_residuals(g, s, mats)
        for key, value in res.items():
            assert value <= 1e-6, (label, key, value)


def test_idempotents_reject_degenerate_spectrum(c5):
    s = og.spectrum(c5)
    s.values = np.array([2.0, 2.0 + 1e-12, -1.0])
    with pytest.raises(ValueError, match="degenerate"):
        og.idempotents(c5, s)


def test_idempotents_reject_eigenvalue_off_cluster(c5):
    # a cluster value moved by 1e-3 is still well separated, but the raw
    # eigenvalues no longer lie within the clustering tolerance of it
    s = og.spectrum(c5)
    s.values = s.values + np.array([0.0, 1e-3, 0.0])
    with pytest.raises(og.NumericalError, match="cluster"):
        og.idempotents(c5, s)


def test_cluster_breaks_batched_matches_spectrum():
    # one call on a stack of ascending eigenvalue rows gives every graph the
    # distinct-value count and tolerance the clustering finds for its row
    # alone, and the count spectrum() finds
    graphs = list(og.enumerate_connected(5))
    raw = np.linalg.eigvalsh(np.stack([g.adj.astype(float) for g in graphs]))
    tol, breaks = cluster_breaks(raw)
    for g, t, row, values in zip(graphs, tol, breaks, raw):
        s = og.cluster_spectrum(values)
        assert row.sum() == s.d == og.spectrum(g).d
        assert t == s.cluster_tol


def test_met_path_spectrum_matches_eigvalsh(family_suite):
    # the met path reads its spectrum off the Jacobi matrix of the exact
    # recurrence, with no eigenvectors of A; eigvalsh's clustering, the
    # rejection path's, must give the same d and multiplicities, and values
    # within 1e-9
    graphs = [g for _, g in family_suite]
    graphs += [og.generate_family("cycle", [k]) for k in (31, 41, 61, 101)]
    for g in graphs:
        report = og.verify_theorem(g)
        if not report.hypothesis_met:
            assert g.n == 2  # K_2, bipartite
            continue
        s = report.spectrum
        assert not s.ambiguous, g.n
        ref = og.cluster_spectrum(np.linalg.eigvalsh(g.adj.astype(float)))
        assert s.d == ref.d and list(s.mults) == list(ref.mults), g.n
        assert np.abs(s.values - ref.values).max() <= 1e-9, g.n


def test_local_multiplicities_k2():
    g = og.generate_family("complete", [2])
    lm = og.local_multiplicities(og.idempotents(g, og.spectrum(g)))
    assert np.allclose(lm, 0.5)


def test_local_multiplicities_petersen(petersen):
    lm = og.local_multiplicities(og.idempotents(petersen, og.spectrum(petersen)))
    assert np.abs(lm - np.array([0.1, 0.5, 0.4])).max() < 1e-8


def test_local_multiplicities_p3_center(p3):
    # the 0-eigenvector of the 3-path is (1, 0, -1)/sqrt(2): it vanishes at
    # the center, so the center's local multiplicity of 0 is zero
    s = og.spectrum(p3)
    lm = og.local_multiplicities(og.idempotents(p3, s))
    assert abs(s.values[1]) < 1e-12
    assert abs(lm[1, 1]) < 1e-12
    assert abs(lm[0, 1] - 0.5) < 1e-12


def test_local_multiplicity_invariants(family_suite):
    for label, g in family_suite:
        s = og.spectrum(g)
        lm = og.local_multiplicities(og.idempotents(g, s))
        assert lm.min() > -1e-8, label
        assert np.abs(lm.sum(axis=1) - 1).max() < 1e-8, label
        assert np.abs(lm.sum(axis=0) - s.mults).max() < 1e-6, label


def test_closed_walk_count_basics(petersen):
    g = og.generate_family("complete", [2])
    s = og.spectrum(g)
    lm = og.local_multiplicities(og.idempotents(g, s))
    assert abs(og.closed_walk_count(lm, s, 0, 0) - 1) < 1e-12
    assert abs(og.closed_walk_count(lm, s, 0, 2) - 1) < 1e-12

    s = og.spectrum(petersen)
    lm = og.local_multiplicities(og.idempotents(petersen, s))
    assert abs(og.closed_walk_count(lm, s, 3, 2) - 3) < 1e-9
    with pytest.raises(ValueError):
        og.closed_walk_count(lm, s, 0, -1)


def test_closed_walk_counts_match_matrix_powers(family_suite):
    for label, g in family_suite:
        s = og.spectrum(g)
        lm = og.local_multiplicities(og.idempotents(g, s))
        lam0 = float(s.values[0])
        P = np.eye(g.n, dtype=np.int64)
        for ell in range(2 * s.d + 2):
            diag = np.diag(P)
            for u in range(g.n):
                got = og.closed_walk_count(lm, s, u, ell)
                assert abs(got - diag[u]) <= 1e-6 * lam0**ell, (label, u, ell)
            P = P @ g.adj


def test_walk_regularity(petersen, p3):
    lm = og.local_multiplicities(og.idempotents(petersen, og.spectrum(petersen)))
    assert og.is_walk_regular(lm)
    lm3 = og.local_multiplicities(og.idempotents(p3, og.spectrum(p3)))
    assert not og.is_walk_regular(lm3)
    assert og.walk_regular_spread(lm3) > 0.4
    g = og.generate_family("complete", [2])
    lm2 = og.local_multiplicities(og.idempotents(g, og.spectrum(g)))
    assert og.is_walk_regular(lm2)
