"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Criterion 1 sweeps every labeled connected graph on <= 7 vertices and pins
the hypothesis-met set exactly; 4 and 5 restrict the same sweep to regular
and bipartite graphs; the rest exercise the family suite and the negative
controls at fixed tolerances.
"""

import itertools
import math
import time

import numpy as np
import pytest

import oddgirth as og
from oddgirth import cli, scan
from oddgirth.graphs import adjacency_batch, mask_blocks, mask_distances
from oddgirth.predistance import poly_eval_matrix
from oddgirth.verify import (
    check_distance_polynomial,
    check_eigenvalue_symmetry,
    NotDistanceRegular,
)

from conftest import ACCEPTANCE_LINES, KNOWN_ARRAYS, screen_regular_range


def _record(num, ok, text):
    line = "criterion %d: %s -- %s" % (num, "PASS" if ok else "FAIL", text)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _labeled_cycles(n):
    """graph6 strings of every labeled n-cycle ((n-1)!/2 of them)."""
    out = set()
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
        out.add(og.encode_graph6(og.graph_from_edges(n, edges)).decode())
    return out


@pytest.fixture(scope="module")
def sweep():
    t0 = time.monotonic()
    summary = scan.scan_enumerated(7)
    summary.elapsed = time.monotonic() - t0
    return summary


def test_criterion_1_exhaustive_sweep(sweep):
    bad = []
    if sweep.masks_total != 2131019:
        bad.append("masks_total %d != 2131019" % sweep.masks_total)
    if sweep.examined != 1866256 + 26704 + 728 + 38 + 4 + 1 + 1:
        bad.append("examined %d" % sweep.examined)
    if sweep.alarms != 0:
        bad.append("%d alarms" % sweep.alarms)

    expected = {
        og.encode_graph6(og.generate_family("complete", [k])).decode()
        for k in range(3, 8)
    }
    expected |= _labeled_cycles(5) | _labeled_cycles(7)
    got = {h.graph6 for h in sweep.hits}
    if got != expected:
        bad.append(
            "hypothesis-met set: %d graphs, expected %d (missing %d, extra %d)"
            % (len(got), len(expected), len(expected - got), len(got - expected))
        )
    if sweep.certified != len(sweep.hits):
        bad.append("only %d/%d certified" % (sweep.certified, len(sweep.hits)))
    if not all(h.report.conclusion.generalized_odd_graph for h in sweep.hits):
        bad.append("a hit is not concluded to be a generalized odd graph")
    if sweep.elapsed > 600:
        bad.append("sweep took %.0fs > 600s" % sweep.elapsed)
    _record(
        1,
        not bad,
        "full sweep n<=7: %d examined, %d hypothesis-met "
        "(K_3..K_7 + all labeled C_5, C_7), 0 alarms, %.1fs"
        % (sweep.examined, len(sweep.hits), sweep.elapsed)
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_criterion_2_family_suite(family_suite):
    bad = []
    for label, g in family_suite:
        arr = og.intersection_array(g)
        want = KNOWN_ARRAYS[label]
        if not isinstance(arr, og.IntersectionArray) or arr.b != want["b"] or arr.c != want["c"]:
            bad.append("%s: intersection array mismatch" % label)
        system = og.predistance_polynomials(og.spectrum(g))
        sp_ex, av_ex = og.excess_comparison(g, system)
        if abs(sp_ex - av_ex) > 1e-6:
            bad.append("%s: |spectral - average| excess = %g" % (label, abs(sp_ex - av_ex)))
        report = og.verify_theorem(g, input_label=label)
        if label == "complete_2":
            # bipartite, so the odd-girth hypothesis cannot be met; the
            # structural checks above still had to agree
            if report.hypothesis_met:
                bad.append("complete_2 unexpectedly hypothesis-met")
            continue
        if not report.hypothesis_met:
            bad.append("%s: hypotheses not met" % label)
            continue
        for name, cert in report.certificates.items():
            if cert.passed is not True:
                bad.append("%s: certificate %s did not pass" % (label, name))
        if not report.conclusion.distance_regular:
            bad.append("%s: not concluded distance-regular" % label)
    _record(
        2,
        not bad,
        "family suite (%d graphs): certificates pass, arrays match the oracle, "
        "excess gap <= 1e-6 (K_2 exempt from certificates: bipartite)"
        % len(family_suite)
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_criterion_3_petersen_numerics(petersen):
    bad = []
    s = og.spectrum(petersen)
    if s.d != 2 or list(s.mults) != [1, 5, 4]:
        bad.append("multiplicities %s" % list(s.mults))
    system = og.predistance_polynomials(s)
    if np.abs(system.polys[2] - np.array([-3.0, 0.0, 1.0])).max() > 1e-8:
        bad.append("p_2 coefficients %s" % system.polys[2])
    trio = (system.beta[0], system.beta[1], system.alpha[2])
    if np.abs(np.array(trio) - np.array([3.0, 2.0, 2.0])).max() > 1e-8:
        bad.append("(beta_0, beta_1, alpha_2) = %s" % (trio,))
    lm = og.local_multiplicities(og.idempotents(petersen, s))
    det = og.vandermonde_certificate(s, lm).witness.det_value
    if abs(det - (-6.0)) > 1e-9:
        bad.append("determinant %r" % det)
    _record(
        3,
        not bad,
        "Petersen numerics: multiplicities (1,5,4), p_2 = x^2 - 3 (1e-8), "
        "recurrence (3,2,2) (1e-8), determinant -6 (1e-9)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_criterion_4_distance_polynomial_biconditional():
    # over every regular connected graph on <= 7 vertices, p_d(A) = A_d
    # must agree exactly with the definitional intersection-array verdict
    bad = []
    checked = 0
    for n in range(1, 8):
        total = 1 << (n * (n - 1) // 2)
        for mask in screen_regular_range(n, 0, total):
            g = og.graph_from_mask(n, mask)
            system = og.predistance_polynomials(og.spectrum(g))
            cert = check_distance_polynomial(g, system)
            drg = isinstance(og.intersection_array(g), og.IntersectionArray)
            if bool(cert.passed) != drg:
                bad.append("n=%d mask=%d: certificate %s vs brute force %s"
                           % (n, mask, cert.passed, drg))
            checked += 1
    if checked != 992:
        bad.append("checked %d regular graphs, expected 992" % checked)
    _record(
        4,
        not bad,
        "distance-polynomial test agrees with brute-force distance-regularity "
        "on all %d regular connected graphs, n <= 7" % checked
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_criterion_5_eigenvalue_symmetry_dichotomy(sweep):
    bad = []
    for h in sweep.hits:
        cert = h.report.certificates.get("eigenvalue_symmetry")
        if cert is None or cert.passed is not True:
            bad.append("hypothesis-met %s fails the symmetry check" % h.graph6)
    # every connected bipartite graph must fail it, with a +/- pair witness
    # (the single-vertex graph carries a zero witness instead: no pairs exist)
    counts = {}
    for n in range(1, 8):
        total = 1 << (n * (n - 1) // 2)
        found = 0
        for lo, connected, free, flagged in mask_blocks(n, 0, total):
            keep = connected & free
            masks = lo + np.flatnonzero(keep)
            _, girth = mask_distances(n, masks)
            bipartite = np.isinf(girth)
            # the table test the screen uses agrees with the distance layer
            for mask in masks[flagged[keep] != bipartite]:
                bad.append("n=%d mask=%d: mask_blocks' bipartite flag disagrees with odd girth"
                           % (n, mask))
            # the batch's eigenvalues at once, each row clustered as spectrum() does
            raw = np.linalg.eigvalsh(adjacency_batch(n, masks[bipartite]))
            for mask, values in zip(masks[bipartite], raw):
                found += 1
                cert = check_eigenvalue_symmetry(og.cluster_spectrum(values))
                if cert.passed is not False:
                    bad.append("bipartite n=%d mask=%d passed" % (n, mask))
                elif n > 1 and cert.witness["pair"] is None:
                    bad.append("bipartite n=%d mask=%d lacks a pair witness" % (n, mask))
                elif n == 1 and cert.witness["zero"] is None:
                    bad.append("single vertex lacks a zero witness")
        counts[n] = found
    if counts != {1: 1, 2: 1, 3: 3, 4: 19, 5: 195, 6: 3031, 7: 67263}:
        bad.append("bipartite connected counts %s" % counts)
    _record(
        5,
        not bad,
        "all %d hypothesis-met graphs pass the eigenvalue-symmetry check; "
        "all %d connected bipartite graphs on <= 7 vertices fail it with a witness"
        % (len(sweep.hits), sum(counts.values()))
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_criterion_6_closed_walk_identity(family_suite):
    bad = []
    for label, g in family_suite:
        s = og.spectrum(g)
        lm = og.local_multiplicities(og.idempotents(g, s))
        lam0 = float(s.values[0])
        P = np.eye(g.n, dtype=np.int64)
        for ell in range(2 * s.d + 2):
            predicted = lm @ (s.values**ell)
            gap = np.abs(predicted - np.diag(P)).max()
            if gap > 1e-6 * lam0**ell:
                bad.append("%s ell=%d gap %g" % (label, ell, gap))
            P = P @ g.adj
    _record(
        6,
        not bad,
        "walk-count identity sum_i m_u(lambda_i) lambda_i^ell = (A^ell)_uu holds "
        "for the suite, all vertices, ell <= 2d+1 (tol 1e-6 * lambda_0^ell)"
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_criterion_7_idempotent_and_hoffman_residuals(family_suite):
    bad = []
    for label, g in family_suite:
        if not g.is_regular():
            bad.append("%s unexpectedly irregular" % label)
            continue
        s = og.spectrum(g)
        mats = og.idempotents(g, s)
        for key, value in og.idempotent_residuals(g, s, mats).items():
            if value > 1e-6:
                bad.append("%s: %s residual %g" % (label, key, value))
        system = og.predistance_polynomials(s)
        H = og.hoffman_polynomial(system)
        residual = np.abs(poly_eval_matrix(H, g.adj.astype(float)) - 1.0).max()
        if residual > 1e-6:
            bad.append("%s: Hoffman residual %g" % (label, residual))
    _record(
        7,
        not bad,
        "idempotent algebra residuals and Hoffman H(A) = J residual <= 1e-6 "
        "on all regular suite graphs"
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_criterion_8_negative_controls(prism, p3, tmp_path, capsys):
    bad = []
    res = og.intersection_array(prism)
    if not isinstance(res, NotDistanceRegular):
        bad.append("prism not flagged")
    else:
        u, v = res.pair
        dd = og.distance_data(prism)
        if dd.dist[u, v] != res.i or res.found == res.expected:
            bad.append("prism witness inconsistent")
    system = og.predistance_polynomials(og.spectrum(prism))
    if check_distance_polynomial(prism, system).passed is not False:
        bad.append("prism distance-polynomial check did not fail")
    sp_ex, av_ex = og.excess_comparison(prism, system)
    if not (av_ex == 0 and sp_ex > 1e-6):
        bad.append("prism excess (%g, %g)" % (sp_ex, av_ex))

    report = og.verify_theorem(p3)
    if report.hypothesis_met or report.to_dict()["odd_girth"] != "inf":
        bad.append("3-path not rejected as bipartite")

    mangled = tmp_path / "bad.g6"
    mangled.write_text("Bw~\x01\n")
    if cli.main(["analyze", str(mangled)]) != 1:
        bad.append("malformed graph6 did not exit 1")
    capsys.readouterr()

    _record(
        8,
        not bad,
        "negative controls: prism refuted with a checkable witness (excess %g vs %g), "
        "bipartite path rejected, malformed graph6 exits 1" % (sp_ex, av_ex)
        + ("; " + "; ".join(bad) if bad else ""),
    )
