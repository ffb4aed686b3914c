"""verify: distance matrices, intersection arrays, certificates, full reports."""

import copy
import json
import math

import numpy as np
import pytest

import oddgirth as og
from oddgirth import verify
from oddgirth.verify import (
    Certificate,
    Conclusion,
    NotDistanceRegular,
    TheoremReport,
    VandermondeCertificate,
    check_distance_polynomial,
    check_eigenvalue_symmetry,
    distance_matrices,
    vandermonde_certificate,
)


def _pipeline(g):
    s = og.spectrum(g)
    mats = og.idempotents(g, s)
    lm = og.local_multiplicities(mats)
    sys = og.predistance_polynomials(s)
    return s, lm, sys


def test_distance_matrices_identities(petersen, c5):
    A = petersen.adj.astype(float)
    dm = distance_matrices(petersen)
    assert np.array_equal(dm[0], np.eye(10))
    assert np.array_equal(dm[1], A)
    assert np.abs(dm[2] - (A @ A - 3 * np.eye(10))).max() < 1e-12

    A5 = c5.adj.astype(float)
    dm5 = distance_matrices(c5)
    assert np.abs(dm5[2] - (A5 @ A5 - 2 * np.eye(5))).max() < 1e-12
    # partition: the distance matrices sum to the all-ones matrix
    assert np.abs(sum(dm5) - 1.0).max() < 1e-12


def test_distance_matrices_reject_disconnected():
    g = og.graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(og.GraphError):
        distance_matrices(g)


def test_distance_matrices_self_check(c5, monkeypatch):
    # an inconsistent DistanceData: the distance-2 pairs of C_5 moved to 3,
    # past the stated diameter, so A_0 + A_1 + A_2 misses them
    dd = og.distance_data(c5)
    bad = og.DistanceData(
        dist=np.where(dd.dist == 2, 3, dd.dist), diameter=2, connected=True, odd_girth=5,
        level_counts=dd.level_counts,
    )
    with pytest.raises(RuntimeError, match="all-ones"):
        distance_matrices(c5, bad)
    # verify_theorem runs the same partition check on its one DistanceData
    monkeypatch.setattr(verify, "distance_data", lambda g: bad)
    with pytest.raises(RuntimeError, match="all-ones"):
        og.verify_theorem(c5)


def test_intersection_array_c5(c5):
    arr = og.intersection_array(c5)
    assert isinstance(arr, og.IntersectionArray)
    assert arr.b == [2, 1] and arr.c == [1, 1] and arr.a == [0, 0, 1]


def test_intersection_array_petersen(petersen):
    arr = og.intersection_array(petersen)
    assert arr.b == [3, 2] and arr.c == [1, 1] and arr.a == [0, 0, 2]
    d = arr.to_dict()
    assert d == {"b": [3, 2], "c": [1, 1], "a": [0, 0, 2]}


def test_intersection_array_suite(family_suite):
    from conftest import KNOWN_ARRAYS

    for label, g in family_suite:
        want = KNOWN_ARRAYS[label]
        arr = og.intersection_array(g)
        assert isinstance(arr, og.IntersectionArray), label
        assert arr.b == want["b"] and arr.c == want["c"], label
        # a_i + b_i + c_i = k, with b_D = c_0 = 0
        k = arr.b[0]
        b = arr.b + [0]
        c = [0] + arr.c
        for i in range(arr.D + 1):
            assert arr.a[i] + b[i] + c[i] == k, label
        # classical monotonicity constraints
        assert all(x >= y for x, y in zip(arr.b, arr.b[1:])), label
        assert all(x <= y for x, y in zip(arr.c, arr.c[1:])), label


def test_intersection_array_prism_witness(prism):
    res = og.intersection_array(prism)
    assert isinstance(res, NotDistanceRegular)
    # the witness must be checkable: recount the walls of the reported pair
    u, v = res.pair
    dd = og.distance_data(prism)
    assert dd.dist[u, v] == res.i
    shift = {"c": -1, "a": 0, "b": 1}[res.kind]
    count = sum(
        1 for w in range(prism.n) if prism.adj[v, w] and dd.dist[u, w] == res.i + shift
    )
    assert count == res.found != res.expected


def test_intersection_array_path_witness():
    p4 = og.generate_family("path", [4])
    res = og.intersection_array(p4)
    assert isinstance(res, NotDistanceRegular)


def intersection_array_by_loops(g):
    """Reference: count every wall of every pair one neighbour at a time."""
    dd = og.distance_data(g)
    dist, n, D = dd.dist, g.n, dd.diameter
    walls = {"c": [0] * (D + 1), "a": [0] * (D + 1), "b": [0] * (D + 1)}
    for i in range(D + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if dist[u, v] == i]
        for kind, shift in (("c", -1), ("a", 0), ("b", 1)):
            if i == 0 and kind == "c":
                continue
            counts = [sum(1 for w in range(n) if g.adj[v, w] and dist[u, w] == i + shift)
                      for u, v in pairs]
            for pair, found in zip(pairs, counts):
                if found != counts[0]:
                    return NotDistanceRegular(i, kind, pair, found, counts[0], pairs[0])
            walls[kind][i] = counts[0]
    return og.IntersectionArray(
        b=walls["b"][:D], c=walls["c"][1:], a=walls["a"], D=D
    )


def test_intersection_array_matches_loops():
    # every connected graph on 5 vertices, the regular ones on 6, and the
    # Wagner graph, whose first wall to vary is c_2: arrays and witnesses
    # (distance, wall kind, pair, counts) must agree exactly
    graphs = list(og.enumerate_connected(5))
    graphs += [g for g in og.enumerate_connected(6) if g.is_regular()]
    graphs.append(og.graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                                      + [(i, i + 4) for i in range(4)]))
    kinds = set()
    for g in graphs:
        got = og.intersection_array(g)
        assert got == intersection_array_by_loops(g), og.graph_mask(g)
        kinds.add(got.kind if isinstance(got, NotDistanceRegular) else "array")
    assert kinds == {"array", "c", "a", "b"}


def intersection_array_by_products(g):
    """Reference: each level product (dist == j) @ A in float64 BLAS, in a rolling window."""
    dd = og.distance_data(g)
    dist, A, D = dd.dist, g.adj.astype(np.float64), dd.diameter

    def level_product(j):
        return (dist == j).astype(np.float64) @ A

    b, c, a = (np.zeros(D + 1, dtype=np.int64) for _ in range(3))
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
                return NotDistanceRegular(i, kind, pair, int(counts[pair]), expected, ref)
            {"c": c, "a": a, "b": b}[kind][i] = expected
        below, here = here, above
    return og.IntersectionArray(
        b=[int(x) for x in b[:D]], c=[int(x) for x in c[1:]], a=[int(x) for x in a], D=D
    )


def _relabeled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return og.Graph(g.n, g.adj[np.ix_(perm, perm)])


def _circulant():
    """A 6-regular circulant on 200 vertices that is not distance-regular."""
    return og.graph_from_edges(200, [(u, (u + j) % 200) for u in range(200) for j in (1, 5, 17)])


def test_intersection_array_matches_products_on_large_graphs():
    # the level counts of the distance expansion against the float64 level
    # products: arrays and witnesses must agree exactly on relabeled O_5, the
    # folded 9-cube and a 6-regular circulant that is not distance-regular
    cases = [
        (_relabeled(og.generate_family("odd", [5]), 1), og.IntersectionArray),
        (_relabeled(og.generate_family("folded_cube", [9]), 2), og.IntersectionArray),
        (_relabeled(_circulant(), 3), NotDistanceRegular),
    ]
    for g, kind in cases:
        got = og.intersection_array(g)
        assert isinstance(got, kind), g.n
        assert got == intersection_array_by_products(g), g.n


def test_level_counts_are_level_products(petersen, prism):
    # the relabeled folded 9-cube takes the neighbour sums, the others the
    # dense product
    folded = _relabeled(og.generate_family("folded_cube", [9]), 5)
    assert og.graphs.neighbour_table(folded.adj) is not None
    for g in (petersen, prism, _relabeled(og.generate_family("odd", [4]), 4), folded):
        dd = og.distance_data(g)
        assert len(dd.level_counts) == dd.diameter + 1
        for j, counts in enumerate(dd.level_counts):
            assert np.array_equal(counts, (dd.dist == j).astype(np.int64) @ g.adj), j


def test_neighbour_sums_match_dense_products(monkeypatch, family_suite, sparse_irregular):
    # each graph through both products with A, the floors patched to force
    # one and then the other: the distance layer, the level counts and the
    # intersection arrays and witnesses must be identical, p_i(A) equal to
    # rounding.  Graphs without a predistance system of their own use C_11's:
    # its recurrence is a polynomial identity, so any A will do
    assert not (og.distance_data(sparse_irregular).connected or sparse_irregular.is_regular())
    fallback = og.predistance_polynomials(og.spectrum(og.generate_family("cycle", [11])))
    cases = [(g, og.predistance_polynomials(og.spectrum(g))) for _, g in family_suite]
    cases += [(_relabeled(_circulant(), 3), fallback), (sparse_irregular, fallback)]
    for g, system in cases:
        results = []
        for floor, dtype in ((0, np.uint8), (math.inf, np.float32)):
            monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_FLOOR", floor)
            monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_DENSITY", floor)
            dd = og.distance_data(g)
            assert all(counts.dtype == dtype for counts in dd.level_counts), g.n
            ia = og.intersection_array(g, dd) if dd.connected else None
            assert (dd.neighbour_table is None) == (floor == math.inf), g.n
            results.append(
                (dd, ia, list(og.predistance.matrix_values(system, g.adj, dd.neighbour_table))))
        (sums, sums_ia, sums_values), (dense, dense_ia, dense_values) = results
        assert np.array_equal(sums.dist, dense.dist), g.n
        assert (sums.diameter, sums.connected, sums.odd_girth) == (
            dense.diameter, dense.connected, dense.odd_girth), g.n
        assert len(sums.level_counts) == len(dense.level_counts), g.n
        for j, (a, b) in enumerate(zip(sums.level_counts, dense.level_counts)):
            assert np.array_equal(a, b), (g.n, j)
        assert sums_ia == dense_ia, g.n
        assert len(sums_values) == len(dense_values) == system.d + 1, g.n
        for i, (a, b) in enumerate(zip(sums_values, dense_values)):
            assert np.abs(a - b).max() <= 1e-9, (g.n, i)


def test_distance_polynomial_names_first_broken_level():
    # beta_{j} enters the recurrence at the step that makes p_{j+2}(A), so
    # perturbing it breaks that level first
    for g in (og.generate_family("odd", [4]), og.generate_family("cycle", [9])):
        system = og.predistance_polynomials(og.spectrum(g))
        cert = check_distance_polynomial(g, system)
        assert cert.passed and cert.witness is None
        for j in range(system.d - 1):
            bad = copy.copy(system)
            bad.beta = system.beta.copy()
            bad.beta[j] += 0.5
            cert = check_distance_polynomial(g, bad)
            assert cert.passed is False and cert.witness == j + 2, (g.n, j)


def _c5_with_a_hat():
    """C_5 plus a vertex on 0 and 2: connected, odd girth 5 >= 2D + 1 = 5, but d = 5."""
    return og.graph_from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 2)])


def test_verify_computes_each_quantity_once(monkeypatch, prism):
    # a met graph: no eigensolve of an n x n matrix (one eigh of the small
    # Jacobi matrix), none of the float pipeline or its witnesses, and one
    # neighbour table; a
    # rejected graph, whether it fails the prefilter or only the exact count
    # of its eigenvalues: one eigvalsh of A and no eigh
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            size = len(args[0]) if name in ("eigh", "eigvalsh") else None
            key = name if size is None else (name, "n x n" if size == current.n else "small")
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(og.predistance, "matrix_values",
                        counting("matrix_values", og.predistance.matrix_values))
    monkeypatch.setattr(og.graphs, "neighbour_table",
                        counting("neighbour_table", og.graphs.neighbour_table))

    def forbidden(*args):
        raise AssertionError("verify_theorem ran the float pipeline on a met graph")

    for name in ("idempotents", "spectrum"):
        monkeypatch.setattr(og.spectral, name, forbidden)
    monkeypatch.setattr(og.predistance, "predistance_polynomials", forbidden)
    for name in ("vandermonde_certificate", "VandermondeCertificate", "_moment_determinant"):
        monkeypatch.setattr(og.verify, name, forbidden)
    monkeypatch.setattr(og.predistance, "ParityReport", forbidden)
    folded = _relabeled(og.generate_family("folded_cube", [9]), 5)
    assert og.graphs.neighbour_table(folded.adj) is not None
    for current in (_relabeled(og.generate_family("odd", [4]), 5),
                    og.generate_family("cycle", [9]), folded):
        calls.clear()
        rep = og.verify_theorem(current)
        assert rep.hypothesis_met and not rep.alarm
        assert calls == {("eigh", "small"): 1, "neighbour_table": 1}, current.n
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    for current in (og.generate_family("cycle", [6]), og.generate_family("path", [5]), prism,
                    _c5_with_a_hat()):
        calls.clear()
        rep = og.verify_theorem(current)
        assert not rep.hypothesis_met
        assert calls == {("eigvalsh", "n x n"): 1}, current.n


def test_verify_refuses_merged_eigenvalues(petersen, prism):
    # a cluster tolerance wide enough to merge every eigenvalue leaves fewer
    # than diameter + 1 of them on a graph that fails the prefilter (the
    # prism), and fewer than L + 1 on one whose walk counts showed d >= L
    # (C_5 with a hat): a numerical breakdown, not an alarm.  Petersen's d
    # is exact and its spectrum comes from the Jacobi matrix: nothing is
    # clustered, so it certifies
    for g in (prism, _c5_with_a_hat()):
        with pytest.raises(og.NumericalError, match="merged"):
            og.verify_theorem(g, og.Tolerances(cluster=10.0))
    rep = og.verify_theorem(petersen, og.Tolerances(cluster=10.0))
    assert rep.hypothesis_met and not rep.alarm and rep.spectrum.d == 2
    assert rep.to_dict()["tolerances"]["cluster"] == 10.0


def test_distance_polynomial_check(petersen, c5, prism, p3):
    for g in (petersen, c5):
        s, lm, sys = _pipeline(g)
        cert = check_distance_polynomial(g, sys)
        assert cert.passed and cert.residual <= 1e-6
    s, lm, sys = _pipeline(prism)
    cert = check_distance_polynomial(prism, sys)
    assert cert.passed is False and cert.residual > 1e-3 and cert.witness is not None
    s, lm, sys = _pipeline(p3)
    assert check_distance_polynomial(p3, sys).passed is None


def test_excess_comparison(petersen, c5, prism, p3):
    sp, av = og.excess_comparison(petersen, _pipeline(petersen)[2])
    assert sp == pytest.approx(6.0, abs=1e-8) and av == pytest.approx(6.0, abs=1e-8)
    sp, av = og.excess_comparison(c5, _pipeline(c5)[2])
    assert sp == pytest.approx(2.0, abs=1e-8) and av == pytest.approx(2.0, abs=1e-8)
    sp, av = og.excess_comparison(prism, _pipeline(prism)[2])
    assert sp > 1e-3 and av == pytest.approx(0.0)
    assert og.excess_comparison(p3, _pipeline(p3)[2]) is None


def test_eigenvalue_symmetry(c5, p3):
    cert = check_eigenvalue_symmetry(og.spectrum(c5))
    # margin = min(|2 - phi|, ...) = 2 - golden ratio
    assert cert.passed and cert.residual == pytest.approx(2 - (1 + 5**0.5) / 2, abs=1e-9)

    k2 = og.generate_family("complete", [2])
    cert = check_eigenvalue_symmetry(og.spectrum(k2))
    assert cert.passed is False
    lo, hi = sorted(cert.witness["pair"])
    assert abs(lo + 1) < 1e-9 and abs(hi - 1) < 1e-9

    cert = check_eigenvalue_symmetry(og.spectrum(p3))
    assert cert.passed is False
    assert cert.witness["zero"] == pytest.approx(0.0, abs=1e-9)
    assert cert.witness["pair"] is not None


def test_vandermonde_petersen(petersen):
    s, lm, _ = _pipeline(petersen)
    cert = vandermonde_certificate(s, lm)
    assert cert.passed and cert.residual <= 1e-8
    detail = cert.witness
    assert isinstance(detail, VandermondeCertificate)
    assert detail.det_value == pytest.approx(-6.0, abs=1e-9)
    # predicted local multiplicities are proportional to the global ones
    assert np.abs(detail.proportionality - np.array([1.0, 5.0, 4.0])).max() < 1e-8
    assert not detail.ill_conditioned


def test_vandermonde_c5(c5):
    s, lm, _ = _pipeline(c5)
    cert = vandermonde_certificate(s, lm)
    assert cert.passed and cert.residual <= 1e-8
    assert abs(cert.witness.det_value) > 1e-6


def test_vandermonde_trivial_spectrum():
    g = og.generate_family("complete", [1])
    s = og.spectrum(g)
    lm = og.local_multiplicities(og.idempotents(g, s))
    cert = vandermonde_certificate(s, lm)
    assert cert.passed and cert.residual <= 1e-12  # d = 0: vacuous system


def test_verify_theorem_petersen(petersen):
    rep = og.verify_theorem(petersen, input_label="petersen")
    assert rep.hypothesis_met and not rep.alarm
    assert rep.hypotheses["odd_girth"] == 5
    certs = rep.certificates
    assert set(certs) >= {
        "eigenvalue_symmetry",
        "vandermonde",
        "walk_regular",
        "hoffman",
        "parity",
        "distance_polynomial",
    }
    assert all(c.passed for c in certs.values())
    assert rep.conclusion.distance_regular
    assert rep.conclusion.generalized_odd_graph
    assert rep.conclusion.intersection_array.b == [3, 2]


def test_verify_theorem_complete_graph():
    rep = og.verify_theorem(og.generate_family("complete", [4]))
    assert rep.hypothesis_met  # d = 1, odd girth 3 = 2d+1
    assert rep.conclusion.distance_regular
    assert rep.conclusion.generalized_odd_graph
    assert rep.conclusion.intersection_array.b == [3]


def test_verify_theorem_unmet_cases(p3, prism):
    rep = og.verify_theorem(p3)
    assert not rep.hypothesis_met
    assert rep.hypotheses["odd_girth"] == float("inf")  # bipartite: no odd cycle
    assert rep.certificates == {} and rep.conclusion is None

    rep = og.verify_theorem(prism)  # odd girth 3 < 2d+1
    assert not rep.hypothesis_met and not rep.alarm

    rep = og.verify_theorem(og.generate_family("complete", [2]))
    assert not rep.hypothesis_met  # bipartite

    g = og.graph_from_edges(4, [(0, 1), (2, 3)])
    rep = og.verify_theorem(g)
    assert not rep.hypothesis_met and not rep.hypotheses["connected"]
    assert any("disconnected" in w for w in rep.warnings)


def test_verify_theorem_c7():
    rep = og.verify_theorem(og.generate_family("cycle", [7]))
    assert rep.hypothesis_met and rep.conclusion.generalized_odd_graph
    assert rep.hypotheses["odd_girth"] == 7 and rep.hypotheses["eigenvalue_count"] == 4


@pytest.mark.parametrize("k", [31, 41, 61, 101])
def test_verify_theorem_long_odd_cycles(k):
    # d = (k - 1) / 2 up to 50: every certificate is exact, so none raises a
    # false alarm or a warning however long the cycle, within the exact range
    rep = og.verify_theorem(og.generate_family("cycle", [k]))
    assert rep.hypothesis_met and not rep.alarm and rep.warnings == []
    assert rep.spectrum.d == (k - 1) // 2
    assert all(c.passed for c in rep.certificates.values()), {
        name: c.residual for name, c in rep.certificates.items() if not c.passed
    }
    assert rep.conclusion.distance_regular and rep.conclusion.generalized_odd_graph


def _c67_with_a_hat():
    """C_67 plus a vertex on 0 and 2: odd girth 67 = 2D + 1, largest degree 3, 3^34 > 2^53."""
    return og.graph_from_edges(68, [(i, (i + 1) % 67) for i in range(67)] + [(67, 0), (67, 2)])


def test_verify_theorem_past_the_float64_range():
    # walk counts past 2^53 are carried in Python integers, so no graph is
    # refused: C_105 (L = 53, 2^53 walks) certifies, while the float
    # Stieltjes procedure already stops at C_103 at its conditioning guard;
    # the C_67 with a hat meets the prefilter with 3^34 walks and gets the
    # not-applicable report of its clustered eigvalsh, all 68 eigenvalues
    rep = og.verify_theorem(og.generate_family("cycle", [105]))
    assert rep.hypothesis_met and not rep.alarm and rep.warnings == []
    assert rep.spectrum.d == 52 and all(c.passed for c in rep.certificates.values())
    with pytest.raises(og.PredistanceError, match="conditioning"):
        og.predistance_polynomials(og.spectrum(og.generate_family("cycle", [103])))
    g = _c67_with_a_hat()
    assert og.spectral.meets_prefilter(og.distance_data(g))
    rep = og.verify_theorem(g)
    assert not rep.hypothesis_met and rep.conclusion is None and rep.certificates == {}
    want = og.cluster_spectrum(np.linalg.eigvalsh(g.adj.astype(float)))
    assert rep.spectrum.d == want.d == 67
    assert np.array_equal(rep.spectrum.values, want.values)


def test_report_tolerances_block(petersen, prism):
    # a met graph's exact parity verdict is held to 0.0; a graph that does
    # not meet the hypothesis has no parity certificate
    for g, parity in ((petersen, 0.0), (og.generate_family("cycle", [21]), 0.0), (prism, None)):
        rep = og.verify_theorem(g)
        assert rep.to_dict()["tolerances"] == {
            "cluster": rep.spectrum.cluster_tol,
            "certificate": 1e-6,
            "recurrence": verify.RECURRENCE_TOL,
            "parity": parity,
            "det_condition": verify.DET_CONDITION,
        }, g.n
        if parity is not None:
            cert = rep.certificates["parity"]
            assert cert.tol == cert.residual == 0.0 and cert.passed


def test_alarm_flag_construction(petersen):
    rep = og.verify_theorem(petersen)
    bad = Certificate(name="walk_regular", passed=False, residual=1.0, tol=1e-6)
    rep.certificates["walk_regular"] = bad
    assert rep.alarm


def test_report_json_schema(petersen, p3):
    for g, label in ((petersen, "petersen"), (p3, "p3")):
        rep = og.verify_theorem(g, input_label=label)
        doc = rep.to_dict()
        json.dumps(doc)  # serializable
        assert set(doc) == {
            "input",
            "n",
            "spectrum",
            "d",
            "odd_girth",
            "hypotheses",
            "certificates",
            "conclusion",
            "warnings",
            "tolerances",
        }
        assert doc["input"] == label
        assert set(doc["hypotheses"]) == {
            "connected",
            "eigenvalue_count",
            "odd_girth",
            "hypothesis_met",
        }
        for entry in doc["certificates"].values():
            assert set(entry) == {"pass", "residual"}
    doc = og.verify_theorem(p3).to_dict()
    assert doc["odd_girth"] == "inf"
    assert doc["conclusion"] is None
    doc = og.verify_theorem(petersen).to_dict()
    assert doc["odd_girth"] == 5
    assert [m for _, m in doc["spectrum"]] == [1, 5, 4]
    assert np.abs(np.array([v for v, _ in doc["spectrum"]]) - [3, 1, -2]).max() < 1e-9
    concl = doc["conclusion"]
    assert concl["distance_regular"] is True
    assert concl["generalized_odd_graph"] is True
    assert concl["intersection_array"] == {"b": [3, 2], "c": [1, 1], "a": [0, 0, 2]}


def test_tolerances_defaults_and_overrides(petersen):
    tols = og.Tolerances(certificate=1e-4)
    rep = og.verify_theorem(petersen, tolerances=tols)
    assert rep.certificates["vandermonde"].tol == 1e-4
    doc = rep.to_dict()
    assert doc["tolerances"]["certificate"] == 1e-4
    assert doc["tolerances"]["cluster"] > 0
