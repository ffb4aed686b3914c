"""predistance: orthogonal polynomial system, recurrence, Hoffman, parity."""

import math

import numpy as np
import pytest

import oddgirth as og
from oddgirth.predistance import (
    PredistanceError,
    matrix_values,
    poly_eval,
    poly_eval_matrix,
    spectral_inner_product,
)
from oddgirth.spectral import Spectrum


def _system(g):
    return og.predistance_polynomials(og.spectrum(g))


def test_poly_eval_matches_polyval():
    rng = np.random.default_rng(7)
    for deg in range(5):
        coeffs = rng.normal(size=deg + 1)  # ascending order
        xs = rng.normal(size=6)
        got = poly_eval(coeffs, xs)
        want = np.polyval(coeffs[::-1], xs)
        assert np.abs(got - want).max() < 1e-12
    assert poly_eval([2.0, 0.0, 1.0], 3.0) == pytest.approx(11.0)


def test_poly_eval_matrix_matches_powers(petersen):
    A = petersen.adj.astype(float)
    coeffs = np.array([-2.0, 1.0, 1.0])  # x^2 + x - 2
    got = poly_eval_matrix(coeffs, A)
    want = A @ A + A - 2 * np.eye(10)
    assert np.abs(got - want).max() < 1e-12


def test_spectral_inner_product_examples(c5):
    s = og.spectrum(og.generate_family("complete", [4]))
    one = np.array([1.0])
    x = np.array([0.0, 1.0])
    assert spectral_inner_product(one, one, s) == pytest.approx(1.0)
    # <x,x> = (1/n) sum m_i lambda_i^2 = trace(A^2)/n = degree
    assert spectral_inner_product(x, x, s) == pytest.approx(3.0, abs=1e-9)
    s5 = og.spectrum(c5)
    q = np.array([-2.0, 0.0, 1.0])  # x^2 - 2
    assert spectral_inner_product(q, q, s5) == pytest.approx(2.0, abs=1e-9)


def test_polys_complete_graph():
    sys = _system(og.generate_family("complete", [5]))
    assert sys.d == 1
    assert np.allclose(sys.polys[0], [1.0])
    assert np.abs(sys.polys[1] - np.array([0.0, 1.0])).max() < 1e-10


def test_polys_c5(c5):
    sys = _system(c5)
    assert np.abs(sys.polys[2] - np.array([-2.0, 0.0, 1.0])).max() < 1e-8


def test_polys_petersen(petersen):
    sys = _system(petersen)
    assert np.abs(sys.polys[2] - np.array([-3.0, 0.0, 1.0])).max() < 1e-8


def test_poly_invariants(family_suite):
    for label, g in family_suite:
        s = og.spectrum(g)
        sys = og.predistance_polynomials(s)
        assert sys.d == s.d, label
        scale = poly_eval(sys.polys[-1], s.values[0])
        for i, p in enumerate(sys.polys):
            assert len(p) == i + 1, label  # deg p_i = i
            # norm^2 equals value at the top eigenvalue
            n2 = spectral_inner_product(p, p, s)
            at0 = poly_eval(p, s.values[0])
            assert abs(n2 - at0) < 1e-8 * max(1.0, abs(at0)), label
            for q in sys.polys[:i]:
                ip = spectral_inner_product(p, q, s)
                assert abs(ip) < 1e-8 * max(1.0, abs(scale)), label


def test_poly_values_count_spheres(family_suite):
    # on a distance-regular graph p_i(lambda_0) = |Gamma_i(u)|, an integer
    for label, g in family_suite:
        s = og.spectrum(g)
        dd = og.distance_data(g)
        if dd.diameter != s.d:
            continue
        arr = og.intersection_array(g, dd)
        if not isinstance(arr, og.IntersectionArray):
            continue
        sys = og.predistance_polynomials(s)
        counts = np.bincount(dd.dist[0], minlength=s.d + 1)
        for i, p in enumerate(sys.polys):
            assert abs(poly_eval(p, s.values[0]) - counts[i]) < 1e-6, (label, i)


def test_recurrence_c5(c5):
    sys = _system(c5)
    assert np.abs(sys.alpha - np.array([0.0, 0.0, 1.0])).max() < 1e-9
    assert np.abs(sys.beta[:2] - np.array([2.0, 1.0])).max() < 1e-9
    assert np.abs(sys.gamma[1:] - np.array([1.0, 1.0])).max() < 1e-9


def test_recurrence_petersen(petersen):
    sys = _system(petersen)
    assert np.abs(sys.alpha - np.array([0.0, 0.0, 2.0])).max() < 1e-9
    assert np.abs(sys.beta[:2] - np.array([3.0, 2.0])).max() < 1e-9
    assert np.abs(sys.gamma[1:] - np.array([1.0, 1.0])).max() < 1e-9


def test_recurrence_two_point_spectrum():
    sys = _system(og.generate_family("complete", [2]))
    assert sys.alpha[0] == pytest.approx(0.0, abs=1e-12)
    assert sys.gamma[1] == pytest.approx(1.0, abs=1e-12)


def test_recurrence_residuals_and_sum_rule(family_suite):
    for label, g in family_suite:
        sys = _system(g)
        assert max(sys.recurrence_residuals) <= 1e-8, label
        if not g.is_regular():
            continue
        lam0 = sys.spectrum.values[0]
        total = sys.alpha + sys.beta + sys.gamma
        assert np.abs(total - lam0).max() < 1e-8, label


def test_recurrence_coefficients_match_stored(petersen):
    sys = _system(petersen)
    alpha, beta, gamma = og.recurrence_coefficients(sys)
    assert np.abs(alpha - sys.alpha).max() < 1e-12
    assert np.abs(beta - sys.beta).max() < 1e-12
    assert np.abs(gamma - sys.gamma).max() < 1e-12


def test_recurrence_coefficients_match_stored_suite(family_suite):
    # the Jacobi matrix of the stored polynomials reproduces the recurrence
    # the Stieltjes procedure produced
    for label, g in family_suite:
        sys = _system(g)
        for got, want in zip(og.recurrence_coefficients(sys), (sys.alpha, sys.beta, sys.gamma)):
            assert np.abs(got - want).max() < 1e-9, label


def _closed_form(values, mults):
    """A Spectrum from known eigenvalues and multiplicities, no adjacency matrix."""
    order = np.argsort(values)[::-1]
    values = np.array(values, dtype=float)[order]
    mults = np.array(mults, dtype=np.int64)[order]
    return Spectrum(
        values=values,
        mults=mults,
        n=int(mults.sum()),
        cluster_tol=1e-8,
        min_gap=float(-np.diff(values).max()),
        ambiguous=False,
    )


@pytest.mark.parametrize(
    "values, mults, b, c",
    [
        # O_7 on 1716 vertices: eigenvalues (-1)^i (7 - i), multiplicities
        # C(13, i) - C(13, i - 1)
        (
            [(-1) ** i * (7 - i) for i in range(7)],
            [math.comb(13, i) - (math.comb(13, i - 1) if i else 0) for i in range(7)],
            [7, 6, 6, 5, 5, 4],
            [1, 1, 2, 2, 3, 3],
        ),
        # the folded 13-cube on 4096 vertices: eigenvalues 13 - 4j,
        # multiplicities C(13, 2j)
        (
            [13 - 4 * j for j in range(7)],
            [math.comb(13, 2 * j) for j in range(7)],
            [13, 12, 11, 10, 9, 8],
            [1, 2, 3, 4, 5, 6],
        ),
    ],
    ids=["odd_7", "folded_cube_13"],
)
def test_recurrence_at_d6_from_closed_form_spectra(values, mults, b, c):
    sys = og.predistance_polynomials(_closed_form(values, mults))
    assert sys.d == 6
    k = b[0]
    a = [k - bi - ci for bi, ci in zip(b + [0], [0] + c)]
    assert np.abs(sys.beta[:6] - b).max() < 1e-9
    assert np.abs(sys.gamma[1:] - c).max() < 1e-9
    assert np.abs(sys.alpha - a).max() < 1e-9
    assert sys.recurrence_residuals.max() <= 1e-8


def test_matrix_values_match_horner_and_distance_matrices(family_suite):
    # the recurrence's p_i(A) against Horner on each stored polynomial, and
    # p_i(A) = A_i at every level: every suite graph is distance-regular
    for label, g in family_suite:
        sys = _system(g)
        A = g.adj.astype(float)
        dd = og.distance_data(g)
        assert dd.diameter == sys.d, label
        values = list(matrix_values(sys, A))
        assert len(values) == sys.d + 1, label
        for i, (PA, p) in enumerate(zip(values, sys.polys)):
            assert np.abs(PA - poly_eval_matrix(p, A)).max() < 1e-6, (label, i)
            assert np.abs(PA - (dd.dist == i)).max() < 1e-6, (label, i)


def test_matrix_values_on_irregular_graph_above_the_floor(sparse_irregular):
    # the neighbour sums with padded rows, against Horner: the recurrence is a
    # polynomial identity, so C_11's system evaluates on any adjacency
    A = sparse_irregular.adj
    assert og.graphs.neighbour_table(A) is not None
    sys = _system(og.generate_family("cycle", [11]))
    values = list(matrix_values(sys, A))
    assert len(values) == sys.d + 1
    for i, (PA, p) in enumerate(zip(values, sys.polys)):
        want = poly_eval_matrix(p, A)
        assert np.abs(PA - want).max() <= 1e-9 * np.abs(want).max(), i


def test_hoffman_polynomial_examples(petersen, c5):
    hp = og.hoffman_polynomial(_system(petersen))
    assert np.abs(hp - np.array([-2.0, 1.0, 1.0])).max() < 1e-8
    hk = og.hoffman_polynomial(_system(og.generate_family("complete", [6])))
    assert np.abs(hk - np.array([1.0, 1.0])).max() < 1e-10
    hc = og.hoffman_polynomial(_system(c5))
    assert np.abs(hc - np.array([-1.0, 1.0, 1.0])).max() < 1e-8


def test_hoffman_gives_all_ones_matrix(family_suite):
    for label, g in family_suite:
        if not g.is_regular():
            continue
        hp = og.hoffman_polynomial(_system(g))
        H = poly_eval_matrix(hp, g.adj.astype(float))
        assert np.abs(H - 1.0).max() < 1e-6, label


def test_parity_passes_for_odd_girth_graphs(petersen, c5):
    for g, girth in ((c5, 5), (petersen, 5)):
        sys = _system(g)
        rep = og.check_parity(sys, girth)
        assert rep.applicable and rep.passed
        assert rep.max_interior_alpha < 1e-9
        assert abs(rep.top_alpha) > 0.5
        assert rep.max_offparity_coeff < 1e-9
    c7 = og.generate_family("cycle", [7])
    rep = og.check_parity(_system(c7), 7)
    assert rep.passed


def test_parity_not_applicable(prism, p3):
    # prism has odd girth 3 < 2d+1 = 7; the 3-path is bipartite
    rep = og.check_parity(_system(prism), 3)
    assert not rep.applicable and rep.passed is None
    rep = og.check_parity(_system(p3), og.odd_girth(p3))
    assert not rep.applicable


def test_parity_detects_violation(prism):
    # force the check to run on a system that does not satisfy it
    sys = _system(prism)
    rep = og.check_parity(sys, 2 * sys.d + 1)
    assert rep.applicable and rep.passed is False


def test_conditioning_guard():
    s = og.spectrum(og.generate_family("cycle", [5]))
    s.values = np.array([2.0, 2.0 - 1e-12, -1.5])
    with pytest.raises(PredistanceError, match="conditioning"):
        og.predistance_polynomials(s)
