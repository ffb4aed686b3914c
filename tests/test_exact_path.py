"""The exact met path: walk counts, the Chebyshev recurrence, the Jacobi spectrum.

Each exact result is checked against a float oracle that computes the same
quantity another way: spectrum()'s clustered eigvalsh and
predistance_polynomials for d, the spectrum and the recurrence, the
idempotents' diagonals for the local multiplicities, matrix powers or
closed forms for the walk counts, and a clustered eigvalsh for the
reflection test.
"""

import itertools
import math

import numpy as np
import pytest

import oddgirth as og
from oddgirth import predistance
from oddgirth.predistance import (
    closed_walk_total,
    closed_walks,
    reflection_free,
    walk_recurrence,
)
from oddgirth.spectral import jacobi_spectrum


def _exact(g, length=None):
    """(walks, recurrence) of g up to L = (og + 1) / 2, or up to length."""
    dd = og.distance_data(g)
    if length is None:
        length = (dd.odd_girth + 1) // 2
    walks = closed_walks(dd.product, length)
    return walks, walk_recurrence(closed_walk_total(walks))


def _n7_hits():
    """K_3..K_7 and every labeling of C_5 and C_7: the hits of the n <= 7 sweep."""
    graphs = [og.generate_family("complete", [k]) for k in range(3, 8)]
    for n in (5, 7):
        seen = set()
        for perm in itertools.permutations(range(1, n)):
            order = (0,) + perm
            g = og.graph_from_edges(n, [(order[i], order[(i + 1) % n]) for i in range(n)])
            if og.graph_mask(g) not in seen:
                seen.add(og.graph_mask(g))
                graphs.append(g)
    assert len(graphs) == 377
    return graphs


def _check_against_float_oracles(g, label):
    dd = og.distance_data(g)
    walks, rec = _exact(g)
    s = og.spectrum(g)
    assert rec.d == s.d, label
    exact = jacobi_spectrum([float(x) for x in rec.a], [float(x) for x in rec.b], g.n)
    assert list(exact.mults) == list(s.mults), label
    assert np.abs(exact.values - s.values).max() <= 1e-9, label
    # the normalized exact recurrence is the intersection array, entry for entry
    d, ia = rec.d, og.intersection_array(g, dd)
    normalized = rec.predistance_system(int(g.degrees()[0]), s)
    assert normalized.alpha.tolist() == ia.a, label
    assert normalized.beta[:d].tolist() == ia.b and normalized.gamma[1:].tolist() == ia.c, label
    if g.n == 101:  # the float Stieltjes procedure stops at its conditioning guard
        return
    system = og.predistance_polynomials(s)
    assert np.abs(np.array([float(x) for x in rec.a]) - system.alpha).max() <= 1e-9, label
    b = np.array([float(x) for x in rec.b])
    assert np.abs(b - system.beta[:d] * system.gamma[1:]).max() <= 1e-9 * max(1, b.max()), label
    for name in ("alpha", "beta", "gamma"):
        got, want = getattr(normalized, name), getattr(system, name)
        assert np.abs(got - want).max() <= 1e-9, (label, name)
    # the float oracles of each certificate agree with the exact verdicts
    assert og.check_parity(system, dd.odd_girth).passed
    assert reflection_free(rec.integer_polynomials()[d + 1])
    assert og.check_eigenvalue_symmetry(s).passed
    assert max(int(w.max() - w.min()) for w in walks[: d + 1]) == 0, label
    lm = og.local_multiplicities(og.idempotents(g, s))
    assert og.check_walk_regular(g, lm).passed, label
    assert not any(w.any() for w in walks[1:2 * d:2]), label
    assert og.vandermonde_certificate(s, lm).passed, label


def test_exact_recurrence_matches_float_oracles(family_suite):
    graphs = [(label, g) for label, g in family_suite if label != "complete_2"]  # bipartite
    graphs += [("cycle_%d" % k, og.generate_family("cycle", [k])) for k in (31, 41, 61, 101)]
    for label, g in graphs:
        _check_against_float_oracles(g, label)


def test_exact_recurrence_matches_float_oracles_on_sweep_hits():
    for g in _n7_hits():
        _check_against_float_oracles(g, og.graph_mask(g))


def test_exact_count_and_reflection_on_every_small_graph():
    # every connected graph on <= 5 vertices, walk counts up to L = n so that
    # every d <= n - 1 is found: d against the clustered eigvalsh count, the
    # exact reflection test against the float eigenvalue-symmetry check, and
    # the parity of the recurrence against the odd walk counts
    checked = 0
    for n in range(1, 6):
        for g in og.enumerate_connected(n):
            walks, rec = _exact(g, length=n)
            s = og.cluster_spectrum(np.linalg.eigvalsh(g.adj.astype(float)))
            assert rec.d == s.d, og.graph_mask(g)
            free = reflection_free(rec.integer_polynomials()[rec.d + 1])
            assert free == og.check_eigenvalue_symmetry(s).passed, og.graph_mask(g)
            odd_walks = any(w.any() for w in walks[1::2])
            assert odd_walks == any(rec.a), og.graph_mask(g)
            checked += 1
    assert checked == 1 + 1 + 4 + 38 + 728


def _matrix_power_diagonals(adj, top):
    A = adj.astype(np.int64)
    return [np.diag(np.linalg.matrix_power(A, ell)) for ell in range(top + 1)]


def _cycle_walks(n, ell):
    """Closed walks of length ell at a vertex of C_n: steps +1 j times, -1 the rest."""
    return sum(math.comb(ell, j) for j in range(ell + 1) if (2 * j - ell) % n == 0)


def test_walk_diagonals_match_matrix_powers(monkeypatch, sparse_irregular):
    # both products with A, the floors patched to force each: every diagonal
    # equals the matrix power's, on regular and irregular, connected and
    # disconnected graphs
    graphs = [og.generate_family("petersen"), og.generate_family("odd", [4]),
              og.generate_family("folded_cube", [7]), og.generate_family("cycle", [11]),
              sparse_irregular]
    for floor in (0, math.inf):
        monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_FLOOR", floor)
        monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_DENSITY", floor)
        for g in graphs:
            product = og.graphs.Product(g.adj)
            assert product.gathers == (floor != math.inf)
            walks = closed_walks(product, 3)
            want = _matrix_power_diagonals(g.adj, 6)
            assert len(walks) == len(want) == 7
            for ell, (got, ref) in enumerate(zip(walks, want)):
                assert got.dtype == np.int64 and np.array_equal(got, ref), (g.n, floor, ell)


def _integer_powers(adj, top):
    """A^0..A^top as int64 matrix products."""
    A = adj.astype(np.int64)
    powers = [np.eye(len(A), dtype=np.int64), A]
    while len(powers) <= top:
        powers.append(powers[-1] @ A)
    return powers


def _accumulator(bound):
    """The dtype a row dot whose total is at most bound accumulates in."""
    if bound >= 1 << 53:
        return np.dtype(object)
    return np.dtype(np.float32 if bound < 1 << 24 else np.float64)


def _walk_chain(product, adj, length):
    """(powers, dots): the dtypes closed_walks must use, from integer matrix powers.

    With k the largest degree and m_l the largest entry of A^l (m_1 = 1),
    A^(l+1) is formed in product.exact(k m_l), the row norm of A^l
    accumulates in the range of m_l k^l and the row dot of A^l with A^(l+1)
    in that of m_(l+1) k^l; the dots in closed_walks' order.
    """
    k = product.k
    m = [None, 1] + [int(P.max()) for P in _integer_powers(adj, length)[2:]]
    powers = [product.exact(k * m[l]) for l in range(1, length)]
    dots = [_accumulator(k)]
    for l in range(1, length):
        dots += [_accumulator(m[l + 1] * k ** l), _accumulator(m[l + 1] * k ** (l + 1))]
    return powers, dots


def _recorded_walks(monkeypatch, product, length):
    """closed_walks(product, length) with the dtype of each power and each row dot, in order."""
    powers, dots = [], []
    real, real_times = np.einsum, og.graphs.Product.times

    def einsum(spec, *operands, **kwargs):
        dots.append(np.dtype(kwargs.get("dtype", operands[0].dtype)))
        return real(spec, *operands, **kwargs)

    def times(self, X, dtype, out=None):
        powers.append(np.dtype(dtype))
        return real_times(self, X, dtype, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", einsum)
        patch.setattr(og.graphs.Product, "times", times)
        walks = closed_walks(product, length)
    return walks, powers, dots


def _check_walk_chain(monkeypatch, g, want, label):
    """On both products with A (the floors patched: 0 for the gathers, inf
    for BLAS), closed_walks forms each power and accumulates each row dot in
    the dtype _walk_chain names, and every vertex's diagonal is want[ell],
    an int64 entry when its dot ran in floats and a Python integer
    otherwise.  Returns {floor: (power dtype names, dot dtype names)}."""
    L = (len(want) - 1) // 2
    chains = {}
    for floor in (0, math.inf):
        monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_FLOOR", floor)
        monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_DENSITY", floor)
        product = og.graphs.Product(g.adj)
        assert product.gathers == (floor == 0)
        walks, powers, dots = _recorded_walks(monkeypatch, product, L)
        assert (powers, dots) == _walk_chain(product, g.adj, L), (label, floor)
        assert len(walks) == 2 * L + 1
        for ell, w in enumerate(walks):
            float_dot = ell < 2 or dots[ell - 2] != object
            assert w.dtype == (np.int64 if float_dot else object), (label, floor, ell)
            assert all(type(x) is int for x in w.tolist()), (label, floor, ell)
            assert w.tolist() == [want[ell]] * g.n, (label, floor, ell)
        assert closed_walk_total(walks) == [g.n * x for x in want]
        chains[floor] = ([p.name for p in powers], [d.name for d in dots])
    return chains


@pytest.mark.parametrize("family, params, dots", [
    ("odd", (5,), np.float32),  # every row dot below 2^24
    ("cycle", (61,), object),  # m_31 2^31 past 2^53: Python integer dots
    ("cycle", (105,), object),  # only the dots: the powers stay below 2 C(52, 26) < 2^53
    ("cycle", (45,), np.float64),
    ("cycle", (47,), np.float64),
])
def test_walk_diagonals_in_each_exact_range(monkeypatch, family, params, dots):
    # each power in the dtype exact for k times the largest entry of the
    # power before it, each row dot in the accumulator exact for its bound,
    # the last (the row norm of A^L) in dots; together the cases reach
    # uint8/16/32/64 and float32/64 powers and every accumulator, and every
    # vertex's diagonal is the known walk count
    ranges = {  # {floor: (power dtypes, dot accumulators)}
        (5,): {0: ({"uint8"}, {"float32"}),
               math.inf: ({"float32"}, {"float32"})},
        (61,): {0: ({"uint8", "uint16", "uint32"}, {"float32", "float64", "object"}),
                math.inf: ({"float32", "float64"}, {"float32", "float64", "object"})},
        (105,): {0: ({"uint8", "uint16", "uint32", "uint64"}, {"float32", "float64", "object"}),
                 math.inf: ({"float32", "float64"}, {"float32", "float64", "object"})},
        (45,): {0: ({"uint8", "uint16", "uint32"}, {"float32", "float64"}),
                math.inf: ({"float32"}, {"float32", "float64"})},
        (47,): {0: ({"uint8", "uint16", "uint32"}, {"float32", "float64"}),
                math.inf: ({"float32"}, {"float32", "float64"})},
    }[params]
    g = og.generate_family(family, params)
    L = (og.odd_girth(g) + 1) // 2
    if family == "odd":
        want = [int(w[0]) for w in _matrix_power_diagonals(g.adj, 2 * L)]
    else:
        want = [_cycle_walks(g.n, ell) for ell in range(2 * L + 1)]
    chains = _check_walk_chain(monkeypatch, g, want, params)
    assert {floor: (set(p), set(d)) for floor, (p, d) in chains.items()} == ranges
    assert chains[0][1] == chains[math.inf][1] and chains[0][1][-1] == np.dtype(dots).name


def test_walk_powers_past_the_float64_range(monkeypatch):
    # from 2^53 on the powers are neighbour sums of Python integers on either
    # path: from A^57 on for C_113 and C_115 (2 C(56, 28) >= 2^53), each
    # formed from its predecessor converted to Python integers, and the
    # diagonals still match the closed form, Python integers and not floats
    for k in (113, 115):
        g = og.generate_family("cycle", [k])
        L = (og.odd_girth(g) + 1) // 2
        want = [_cycle_walks(k, ell) for ell in range(2 * L + 1)]
        for floor, (powers, dots) in _check_walk_chain(monkeypatch, g, want, k).items():
            # powers[i] is A^(i + 2)
            assert [e for e, p in enumerate(powers, 2) if p == "object"] == list(range(57, L + 1))
            assert "object" in dots, (k, floor)


def test_walk_dtype_chains(monkeypatch):
    # the dtype of each power and row dot on both products with A, pinned.
    # Relabeled O_6 and the folded 9-cube (L = (og + 1) / 2): the powers
    # A^2..A^L in uint8 while k m_l < 256, then in uint16 on the gathers,
    # float32 on BLAS, and every row dot in float32 but the last, the row
    # norm of A^L.  The star K_{1,100}, L = 3: m_2 = m_3 = k = 100, so the
    # row dot of A^2 with A^3 is at most m_3 k^2 = 10^6, a float32 sum, where
    # m_2 k^3 = 10^8 would need float64, as the row norm of A^3 does
    perm = np.random.default_rng(6).permutation(462)
    cases = [
        (og.generate_family("odd", [6]).adj[np.ix_(perm, perm)], 6,
         ["uint8"] * 3 + ["uint16"] * 2, ["float32"] * 10 + ["float64"]),
        (og.generate_family("folded_cube", [9]).adj, 5,
         ["uint8"] * 3 + ["uint16"], ["float32"] * 8 + ["float64"]),
        (og.graph_from_edges(101, [(0, leaf) for leaf in range(1, 101)]).adj, 3,
         ["uint8", "uint16"], ["float32"] * 4 + ["float64"]),
    ]
    for adj, L, gathered, dots in cases:
        P = _integer_powers(adj, L)
        for floor in (0, math.inf):
            monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_FLOOR", floor)
            monkeypatch.setattr(og.graphs, "NEIGHBOUR_SUM_DENSITY", floor)
            product = og.graphs.Product(adj)
            walks, powers, got_dots = _recorded_walks(monkeypatch, product, L)
            assert [p.name for p in powers] == (gathered if floor == 0 else ["float32"] * (L - 1))
            assert [d.name for d in got_dots] == dots
            assert (powers, got_dots) == _walk_chain(product, adj, L)
            for ell, w in enumerate(walks):  # diag(A^ell), a row dot of two int64 powers
                assert np.array_equal(w, (P[ell // 2] * P[(ell + 1) // 2]).sum(axis=1)), (L, floor, ell)


def test_walk_recurrence_stops_at_the_first_vanishing_norm(petersen):
    # Petersen: three eigenvalues, so ||pi_3|| = 0 and d = 2 exactly, a = (0,
    # 0, 2) and b = (3, 2); with L = 2 no norm vanishes yet
    _, rec = _exact(petersen)
    assert rec.d == 2 and rec.a == [0, 0, 2] and rec.b == [3, 2] and rec.norms[-1] == 0
    assert rec.integer_polynomials()[3] == [6, -5, -2, 1]  # (x - 3)(x - 1)(x + 2)
    _, short = _exact(petersen, length=2)
    assert short.d is None and len(short.norms) == 3


def test_reflection_free_examples():
    assert reflection_free([-2, -1, 1])  # (x - 2)(x + 1)
    assert not reflection_free([-1, 0, 1])  # (x - 1)(x + 1)
    assert not reflection_free([0, -1, 1])  # x (x - 1)
    assert reflection_free([6, -5, -2, 1])  # (x - 3)(x - 1)(x + 2)
    assert not reflection_free([-4, 4, 1, -1])  # -(x - 1)(x - 2)(x + 2)
    assert reflection_free([5])  # no roots at all


def test_jacobi_spectrum_requires_integer_multiplicities():
    # a_0 = a_1 = 0, b_1 = 1: the points +-1 with weights 1/2, so n = 4 gives
    # multiplicities 2 and 2, and n = 3 none at all
    s = jacobi_spectrum([0.0, 0.0], [1.0], 4)
    assert np.allclose(s.values, [1, -1]) and list(s.mults) == [2, 2] and s.d == 1
    with pytest.raises(og.NumericalError, match="round"):
        jacobi_spectrum([0.0, 0.0], [1.0], 3)


def _met_inputs(g):
    """(dd, walks, recurrence, spectrum, intersection array) as verify_theorem hands them on."""
    dd = og.distance_data(g)
    walks, rec = _exact(g)
    s = jacobi_spectrum([float(x) for x in rec.a], [float(x) for x in rec.b], g.n)
    return dd, walks, rec, s, og.intersection_array(g, dd)


def _counted_passes(monkeypatch):
    """A list that gets one entry per predistance.matrix_values call: one p_i(A) pass each."""
    passes = []
    real = predistance.matrix_values

    def counted(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(og.predistance, "matrix_values", counted)
    return passes


def _perturbed(ia, field, i, delta):
    rows = {name: list(getattr(ia, name)) for name in ("a", "b", "c")}
    rows[field][i] += delta
    return og.IntersectionArray(D=ia.D, **rows)


def test_met_path_compares_the_array_with_the_recurrence(monkeypatch):
    # the true array certifies with no p_i(A) pass; every single +-1 change of
    # one a_i, b_i or c_i sends the certificates to exactly one pass, which
    # measures the residuals on the exact recurrence: 0 up to rounding, since
    # these graphs are distance-regular
    passes = _counted_passes(monkeypatch)
    for g in (og.generate_family("petersen"), og.generate_family("odd", [4]),
              og.generate_family("folded_cube", [7]), og.generate_family("cycle", [9])):
        dd, walks, rec, s, ia = _met_inputs(g)
        passes.clear()
        certs = og.verify.exact_certificates(g, dd, walks, rec, s, ia)
        assert not passes and certs["distance_polynomial"].residual == 0.0, g.n
        assert certs["hoffman"].passed and certs["hoffman"].residual == 0.0, g.n
        for field in ("a", "b", "c"):
            for i in range(len(getattr(ia, field))):
                for delta in (-1, 1):
                    passes.clear()
                    certs = og.verify.exact_certificates(
                        g, dd, walks, rec, s, _perturbed(ia, field, i, delta))
                    assert len(passes) == 1, (g.n, field, i, delta)
                    assert certs["distance_polynomial"].passed, (g.n, field, i, delta)
                    assert certs["hoffman"].passed, (g.n, field, i, delta)


def test_met_path_needs_every_clause_of_the_comparison(monkeypatch, petersen):
    # Petersen's {3, 2; 1, 1}, a = (0, 0, 2), against three arrays that each
    # break one clause only: {1, 2; 3, 1} keeps every a_i and every product
    # b_{i-1} c_i, but its rows do not sum to 3; {3, 1; 1, 2} with
    # a = (0, 1, 1) keeps the row sums and the products; {3, 1; 2, 1} keeps
    # the row sums and the a_i.  Each goes to the p_i(A) pass
    passes = _counted_passes(monkeypatch)
    dd, walks, rec, s, ia = _met_inputs(petersen)
    assert (ia.b, ia.c, ia.a) == ([3, 2], [1, 1], [0, 0, 2])
    for b, c, a in (([1, 2], [3, 1], [0, 0, 2]),
                    ([3, 1], [1, 2], [0, 1, 1]),
                    ([3, 1], [2, 1], [0, 0, 2])):
        passes.clear()
        certs = og.verify.exact_certificates(
            petersen, dd, walks, rec, s, og.IntersectionArray(b=b, c=c, a=a, D=2))
        assert len(passes) == 1, (b, c, a)
        assert certs["distance_polynomial"].passed and certs["hoffman"].passed, (b, c, a)


def test_alarm_path_names_the_first_broken_level(monkeypatch):
    # an array that disagrees with the recurrence sends the certificates to
    # the p_i(A) pass, once, fed with the normalized exact recurrence: a
    # perturbed beta_j breaks level j + 2 first, as on the float path
    g = og.generate_family("odd", [4])
    real = predistance.WalkRecurrence.predistance_system
    real_array = og.verify.intersection_array
    passes = _counted_passes(monkeypatch)
    monkeypatch.setattr(og.verify, "intersection_array",
                        lambda *args: _perturbed(real_array(*args), "a", 0, 1))
    for j in range(2):
        def perturbed(self, lam0, spectrum, j=j):
            system = real(self, lam0, spectrum)
            system.beta[j] += 1
            return system

        monkeypatch.setattr(predistance.WalkRecurrence, "predistance_system", perturbed)
        passes.clear()
        rep = og.verify_theorem(g)
        cert = rep.certificates["distance_polynomial"]
        assert rep.alarm and cert.passed is False and cert.witness == j + 2, j
        assert rep.certificates["hoffman"].passed is False and len(passes) == 1
    monkeypatch.setattr(og.verify, "intersection_array", real_array)
    passes.clear()
    rep = og.verify_theorem(g)
    assert not rep.alarm and not passes
