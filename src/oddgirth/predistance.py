"""Orthogonal polynomials for the spectrum-weighted inner product.

The inner product is <f, g> = (1/n) tr(f(A) g(A))
= (1/n) * sum_i m_i f(lambda_i) g(lambda_i).  Its moments are the closed-walk
counts tr(A^ell) / n, integers over n, so its monic orthogonal polynomials
pi_k and their three-term recurrence are exact rationals for every graph.
closed_walks reads the walk counts off the powers of A, and walk_recurrence
runs the Chebyshev algorithm on them in exact arithmetic (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004, section
2.1.7): d + 1 is the first k with ||pi_k||^2 = 0, the number of distinct
eigenvalues, found with no eigensolve.  Normalized so that
||p_i||^2 = p_i(lambda_0), the pi_i are the predistance polynomials; for
distance-regular graphs these are the distance polynomials, p_i(A) = A_i.
The met path needs no normalization for that: it compares the monic
recurrence (a_i, b_i) with the intersection array directly
(verify.exact_certificates), and only the alarm path builds the normalized
system (WalkRecurrence.predistance_system).

predistance_polynomials is the float counterpart, the Stieltjes procedure on
a clustered spectrum's distinct eigenvalues; with matrix_values, which
evaluates p_i(A) by the recurrence, it is the oracle of the exact path and
the alarm path's way of naming the first level i where p_i(A) != A_i.
Polynomials are coefficient vectors, index = degree.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import graphs

# integers below 2^53 are exact in float64: the walk counts are computed in
# it, or in unsigned integers, below that bound and in Python integers beyond
EXACT_FLOAT = 1 << 53


class PredistanceError(ValueError):
    """Conditioning or normalization breakdown while building the system."""


def poly_eval(coeffs, x):
    """Horner evaluation of a coefficient vector at scalar or array x."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    result = np.zeros_like(np.asarray(x, dtype=np.float64))
    for c in coeffs[::-1]:
        result = result * x + c
    return result if result.ndim else float(result)


def poly_eval_matrix(coeffs, A):
    """Horner evaluation with a square matrix argument, p(A)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    eye = np.eye(A.shape[0])
    result = np.zeros_like(A)
    for c in coeffs[::-1]:
        result = result @ A + c * eye
    return result


def spectral_inner_product(f, g, s):
    """(1/n) * sum_i m_i f(lambda_i) g(lambda_i) over the distinct eigenvalues."""
    fv = poly_eval(f, s.values)
    gv = poly_eval(g, s.values)
    return float(np.sum(s.mults * fv * gv) / s.n)


@dataclass
class PredistanceSystem:
    """Predistance polynomials p_0..p_d plus their three-term recurrence.

    Indexing convention for x*p_i = beta[i-1]*p_{i-1} + alpha[i]*p_i
    + gamma[i+1]*p_{i+1}: alpha has entries 0..d, beta entries 0..d-1 are
    meaningful (beta[d] = 0), gamma entries 1..d are meaningful (gamma[0] = 0).
    recurrence_residuals[i] is the weighted-norm defect of row i, where the
    i = d row is compared modulo the minimal polynomial (by evaluation at the
    eigenvalues).
    """

    polys: list
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    recurrence_residuals: np.ndarray
    spectrum: object

    @property
    def d(self):
        return len(self.polys) - 1


def _value_table(polys, s):
    """Table of p_i(lambda_j), row i for each stored polynomial, by Horner."""
    coeffs = np.zeros((len(polys), len(polys)))
    for i, p in enumerate(polys):
        coeffs[: len(p), i] = p
    return np.polynomial.polynomial.polyval(s.values, coeffs)


def predistance_polynomials(s):
    """Build the predistance system for a clustered spectrum by the Stieltjes procedure.

    The monic pi_{i+1} = (x - a_i) pi_i - b_i pi_{i-1}, a_i = <x pi_i, pi_i> / ||pi_i||^2,
    b_i = ||pi_i||^2 / ||pi_{i-1}||^2, runs on values at the eigenvalues and on
    coefficient vectors.  p_i = s_i pi_i with s_i = pi_i(lambda_0) / ||pi_i||^2, so
    alpha_i = a_i, beta_{i-1} = b_i s_i / s_{i-1} and gamma_{i+1} = s_i / s_{i+1}.
    """
    d, x, w = s.d, s.values, s.mults / s.n
    vals = np.ones((d + 1, d + 1))  # vals[i, j] = pi_i(lambda_j); row 0 is pi_0 = 1
    coeffs = np.eye(d + 1)  # coeffs[i, k]: coefficient of x^k in pi_i
    a, b, norms2 = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d + 1)
    for i in range(d + 1):
        norms2[i] = w @ vals[i] ** 2
        if norms2[i] <= 1e-20 * (w @ x ** (2 * i)):
            raise PredistanceError(
                "conditioning failure: degree-%d residual norm collapsed" % i
            )
        if abs(vals[i, 0]) <= 1e-12 * math.sqrt(norms2[i]):
            raise PredistanceError(
                "normalization failure: degree-%d polynomial vanishes at lambda_0" % i
            )
        a[i] = (w * x) @ vals[i] ** 2 / norms2[i]
        b[i] = norms2[i] / norms2[i - 1] if i else 0.0
        if i < d:  # b_0 = 0, so row i - 1 drops out at i = 0; rolling shifts by x
            vals[i + 1] = (x - a[i]) * vals[i] - b[i] * vals[i - 1]
            coeffs[i + 1] = np.roll(coeffs[i], 1) - a[i] * coeffs[i] - b[i] * coeffs[i - 1]

    scale = vals[:, 0] / norms2
    polys = [scale[i] * coeffs[i, : i + 1] for i in range(d + 1)]
    beta = np.append(b[1:] * scale[1:] / scale[:-1], 0.0)
    gamma = np.append(0.0, scale[:-1] / scale[1:])

    # the stored coefficients against the stored recurrence at the eigenvalues
    # (for i = d this is exactly the comparison modulo the minimal polynomial)
    P = _value_table(polys, s)
    J = np.diag(a) + np.diag(beta[:d], -1) + np.diag(gamma[1:], 1)
    return PredistanceSystem(
        polys=polys,
        alpha=a,
        beta=beta,
        gamma=gamma,
        recurrence_residuals=np.sqrt((P * x - J @ P) ** 2 @ w),
        spectrum=s,
    )


def recurrence_coefficients(system):
    """Recompute (alpha, beta, gamma) from the stored polynomials.

    Read off the Jacobi matrix <x p_i, p_j> = P diag(w x) P^T of the stored
    polynomials' values P at the eigenvalues (w = m/n), independent of the
    values cached on the system; indexing as documented on PredistanceSystem.
    """
    s = system.spectrum
    P = _value_table(system.polys, s)
    w = s.mults / s.n
    jacobi = (P * (w * s.values)) @ P.T
    norms2 = P**2 @ w
    alpha = np.diag(jacobi) / norms2
    beta = np.append(np.diag(jacobi, -1) / norms2[:-1], 0.0)
    gamma = np.append(0.0, np.diag(jacobi, 1) / norms2[1:])
    return alpha, beta, gamma


def hoffman_polynomial(system):
    """H = p_0 + ... + p_d; for a connected regular graph H(A) is the all-ones matrix."""
    H = np.zeros(system.d + 1)
    for p in system.polys:
        H[: len(p)] += p
    return H


def matrix_values(system, A, table):
    """Yield p_0(A), p_1(A), ..., p_d(A) from the three-term recurrence.

    p_{i+1}(A) = ((A - alpha_i I) p_i(A) - beta_{i-1} p_{i-1}(A)) / gamma_{i+1}:
    d - 1 products with A (A p_0(A) is a multiple of A), at most three
    n x n float64 iterates held at a time, and one scratch matrix that takes
    the alpha and beta terms in turn.  table is A's
    graphs.neighbour_table (DistanceData.neighbour_table).  When it is not
    None each product is a graphs.neighbour_sum in float64 and every iterate
    carries the zero row n that the table's padding points at; the values
    yielded are the n x n views above it.
    """
    n = len(A)
    if table is None:
        rows, A = n, np.asarray(A, dtype=np.float64)
    else:
        rows = n + 1
    prev, cur = None, system.polys[0][0] * np.eye(rows, n)  # p_0 = 1, up to rounding
    yield cur[:n]
    term = np.empty((rows, n))  # alpha_i p_i(A), then beta_{i-1} p_{i-1}(A)
    for i in range(system.d):
        if not i:  # p_0(A) is a multiple of I
            nxt = np.zeros((rows, n))
            np.multiply(A, cur[0, 0], out=nxt[:n])
        elif table is None:
            nxt = A @ cur
        else:
            nxt = graphs.neighbour_sum(table, cur, np.float64)
        nxt -= np.multiply(cur, system.alpha[i], out=term)
        if i:
            nxt -= np.multiply(prev, system.beta[i - 1], out=term)
        nxt /= system.gamma[i + 1]
        yield nxt[:n]
        prev, cur = cur, nxt


# ---------------------------------------------------------------------------
# the exact recurrence from closed-walk counts

def closed_walks(adj, table, length):
    """diag(A^ell) for ell = 0..2 * length: one exact integer vector per ell.

    Forms the powers A^2..A^length by products with A and reads each
    diagonal as a row dot: diag(A^(2l)) is the row norm of A^l, and
    diag(A^(2l+1)) the row dot of A^l with A^(l+1).  An entry of A^l counts
    walks, at most k^l for the largest degree k, and each partial sum is at
    most the entry it builds.  While k^length < 2^53 the powers are
    graphs.neighbour_sum in the smallest unsigned type that holds k^length
    when table (A's graphs.neighbour_table) is not None, dense float64
    products otherwise.  Beyond that they are neighbour sums of Python
    integers in object arrays, on a table of graphs.neighbour_rows when
    table is None: O(k n^2) integer additions a power, but no graph is out
    of range.  The row dots run in float64 while k^(2 length) < 2^53 and in
    Python integers beyond; the vectors are int64, or object arrays of
    Python integers in the second case.
    """
    n = len(adj)
    k = int(np.count_nonzero(adj, axis=1).max())
    if k ** (2 * length) < EXACT_FLOAT:
        def dots(X, Y):
            return np.einsum("ij,ij->i", X, Y, dtype=np.float64, casting="unsafe").astype(np.int64)
    else:
        def dots(X, Y):
            X, Y = (Z if Z.dtype == object else Z.astype(np.int64).astype(object) for Z in (X, Y))
            return np.einsum("ij,ij->i", X, Y)

    if k ** length < EXACT_FLOAT:
        power = None if table is None else np.min_scalar_type(k ** length)
    else:
        power = object
        if table is None:
            table = graphs.neighbour_rows(adj)
    if table is None:
        A = cur = np.asarray(adj, dtype=np.float64)
    else:  # row n is the zero row the table's padding reads
        cur = np.zeros((n + 1, n), dtype=power)
        cur[:n] = adj
    walks = [np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), dots(cur[:n], cur[:n])]
    for _ in range(length - 1):
        nxt = A @ cur if table is None else graphs.neighbour_sum(table, cur, power)
        walks += [dots(cur[:n], nxt[:n]), dots(nxt[:n], nxt[:n])]
        cur = nxt
    return walks


def closed_walk_total(walks):
    """tr(A^ell) for each vector of closed_walks, as Python integers."""
    return [sum(w.tolist()) for w in walks]


@dataclass
class WalkRecurrence:
    """The monic orthogonal polynomials of the walk-count measure, in exact rationals.

    pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1} with b_k = norms[k] / norms[k-1],
    where norms[k] = n ||pi_k||^2 = tr(pi_k(A)^2), an exact Fraction.  The
    run stops at the first vanishing norm: then d = len(norms) - 2, pi_{d+1}
    is the minimal polynomial of A, and a holds a_0..a_d.  When no norm
    vanished within the walk counts given, d is None: A has more distinct
    eigenvalues than len(norms).
    """

    n: int
    a: list
    norms: list

    @property
    def d(self):
        return len(self.norms) - 2 if not self.norms[-1] else None

    @functools.cached_property
    def b(self):
        """b_1..b_d, the recurrence's positive coefficients (b_0 multiplies pi_{-1} = 0)."""
        return [self.norms[k] / self.norms[k - 1] for k in range(1, self.d + 1)]

    def integer_polynomials(self):
        """Primitive integer multiples Q_0..Q_{d+1} of pi_0..pi_{d+1}, coefficient lists.

        Each Q_k has a positive leading coefficient, so pi_k = Q_k / Q_k[-1].
        With a_k = p / q and b_k = r / s in lowest terms,
        Q_{k+1} = s l_{k-1} (q x - p) Q_k - r q l_k Q_{k-1} over its content,
        l_k the leading coefficient of Q_k: integer arithmetic throughout.
        """
        polys, prev = [[1]], [1]  # l_{-1} = 1, and b_0 = 0 drops the pi_{-1} term
        for k, (a_k, b_k) in enumerate(zip(self.a, [Fraction(0)] + self.b)):
            cur = polys[k]
            p, q = a_k.numerator, a_k.denominator
            r, s = b_k.numerator, b_k.denominator
            ahead, behind = s * prev[-1], r * q * cur[-1]
            nxt = [0] + [ahead * q * c for c in cur]  # s l_{k-1} q x Q_k
            for j, c in enumerate(cur):
                nxt[j] -= ahead * p * c
            for j, c in enumerate(prev):
                nxt[j] -= behind * c
            content = math.gcd(*nxt)
            polys.append([c // content for c in nxt])
            prev = cur
        return polys

    def predistance_system(self, lam0, spectrum):
        """The exact predistance system at lam0, rounded to a float PredistanceSystem.

        p_i = s_i pi_i with s_i = pi_i(lam0) / ||pi_i||^2 makes
        ||p_i||^2 = p_i(lam0), and then x p_i = beta_{i-1} p_{i-1}
        + alpha_i p_i + gamma_{i+1} p_{i+1} with alpha_i = a_i,
        beta_{i-1} = b_i s_i / s_{i-1} and gamma_{i+1} = s_i / s_{i+1},
        indexed as on PredistanceSystem, each exact before it is rounded.  On
        a connected regular graph lam0 is the degree.  Its recurrence
        residuals are zero: the coefficients come from the exact recurrence
        itself.
        """
        d, a, b = self.d, self.a, [0] + self.b
        at = [Fraction(1), lam0 - a[0]]  # pi_i(lam0); pi_1 = x - a_0
        for i in range(1, d):
            at.append((lam0 - a[i]) * at[i] - b[i] * at[i - 1])
        scale = [self.n * at[i] / self.norms[i] for i in range(d + 1)]
        polys = [np.array([float(s * Fraction(c, Q[-1])) for c in Q])
                 for s, Q in zip(scale, self.integer_polynomials())]
        return PredistanceSystem(
            polys=polys,
            alpha=np.array([float(x) for x in a]),
            beta=np.array([float(b[i + 1] * scale[i + 1] / scale[i]) for i in range(d)] + [0.0]),
            gamma=np.array([0.0] + [float(scale[i - 1] / scale[i]) for i in range(1, d + 1)]),
            recurrence_residuals=np.zeros(d + 1),
            spectrum=spectrum,
        )


def walk_recurrence(traces):
    """The Chebyshev algorithm on the walk counts tr(A^0), ..., tr(A^(2L)), exactly.

    With the moments mu_l = traces[l] (the measure scaled by n, which leaves
    every a_k and b_k, k >= 1, unchanged) and sigma_{k,l} = <pi_k, x^l>:
    sigma_{0,l} = mu_l, a_k = sigma_{k,k+1} / sigma_{k,k}
    - sigma_{k-1,k} / sigma_{k-1,k-1}, b_k = sigma_{k,k} / sigma_{k-1,k-1} and
    sigma_{k+1,l} = sigma_{k,l+1} - a_k sigma_{k,l} - b_k sigma_{k-1,l}.
    sigma_{k,k} is the norm n ||pi_k||^2.  The 2L + 1 moments give the norms
    up to pi_L; the run stops at the first that vanishes.

    Each row is held fraction-free, as integers S_k[l] = D_k sigma_{k,l} over
    their content, with one rational scale D_k per row.  With a_k = p / q
    and u = S_{k-1}[k-1] > 0 the step reads
    S_{k+1}[l] = q u S_k[l+1] - p u S_k[l] - q S_k[k] S_{k-1}[l] and
    D_{k+1} = D_k q u, so only a_k and the norms are Fractions: O(L^2)
    integer operations and O(L) rational ones.
    """
    m = len(traces)
    prev, cur = [0] * m, [int(t) for t in traces]  # S_{k-1}, S_k, indexed by l
    scale = Fraction(1)  # D_k
    a, norms = [], [Fraction(cur[0])]
    shift = Fraction(0)  # sigma_{k-1,k} / sigma_{k-1,k-1}
    for k in range((m - 1) // 2):
        ratio = Fraction(cur[k + 1], cur[k])
        a_k = ratio - shift
        p, q = a_k.numerator, a_k.denominator
        u = prev[k - 1] if k else 1
        top, bottom, back = q * u, p * u, q * cur[k]
        nxt = [0] * m
        for l in range(k + 1, m - k - 1):
            nxt[l] = top * cur[l + 1] - bottom * cur[l] - back * prev[l]
        content = math.gcd(*nxt) or 1
        nxt = [v // content for v in nxt]
        scale = scale * top / content
        a.append(a_k)
        norms.append(nxt[k + 1] / scale)
        if not nxt[k + 1]:
            break
        prev, cur, shift = cur, nxt, ratio
    return WalkRecurrence(n=int(traces[0]), a=a, norms=norms)


def _gcd_degree(f, g):
    """Degree of gcd(f, g) over the rationals, for integer coefficient lists f (not zero) and g.

    Euclid on primitive integer polynomials: f is replaced by lc(g) f
    - lc(f) x^j g until its degree drops below g's, then divided by its
    content.
    """
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    f, g = trim(list(f)), trim(list(g))
    while g:
        while len(f) >= len(g):
            lead, off = f[-1], len(f) - len(g)
            f = [g[-1] * c for c in f]
            for j, c in enumerate(g):
                f[off + j] -= lead * c
            f.pop()
            trim(f)
        if f:
            content = math.gcd(*f)
            f = [c // content for c in f]
        f, g = g, f
    return len(f) - 1


def reflection_free(coeffs):
    """Whether the polynomial pi shares no root with pi(-x): gcd(pi(x), pi(-x)) = 1.

    coeffs are pi's integer coefficients (index = degree).  Write
    pi(x) = E(x^2) + x O(x^2).  A common root lambda of pi(x) and pi(-x) is
    a root of both even and odd parts, so either pi(0) = E(0) = 0 or
    lambda^2 is a common root of E and O; and conversely.  So the test is
    E(0) != 0 and gcd(E, O) = 1, on polynomials of half the degree.
    """
    even, odd = list(coeffs[0::2]), list(coeffs[1::2])
    return bool(even[0]) and _gcd_degree(even, odd) == 0


@dataclass
class ParityReport:
    """Verdicts for the parity structure of the system.

    Checks: alpha_i vanishes for i < d, alpha_d does not, and p_i has no
    coefficient of parity opposite to i.  Not applicable (applicable=False)
    unless the graph has finite odd girth >= 2d+1.  check_parity fills it
    from a float system under tol; the exact met path decides parity on the
    exact a_i (verify.exact_certificates).
    """

    applicable: bool
    interior_alpha_zero: bool = None
    top_alpha_nonzero: bool = None
    coefficient_parity: bool = None
    tol: float = None
    max_interior_alpha: float = None
    top_alpha: float = None
    max_offparity_coeff: float = None

    @property
    def passed(self):
        if not self.applicable:
            return None
        return bool(
            self.interior_alpha_zero and self.top_alpha_nonzero and self.coefficient_parity
        )


def check_parity(system, g_odd_girth):
    """Parity checks for a system whose graph has finite odd girth >= 2d+1.

    The tolerance is 1e-7 times the largest polynomial coefficient.
    """
    d = system.d
    if not (g_odd_girth != math.inf and g_odd_girth >= 2 * d + 1):
        return ParityReport(applicable=False)
    tol = 1e-7 * max(float(np.abs(p).max()) for p in system.polys)

    interior = float(np.abs(system.alpha[:d]).max()) if d >= 1 else 0.0
    top = float(abs(system.alpha[d]))
    # the coefficients of x^j with j - i odd
    offparity = max(float(np.abs(p[(i + 1) % 2 :: 2]).max(initial=0.0))
                    for i, p in enumerate(system.polys))
    return ParityReport(
        applicable=True,
        interior_alpha_zero=interior <= tol,
        top_alpha_nonzero=top > tol,
        coefficient_parity=offparity <= tol,
        tol=float(tol),
        max_interior_alpha=interior,
        top_alpha=top,
        max_offparity_coeff=offparity,
    )
