"""Orthogonal polynomials for the spectrum-weighted inner product.

The inner product is <f, g> = (1/n) * sum_i m_i f(lambda_i) g(lambda_i).
The Stieltjes procedure on the d+1 distinct eigenvalues, normalized so that
||p_i||^2 = p_i(lambda_0), yields the predistance polynomials; for
distance-regular graphs these are the distance polynomials, p_i(A) = A_i.
Polynomials are coefficient vectors, index = degree.
"""

import math
from dataclasses import dataclass

import numpy as np


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


def matrix_values(system, A):
    """Yield p_0(A), p_1(A), ..., p_d(A) from the three-term recurrence.

    p_{i+1}(A) = ((A - alpha_i I) p_i(A) - beta_{i-1} p_{i-1}(A)) / gamma_{i+1}:
    d - 1 matrix products, and at most three n x n iterates held at a time.
    """
    A = np.asarray(A, dtype=np.float64)
    prev, cur = None, system.polys[0][0] * np.eye(len(A))  # p_0 = 1, up to rounding
    yield cur
    for i in range(system.d):
        nxt = A @ cur if i else cur[0, 0] * A  # p_0(A) is a multiple of I
        nxt -= system.alpha[i] * cur
        if i:
            nxt -= system.beta[i - 1] * prev
        nxt /= system.gamma[i + 1]
        yield nxt
        prev, cur = cur, nxt


@dataclass
class ParityReport:
    """Verdicts for the parity structure of the system.

    Checks: alpha_i vanishes for i < d, alpha_d does not, and p_i has no
    coefficient of parity opposite to i.  Not applicable (applicable=False)
    unless the graph has finite odd girth >= 2d+1.
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
