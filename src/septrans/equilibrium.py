"""Linear analysis at the hyperbolic equilibrium.

The linearized flow is governed by the product Bmat*A with A = -D^2 V(0,0)
and Bmat = B(0,0).  Because Bmat is positive definite the product is
similar to the symmetric matrix L^T A L (Bmat = L L^T, Cholesky), so its
eigenvalues are real; hyperbolicity means they are positive, and the
Lyapunov exponents are their square roots.  The quadratic part of the
unstable generating function is Eu = N Lam M^{-1} with M the eigenvector
matrix of Bmat*A and N = Bmat^{-1} M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (CoefficientJet, HamiltonianModel, HypothesesError,
                     hessian_at_origin)


@dataclass(frozen=True)
class Linearization:
    A: np.ndarray
    Bmat: np.ndarray
    lambda1: float
    lambda2: float
    M: np.ndarray
    N: np.ndarray
    Eu: np.ndarray

    @property
    def Es(self) -> np.ndarray:
        return -self.Eu


def check_positive_definite(S: np.ndarray) -> bool:
    """Sylvester test for a symmetric 2x2 matrix."""
    return S[0, 0] > 0 and (S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]) > 0


def linearize(model: HamiltonianModel) -> Linearization:
    """Exponents and unstable quadratic form at the origin.

    Exponent ordering: lambda1 is the exponent whose eigenvector is tangent
    to the loop line q2=0 when one of them is axis-aligned; otherwise the
    exponents are ascending.
    """
    a11, a12, a22 = hessian_at_origin(model)
    A = np.array([[a11, a12], [a12, a22]])
    c = CoefficientJet(*model.jet(0.0))
    Bmat = np.array([[c.b110, c.b120], [c.b120, c.b220]])
    if not check_positive_definite(Bmat):
        raise HypothesesError("B(0,0) is not positive definite")

    # Cholesky Bmat = L L^T, then L^T A L is symmetric and similar to
    # Bmat*A; eigh gives its eigenvalues ascending
    L = np.linalg.cholesky(Bmat)
    w, U = np.linalg.eigh(L.T @ A @ L)
    if w[0] <= 0:
        raise HypothesesError(
            "Bmat*A has eigenvalues %s; not hyperbolic" % (w,))
    # columns of M are eigenvectors of Bmat*A
    M = L @ U
    lams = np.sqrt(w)

    # ordering: put the loop-tangent direction first when axis-aligned
    tangent = [abs(M[1, k]) < 1e-9 * np.linalg.norm(M[:, k]) for k in (0, 1)]
    if tangent[1] and not tangent[0]:
        M = M[:, ::-1].copy()
        lams = lams[::-1].copy()

    M = M / np.linalg.norm(M, axis=0)
    N = np.linalg.solve(Bmat, M)
    Eu = N @ np.diag(lams) @ np.linalg.inv(M)
    Eu = 0.5 * (Eu + Eu.T)
    return Linearization(A=A, Bmat=Bmat, lambda1=float(lams[0]),
                         lambda2=float(lams[1]), M=M, N=N, Eu=Eu)
