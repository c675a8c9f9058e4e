
import numpy as np
import pytest

from septrans.equilibrium import check_positive_definite, linearize
from septrans.models import HamiltonianModel, HypothesesError, builtin_model
from septrans.loops import loop_profile
from septrans.riccati import riccati_initial


def constant_model(A, B):
    """Model whose jets reproduce the given matrices at the origin."""
    a11, a12, a22 = A[0][0], A[0][1], A[1][1]
    b11, b12, b22 = B[0][0], B[0][1], B[1][1]
    return HamiltonianModel(
        b110=lambda q1: b11, b120=lambda q1: b12, b220=lambda q1: b22,
        b112=lambda q1: 0.0, b122=lambda q1: 0.0, b222=lambda q1: 0.0,
        V0=lambda q1: -0.5 * a11 * q1 * q1,
        V1=lambda q1: -a12 * q1,
        Y=lambda q1: a22,
        domain=(0.0, 1.0))


def test_neumann_linearization():
    m = builtin_model("neumann", [1.0, 2.0])
    lin = linearize(m)
    assert lin.lambda1 == pytest.approx(1.0, abs=1e-8)
    assert lin.lambda2 == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(lin.A, np.diag([1.0, 4.0]), atol=1e-6)
    assert np.allclose(lin.Eu, np.diag([1.0, 2.0]), atol=1e-8)
    assert np.allclose(np.abs(lin.M), np.eye(2), atol=1e-10)


def test_identical_pendula_linearization():
    m = builtin_model("pendula_identical", [0.0])
    lin = linearize(m)
    assert lin.lambda1 == pytest.approx(1.0, abs=1e-9)
    assert lin.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(lin.A, [[2.0, 1.0], [1.0, 1.0]], atol=1e-7)
    res = lin.Eu @ lin.Bmat @ lin.Eu - lin.A
    assert np.max(np.abs(res)) < 1e-10 * np.max(np.abs(lin.A))


def test_diagonal_case():
    lin = linearize(constant_model([[4.0, 0.0], [0.0, 9.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]))
    assert (lin.lambda1, lin.lambda2) == pytest.approx((2.0, 3.0), abs=1e-8)
    assert np.allclose(lin.Eu, np.diag([2.0, 3.0]), atol=1e-8)


def test_indefinite_kinetic_form_raises():
    with pytest.raises(HypothesesError, match="B\\(0,0\\) is not positive "
                       "definite"):
        linearize(constant_model([[4.0, 0.0], [0.0, 9.0]],
                                 [[-1.0, 0.0], [0.0, 1.0]]))


def test_eigenvector_residual():
    m = builtin_model("pendula_weak", [2.0])
    lin = linearize(m)
    BA = lin.Bmat @ lin.A
    for k, lam in enumerate((lin.lambda1, lin.lambda2)):
        v = lin.M[:, k]
        r = BA @ v - lam * lam * v
        assert np.linalg.norm(r) < 1e-10 * max(1.0, np.linalg.norm(BA @ v))


def test_not_hyperbolic():
    with pytest.raises(HypothesesError):
        linearize(constant_model([[-1.0, 0.0], [0.0, 1.0]],
                                 [[1.0, 0.0], [0.0, 1.0]]))


def test_check_positive_definite():
    assert check_positive_definite(np.eye(2))
    assert not check_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
    lin = linearize(builtin_model("neumann", [1.0, 2.0]))
    assert check_positive_definite(lin.Eu)


def test_product_eigenvalue_property():
    # eigenvalues of G*Q (G spd, Q symmetric) are all real-positive exactly
    # when Q is positive definite
    rng = np.random.default_rng(7)
    for _ in range(50):
        R = rng.normal(size=(2, 2))
        G = R @ R.T + 1e-3 * np.eye(2)
        Q = rng.normal(size=(2, 2))
        Q = 0.5 * (Q + Q.T)
        w = np.linalg.eigvals(G @ Q)
        all_real_pos = np.all(np.abs(w.imag) < 1e-12) and np.all(w.real > 0)
        assert all_real_pos == check_positive_definite(Q)


@pytest.mark.parametrize("spec", [
    ("neumann", [1.0, 2.0]),
    ("neumann", [0.7, 2.9]),
    ("pendula_identical", [0.15]),
    ("pendula_identical", [0.2, -0.1]),
    ("pendula_weak", [1.0]),
    ("pendula_weak", [3.0]),
])
def test_quadratic_form_identity_builtins(spec):
    m = builtin_model(*spec)
    lin = linearize(m)
    res = lin.Eu @ lin.Bmat @ lin.Eu - lin.A
    assert np.max(np.abs(res)) < 1e-10 * max(1.0, np.max(np.abs(lin.A)))
    assert check_positive_definite(lin.Eu)
    assert np.allclose(lin.Es, -lin.Eu)
    # (2,2) entry of Eu is the initial transverse slope of the Riccati flow
    T0, _ = riccati_initial(loop_profile(m))
    assert lin.Eu[1, 1] == pytest.approx(T0, abs=1e-10)
