"""Float kernels: eigensolver, PSD projection, svec coding, Dykstra steps."""

import math

import numpy as np
import pytest

from mindeg.kernels import (BACKEND, dykstra_chunk, project_psd, smat, svec,
                            symmetric_eigen)


def test_backend_resolved():
    assert BACKEND == "numpy"


def test_svec_smat_roundtrip():
    rng = np.random.Generator(np.random.Philox(3))
    A = rng.normal(size=(5, 5))
    A = (A + A.T) / 2
    v = svec(A)
    assert v.shape == (15,)
    assert np.allclose(smat(v, 5), A, atol=1e-14)


def test_svec_preserves_inner_product():
    rng = np.random.Generator(np.random.Philox(4))
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    A = (A + A.T) / 2
    B = (B + B.T) / 2
    assert np.isclose(float(svec(A) @ svec(B)), float(np.tensordot(A, B)),
                      atol=1e-12)


def test_symmetric_eigen_matches_lapack():
    rng = np.random.Generator(np.random.Philox(5))
    A = rng.normal(size=(7, 7))
    A = (A + A.T) / 2
    w, V = symmetric_eigen(A)
    assert np.allclose(w, np.linalg.eigvalsh(A), atol=1e-9)
    assert np.allclose(V @ V.T, np.eye(7), atol=1e-9)
    assert np.allclose((V * w) @ V.T, A, atol=1e-9)


def test_project_psd_reports_min_eigenvalue():
    P, wmin = project_psd(np.diag([3.0, -2.0]))
    assert np.allclose(P, np.diag([3.0, 0.0]), atol=1e-12)
    assert np.isclose(wmin, -2.0, atol=1e-12)


def test_dykstra_converges_on_affine_psd_toy():
    # affine slice: 2x2 symmetric with trace 2 and equal diagonal; nearest
    # PSD point of that slice to the start must satisfy both constraints
    A = np.zeros((2, 3))
    A[0] = svec(np.eye(2))
    A[1] = svec(np.diag([1.0, -1.0]))
    b = np.array([2.0, 0.0])
    AAt_inv = np.linalg.inv(A @ A.T)
    Pmat = np.eye(3) - A.T @ AAt_inv @ A
    x_part = A.T @ AAt_inv @ b
    x = svec(np.array([[5.0, 4.0], [4.0, -3.0]]))
    p = np.zeros(3)
    x, p, wmin = dykstra_chunk(Pmat, x_part, x, p, 400, 2)
    X = smat(Pmat @ x + x_part, 2)
    assert np.allclose(np.trace(X), 2.0, atol=1e-9)
    assert np.isclose(X[0, 0], X[1, 1], atol=1e-9)
    assert np.linalg.eigvalsh(X)[0] >= -1e-7


# Loop reference: the entry-by-entry svec/smat and Dykstra loop that the
# index-array kernels replace. Every float operation of the kernels is the
# same operation in the same order, so results must agree bit for bit.

def _svec_py(M, out):
    n = M.shape[0]
    sqrt2 = math.sqrt(2.0)
    k = 0
    for i in range(n):
        out[k] = M[i, i]
        k += 1
        for j in range(i + 1, n):
            out[k] = sqrt2 * M[i, j]
            k += 1
    return out


def _smat_py(v, out):
    n = out.shape[0]
    inv2 = 1.0 / math.sqrt(2.0)
    k = 0
    for i in range(n):
        out[i, i] = v[k]
        k += 1
        for j in range(i + 1, n):
            out[i, j] = inv2 * v[k]
            out[j, i] = out[i, j]
            k += 1
    return out


def _psd_clip_np(w, V):
    wp = np.where(w > 0.0, w, 0.0)
    P = (V * wp) @ V.T
    return 0.5 * (P + P.T)


def _dykstra_chunk_np(Pmat, x_part, x, p, iters, matdim, eig_tol, max_sweeps):
    W = np.zeros((matdim, matdim))
    wmin_last = 0.0
    for _ in range(iters):
        xl = Pmat @ x + x_part
        w = xl + p
        _smat_py(w, W)
        evals, evecs = np.linalg.eigh(W)
        Y = _psd_clip_np(evals, evecs)
        wmin_last = float(evals[0])
        y = np.empty_like(x)
        _svec_py(Y, y)
        p = w - y
        x = y.copy()
    return x, p, wmin_last, True


def _random_slice(rng, n):
    # affine slice {svec(G) : A svec(G) = b} with about half as many
    # constraints as unknowns, b taken at a random symmetric point
    N = n * (n + 1) // 2
    m = max(1, N // 2)
    A = rng.normal(size=(m, N))
    b = A @ rng.normal(size=N)
    AAt_inv = np.linalg.inv(A @ A.T)
    Pmat = np.eye(N) - A.T @ (AAt_inv @ A)
    x_part = A.T @ (AAt_inv @ b)
    return Pmat, x_part


@pytest.mark.parametrize("n", range(1, 16))
def test_kernels_bit_identical_to_loop_reference(n):
    rng = np.random.Generator(np.random.Philox(100 + n))
    N = n * (n + 1) // 2
    M = rng.normal(size=(n, n))
    v = rng.normal(size=N)
    assert np.array_equal(svec(M), _svec_py(M, np.empty(N)))
    assert np.array_equal(smat(v, n), _smat_py(v, np.zeros((n, n))))
    Pmat, x_part = _random_slice(rng, n)
    # the start is not PSD, so the eigenvalue clip does work
    assert np.linalg.eigvalsh(smat(x_part, n))[0] < 0
    x0, p0 = x_part.copy(), np.zeros(N)
    x, p, wmin = dykstra_chunk(Pmat, x_part, x0, p0, 500, n)
    x_ref, p_ref, wmin_ref, _ = _dykstra_chunk_np(Pmat, x_part, x0, p0, 500,
                                                  n, 1e-12, 64)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(p, p_ref)
    assert wmin == wmin_ref
