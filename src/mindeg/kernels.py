"""Floating-point kernels: svec/smat coding, and the PSD projection and
Dykstra loop, which no solver calls since sos_check became a barrier solve
but perfbench/tracer.py binds by name.

One numpy backend. Matrices are svec-coded through cached index arrays
(upper triangle, row-major) and weight vectors, so no kernel loops in
Python over matrix entries; eigenvalues come from numpy's ``eigh``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BACKEND = "numpy"  # perfbench/run.py records it with each run


@functools.lru_cache(maxsize=64)
def _svec_index(n: int):
    """(rows, cols, svec weights, smat weights) of the n x n upper triangle
    in svec order: 1 on the diagonal, sqrt(2) and 1/sqrt(2) off it. The
    arrays are shared by every caller, so they are read-only."""
    iu, ju = np.triu_indices(n)
    off = iu != ju
    to_vec = np.where(off, math.sqrt(2.0), 1.0)
    to_mat = np.where(off, 1.0 / math.sqrt(2.0), 1.0)
    for a in (iu, ju, to_vec, to_mat):
        a.flags.writeable = False
    return iu, ju, to_vec, to_mat


def _clip(w, V):
    """V diag(max(w, 0)) V^T, before symmetrization."""
    return (V * np.where(w > 0.0, w, 0.0)) @ V.T


def project_psd(a: np.ndarray):
    """Frobenius-nearest PSD matrix, plus the smallest eigenvalue seen."""
    w, V = np.linalg.eigh(a)
    P = _clip(w, V)
    return 0.5 * (P + P.T), float(w[0])


def dykstra_chunk(Pmat, x_part, x, p, iters, matdim):
    """Run `iters` Dykstra iterations between the affine slice and the PSD
    cone. State (x, p) is svec-coded; x enters and leaves as the PSD-side
    iterate. Returns (x, p, last min eigenvalue)."""
    iu, ju, to_vec, to_mat = _svec_index(matdim)
    W = np.empty((matdim, matdim))
    wmin_last = 0.0
    for _ in range(iters):
        # project onto the affine slice, add the cone correction, project
        # onto the PSD cone, update the correction
        w = Pmat @ x + x_part + p
        W[iu, ju] = W[ju, iu] = to_mat * w
        evals, evecs = np.linalg.eigh(W)
        wmin_last = float(evals[0])
        P = _clip(evals, evecs)
        x = 0.5 * (P[iu, ju] + P[ju, iu]) * to_vec
        p = w - x
    return x, p, wmin_last


def svec(M: np.ndarray) -> np.ndarray:
    """Symmetric vectorization with sqrt(2) off-diagonal weights, so that
    the Frobenius inner product becomes the dot product."""
    iu, ju, to_vec, _ = _svec_index(M.shape[0])
    return np.asarray(M, dtype=np.float64)[iu, ju] * to_vec


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec."""
    iu, ju, _, to_mat = _svec_index(n)
    out = np.empty((n, n))
    out[iu, ju] = out[ju, iu] = to_mat * np.asarray(v, dtype=np.float64)
    return out
