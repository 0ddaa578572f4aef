"""Exact linear algebra and the symmetric eigensolver."""

from fractions import Fraction

import numpy as np
import pytest

from mindeg.kernels import project_psd, symmetric_eigen
from mindeg.numerics import (exact_rank, in_row_span, integer_diagonalize,
                             lattice_index, nullspace, rref, solve_exact,
                             to_float)

F = Fraction


def _mat(rows):
    return [[F(x) for x in r] for r in rows]


def test_rank_identity():
    assert exact_rank(_mat([[1, 0], [0, 1]])) == 2
    assert nullspace(_mat([[1, 0], [0, 1]])) == []


def test_rank_one_row():
    A = _mat([[1, 1, 1]])
    assert exact_rank([r[:] for r in A]) == 1
    ns = nullspace(A)
    assert len(ns) == 2
    for v in ns:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)


def test_evaluation_matrix_nullspace():
    # functions 1, x, y, x+y at three generic rational points: the only
    # dependency is x + y - (x+y)
    pts = [(F(1), F(2)), (F(3, 2), F(-1)), (F(0), F(5, 3))]
    A = [[F(1), x, y, x + y] for x, y in pts]
    r, ns = exact_rank(A), nullspace(A)
    assert r == 3
    assert len(ns) == 1
    v = ns[0]
    scale = v[1]
    assert scale != 0
    assert [c / scale for c in v] == [F(0), F(1), F(1), F(-1)]


def test_rref_pivots():
    reduced, pivots = rref(_mat([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert reduced[0][1] == 0


def test_solve_exact():
    A = _mat([[2, 1], [1, 3]])
    x = solve_exact(A, [F(5), F(10)])
    assert x == [F(1), F(3)]
    assert [sum(a * b for a, b in zip(r, x)) for r in A] == [F(5), F(10)]


def test_solve_exact_inconsistent():
    A = _mat([[1, 1], [2, 2]])
    assert solve_exact(A, [F(1), F(3)]) is None


def test_in_row_span():
    A = _mat([[1, 0, 1], [0, 1, 1]])
    assert in_row_span(A, [F(2), F(3), F(5)])
    assert not in_row_span(A, [F(0), F(0), F(1)])


def test_rank_transpose_invariance():
    A = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    At = [list(col) for col in zip(*A)]
    assert exact_rank([r[:] for r in A]) == exact_rank(At) == 2


def test_lattice_index():
    assert lattice_index([[1, 0], [0, 1]]) == 1
    assert lattice_index([[2, 0], [0, 2]]) == 4
    assert lattice_index([[1, 1], [1, -1]]) == 2
    assert lattice_index([[2]]) == 2
    with pytest.raises(ValueError):
        lattice_index([[2, 4]])


def test_integer_diagonalize_consistency():
    invariants, W, W_inv = integer_diagonalize([[2, 0], [0, 2]])
    prod = 1
    for d in invariants:
        prod *= d
    assert prod == lattice_index([[2, 0], [0, 2]])
    n = len(W)
    for i in range(n):
        for j in range(n):
            s = sum(W[i][k] * W_inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_integer_diagonalize_rank_deficient():
    invariants, W, W_inv = integer_diagonalize([[2, 0, 0], [0, 2, 0]])
    assert len(invariants) == 2
    n = len(W)
    for i in range(n):
        for j in range(n):
            s = sum(W[i][k] * W_inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_sym_eigen_diagonal():
    vals, _ = symmetric_eigen(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(vals), [1.0, 2.0, 3.0], atol=1e-12)


def test_sym_eigen_swap():
    vals, _ = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-12)


def test_sym_eigen_gram_psd():
    rng = np.random.Generator(np.random.Philox(7))
    B = rng.integers(-3, 4, size=(8, 8))
    G = (B.T @ B).astype(float)
    vals, _ = symmetric_eigen(G)
    assert min(vals) >= -1e-9


def test_sym_eigen_rotation_invariance():
    # conjugating by the 3-4-5 rotation must not move the spectrum
    c, s = 0.6, 0.8
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    D = np.diag([1.0, 2.0, 3.0])
    vals, _ = symmetric_eigen(R @ D @ R.T)
    assert np.allclose(sorted(vals), [1.0, 2.0, 3.0], atol=1e-9)


def test_psd_project_fixed_point():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    P, _ = project_psd(A)
    assert np.allclose(P, A, atol=1e-10)


def test_psd_project_clips_negative():
    P, _ = project_psd(np.diag([1.0, -1.0]))
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-10)


def test_psd_project_off_diagonal():
    P, _ = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(P, np.full((2, 2), 0.5), atol=1e-10)


def test_psd_project_idempotent():
    rng = np.random.Generator(np.random.Philox(11))
    A = rng.normal(size=(6, 6))
    P, _ = project_psd((A + A.T) / 2)
    P2, _ = project_psd(P)
    assert np.abs(P2 - P).max() <= 2e-8


def test_float_rational_bridge():
    assert to_float([[F(1, 3)]])[0, 0] == pytest.approx(1 / 3)
