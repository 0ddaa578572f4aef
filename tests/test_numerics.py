"""Exact linear algebra and the PSD projection."""

import copy
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindeg import numerics
from mindeg.kernels import project_psd
from mindeg.numerics import (_PRIME, _echelon, _integer_row, _kernel_vector,
                             exact_rank, is_positive_definite, lattice_index,
                             nullspace, rank_mod_p, residues, rref,
                             saturation_chart, solve_exact, to_float)

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


def _rref_fraction_reference(rows):
    """Gauss-Jordan elimination over Fractions: the rref this package used
    before integer elimination, kept verbatim as the reference."""
    mat = [[F(e) for e in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        if pv != 1:
            mat[r] = [e / pv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([2 ** 200, -2 ** 200, 2 ** 200 + 1, 3 - 2 ** 200]),
    st.fractions(min_value=-2 ** 64, max_value=2 ** 64,
                 max_denominator=2 ** 120),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
)


@st.composite
def _matrices(draw):
    """0-8 rows by 1-8 columns; some rows are zero and some are rational
    combinations of earlier rows, so rank deficiency is common."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["entries", "entries", "zero", "combo"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combo" and rows:
            coeffs = draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * F(r[j]) for c, r in zip(coeffs, rows)),
                             F(0)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=ncols,
                                      max_size=ncols)))
    return rows


def _reference_nullspace(rows, ncols):
    """The nullspace basis read off the Fraction RREF: for each free column
    fc, 1 at fc and -r[fc] at the pivot column of each reduced row r."""
    reduced, pivots = _rref_fraction_reference(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_rref_matches_fraction_reference(rows):
    before = copy.deepcopy(rows)
    reduced, pivots = rref(rows)
    assert rows == before
    assert all(type(a) is type(b) for r, s in zip(rows, before)
               for a, b in zip(r, s))
    ref_reduced, ref_pivots = _rref_fraction_reference(before)
    assert pivots == ref_pivots
    assert reduced == ref_reduced
    assert all(type(e) is Fraction for r in reduced for e in r)
    assert exact_rank(rows) == len(ref_reduced)
    # the integer rows of the nullspace basis read off the Fraction RREF,
    # vector for vector
    if rows:
        ncols = len(rows[0])
        null = nullspace(rows)
        assert null == [_integer_row(v)
                        for v in _reference_nullspace(before, ncols)]
        assert all(type(e) is int for v in null for e in v)
        assert not any(residues(rows, [rows[-1]])[0])
        # a unit vector at a non-pivot column: every row-span vector that
        # is zero at all pivot columns is zero
        free = [c for c in range(len(rows[0])) if c not in ref_pivots]
        if free:
            unit = [0] * len(rows[0])
            unit[free[-1]] = 1
            assert any(residues(rows, [unit])[0])
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(_matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
@example([[0, 3, 0, 6], [0, 0, 0, 0], [0, 6, 1, 12]])
def test_kernel_vector_is_the_integer_nullspace_vector(rows):
    # each free column's vector, back-substituted alone from the forward
    # rows, is the integer row of the Fraction RREF's vector for that column
    ncols = len(rows[0]) if rows else 3
    mat, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    got = [_kernel_vector(mat, pivots, fc, ncols) for fc in free]
    assert got == [_integer_row(v) for v in _reference_nullspace(rows, ncols)]
    assert all(type(x) is int for v in got for x in v)


def test_rref_rejects_float():
    with pytest.raises(TypeError):
        rref([[1, 0.5]])


def _det_laplace(M):
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return F(1)
    return sum(((-1) ** j * M[0][j]
                * _det_laplace([r[:j] + r[j + 1:] for r in M[1:]])
                for j in range(len(M)) if M[0][j] != 0), F(0))


_PD_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k, e: F(k, 2 ** e), st.integers(-40, 40),
              st.integers(0, 60)),
)


@st.composite
def _symmetric(draw):
    """1-6 square symmetric rationals (small ints and dyadics): B^T B with
    k rows (singular PSD when k < n), B^T B + c I, or free entries."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gram", "shifted", "free"]))
    if kind == "free":
        M = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = F(draw(_PD_ENTRIES))
        return M
    k = draw(st.integers(0, n + 1))
    B = [[F(draw(_PD_ENTRIES)) for _ in range(n)] for _ in range(k)]
    c = F(draw(st.sampled_from([0, 0, 1, -1])), draw(st.sampled_from([1, 4])))
    c = c if kind == "shifted" else F(0)
    return [[sum((r[i] * r[j] for r in B), F(0)) + (c if i == j else 0)
             for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(_symmetric())
@example([[F(1), F(0)], [F(0), F(0)]])
@example([[F(0), F(0)], [F(0), F(1)]])
@example([[F(1), F(2)], [F(2), F(1)]])
@example([[F(2), F(-1)], [F(-1), F(2)]])
@example([[F(1, 2 ** 60), F(0)], [F(0), F(3, 2 ** 7)]])
def test_is_positive_definite_matches_leading_minors(M):
    n = len(M)
    minors = [_det_laplace([r[:k] for r in M[:k]]) for k in range(1, n + 1)]
    expected = all(d > 0 for d in minors)
    assert is_positive_definite(M) == expected
    if exact_rank(M) < n:
        assert not expected


@settings(max_examples=300, deadline=None)
@given(_symmetric())
@example([[F(0)]])
@example([[F(0), F(0)], [F(0), F(1)]])
@example([[F(0), F(1)], [F(1), F(1)]])
@example([[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(0)]])
@example([[F(1), F(1), F(1)], [F(1), F(1), F(2)], [F(1), F(2), F(5)]])
def test_is_positive_semidefinite_matches_principal_minors(M):
    # PSD iff every principal minor is nonnegative
    n = len(M)
    expected = all(
        _det_laplace([[M[i][j] for j in rows] for i in rows]) >= 0
        for k in range(1, n + 1) for rows in itertools.combinations(range(n), k))
    assert is_positive_definite(M, semidefinite=True) == expected
    if is_positive_definite(M):
        assert expected


def test_is_positive_definite_rejects_float():
    with pytest.raises(TypeError):
        is_positive_definite([[1.0]])


def test_solve_exact():
    A = _mat([[2, 1], [1, 3]])
    x = solve_exact(A, [F(5), F(10)])
    assert x == [F(1), F(3)]
    assert [sum(a * b for a, b in zip(r, x)) for r in A] == [F(5), F(10)]


def test_solve_exact_inconsistent():
    A = _mat([[1, 1], [2, 2]])
    assert solve_exact(A, [F(1), F(3)]) is None


@st.composite
def _systems(draw):
    """(A, b): A from _matrices with at least one row; b either free
    entries, mostly inconsistent when A is rank-deficient, or A c for a
    rational c, always consistent."""
    A = draw(_matrices().filter(bool))
    if draw(st.booleans()):
        b = draw(st.lists(_ENTRIES, min_size=len(A), max_size=len(A)))
    else:
        c = draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                          min_size=len(A[0]), max_size=len(A[0])))
        b = [sum((x * F(a) for x, a in zip(c, row)), F(0)) for row in A]
    return A, b


@settings(max_examples=300, deadline=None)
@given(_systems())
@example(([[1, 1], [2, 2]], [1, 3]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[0, 0], [0, 0]], [0, 1]))
@example(([[0, 2, 4], [1, 1, 1]], [F(1, 3), 5]))
def test_solve_exact_matches_fraction_reference(system):
    A, b = system
    before = copy.deepcopy(system)
    x = solve_exact(A, b)
    assert (A, b) == before
    n = len(A[0])
    reduced, pivots = _rref_fraction_reference(
        [list(row) + [c] for row, c in zip(A, b)])
    if n in pivots:
        assert x is None
        return
    # the reference read-off: every free column 0, each pivot column the
    # last entry of its reduced row
    want = [F(0)] * n
    for r, pc in zip(reduced, pivots):
        want[pc] = r[-1]
    assert x == want
    assert all(type(c) is Fraction for c in x)
    assert [sum((F(a) * c for a, c in zip(row, x)), F(0)) for row in A] \
        == [F(c) for c in b]


def test_in_row_span():
    # a vector lies in the row span iff its residue is zero
    A = _mat([[1, 0, 1], [0, 1, 1]])
    inside, outside = residues(A, [[F(2), F(3), F(5)], [F(0), F(0), F(1)]])
    assert not any(inside) and any(outside)


def test_rank_transpose_invariance():
    A = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    At = [list(col) for col in zip(*A)]
    assert exact_rank([r[:] for r in A]) == exact_rank(At) == 2


def test_the_prime_is_prime_and_its_products_fit_in_int64():
    assert all(_PRIME % q for q in range(2, math.isqrt(_PRIME) + 1))
    assert (_PRIME - 1) ** 2 < 2 ** 63


_BIG = st.integers(-2 ** 200, 2 ** 200)


@st.composite
def _big_matrices(draw):
    """0-7 rows by 1-7 columns of entries up to 2^200; some rows are
    integer combinations of earlier rows."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(_BIG, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(_BIG, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(_big_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[_PRIME, 0], [0, 1]])
@example([[1, 1], [1, 1 + _PRIME]])
@example([[F(1, 3), F(2, _PRIME)], [1, 2]])
def test_rank_mod_p_is_a_lower_bound(rows):
    before = copy.deepcopy(rows)
    assert rank_mod_p(rows) <= exact_rank(rows)
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32))
def test_rank_mod_p_is_the_rank_of_random_full_rank_matrices(m, n, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(-2 ** 200, 2 ** 200) for _ in range(n)]
            for _ in range(m)]
    assert exact_rank(rows) == min(m, n) == rank_mod_p(rows)
    assert exact_rank(rows, min(m, n)) == min(m, n)


def test_exact_rank_falls_back_when_the_prime_divides_a_minor(monkeypatch):
    # det [[1, 1], [1, 4]] = 3: with the prime patched to 3 the rank mod p
    # misses the bound and the echelon form decides
    rows = [[1, 1], [1, 4]]
    calls = []
    echelon = numerics._echelon
    monkeypatch.setattr(numerics, "_echelon",
                        lambda r: calls.append(1) or echelon(r))
    assert exact_rank(rows, 2) == 2 and not calls
    monkeypatch.setattr(numerics, "_PRIME", 3)
    assert rank_mod_p(rows) == 1
    assert exact_rank(rows, 2) == 2 and calls == [1]
    assert exact_rank([[1, 1], [2, 2]], 2) == 1


def test_lattice_index():
    assert lattice_index([[1, 0], [0, 1]]) == 1
    assert lattice_index([[2, 0], [0, 2]]) == 4
    assert lattice_index([[1, 1], [1, -1]]) == 2
    assert lattice_index([[2]]) == 2
    with pytest.raises(ValueError):
        lattice_index([[2, 4]])


@pytest.mark.parametrize("rows,n", [
    ([[2, 0], [0, 2]], 2),
    ([[1, 4, 2], [0, 3, 5], [2, 2, 1]], 3),
    ([[2, 0, 0], [0, 2, 0]], 3),
    ([[2, 4]], 2),
    ([[2, 3], [4, 6]], 2),
    ([[1, 1, 1, 1], [3, -1, 2, 0]], 4),
    ([[0, 6, 0, 4, 0]], 5),
    ([], 3),
], ids=["diagonal", "full-rank", "rank-deficient", "non-primitive-row",
        "dependent-rows", "rank-2-in-4", "sparse-row", "no-rows"])
def test_saturation_chart(rows, n):
    dim, W, W_inv = saturation_chart(rows, n)
    assert all(sum(W[i][k] * W_inv[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    assert dim == exact_rank(rows)
    if dim == n:
        assert W == W_inv == [[int(i == j) for j in range(n)]
                              for i in range(n)]
    basis = W_inv[:dim]
    # W_inv[:dim] spans the rows and generates every lattice point of the
    # span: each integer point of a small box is in span_R(rows) iff its
    # chart coordinates past dim vanish, and then it is an integer
    # combination of the basis with those coordinates
    assert exact_rank(basis + rows) == dim
    for u in itertools.product(range(-2, 3), repeat=n):
        x = [sum(u[i] * W[i][j] for i in range(n)) for j in range(n)]
        assert any(residues(rows, [u])[0]) == any(x[dim:])
        if not any(x[dim:]):
            assert list(u) == [sum(x[i] * basis[i][j] for i in range(dim))
                               for j in range(n)]
    if rows == [[2, 4]]:
        assert basis in ([[1, 2]], [[-1, -2]])


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
