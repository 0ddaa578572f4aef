"""Integer-first exact linear algebra.

All exact computation in the package funnels through this module: ranks,
nullspaces, and integer lattice normal forms are exact, with no floating
shortcut. Rational input is cleared of denominators and eliminated over
Python ints; results come back as ``fractions.Fraction``. The only float
code here converts between rationals and floats; the float kernels live in
``kernels``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("rational entries must be Fraction, int, or string, got %r" % type(x))


def _primitive(row):
    """The integer row divided by the gcd of its entries (a zero row stays)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(rows):
    """Reduced row echelon form over the rationals.

    Takes a list of rows (lists of Fraction/int/str); returns (nonzero
    reduced rows of Fractions, pivot column indices). Input is not mutated.

    Integer row elimination: each row is cleared of denominators and kept
    primitive, the pivot is the entry of smallest absolute value in its
    column, and only the final division by the pivots makes Fractions. The
    reduced row echelon form is unique, so the result equals the one
    computed over Fractions.
    """
    mat = []
    for r in rows:
        vals = [e if type(e) is int else _frac(e) for e in r]
        den = math.lcm(*[v.denominator for v in vals])
        row = _primitive([v.numerator * (den // v.denominator) for v in vals])
        if any(row):
            mat.append(row)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            a = mat[i][c]
            if a and (pivot_row is None or abs(a) < abs(mat[pivot_row][c])):
                pivot_row = i
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            a = mat[i][c]
            if i != r and a:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                mat[i] = _primitive([pg * x - ag * y
                                     for x, y in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(mat, pivots)], pivots


def exact_rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis of {v : A v = 0}, exact. Rows may be empty (then ncols required)."""
    rows = list(rows)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty row list")
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent."""
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) - 1
    red, pivots = rref(rows)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[-1]
    return x


def in_row_span(rows, v) -> bool:
    """Exact membership of v in the row span of `rows`."""
    rows = list(rows)
    if not rows:
        return all(_frac(e) == 0 for e in v)
    base = exact_rank(rows)
    return exact_rank(rows + [list(v)]) == base


# ---------------------------------------------------------------------------
# Integer lattice normal forms.


def lattice_index(diff_rows) -> int:
    """|det| of the lattice generated by integer row vectors, inside Z^m.

    Rows must span a finite-index sublattice of Z^m (full rank). Unimodular
    row reduction only, so the lattice is preserved; the result equals the
    product of the Smith invariant factors.
    """
    rows = [list(map(int, r)) for r in diff_rows if any(r)]
    if not rows:
        raise ValueError("zero lattice has infinite index")
    m = len(rows[0])
    det = 1
    for c in range(m):
        pivot = None
        for i in range(len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("rows do not span a full-rank lattice")
        rows[0], rows[pivot] = rows[pivot], rows[0]
        # gcd elimination down column c
        while True:
            done = True
            for i in range(1, len(rows)):
                if rows[i][c] == 0:
                    continue
                if abs(rows[i][c]) < abs(rows[0][c]):
                    rows[0], rows[i] = rows[i], rows[0]
                q = rows[i][c] // rows[0][c]
                if q != 0:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[0])]
                if rows[i][c] != 0:
                    done = False
            if done:
                break
        det *= abs(rows[0][c])
        rows = rows[1:]
        if not rows and c < m - 1:
            raise ValueError("rows do not span a full-rank lattice")
    return det


def integer_diagonalize(rows_in):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (invariants, W, W_inv) where invariants are the positive diagonal
    entries (length = rank), W is the accumulated column transform, and
    W_inv its exact integer inverse. Row operations are applied untracked.

    Used for: saturation of a difference lattice (rows of W_inv[:rank] are a
    basis of span_R(rows) ∩ Z^N) and coordinates in it (u ↦ (u·W)[:rank]).
    """
    A = [list(map(int, r)) for r in rows_in]
    if not A:
        raise ValueError("empty matrix")
    ncols = len(A[0])
    W = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_swap(c1, c2):
        for r in A:
            r[c1], r[c2] = r[c2], r[c1]
        for r in W:
            r[c1], r[c2] = r[c2], r[c1]

    def col_addmul(dst, src, q):
        # column dst += q * column src
        for r in A:
            r[dst] += q * r[src]
        for r in W:
            r[dst] += q * r[src]

    def col_negate(c):
        for r in A:
            r[c] = -r[c]
        for r in W:
            r[c] = -r[c]

    t = 0
    nrows = len(A)
    while t < min(nrows, ncols):
        # find a nonzero pivot at or below/right of (t, t)
        pi = pj = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pi, pj = i, j
        if pi is None:
            break
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear column t below the pivot by row ops
            for i in range(t + 1, nrows):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    if q != 0:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        A[t], A[i] = A[i], A[t]
            if any(A[i][t] != 0 for i in range(t + 1, nrows)):
                continue
            # clear row t to the right of the pivot by column ops
            for j in range(t + 1, ncols):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    if q != 0:
                        col_addmul(j, t, -q)
                    if A[t][j] != 0:
                        col_swap(t, j)
            if any(A[t][j] != 0 for j in range(t + 1, ncols)) or \
               any(A[i][t] != 0 for i in range(t + 1, nrows)):
                continue
            break
        if A[t][t] < 0:
            col_negate(t)
        t += 1
    invariants = [A[i][i] for i in range(t)]
    W_inv_rows = _invert_unimodular(W)
    return invariants, [list(r) for r in W], W_inv_rows


def _invert_unimodular(W):
    n = len(W)
    aug = [list(W[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = [r[n:] for r in red]
    out = []
    for r in inv:
        row = []
        for e in r:
            if e.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(e))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Float / rational bridge.


def to_float(rows) -> np.ndarray:
    return np.array([[float(e) for e in r] for r in rows], dtype=np.float64)

