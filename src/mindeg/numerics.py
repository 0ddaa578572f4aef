"""Integer-first exact linear algebra.

All exact computation in the package funnels through this module: ranks,
nullspaces, positive definiteness and integer lattice normal forms are
exact. Rational input is cleared of denominators and eliminated over Python
ints: every kernel and solve is one integer echelon form (``_echelon``)
read through its integer kernel vectors, and so is every rank that its
rank modulo a prime (``rank_mod_p``) does not settle against a proved
upper bound; positive definiteness that a shifted float Cholesky does not
prove (``_cholesky_proves_definite``) is an integer LDL^T. Kernels are
primitive integer vectors (``nullspace``); only ``rref`` and
``solve_exact`` return Fractions, each made once from integers. Besides
that Cholesky, the only float code here converts between rationals and
floats; the float kernels live in ``kernels``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_PRIME = 2147483629  # below 2^31: a product of two residues fits in int64


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


def _integer_row(r):
    """The row cleared of denominators and made primitive."""
    if all(type(e) is int for e in r):
        return _primitive(list(r))
    vals = [e if type(e) is int else _frac(e) for e in r]
    den = math.lcm(*[v.denominator for v in vals])
    return _primitive([v.numerator * (den // v.denominator) for v in vals])


def _numerators(values):
    """(L, den): rational values (ints or Fractions) = L / den, L integer,
    den their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(row, prow, c, start=0):
    """row with column c cleared by the pivot row prow, kept primitive;
    columns before start come out 0 (start = c + 1: both vanish before c)."""
    g = math.gcd(prow[c], row[c])
    p, a = prow[c] // g, row[c] // g
    return [0] * start + _primitive([p * x - a * y for x, y in
                                     zip(row[start:], prow[start:])])


def _echelon(rows):
    """Row echelon form by integer forward elimination.

    Returns (pivot rows, pivot columns): primitive integer rows, row k
    zero before its pivot column, so the number of pivots is the rank. The
    pivot is the entry of smallest absolute value in its column; rows that
    reduce to zero are never pivots; a step computes only the columns after
    its pivot, the rest being zero. Input is not mutated.
    """
    rest = [row for row in map(_integer_row, rows) if any(row)]
    mat, pivots = [], []
    for c in range(len(rest[0]) if rest else 0):
        prow = None
        for row in rest:
            if row[c] and (prow is None or abs(row[c]) < abs(prow[c])):
                prow = row
        if prow is None:
            continue
        mat.append(prow)
        pivots.append(c)
        rest = [_eliminate(row, prow, c, c + 1) if row[c] else row
                for row in rest if row is not prow]
        if not rest:
            break
    return mat, pivots


def _kernel_vector(mat, pivots, fc, ncols):
    """The kernel vector of the echelon rows (mat, pivots) that is zero at
    every free column but the free column fc: the primitive integer
    multiple, positive at fc, of the reduced-echelon nullspace vector of
    fc. Back-substitutes that one vector from the last pivot upward, in
    integers: row k fixes the entry at its pivot from the entries after
    it, and the vector is rescaled so that entry is an integer. Only the
    nonzero entries, at fc and at later pivots, are read and rescaled."""
    v = {fc: 1}
    for row, c in zip(reversed(mat), reversed(pivots)):
        s = sum(row[j] * x for j, x in v.items())
        if not s:
            continue
        g = math.gcd(s, row[c])
        a = row[c] // g
        if a != 1:
            v = {j: x * a for j, x in v.items()}
        v[c] = -s // g
    g = math.gcd(*v.values()) if v[fc] > 0 else -math.gcd(*v.values())
    out = [0] * ncols
    for j, x in v.items():
        out[j] = x // g
    return out


def _residue(v, mat, pivots):
    """The integer row v reduced modulo the echelon rows (mat, pivots):
    primitive, zero at every pivot column, zero exactly when v lies in
    their span."""
    for prow, c in zip(mat, pivots):
        if v[c]:
            v = _eliminate(v, prow, c)
    return v


def rref(rows):
    """Reduced row echelon form over the rationals.

    Takes a list of rows (lists of Fraction/int/str); returns (nonzero
    reduced rows of Fractions, pivot column indices). Input is not mutated.

    The integer echelon form, then back-substitution from the last pivot
    upward, so every pivot column is zero outside its own row; only the
    final division by the pivots makes Fractions. The reduced row echelon
    form is unique, so the result equals the one computed over Fractions.
    """
    mat, pivots = _echelon(rows)
    for k in reversed(range(len(mat))):
        c = pivots[k]
        for i in range(k):
            if mat[i][c]:
                mat[i] = _eliminate(mat[i], mat[k], c)
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(mat, pivots)], pivots


def rank_mod_p(rows) -> int:
    """The rank modulo _PRIME of the rows cleared of denominators, by
    Gaussian elimination on int64 residues: at most their rank over the
    rationals, since an r x r minor nonzero mod p is a nonzero integer."""
    a = np.array([[x % _PRIME for x in _integer_row(r)] for r in rows],
                 dtype=np.int64, ndmin=2)
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[:, c])
        if nz.size:
            # clear column c with the row nz[0], which clears itself too
            f = a[nz, c] * pow(int(a[nz[0], c]), -1, _PRIME) % _PRIME
            a[nz, c:] = (a[nz, c:] - np.outer(f, a[nz[0], c:])) % _PRIME
            rank += 1
    return rank


def exact_rank(rows, bound=None) -> int:
    """The rank over the rationals; bound, if given, a proved upper bound on
    it, which a rank mod p then settles when it meets it."""
    if bound is not None and rank_mod_p(rows) == bound:
        return bound
    return len(_echelon(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {v : A v = 0}, exact. Rows may be empty (then ncols required).

    One primitive integer vector per free column fc of the echelon form,
    in column order: _kernel_vector's, positive at fc and zero at every
    other free column, so it is a positive multiple of the vector read off
    the reduced row echelon form."""
    rows = list(rows)
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty row list")
    mat, pivots = _echelon(rows)
    pivset = set(pivots)
    return [_kernel_vector(mat, pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivset]


def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent: the
    solution that is zero at every free column of A. With v the kernel
    vector of [A | b] at its last column, x = -v[:n] / v[n]; that column
    is a pivot exactly when the system is inconsistent."""
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(rows[0]) - 1
    mat, pivots = _echelon(rows)
    if n in pivots:
        return None
    v = _kernel_vector(mat, pivots, n, n + 1)
    return [Fraction(-x, v[n]) for x in v[:n]]


def is_positive_definite(rows, semidefinite=False) -> bool:
    """Exact positive definiteness of a symmetric rational matrix (symmetry
    is assumed, and only the upper triangle is read). Fraction-free LDL^T
    (Bareiss) on the matrix cleared of denominators, kept as the rows of
    its upper triangle: the k-th pivot is the k-th leading principal minor,
    so a zero or negative pivot means not positive definite (Sylvester).

    semidefinite=True decides semidefiniteness: a zero pivot then needs the
    rest of its reduced row zero, and the row is dropped (a PSD matrix has
    a zero row wherever its diagonal is zero).

    Int entries are taken as they are, as _integer_row does; only the
    other entries become Fractions. _cholesky_proves_definite runs first."""
    # a[i][j - i] is entry (i, j), j >= i
    a = [r[i:] for i, r in enumerate(rows)]
    if any(type(e) is not int for r in a for e in r):
        vals = [[e if type(e) is int else _frac(e) for e in r] for r in a]
        den = math.lcm(*[v.denominator for r in vals for v in r])
        a = [[v.numerator * (den // v.denominator) for v in r] for r in vals]
    if _cholesky_proves_definite(a):
        return True
    prev = 1
    for k, ak in enumerate(a):
        p = ak[0]
        if p < 0 or p == 0 and (not semidefinite or any(ak)):
            return False
        if p == 0:
            continue
        for i in range(k + 1, len(a)):
            aki = ak[i - k]
            a[i] = [(p * x - aki * y) // prev for x, y in zip(a[i], ak[i - k:])]
        prev = p
    return True


def _cholesky_proves_definite(a) -> bool:
    """True only if the symmetric integer matrix A, by the rows a[i][j - i]
    = A_ij (j >= i) of its upper triangle, is positive definite: numpy's
    Cholesky factors B = fl(Â - cI), Â = fl(A), M = max |Â_ij|, u = 2^-53,
    c = 4n(n + 2) u M (Rump, BIT 46, 2006). A finite factor L has LL^T =
    B + ΔB, |ΔB| <= γ|L||L^T|, γ = (n + 1) u / (1 - (n + 1) u), in any order
    of the inner products (Higham, Accuracy and Stability, Thm 10.3), so
    ||ΔB||_2 <= γ||L||_F^2 <= γ tr B / (1 - γ) <= γn(M + c)(1 + u) / (1 - γ);
    gradual underflow adds at most 2^-1074 (n + 1)(1 + max L_jj) to each
    |ΔB_ij|, below 2^-1000 n^2 (1 + sqrt M). With |B - (Â - cI)| <= u(M + c)
    and |A - Â| <= u|Â| entrywise, lambda_min(A) >= c - ||ΔB||_2 - u(M + c)
    - u(1 + u)nM, about c - (n + 1)^2 u M > 0 for integers (M >= 1) and
    n^2 u << 1. Overflow leaves an inf or nan in L or fails the factor; a
    failed factor, an entry beyond the floats, M = 0 and a singular A prove
    nothing."""
    n = len(a)
    lower = np.zeros((n, n))
    try:
        for i, r in enumerate(a):
            lower[i:, i] = r
    except OverflowError:
        return False
    m = float(np.abs(lower).max(initial=0.0))
    if not m:
        return False
    lower.flat[::n + 1] -= math.ldexp(4 * n * (n + 2), -53) * m
    try:
        L = np.linalg.cholesky(lower)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(L).all())


def residues(rows, vectors):
    """Each vector reduced modulo the row span of `rows` by their echelon
    form: a primitive integer vector, zero at every pivot column and zero
    exactly when the vector lies in the span. It is a nonzero multiple of
    the reduction by the Fraction RREF, the unique such vector in v + span.
    """
    mat, pivots = _echelon(rows)
    return [_residue(_integer_row(v), mat, pivots) for v in vectors]


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


def saturation_chart(rows, n):
    """A unimodular chart of Z^n adapted to L = span_R(rows) ∩ Z^n.

    Returns (dim, W, W_inv): dim = rank of the rows, W an n x n unimodular
    integer matrix and W_inv its inverse, such that an integer u lies in L
    iff (u·W)[dim:] = 0, and then u = x·W_inv with x = (u·W)[:dim]; the
    rows of W_inv[:dim] are a basis of L.

    L is cut out by the integer kernel K of the rows (u ∈ L iff K u = 0).
    Unimodular column operations V bring K to [0 | H] with H square and
    nonsingular (Euclid on pairs of columns, rows last to first, row i
    cleared into column n - r + i; Cohen 1993, §2.4), so W = V^-T and
    W_inv = V^T. An empty kernel needs no operation: W = I.
    """
    K = nullspace(rows, n)
    r = len(K)
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    W_inv = [row[:] for row in W]

    def addmul(dst, src, q):
        # column dst of K += q * column src
        for row in K:
            row[dst] += q * row[src]
        W_inv[dst] = [a + q * b for a, b in zip(W_inv[dst], W_inv[src])]
        for row in W:
            row[src] -= q * row[dst]

    def swap(a, b):
        for row in K + W:
            row[a], row[b] = row[b], row[a]
        W_inv[a], W_inv[b] = W_inv[b], W_inv[a]

    for i in reversed(range(r)):
        c = n - r + i
        for j in range(c):
            while K[i][j]:
                addmul(c, j, -(K[i][c] // K[i][j]))
                swap(j, c)
    return n - r, W, W_inv


# perfbench/tracer.py times the chart under this name (it looks the
# attribute up by name), so the name stays bound
integer_diagonalize = saturation_chart


# ---------------------------------------------------------------------------
# Float / rational bridge, and the exact JSON form of a rational.


def to_float(rows) -> np.ndarray:
    return np.array([[float(e) for e in r] for r in rows], dtype=np.float64)


def _frac_json(v):
    """The rational v as the exact string pair {"num", "den"}."""
    v = Fraction(v)
    return {"num": str(v.numerator), "den": str(v.denominator)}


def _frac_from_json(blob):
    return Fraction(int(blob["num"]), int(blob["den"]))

