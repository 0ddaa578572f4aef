"""Sum-of-squares certificates on an embedded variety.

The degree-2 part of the coordinate ring is R_2 = Sym^2(R_1) / I_2. A form
f in R_2 is a sum of squares iff some positive semidefinite Gram matrix G
satisfies sigma(G) = f, where sigma maps a symmetric matrix over R_1 to its
quadratic form in R_2. This module carries the exact Gram map, a float
alternating-projection feasibility solver over it, dual functionals that
certify infeasibility, and the rational separating functionals built from
point configurations on the variety.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DegeneratePosition, InconsistentModel
from .numerics import (exact_rank, is_positive_definite, nullspace,
                       solve_exact, to_float)
from .variety import QuadraticForm, VarietyModel, _pair_index_map

# added to the shifted moment matrix's smallest eigenvalue, well above the
# float error of a unit-norm eigenvalue
_SHIFT_FLOOR = 1e-12


class GramSlice:
    """Exact map sigma, stored by its sparse columns: column c is the
    {R_2 basis index: coefficient} of monomial pair c (i <= j, i-major).
    Surjectivity and the vanishing of the quadric relations are verified
    at construction."""

    def __init__(self, model: VarietyModel):
        self.model = model
        nvars = model.n + 1
        self.pairs, self.pair_index = _pair_index_map(nvars)
        columns = [model.pair_vector(i, j) for i, j in self.pairs]
        rows = [[0] * len(self.pairs) for _ in range(model.dim_r2)]
        for c, col in enumerate(columns):
            for s, coeff in col.items():
                rows[s][c] = coeff
        if exact_rank(rows) != model.dim_r2:
            raise InconsistentModel("Gram map is not surjective onto R_2")
        for terms in model.relation_terms():
            image = {}
            for pair, c in terms:
                for s, coeff in columns[self.pair_index[pair]].items():
                    image[s] = image.get(s, 0) + coeff * c
            if any(v != 0 for v in image.values()):
                raise InconsistentModel(
                    "quadric relation does not lie in the Gram kernel")
        self._columns = columns
        self._a_float = None

    @property
    def kernel_dimension(self) -> int:
        return len(self.pairs) - self.model.dim_r2

    def a_float(self) -> np.ndarray:
        """sigma in svec coordinates: A @ svec(G) equals the coefficient
        vector of sigma(G), because off-diagonal svec entries carry the
        sqrt(2) weight twice."""
        if self._a_float is None:
            A = np.zeros((self.model.dim_r2, len(self.pairs)))
            for c, ((i, j), col) in enumerate(zip(self.pairs, self._columns)):
                w = 1.0 if i == j else math.sqrt(2.0)
                for s, coeff in col.items():
                    A[s, c] = float(coeff) * w
            self._a_float = A
        return self._a_float

    @functools.cached_property
    def solver_maps(self):
        """(A, (A A^T)^-1, projector onto ker A) in svec coordinates, the
        fixed matrices of every sos_check on this slice."""
        A = self.a_float()
        AAt_inv = np.linalg.inv(A @ A.T)
        return A, AAt_inv, np.eye(A.shape[1]) - A.T @ (AAt_inv @ A)

    @functools.cached_property
    def interior_functional(self):
        """(l0, lambda_min of its moment matrix) for a float functional l0
        whose moment matrix is positive definite, also exactly on its dyadic
        values; None when none is found.

        l0 is the projection of the identity onto range sigma*; where that
        is not positive definite, ten Dykstra iterations between range
        sigma* and {M >= 0.1 I} push it inside."""
        A, AAt_inv, Pmat = self.solver_maps
        nvars = self.model.n + 1
        ident = kernels.svec(np.eye(nvars))
        Q = np.eye(len(ident)) - Pmat
        v = Q @ ident
        if np.linalg.eigvalsh(kernels.smat(v, nvars))[0] <= 0:
            x, _, _ = kernels.dykstra_chunk(Q, -0.1 * (Pmat @ ident),
                                            0.9 * ident,
                                            np.zeros_like(ident), 10, nvars)
            v = Q @ (x + 0.1 * ident)
        ell0 = AAt_inv @ (A @ v)
        lam0 = float(np.linalg.eigvalsh(kernels.smat(A.T @ ell0, nvars))[0])
        if lam0 > 0 and is_positive_definite(
                self.moment_matrix([Fraction(t) for t in ell0.tolist()])):
            return ell0, lam0
        return None

    def apply_to_gram(self, G):
        """Exact coefficient vector of sigma(G) for a symmetric rational G."""
        out = [Fraction(0)] * self.model.dim_r2
        for (i, j), col in zip(self.pairs, self._columns):
            g = G[i][j] if i == j else 2 * G[i][j]
            if g == 0:
                continue
            for s, coeff in col.items():
                out[s] += coeff * g
        return out

    def moment_matrix(self, values):
        """Exact sigma-transpose image of a rational functional:
        M[i][j] = l(x_i x_j)."""
        nvars = self.model.n + 1
        M = [[Fraction(0)] * nvars for _ in range(nvars)]
        for (i, j), col in zip(self.pairs, self._columns):
            M[i][j] = M[j][i] = sum(
                (values[s] * coeff for s, coeff in col.items()), Fraction(0))
        return M


@dataclass
class DualFunctional:
    """Linear functional on R_2 by its exact rational values on the
    canonical basis."""

    model: VarietyModel
    values: list

    # every functional is exact; the flag is part of the JSON form
    exact = True

    def __post_init__(self):
        if len(self.values) != self.model.dim_r2:
            raise InconsistentModel("value count must equal dim R_2")
        self.values = [Fraction(v) for v in self.values]

    def apply(self, form: QuadraticForm) -> Fraction:
        return sum((v * c for v, c in zip(self.values, form.coefficients)),
                   Fraction(0))

    def moment_matrix(self, gram_slice: GramSlice | None = None):
        gs = gram_slice if gram_slice is not None else GramSlice(self.model)
        return gs.moment_matrix(self.values)

    def to_json(self):
        vals = [{"num": str(v.numerator), "den": str(v.denominator)}
                for v in self.values]
        return {"model": self.model.name, "exact": True, "values": vals}


@dataclass
class SosResult:
    """Outcome of the Gram feasibility run. status is one of Certificate,
    Infeasible, Undetermined; the payload depends on it."""

    status: str
    iterations: int
    min_eig: float
    residual: float
    gram: np.ndarray | None = None
    functional: DualFunctional | None = None
    separation: float | None = None

    def to_json(self):
        return {
            "status": self.status,
            "iterations": self.iterations,
            "min_eig": self.min_eig,
            "residual": self.residual,
            "gram": None if self.gram is None else
                [[float(x) for x in row] for row in self.gram],
            "functional": None if self.functional is None else
                self.functional.to_json(),
            "separation": self.separation,
        }


def _as_slice(model_or_slice) -> GramSlice:
    if isinstance(model_or_slice, GramSlice):
        return model_or_slice
    return GramSlice(model_or_slice)


def sos_check(form: QuadraticForm, gram_slice: GramSlice | None = None,
              budget: int = 100000, chunk: int = 500, psd_tol: float = 1e-8,
              sep_tol: float = 1e-7) -> SosResult:
    """Decide whether the form is a sum of squares on the model.

    Alternating projections (Dykstra) between the PSD cone and the affine
    slice {G : sigma(G) = f} in svec coordinates. The affine-side iterate is
    always feasible for sigma, so a near-PSD affine iterate (within psd_tol
    on the original scale) is returned as a Certificate. When the slice
    misses the cone, the gap direction projected back through the slice
    yields a dual functional; shifted into the interior of the dual cone,
    it is returned as Infeasible only after an exact proof (see
    _separation). Otherwise the budget runs out: Undetermined.
    """
    gs = _as_slice(gram_slice if gram_slice is not None else form.model)
    if gs.model is not form.model and gs.model.r2_basis != form.model.r2_basis:
        raise InconsistentModel("form and Gram slice use different models")
    nvars = gs.model.n + 1
    A, AAt_inv, Pmat = gs.solver_maps
    b = np.array([float(c) for c in form.coefficients])
    scale = max(1.0, float(np.abs(b).max()))
    bs = b / scale
    x_part = A.T @ (AAt_inv @ bs)

    def affine_result(status, iterations, x_aff, wmin_orig):
        G = kernels.smat(x_aff, nvars) * scale
        resid = float(np.abs(A @ kernels.svec(G / scale) - bs).max()) * scale
        return SosResult(status, iterations, wmin_orig, resid, gram=G)

    x = x_part.copy()
    p = np.zeros_like(x)
    done = 0
    while True:
        x_aff = Pmat @ x + x_part
        Xa = kernels.smat(x_aff, nvars)
        wmin = float(np.linalg.eigvalsh(Xa)[0])
        if wmin * scale >= -psd_tol:
            return affine_result("Certificate", done, x_aff, wmin * scale)
        # separation attempt: gap direction from the affine point to the
        # cone, pushed into the image of the adjoint
        Pp, _ = kernels.project_psd(Xa)
        gap = kernels.svec(Pp - Xa)
        gnorm = float(np.linalg.norm(gap))
        if gnorm > 0:
            # gap points from the affine iterate into the cone; at the
            # proximal pair smat(gap) is PSD and <gap, b-slice> < 0
            ell = AAt_inv @ (A @ gap)
            mnorm = float(np.linalg.norm(A.T @ ell))
            if mnorm > 0:
                res = _separation(gs, form, b, ell / mnorm, sep_tol, done)
                if res is not None:
                    return res
        if done >= budget:
            return affine_result("Undetermined", done, x_aff, wmin * scale)
        step = min(chunk, budget - done)
        x, p, _ = kernels.dykstra_chunk(Pmat, x_part, x, p, step, nvars)
        done += step


def _separation(gs, form, b, ell, sep_tol, iterations):
    """Infeasible with an exactly verified functional near the unit gap
    functional ell, or None.

    The gap functional tends to a point evaluation, whose rank-one moment
    matrix lies on the boundary of the PSD cone. So ell is shifted by
    eps * l0 (l0 the slice's interior functional), with eps =
    (2 max(0, -lambda_min M(ell)) + _SHIFT_FLOOR) / lambda_min M(l0). A
    float value on f above -sep_tol rejects it cheaply; the verdict is
    exact: the shifted values, read as dyadic Fractions, must give a
    positive definite moment matrix and a negative value on f.
    """
    A = gs.a_float()
    nvars = gs.model.n + 1

    def lam_min(v):
        return float(np.linalg.eigvalsh(kernels.smat(A.T @ v, nvars))[0])

    interior = gs.interior_functional
    if interior is not None:
        ell0, lam0 = interior
        eps = (2.0 * max(0.0, -lam_min(ell)) + _SHIFT_FLOOR) / lam0
        ell = ell + eps * ell0
    if float(ell @ b) > -sep_tol:
        return None
    m_min = lam_min(ell)
    if m_min <= 0:
        return None
    fn = DualFunctional(gs.model, ell.tolist())
    val = fn.apply(form)
    if val >= 0 or not is_positive_definite(fn.moment_matrix(gs)):
        return None
    return SosResult("Infeasible", iterations, m_min, 0.0, functional=fn,
                     separation=float(val))


def moment_psd(functional: DualFunctional,
               gram_slice: GramSlice | None = None) -> float:
    """Smallest eigenvalue of the exact moment matrix, in floats."""
    M = to_float(functional.moment_matrix(gram_slice))
    w, _ = kernels.symmetric_eigen(M)
    return float(w[0])


def _sup_normalize(point):
    vals = [Fraction(c) for c in point]
    mx = max(abs(v) for v in vals)
    if mx == 0:
        raise DegeneratePosition("zero vector cannot represent a point")
    return [v / mx for v in vals]


def _check_on_variety(model, point):
    for terms in model.relation_terms():
        if sum(c * point[i] * point[j] for (i, j), c in terms) != 0:
            raise InconsistentModel("point does not satisfy the quadric relations")


def _check_on_variety_complex(model, a, b):
    for terms in model.relation_terms():
        re = sum(c * (a[i] * a[j] - b[i] * b[j]) for (i, j), c in terms)
        im = sum(c * (a[i] * b[j] + a[j] * b[i]) for (i, j), c in terms)
        if re != 0 or im != 0:
            raise InconsistentModel(
                "complex point does not satisfy the quadric relations")


def _basis_rep_pairs(model):
    """One representative monomial pair per R_2 basis element."""
    if not model.is_toric:
        return list(model.r2_basis)
    reps = [None] * model.dim_r2
    for i in range(model.n + 1):
        for j in range(i, model.n + 1):
            s = tuple(a + b for a, b in zip(model.r1_basis[i],
                                            model.r1_basis[j]))
            k = model._sum_index[s]
            if reps[k] is None:
                reps[k] = (i, j)
    return reps


def _unique_dependency(columns, ncols):
    """The one-dimensional exact relation among the given column vectors,
    scaled so its last coordinate is 1. All coordinates must be nonzero."""
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    ns = nullspace(rows)
    if len(ns) != 1:
        raise DegeneratePosition(
            "points admit %d linear relations, need exactly 1" % len(ns))
    lam = ns[0]
    if any(c == 0 for c in lam):
        raise DegeneratePosition("a point drops out of the unique relation")
    last = lam[-1]
    return [c / last for c in lam]


def separating_functional_real(model: VarietyModel, points, kappas=None):
    """Rational functional in Sos* \\ Pos* from e+2 real points on the
    affine cone whose evaluations satisfy a unique linear relation.

    Points are sup-norm normalized. With the relation scaled so the last
    coefficient is 1, the weight on the last point is the harmonic value
    kappa = 1 / sum(lambda_j^2 / kappa_j), which makes the functional
    nonnegative on squares with the last square entering negatively.
    Returns (functional, info) with the relation and weights in info.
    """
    e = model.e
    if len(points) != e + 2:
        raise DegeneratePosition("need exactly e+2 = %d points" % (e + 2))
    pts = _normalized_on_variety(model, points)
    return _functional_from_points(model, pts, kappas)


def _normalized_on_variety(model, points):
    """Sup-norm normalized copies of points checked to lie on the affine
    cone of the model."""
    raw = [[c if isinstance(c, int) else Fraction(c) for c in p]
           for p in points]
    pts = [_sup_normalize(p) for p in raw]
    for p in raw:
        if len(p) != model.n + 1:
            raise DegeneratePosition("point length must be n+1")
        # the relations are homogeneous: the raw point (integer when the
        # input is) satisfies them iff its normalization does
        _check_on_variety(model, p)
    return pts


def _functional_from_points(model, pts, kappas=None):
    """separating_functional_real on e+2 points already normalized and
    checked by _normalized_on_variety."""
    e = model.e
    lam = _unique_dependency(pts, e + 2)
    if kappas is None:
        kappas = [Fraction(1)] * (e + 1)
    kappas = [Fraction(k) for k in kappas]
    if len(kappas) != e + 1 or any(k <= 0 for k in kappas):
        raise DegeneratePosition("need e+1 positive weights")
    inv = sum(lam[j] ** 2 / kappas[j] for j in range(e + 1))
    kappa_last = 1 / inv
    reps = _basis_rep_pairs(model)
    values = []
    for (i, j) in reps:
        v = sum(kappas[t] * pts[t][i] * pts[t][j] for t in range(e + 1))
        v -= kappa_last * pts[e + 1][i] * pts[e + 1][j]
        values.append(v)
    fn = DualFunctional(model, values)
    info = {"lambdas": lam[:e + 1], "kappas": kappas + [kappa_last],
            "points": pts}
    return fn, info


def separating_functional_complex(model: VarietyModel, real_points, a_point,
                                  b_point, kappas=None, rho=0):
    """Variant of the real construction when only e real points are
    available and a conjugate pair a ± b i on the cone completes the
    dependency.

    The raw dependency 0 = sum lambda_j p_j + alpha a + beta b is turned
    into 0 = sum lambda_j' p_j* + a'* by replacing the pair with the
    representative (a' + b' i) = mu (a + b i), mu = (alpha - beta i)/2,
    which keeps all data rational. With c = 1 / sum(lambda_j'^2 / kappa_j),
    the pair weights solve (k1^2 + k2^2) / k1 = c, parameterized by the
    ratio rho = k2 / k1; the functional subtracts k1 ((a'*)^2 - (b'*)^2)
    and adds k2 (2 a'* b'*).
    """
    e = model.e
    if len(real_points) != e:
        raise DegeneratePosition("need exactly e = %d real points" % e)
    pts = _normalized_on_variety(model, real_points)
    a = [Fraction(c) for c in a_point]
    b = [Fraction(c) for c in b_point]
    mx = max(max(abs(v) for v in a), max(abs(v) for v in b))
    if mx == 0:
        raise DegeneratePosition("zero vector cannot represent a point")
    a = [v / mx for v in a]
    b = [v / mx for v in b]
    if all(v == 0 for v in b):
        raise DegeneratePosition("imaginary part is zero; use the real form")
    _check_on_variety_complex(model, a, b)
    # raw real dependency among p_1..p_e, a, b
    rows = [[col[i] for col in pts + [a, b]] for i in range(model.n + 1)]
    ns = nullspace(rows)
    if len(ns) != 1:
        raise DegeneratePosition(
            "points admit %d linear relations, need exactly 1" % len(ns))
    raw = ns[0]
    alpha, beta = raw[e], raw[e + 1]
    if alpha == 0 and beta == 0:
        raise DegeneratePosition("complex pair drops out of the relation")
    if any(c == 0 for c in raw[:e]):
        raise DegeneratePosition("a point drops out of the unique relation")
    # rotate the representative so the pair's coefficient becomes 1
    a_rot = [(alpha * ai + beta * bi) / 2 for ai, bi in zip(a, b)]
    b_rot = [(-beta * ai + alpha * bi) / 2 for ai, bi in zip(a, b)]
    if all(v == 0 for v in b_rot):
        raise DegeneratePosition("rotated pair is real; use the real form")
    lam = [c / 2 for c in raw[:e]]
    if kappas is None:
        kappas = [Fraction(1)] * e
    kappas = [Fraction(k) for k in kappas]
    if len(kappas) != e or any(k <= 0 for k in kappas):
        raise DegeneratePosition("need e positive weights")
    rho = Fraction(rho)
    c = 1 / sum(lam[j] ** 2 / kappas[j] for j in range(e))
    k1 = c / (1 + rho ** 2)
    k2 = rho * k1
    reps = _basis_rep_pairs(model)
    values = []
    for (i, j) in reps:
        v = sum(kappas[t] * pts[t][i] * pts[t][j] for t in range(e))
        v -= k1 * (a_rot[i] * a_rot[j] - b_rot[i] * b_rot[j])
        v += k2 * (a_rot[i] * b_rot[j] + a_rot[j] * b_rot[i])
        values.append(v)
    fn = DualFunctional(model, values)
    info = {"lambdas": lam, "kappas": kappas + [k1, k2],
            "points": pts, "a": a_rot, "b": b_rot}
    return fn, info


def interpolant_through_points(model: VarietyModel, points, targets):
    """Exact linear form g in R_1 with g(p_j) = target_j; the system is
    underdetermined in general and any solution serves."""
    rows = [[Fraction(c) for c in p] for p in points]
    rhs = [Fraction(t) for t in targets]
    g = solve_exact(rows, rhs)
    if g is None:
        raise DegeneratePosition("interpolation conditions are inconsistent")
    return g


def pair_with_square(functional: DualFunctional, g,
                     gram_slice: GramSlice | None = None):
    """Exact value l(g^2) via the moment matrix quadratic form."""
    M = functional.moment_matrix(gram_slice)
    g = [Fraction(c) for c in g]
    total = Fraction(0)
    for i, gi in enumerate(g):
        if gi == 0:
            continue
        for j, gj in enumerate(g):
            if gj != 0:
                total += gi * gj * M[i][j]
    return total


def kernel_dimension(functional: DualFunctional,
                     gram_slice: GramSlice | None = None) -> int:
    """dim Ker of the moment matrix, by an exact nullspace."""
    return len(nullspace(functional.moment_matrix(gram_slice)))


def extremality_check(functional: DualFunctional,
                      gram_slice: GramSlice | None = None):
    """Whether the functional spans an extremal ray of the dual cone of
    sums of squares: the space of functionals whose moment matrix kills
    Ker(M) must be one-dimensional. Exact arithmetic only."""
    gs = gram_slice if gram_slice is not None else GramSlice(functional.model)
    M = functional.moment_matrix(gs)
    kern = nullspace([row[:] for row in M])
    if not kern:
        return False, 0
    nvars = functional.model.n + 1
    dim_r2 = functional.model.dim_r2
    rows = []
    for k in kern:
        support = [(j, kj) for j, kj in enumerate(k) if kj != 0]
        for i in range(nvars):
            # (M(l) k)_i = sum_j k_j l(x_i x_j), linear in l's values
            row = [Fraction(0)] * dim_r2
            for j, kj in support:
                col = gs._columns[gs.pair_index[(i, j) if i <= j else (j, i)]]
                for s, coeff in col.items():
                    row[s] += coeff * kj
            rows.append(row)
    dim = len(nullspace(rows, dim_r2))
    return dim == 1, dim
