"""Sum-of-squares certificates on an embedded variety.

The degree-2 part of the coordinate ring is R_2 = Sym^2(R_1) / I_2. A form
f in R_2 is a sum of squares iff some positive semidefinite Gram matrix G
satisfies sigma(G) = f, where sigma maps a symmetric matrix over R_1 to its
quadratic form in R_2. The model owns sigma and its transpose sigma*, the
moment matrix of a functional (VarietyModel.sigma and .moment). This
module carries the solver's view of it (GramSlice), the SOS decision over
it (a float log-det barrier in the quadric coordinates whose verdicts are
proved exactly: a rational PSD Gram matrix, or a rational dual functional
with a positive definite moment matrix), and the rational separating
functionals built from point configurations on the variety.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DegeneratePosition, InconsistentModel
from .numerics import (_frac_json, _integer_row, _numerators, exact_rank,
                       is_positive_definite, nullspace, solve_exact, to_float)
from .variety import QuadraticForm, VarietyModel


class GramSlice:
    """The solver's view of the model's map sigma: its pairs, with the
    float matrices and the exact denominator that every sos_check on the
    model shares."""

    def __init__(self, model: VarietyModel):
        self.model = model
        self.pairs = model.pairs
        self._a_float = None

    @functools.cached_property
    def sigma_den(self) -> int:
        """The lcm of the denominators of sigma's coefficients."""
        return math.lcm(*(c.denominator for col in self.model.columns
                          for c in col.values()))

    def a_float(self) -> np.ndarray:
        """sigma in svec coordinates: A @ svec(G) equals the coefficient
        vector of sigma(G), because off-diagonal svec entries carry the
        sqrt(2) weight twice."""
        if self._a_float is None:
            A = np.zeros((self.model.dim_r2, len(self.pairs)))
            for c, (i, j) in enumerate(self.pairs):
                w = 1.0 if i == j else math.sqrt(2.0)
                for s, coeff in self.model.columns[c].items():
                    A[s, c] = float(coeff) * w
            self._a_float = A
        return self._a_float

    @functools.cached_property
    def solver_maps(self):
        """(A, (A A^T)^-1, F), the fixed float matrices of every sos_check
        on this slice. F stacks the directions of the barrier variables
        (y, t): smat of an orthonormal svec basis Q_1..Q_k of ker A, the
        quadric directions of the Gram slice, then -I."""
        A = self.a_float()
        AAt_inv = np.linalg.inv(A @ A.T)
        nvars = self.model.n + 1
        ker = np.linalg.svd(A)[2][A.shape[0]:]
        F = np.array([kernels.smat(q, nvars) for q in ker] + [-np.eye(nvars)])
        return A, AAt_inv, F

    def apply_to_gram(self, G):
        """Exact coefficient vector of sigma(G) for a symmetric rational G:
        pair weights G_ii and 2 G_ij; ints stay ints."""
        return self.model.sigma(G[i][j] if i == j else 2 * G[i][j]
                                for i, j in self.pairs)


@dataclass
class DualFunctional:
    """Linear functional on R_2 by its exact rational values on the
    canonical basis."""

    model: VarietyModel
    values: list

    def __post_init__(self):
        if len(self.values) != self.model.dim_r2:
            raise InconsistentModel("value count must equal dim R_2")
        self.values = [Fraction(v) for v in self.values]

    def apply(self, form: QuadraticForm) -> Fraction:
        if form.model is not self.model:
            raise InconsistentModel("form and functional use different models")
        return sum((v * c for v, c in zip(self.values, form.coefficients)),
                   Fraction(0))

    def moment_matrix(self):
        return self.model.moment(self.values)

    def to_json(self):
        return {"model": self.model.name, "exact": True,
                "values": [_frac_json(v) for v in self.values]}


@dataclass
class SosResult:
    """Outcome of sos_check: Certificate (exact rational Gram matrix,
    residual 0.0), Infeasible (exact dual functional and its value on the
    form) or Undetermined. min_eig is the float smallest eigenvalue of the
    Gram or moment matrix; iterations counts Newton steps."""

    status: str
    iterations: int
    min_eig: float
    residual: float
    gram: list | None = None
    functional: DualFunctional | None = None
    separation: float | None = None

    def to_json(self):
        out = dict(vars(self))
        out["gram"] = None if self.gram is None else \
            [[_frac_json(x) for x in row] for row in self.gram]
        out["functional"] = None if self.functional is None else \
            self.functional.to_json()
        return out


# Gram rounding grid, 2^-bits times the form's scale; start weight (times
# n + 1, so that the first gap bound is 1/64 of the scale), barrier weight
# step, centering bound on the squared Newton decrement, and weight cap
_GRID_BITS = 30
_START_WEIGHT = 64.0
_WEIGHT_STEP = 8.0
_CENTERED = 1e-2
_MAX_WEIGHT = 2.0 ** 40
# sufficient decrease of a backtracking step, as a share of s * dec
_ARMIJO = 1e-2
# G0 (in units of the scale) with lambda_min below minus this gets no
# exact test
_FAR_FROM_PSD = 2.0 ** -10


def sos_check(form: QuadraticForm, gram_slice: GramSlice | None = None,
              budget: int = 1000) -> SosResult:
    """Decide whether the form is a sum of squares on the model, with an
    exact proof either way; `budget` caps the Newton steps. `gram_slice`, a
    GramSlice of form.model itself and of no other model (InconsistentModel),
    shares its float matrices across calls; by default one is built. The
    columns of sigma come from the model (VarietyModel.columns), and
    _certificate puts residuals on its representative pairs
    (VarietyModel.rep_pairs).

    The Gram slice is G0 + span{Q_i} (G0 least-norm, Q_i from solver_maps).
    Newton steps on -c t - log det S, S = G0 + sum y_i Q_i - t I, maximize
    t; c starts at 64 (n + 1), a first gap bound of 1/64 of the form's scale
    (Boyd & Vandenberghe, Convex Optimization, 11.3.1), and grows after each
    centering (Vandenberghe & Boyd, SIAM Review 1996). Each step backtracks
    on sufficient decrease from 0.99 of the exact distance to the boundary
    S > 0 (at most the full Newton step), never below the damped step
    1 / (1 + sqrt(dec)) of a self-concordant barrier (9.6 and 11.5).
    Certificate: G0 unless floats see it far from PSD, then S + t I
    whenever t > 0 has doubled, made exact by _certificate (Peyrl &
    Parrilo, TCS 2008).
    Infeasible: at a center Z = S^-1 / c has trace 1, <Z, Q_i> = 0 and
    <G0, Z> = t + (n+1)/c; when that is negative, _center_dual makes Z's
    preimage under sigma* an exact dual functional. Undetermined: the
    budget ran out.

    Input range: rational coefficients whose floats are below 2^1023 in
    size (about 9e307), so that the power of two above max |f_s|, the scale
    of the float solve, is a finite float; a larger one raises
    OverflowError. A coefficient below about 2^-1074 times that scale is
    zero to the solve; the verdict stays exact, but such a form may end
    Undetermined.
    """
    gs = gram_slice if gram_slice is not None else GramSlice(form.model)
    if gs.model is not form.model:
        raise InconsistentModel("form and Gram slice use different models")
    nvars = gs.model.n + 1
    A, AAt_inv, F = gs.solver_maps
    b = np.array([float(c) for c in form.coefficients])
    # a power of two (1 for the zero form), so that scaling is exact
    scale = math.ldexp(1.0, math.frexp(float(np.abs(b).max()))[1])
    G0 = kernels.smat(A.T @ (AAt_inv @ (b / scale)), nvars)
    Ff = F.reshape(len(F), -1)

    def at(v):
        # G0 + sum v_a F_a over the first len(v) directions: S at z = (y, t),
        # the Gram matrix S + t I at y
        return G0 + (v @ Ff[:len(v)]).reshape(nvars, nvars)

    lam0 = float(np.linalg.eigvalsh(G0)[0])
    z = np.zeros(len(F))
    z[-1] = lam0 - 1.0
    L = np.linalg.cholesky(G0 - z[-1] * np.eye(nvars))
    c, tried, done = _START_WEIGHT * nvars, 0.0, 0
    # rounding G0 moves it by some 2^-30 of the scale, so the exact test
    # cannot pass where floats see G0 far from PSD
    res = _certificate(gs, form, G0, scale, 0) \
        if lam0 > -_FAR_FROM_PSD else None
    while res is None and done < budget:
        # W_a = L^-1 F_a L^-T: gradient -tr W_a (-c more for t), Hessian
        # <W_a, W_b>
        Linv = np.linalg.inv(L)
        W = Linv @ F @ Linv.T
        grad = -np.trace(W, axis1=1, axis2=2)
        grad[-1] -= c
        Wf = W.reshape(len(F), -1)
        try:
            step = np.linalg.solve(Wf @ Wf.T, -grad)
        except np.linalg.LinAlgError:
            step = np.zeros(len(F))
        dec = float(-grad @ step)
        done += 1
        # S is I + s D in factor coordinates (D = sum step_a W_a), so the
        # boundary is at s = 1 / -lambda_min(D) >= 1 / sqrt(dec); from 0.99
        # of it (at most 1), halve while S is not positive definite in floats
        # or the objective falls by less than _ARMIJO * s * dec, but never
        # below the damped step, which is taken whenever S keeps its
        # Cholesky factor, and halved at most 60 times while it does not
        floor = 1.0 / (1.0 + math.sqrt(dec)) if dec >= 0 else 0.0
        lam = float(np.linalg.eigvalsh(np.tensordot(step, W, 1))[0]) \
            if 0 < dec < math.inf else 0.0
        s = max(min(1.0, 0.99 / -lam), floor) if lam < 0 else 1.0
        s, tries = (s if dec > 0 else floor), 60
        obj = _objective(c, z, L)
        while tries:
            Ln = _factor(at(z + s * step))
            if Ln is not None and (s <= floor or _objective(
                    c, z + s * step, Ln) <= obj - _ARMIJO * s * dec):
                break
            if s > floor:
                s = max(0.5 * s, floor)
            else:
                s, tries = 0.5 * s, tries - 1
        if Ln is not None:
            z, L = z + s * step, Ln
        if z[-1] > 0 and z[-1] >= 2.0 * tried:
            tried = z[-1]
            res = _certificate(gs, form, at(z[:-1]), scale, done)
        if res is None and dec <= _CENTERED:
            if z[-1] + nvars / c < 0:
                res = _center_dual(gs, form, L, c, done)
            c = min(c * _WEIGHT_STEP, _MAX_WEIGHT)
    if res is None:
        G = at(z[:-1]) * scale
        res = SosResult("Undetermined", done, float(np.linalg.eigvalsh(G)[0]),
                        float(np.abs(A @ kernels.svec(G) - b).max()))
    return res


def _objective(c, z, L):
    """The barrier objective -c t - log det S at z = (y, t), from the
    Cholesky factor L of S."""
    return -c * z[-1] - 2.0 * np.log(np.diagonal(L)).sum()


def _factor(S):
    """The Cholesky factor of S, or None when S is not positive definite in
    floats."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def _certificate(gs, form, G, scale, steps):
    """Certificate from the float Gram matrix G of form / scale, or None:
    G * scale on the grid scale * 2^-_GRID_BITS, with each R_2 basis
    element's residual f_s - sigma(G)_s put on its representative pair
    (column {s: 1}; half on each side off the diagonal). It needs sigma(G)
    = f and an exact LDL^T proof that G is PSD, both over Python ints: the
    Gram matrix is N / D with D = 2 lcm(grid and f denominators) (times the
    lcm of sigma's denominators, 1 on a toric model), so every entry of N
    and every residual is an even int. Fractions are made only for a Gram
    matrix that passes."""
    unit = Fraction(scale) / (1 << _GRID_BITS)
    f = form.coefficients
    D = 2 * gs.sigma_den * math.lcm(unit.denominator,
                                    *(c.denominator for c in f))
    u = unit.numerator * (D // unit.denominator)
    target = [c.numerator * (D // c.denominator) for c in f]
    # G is exactly symmetric, and so is N
    N = [[int(x) * u for x in row]
         for row in np.rint(G * math.ldexp(1.0, _GRID_BITS))]
    have = [int(x) for x in gs.apply_to_gram(N)]
    for s, (i, j) in enumerate(gs.model.rep_pairs):
        r = target[s] - have[s]
        if r:
            N[i][j] += r if i == j else r // 2
            N[j][i] = N[i][j]
    if gs.apply_to_gram(N) != target \
            or not is_positive_definite(N, semidefinite=True):
        return None
    # int / int is correctly rounded, as float(Fraction(x, D)) is
    min_eig = float(np.linalg.eigvalsh([[x / D for x in row] for row in N])[0])
    return SosResult("Certificate", steps, min_eig, 0.0,
                     gram=[[Fraction(x, D) for x in row] for row in N])


def _center_dual(gs, form, L, c, steps):
    """Infeasible from the center S = L L^T at weight c, or None: the
    least-squares preimage l of Z = S^-1 / c under sigma*, on its dyadic
    values, must be negative on f and have a positive definite moment
    matrix, both exactly."""
    A, AAt_inv, _ = gs.solver_maps
    Linv = np.linalg.inv(L)
    fn = DualFunctional(gs.model, (AAt_inv @ (A @ kernels.svec(
        Linv.T @ Linv / c))).tolist())
    val = fn.apply(form)
    M = fn.moment_matrix()
    if val >= 0 or not is_positive_definite(M):
        return None
    return SosResult("Infeasible", steps,
                     float(np.linalg.eigvalsh(to_float(M))[0]), 0.0,
                     functional=fn, separation=float(val))


def moment_psd(functional: DualFunctional) -> float:
    """Smallest eigenvalue of the exact moment matrix, in floats."""
    # eigh, not eigvalsh: eigvalsh's bottom eigenvalue differs in the last
    # bits, and the witness reports this one as moment_min_eig
    return float(np.linalg.eigh(to_float(functional.moment_matrix()))[0][0])


def _sup_normalize(point):
    vals = [Fraction(c) for c in point]
    mx = max(abs(v) for v in vals)
    if mx == 0:
        raise DegeneratePosition("zero vector cannot represent a point")
    return [v / mx for v in vals]


def _unique_dependency(columns):
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
    return [Fraction(c, lam[-1]) for c in lam]


def separating_functional_real(model: VarietyModel, points):
    """Rational functional in Sos* \\ Pos* from e+2 real points on the
    affine cone whose evaluations satisfy a unique linear relation.

    Points are sup-norm normalized. With the relation scaled so the last
    coefficient is 1, the first e+1 points have weight 1 and the last the
    harmonic value kappa = 1 / sum(lambda_j^2), which makes the functional
    nonnegative on squares with the last square entering negatively.
    Returns (functional, info) with the relation, weights and points in info.
    """
    e = model.e
    if len(points) != e + 2:
        raise DegeneratePosition("need exactly e+2 = %d points" % (e + 2))
    raw = [[c if isinstance(c, int) else Fraction(c) for c in p]
           for p in points]
    pts = [_sup_normalize(p) for p in raw]
    for p in raw:
        if len(p) != model.n + 1:
            raise DegeneratePosition("point length must be n+1")
        # the relations are homogeneous: the raw point (integer when the
        # input is) satisfies them iff its normalization does
        if any(sum(c * p[i] * p[j] for (i, j), c in terms)
               for terms in model.relations):
            raise InconsistentModel(
                "point does not satisfy the quadric relations")
    lam = _unique_dependency(pts)
    kappa_last = 1 / sum(lam[j] ** 2 for j in range(e + 1))
    # point t is P_t / den_t with P_t integer; the value on x_i x_j is
    # sum_t w_t P_t[i] P_t[j] / D over one common denominator D, with
    # w_t = D / den_t^2, less kappa_last on the last point
    ints, dens = zip(*map(_numerators, pts))
    sq = [den * den for den in dens]
    sq[-1] *= kappa_last.denominator
    D = math.lcm(*sq)
    weights = [D // s for s in sq]
    weights[-1] *= -kappa_last.numerator
    fn = DualFunctional(model, [
        Fraction(sum(w * P[i] * P[j] for w, P in zip(weights, ints)), D)
        for (i, j) in model.rep_pairs])
    info = {"lambdas": lam[:e + 1],
            "kappas": [Fraction(1)] * (e + 1) + [kappa_last], "points": pts}
    return fn, info


def interpolant_through_points(points, targets):
    """Exact linear form g in R_1 with g(p_j) = target_j; the system is
    underdetermined in general and any solution serves."""
    g = solve_exact(points, targets)
    if g is None:
        raise DegeneratePosition("interpolation conditions are inconsistent")
    return g


def pair_with_square(functional: DualFunctional, g):
    """Exact value l(g^2), with g^2 taken in R_2 by VarietyModel.product."""
    model = functional.model
    return functional.apply(QuadraticForm(model, model.product(g, g)))


def kernel_dimension(functional: DualFunctional) -> int:
    """dim Ker of the moment matrix: its size minus its exact rank."""
    M = functional.moment_matrix()
    return len(M) - exact_rank(M)


def _condition_rows(model, kern):
    """The R_2 vectors x_i k, k-major, as model.product(e_i, k) gives them."""
    rows = []
    for k in kern:
        block = [[0] * model.dim_r2 for _ in range(model.n + 1)]
        for (i, j), col in zip(model.pairs, model.columns):
            for s, coeff in col.items():
                block[i][s] += coeff * k[j]
                if i != j:
                    block[j][s] += coeff * k[i]
        rows += block
    return rows


def extremality_check(functional: DualFunctional, kernel):
    """Whether the functional spans an extremal ray of the dual cone of
    sums of squares: the space of functionals whose moment matrix kills
    Ker(M) must be one-dimensional. Returns (extremal, that dimension),
    which is dim R_2 minus the exact rank of the linear conditions
    M(l) k = 0, k in a basis of Ker(M).

    kernel is that basis: a list of vectors, checked exactly to lie in
    Ker(M) (M k = 0 over the integer rows of M), to be independent and to
    number len(M) - rank(M). A kernel that fails a check raises
    InconsistentModel. Any basis of Ker(M) gives the same conditions, and
    a basis with small entries is cheaper to eliminate than the reduced
    one. Each rank is checked mod p against a proved bound: s for s kernel
    vectors, len(M) - s for M, and s (n + 1) - C(s, 2) for the conditions
    by their independent Koszul relations sum_i k'_i x_i k - k_i x_i k' = 0."""
    M = functional.moment_matrix()
    if any(len(k) != len(M) for k in kernel):
        raise InconsistentModel("kernel vector of the wrong length")
    kern = [_integer_row(k) for k in kernel]
    int_rows = [_integer_row(r) for r in M]
    if any(sum(a * b for a, b in zip(r, k)) for k in kern for r in int_rows):
        raise InconsistentModel("kernel vector outside Ker M")
    s = len(kern)
    if exact_rank(kern, s) != s:
        raise InconsistentModel("kernel vectors are dependent")
    if exact_rank(int_rows, len(M) - s) != len(M) - s:
        raise InconsistentModel("kernel vectors do not span Ker M")
    if not kern:
        return False, 0
    # (M(l) k)_i = l(x_i k), linear in l's values: its row is x_i k in R_2
    rows = _condition_rows(functional.model, kern)
    dim = len(rows[0]) - exact_rank(rows, s * len(M) - math.comb(s, 2))
    return dim == 1, dim
