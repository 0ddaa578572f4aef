"""Sum-of-squares certificates on an embedded variety.

The degree-2 part of the coordinate ring is R_2 = Sym^2(R_1) / I_2. A form
f in R_2 is a sum of squares iff some positive semidefinite Gram matrix G
satisfies sigma(G) = f, where sigma maps a symmetric matrix over R_1 to its
quadratic form in R_2. This module carries the exact Gram map, the SOS
decision over it (a float log-det barrier in the quadric coordinates whose
verdicts are proved exactly: a rational PSD Gram matrix, or a rational
dual functional with a positive definite moment matrix), and the rational
separating functionals built from point configurations on the variety.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DegeneratePosition, InconsistentModel
from .numerics import (_integer_row, exact_rank, is_positive_definite,
                       nullspace, solve_exact, to_float)
from .variety import QuadraticForm, VarietyModel, _pair_index_map


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
        """Exact coefficient vector of sigma(G) for a symmetric rational G;
        ints stay ints."""
        out = [0] * self.model.dim_r2
        for (i, j), col in zip(self.pairs, self._columns):
            g = G[i][j] if i == j else 2 * G[i][j]
            if g == 0:
                continue
            for s, coeff in col.items():
                out[s] += g if coeff == 1 else coeff * g
        return out

    def moment_matrix(self, values):
        """Exact sigma-transpose image of a rational functional:
        M[i][j] = l(x_i x_j). A pair that is a basis monomial s (column
        {s: 1}) reads l(s) itself; only reduced pairs sum Fractions."""
        nvars = self.model.n + 1
        M = [[None] * nvars for _ in range(nvars)]
        for (i, j), col in zip(self.pairs, self._columns):
            (s, coeff), *rest = col.items()
            if not rest and coeff == 1:
                m = values[s]
            else:
                m = sum((values[s] * coeff for s, coeff in col.items()),
                        Fraction(0))
            M[i][j] = M[j][i] = m
        return M


def _frac_json(v):
    v = Fraction(v)
    return {"num": str(v.numerator), "den": str(v.denominator)}


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


# Gram rounding grid, 2^-bits times the form's scale; barrier weight step,
# centering bound on the squared Newton decrement, and weight cap
_GRID_BITS = 30
_WEIGHT_STEP = 8.0
_CENTERED = 1e-2
_MAX_WEIGHT = 2.0 ** 40


def sos_check(form: QuadraticForm, gram_slice: GramSlice | None = None,
              budget: int = 1000) -> SosResult:
    """Decide whether the form is a sum of squares on the model, with an
    exact proof either way; `budget` caps the Newton steps.

    The Gram slice is G0 + span{Q_i} (G0 least-norm, Q_i from solver_maps).
    Damped Newton steps on -c t - log det S, S = G0 + sum y_i Q_i - t I,
    maximize t, and c grows after each centering (Vandenberghe & Boyd, SIAM
    Review 1996). Certificate: G0, then S + t I whenever t > 0 has doubled,
    made exact by _certificate (Peyrl & Parrilo, TCS 2008). Infeasible: at
    a center Z = S^-1 / c has trace 1, <Z, Q_i> = 0 and <G0, Z> = t +
    (n+1)/c; when that is negative, _center_dual makes Z's preimage under
    sigma* an exact dual functional. Undetermined: the budget ran out.
    """
    gs = gram_slice if isinstance(gram_slice, GramSlice) \
        else GramSlice(form.model if gram_slice is None else gram_slice)
    if gs.model is not form.model and gs.model.r2_basis != form.model.r2_basis:
        raise InconsistentModel("form and Gram slice use different models")
    nvars = gs.model.n + 1
    A, AAt_inv, F = gs.solver_maps
    b = np.array([float(c) for c in form.coefficients])
    # a power of two (1 for the zero form), so that scaling is exact
    scale = math.ldexp(1.0, math.frexp(float(np.abs(b).max()))[1])
    G0 = kernels.smat(A.T @ (AAt_inv @ (b / scale)), nvars)
    z = np.zeros(len(F))
    z[-1] = float(np.linalg.eigvalsh(G0)[0]) - 1.0
    L = np.linalg.cholesky(G0 - z[-1] * np.eye(nvars))
    c, tried, done = 1.0, 0.0, 0
    res = _certificate(gs, form, G0, scale, 0)
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
        # the damped step 1 / (1 + sqrt(dec)), halved until S stays
        # positive definite in floats
        s = 1.0 / (1.0 + math.sqrt(dec)) if dec >= 0 else 0.0
        for _ in range(60):
            try:
                Ln = np.linalg.cholesky(G0 + np.tensordot(z + s * step, F, 1))
                if np.isfinite(Ln).all():
                    z, L = z + s * step, Ln
                    break
            except np.linalg.LinAlgError:
                pass
            s *= 0.5
        if z[-1] > 0 and z[-1] >= 2.0 * tried:
            tried = z[-1]
            res = _certificate(gs, form, G0 + np.tensordot(z[:-1], F[:-1], 1),
                               scale, done)
        if res is None and dec <= _CENTERED:
            if z[-1] + nvars / c < 0:
                res = _center_dual(gs, form, L, c, done)
            c = min(c * _WEIGHT_STEP, _MAX_WEIGHT)
    if res is None:
        G = (G0 + np.tensordot(z[:-1], F[:-1], 1)) * scale
        res = SosResult("Undetermined", done, float(np.linalg.eigvalsh(G)[0]),
                        float(np.abs(A @ kernels.svec(G) - b).max()))
    return res


def _certificate(gs, form, G, scale, steps):
    """Certificate from the float Gram matrix G of form / scale, or None:
    G * scale on the grid scale * 2^-_GRID_BITS, with each R_2 basis
    element's residual f_s - sigma(G)_s put on its representative pair
    (column {s: 1}; half on each side off the diagonal). It needs sigma(G)
    = f in Fractions and an exact LDL^T proof that G is PSD."""
    unit = Fraction(scale) / (1 << _GRID_BITS)
    # G is exactly symmetric, and so is its rounding R
    R = [[int(x) for x in row]
         for row in np.rint(G * math.ldexp(1.0, _GRID_BITS))]
    have = gs.apply_to_gram(R)
    Ge = [[x * unit for x in row] for row in R]
    for s, (i, j) in enumerate(_basis_rep_pairs(gs.model)):
        r = form.coefficients[s] - have[s] * unit
        if r:
            Ge[i][j] += r if i == j else r / 2
            Ge[j][i] = Ge[i][j]
    if gs.apply_to_gram(Ge) != form.coefficients \
            or not is_positive_definite(Ge, semidefinite=True):
        return None
    min_eig = float(np.linalg.eigvalsh(to_float(Ge))[0])
    return SosResult("Certificate", steps, min_eig, 0.0, gram=Ge)


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
    M = fn.moment_matrix(gs)
    if val >= 0 or not is_positive_definite(M):
        return None
    return SosResult("Infeasible", steps,
                     float(np.linalg.eigvalsh(to_float(M))[0]), 0.0,
                     functional=fn, separation=float(val))


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
    """Exact value l(g^2) via the moment matrix quadratic form, summed over
    ints: g and the functional's values are cleared to integers and the
    sum is divided once by the common denominator."""
    M = functional.moment_matrix(gram_slice)
    g = [Fraction(c) for c in g]
    gden = math.lcm(*(c.denominator for c in g))
    gi = [(i, c.numerator * (gden // c.denominator))
          for i, c in enumerate(g) if c]
    terms = [(a * b, M[i][j]) for i, a in gi for j, b in gi]
    mden = math.lcm(*(m.denominator for _, m in terms))
    total = sum(ab * m.numerator * (mden // m.denominator) for ab, m in terms)
    return Fraction(total, gden * gden * mden)


def kernel_dimension(functional: DualFunctional,
                     gram_slice: GramSlice | None = None) -> int:
    """dim Ker of the moment matrix: its size minus its exact rank."""
    M = functional.moment_matrix(gram_slice)
    return len(M) - exact_rank(M)


def extremality_check(functional: DualFunctional,
                      gram_slice: GramSlice | None = None, kernel=None):
    """Whether the functional spans an extremal ray of the dual cone of
    sums of squares: the space of functionals whose moment matrix kills
    Ker(M) must be one-dimensional. Returns (extremal, that dimension),
    which is dim R_2 minus the exact rank of the linear conditions
    M(l) k = 0, k in a basis of Ker(M).

    The basis is an exact nullspace of M unless kernel gives one: a list of
    vectors, checked exactly to lie in Ker(M) (M k = 0 over the integer
    rows of M), to be independent and to number len(M) - rank(M). A kernel
    that fails a check raises InconsistentModel. Any basis of Ker(M) gives
    the same conditions, and a basis with small entries is cheaper to
    eliminate than the reduced one."""
    gs = gram_slice if gram_slice is not None else GramSlice(functional.model)
    M = functional.moment_matrix(gs)
    if kernel is None:
        kern = nullspace(M)
    else:
        if any(len(k) != len(M) for k in kernel):
            raise InconsistentModel("kernel vector of the wrong length")
        kern = [_integer_row(k) for k in kernel]
        int_rows = [_integer_row(r) for r in M]
        if any(sum(a * b for a, b in zip(r, k)) for k in kern
               for r in int_rows):
            raise InconsistentModel("kernel vector outside Ker M")
        if exact_rank(kern) != len(kern):
            raise InconsistentModel("kernel vectors are dependent")
        if len(kern) != len(M) - exact_rank(M):
            raise InconsistentModel("kernel vectors do not span Ker M")
    if not kern:
        return False, 0
    nvars = functional.model.n + 1
    dim_r2 = functional.model.dim_r2
    rows = []
    for k in kern:
        support = [(j, kj) for j, kj in enumerate(k) if kj != 0]
        for i in range(nvars):
            # (M(l) k)_i = sum_j k_j l(x_i x_j), linear in l's values
            row = [0] * dim_r2
            for j, kj in support:
                col = gs._columns[gs.pair_index[(i, j) if i <= j else (j, i)]]
                for s, coeff in col.items():
                    row[s] += coeff * kj
            rows.append(row)
    dim = dim_r2 - exact_rank(rows)
    return dim == 1, dim
