"""Gram slices, the SOS feasibility solver, and separating functionals."""

from fractions import Fraction as F

import numpy as np
import pytest

from mindeg.cones import (
    DualFunctional,
    GramSlice,
    _basis_rep_pairs,
    _sup_normalize,
    extremality_check,
    interpolant_through_points,
    kernel_dimension,
    moment_psd,
    pair_with_square,
    separating_functional_complex,
    separating_functional_real,
    sos_check,
)
from mindeg.errors import DegeneratePosition, InconsistentModel
from mindeg.numerics import nullspace
from mindeg.polytope import LatticePolytope, simplex
from mindeg.variety import (
    QuadraticForm,
    VarietyModel,
    _pair_index_map,
    epsilon,
    scroll_model,
    toric_model,
    toric_model_from_points,
    veronese_model,
)
from mindeg.witness import _veronese_image, hilbert_witness


@pytest.fixture(scope="module")
def quartic_gap():
    # monomial curve t -> (1, t^2, t^3, t^4); dim R_2 = 8, eps = 1
    model = toric_model_from_points("quartic_gap", [(0,), (2,), (3,), (4,)], 1)
    return model, GramSlice(model)


@pytest.fixture(scope="module")
def veronese_surface():
    model = veronese_model(2, 2)
    return model, GramSlice(model)


def test_gram_slice_shapes():
    gs1 = GramSlice(veronese_model(1, 1))
    assert (gs1.model.dim_r2, len(gs1.pairs)) == (3, 3)
    assert gs1.kernel_dimension == 0
    gst = GramSlice(veronese_model(1, 3))
    assert (gst.model.dim_r2, len(gst.pairs)) == (7, 10)
    assert gst.kernel_dimension == 3


def test_gram_slice_shapes_surface(veronese_surface):
    _, gs = veronese_surface
    assert (gs.model.dim_r2, len(gs.pairs)) == (15, 21)
    assert gs.kernel_dimension == 6


def test_gram_slice_quartic(quartic_gap):
    model, gs = quartic_gap
    assert epsilon(model) == 1
    assert (gs.model.dim_r2, len(gs.pairs)) == (8, 10)
    assert gs.kernel_dimension == 2


@pytest.mark.parametrize("build", [lambda: veronese_model(2, 2),
                                   lambda: scroll_model([1, 2])],
                         ids=["toric", "determinantal"])
def test_gram_slice_rejects_relation_outside_kernel(build):
    model = build()
    GramSlice(model)
    terms = model.relation_terms()
    (p, a), (q, b) = terms[0][:2]
    for bad in [(((0, 0), 1),), ((p, a), (q, -b))]:
        model._relation_terms = terms + [bad]
        with pytest.raises(InconsistentModel):
            GramSlice(model)


def test_apply_to_gram_matches_float_route(veronese_surface):
    _, gs = veronese_surface
    rng = np.random.Generator(np.random.Philox(9))
    B = rng.integers(-3, 4, size=(6, 6))
    G = [[F(int(B[i, j] + B[j, i])) for j in range(6)] for i in range(6)]
    exact = gs.apply_to_gram(G)
    v = np.array([float(G[i][j]) * (np.sqrt(2.0) if i != j else 1.0)
                  for (i, j) in gs.pairs])
    approx = gs.a_float() @ v
    assert np.allclose(approx, [float(c) for c in exact], atol=1e-9)


def _motzkin_form():
    Q = LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)])
    model = toric_model(Q)
    idx = {s: i for i, s in enumerate(model.r2_basis)}
    coeffs = [F(0)] * model.dim_r2
    coeffs[idx[(0, 0)]] = F(1)
    coeffs[idx[(4, 2)]] = F(1)
    coeffs[idx[(2, 4)]] = F(1)
    coeffs[idx[(2, 2)]] = F(-3)
    return QuadraticForm(model, coeffs)


def test_sos_check_motzkin_infeasible():
    # coefficient of z^(2,2) pins a diagonal Gram entry to -3
    f = _motzkin_form()
    res = sos_check(f)
    assert res.status == "Infeasible"
    assert res.separation <= -1e-7
    assert res.min_eig >= -1e-8
    assert res.functional is not None and res.functional.exact
    val = res.functional.apply(f)
    assert isinstance(val, F) and val < 0
    assert _exactly_positive_definite(_moment_from_sigma(
        GramSlice(f.model), res.functional.values))


def test_sos_check_motzkin_scaled():
    f = _motzkin_form()
    big = QuadraticForm(f.model, [c * 1000 for c in f.coefficients])
    res = sos_check(big)
    assert res.status == "Infeasible"
    assert res.min_eig >= -1e-8


def test_sos_check_certificate(veronese_surface):
    model, gs = veronese_surface
    rng = np.random.Generator(np.random.Philox(2))
    B = rng.integers(-2, 3, size=(6, 6))
    G0 = [[F(int((B.T @ B)[i, j])) for j in range(6)] for i in range(6)]
    f = QuadraticForm(model, gs.apply_to_gram(G0))
    res = sos_check(f, gram_slice=gs)
    assert res.status == "Certificate"
    assert res.residual <= 1e-6
    assert res.min_eig >= -1e-8
    assert res.gram is not None
    back = gs.a_float() @ np.array(
        [res.gram[i, j] * (np.sqrt(2.0) if i != j else 1.0)
         for (i, j) in gs.pairs])
    assert np.allclose(back, [float(c) for c in f.coefficients], atol=1e-6)


def test_sos_check_zero_form(quartic_gap):
    model, gs = quartic_gap
    res = sos_check(QuadraticForm(model, [F(0)] * model.dim_r2), gram_slice=gs)
    assert res.status == "Certificate"
    assert res.iterations == 0


def test_sos_check_budget_zero_is_undetermined(veronese_surface):
    model, gs = veronese_surface
    rng = np.random.Generator(np.random.Philox(2))
    B = rng.integers(-2, 3, size=(6, 6))
    G0 = [[F(int((B.T @ B)[i, j])) for j in range(6)] for i in range(6)]
    f = QuadraticForm(model, gs.apply_to_gram(G0))
    res = sos_check(f, gram_slice=gs, budget=0)
    assert res.status == "Undetermined"
    assert res.iterations == 0


def test_sos_check_model_mismatch(veronese_surface):
    model, _ = veronese_surface
    f = QuadraticForm(model, [F(1)] + [F(0)] * (model.dim_r2 - 1))
    with pytest.raises(InconsistentModel):
        sos_check(f, gram_slice=GramSlice(veronese_model(1, 3)))


def test_sos_result_json(quartic_gap):
    model, gs = quartic_gap
    res = sos_check(QuadraticForm(model, [F(0)] * model.dim_r2), gram_slice=gs)
    blob = res.to_json()
    assert set(blob) == {"status", "iterations", "min_eig", "residual",
                         "gram", "functional", "separation"}
    assert blob["status"] == "Certificate"


# -- soundness of the exact verdicts, re-checked with Fractions only -------

def _dense_sigma(model):
    """The dense exact sigma rows (R_2 basis x monomial pairs, i-major),
    built entry by entry from model.pair_vector."""
    pairs, _ = _pair_index_map(model.n + 1)
    rows = [[F(0)] * len(pairs) for _ in range(model.dim_r2)]
    for c, (i, j) in enumerate(pairs):
        for s, coeff in model.pair_vector(i, j).items():
            rows[s][c] = coeff
    return rows


def _moment_from_sigma(gs, values):
    """M[i][j] = l(x_i x_j) from the dense exact sigma rows."""
    nvars = gs.model.n + 1
    _, index = _pair_index_map(nvars)
    sigma = _dense_sigma(gs.model)
    return [[sum((v * sigma[s][index[min(i, j), max(i, j)]]
                  for s, v in enumerate(values)), F(0))
             for j in range(nvars)] for i in range(nvars)]


def _exactly_positive_definite(M):
    """Fraction LDL^T: every pivot strictly positive."""
    A = [[F(x) for x in row] for row in M]
    n = len(A)
    for k in range(n):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            t = A[i][k] / A[k][k]
            for j in range(k + 1, n):
                A[i][j] -= t * A[k][j]
    return True


# (model, exponents parameterizing the affine cone, or None for the toric
# exponent basis): the six models of the sos-stream benchmark
SOS_MODELS = [
    ("doubled-triangle", lambda: toric_model(simplex(2, 2)), None),
    ("scroll(1,2)", lambda: scroll_model([1, 2]),
     [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
    ("scroll(2,2)", lambda: scroll_model([2, 2]),
     [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
    ("twisted-cubic", lambda: veronese_model(1, 3), None),
    ("veronese(2,3)", lambda: veronese_model(2, 3), None),
    ("veronese(2,4)", lambda: veronese_model(2, 4), None),
]


def _cone_points(model, param_exps, count, rng):
    """Unit-norm points of the affine cone, from Cauchy parameters."""
    if param_exps is None:
        param_exps = [tuple(e) for e in model.r1_basis]
    params = rng.standard_cauchy(size=(count, len(param_exps[0])))
    X = np.stack([np.prod(params ** np.array(e), axis=1)
                  for e in param_exps], axis=1)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _dyadic_gram(C):
    n = C.shape[0]
    return [[F(float((C[i, j] + C[j, i]) / 2.0)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize(
    "build", [m[1] for m in SOS_MODELS] + [
        lambda: veronese_model(2, 5),
        # x0 x2 reduces to 2 x1^2: a one-term column whose coefficient is 2
        lambda: VarietyModel("conic", 1, ["x0", "x1", "x2"],
                             relations=[{(0, 2): 1, (1, 1): -2}])],
    ids=[m[0] for m in SOS_MODELS] + ["veronese(2,5)", "conic"])
def test_interior_functional_is_exactly_positive_definite(build):
    gs = GramSlice(build())
    found = gs.interior_functional
    assert found is not None
    ell0, lam0 = found
    assert lam0 > 0
    M = _moment_from_sigma(gs, [F(v) for v in ell0.tolist()])
    assert _exactly_positive_definite(M)
    # the sparse moment matrix, on toric and determinantal models alike
    assert gs.moment_matrix([F(v) for v in ell0.tolist()]) == M


@pytest.mark.parametrize("label,build,param_exps", SOS_MODELS,
                         ids=[m[0] for m in SOS_MODELS])
def test_negative_forms_are_exactly_infeasible(label, build, param_exps):
    model = build()
    gs = GramSlice(model)
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(606))
    X = _cone_points(model, param_exps, 2000, rng)
    pairs = _basis_rep_pairs(model)
    R = np.stack([X[:, i] * X[:, j] for i, j in pairs], axis=1)
    sum_sq = gs.apply_to_gram([[F(int(i == j)) for j in range(nvars)]
                               for i in range(nvars)])
    for _ in range(2):
        g = rng.normal(size=model.dim_r2)
        vals = R @ g
        shift = F(float(vals.min()) + 0.1 * float(np.abs(vals).max()))
        f = QuadraticForm(model, [F(float(gc)) - shift * ec
                                  for gc, ec in zip(g, sum_sq)])
        assert (R @ np.array([float(c) for c in f.coefficients])).min() < 0
        res = sos_check(f, gs, budget=40000)
        assert res.status == "Infeasible", label
        # re-verify from the returned functional alone
        values = res.functional.values
        assert all(isinstance(v, F) for v in values)
        assert sum((v * c for v, c in zip(values, f.coefficients)), F(0)) < 0
        assert _exactly_positive_definite(_moment_from_sigma(gs, values))
        blob = res.to_json()["functional"]
        assert blob["exact"] is True
        assert [F(int(v["num"]), int(v["den"])) for v in blob["values"]] \
            == values


@pytest.mark.parametrize("label,build,param_exps", SOS_MODELS,
                         ids=[m[0] for m in SOS_MODELS])
def test_gram_sos_forms_are_never_infeasible(label, build, param_exps):
    model = build()
    gs = GramSlice(model)
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(607))
    X = _cone_points(model, param_exps, 200, rng)
    for k in range(4):
        B = rng.normal(size=(nvars, nvars))
        if k % 2:
            # B x0 = 0 at a cone point: SOS near the boundary
            x0 = X[int(rng.integers(0, len(X)))]
            B -= np.outer(B @ x0, x0)
        f = QuadraticForm(model, gs.apply_to_gram(_dyadic_gram(B.T @ B)))
        res = sos_check(f, gs, budget=3000)
        assert res.status != "Infeasible", label


QUARTIC_POINTS = [(1, 1, 1, 1), (1, 1, -1, 1), (1, 4, 8, 16), (1, 4, -8, 16)]


def test_real_functional_frozen_weights(quartic_gap):
    model, gs = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    assert info["lambdas"] == [F(1, 2), F(-1, 2), F(-1)]
    assert info["kappas"] == [F(1), F(1), F(1), F(2, 3)]
    # l(x0^2) = 1 + 1 + 1/256 - (2/3)/256
    assert fn.values[0] == F(1537, 768)
    assert moment_psd(fn, gs) >= -1e-9


def test_real_functional_annihilates_vanishing_square(quartic_gap):
    # h = t^4 - 5 t^2 + 4 vanishes at t = 1, -1, 2, -2
    model, gs = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    h = [F(4), F(-5), F(0), F(1)]
    assert pair_with_square(fn, h, gs) == 0
    Gh = [[h[i] * h[j] for j in range(4)] for i in range(4)]
    fh = QuadraticForm(model, gs.apply_to_gram(Gh))
    assert fn.apply(fh) == 0


def test_real_functional_interpolant_square(quartic_gap):
    model, gs = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    g = interpolant_through_points(model, info["points"][:3], info["lambdas"])
    assert pair_with_square(fn, g, gs) == 0


def test_real_functional_kernel_and_extremality(quartic_gap):
    # kernel dimension m + 1 = 2 and a one-dimensional perturbation space
    model, gs = quartic_gap
    fn, _ = separating_functional_real(model, QUARTIC_POINTS)
    assert kernel_dimension(fn, gs) == 2
    assert extremality_check(fn, gs) == (True, 1)


def test_real_functional_custom_kappas(quartic_gap):
    model, gs = quartic_gap
    fn, info = separating_functional_real(
        model, QUARTIC_POINTS, kappas=[F(2), F(1), F(3)])
    # 1 / (lam1^2/2 + lam2^2/1 + lam3^2/3)
    assert info["kappas"][-1] == 1 / (F(1, 8) + F(1, 4) + F(1, 3))
    assert moment_psd(fn, gs) >= -1e-9
    h = [F(4), F(-5), F(0), F(1)]
    assert pair_with_square(fn, h, gs) == 0


def test_real_functional_degenerate_inputs(quartic_gap):
    model, _ = quartic_gap
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, QUARTIC_POINTS[:3])
    with pytest.raises(InconsistentModel):
        separating_functional_real(
            model, [(1, 1, 2, 1)] + QUARTIC_POINTS[1:])
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, QUARTIC_POINTS,
                                   kappas=[F(1), F(-1), F(1)])
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, QUARTIC_POINTS, kappas=[F(1)])


def test_real_functional_needs_a_dependency():
    # on a minimal-degree curve any n+1 points are independent
    model = veronese_model(1, 3)
    pts = [(1, t, t ** 2, t ** 3) for t in (1, 2, 3, 4)]
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, pts)


COMPLEX_REAL_PTS = [(1, 1, 1, 1), (1, 1, -1, 1)]
COMPLEX_A = (1, -1, 0, 1)
COMPLEX_B = (0, 0, -1, 0)


def test_complex_functional_frozen_moment(quartic_gap):
    # points t = 1, -1 and the conjugate pair t = i, -i
    model, gs = quartic_gap
    fn, info = separating_functional_complex(
        model, COMPLEX_REAL_PTS, COMPLEX_A, COMPLEX_B)
    M = fn.moment_matrix(gs)
    assert M == [[F(4), F(0), F(0), F(4)],
                 [F(0), F(4), F(0), F(0)],
                 [F(0), F(0), F(0), F(0)],
                 [F(4), F(0), F(0), F(4)]]
    assert moment_psd(fn, gs) >= -1e-9
    assert kernel_dimension(fn, gs) == 2
    assert extremality_check(fn, gs) == (True, 1)
    # t^4 - 1 vanishes at all four points of the configuration
    assert pair_with_square(fn, [F(-1), F(0), F(0), F(1)], gs) == 0


def test_complex_functional_rho(quartic_gap):
    model, gs = quartic_gap
    fn, info = separating_functional_complex(
        model, COMPLEX_REAL_PTS, COMPLEX_A, COMPLEX_B, rho=F(1, 2))
    k1, k2 = info["kappas"][-2:]
    assert (k1, k2) == (F(32, 5), F(16, 5))
    assert k2 / k1 == F(1, 2)
    # harmonic constraint (k1^2 + k2^2)/k1 = 1/sum(lam^2/kappa)
    lam = info["lambdas"]
    assert (k1 ** 2 + k2 ** 2) / k1 == 1 / sum(l ** 2 for l in lam)
    assert moment_psd(fn, gs) >= -1e-9
    assert kernel_dimension(fn, gs) == 2
    assert pair_with_square(fn, [F(-1), F(0), F(0), F(1)], gs) == 0


def test_complex_functional_degenerate_inputs(quartic_gap):
    model, _ = quartic_gap
    with pytest.raises(DegeneratePosition):
        separating_functional_complex(
            model, COMPLEX_REAL_PTS, COMPLEX_A, (0, 0, 0, 0))
    with pytest.raises(DegeneratePosition):
        separating_functional_complex(
            model, [COMPLEX_REAL_PTS[0]], COMPLEX_A, COMPLEX_B)
    with pytest.raises(InconsistentModel):
        separating_functional_complex(
            model, COMPLEX_REAL_PTS, (1, -1, 1, 1), COMPLEX_B)


def test_interpolant_inconsistent_conditions():
    model = veronese_model(1, 1)
    with pytest.raises(DegeneratePosition):
        interpolant_through_points(model, [(1, 0), (2, 0)], [F(1), F(5)])


def test_extremality_baselines():
    model = veronese_model(1, 1)
    gs = GramSlice(model)
    ident = DualFunctional(model, [F(1), F(0), F(1)])
    assert extremality_check(ident, gs) == (False, 0)
    point_eval = DualFunctional(model, [F(1), F(0), F(0)])
    assert extremality_check(point_eval, gs) == (True, 1)


def _extremality_dense_reference(functional, gs):
    """extremality_check as it was: every entry of the dense sigma rows."""
    M = functional.moment_matrix(gs)
    kern = nullspace([row[:] for row in M])
    if not kern:
        return False, 0
    nvars = functional.model.n + 1
    sigma = _dense_sigma(functional.model)
    rows = []
    for k in kern:
        for i in range(nvars):
            row = []
            for s in range(functional.model.dim_r2):
                c = F(0)
                for j in range(nvars):
                    if k[j] != 0:
                        a, bb = (i, j) if i <= j else (j, i)
                        c += sigma[s][gs.pair_index[(a, bb)]] * k[j]
                row.append(c)
            rows.append(row)
    dim = len(nullspace(rows, functional.model.dim_r2))
    return dim == 1, dim


def _kernel_dimension_reference(functional, gs):
    """kernel_dimension as it was: the size of an exact nullspace."""
    return len(nullspace(functional.moment_matrix(gs)))


@pytest.mark.parametrize("d", [3, 4])
def test_extremality_check_matches_dense_reference(d, quartic_gap):
    # sums of point evaluations on the plane Veronese: kernels of every
    # dimension from n down to 0
    model = veronese_model(2, d)
    gs = GramSlice(model)
    rng = np.random.Generator(np.random.Philox(d))
    pts = rng.integers(-3, 4, size=(model.n + 2, 3))
    for count in range(1, len(pts) + 1, 2):
        values = [sum(F(int(x)) ** a * F(int(y)) ** b
                      * F(int(z)) ** (2 * d - a - b)
                      for x, y, z in pts[:count])
                  for (a, b) in model.r2_basis]
        fn = DualFunctional(model, values)
        assert extremality_check(fn, gs) == \
            _extremality_dense_reference(fn, gs)
        assert kernel_dimension(fn, gs) == _kernel_dimension_reference(fn, gs)
    # the witness pipeline's functional at seed 11
    rep = hilbert_witness(d, seed=11)
    fn = rep.functional
    expected = _extremality_dense_reference(fn, gs)
    assert extremality_check(fn, gs) == expected \
        == {3: (True, 1), 4: (False, 3)}[d]
    assert kernel_dimension(fn, gs) == _kernel_dimension_reference(fn, gs) == 3
    # the kernel basis the construction gives: the interpolant g, h1, h2
    info = rep.functional_info
    pts = [_sup_normalize(_veronese_image(rep.points[i], d, model.r1_basis))
           for i in info["point_indices"]]
    g = interpolant_through_points(
        model, pts[:-1],
        [lam / kap for lam, kap in zip(info["lambdas"], info["kappas"])])
    h1, h2 = rep.h_vectors[1:]
    assert extremality_check(fn, gs, kernel=[g, h1, h2]) == expected
    mixed = [[a + b for a, b in zip(g, h1)], [3 * c for c in h2], g]
    assert extremality_check(fn, gs, kernel=mixed) == expected
    M = fn.moment_matrix(gs)
    i = max(range(len(M)), key=lambda k: M[k][k])
    outside = [int(k == i) for k in range(len(M))]
    for bad in ([g, h1, outside], [g, h1, h1], [g, h1],
                [g, h1, list(h2) + [0]]):
        with pytest.raises(InconsistentModel):
            extremality_check(fn, gs, kernel=bad)
    model, gs = quartic_gap
    for fn in (separating_functional_real(model, QUARTIC_POINTS)[0],
               separating_functional_complex(model, COMPLEX_REAL_PTS,
                                             COMPLEX_A, COMPLEX_B)[0]):
        assert extremality_check(fn, gs) == \
            _extremality_dense_reference(fn, gs)


def test_dual_functional_json(quartic_gap):
    model, _ = quartic_gap
    fn, _ = separating_functional_real(model, QUARTIC_POINTS)
    blob = fn.to_json()
    assert blob["exact"] is True
    assert blob["values"][0] == {"num": "1537", "den": "768"}


def test_dual_functional_validation(quartic_gap):
    model, _ = quartic_gap
    with pytest.raises(InconsistentModel):
        DualFunctional(model, [F(1)] * (model.dim_r2 + 1))
