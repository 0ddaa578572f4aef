"""Gram slices, the SOS feasibility solver, and separating functionals."""

import itertools
import math
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg import cones, kernels, numerics
from mindeg.cones import (
    _GRID_BITS,
    DualFunctional,
    GramSlice,
    SosResult,
    _certificate,
    _condition_rows,
    extremality_check,
    interpolant_through_points,
    kernel_dimension,
    moment_psd,
    pair_with_square,
    separating_functional_real,
    sos_check,
)
from mindeg.errors import DegeneratePosition, InconsistentModel
from mindeg.numerics import is_positive_definite, nullspace, to_float
from mindeg.polytope import LatticePolytope, simplex
from mindeg.variety import (
    QuadraticForm,
    VarietyModel,
    epsilon,
    scroll_model,
    toric_model,
    toric_model_from_points,
    veronese_model,
)
from mindeg.witness import _veronese_image, hilbert_witness
from test_variety import _labelled_scroll_model


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
    assert gs1.model.i2_count == 0
    gst = GramSlice(veronese_model(1, 3))
    assert (gst.model.dim_r2, len(gst.pairs)) == (7, 10)
    assert gst.model.i2_count == 3


def test_gram_slice_shapes_surface(veronese_surface):
    _, gs = veronese_surface
    assert (gs.model.dim_r2, len(gs.pairs)) == (15, 21)
    assert gs.model.i2_count == 6


def test_gram_slice_quartic(quartic_gap):
    model, gs = quartic_gap
    assert epsilon(model) == 1
    assert (gs.model.dim_r2, len(gs.pairs)) == (8, 10)
    assert gs.model.i2_count == 2


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
    assert res.functional is not None
    assert res.functional.to_json()["exact"] is True
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
    assert res.residual == 0.0
    assert res.min_eig >= -1e-8
    G = res.gram
    assert all(isinstance(x, F) for row in G for x in row)
    assert _sigma_exact(model, G) == f.coefficients
    assert _exactly_positive_definite(G, semidefinite=True)
    blob = res.to_json()["gram"]
    assert [[F(int(x["num"]), int(x["den"])) for x in row]
            for row in blob] == G


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


def test_verdicts_hold_only_on_the_forms_own_model():
    # two conics with one R_2 basis whose sigma differs at x0 x2
    A, B = _conic(1, 1), _conic(1, 2)
    assert A.r2_basis == B.r2_basis and A.columns != B.columns
    f = QuadraticForm(B, [F(1), F(-1), F(-1), F(-1), F(1)])
    assert sos_check(f).status == "Certificate"
    # on A's sigma the same coefficients are not SOS: a slice of A
    # would decide another form
    with pytest.raises(InconsistentModel):
        sos_check(f, gram_slice=GramSlice(A))
    with pytest.raises(InconsistentModel):
        DualFunctional(A, [F(1), F(0), F(0), F(0), F(1)]).apply(f)
    assert DualFunctional(B, [F(1), F(0), F(0), F(0), F(1)]).apply(f) == 2


def test_sos_result_json(quartic_gap):
    model, gs = quartic_gap
    res = sos_check(QuadraticForm(model, [F(0)] * model.dim_r2), gram_slice=gs)
    blob = res.to_json()
    assert set(blob) == {"status", "iterations", "min_eig", "residual",
                         "gram", "functional", "separation"}
    assert blob["status"] == "Certificate"


# -- soundness of the exact verdicts, re-checked with Fractions only -------

def _pairs(nvars):
    """The monomial pairs (i, j), i <= j, in i-major order."""
    return [(i, j) for i in range(nvars) for j in range(i, nvars)]


def _dense_sigma(model):
    """The dense exact sigma rows (R_2 basis x monomial pairs, i-major),
    built column by column as model.product of two unit vectors."""
    nvars = model.n + 1
    unit = [[F(int(k == t)) for k in range(nvars)] for t in range(nvars)]
    cols = [model.product(unit[i], unit[j]) for i, j in _pairs(nvars)]
    return [list(row) for row in zip(*cols)]


def _moment_from_sigma(gs, values):
    """M[i][j] = l(x_i x_j) from the dense exact sigma rows."""
    nvars = gs.model.n + 1
    index = {p: c for c, p in enumerate(_pairs(nvars))}
    sigma = _dense_sigma(gs.model)
    return [[sum((v * sigma[s][index[min(i, j), max(i, j)]]
                  for s, v in enumerate(values)), F(0))
             for j in range(nvars)] for i in range(nvars)]


def _exactly_positive_definite(M, semidefinite=False):
    """Fraction LDL^T: every pivot strictly positive; semidefinite also
    lets a zero pivot through on a row that is zero to its right."""
    A = [[F(x) for x in row] for row in M]
    n = len(A)
    for k in range(n):
        if A[k][k] < 0 or A[k][k] == 0 and (
                not semidefinite or any(A[k][k + 1:])):
            return False
        if A[k][k] == 0:
            continue
        for i in range(k + 1, n):
            t = A[i][k] / A[k][k]
            for j in range(k + 1, n):
                A[i][j] -= t * A[k][j]
    return True


def _sigma_exact(model, G):
    """sigma(G) from the dense exact sigma rows; an off-diagonal pair
    carries G[i][j] + G[j][i]."""
    pairs = _pairs(model.n + 1)
    sigma = _dense_sigma(model)
    g = [G[i][j] if i == j else G[i][j] + G[j][i] for i, j in pairs]
    return [sum((a * x for a, x in zip(row, g)), F(0)) for row in sigma]


def _assert_certificate_reverifies(gs, f, res):
    """The Gram matrix of a Certificate, read back from its JSON, is a
    symmetric rational matrix with sigma(G) = f and G PSD, exactly."""
    G = [[F(int(x["num"]), int(x["den"])) for x in row]
         for row in res.to_json()["gram"]]
    assert G == res.gram
    assert all(G[i][j] == G[j][i] for i in range(len(G))
               for j in range(len(G)))
    assert _sigma_exact(gs.model, G) == f.coefficients
    assert _exactly_positive_definite(G, semidefinite=True)
    assert res.residual == 0.0


def _assert_infeasible_reverifies(gs, f, res):
    """The functional of an Infeasible, read back from its JSON, is
    negative on f and has a positive definite moment matrix, exactly."""
    blob = res.to_json()["functional"]
    assert blob["exact"] is True
    values = [F(int(v["num"]), int(v["den"])) for v in blob["values"]]
    assert values == res.functional.values
    assert sum((v * c for v, c in zip(values, f.coefficients)), F(0)) < 0
    assert _exactly_positive_definite(_moment_from_sigma(gs, values))


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


def _assert_parameterizes(model, param_exps):
    """Integer parameters from {-3, -1, 2, 5}, mapped by the monomials of
    param_exps (or of the toric exponents when None), give points that
    satisfy every relation of the model exactly."""
    if param_exps is None:
        param_exps = [tuple(e) for e in model.r1_basis]
    assert len(param_exps) == model.n + 1
    for params in itertools.product((-3, -1, 2, 5),
                                    repeat=len(param_exps[0])):
        x = [math.prod(F(p) ** k for p, k in zip(params, e))
             for e in param_exps]
        for terms in model.relations:
            assert sum(c * x[i] * x[j] for (i, j), c in terms) == 0, \
                (model.name, params, terms)


@pytest.mark.parametrize("label,build,param_exps", SOS_MODELS,
                         ids=[m[0] for m in SOS_MODELS])
def test_parameter_exponents_parameterize_the_model(label, build,
                                                    param_exps):
    _assert_parameterizes(build(), param_exps)


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
def test_center_dual_route_is_exact(build):
    # sigma of a negative definite Gram matrix is negative on the whole
    # cone: the barrier's center gives an exact Infeasible; sigma of a
    # positive definite one gives an exact Certificate
    gs = GramSlice(build())
    model = gs.model
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(605))
    B = rng.normal(size=(nvars, nvars))
    C = B.T @ B + np.eye(nvars)
    neg = QuadraticForm(model, gs.apply_to_gram(_dyadic_gram(-C)))
    res = sos_check(neg, gs)
    assert res.status == "Infeasible"
    _assert_infeasible_reverifies(gs, neg, res)
    # the sparse moment matrix, on the toric models and the labelled conic
    values = res.functional.values
    assert res.functional.moment_matrix() == _moment_from_sigma(gs, values)
    pos = QuadraticForm(model, gs.apply_to_gram(_dyadic_gram(C)))
    res = sos_check(pos, gs)
    assert res.status == "Certificate"
    _assert_certificate_reverifies(gs, pos, res)


@pytest.mark.parametrize("label,build,param_exps", SOS_MODELS,
                         ids=[m[0] for m in SOS_MODELS])
def test_negative_forms_are_exactly_infeasible(label, build, param_exps):
    model = build()
    gs = GramSlice(model)
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(606))
    X = _cone_points(model, param_exps, 2000, rng)
    R = np.stack([X[:, i] * X[:, j] for i, j in model.rep_pairs], axis=1)
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


def _near_boundary_gram(X, rng, cushion):
    """B^T B + c I with B x0 = 0 at a sampled cone point x0, c = cushion
    times the largest sampled value of B^T B: SOS by construction, and only
    c at x0."""
    nvars = X.shape[1]
    x0 = X[int(rng.integers(0, len(X)))]
    B = rng.normal(size=(nvars, nvars))
    B -= np.outer(B @ x0, x0)
    G = B.T @ B
    values = np.einsum("ij,jk,ik->i", X, G, X)
    return G + cushion * max(1.0, float(values.max())) * np.eye(nvars)


@pytest.mark.parametrize("label,build,param_exps", SOS_MODELS,
                         ids=[m[0] for m in SOS_MODELS])
def test_stream_verdicts_reverify_exactly(label, build, param_exps):
    # the three job classes of the sos-stream benchmark: PSD-Gram forms,
    # near-boundary SOS forms and forms negative at a cone point
    model = build()
    gs = GramSlice(model)
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(608))
    X = _cone_points(model, param_exps, 2000, rng)
    R = np.stack([X[:, i] * X[:, j] for i, j in model.rep_pairs], axis=1)
    sum_sq = gs.apply_to_gram([[F(int(i == j)) for j in range(nvars)]
                               for i in range(nvars)])
    jobs = []
    for _ in range(4):
        B = rng.normal(size=(nvars, nvars))
        jobs.append(("Certificate", gs.apply_to_gram(_dyadic_gram(B.T @ B))))
        jobs.append(("Certificate", gs.apply_to_gram(
            _dyadic_gram(_near_boundary_gram(X, rng, 0.02)))))
    for _ in range(2):
        g = rng.normal(size=model.dim_r2)
        vals = R @ g
        shift = F(float(vals.min()) + 0.1 * float(np.abs(vals).max()))
        jobs.append(("Infeasible", [F(float(gc)) - shift * ec
                                    for gc, ec in zip(g, sum_sq)]))
    for expected, coeffs in jobs:
        f = QuadraticForm(model, coeffs)
        res = sos_check(f, gs, budget=40000)
        assert res.status == expected, label
        if expected == "Certificate":
            _assert_certificate_reverifies(gs, f, res)
        else:
            _assert_infeasible_reverifies(gs, f, res)


def test_near_boundary_twisted_cubic_certifies():
    # a near-boundary form (cushion 0.1% of the largest sampled value) that
    # the earlier Dykstra solver left Undetermined after 40,000 iterations
    model = veronese_model(1, 3)
    gs = GramSlice(model)
    rng = np.random.Generator(np.random.Philox(0))
    X = _cone_points(model, None, 2000, rng)
    f = QuadraticForm(model, gs.apply_to_gram(
        _dyadic_gram(_near_boundary_gram(X, rng, 0.001))))
    res = sos_check(f, gs, budget=40000)
    assert res.status == "Certificate"
    _assert_certificate_reverifies(gs, f, res)


# -- the integer certificate against the Fraction one it replaced ---------

def _certificate_reference(gs, form, G, scale, steps):
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
    for s, (i, j) in enumerate(gs.model.rep_pairs):
        r = form.coefficients[s] - have[s] * unit
        if r:
            Ge[i][j] += r if i == j else r / 2
            Ge[j][i] = Ge[i][j]
    if gs.apply_to_gram(Ge) != form.coefficients \
            or not is_positive_definite(Ge, semidefinite=True):
        return None
    min_eig = float(np.linalg.eigvalsh(to_float(Ge))[0])
    return SosResult("Certificate", steps, min_eig, 0.0, gram=Ge)


def _conic(a, b):
    # a x0 x2 = b x1^2: sigma's coefficient at x0 x2 is b / a
    return VarietyModel("conic", 1, ["x0", "x1", "x2"],
                        relations=[{(0, 2): a, (1, 1): -b}])


@pytest.mark.parametrize(
    "build", [m[1] for m in SOS_MODELS] + [
        lambda: _conic(1, 2), lambda: _conic(2, 1), lambda: _conic(3, 1)],
    ids=[m[0] for m in SOS_MODELS] + ["conic-2", "conic-1/2", "conic-1/3"])
def test_integer_certificate_matches_the_fraction_reference(build):
    # float Grams that are positive definite, indefinite and singular PSD
    # (rank <= 2), and G0 as sos_check starts from, for forms with dyadic
    # denominators and denominators 3, 7 and 21, at three magnitudes
    gs = GramSlice(build())
    nvars = gs.model.n + 1
    A, AAt_inv, _ = gs.solver_maps
    rng = np.random.Generator(np.random.Philox(1717))
    outcomes = set()
    for den in (1, 3, 7, 21):
        B = rng.normal(size=(nvars, nvars))
        V = rng.integers(-3, 4, size=(2, nvars)).astype(float)
        for C in (B.T @ B + np.eye(nvars), B + B.T, V.T @ V):
            for mag in (F(1), F(2) ** 40, F(1, 3 * 2 ** 40)):
                f = QuadraticForm(gs.model, [
                    c * mag / den for c in gs.apply_to_gram(_dyadic_gram(C))])
                b = np.array([float(c) for c in f.coefficients])
                scale = math.ldexp(1.0, math.frexp(float(np.abs(b).max()))[1])
                G0 = kernels.smat(A.T @ (AAt_inv @ (b / scale)), nvars)
                for G in (C * float(mag / den) / scale, G0):
                    want = _certificate_reference(gs, f, G, scale, 7)
                    got = _certificate(gs, f, G, scale, 7)
                    assert (got is None) == (want is None)
                    outcomes.add(got is None)
                    if want is not None:
                        assert got.gram == want.gram
                        assert got.min_eig == want.min_eig
                        assert got.to_json() == want.to_json()
    assert outcomes == {True, False}


def test_newton_steps_on_veronese_2_5():
    # k = 165: sigma(B^T B + I) certifies and its negative is Infeasible in
    # a bounded number of steps (57 and 31 under damped steps alone, 14 and
    # 11 from weight 1 and the full step)
    gs = GramSlice(veronese_model(2, 5))
    nvars = gs.model.n + 1
    B = np.random.Generator(np.random.Philox(0)).normal(size=(nvars, nvars))
    f = gs.apply_to_gram(_dyadic_gram(B.T @ B + np.eye(nvars)))
    res = sos_check(QuadraticForm(gs.model, f), gs)
    assert res.status == "Certificate" and res.iterations <= 6
    res = sos_check(QuadraticForm(gs.model, [-c for c in f]), gs)
    assert res.status == "Infeasible" and res.iterations <= 15


def test_psd_gram_forms_take_few_steps_and_one_factor_each(monkeypatch):
    # a start weight on the form's scale and a first trial step from the
    # distance to the boundary: from weight 1 and the full step these forms
    # took some 12 steps and 1.8 Cholesky factors per step
    factor, factors = cones._factor, []

    def counted(S):
        factors.append(None)
        return factor(S)

    monkeypatch.setattr(cones, "_factor", counted)
    rng = np.random.Generator(np.random.Philox(609))
    steps = []
    for _, build, _ in SOS_MODELS:
        gs = GramSlice(build())
        nvars = gs.model.n + 1
        for _ in range(10):
            B = rng.normal(size=(nvars, nvars))
            f = QuadraticForm(gs.model,
                              gs.apply_to_gram(_dyadic_gram(B.T @ B)))
            res = sos_check(f, gs)
            assert res.status == "Certificate"
            steps.append(res.iterations)
    assert sum(steps) / len(steps) <= 4
    assert len(factors) / sum(steps) <= 1.2


_FUZZ_SLICES = [GramSlice(veronese_model(1, 3)), GramSlice(
    VarietyModel("conic", 1, ["x0", "x1", "x2"],
                 relations=[{(0, 2): 1, (1, 1): -2}])),
    GramSlice(_labelled_scroll_model([1, 2]))]
_FUZZ_COEFF = st.one_of(
    st.integers(-3, 3), st.integers(-2 ** 60, 2 ** 60),
    st.builds(lambda k, e: F(k, 2 ** e), st.integers(-99, 99),
              st.integers(0, 200)),
    st.builds(lambda k, e: F(k) * 10 ** e, st.integers(-9, 9),
              st.integers(-250, 250)),
    st.builds(F, st.integers(-50, 50), st.integers(1, 50)))


@st.composite
def _fuzz_form(draw):
    """A form on a small model: free rational coefficients of any size, or
    sigma of a rank-deficient Gram matrix (a boundary form)."""
    gs = draw(st.sampled_from(_FUZZ_SLICES))
    model = gs.model
    if draw(st.booleans()):
        return gs, QuadraticForm(model, [draw(_FUZZ_COEFF)
                                         for _ in range(model.dim_r2)])
    nvars = model.n + 1
    rows = [[F(draw(st.integers(-3, 3))) for _ in range(nvars)]
            for _ in range(draw(st.integers(0, 2)))]
    G = [[sum((r[i] * r[j] for r in rows), F(0)) for j in range(nvars)]
         for i in range(nvars)]
    return gs, QuadraticForm(model, gs.apply_to_gram(G))


@settings(max_examples=100, deadline=None)
@given(_fuzz_form())
def test_sos_check_never_raises_and_its_verdicts_verify(case):
    # Undetermined only when the budget is spent; every verdict exact
    gs, f = case
    res = sos_check(f, gs, budget=200)
    if res.status == "Certificate":
        _assert_certificate_reverifies(gs, f, res)
    elif res.status == "Infeasible":
        _assert_infeasible_reverifies(gs, f, res)
    else:
        assert res.status == "Undetermined" and res.iterations == 200


QUARTIC_POINTS = [(1, 1, 1, 1), (1, 1, -1, 1), (1, 4, 8, 16), (1, 4, -8, 16)]


def test_real_functional_frozen_weights(quartic_gap):
    model, _ = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    assert info["lambdas"] == [F(1, 2), F(-1, 2), F(-1)]
    assert info["kappas"] == [F(1), F(1), F(1), F(2, 3)]
    # l(x0^2) = 1 + 1 + 1/256 - (2/3)/256
    assert fn.values[0] == F(1537, 768)
    assert moment_psd(fn) >= -1e-9


def test_real_functional_annihilates_vanishing_square(quartic_gap):
    # h = t^4 - 5 t^2 + 4 vanishes at t = 1, -1, 2, -2
    model, gs = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    h = [F(4), F(-5), F(0), F(1)]
    assert pair_with_square(fn, h) == 0
    Gh = [[h[i] * h[j] for j in range(4)] for i in range(4)]
    fh = QuadraticForm(model, gs.apply_to_gram(Gh))
    assert fn.apply(fh) == 0


def test_real_functional_interpolant_square(quartic_gap):
    model, _ = quartic_gap
    fn, info = separating_functional_real(model, QUARTIC_POINTS)
    g = interpolant_through_points(info["points"][:3], info["lambdas"])
    assert pair_with_square(fn, g) == 0


def test_real_functional_kernel_and_extremality(quartic_gap):
    # kernel dimension m + 1 = 2 and a one-dimensional perturbation space
    model, _ = quartic_gap
    fn, _ = separating_functional_real(model, QUARTIC_POINTS)
    assert kernel_dimension(fn) == 2
    assert extremality_check(fn, nullspace(fn.moment_matrix())) == (True, 1)


def test_real_functional_degenerate_inputs(quartic_gap):
    model, _ = quartic_gap
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, QUARTIC_POINTS[:3])
    with pytest.raises(InconsistentModel):
        separating_functional_real(
            model, [(1, 1, 2, 1)] + QUARTIC_POINTS[1:])


def test_real_functional_needs_a_dependency():
    # on a minimal-degree curve any n+1 points are independent
    model = veronese_model(1, 3)
    pts = [(1, t, t ** 2, t ** 3) for t in (1, 2, 3, 4)]
    with pytest.raises(DegeneratePosition):
        separating_functional_real(model, pts)


def test_interpolant_inconsistent_conditions():
    with pytest.raises(DegeneratePosition):
        interpolant_through_points([(1, 0), (2, 0)], [F(1), F(5)])


def test_extremality_baselines():
    model = veronese_model(1, 1)
    ident = DualFunctional(model, [F(1), F(0), F(1)])
    assert extremality_check(
        ident, nullspace(ident.moment_matrix())) == (False, 0)
    point_eval = DualFunctional(model, [F(1), F(0), F(0)])
    assert extremality_check(
        point_eval, nullspace(point_eval.moment_matrix())) == (True, 1)


def _extremality_dense_reference(functional):
    """extremality_check as it was: every entry of the dense sigma rows."""
    M = functional.moment_matrix()
    kern = nullspace([row[:] for row in M])
    if not kern:
        return False, 0
    nvars = functional.model.n + 1
    sigma = _dense_sigma(functional.model)
    index = {p: c for c, p in enumerate(_pairs(nvars))}
    rows = []
    for k in kern:
        for i in range(nvars):
            row = []
            for s in range(functional.model.dim_r2):
                c = F(0)
                for j in range(nvars):
                    if k[j] != 0:
                        a, bb = (i, j) if i <= j else (j, i)
                        c += sigma[s][index[(a, bb)]] * k[j]
                row.append(c)
            rows.append(row)
    dim = len(nullspace(rows, functional.model.dim_r2))
    return dim == 1, dim


def _kernel_dimension_reference(functional):
    """kernel_dimension as it was: the size of an exact nullspace."""
    return len(nullspace(functional.moment_matrix()))


@pytest.mark.parametrize("d", [3, 4])
def test_extremality_check_matches_dense_reference(d, quartic_gap):
    # sums of point evaluations on the plane Veronese: kernels of every
    # dimension from n down to 0
    model = veronese_model(2, d)
    rng = np.random.Generator(np.random.Philox(d))
    pts = rng.integers(-3, 4, size=(model.n + 2, 3))
    for count in range(1, len(pts) + 1, 2):
        values = [sum(F(int(x)) ** a * F(int(y)) ** b
                      * F(int(z)) ** (2 * d - a - b)
                      for x, y, z in pts[:count])
                  for (a, b) in model.r2_basis]
        fn = DualFunctional(model, values)
        assert extremality_check(fn, nullspace(fn.moment_matrix())) == \
            _extremality_dense_reference(fn)
        assert kernel_dimension(fn) == _kernel_dimension_reference(fn)
    # the separating functional of the witness pipeline's points at seed
    # 11: at d = 3 the report's own, of all nine; at d = 4, where the report
    # leaves it out, the one of the e + 2 points off cells 11 and 14
    rep = hilbert_witness(d, seed=11)
    fn, info = separating_functional_real(model, [
        _veronese_image(p, d, model.r1_basis)
        for i, p in enumerate(rep.points) if i not in (11, 14)])
    assert d == 4 or fn.values == rep.functional.values
    expected = _extremality_dense_reference(fn)
    assert extremality_check(fn, nullspace(fn.moment_matrix())) == expected \
        == {3: (True, 1), 4: (False, 3)}[d]
    assert kernel_dimension(fn) == _kernel_dimension_reference(fn) == 3
    # the kernel basis the construction gives: the interpolant g, h1, h2
    g = interpolant_through_points(
        info["points"][:-1],
        [lam / kap for lam, kap in zip(info["lambdas"], info["kappas"])])
    h1, h2 = rep.h_vectors[1:]
    assert extremality_check(fn, kernel=[g, h1, h2]) == expected
    mixed = [[a + b for a, b in zip(g, h1)], [3 * c for c in h2], g]
    assert extremality_check(fn, kernel=mixed) == expected
    M = fn.moment_matrix()
    i = max(range(len(M)), key=lambda k: M[k][k])
    outside = [int(k == i) for k in range(len(M))]
    for bad in ([g, h1, outside], [g, h1, h1], [g, h1],
                [g, h1, list(h2) + [0]]):
        with pytest.raises(InconsistentModel):
            extremality_check(fn, kernel=bad)
    model, _ = quartic_gap
    fn = separating_functional_real(model, QUARTIC_POINTS)[0]
    assert extremality_check(fn, nullspace(fn.moment_matrix())) == \
        _extremality_dense_reference(fn)


@pytest.mark.parametrize("build", [
    lambda: veronese_model(2, 3), lambda: scroll_model([1, 2]),
    lambda: _conic(2, 3)], ids=["veronese-2-3", "scroll-1-2", "conic-3/2"])
def test_condition_rows_are_the_products_and_obey_koszul(build):
    model = build()
    nvars = model.n + 1
    rng = np.random.Generator(np.random.Philox(5))
    kern = [[int(x) for x in rng.integers(-9, 10, size=nvars)]
            for _ in range(3)]
    rows = _condition_rows(model, kern)
    assert rows == [model.product([int(j == i) for j in range(nvars)], k)
                    for k in kern for i in range(nvars)]
    # sum_i k'_i row(i, k) - k_i row(i, k') = k' k - k k' = 0
    for a, b in itertools.combinations(range(len(kern)), 2):
        combo = [0] * model.dim_r2
        for i in range(nvars):
            for s in range(model.dim_r2):
                combo[s] += (kern[b][i] * rows[a * nvars + i][s]
                             - kern[a][i] * rows[b * nvars + i][s])
        assert combo == [0] * model.dim_r2


def test_extremality_check_falls_back_to_exact_ranks(monkeypatch):
    # a point evaluation on a conic, with a kernel basis that is dependent
    # mod 3; and the d = 3 witness functional with a kernel basis whose
    # third vector is the second mod 3
    conic = _conic(1, 1)
    v = (1, 3, 9)
    point = DualFunctional(conic, [v[i] * v[j] for i, j in conic.r2_basis])
    conic_kernel = [[3, -1, 0], [3, 8, -3]]
    fn = hilbert_witness(3, seed=11, samples=2000).functional
    g, h1, h2 = nullspace(fn.moment_matrix())
    mixed = [g, h1, [a + 3 * b for a, b in zip(h1, h2)]]
    calls = []
    echelon = numerics._echelon
    monkeypatch.setattr(numerics, "_echelon",
                        lambda rows: calls.append(1) or echelon(rows))
    assert extremality_check(fn, mixed) == (True, 1) and not calls
    expected = _extremality_dense_reference(point)
    assert expected == (True, 1)
    assert extremality_check(point, conic_kernel) == expected
    monkeypatch.setattr(numerics, "_PRIME", 3)
    for functional, kernel in ((point, conic_kernel), (fn, mixed)):
        calls.clear()
        assert extremality_check(functional, kernel) == expected
        # the kernel and its conditions both miss their bounds mod 3
        assert len(calls) >= 2
        with pytest.raises(InconsistentModel):
            extremality_check(functional, kernel[:-1])


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
