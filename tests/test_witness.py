"""End-to-end witness pipeline on plane Veronese models."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindeg.witness
from mindeg.cones import (DualFunctional, _functional_from_points,
                          _normalized_on_variety, interpolant_through_points,
                          pair_with_square)
from mindeg.errors import (
    DegeneratePosition,
    DegenerateSpan,
    InconsistentModel,
    NoDeltaFound,
)
from mindeg.numerics import nullspace
from mindeg.variety import QuadraticForm, epsilon, veronese_model
from mindeg.witness import (
    _SAMPLE_BLOCK,
    _default_selection,
    _double_vanishing_rows,
    _dual_parts,
    _frac_from_json,
    _frac_json,
    _functional_points,
    _line_product,
    _monomials,
    _rng,
    _SphereSamples,
    _square_products,
    _value_and_partials,
    _veronese_image,
    build_f,
    certify_dual,
    certify_not_sos,
    choose_hyperplanes,
    delta_search,
    fit_h0,
    hilbert_witness,
    sample_nonnegativity,
    witness_report_from_json,
)

SEED = 7
SAMPLES = 20000


@pytest.fixture(scope="module")
def report():
    return hilbert_witness(3, seed=SEED, samples=SAMPLES)


def _poly_mul(p, q):
    """Reference product of two ternary forms given as dicts from exponent
    triples to coefficients."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _poly(vec, deg):
    """The dict form of a coefficient vector over _monomials(deg)."""
    return {(a, b, deg - a - b): c
            for (a, b), c in zip(_monomials(deg), vec) if c != 0}


def _vector(poly, deg):
    """The coefficient vector over _monomials(deg) of a dict form."""
    return [poly.get((a, b, deg - a - b), 0) for (a, b) in _monomials(deg)]


SPHERE = {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)}
SPHERE_CUBE = _poly_mul(_poly_mul(SPHERE, SPHERE), SPHERE)


def _line_products(d, seed):
    """choose_hyperplanes with its two line lists multiplied out."""
    ell, em, pts = choose_hyperplanes(d, seed=seed)
    return _line_product(ell), _line_product(em), pts


def test_default_selection_frozen():
    assert _default_selection(3, 7) == [1, 2, 3, 5, 6, 7, 8]
    assert _default_selection(4, 12) == [1, 2, 3, 4, 6, 7, 8, 9,
                                         11, 12, 13, 14]
    sel5 = _default_selection(5, 18)
    assert len(sel5) == 18 and len(set(sel5)) == 18
    assert all(0 <= i < 25 for i in sel5)


def test_choose_hyperplanes_structure():
    ell, em, pts = choose_hyperplanes(3, seed=11)
    assert len(ell) == 3 and len(em) == 3
    assert len(pts) == 9 and len(set(pts)) == 9
    # primitive integer triples with positive leading entry
    for p in pts:
        assert all(isinstance(c, int) for c in p)
        assert next(c for c in p if c != 0) > 0
    # each point lies on one line of each product
    for idx, p in enumerate(pts):
        li, mj = ell[idx // 3], em[idx % 3]
        assert sum(a * b for a, b in zip(li, p)) == 0
        assert sum(a * b for a, b in zip(mj, p)) == 0


def test_choose_hyperplanes_deterministic():
    a = choose_hyperplanes(3, seed=11)
    b = choose_hyperplanes(3, seed=11)
    assert a == b


def test_choose_hyperplanes_rejects_small_degree():
    with pytest.raises(ValueError):
        choose_hyperplanes(2, seed=0)


def test_fit_h0_vanishing_pattern():
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    exps = _monomials(3)
    for i in range(9):
        val = sum(a * b for a, b in zip(h0, _veronese_image(pts[i], 3, exps)))
        if i in selected:
            assert val == 0
        else:
            assert val != 0


def test_fit_h0_selection_errors():
    h1, h2, pts = _line_products(3, 11)
    with pytest.raises(DegenerateSpan):
        fit_h0(pts, [0, 1, 2], seed=1, h_forms=(h1, h2))
    with pytest.raises(InconsistentModel):
        fit_h0(pts[:8], list(range(7)), seed=1, h_forms=(h1, h2))


def test_fit_h0_clustered_selection_degenerates():
    # the first twelve grid cells sit on three lines of the first product,
    # whose multiples inflate the vanishing space
    h1, h2, pts = _line_products(4, 1)
    with pytest.raises(DegenerateSpan):
        fit_h0(pts, list(range(12)), seed=1, h_forms=(h1, h2))


def test_build_f_quotient_must_be_one_at_degree_three():
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    prods = _square_products(veronese_model(2, 3), [h0, h1, h2])
    f, stats = build_f(pts, selected, prods)
    assert stats == {"nullspace_dim": 7, "products_rank": 6,
                     "quotient_dim": 1}
    with pytest.raises(DegenerateSpan):
        build_f(pts, selected[:6], prods)


def _value_and_partials_reference(point, D, exps2):
    """Value and x, y, z partial rows as they were computed: Fraction
    coordinate powers recomputed for every monomial and every partial."""
    p = [F(c) for c in point]
    val = []
    grads = {0: [], 1: [], 2: []}
    for (a, b) in exps2:
        ee = (a, b, D - a - b)
        val.append(p[0] ** a * p[1] ** b * p[2] ** ee[2])
        for k in range(3):
            if ee[k] == 0:
                grads[k].append(F(0))
                continue
            shifted = list(ee)
            shifted[k] -= 1
            grads[k].append(ee[k] * p[0] ** shifted[0]
                            * p[1] ** shifted[1] * p[2] ** shifted[2])
    return [val, grads[0], grads[1], grads[2]]


def _double_vanishing_rows_reference(points, selected, d, exps2):
    """_double_vanishing_rows as it was: value plus two partials per point,
    the partial along the largest coordinate dropped (homogeneity)."""
    rows = []
    for i in selected:
        pivot = max(range(3), key=lambda k: abs(points[i][k]))
        val, *grads = _value_and_partials_reference(points[i], 2 * d, exps2)
        rows.append(val)
        rows.extend(g for k, g in enumerate(grads) if k != pivot)
    return rows


def _double_zero_at_reference(vec, exps2, deg, point):
    """The per-monomial Fraction test that vec vanishes to order two."""
    p = [F(c) for c in point]
    val = F(0)
    grad = [F(0)] * 3
    for (a, b), c in zip(exps2, vec):
        if c == 0:
            continue
        ee = (a, b, deg - a - b)
        val += c * p[0] ** a * p[1] ** b * p[2] ** ee[2]
        for k in range(3):
            if ee[k] == 0:
                continue
            sh = list(ee)
            sh[k] -= 1
            grad[k] += c * ee[k] * p[0] ** sh[0] * p[1] ** sh[1] \
                * p[2] ** sh[2]
    return val == 0 and all(g == 0 for g in grad)


@pytest.mark.parametrize("d,seed", [(3, 1), (4, 1), (5, 0)])
def test_double_vanishing_rows_match_fraction_reference(d, seed):
    f_vec, _, sel_pts, _ = _pipeline_delta_input(d, seed)
    exps2 = _monomials(2 * d)
    idx = list(range(len(sel_pts)))
    rows = _double_vanishing_rows(sel_pts, idx, d, exps2)
    assert nullspace(rows, ncols=len(exps2)) == nullspace(
        _double_vanishing_rows_reference(sel_pts, idx, d, exps2),
        ncols=len(exps2))
    perturbed = list(f_vec)
    perturbed[0] += 1
    for k, p in enumerate(sel_pts):
        mine = _value_and_partials(p, 2 * d, exps2)
        assert mine == rows[4 * k:4 * k + 4]
        assert mine == _value_and_partials_reference(p, 2 * d, exps2)
        for vec, want in ((f_vec, True), (perturbed, None)):
            verdict = all(sum(c * v for c, v in zip(vec, row)) == 0
                          for row in mine)
            assert verdict == _double_zero_at_reference(vec, exps2, 2 * d, p)
            assert want is None or verdict == want
    assert not all(_double_zero_at_reference(perturbed, exps2, 2 * d, p)
                   for p in sel_pts)


def test_delta_search_zero_f_accepts_first_candidate():
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    zero = [F(0)] * len(_monomials(6))
    delta, ev = delta_search(zero, [h0, h1, h2], [pts[i] for i in selected],
                             samples=2000, seed=3)
    assert delta == F(1)
    assert ev["min_value"] >= 0


def test_delta_search_planted_negative_shrinks_and_terminates():
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    planted = [-64 * c for c in veronese_model(2, 3).product(h0, h0)]
    delta, ev = delta_search(planted, [h0, h1, h2],
                             [pts[i] for i in selected],
                             samples=2000, seed=3)
    assert F(0) < delta <= F(1)
    assert ev["margin"] >= -1e-9


def test_delta_search_hopeless_f_raises():
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    # -(2^80)(x^2+y^2+z^2)^3: dwarfs the squares even at delta = 2^-60
    hopeless = [-(2 ** 80) * c for c in _vector(SPHERE_CUBE, 6)]
    with pytest.raises(NoDeltaFound):
        delta_search(hopeless, [h0, h1, h2], [pts[i] for i in selected],
                     samples=2000, seed=3)


def _sphere_values_reference(f_vec, h_vectors, samples, seed):
    """The per-monomial loop that recomputes every coordinate power, each
    by repeated multiplication."""
    d = next(k for k in range(len(h_vectors[0]))
             if len(_monomials(k)) == len(h_vectors[0]))
    rng = _rng(seed)
    pts = rng.normal(size=(int(samples), 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    X, Y, Z = pts[:, 0], pts[:, 1], pts[:, 2]

    def power(v, k):
        out = np.ones_like(v)
        for _ in range(k):
            out = out * v
        return out

    def eval_many(poly_items):
        total = np.zeros_like(X)
        for (a, b, e), c in poly_items:
            total += float(c) * power(X, a) * power(Y, b) * power(Z, e)
        return total

    f_vals = eval_many(_poly(f_vec, 2 * d).items())
    h_sq = np.zeros_like(X)
    for h in h_vectors:
        h_sq += eval_many(_poly(h, d).items()) ** 2
    return pts, f_vals, h_sq


@pytest.mark.parametrize("d", [3, 4, 6])
def test_sphere_values_bit_identical_to_loop_reference(d):
    rng = np.random.Generator(np.random.Philox(d))
    f_vec = [F(int(n), int(q)) for n, q in zip(
        rng.integers(-50, 51, len(_monomials(2 * d))),
        rng.integers(1, 9, len(_monomials(2 * d))))]
    h_vectors = [[F(int(c)) for c in rng.integers(-9, 10, len(_monomials(d)))]
                 for _ in range(3)]
    samples = 2 * _SAMPLE_BLOCK + 77
    want = _sphere_values_reference(f_vec, h_vectors, samples, seed=5)
    got = _SphereSamples(f_vec, h_vectors, samples, seed=5)
    assert np.array_equal(got.pts, want[0])
    assert np.array_equal(got.f, want[1])
    assert np.array_equal(got.h, want[2])


def _delta_search_reference(f_vec, h_vectors, selected_points,
                            samples=100000, seed=0, exclusion_radius=0.1):
    """delta_search as a plain loop over the reference values."""
    pts, f_vals, h_sq = _sphere_values_reference(f_vec, h_vectors, samples,
                                                 seed)
    keep = np.ones(len(pts), dtype=bool)
    for p in selected_points:
        q = np.array([float(c) for c in p])
        q /= np.linalg.norm(q)
        dist = np.minimum(np.linalg.norm(pts - q, axis=1),
                          np.linalg.norm(pts + q, axis=1))
        keep &= dist > exclusion_radius
    if not keep.any():
        keep = np.ones(len(pts), dtype=bool)
    sup_f = float(np.abs(f_vals[keep]).max())
    if sup_f == 0.0:
        estimate = 1.0
    else:
        estimate = float(h_sq[keep].min()) / sup_f
    k0 = 10 if estimate <= 0 else min(10, math.floor(math.log2(estimate)))
    for k in range(k0, -61, -1):
        df = math.ldexp(1.0, k) * f_vals
        w = df + h_sq
        scale = float((np.abs(df) + h_sq).max())
        wmin = float(w.min())
        if scale == 0.0 or wmin >= -1e-9 * scale:
            evidence = {"samples": int(samples),
                        "excluded": int((~keep).sum()),
                        "delta_estimate": estimate,
                        "min_value": wmin,
                        "scale": scale,
                        "margin": 0.0 if scale == 0.0 else wmin / scale}
            return F(2) ** k, evidence
    raise NoDeltaFound("halving reached 2^-60 without a nonnegative sample")


def _sample_nonnegativity_reference(report, samples=100000, seed=0,
                                    delta=None):
    """sample_nonnegativity as a plain loop over the reference values."""
    f_vec = list(report.f.coefficients)
    if delta is None:
        delta = report.delta
    _, f_vals, h_sq = _sphere_values_reference(f_vec, report.h_vectors,
                                               samples, seed)
    df = float(delta) * f_vals
    w = df + h_sq
    scale = float((np.abs(df) + h_sq).max())
    wmin = float(w.min())
    return {"min_value": wmin, "scale": scale,
            "margin": 0.0 if scale == 0.0 else wmin / scale}


class _Captured(Exception):
    pass


def _pipeline_delta_input(d, seed):
    """The (f_vec, h_vectors, selected points, seed) that hilbert_witness
    hands to delta_search; the pipeline stops there."""
    def capture(f_vec, h_vectors, selected_points, samples, seed):
        raise _Captured(f_vec, h_vectors, selected_points, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg.witness, "delta_search", capture)
        with pytest.raises(_Captured) as caught:
            hilbert_witness(d, seed=seed)
    return caught.value.args


def _toy_inputs(kind):
    h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(pts, selected, seed=1, h_forms=(h1, h2))
    h0_poly = _poly(h0, 3)
    f = {"zero": {},
         "planted": {k: -64 * v for k, v in
                     _poly_mul(h0_poly, h0_poly).items()},
         "hopeless": {k: -(2 ** 80) * v
                      for k, v in SPHERE_CUBE.items()}}[kind]
    return _vector(f, 6), [h0, h1, h2], [pts[i] for i in selected], 3


def _near_tie_inputs():
    """f = -(x^2+y^2+z^2)^3 and h_i = x_i (x^2+y^2+z^2): on the sphere
    f = -1 and sum h_i^2 = 1 up to rounding, so every sample is close to
    every extremum and the argmins hinge on the last bits."""
    f_vec = [-c for c in _vector(SPHERE_CUBE, 6)]
    h_vectors = [_vector(_poly_mul({unit: F(1)}, SPHERE), 3)
                 for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return f_vec, h_vectors, [(1, 2, 3)]


def _same_delta_search(f_vec, h_vectors, selected, samples, seed):
    try:
        want = _delta_search_reference(f_vec, h_vectors, selected,
                                       samples=samples, seed=seed)
    except NoDeltaFound:
        with pytest.raises(NoDeltaFound):
            delta_search(f_vec, h_vectors, selected, samples=samples,
                         seed=seed)
        return
    delta, evidence = delta_search(f_vec, h_vectors, selected,
                                   samples=samples, seed=seed)
    assert delta == want[0]
    # dict equality compares every float with ==
    assert evidence == want[1]


@pytest.mark.parametrize("samples", [1, 77, 2 * _SAMPLE_BLOCK + 77])
@pytest.mark.parametrize("source", ["3-1", "3-7", "3-11", "4-1", "zero",
                                    "planted", "hopeless"])
def test_delta_search_matches_reference(source, samples):
    if "-" in source:
        d, seed = (int(t) for t in source.split("-"))
        f_vec, h_vectors, selected, s_delta = _pipeline_delta_input(d, seed)
    else:
        f_vec, h_vectors, selected, s_delta = _toy_inputs(source)
    _same_delta_search(f_vec, h_vectors, selected, samples, s_delta)


@pytest.mark.parametrize("seed", range(5))
def test_delta_search_matches_reference_near_tie(seed):
    f_vec, h_vectors, selected = _near_tie_inputs()
    _same_delta_search(f_vec, h_vectors, selected, 40000, seed)


@pytest.mark.parametrize("samples", [1, 77, 2 * _SAMPLE_BLOCK + 77])
def test_sample_nonnegativity_matches_reference(report, samples):
    for delta in (None, report.delta / 2, report.delta * F(3, 7), F(1)):
        got = sample_nonnegativity(report, samples=samples, seed=123,
                                   delta=delta)
        assert got == _sample_nonnegativity_reference(
            report, samples=samples, seed=123, delta=delta)
    f_vec, h_vectors, _ = _near_tie_inputs()
    tie = replace(report, h_vectors=h_vectors,
                  f=QuadraticForm(veronese_model(2, 3), f_vec))
    for seed in range(3):
        got = sample_nonnegativity(tie, samples=samples, seed=seed,
                                   delta=F(1))
        assert got == _sample_nonnegativity_reference(
            tie, samples=samples, seed=seed, delta=F(1))


@pytest.mark.parametrize("d,seed", [(3, s) for s in range(12)]
                         + [(4, 0), (4, 1)])
def test_sample_nonnegativity_reproduces_pipeline_evidence(d, seed):
    # the pipeline's own sample seed and delta: the re-check must sum the
    # same terms in the same order as delta_search did
    rep = hilbert_witness(d, seed=seed)
    s_delta = np.random.SeedSequence(
        seed, spawn_key=(rep.attempt,)).spawn(3)[2]
    got = sample_nonnegativity(rep, samples=100000, seed=s_delta)
    assert got == {k: rep.nonneg_evidence[k]
                   for k in ("min_value", "scale", "margin")}


def test_pipeline_frozen_seed(report):
    assert report.attempt == 0
    assert report.delta == F(1, 536870912)
    assert report.selected == [1, 2, 3, 5, 6, 7, 8]
    assert report.h1_factors == [(6, -3, -4), (1, -1, -2), (5, 9, -4)]
    assert report.stats == {"nullspace_dim": 7, "products_rank": 6,
                            "quotient_dim": 1}
    assert report.certificate["valid"] is True
    assert report.certificate["with_f_rank"] == 7


def test_pipeline_nonnegativity_evidence(report):
    assert report.nonneg_evidence["margin"] >= -1e-9
    assert report.nonneg_evidence["samples"] == SAMPLES
    fresh = sample_nonnegativity(report, samples=SAMPLES, seed=123)
    assert fresh["margin"] >= -1e-9


def test_pipeline_functional_checks(report):
    checks = report.functional_checks
    assert checks["pairing_is_zero"] is True
    assert checks["moment_min_eig"] >= -1e-8
    assert checks["kernel_dim"] == 3
    assert checks["extremal"] is True
    # the products R_1 span{g, h1, h2} satisfy only the 3 Koszul relations
    assert checks["perturbation_dim"] == epsilon(veronese_model(2, 3)) == 1
    assert report.functional_info["point_indices"] == list(range(9))


def test_pipeline_solver_never_certifies(report):
    assert report.sos["status"] == "Infeasible"


def test_pipeline_deterministic(report):
    again = hilbert_witness(3, seed=SEED, samples=SAMPLES)
    assert json.dumps(report.to_json(), sort_keys=True) == \
        json.dumps(again.to_json(), sort_keys=True)


def test_report_json_roundtrip(report):
    blob = report.to_json()
    back = witness_report_from_json(blob)
    assert json.dumps(blob, sort_keys=True) == \
        json.dumps(back.to_json(), sort_keys=True)
    assert certify_not_sos(back) is True


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.integers(-2 ** 300, 2 ** 300),
    st.fractions(),
    st.builds(F, st.integers(-2 ** 300, 2 ** 300),
              st.integers(1, 2 ** 300))))
def test_frac_json_roundtrip(v):
    blob = json.loads(json.dumps(_frac_json(v)))
    assert set(blob) == {"num", "den"} and int(blob["den"]) > 0
    back = _frac_from_json(blob)
    assert type(back) is F and back == v
    assert _frac_json(back) == blob


def test_certify_rejects_tampered_reports(report):
    model = veronese_model(2, 3)
    h0_sq = model.product(report.h_vectors[0], report.h_vectors[0])
    inside = replace(report, f=QuadraticForm(model, h0_sq))
    assert certify_not_sos(inside) is False
    short = replace(report, selected=report.selected[:-1])
    assert certify_not_sos(short) is False
    zero = replace(report, f=QuadraticForm(model, [F(0)] * 28))
    assert certify_not_sos(zero) is False
    # the witness must be delta f + sum h_i^2, with delta > 0
    assert certify_not_sos(replace(
        report, witness=QuadraticForm(model, h0_sq))) is False
    longer = replace(report, h_vectors=[list(h) + [F(5)]
                                        for h in report.h_vectors])
    assert certify_not_sos(longer) is False
    squares = [model.product(h, h) for h in report.h_vectors]
    sum_sq = [a + b + c for a, b, c in zip(*squares)]
    assert certify_not_sos(replace(
        report, delta=F(0), witness=QuadraticForm(model, sum_sq))) is False
    assert certify_not_sos(replace(report, witness=None)) is False
    assert certify_not_sos(report) is True


def test_delta_halving_stays_accepted(report):
    # accepted delta implies accepted delta/2 on fresh samples
    for seed in (0, 1):
        rep = hilbert_witness(3, seed=seed, samples=SAMPLES)
        half = sample_nonnegativity(rep, samples=SAMPLES, seed=99,
                                    delta=rep.delta / 2)
        assert half["margin"] >= -1e-9
    half = sample_nonnegativity(report, samples=SAMPLES, seed=99,
                                delta=report.delta / 2)
    assert half["margin"] >= -1e-9


def test_pipeline_degree_four():
    rep = hilbert_witness(4, seed=1, samples=10000)
    assert len(rep.selected) == 12
    assert rep.stats["quotient_dim"] == 3
    assert rep.certificate["valid"] is True
    assert rep.sos["status"] == "Infeasible"
    assert certify_not_sos(rep) is True
    assert rep.functional_checks["perturbation_dim"] == \
        epsilon(veronese_model(2, 4)) == 3


def test_pipeline_degree_five_carries_the_functional():
    rep = hilbert_witness(5, seed=1, samples=SAMPLES)
    model = veronese_model(2, 5)
    info = rep.functional_info
    assert info["point_indices"] == _functional_points(5)
    # the pairing l(g^2 + h1^2 + h2^2), redone from the recorded points
    pts = _normalized_on_variety(
        model, [_veronese_image(rep.points[i], 5, model.r1_basis)
                for i in info["point_indices"]])
    g = interpolant_through_points(
        pts[:-1],
        [lam / kap for lam, kap in zip(info["lambdas"], info["kappas"])])
    pairing = sum(pair_with_square(rep.functional, h)
                  for h in [g] + list(rep.h_vectors[1:]))
    assert pairing == 0
    checks = rep.functional_checks
    assert checks["pairing_is_zero"] is True
    assert checks["kernel_dim"] == 3
    assert checks["perturbation_dim"] == epsilon(veronese_model(2, 5)) == 6
    assert certify_dual(rep) is True


def _functional_scan_reference(model, points, max_subsets=60):
    """The first e+2 point indices, in itertools.combinations order, whose
    images admit a unique relation with every coefficient nonzero; None
    when max_subsets subsets fail."""
    d = math.isqrt(len(points))
    images = _normalized_on_variety(
        model, [_veronese_image(p, d, model.r1_basis) for p in points])
    for idx in itertools.islice(
            itertools.combinations(range(len(points)), model.e + 2),
            max_subsets):
        try:
            _functional_from_points(model, [images[i] for i in idx])
        except DegeneratePosition:
            continue
        return list(idx)
    return None


@pytest.mark.parametrize("d", range(3, 9))
def test_functional_points_leave_out_the_staircase(d):
    e = (d + 2) * (d + 1) // 2 - 3
    chosen = _functional_points(d)
    assert len(chosen) == e + 2 == d * d - (math.comb(d - 1, 2) - 1)
    assert chosen == sorted(set(chosen)) and chosen[-1] < d * d
    if d == 4:
        assert sorted(set(range(16)) - set(chosen)) == [11, 14]


def test_functional_points_are_the_scan_choice_at_degree_four():
    # the subset scan that picked the points before the construction: on
    # these draws it rejects the seven subsets that precede
    # _functional_points(4) in combinations order
    model = veronese_model(2, 4)
    for seed in range(40):
        _, _, pts = choose_hyperplanes(4, seed)
        assert _functional_scan_reference(model, pts) == \
            _functional_points(4), seed


def test_line_product_expansion():
    prod = _line_product([(1, 0, -1), (0, 1, -1)])
    # (x - z)(y - z) = xy - xz - yz + z^2
    assert prod == _vector({(1, 1, 0): 1, (1, 0, 1): -1,
                            (0, 1, 1): -1, (0, 0, 2): 1}, 2)
    assert prod == [1, -1, 0, -1, 1, 0]
    assert _line_product([(1, 0, -1)]) == [-1, 0, 1]
    # against the dict expansion, and ints stay ints
    rng = np.random.Generator(np.random.Philox(3))
    for d in (3, 4, 5):
        lines = [tuple(int(c) for c in row)
                 for row in rng.integers(-9, 10, size=(d, 3))]
        want = {(0, 0, 0): 1}
        for a, b, c in lines:
            want = _poly_mul(want, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        got = _line_product(lines)
        assert got == _vector(want, d)
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("d", [3, 4])
def test_product_matches_polynomial_expansion(d):
    model = veronese_model(2, d)
    rng = np.random.Generator(np.random.Philox(d))
    size = len(_monomials(d))
    for _ in range(5):
        g, h = ([int(c) for c in rng.integers(-9, 10, size)]
                for _ in range(2))
        got = model.product(g, h)
        assert got == _vector(_poly_mul(_poly(g, d), _poly(h, d)), 2 * d)
        assert all(type(c) is int for c in got)
        gq = [F(c, 3) for c in g]
        assert model.product(gq, h) == [F(c, 3) for c in got]


# -- the exact dual certificate, re-checked from the JSON with Fractions ----

def _dense_sigma(model):
    """The dense exact sigma rows (R_2 basis x monomial pairs, i-major),
    built column by column as model.product of two unit vectors."""
    nvars = model.n + 1
    unit = [[F(int(k == t)) for k in range(nvars)] for t in range(nvars)]
    cols = [model.product(unit[i], unit[j])
            for i in range(nvars) for j in range(i, nvars)]
    return [list(row) for row in zip(*cols)]


def _moment_from_sigma(model, values):
    """M[i][j] = l(x_i x_j) from the dense exact sigma rows."""
    nvars = model.n + 1
    index = {(i, j): c for c, (i, j) in enumerate(
        (i, j) for i in range(nvars) for j in range(i, nvars))}
    sigma = _dense_sigma(model)
    return [[sum((v * sigma[s][index[min(i, j), max(i, j)]]
                  for s, v in enumerate(values)), F(0))
             for j in range(nvars)] for i in range(nvars)]


def _ldl_positive_definite(M):
    """Fraction LDL^T: every pivot strictly positive."""
    A = [[F(x) for x in row] for row in M]
    for k in range(len(A)):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, len(A)):
            t = A[i][k] / A[k][k]
            for j in range(k + 1, len(A)):
                A[i][j] -= t * A[k][j]
    return True


@pytest.mark.parametrize("d,seed", [(3, s) for s in range(12)]
                         + [(4, 1), (4, 5)])
def test_dual_certificate_exact(d, seed):
    blob = json.loads(json.dumps(
        hilbert_witness(d, seed=seed, samples=SAMPLES).to_json()))
    sos = blob["sos"]
    assert set(sos) == {"status", "separation", "functional"}
    assert sos["status"] == "Infeasible"
    assert sos["functional"]["model"] == "veronese(%d,%d)" % (2, d)
    model = veronese_model(2, d)
    values = [F(int(v["num"]), int(v["den"]))
              for v in sos["functional"]["values"]]
    w = [F(c) for c in blob["witness"]["coefficients"]]
    assert len(values) == len(w) == model.dim_r2
    value = sum((v * c for v, c in zip(values, w)), F(0))
    assert value < 0
    assert value == F(int(sos["separation"]["num"]),
                      int(sos["separation"]["den"]))
    # l(w) = -delta / 4 by construction
    assert value == -F(int(blob["delta"]["num"]),
                       int(blob["delta"]["den"])) / 4
    assert _ldl_positive_definite(_moment_from_sigma(model, values))
    assert certify_dual(witness_report_from_json(blob)) is True


def test_certify_dual_rejects_tampered_reports(report):
    model = veronese_model(2, 3)
    assert certify_dual(report) is True
    good = report.sos["functional"]

    def with_values(values):
        fn = dict(good, values=values)
        return replace(report, sos=dict(report.sos, functional=fn))

    # l(z^6) is a diagonal moment entry: negated, the matrix is not PD
    vals = list(good["values"])
    assert F(int(vals[0]["num"]), int(vals[0]["den"])) > 0
    vals[0] = dict(vals[0], num=str(-int(vals[0]["num"])))
    assert certify_dual(with_values(vals)) is False
    prods = _square_products(model, report.h_vectors)
    l2, _, K = _dual_parts(report, model, prods)
    assert K > 0
    assert certify_dual(with_values(
        DualFunctional(model, l2).to_json()["values"])) is False
    h0 = report.h_vectors[0]
    h0_sq = QuadraticForm(model, model.product(h0, h0))
    assert certify_dual(replace(report, witness=h0_sq)) is False
    assert certify_dual(with_values(good["values"][:-1])) is False
    assert certify_dual(replace(report, sos=None)) is False
    assert certify_dual(replace(report, witness=None)) is False


def test_pipeline_rejects_a_dual_that_fails_certify_dual(monkeypatch):
    # with K = 0 the functional is l2 alone, whose moment matrix is not
    # positive definite (see above): the pipeline raises, never reports it
    def no_shift(report, model, prods):
        l2, l1, _ = _dual_parts(report, model, prods)
        return l2, l1, 0

    monkeypatch.setattr(mindeg.witness, "_dual_parts", no_shift)
    with pytest.raises(InconsistentModel, match="dual certificate"):
        hilbert_witness(3, seed=SEED, samples=SAMPLES)
