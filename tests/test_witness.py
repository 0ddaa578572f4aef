"""End-to-end witness pipeline on plane Veronese models."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mindeg.witness
from mindeg.cones import (DualFunctional, _sup_normalize,
                          interpolant_through_points, moment_psd,
                          pair_with_square, separating_functional_real)
from mindeg.errors import (
    DegeneratePosition,
    InconsistentModel,
    NoDeltaFound,
    RetryExhausted,
)
from mindeg.numerics import exact_rank, nullspace, residues, to_float
from mindeg.variety import QuadraticForm, epsilon, veronese_model
from mindeg.witness import (
    _SAMPLE_BLOCK,
    _cross,
    _default_selection,
    _degree,
    _EXCLUSION_RADIUS,
    _MAX_RETRIES,
    _frac_from_json,
    _frac_json,
    _functional_points,
    _line_product,
    _normalized,
    _outside,
    _partials,
    _rng,
    _SphereSamples,
    _square_products,
    _unit_rows,
    _veronese_image,
    build_f,
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
    """The dict form of a coefficient vector over the degree-deg exponent
    pairs of the model's basis."""
    return {(a, b, deg - a - b): c
            for (a, b), c in zip(veronese_model(2, deg).r1_basis, vec)
            if c != 0}


def _vector(poly, deg):
    """The coefficient vector over the model's degree-deg basis of a dict
    form."""
    return [poly.get((a, b, deg - a - b), 0)
            for (a, b) in veronese_model(2, deg).r1_basis]


SPHERE = {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)}
SPHERE_CUBE = _poly_mul(_poly_mul(SPHERE, SPHERE), SPHERE)


def _line_products(d, seed):
    """veronese_model(2, d), and choose_hyperplanes on it with its two line
    lists multiplied out."""
    model = veronese_model(2, d)
    ell, em, pts = choose_hyperplanes(model, seed=seed)
    return (model, _line_product(ell, model.r1_basis),
            _line_product(em, model.r1_basis), pts)


def test_default_selection_frozen():
    assert _default_selection(3, 7) == [1, 2, 3, 5, 6, 7, 8]
    assert _default_selection(4, 12) == [1, 2, 3, 4, 6, 7, 8, 9,
                                         11, 12, 13, 14]
    sel5 = _default_selection(5, 18)
    assert len(sel5) == 18 and len(set(sel5)) == 18
    assert all(0 <= i < 25 for i in sel5)


def test_choose_hyperplanes_structure():
    ell, em, pts = choose_hyperplanes(veronese_model(2, 3), seed=11)
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
    a = choose_hyperplanes(veronese_model(2, 3), seed=11)
    b = choose_hyperplanes(veronese_model(2, 3), seed=11)
    assert a == b


_LINE = st.tuples(*[st.integers(-9, 9)] * 3).filter(any).map(_normalized)


@given(_LINE, _LINE)
def test_distinct_primitive_lines_meet_in_a_point(a, b):
    # why choose_hyperplanes needs no check for a zero intersection
    assume(a != b)
    assert _cross(a, b) != (0, 0, 0)


def test_choose_hyperplanes_rejects_small_degree():
    with pytest.raises(ValueError):
        choose_hyperplanes(veronese_model(2, 2), seed=0)


def test_fit_h0_vanishing_pattern():
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    exps = model.r1_basis
    for i in range(9):
        val = sum(a * b for a, b in zip(h0, _veronese_image(pts[i], 3, exps)))
        if i in selected:
            assert val == 0
        else:
            assert val != 0


def test_fit_h0_selection_errors():
    model, _, _, pts = _line_products(3, 11)
    with pytest.raises(DegeneratePosition):
        fit_h0(model, pts, [0, 1, 2], seed=1)


def test_fit_h0_clustered_selection_degenerates():
    # the first twelve grid cells sit on three lines of the first product,
    # whose multiples inflate the vanishing space
    model, _, _, pts = _line_products(4, 1)
    with pytest.raises(DegeneratePosition):
        fit_h0(model, pts, list(range(12)), seed=1)


def test_draw_exhaustion_is_a_degenerate_position(monkeypatch):
    # the stages raise the one error the pipeline retries
    model, _, _, pts = _line_products(3, 11)
    monkeypatch.setattr(mindeg.witness, "_MAX_DRAWS", 0)
    with pytest.raises(DegeneratePosition, match="in 0 draws"):
        choose_hyperplanes(model, seed=11)
    with pytest.raises(DegeneratePosition, match="in 0 draws"):
        fit_h0(model, pts, _default_selection(3, 7), seed=1)


def test_pipeline_gives_up_when_every_attempt_degenerates(monkeypatch):
    calls = []

    def degenerate(model, seed):
        calls.append(seed)
        raise DegeneratePosition("draw %d is degenerate" % len(calls))

    monkeypatch.setattr(mindeg.witness, "choose_hyperplanes", degenerate)
    with pytest.raises(RetryExhausted) as caught:
        hilbert_witness(3, seed=0)
    assert len(calls) == _MAX_RETRIES
    assert str(caught.value).endswith(
        "last: draw %d is degenerate" % _MAX_RETRIES)


@pytest.mark.parametrize("d,seed", [(d, s) for d in (3, 4, 5) for s in (0, 1)])
def test_line_products_span_the_vanishing_space(d, seed):
    # the facts fit_h0 relies on without checking: h1 and h2 vanish at all
    # d^2 grid points, and h0, h1, h2 are independent
    drawn = []

    def record(*args, **kwargs):
        drawn.append(choose_hyperplanes(*args, **kwargs))
        return drawn[-1]

    def stop(model, hs):
        raise _Captured(model, hs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg.witness, "choose_hyperplanes", record)
        mp.setattr(mindeg.witness, "_square_products", stop)
        with pytest.raises(_Captured) as caught:
            hilbert_witness(d, seed=seed)
    model, hs = caught.value.args
    points = drawn[-1][2]
    assert len(points) == d * d
    for p in points:
        image = _veronese_image(p, d, model.r1_basis)
        assert [sum(c * v for c, v in zip(h, image)) for h in hs[1:]] == [0, 0]
    assert exact_rank(hs) == 3


def test_build_f_quotient_must_be_one_at_degree_three():
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    prods = _square_products(model, [h0, h1, h2])
    f, stats = build_f(model, pts, selected, prods)
    assert stats == {"nullspace_dim": 7, "products_rank": 6,
                     "quotient_dim": 1}
    with pytest.raises(DegeneratePosition):
        build_f(model, pts, selected[:6], prods)


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
    """build_f's rows as they once were: value plus two partials per point,
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


@pytest.mark.parametrize("d", range(3, 7))
def test_partials_satisfy_euler_relation(d):
    # sum_k p_k (partial row k) = 2d (value row) at every point, so the
    # value row adds nothing to build_f's rows
    exps2 = veronese_model(2, d).r2_basis
    rng = np.random.Generator(np.random.Philox(d))
    points = [tuple(int(c) for c in row)
              for row in rng.integers(-9, 10, size=(8, 3))]
    points += [(0, 0, 1), (1, 0, 0), (0, -2, 3)]
    for p in points:
        value = _veronese_image(p, 2 * d, exps2)
        grads = _partials(p, 2 * d, exps2)
        assert [sum(pk * row[s] for pk, row in zip(p, grads))
                for s in range(len(exps2))] == [2 * d * v for v in value]


@pytest.mark.parametrize("d,seed", [(3, 1), (4, 1), (5, 0)])
def test_double_vanishing_rows_match_fraction_reference(d, seed):
    model, f_vec, _, sel_pts, _ = _pipeline_delta_input(d, seed)
    exps2 = model.r2_basis
    idx = list(range(len(sel_pts)))
    # build_f's rows: the three partials at each selected point
    rows = [row for p in sel_pts for row in _partials(p, 2 * d, exps2)]
    assert nullspace(rows, ncols=len(exps2)) == nullspace(
        _double_vanishing_rows_reference(sel_pts, idx, d, exps2),
        ncols=len(exps2))
    perturbed = list(f_vec)
    perturbed[0] += 1
    for p in sel_pts:
        mine = _partials(p, 2 * d, exps2)
        assert mine == _value_and_partials_reference(p, 2 * d, exps2)[1:]
        for vec, want in ((f_vec, True), (perturbed, None)):
            verdict = all(sum(c * v for c, v in zip(vec, row)) == 0
                          for row in mine)
            assert verdict == _double_zero_at_reference(vec, exps2, 2 * d, p)
            assert want is None or verdict == want
    assert not all(_double_zero_at_reference(perturbed, exps2, 2 * d, p)
                   for p in sel_pts)


@pytest.mark.parametrize("d,seed", [(d, s) for d in (3, 4, 5) for s in (0, 1)])
def test_build_f_doubly_vanishes_at_the_selected_points(d, seed):
    # each h_i h_j vanishes doubly at the selected points, so the products
    # lie in span(ns) and f, a residue of a vector of ns modulo them, is
    # killed by every row of build_f's system
    def stop(model, points, selected, prods):
        raise _Captured(model, points, selected, prods,
                        build_f(model, points, selected, prods)[0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg.witness, "build_f", stop)
        with pytest.raises(_Captured) as caught:
            hilbert_witness(d, seed=seed)
    model, points, selected, prods, f = caught.value.args
    exps2 = model.r2_basis
    rows = [row for i in selected
            for row in _partials(points[i], 2 * d, exps2)]
    assert all(sum(c * v for c, v in zip(p, row)) == 0
               for p in prods for row in rows)
    assert any(f)
    assert all(sum(c * v for c, v in zip(f, row)) == 0 for row in rows)


def _build_f_input(d, seed):
    """The (model, points, selected, prods) that hilbert_witness hands to
    build_f; the pipeline stops there."""
    def stop(model, points, selected, prods):
        raise _Captured(model, points, selected, prods)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg.witness, "build_f", stop)
        with pytest.raises(_Captured) as caught:
            hilbert_witness(d, seed=seed)
    return caught.value.args


def _build_f_reference(model, points, selected, prods):
    """build_f as it read f off the whole reduced nullspace: nullspace of
    the double-zero rows, exact_rank of the products, and the first
    nonzero of the residues of every nullspace vector."""
    d = _degree(model)
    rows = [row for i in selected
            for row in _partials(points[i], 2 * d, model.r2_basis)]
    ns = nullspace(rows, ncols=model.dim_r2)
    rp = exact_rank(prods)
    f = next(w for w in residues(prods, ns) if any(w))
    return [F(c) for c in _normalized(f)], {
        "nullspace_dim": len(ns), "products_rank": rp,
        "quotient_dim": len(ns) - rp}


@pytest.mark.parametrize("d,seed", [(3, s) for s in range(6)]
                         + [(4, s) for s in range(4)] + [(5, 0), (5, 2)])
def test_build_f_matches_the_whole_nullspace_route(d, seed):
    args = _build_f_input(d, seed)
    assert build_f(*args) == _build_f_reference(*args)


def test_delta_search_zero_f_accepts_first_candidate():
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    zero = [F(0)] * model.dim_r2
    delta, ev = delta_search(model, zero, [h0, h1, h2],
                             [pts[i] for i in selected], samples=2000, seed=3)
    assert delta == F(1)
    assert ev["min_value"] >= 0


def test_delta_search_planted_negative_shrinks_and_terminates():
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    planted = [-64 * c for c in model.product(h0, h0)]
    delta, ev = delta_search(model, planted, [h0, h1, h2],
                             [pts[i] for i in selected],
                             samples=2000, seed=3)
    assert F(0) < delta <= F(1)
    assert ev["margin"] >= -1e-9


def test_delta_search_hopeless_f_raises():
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    # -(2^80)(x^2+y^2+z^2)^3: dwarfs the squares even at delta = 2^-60
    hopeless = [-(2 ** 80) * c for c in _vector(SPHERE_CUBE, 6)]
    with pytest.raises(NoDeltaFound):
        delta_search(model, hopeless, [h0, h1, h2],
                     [pts[i] for i in selected], samples=2000, seed=3)


def _sphere_values_reference(f_vec, h_vectors, samples, seed):
    """The per-monomial loop that recomputes every coordinate power, each
    by repeated multiplication."""
    d = next(k for k in range(len(h_vectors[0]))
             if math.comb(k + 2, 2) == len(h_vectors[0]))
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


def _outside_reference(pts, centers, radius):
    """The exclusion mask one center at a time, over samples as the rows
    of pts: the distance test runs on the rows with |p.q| above the
    prefilter bound."""
    keep = np.ones(len(pts), dtype=bool)
    for p in centers:
        q = np.array([float(c) for c in p])
        q /= np.linalg.norm(q)
        near = np.flatnonzero(np.abs(pts @ q) > 1.0 - radius ** 2 - 1e-9)
        rows = pts[near]
        dist = np.minimum(np.linalg.norm(rows - q, axis=1),
                          np.linalg.norm(rows + q, axis=1))
        keep[near] &= dist > radius
    return keep


def _at_angle(q, cos_t, rng):
    """A unit point at angle arccos(cos_t) from the unit vector q."""
    u = np.cross(q, rng.normal(size=3))
    u /= np.linalg.norm(u)
    return cos_t * q + math.sqrt(1.0 - cos_t * cos_t) * u


def test_outside_matches_the_per_center_reference_on_the_boundaries():
    # points at chord distance radius (1 +- 1e-12) from +-q, and points
    # whose |p.q| lies within 1e-15 of the prefilter bound, scattered
    # through 2 x 2,048 + 37 samples
    rng = np.random.Generator(np.random.Philox(3))
    centers = [(1, 0, 0), (2, -3, 5), (0, 1, 1), (-4, 1, 7)]
    units = _unit_rows(centers)
    r = _EXCLUSION_RADIUS
    bound = 1.0 - r ** 2 - 1e-9
    special = []
    for q in units:
        for sign in (1.0, -1.0):
            for chord in (r * (1 - 1e-12), r * (1 + 1e-12)):
                # chord c from q is the angle with cos = 1 - c^2 / 2
                special.append(sign * _at_angle(q, 1 - chord * chord / 2,
                                                rng))
            for off in (-1e-15, 0.0, 1e-15):
                special.append(sign * _at_angle(q, bound + off, rng))
    m = 2 * 2048 + 37
    pts = rng.normal(size=(m, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    at = rng.choice(m - 1, size=len(special), replace=False)
    # an excluded point at the last sample
    at[-5] = m - 1
    pts[at] = special
    # coordinate rows of a wider table, as _SphereSamples passes them
    table = np.zeros((3, 2, m))
    table[:, 0] = pts.T
    got = _outside(table[:, 0], units, r, np.empty(len(units) * m))
    want = _outside_reference(pts, centers, r)
    assert np.array_equal(got, want)
    # per sign: inside the radius (excluded), just outside it and three
    # at the bound (kept)
    assert [bool(got[i]) for i in at] == [k % 5 != 0
                                          for k in range(len(special))]
    assert _outside(table[:, 0], units[:0], r, np.empty(0)).all()


@pytest.mark.parametrize("d", [3, 4, 6])
def test_sphere_values_bit_identical_to_loop_reference(d):
    model = veronese_model(2, d)
    rng = np.random.Generator(np.random.Philox(d))
    f_vec = [F(int(n), int(q)) for n, q in zip(
        rng.integers(-50, 51, model.dim_r2), rng.integers(1, 9, model.dim_r2))]
    h_vectors = [[F(int(c))
                  for c in rng.integers(-9, 10, len(model.r1_basis))]
                 for _ in range(3)]
    samples = 2 * _SAMPLE_BLOCK + 77
    want = _sphere_values_reference(f_vec, h_vectors, samples, seed=5)
    centers = [(1, 0, 0), (2, -3, 5), (0, 1, 1)]
    got = _SphereSamples(model, f_vec, h_vectors, samples, seed=5,
                         centers=centers)
    keep = _outside_reference(want[0], centers, _EXCLUSION_RADIUS)
    assert not keep.all()
    assert np.array_equal(got.keep, keep)
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
    """The (model, f_vec, h_vectors, selected points, seed) that
    hilbert_witness hands to delta_search; the pipeline stops there."""
    def capture(model, f_vec, h_vectors, selected_points, samples, seed):
        raise _Captured(model, f_vec, h_vectors, selected_points, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg.witness, "delta_search", capture)
        with pytest.raises(_Captured) as caught:
            hilbert_witness(d, seed=seed)
    return caught.value.args


def _toy_inputs(kind):
    model, h1, h2, pts = _line_products(3, 11)
    selected = _default_selection(3, 7)
    h0 = fit_h0(model, pts, selected, seed=1)
    h0_poly = _poly(h0, 3)
    f = {"zero": {},
         "planted": {k: -64 * v for k, v in
                     _poly_mul(h0_poly, h0_poly).items()},
         "hopeless": {k: -(2 ** 80) * v
                      for k, v in SPHERE_CUBE.items()}}[kind]
    return model, _vector(f, 6), [h0, h1, h2], [pts[i] for i in selected], 3


def _near_tie_inputs():
    """f = -(x^2+y^2+z^2)^3 and h_i = x_i (x^2+y^2+z^2): on the sphere
    f = -1 and sum h_i^2 = 1 up to rounding, so every sample is close to
    every extremum and the argmins hinge on the last bits."""
    f_vec = [-c for c in _vector(SPHERE_CUBE, 6)]
    h_vectors = [_vector(_poly_mul({unit: F(1)}, SPHERE), 3)
                 for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return f_vec, h_vectors, [(1, 2, 3)]


def _same_delta_search(model, f_vec, h_vectors, selected, samples, seed):
    try:
        want = _delta_search_reference(f_vec, h_vectors, selected,
                                       samples=samples, seed=seed)
    except NoDeltaFound:
        with pytest.raises(NoDeltaFound):
            delta_search(model, f_vec, h_vectors, selected, samples=samples,
                         seed=seed)
        return
    delta, evidence = delta_search(model, f_vec, h_vectors, selected,
                                   samples=samples, seed=seed)
    assert delta == want[0]
    # dict equality compares every float with ==
    assert evidence == want[1]


@pytest.mark.parametrize("samples", [1, 77, 4 * _SAMPLE_BLOCK + 77])
@pytest.mark.parametrize("source", ["3-1", "3-7", "3-11", "4-1", "zero",
                                    "planted", "hopeless"])
def test_delta_search_matches_reference(source, samples):
    if "-" in source:
        d, seed = (int(t) for t in source.split("-"))
        inputs = _pipeline_delta_input(d, seed)
    else:
        inputs = _toy_inputs(source)
    _same_delta_search(*inputs[:4], samples, inputs[4])


@pytest.mark.parametrize("seed", range(5))
def test_delta_search_matches_reference_near_tie(seed):
    f_vec, h_vectors, selected = _near_tie_inputs()
    _same_delta_search(veronese_model(2, 3), f_vec, h_vectors, selected,
                       40000, seed)


@pytest.mark.parametrize("samples", [1, 77, 4 * _SAMPLE_BLOCK + 77])
def test_sample_nonnegativity_matches_reference(report, samples):
    for delta in (report.delta, report.delta / 2, report.delta * F(3, 7),
                  F(1)):
        got = sample_nonnegativity(replace(report, delta=delta),
                                   samples=samples, seed=123)
        assert got == _sample_nonnegativity_reference(
            report, samples=samples, seed=123, delta=delta)
    f_vec, h_vectors, _ = _near_tie_inputs()
    tie = replace(report, h_vectors=h_vectors,
                  f=QuadraticForm(veronese_model(2, 3), f_vec))
    for seed in range(3):
        got = sample_nonnegativity(replace(tie, delta=F(1)),
                                   samples=samples, seed=seed)
        assert got == _sample_nonnegativity_reference(
            tie, samples=samples, seed=seed, delta=F(1))


@pytest.mark.parametrize("samples", [0, -5, 1.5, 2.0, "7", None,
                                     float("nan")])
def test_sample_count_must_be_an_integer_of_at_least_one(report, samples):
    model, f_vec, hs, selected, seed = _toy_inputs("zero")
    calls = [lambda: delta_search(model, f_vec, hs, selected,
                                  samples=samples, seed=seed),
             lambda: sample_nonnegativity(report, samples=samples),
             lambda: hilbert_witness(3, seed=SEED, samples=samples)]
    for call in calls:
        with pytest.raises(ValueError, match="samples"):
            call()


def test_sample_count_takes_numpy_integers(report):
    assert sample_nonnegativity(report, samples=np.int64(77), seed=1) \
        == sample_nonnegativity(report, samples=77, seed=1)


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


@pytest.mark.parametrize("d,seed", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_moment_psd_is_the_bottom_eigenvalue_of_eigh(d, seed):
    # eigvalsh's bottom eigenvalue differs from eigh's in the last bits, and
    # the CLI's witness pin leaves moment_min_eig out
    rep = hilbert_witness(d, seed=seed, samples=2000)
    fn = rep.functional
    want = float(np.linalg.eigh(to_float(fn.moment_matrix()))[0][0])
    assert moment_psd(fn).hex() == want.hex()
    assert rep.functional_checks["moment_min_eig"].hex() == want.hex()


@pytest.mark.parametrize("seed", [0, 5, 2 ** 70])
def test_rng_is_philox_of_the_seed_sequence(seed):
    # an int, a numpy int and a SeedSequence give one stream; a float is
    # not truncated to an int
    want = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed))).integers(0, 2 ** 62, 16)
    seeds = [seed, np.random.SeedSequence(seed)]
    if seed < 2 ** 63:
        seeds.append(np.int64(seed))
    for s in seeds:
        assert (_rng(s).integers(0, 2 ** 62, 16) == want).all()
    with pytest.raises(TypeError):
        _rng(float(seed))


def test_pipeline_functional_checks(report):
    checks = report.functional_checks
    assert checks["moment_min_eig"] >= -1e-8
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


def test_certify_rejects_tampered_points(report):
    model = veronese_model(2, 3)
    # h0 is nonzero at every unselected point
    moved = list(report.selected)
    moved[0] = next(i for i in range(len(report.points))
                    if i not in report.selected)
    assert certify_not_sos(replace(report, selected=moved)) is False
    # h1 + x^3 no longer vanishes at a selected point
    assert any(report.points[i][0] for i in report.selected)
    h1 = list(report.h_vectors[1])
    h1[model.r1_basis.index((3, 0))] += 1
    assert certify_not_sos(replace(report, h_vectors=[
        report.h_vectors[0], h1, report.h_vectors[2]])) is False
    assert certify_not_sos(report) is True


def _rebuilt(report, hs, **fields):
    """The report with other h vectors and the witness rebuilt on them."""
    model = veronese_model(2, report.d)
    squares = [model.product(h, h) for h in hs]
    return replace(report, h_vectors=hs, witness=QuadraticForm(model, [
        report.delta * c + a + b + e
        for c, a, b, e in zip(report.f.coefficients, *squares)]), **fields)


def test_certify_not_sos_rejects_rebuilt_witnesses(report):
    # other h vectors that vanish at the selected points, with the witness
    # rebuilt on them to match
    def rebuilt(hs):
        return _rebuilt(report, hs)

    assert certify_not_sos(rebuilt(list(report.h_vectors))) is True
    # h0 / 2 spans the same space, but the report reader takes integer
    # forms only, and does not read the numerators of h0 / 2 in its place
    assert any(c % 2 for c in report.h_vectors[0])
    hs = [[F(c, 2) for c in report.h_vectors[0]], *report.h_vectors[1:]]
    assert certify_not_sos(rebuilt(hs)) is False
    assert certify_not_sos(replace(report, h_vectors=hs)) is False
    # h1, h1, h2 span less than the vanishing space
    assert certify_not_sos(rebuilt(
        [report.h_vectors[1], *report.h_vectors[1:]])) is False


def test_certify_not_sos_falls_back_to_exact_ranks(report, monkeypatch):
    # h0, h1, h1 + 3 h2 and the points tripled give a valid report whose
    # h_i have rank 2 mod 3 and whose point images are 0 mod 3
    h0, h1, h2 = report.h_vectors
    tripled = _rebuilt(
        report, [h0, h1, [a + 3 * b for a, b in zip(h1, h2)]],
        points=[tuple(3 * c for c in p) for p in report.points])
    calls = []
    echelon = mindeg.numerics._echelon
    monkeypatch.setattr(mindeg.numerics, "_echelon",
                        lambda rows: calls.append(1) or echelon(rows))
    # only the residue of f modulo the products runs the echelon form
    assert certify_not_sos(tripled) is True and len(calls) == 1
    monkeypatch.setattr(mindeg.numerics, "_PRIME", 3)
    calls.clear()
    assert certify_not_sos(tripled) is True and len(calls) == 3
    short = replace(tripled, selected=tripled.selected[:-1])
    assert certify_not_sos(short) is False


def test_fit_h0_stops_at_once_when_a_point_kills_the_basis(monkeypatch):
    # d = 4, seed 219, attempt 0 (as hilbert_witness derives its seeds):
    # the whole vanishing basis vanishes at an unselected point
    model = veronese_model(2, 4)
    s_lines, s_h0, _ = np.random.SeedSequence(219, spawn_key=(0,)).spawn(3)
    _, _, points = choose_hyperplanes(model, s_lines)
    draws = []
    monkeypatch.setattr(mindeg.witness, "_rng",
                        lambda seed: draws.append(seed) or _rng(seed))
    with pytest.raises(DegeneratePosition,
                       match="no combination avoided the unselected points "
                             "in 64 draws"):
        fit_h0(model, points, _default_selection(4, model.e), s_h0)
    assert draws == []


def test_delta_halving_stays_accepted(report):
    # accepted delta implies accepted delta/2 on fresh samples
    for seed in (0, 1):
        rep = hilbert_witness(3, seed=seed, samples=SAMPLES)
        half = sample_nonnegativity(replace(rep, delta=rep.delta / 2),
                                    samples=SAMPLES, seed=99)
        assert half["margin"] >= -1e-9
    half = sample_nonnegativity(replace(report, delta=report.delta / 2),
                                samples=SAMPLES, seed=99)
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
    pts = [_sup_normalize(_veronese_image(rep.points[i], 5, model.r1_basis))
           for i in info["point_indices"]]
    g = interpolant_through_points(
        pts[:-1],
        [lam / kap for lam, kap in zip(info["lambdas"], info["kappas"])])
    pairing = sum(pair_with_square(rep.functional, h)
                  for h in [g] + list(rep.h_vectors[1:]))
    assert pairing == 0
    checks = rep.functional_checks
    assert checks["perturbation_dim"] == epsilon(veronese_model(2, 5)) == 6
    assert certify_not_sos(rep) is True


def _functional_scan_reference(model, points, max_subsets=60):
    """The first e+2 point indices, in itertools.combinations order, whose
    images admit a unique relation with every coefficient nonzero; None
    when max_subsets subsets fail."""
    d = math.isqrt(len(points))
    images = [_veronese_image(p, d, model.r1_basis) for p in points]
    for idx in itertools.islice(
            itertools.combinations(range(len(points)), model.e + 2),
            max_subsets):
        try:
            separating_functional_real(model, [images[i] for i in idx])
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
        _, _, pts = choose_hyperplanes(model, seed)
        assert _functional_scan_reference(model, pts) == \
            _functional_points(4), seed


def test_line_product_expansion():
    def basis(d):
        return veronese_model(2, d).r1_basis

    prod = _line_product([(1, 0, -1), (0, 1, -1)], basis(2))
    # (x - z)(y - z) = xy - xz - yz + z^2
    assert prod == _vector({(1, 1, 0): 1, (1, 0, 1): -1,
                            (0, 1, 1): -1, (0, 0, 2): 1}, 2)
    assert prod == [1, -1, 0, -1, 1, 0]
    assert _line_product([(1, 0, -1)], basis(1)) == [-1, 0, 1]
    # against the dict expansion, and ints stay ints
    rng = np.random.Generator(np.random.Philox(3))
    for d in (3, 4, 5):
        lines = [tuple(int(c) for c in row)
                 for row in rng.integers(-9, 10, size=(d, 3))]
        want = {(0, 0, 0): 1}
        for a, b, c in lines:
            want = _poly_mul(want, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        got = _line_product(lines, basis(d))
        assert got == _vector(want, d)
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("d", [3, 4])
def test_product_matches_polynomial_expansion(d):
    model = veronese_model(2, d)
    rng = np.random.Generator(np.random.Philox(d))
    size = len(model.r1_basis)
    for _ in range(5):
        g, h = ([int(c) for c in rng.integers(-9, 10, size)]
                for _ in range(2))
        got = model.product(g, h)
        assert got == _vector(_poly_mul(_poly(g, d), _poly(h, d)), 2 * d)
        assert all(type(c) is int for c in got)
        gq = [F(c, 3) for c in g]
        assert model.product(gq, h) == [F(c, 3) for c in got]


# -- the not-SOS certificate, re-checked from the JSON ---------------------

@pytest.mark.parametrize("d,seed", [(3, s) for s in range(12)]
                         + [(4, 1), (4, 5)])
def test_certificate_reverifies_from_json(d, seed):
    blob = json.loads(json.dumps(
        hilbert_witness(d, seed=seed, samples=SAMPLES).to_json()))
    assert blob["sos"] == {"status": "Infeasible"}
    assert certify_not_sos(witness_report_from_json(blob)) is True


def test_pipeline_rejects_a_report_that_fails_certify_not_sos(monkeypatch):
    # the Infeasible verdict rests on the rank certificate alone: when its
    # exact re-check fails, the pipeline raises and reports no verdict
    monkeypatch.setattr(mindeg.witness, "certify_not_sos", lambda rep: False)
    with pytest.raises(InconsistentModel, match="exact certificate"):
        hilbert_witness(3, seed=SEED, samples=SAMPLES)


def test_pipeline_rejects_a_functional_off_its_kernel(monkeypatch):
    # one changed value of the separating functional moves g, h1 or h2 out
    # of Ker M: extremality_check raises, so no report carries it
    def tampered(model, points):
        fn, info = separating_functional_real(model, points)
        values = list(fn.values)
        values[0] += 1
        return DualFunctional(model, values), info

    monkeypatch.setattr(mindeg.witness, "separating_functional_real",
                        tampered)
    with pytest.raises(InconsistentModel):
        hilbert_witness(3, seed=1, samples=SAMPLES)
