"""Acceptance gate: ten end-to-end criteria, one test each, every test
printing a single pass/fail line with its runtime (run with -s to see the
lines as they complete). Random corpora are seeded, so every run checks the
same instances."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from mindeg.cones import (GramSlice, extremality_check,
                          interpolant_through_points, kernel_dimension,
                          moment_psd, pair_with_square,
                          separating_functional_real, sos_check)
from mindeg.errors import (DegeneratePosition, DegenerateSpan,
                           EmptyComplement, NoDeltaFound, RetryExhausted)
from mindeg.polytope import (CAYLEY, PYRAMID, LatticePolytope, amgm_witness,
                             classify, h_star, higashitani_simplex,
                             is_k_normal, lattice_points, polytope_degree,
                             real_density, reeve_simplex, simplex)
from mindeg.variety import (QuadraticForm, epsilon, is_minimal_degree,
                            scroll_model, segre_veronese_model, toric_model,
                            veronese_model)
from mindeg.witness import (_monomials, _veronese_image, certify_not_sos,
                            hilbert_witness, sample_nonnegativity)
from test_cones import (_assert_certificate_reverifies,
                        _assert_infeasible_reverifies)


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        dt = time.perf_counter() - t0
        if dt >= limit_s:
            raise AssertionError("time budget exceeded: %.1fs >= %ds"
                                 % (dt, limit_s))
        status = "PASS"
    finally:
        print("criterion %2d  %-38s %s  %7.1fs"
              % (num, label, status, time.perf_counter() - t0), flush=True)


@pytest.fixture(scope="module")
def corpus():
    """200 random 2-normal polytopes, ambient rank <= 3, coordinates in
    0..4. Shared by the deficiency bridge and the degree-one equivalence."""
    rng = np.random.Generator(np.random.Philox(20260816))
    out = []
    while len(out) < 200:
        m = int(rng.integers(1, 4))
        npts = int(rng.integers(m + 1, m + 5))
        pts = sorted({tuple(int(c) for c in rng.integers(0, 5, m))
                      for _ in range(npts)})
        if len(pts) < 2:
            continue
        Q = LatticePolytope(m, pts)
        if Q.dim < 1 or not is_k_normal(Q, 2)[0]:
            continue
        out.append(Q)
    return out


def test_criterion_1_veronese_scan():
    with criterion(1, "veronese minimal-degree scan", 10):
        for n in range(1, 7):
            for d in range(1, 7):
                expected = d == 1 or n == 1 or (n, d) == (2, 2)
                got = is_minimal_degree(veronese_model(n, d))
                assert got == expected, (n, d)


def test_criterion_2_biform_scan():
    with criterion(2, "biform minimal-degree scan", 30):
        for n1, n2, d1, d2 in itertools.product((1, 2, 3), repeat=4):
            expected = (n1 == 1 and d2 == 1) or (n2 == 1 and d1 == 1)
            got = is_minimal_degree(segre_veronese_model([n1, n2], [d1, d2]))
            assert got == expected, (n1, n2, d1, d2)


def test_criterion_3_deficiency_bridge(corpus):
    with criterion(3, "deficiency equals h*_2 on corpus", 120):
        assert len(corpus) == 200
        for Q in corpus:
            assert epsilon(toric_model(Q)) == h_star(Q).h2, Q.vertices


def test_criterion_4_higashitani_family():
    with criterion(4, "higashitani h* and density", 10):
        for k in (1, 2, 3):
            hs = h_star(higashitani_simplex(5, k))
            assert list(hs.coefficients) == [1, 0, 0, k, 0, 0], k
        assert real_density(higashitani_simplex(5, 1)) == "NotDense"
        assert real_density(higashitani_simplex(5, 2)) == "Dense"


def test_criterion_5_degree_one_equivalence(corpus):
    with criterion(5, "degree-one conditions agree", 120):
        for Q in corpus:
            m = Q.dim
            hs = h_star(Q)
            cond_a = polytope_degree(Q) <= 1
            cond_b = (all(is_k_normal(Q, k)[0] for k in range(2, m))
                      and hs.h2 == 0)
            cond_c = all(hs.coefficients[j] == 0 for j in range(2, m + 1))
            named = classify(Q).family in (CAYLEY, PYRAMID)
            assert cond_a == cond_b == cond_c == named, Q.vertices


def test_criterion_6_witness_pipeline():
    with criterion(6, "degree-3 witness pipeline, 10 seeds", 1200):
        soft = (RetryExhausted, DegeneratePosition, DegenerateSpan,
                EmptyComplement, NoDeltaFound)
        successes = 0
        for seed in range(10):
            try:
                rep = hilbert_witness(3, seed=seed, samples=100000)
            except soft:
                continue
            assert certify_not_sos(rep) is True
            assert rep.nonneg_evidence["margin"] >= -1e-9
            fresh = sample_nonnegativity(rep, samples=100000,
                                         seed=seed + 1000)
            assert fresh["margin"] >= -1e-9
            assert rep.sos["status"] == "Infeasible"
            assert rep.stats["quotient_dim"] == 1
            successes += 1
        assert successes >= 9, "only %d of 10 seeds succeeded" % successes


def test_criterion_7_separating_functional():
    with criterion(7, "separating functional checks", 30):
        model = veronese_model(2, 3)
        rep = None
        for seed in range(10):
            cand = hilbert_witness(3, seed=seed, samples=2000)
            if cand.functional is not None \
                    and cand.functional_checks.get("extremal"):
                rep = cand
                break
        assert rep is not None, "no seed produced an extremal functional"
        fn = rep.functional
        assert fn.exact
        assert moment_psd(fn) >= -1e-8
        # re-derive the functional from the recorded points and redo the
        # exact annihilation of g^2 + h1^2 + h2^2 from scratch
        exps = _monomials(3)
        pts = [_veronese_image(rep.points[i], 3, exps)
               for i in rep.functional_info["point_indices"]]
        fn2, info = separating_functional_real(model, pts)
        assert fn2.values == fn.values
        e = model.e
        targets = [info["lambdas"][j] / info["kappas"][j]
                   for j in range(e + 1)]
        g = interpolant_through_points(info["points"][:e + 1], targets)
        pairing = pair_with_square(fn2, g)
        for h in rep.h_vectors[1:]:
            pairing += pair_with_square(fn2, h)
        assert pairing == 0
        extremal, _ = extremality_check(fn)
        assert extremal
        assert kernel_dimension(fn) == model.m + 1 == 3


# minimal-degree suite shared by criteria 8 and 10: model factory plus the
# monomial exponents of a parameterization of the affine cone (None means
# use the toric exponent basis directly)
SUITE = [
    ("doubled-triangle", lambda: toric_model(simplex(2, 2)), None),
    ("scroll-1-2", lambda: scroll_model([1, 2]),
     [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
    ("scroll-2-2", lambda: scroll_model([2, 2]),
     [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
    ("twisted-cubic", lambda: veronese_model(1, 3), None),
]


def _cone_samples(model, param_exps, count, rng):
    """Unit-norm float points on the affine cone over the model. Cauchy
    parameters cover the poles of the parameterization (tan of a uniform
    angle is uniform on the projective line); normal draws leave the far
    charts unsampled and bias any min estimated from the values."""
    if param_exps is None:
        param_exps = [tuple(e) for e in model.r1_basis]
    nparams = len(param_exps[0])
    params = rng.standard_cauchy(size=(count, nparams))
    cols = []
    for e in param_exps:
        col = np.ones(count)
        for j, ej in enumerate(e):
            if ej:
                col = col * params[:, j] ** ej
        cols.append(col)
    X = np.stack(cols, axis=1)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _value_matrix(model, X):
    # one representative monomial pair per R_2 basis element; valid because
    # every row of X lies on the cone
    return np.stack([X[:, i] * X[:, j] for (i, j) in model.rep_pairs],
                    axis=1)


def _exact_gram(C):
    n = C.shape[0]
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = Fraction(float((C[i, j] + C[j, i]) / 2.0))
    return G


def _criterion_8_forms():
    """(label, Gram slice, form) for criterion 8: per model 50 PSD-Gram
    forms and 50 forms nonnegative, with a cushion, on 10,000 samples."""
    rng = np.random.Generator(np.random.Philox(8))
    for label, make, param_exps in SUITE:
        model = make()
        gs = GramSlice(model)
        nvars = model.n + 1
        X = _cone_samples(model, param_exps, 10000, rng)
        R = _value_matrix(model, X)
        ident = [[Fraction(int(i == j)) for j in range(nvars)]
                 for i in range(nvars)]
        sum_sq = gs.apply_to_gram(ident)
        forms = []
        for _ in range(50):
            B = rng.normal(size=(nvars, nvars))
            forms.append(QuadraticForm(
                model, gs.apply_to_gram(_exact_gram(B.T @ B))))
        for _ in range(50):
            g = rng.normal(size=model.dim_r2)
            vals = R @ g
            lo = float(vals.min())
            cushion = 0.02 * max(1.0, float(np.abs(vals).max()))
            shift = Fraction(0 if lo >= cushion else lo - cushion)
            coeffs = [Fraction(float(gc)) - shift * ec
                      for gc, ec in zip(g, sum_sq)]
            fv = R @ np.array([float(c) for c in coeffs])
            assert fv.min() >= 0, label
            forms.append(QuadraticForm(model, coeffs))
        for f in forms:
            yield label, gs, f


def test_criterion_8_minimal_degree_positivity():
    with criterion(8, "sampled-nonnegative forms certify", 300):
        counts = {"Certificate": 0, "Undetermined": 0, "Infeasible": 0}
        for label, gs, f in _criterion_8_forms():
            res = sos_check(f, gs, budget=40000)
            counts[res.status] += 1
        total = sum(counts.values())
        assert total == 400
        assert counts["Infeasible"] == 0, counts
        assert counts["Undetermined"] <= 0.05 * total, counts


def test_criterion_9_amgm_witness():
    with criterion(9, "reeve amgm witness and obstruction", 30):
        Q = reeve_simplex(5)
        w = amgm_witness(Q)
        assert w is not None
        negs = [(e, c) for e, c in w.terms.items() if c < 0]
        assert len(negs) == 1
        u, _ = negs[0]
        P = sorted(lattice_points(Q, 1))
        pair_sums = {tuple(a + b for a, b in zip(p, q))
                     for p in P for q in P}
        # diagonal obstruction: any SOS with supports in Q gives z^u the
        # coefficient sum over exponent pairs in Q adding to u; none exist,
        # yet f carries a negative coefficient there
        assert u not in pair_sums
        for e2, c in w.terms.items():
            if c > 0:
                assert all(x % 2 == 0 for x in e2)
                assert tuple(x // 2 for x in e2) in set(P)
        rng = np.random.Generator(np.random.Philox(9))
        terms = sorted(w.terms.items())
        exps = np.array([e for e, _ in terms], dtype=float)
        cs = np.array([float(c) for _, c in terms])
        Z = rng.normal(size=(10000, Q.ambient_rank))
        Z[np.abs(Z) < 1e-6] = 1e-6
        mono = np.prod(Z[:, None, :] ** exps[None, :, :], axis=2)
        vals = mono @ cs
        scale = np.maximum(np.abs(mono) @ np.abs(cs), 1.0)
        assert float((vals / scale).min()) >= -1e-12


def _criterion_10_forms():
    """(label, Gram slice, form) for criterion 10: per model 100 forms with
    a random PSD Gram matrix B^T B."""
    rng = np.random.Generator(np.random.Philox(10))
    for label, make, _ in SUITE:
        model = make()
        gs = GramSlice(model)
        nvars = model.n + 1
        for _ in range(100):
            B = rng.normal(size=(nvars, nvars))
            yield label, gs, QuadraticForm(
                model, gs.apply_to_gram(_exact_gram(B.T @ B)))


def test_criterion_10_gram_round_trip():
    with criterion(10, "PSD Gram round trips", 120):
        for label, gs, f in _criterion_10_forms():
            res = sos_check(f, gs, budget=40000)
            assert res.status == "Certificate", label
            assert res.residual <= 1e-6, label
            assert res.min_eig >= -1e-8, label


def test_criteria_8_and_10_verdicts_reverify_exactly():
    # every verdict on the forms of criteria 8 and 10, re-verified in
    # Fractions alone by the test_cones helpers
    for label, gs, f in itertools.chain(_criterion_8_forms(),
                                        _criterion_10_forms()):
        res = sos_check(f, gs, budget=40000)
        if res.status == "Certificate":
            _assert_certificate_reverifies(gs, f, res)
        elif res.status == "Infeasible":
            _assert_infeasible_reverifies(gs, f, res)
