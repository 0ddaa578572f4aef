"""Polytope invariants against hand-checked values and brute-force oracles."""

import collections
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mindeg.polytope
from mindeg.errors import DimensionMismatch, InconsistentModel
from mindeg.numerics import (exact_rank, lattice_index, nullspace, rref,
                             solve_exact)
from mindeg.polytope import (CAYLEY, DENSE, IMAGE_OF_MODEL, NOT_DENSE,
                             NOT_MINIMAL, PYRAMID, HStar, LatticePolytope,
                             SparsePolynomial, amgm_witness,
                             cayley_polytope_of_segments, classify,
                             contains_point_oracle, h_star,
                             higashitani_simplex, is_k_normal, k_normal_oracle,
                             lattice_point_count_oracle, lattice_points,
                             polytope_degree,
                             triangulate, _box_candidates, _chart_rows,
                             _convex_weights,
                             _lattice_point_count, _lex_unique,
                             _recognize_family, _scan_box, _scan_rows,
                             _supporting_hyperplanes,
                             pyramid_over_twice_simplex, real_density,
                             reeve_simplex, simplex, sublattice_index)

F = Fraction


def product_polytope(P, R):
    """The product polytope P x R, by the products of their vertices."""
    return LatticePolytope(P.ambient_rank + R.ambient_rank,
                           [p + r for p in P.vertices for r in R.vertices])


def normalized_volume(Q):
    """m! vol(Q) with respect to the lattice of the affine span, summed
    over a triangulation: the reference for the sum of h*, independent of
    the Ehrhart counts."""
    if Q.dim == 0:
        return 1
    total = 0
    for cell in triangulate(Q):
        proj = [Q._proj(v) for v in cell]
        base = proj[0]
        total += lattice_index([[c - b for c, b in zip(p, base)]
                                for p in proj[1:]])
    return total


def _corpus():
    return [
        simplex(2, 2),
        simplex(2, 3),
        simplex(3, 1),
        LatticePolytope(1, [(0,), (3,)]),
        reeve_simplex(5),
        cayley_polytope_of_segments([1, 2]),
        cayley_polytope_of_segments([2, 2]),
        product_polytope(LatticePolytope(1, [(0,), (1,)]),
                         LatticePolytope(1, [(0,), (1,)])),
        pyramid_over_twice_simplex(3),
        LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)]),
    ]


def test_twice_simplex_counts():
    Q = simplex(2, 2)
    assert len(lattice_points(Q, 1)) == 6
    assert len(lattice_points(Q, 2)) == 15
    assert h_star(Q).coefficients == (1, 3, 0)
    assert polytope_degree(Q) == 1
    assert normalized_volume(Q) == 4


def test_triple_simplex():
    Q = simplex(2, 3)
    assert h_star(Q).coefficients == (1, 7, 1)
    assert polytope_degree(Q) == 2
    assert normalized_volume(Q) == 9


def test_unit_simplices():
    for m in range(1, 5):
        Q = simplex(m, 1)
        hs = h_star(Q)
        assert hs.coefficients == (1,) + (0,) * m
        assert hs.degree == 0
        assert polytope_degree(Q) == 0
        assert normalized_volume(Q) == 1


def test_segment():
    Q = LatticePolytope(1, [(0,), (3,)])
    assert h_star(Q).coefficients == (1, 2)
    assert polytope_degree(Q) == 1
    assert normalized_volume(Q) == 3


def test_point_polytope():
    Q = LatticePolytope(3, [(1, 2, 3)])
    assert Q.dim == 0
    assert h_star(Q).coefficients == (1,)
    assert polytope_degree(Q) == 0


def test_reeve_simplex():
    Q = reeve_simplex(5)
    assert h_star(Q).coefficients == (1, 0, 4, 0)
    assert normalized_volume(Q) == 5
    assert polytope_degree(Q) == 2
    ok, missing = is_k_normal(Q, 2)
    assert not ok
    assert missing == (1, 1, 1)
    assert sublattice_index(Q) == 5
    assert real_density(Q) == DENSE


def test_reeve_never_k_normal():
    # summands from Q ∩ M have last coordinate 0 or 5, so no sum hits 1
    Q = reeve_simplex(5)
    for k in range(2, 6):
        ok, missing = is_k_normal(Q, k)
        assert not ok
        assert missing is not None


def test_higashitani_family():
    for k, density in [(1, NOT_DENSE), (2, DENSE), (3, NOT_DENSE)]:
        Q = higashitani_simplex(5, k)
        assert h_star(Q).coefficients == (1, 0, 0, k, 0, 0)
        assert sublattice_index(Q) == k + 1
        assert real_density(Q) == density
        assert is_k_normal(Q, 2)[0]


def test_unit_square():
    Q = product_polytope(LatticePolytope(1, [(0,), (1,)]),
                         LatticePolytope(1, [(0,), (1,)]))
    assert h_star(Q).coefficients == (1, 1, 0)
    assert normalized_volume(Q) == 2
    assert polytope_degree(Q) == 1


def test_embedded_chart():
    # 2-simplex scaled by 2, placed at height 1 inside Z^3
    Q = LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)])
    assert Q.dim == 2
    assert h_star(Q).coefficients == (1, 3, 0)
    assert sublattice_index(Q) == 1
    r = classify(Q)
    assert r.family == PYRAMID
    _assert_model_map(Q, r.model_map)
    # a primitive segment and a unit square on skew planes of Z^2 and Z^4
    for Q in [LatticePolytope(2, [(1, 1), (3, 4)]),
              LatticePolytope(4, [(1, 0, 2, 1), (2, 1, 2, 0), (0, 1, 3, 2),
                                  (1, 2, 3, 1)])]:
        assert Q.dim < Q.ambient_rank
        r = classify(Q)
        assert r.family == CAYLEY
        _assert_model_map(Q, r.model_map)


def test_skewed_chart_regressions():
    # full-dimensional polytopes keep their own coordinates, so the scans
    # are bounded by the polytope's extent: these two once had charts with
    # entries in the thousands (an 867 MiB box for h*, seconds to classify)
    Q = LatticePolytope(4, [(1, -3, 3, 1), (-1, 1, 3, 1), (2, -1, -2, 2),
                            (1, -3, -3, 1), (2, 1, -3, -3), (-2, -3, -2, 3)])
    assert h_star(Q).coefficients == (1, 34, 347, 340, 26)
    assert normalized_volume(Q) == 748
    R = LatticePolytope(3, [(1, 2, -1), (2, -2, 0), (-3, -2, -2), (-3, 1, 3),
                            (2, 3, 3)])
    r = classify(R)
    assert (r.family, r.h2_zero, r.two_normal, r.polytope_degree,
            r.density) == (NOT_MINIMAL, False, False, 3, DENSE)
    for P in (Q, R):
        assert P.dim == P.ambient_rank
        base = P.vertices[0]
        assert P.proj_vertices == [tuple(c - b for c, b in zip(v, base))
                                   for v in P.vertices]


def _push(draw, m, pts):
    """The image of points of Z^m under x -> (x, 0) U + t in Z^n, n in
    m..m+2, with U unimodular."""
    n = m + draw(st.integers(0, 2))
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, q in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    U = [U[i] for i in draw(st.permutations(range(n)))]
    t = draw(st.tuples(*[st.integers(-3, 3)] * n))
    return LatticePolytope(n, [tuple(sum(x[i] * U[i][j] for i in range(m))
                                     + t[j] for j in range(n)) for x in pts])


@st.composite
def _pushed_polytope(draw):
    """A polytope in Z^m (m <= 3, coordinates 0..3) and its image under a
    unimodular push (`_push`)."""
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                        min_size=1, max_size=6))
    return LatticePolytope(m, pts), _push(draw, m, pts)


@settings(max_examples=150, deadline=None)
@given(_pushed_polytope())
def test_invariants_under_unimodular_maps(pair):
    P, Q = pair
    assert Q.dim == P.dim
    assert h_star(Q) == h_star(P)
    assert is_k_normal(Q, 2)[0] == is_k_normal(P, 2)[0]
    assert is_k_normal(P, 2) == k_normal_oracle(P, 2)
    assert is_k_normal(Q, 2) == k_normal_oracle(Q, 2)
    assert sublattice_index(Q) == sublattice_index(P)
    assert normalized_volume(Q) == normalized_volume(P)
    assert classify(Q).family == classify(P).family


def test_hstar_validation():
    with pytest.raises(ValueError):
        HStar((2, 0))
    with pytest.raises(ValueError):
        HStar((1, -1))


def test_hstar_helpers():
    hs = HStar((1, 0, 4, 0))
    assert hs.degree == 2
    assert hs.h2 == 4
    assert sum(hs.coefficients) == 5
    assert hs.to_json() == {"coefficients": [1, 0, 4, 0]}


def test_first_coefficient_is_point_count():
    for Q in _corpus():
        hs = h_star(Q)
        h1 = hs.coefficients[1] if len(hs.coefficients) > 1 else 0
        assert h1 == len(lattice_points(Q, 1)) - (Q.dim + 1)


def _interior_lattice_point_count(Q, k):
    """Reference count of the lattice points strictly inside kQ (relative
    interior): the box scan with strict facet inequalities."""
    return len(_box_scan_reference(Q, k, strict=True))


def _polytope_degree_oracle(Q):
    """polytope_degree from the interior lattice points of each dilate."""
    m = Q.dim
    empty_up_to = 0
    for k in range(1, m + 1):
        if _interior_lattice_point_count(Q, k) == 0:
            empty_up_to = k
        else:
            break
    return m - empty_up_to


def test_ehrhart_polynomiality_and_reciprocity():
    # interpolate L from values 0..m, then check it predicts dilates m+1,
    # m+2 and counts interior points of kQ via (-1)^m L(-k)
    for Q in _corpus():
        m = Q.dim
        xs = list(range(m + 1))
        ys = [len(lattice_points(Q, k)) for k in xs]

        def L(t, xs=xs, ys=ys):
            total = F(0)
            for i, (xi, yi) in enumerate(zip(xs, ys)):
                term = F(yi)
                for j, xj in enumerate(xs):
                    if j != i:
                        term *= F(t - xj, xi - xj)
                total += term
            return total

        for k in (m + 1, m + 2):
            assert L(k) == len(lattice_points(Q, k))
        for k in (1, 2, 3):
            assert (-1) ** m * L(-k) == _interior_lattice_point_count(Q, k)


def test_hstar_sum_is_normalized_volume():
    for Q in _corpus():
        assert sum(h_star(Q).coefficients) == normalized_volume(Q)


def test_hstar_monotone_under_subpolytopes():
    # faces are subpolytopes, so their h* (in particular h*_2) cannot exceed
    # the ambient one coefficientwise
    for Q in [reeve_simplex(5), simplex(2, 3), simplex(2, 2),
              cayley_polytope_of_segments([2, 2])]:
        hq = h_star(Q)
        for a, b in Q.facets():
            pts = [p for p, x in
                   ((p, Q._proj(p)) for p in lattice_points(Q, 1))
                   if sum(ai * xi for ai, xi in zip(a, x)) == b]
            if not pts:
                continue
            F_ = LatticePolytope(Q.ambient_rank, pts)
            hf = h_star(F_)
            for j, c in enumerate(hf.coefficients):
                if j < len(hq.coefficients):
                    assert c <= hq.coefficients[j]


def _is_normal_upto_detection(Q):
    return all(is_k_normal(Q, k)[0] for k in range(2, max(2, Q.dim)))


def _random_polytopes(count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    while len(out) < count:
        m = int(rng.integers(2, 4))
        npts = int(rng.integers(m + 1, m + 4))
        pts = [tuple(int(c) for c in rng.integers(0, 4, size=m))
               for _ in range(npts)]
        try:
            Q = LatticePolytope(m, pts)
        except ValueError:
            continue
        if Q.dim < 1:
            continue
        out.append(Q)
    return out


def test_degree_one_characterizations_agree():
    # three conditions that must coincide: normal with h*_2 = 0; polytope
    # degree <= 1; h*_2 = ... = h*_m = 0
    for Q in _corpus() + _random_polytopes(40, 2024):
        hs = h_star(Q)
        a = _is_normal_upto_detection(Q) and hs.h2 == 0
        b = polytope_degree(Q) <= 1
        c = all(x == 0 for x in hs.coefficients[2:])
        assert a == b == c, (Q.vertices, hs.coefficients, a, b, c)


def test_polytope_degree_is_the_interior_point_degree():
    # Ehrhart reciprocity: kQ has no interior point exactly for
    # k <= m - deg h*
    named = [reeve_simplex(5), higashitani_simplex(5, 1),
             higashitani_simplex(5, 2), pyramid_over_twice_simplex(4),
             cayley_polytope_of_segments([1, 2, 3]), simplex(3, 4),
             LatticePolytope(2, [(3, 1)])]
    for Q in _corpus() + named + _random_polytopes(60, 7):
        assert polytope_degree(Q) == _polytope_degree_oracle(Q), Q.vertices


def _rows_at(Q, k, prefixes):
    """(lo, width) of the row scan of kQ over the given prefix rows only:
    the int64 arithmetic at chosen rows of a box too large to scan."""
    with mock.patch.object(mindeg.polytope, "_box_candidates",
                           lambda lo, hi: [np.array(prefixes,
                                                    dtype=np.int64)]):
        (_, lo, width), = _scan_rows(Q, k)
    return lo.tolist(), width.tolist()


def _row_reference(Q, k, prefix):
    """(lo, width) of the points prefix + (t,) of kQ, in Python ints; lo is
    None when the row is empty."""
    lo, hi = -math.inf, math.inf
    for a, b in Q.facets():
        r = k * b - sum(ai * xi for ai, xi in zip(a, prefix))
        if a[-1] > 0:
            hi = min(hi, r // a[-1])
        elif a[-1] < 0:
            lo = max(lo, -(r // -a[-1]))
        elif r < 0:
            return None, 0
    return (lo, hi - lo + 1) if hi >= lo else (None, 0)


def test_scan_box_bounds_int64_exactly():
    # |coordinate| * k * (largest l1 facet-normal norm) <= 2^62; the
    # segment's facet normals are +-1, the triangle's reach l1 norm 2
    seg = LatticePolytope(1, [(0,), (2 ** 61,)])
    assert [list(c) for c in _scan_box(seg, 2)] == [[0], [2 ** 62]]
    with pytest.raises(ValueError, match="2\\^62"):
        _scan_box(seg, 3)
    tri = LatticePolytope(2, [(0, 0), (2 ** 60, 0), (0, 2 ** 60)])
    _scan_box(tri, 2)
    with pytest.raises(ValueError, match="2\\^62"):
        _scan_box(tri, 3)
    huge = LatticePolytope(1, [(0,), (10 ** 30,)])
    for count in (lambda: lattice_points(huge, 1),
                  lambda: _interior_lattice_point_count(huge, 1),
                  lambda: lattice_point_count_oracle(huge, 1),
                  lambda: h_star(huge)):
        with pytest.raises(ValueError, match="2\\^62"):
            count()
    # the row scan at the limit: one row of 2^62 + 1 points, counted
    assert _rows_at(seg, 2, [[]]) == ([0], [2 ** 62 + 1])
    assert _lattice_point_count(seg, 2) == 2 ** 62 + 1
    # rows of the doubled triangle, whose hypotenuse has l1 norm 2
    rows = [[0], [1], [2 ** 61 - 1], [2 ** 61]]
    assert _rows_at(tri, 2, rows) == ([0] * 4, [2 ** 61 + 1, 2 ** 61, 2, 1])
    # a rectangle whose facet x_1 <= 2^62 has a_m = 0 and meets the limit
    rect = LatticePolytope(2, [(0, 0), (2 ** 62, 0), (0, 1), (2 ** 62, 1)])
    assert any(a == (1, 0) and b == 2 ** 62 for a, b in rect.facets())
    rows = [[0], [1], [2 ** 62 - 1], [2 ** 62]]
    assert _rows_at(rect, 1, rows) == ([0] * 4, [2] * 4)
    for Q, k in ((seg, 2), (tri, 2), (rect, 1)):
        lo, hi = _scan_box(Q, k)
        corners = [list(c) for c in itertools.product(*zip(lo[:-1], hi[:-1]))]
        got = _rows_at(Q, k, corners)
        want = [_row_reference(Q, k, c) for c in corners]
        assert got[1] == [w for _, w in want]
        assert [g for g, (_, w) in zip(got[0], want) if w] == \
            [r for r, w in want if w]
    # the count is a Python int past int64: four rows of 2^62 + 1 points
    tall = LatticePolytope(2, [(0, 0), (3, 0), (0, 2 ** 62), (3, 2 ** 62)])
    assert _lattice_point_count(tall, 1) == 4 * (2 ** 62 + 1)


@pytest.mark.parametrize("x", [2 ** 62 - 1, 2 ** 62, 10 ** 30])
def test_lift_is_exact_past_int64(x):
    # a primitive segment has chart rows 0..k, whatever its ambient length;
    # at x = 2^62 the doubled point (2^63, 2) no longer fits in int64
    Q = LatticePolytope(2, [(0, 0), (x, 1)])
    assert lattice_points(Q, 2) == {(0, 0), (x, 1), (2 * x, 2)}
    far = LatticePolytope(2, [(x, 0), (x, 1), (x + 1, 0)])
    assert lattice_points(far, 2) == {(2 * x + i, j) for i in range(3)
                                      for j in range(3 - i)}


def _sheared(Q):
    """Q under the unimodular map x -> (x1 - 2 x3, x1 + x2, x3, x4, ...)."""
    return LatticePolytope(Q.ambient_rank, [
        (v[0] - 2 * v[2], v[1] + v[0]) + v[2:] for v in Q.vertices])


def _box_scan_reference(Q, k, strict=False):
    """Chart coordinates of the lattice points of kQ (of its relative
    interior if strict) by the box scan that the row scan replaced: every
    point of the chart box tested against every facet, in lexicographic
    order."""
    if k == 0 or Q.dim == 0:
        return [(0,) * Q.dim]
    lo, hi = _scan_box(Q, k)
    planes = Q.facets()
    A = np.array([a for a, _ in planes], dtype=np.int64)
    b = np.array([bb for _, bb in planes], dtype=np.int64) * k
    inside = np.less if strict else np.less_equal
    return [tuple(row) for grid in _box_candidates(lo, hi)
            for row in grid[inside(grid @ A.T, b).all(axis=1)].tolist()]


def _lift_reference(Q, x, k):
    """Ambient coordinates of the chart point x of kQ, in Python ints."""
    return tuple(k * b + sum(xi * row[j] for xi, row in zip(x, Q._sat_basis))
                 for j, b in enumerate(Q._base))


@st.composite
def _scan_input(draw):
    """A polytope of dimension m <= n in Z^n, n <= 4, given by points of
    Z^m under a chain of shears x_i += q x_j of Z^n and a translation, and
    a _SCAN_CHUNK (None: the default) that may split the prefix box."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 3 if m < 3 else 1)] * m),
                        min_size=1, max_size=7))
    pts = [list(p) + [0] * (n - m) for p in pts]
    for i, j, q in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(-2, 2)), max_size=2)):
        if i != j:
            for p in pts:
                p[i] += q * p[j]
    t = draw(st.tuples(*[st.integers(-4, 4)] * n))
    Q = LatticePolytope(n, [tuple(c + s for c, s in zip(p, t)) for p in pts])
    return Q, draw(st.sampled_from([None, 1, 2, 3, 5]))


@settings(max_examples=120, deadline=None)
@given(_scan_input())
@example((LatticePolytope(4, [(1, -1, 0, 2), (1, 0, 1, 2), (2, -1, 1, 3),
                             (5, 3, 5, 3)]), 2))
@example((_sheared(cayley_polytope_of_segments([1, 2, 2])), 1))
def test_row_scan_matches_box_scan(case):
    # the same points in the same order, the same count, and the same
    # ambient points, with the prefix box split when the chunk is small
    Q, chunk = case
    if Q.dim:
        lo, hi = _scan_box(Q, 3)
        assume(math.prod(int(h - l) + 1 for l, h in zip(lo, hi)) <= 30000)
    with mock.patch.object(mindeg.polytope, "_SCAN_CHUNK",
                           chunk or mindeg.polytope._SCAN_CHUNK):
        for k in (1, 2, 3):
            want = _box_scan_reference(Q, k)
            assert [tuple(r) for r in _chart_rows(Q, k).tolist()] == want
            assert not Q.dim or _lattice_point_count(Q, k) == len(want)
            assert lattice_points(Q, k) == {_lift_reference(Q, x, k)
                                            for x in want}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda w: st.lists(
    st.lists(st.integers(-3, 3), min_size=w, max_size=w),
    min_size=1, max_size=40).map(lambda rows: (rows, w))))
@example(([[]], 0))
@example(([[], [], []], 0))
def test_lex_unique_matches_numpy_unique(case):
    # rows of width 0 (the exponents of P^0) are all one row
    rows, width = case
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    got, inverse = _lex_unique(arr)
    want, want_inverse = np.unique(arr, axis=0, return_inverse=True)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(got[inverse], arr)


def test_h_star_never_lists_or_lifts(monkeypatch):
    corpus = _corpus() + [higashitani_simplex(5, 3),
                          LatticePolytope(3, [(0, 0, 1), (2, 0, 1),
                                              (0, 2, 1)]),
                          LatticePolytope(2, [(3, 1)])]
    want = [h_star(Q) for Q in corpus]

    def refuse(*args, **kwargs):
        raise AssertionError("h_star listed or lifted a lattice point")

    monkeypatch.setattr(LatticePolytope, "_lift", refuse)
    monkeypatch.setattr(mindeg.polytope, "lattice_points", refuse)
    monkeypatch.setattr(mindeg.polytope, "_chart_rows", refuse)
    assert [h_star(LatticePolytope(Q.ambient_rank, Q.vertices))
            for Q in corpus] == want
    # closed forms: L(k) = (3000k + 1)(3000k + 2)/2 and 3*10^6 k + 1
    big = LatticePolytope(2, [(0, 0), (3000, 0), (0, 3000)])
    assert h_star(big).coefficients == (1, 4504498, 4495501)
    seg = LatticePolytope(1, [(0,), (3 * 10 ** 6,)])
    assert h_star(seg).coefficients == (1, 2999999)


def test_classify_scans_each_dilate_once(monkeypatch):
    # is_k_normal lists the dilates 1 and 2, and h_star counts them from
    # those rows
    scan, scans = mindeg.polytope._scan_rows, collections.Counter()
    monkeypatch.setattr(mindeg.polytope, "_scan_rows",
                        lambda Q, k: scans.update([(id(Q), k)]) or scan(Q, k))
    for Q in _corpus() + [higashitani_simplex(5, 3)]:
        scans.clear()
        Q = LatticePolytope(Q.ambient_rank, Q.vertices)
        classify(Q)
        assert scans and set(scans.values()) == {1}, Q.vertices
        assert {k for _, k in scans} == set(range(1, max(Q.dim, 2) + 1))


def test_classify_meets_the_first_failing_dilate_as_h_star_does():
    # (N + 1)(N + 2) <= 2^62 < 2 (N + 1)(N + 2): the dilate 1 of this
    # three-point triangle scans, the dilate 2 does not
    N = 2 ** 31 - 3
    for f in (classify, h_star):
        Q = LatticePolytope(2, [(0, 0), (1, N), (1, N + 1)])
        with pytest.raises(ValueError, match="^dilate 2 of the polytope"):
            f(Q)


@pytest.mark.parametrize("box", [[(0,), (7,)],
                                 [(0, 0), (3, 0), (0, 3), (3, 3)],
                                 list(itertools.product((0, 2), (0, 3),
                                                        (-1, 1)))],
                         ids=["segment", "square", "3-box"])
def test_box_scan_chunks_match_one_block(monkeypatch, box):
    m = len(box[0])
    lo, hi = np.min(box, axis=0), np.max(box, axis=0)
    grid = np.concatenate(list(_box_candidates(lo, hi)))
    whole = LatticePolytope(m, box)
    want = ([lattice_points(whole, k) for k in (1, 2)],
            [_interior_lattice_point_count(whole, k) for k in (1, 2)],
            h_star(whole))
    monkeypatch.setattr(mindeg.polytope, "_SCAN_CHUNK", 3)
    chunks = list(_box_candidates(lo, hi))
    assert len(chunks) > 1
    assert np.array_equal(np.concatenate(chunks), grid)
    Q = LatticePolytope(m, box)
    assert ([lattice_points(Q, k) for k in (1, 2)],
            [_interior_lattice_point_count(Q, k) for k in (1, 2)],
            h_star(Q)) == want


@pytest.mark.parametrize("make", [
    lambda: simplex(2, 2),
    lambda: reeve_simplex(3),
    lambda: cayley_polytope_of_segments([1, 2]),
    lambda: LatticePolytope(2, [(0, 0), (2, 1), (1, 2)]),
    lambda: LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)]),
], ids=["2-simplex-2", "reeve-3", "cayley-1-2", "motzkin-triangle",
        "lower-dimensional"])
def test_scan_and_sumset_blocks_match_oracles(monkeypatch, make):
    # a bound of 3 points splits every box scan and, with at least two
    # lattice points, every sumset into several blocks
    monkeypatch.setattr(mindeg.polytope, "_SCAN_CHUNK", 3)
    Q = make()
    assert len(lattice_points(Q, 1)) >= 2
    for k in (1, 2, 3):
        assert len(lattice_points(Q, k)) == lattice_point_count_oracle(Q, k)
    for k in (2, 3):
        assert is_k_normal(Q, k) == k_normal_oracle(Q, k)


def test_k_normal_matches_oracle():
    for Q in [simplex(2, 2), reeve_simplex(5), simplex(3, 1),
              cayley_polytope_of_segments([1, 2]),
              LatticePolytope(2, [(0, 0), (2, 1), (1, 2)])]:
        for k in (2, 3):
            assert is_k_normal(Q, k) == k_normal_oracle(Q, k)


def test_counts_match_oracle():
    for Q in [simplex(2, 2), reeve_simplex(5),
              LatticePolytope(1, [(0,), (3,)]),
              LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)])]:
        for k in (1, 2, 3):
            assert len(lattice_points(Q, k)) == lattice_point_count_oracle(Q, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(
    st.tuples(*[st.integers(0, 2)] * r), min_size=1, max_size=8)))
def test_h_star_matches_oracle_counts(points):
    # h*_j = sum_i (-1)^i C(m+1, i) L(j - i), L(k) counted by membership
    Q = LatticePolytope(len(points[0]), points)
    m = Q.dim
    L = [1] + [lattice_point_count_oracle(Q, k) for k in range(1, m + 1)]
    want = [sum((-1) ** i * math.comb(m + 1, i) * L[j - i]
                for i in range(j + 1)) for j in range(m + 1)]
    assert list(h_star(Q).coefficients) == want


def test_contains_point_oracle():
    Q = simplex(2, 2)
    assert contains_point_oracle(Q, (1, 1))
    assert contains_point_oracle(Q, (2, 2), k=2)
    assert not contains_point_oracle(Q, (3, 3))


def _evaluate(f, z):
    """Exact value of the sparse polynomial f at a rational torus point
    (all coordinates nonzero)."""
    total = F(0)
    for e, c in f.terms.items():
        v = F(1)
        for zi, ei in zip(z, e):
            v *= F(zi) ** ei
        total += c * v
    return total


def test_missing_point_is_the_ambient_least():
    # dimension 3 in Z^4: 2Q misses two lattice points, and the chart's lex
    # order puts the other one first
    Q = LatticePolytope(4, [(-8, 3, -9, 11), (-3, 3, -3, 1), (-2, 0, 3, 1),
                            (0, 0, 0, 0)])
    assert Q.dim == 3
    pts = lattice_points(Q, 1)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in pts for q in pts}
    missing = lattice_points(Q, 2) - sums
    assert len(missing) == 2
    assert min(missing, key=lambda p: Q._proj(p, 2)) == (-7, 4, -7, 7)
    assert is_k_normal(Q, 2) == k_normal_oracle(Q, 2) \
        == (False, (-7, 3, -6, 8))


def test_amgm_none_when_two_normal():
    assert amgm_witness(simplex(2, 2)) is None
    square = product_polytope(LatticePolytope(1, [(0,), (1,)]),
                              LatticePolytope(1, [(0,), (1,)]))
    assert amgm_witness(square) is None


def test_amgm_reeve_exact():
    Q = reeve_simplex(5)
    f = amgm_witness(Q)
    assert f.terms == {
        (0, 0, 0): F(1), (0, 2, 0): F(4), (2, 0, 0): F(4),
        (2, 2, 10): F(1), (1, 1, 1): F(-10)}
    # the negative exponent must not split as a sum of two points of Q
    pts = lattice_points(Q, 1)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in pts for q in pts}
    assert (1, 1, 1) not in sums
    # nonnegative on rational torus points, exactly
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(40):
        z = [F(int(num), int(den))
             for num, den in zip(rng.integers(-6, 7, size=3),
                                 rng.integers(1, 5, size=3))]
        if any(c == 0 for c in z):
            continue
        assert _evaluate(f, z) >= 0


def _amgm_reference(Q):
    """amgm_witness as it once was: for each subset of the doubled sorted
    vertices, sizes 2 to dim + 1 in lexicographic order, one Fraction rref
    of [2 v_j | u] over a row of ones in ambient coordinates; the first
    subset with a pivot in each point column, none in u's, and nonnegative
    coordinates gives the combination."""
    ok, u = is_k_normal(Q, 2)
    if ok:
        return None
    doubled = [tuple(2 * c for c in v) for v in Q.vertices]
    n = Q.ambient_rank
    for size in range(2, Q.dim + 2):
        for subset in itertools.combinations(range(len(doubled)), size):
            rows = [[doubled[j][i] for j in subset] + [u[i]]
                    for i in range(n)]
            rows.append([1] * (size + 1))
            red, pivots = rref(rows)
            if pivots != list(range(size)):
                continue
            sol = [row[-1] for row in red]
            if any(c < 0 for c in sol):
                continue
            lcm = math.lcm(*(c.denominator for c in sol))
            terms = {doubled[j]: c * lcm for j, c in zip(subset, sol) if c}
            terms[u] = -sum(terms.values())
            return SparsePolynomial(terms)
    raise AssertionError("no convex combination")


@st.composite
def _amgm_input(draw):
    """A polytope of dimension at most m, m in 3..5 (every lattice polygon
    is normal), pushed into Z^n, n <= m + 2 (`_push`), and translated by 0
    or 10^30, so that the ambient coordinates leave int64."""
    m = draw(st.integers(3, 5))
    hi = 4 if m == 3 else 2
    pts = draw(st.lists(st.tuples(*[st.integers(0, hi)] * m),
                        min_size=m + 1, max_size=m + 4))
    Q = _push(draw, m, pts)
    t = draw(st.sampled_from([0, 10 ** 30]))
    return LatticePolytope(Q.ambient_rank,
                           [tuple(c + t for c in v) for v in Q.vertices])


@settings(max_examples=80, deadline=None)
@given(_amgm_input())
@example(reeve_simplex(5))
@example(LatticePolytope(4, [(-8, 3, -9, 11), (-3, 3, -3, 1), (-2, 0, 3, 1),
                             (0, 0, 0, 0)]))
def test_amgm_matches_the_ambient_rref_reference(Q):
    # the integer search in chart coordinates returns the reference's
    # witness: the same subset and the same weights
    assume(not is_k_normal(Q, 2)[0])
    assert amgm_witness(Q).to_json() == _amgm_reference(Q).to_json()


def _convex_weights_reference(points, x):
    """The barycentric coordinates of x on the points, over Fractions
    (solve_exact on the homogenised system), cleared to coprime integers;
    None when the points are affinely dependent (exact_rank), x is off
    their span or a coordinate is negative."""
    k = len(points)
    if exact_rank([list(p) + [1] for p in points]) < k:
        return None
    lam = solve_exact([list(col) for col in zip(*points)] + [[1] * k],
                      list(x) + [1])
    if lam is None or min(lam) < 0:
        return None
    lcm = math.lcm(*(c.denominator for c in lam))
    r = [int(c * lcm) for c in lam]
    return [c // math.gcd(*r) for c in r]


@st.composite
def _barycentric_case(draw):
    """(points, x): k points of Z^m, m <= 4 and k <= m + 2, so that they
    are often dependent, scaled by s = sum(w) > 0 so that x = sum w_j q_j
    has the coordinates w / s on them: some negative, some zero. x is
    sometimes moved by a small vector, often off their span."""
    m = draw(st.integers(0, 4))
    k = draw(st.integers(1, m + 2))
    q = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                      min_size=k, max_size=k))
    w = draw(st.lists(st.integers(-1, 3), min_size=k, max_size=k))
    w[0] += max(0, 1 - sum(w))
    s = sum(w)
    x = [sum(a * p[i] for a, p in zip(w, q)) for i in range(m)]
    if draw(st.booleans()):
        move = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m))
        x = [a + b for a, b in zip(x, move)]
    return [tuple(s * c for c in p) for p in q], tuple(x)


@settings(max_examples=300, deadline=None)
@given(_barycentric_case())
def test_convex_weights_match_the_fraction_reference(case):
    points, x = case
    r = _convex_weights(points, x)
    assert r == _convex_weights_reference(points, x)
    if r is not None:
        assert all(type(c) is int and c >= 0 for c in r)
        assert math.gcd(*r) == 1
        assert [sum(r) * c for c in x] == [
            sum(a * p[i] for a, p in zip(r, points)) for i in range(len(x))]


@pytest.mark.parametrize("points,x,want", [
    ([(0, 0), (1, 1), (2, 2)], (1, 1), None),        # dependent points
    ([(0, 0), (2, 0)], (1, 1), None),                # x off the span
    ([(0, 0), (2, 0)], (3, 0), None),                # a negative coordinate
    ([(0, 0), (2, 0), (0, 2)], (1, 0), [1, 1, 0]),   # a zero weight
    ([(0, 0), (4, 0), (0, 4)], (1, 2), [1, 1, 2]),
    ([()], (), [1]),                                 # a point of dimension 0
])
def test_convex_weights_cases(points, x, want):
    assert _convex_weights(points, x) == want


def _assert_model_map(Q, mp):
    """model_map, applied in Q's ambient coordinates, sends the family
    polytope's vertices and lattice points exactly onto Q's."""
    if mp["family"] == PYRAMID:
        target = pyramid_over_twice_simplex(Q.dim)
    else:
        target = cayley_polytope_of_segments(mp["segments"])
    assert len(mp["matrix"]) == len(mp["translation"]) == Q.ambient_rank

    def apply(p):
        return tuple(sum(a * x for a, x in zip(row, p)) + t
                     for row, t in zip(mp["matrix"], mp["translation"]))

    assert sorted(map(apply, target.vertices)) == list(Q.vertices)
    assert {apply(p) for p in lattice_points(target, 1)} \
        == lattice_points(Q, 1)


def test_classification_families():
    r = classify(simplex(2, 2))
    assert r.family == PYRAMID and r.pos_equals_sos == "Equal"
    for Q, family in [
            (simplex(2, 2), PYRAMID),
            (pyramid_over_twice_simplex(3), PYRAMID),
            (pyramid_over_twice_simplex(4), PYRAMID),
            (cayley_polytope_of_segments([1, 2]), CAYLEY),
            (cayley_polytope_of_segments([2, 2]), CAYLEY),
            (LatticePolytope(1, [(0,), (3,)]), CAYLEY),
            (simplex(2, 1), CAYLEY),
            (LatticePolytope(2, [(0, 2), (1, 1), (3, 0)]), CAYLEY),
            (LatticePolytope(3, [(1, 0, -1), (1, 1, -1), (2, 0, 0),
                                 (2, 1, -1), (3, 1, 0), (3, 1, 1)]), CAYLEY),
            # dimension 5, beyond the permutation search this replaced
            (_sheared(pyramid_over_twice_simplex(5)), PYRAMID),
            (_sheared(cayley_polytope_of_segments([1, 1, 1, 2, 2])), CAYLEY),
            (_sheared(cayley_polytope_of_segments([0, 1, 1, 2, 2])),
             CAYLEY)]:
        r = classify(Q)
        assert r.family == family
        _assert_model_map(Q, r.model_map)


def test_classification_not_minimal():
    for Q in [simplex(2, 3), reeve_simplex(5),
              LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)])]:
        r = classify(Q)
        assert r.family == NOT_MINIMAL
        assert r.pos_equals_sos == "NotEqual"


def test_classification_higashitani():
    r1 = classify(higashitani_simplex(5, 1))
    assert r1.family == IMAGE_OF_MODEL
    assert r1.h2_zero and r1.two_normal
    assert r1.density == NOT_DENSE and r1.pos_equals_sos == "NotEqual"
    r2 = classify(higashitani_simplex(5, 2))
    assert r2.density == DENSE and r2.pos_equals_sos == "Equal"


def _sub(p, q):
    return [a - b for a, b in zip(p, q)]


def _reference_equivalent(target, Q):
    """True iff an affine unimodular map sends target onto Q, vertices and
    lattice points alike. This is the vertex-permutation search classify
    used up to m = 4, kept as a reference: a fixed affinely independent
    anchor of the target is sent to every ordered (m+1)-tuple of Q's
    vertices in turn."""
    m = Q.dim
    if target.dim != m or len(target.vertices) != len(Q.vertices):
        return False
    tv, qv = target.proj_vertices, Q.proj_vertices
    anchor = next(a for a in itertools.combinations(tv, m + 1)
                  if exact_rank([_sub(p, a[0]) for p in a[1:]]) == m)
    # rows of T are the anchor differences, inverted once as N = D T^-1
    T = [_sub(p, anchor[0]) for p in anchor[1:]]
    red, _ = rref([row + [int(i == j) for j in range(m)]
                   for i, row in enumerate(T)])
    D = math.lcm(*(x.denominator for row in red for x in row[m:]))
    N = [[int(x * D) for x in row[m:]] for row in red]
    t_lats = sorted(target._proj(p) for p in lattice_points(target, 1))
    q_lats = sorted(Q._proj(p) for p in lattice_points(Q, 1))
    if len(t_lats) != len(q_lats):
        return False
    for image in itertools.permutations(qv, m + 1):
        q_diff = [_sub(p, image[0]) for p in image[1:]]
        # A T^T = q_diff^T, so D A = q_diff^T N^T; A must be integral and
        # unimodular
        AD = [[sum(q_diff[k][i] * N[j][k] for k in range(m))
               for j in range(m)] for i in range(m)]
        if any(x % D for row in AD for x in row):
            continue
        A = [[x // D for x in row] for row in AD]
        try:
            if lattice_index(A) != 1:
                continue
        except ValueError:  # singular A
            continue
        t = _sub(image[0], [sum(a * x for a, x in zip(row, anchor[0]))
                            for row in A])

        def apply(p):
            return tuple(sum(a * x for a, x in zip(row, p)) + ti
                         for row, ti in zip(A, t))

        if sorted(map(apply, tv)) == sorted(qv) \
                and sorted(map(apply, t_lats)) == q_lats:
            return True
    return False


def _reference_family(Q):
    """(family, segments) as the permutation search named them (m <= 4):
    pyramid first, then each Cayley degree tuple of the normalized volume."""
    hs = h_star(Q)
    m = Q.dim
    if hs.h2 != 0 or not is_k_normal(Q, 2)[0]:
        return NOT_MINIMAL, None
    if m >= 1 and _is_normal_upto_detection(Q):
        s = sum(hs.coefficients)
        if m >= 2 and s == 4 and _reference_equivalent(
                pyramid_over_twice_simplex(m), Q):
            return PYRAMID, None
        for d in itertools.combinations_with_replacement(range(s + 1), m):
            if sum(d) == s and max(d) >= 1 and _reference_equivalent(
                    cayley_polytope_of_segments(d), Q):
                return CAYLEY, list(d)
    return IMAGE_OF_MODEL, None


@st.composite
def _degree_one_polytope(draw, m):
    """(family, sorted segments, Q): a Cayley polytope of m segments of
    degree 0..3 (one positive at least) or, for m >= 2, the pyramid over
    twice a triangle, under a unimodular push."""
    if m >= 2 and draw(st.integers(0, 3)) == 0:
        family, segments = PYRAMID, None
        target = pyramid_over_twice_simplex(m)
    else:
        family = CAYLEY
        segments = sorted(draw(st.lists(st.integers(0, 3), min_size=m,
                                        max_size=m)))
        segments[-1] = max(segments[-1], 1)
        target = cayley_polytope_of_segments(segments)
    return family, segments, _push(draw, m, target.vertices)


@pytest.mark.parametrize("m", range(1, 9))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_recognizer_in_every_dimension(m, data):
    # Batyrev & Nill: degree <= 1 means one of the two families, in every
    # dimension; classify itself runs to m = 5 (h* costs seconds at m = 6)
    family, segments, Q = data.draw(_degree_one_polytope(m))
    mp = _recognize_family(Q)
    assert (mp["family"], mp.get("segments")) == (family, segments)
    _assert_model_map(Q, mp)
    if Q.dim <= 5:
        r = classify(Q)
        assert (r.family, r.degree_one, r.model_map) == (family, True, mp)


@st.composite
def _small_polytope(draw):
    """A pushed degree-one polytope of dimension <= 4, or a pushed random
    point set of dimension <= 3 (coordinates 0..3)."""
    if draw(st.booleans()):
        return draw(_degree_one_polytope(draw(st.integers(1, 4))))[2]
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                        min_size=m + 1, max_size=6))
    return _push(draw, m, pts)


@settings(max_examples=30, deadline=None)
@given(_small_polytope())
def test_recognizer_matches_permutation_search(Q):
    r = classify(Q)
    segments = r.model_map.get("segments") if r.model_map else None
    assert (r.family, segments) == _reference_family(Q)


def test_recognizer_rejects_degree_two():
    # classify asks only for degree <= 1; Batyrev & Nill leave no third
    # family, so a miss is an internal error
    for Q in [simplex(2, 3), reeve_simplex(5), higashitani_simplex(5, 1)]:
        with pytest.raises(InconsistentModel):
            _recognize_family(Q)


def test_classification_report_json():
    r = classify(simplex(2, 2))
    obj = r.to_json()
    assert obj["family"] == PYRAMID
    assert obj["density_criterion"] == "index parity"
    assert set(obj) == {"h2_zero", "two_normal", "polytope_degree",
                        "degree_one", "family", "model_map", "density",
                        "density_criterion", "pos_equals_sos"}


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(
    st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=8)))
@example(list(reeve_simplex(5).vertices))
def test_polytope_json_roundtrip(points):
    Q = LatticePolytope(len(points[0]), points)
    s = json.dumps(Q.to_json(), sort_keys=True, separators=(",", ":"))
    Q2 = LatticePolytope.from_json(json.loads(s))
    assert Q2 == Q and Q2.dim == Q.dim
    assert json.dumps(Q2.to_json(), sort_keys=True, separators=(",", ":")) == s


_COEFFS = st.one_of(
    st.integers(-2 ** 80, 2 ** 80),
    st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 120)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.dictionaries(
    st.tuples(*[st.integers(-4, 4)] * r), _COEFFS, max_size=6)))
@example({(1, 0): F(1, 2), (0, 1): F(-3)})
def test_sparse_polynomial_json_roundtrip(terms):
    f = SparsePolynomial(terms)
    s = json.dumps(f.to_json())
    g = SparsePolynomial.from_json(json.loads(s))
    assert g.terms == f.terms
    assert all(type(c) is F for c in g.terms.values())
    assert json.dumps(g.to_json()) == s


def test_sparse_polynomial_drops_zeros():
    f = SparsePolynomial({(0, 0): F(0), (1, 1): F(2)})
    assert f.terms == {(1, 1): F(2)}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LatticePolytope(2, [(0, 0), (1,)])


def test_vertex_reduction_and_equality():
    Q = LatticePolytope(2, [(0, 0), (1, 0), (2, 0), (0, 2), (1, 1)])
    assert Q.vertices == ((0, 0), (0, 2), (2, 0))
    assert Q == simplex(2, 2)
    assert hash(Q) == hash(simplex(2, 2))


# -- exact hull against the subset scan it replaced ---------------------------


def _subset_scan_reference(proj_points, m):
    """All hyperplanes spanned by m-subsets of the points that support the
    hull, as primitive integer (normal, rhs) pairs with a.x <= b."""
    planes = set()
    pts = list(proj_points)
    for subset in itertools.combinations(range(len(pts)), m):
        base = pts[subset[0]]
        diffs = [[pts[i][j] - base[j] for j in range(m)] for i in subset[1:]]
        ker = nullspace(diffs, m)
        if len(ker) != 1:
            continue
        denom = 1
        for e in ker[0]:
            denom = denom * e.denominator // math.gcd(denom, e.denominator)
        a = [int(e * denom) for e in ker[0]]
        g = 0
        for e in a:
            g = math.gcd(g, abs(e))
        a = [e // g for e in a]
        b = sum(ai * xi for ai, xi in zip(a, base))
        lo = hi = False
        for p in pts:
            s = sum(ai * xi for ai, xi in zip(a, p))
            if s > b:
                hi = True
            elif s < b:
                lo = True
        if hi and lo:
            continue
        if hi:
            a = [-e for e in a]
            b = -b
        planes.add((tuple(a), b))
    return sorted(planes)


def _on(plane, x):
    a, b = plane
    return sum(ai * xi for ai, xi in zip(a, x)) == b


def _check_hull_against_reference(Q, points):
    """Facets and vertices of Q, built from `points`, agree with the subset
    scan: the facets are its planes whose incident points have affine rank
    m - 1, with the bitmask of those points, and the vertices are the points
    whose incident planes have rank m."""
    m = Q.dim
    proj = [Q._proj(p) for p in sorted(set(points))]
    ref = _subset_scan_reference(proj, m)
    facets = []
    for plane in ref:
        on = [x for x in proj if _on(plane, x)]
        if exact_rank([[c - b for c, b in zip(x, on[0])] for x in on[1:]]) == m - 1:
            # the incidence bits by evaluating the plane at every point
            facets.append(plane + (sum(1 << i for i, x in enumerate(proj)
                                       if _on(plane, x)),))
    assert _supporting_hyperplanes(proj, m) == facets
    assert Q.facets() == [(a, b) for a, b, _ in facets]
    vertices = [p for p, x in zip(sorted(set(points)), proj)
                if exact_rank([list(a) for a, b in ref if _on((a, b), x)]) == m]
    assert Q.vertices == tuple(vertices)
    assert Q.proj_vertices == [Q._proj(v) for v in vertices]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.tuples(*[st.integers(0, 4)] * r), min_size=1, max_size=10)))
def test_hull_matches_subset_scan_on_random_points(points):
    Q = LatticePolytope(len(points[0]), points)
    if Q.dim == 0:
        assert Q.facets() == [] and Q.vertices == (min(points),)
        return
    _check_hull_against_reference(Q, points)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 2))
@example(3, 1, 3, 1)
def test_hull_matches_subset_scan_on_simplex_products(a, d, b, e):
    P = product_polytope(simplex(a, d), simplex(b, e))
    points = list(P.vertices)
    Q = LatticePolytope(P.ambient_rank, points)
    assert Q.vertices == P.vertices
    assert P.facets() == Q.facets()
    _check_hull_against_reference(Q, points)
