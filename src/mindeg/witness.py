"""Nonnegative-but-not-SOS witnesses on plane Veronese embeddings.

Pipeline for the degree-d Veronese surface model: draw two products of d
rational lines meeting in d^2 distinct exact points, fit a third degree-d
form through a selected subset of e of them, solve for a degree-2d form f
with double zeros at the selected points that escapes the span of the
pairwise products h_i h_j, and scale a rational delta > 0 so that

    w = delta f + h0^2 + h1^2 + h2^2

is nonnegative on sampled real points while provably not a sum of squares:
any SOS decomposition would force each square into span{h0,h1,h2}^2, and f
sits outside that span by an exact rank computation. The non-SOS half is
therefore exact twice over: the rank certificate (certify_not_sos) and a
dual functional with an exactly positive definite moment matrix and a
negative value on w (certify_dual), built from the same facts by one step
of facial reduction. Nonnegativity is sampling evidence backed by the
order-two vanishing at the selected points.

Every form is an exact coefficient vector over the model's bases: the h_i
over r1_basis (the degree-d monomials), f, w and the products over
r2_basis (degree 2d). Every product h_i h_j is VarietyModel.product, read
from the model's own pairs and columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import (
    DualFunctional,
    _frac_json,
    _functional_from_points,
    _moment_matrix,
    _normalized_on_variety,
    extremality_check,
    interpolant_through_points,
    moment_psd,
    pair_with_square,
)
from .errors import (
    DegeneratePosition,
    DegenerateSpan,
    EmptyComplement,
    InconsistentModel,
    MindegError,
    NoDeltaFound,
    RetryExhausted,
)
from .numerics import (_echelon, _integer_row, exact_rank, in_row_span,
                       is_positive_definite, nullspace, residues, rref,
                       solve_exact)
from .variety import QuadraticForm, epsilon, veronese_model

# sphere samples per block of power tables in _SphereSamples
_SAMPLE_BLOCK = 1 << 14
# pipeline attempts, each with seeds derived from the caller's
_MAX_RETRIES = 8
# random draws of a line configuration, and of h0 from its vanishing space
_MAX_DRAWS = 64
# line coefficients are drawn from -_COEFF_BOUND..._COEFF_BOUND
_COEFF_BOUND = 9
# sphere samples this close to a selected point are left out of delta's
# starting estimate
_EXCLUSION_RADIUS = 0.1


def _monomials(d):
    """Exponent pairs (a, b), a + b <= d, in the model's sorted order; the
    implied third exponent is d - a - b."""
    return sorted((a, b) for a in range(d + 1) for b in range(d + 1 - a))


def _rng(seed):
    return np.random.Generator(np.random.Philox(_seed_seq(seed)))


def _seed_seq(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _primitive(vec):
    """Integer vector scaled primitively with first nonzero entry > 0."""
    ints = _integer_row(vec)
    lead = next((v for v in ints if v != 0), None)
    if lead is None:
        raise DegeneratePosition("zero vector cannot be normalized")
    return tuple(-v for v in ints) if lead < 0 else tuple(ints)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _veronese_image(point, d, exps):
    """Values of the degree-d monomials (a, b, d - a - b) of exps at point:
    ints at an integer point. One power table per coordinate, built by
    repeated multiplication."""
    tables = []
    for c in point:
        powers = [1]
        for _ in range(d):
            powers.append(powers[-1] * c)
        tables.append(powers)
    px, py, pz = tables
    return [px[a] * py[b] * pz[d - a - b] for (a, b) in exps]


def _value_and_partials(point, D, exps):
    """Four rows over the degree-D monomials of exps: their values at point
    and their partial derivatives along x, y and z there. The partials
    d/dx_k x^e = e_k x^(e - u_k) are read from the degree-(D - 1) image."""
    low_exps = _monomials(D - 1)
    low = dict(zip(low_exps, _veronese_image(point, D - 1, low_exps)))
    rows = [_veronese_image(point, D, exps)]
    for k, (da, db) in enumerate(((1, 0), (0, 1), (0, 0))):
        row = []
        for (a, b) in exps:
            ek = (a, b, D - a - b)[k]
            row.append(ek * low[(a - da, b - db)] if ek else 0)
        rows.append(row)
    return rows


def _line_product(lines):
    """Coefficient vector over _monomials(len(lines)) of the product of the
    lines (a, b, c), each the form a x + b y + c z. The terms are keyed by
    their exponents of x and y; z takes the rest of the degree."""
    prod = {(0, 0): 1}
    for line in lines:
        nxt = {}
        for (i, j), v in prod.items():
            for key, c in zip(((i + 1, j), (i, j + 1), (i, j)), line):
                nxt[key] = nxt.get(key, 0) + c * v
        prod = nxt
    return [prod.get(e, 0) for e in _monomials(len(lines))]


def _square_products(model, hs):
    """The R_2 vectors of the products h_i h_j, i <= j, i-major, of forms
    given over model.r1_basis."""
    return [model.product(hs[i], hs[j])
            for i in range(len(hs)) for j in range(i, len(hs))]


def _functional_points(d):
    """Indices i*d + j (line i of h1 meeting line j of h2) of the e + 2
    grid points that carry the separating functional: all but the
    staircase Gamma = {(i, j) : d + 1 <= i + j <= 2d - 3}, C(d - 1, 2) - 1
    cells, empty at d = 3.

    The d^2 points Z are a reduced complete intersection of type (d, d). By
    Cayley-Bacharach (Eisenbud, Green & Harris, "Cayley-Bacharach theorems
    and conjectures", Bull. AMS 1996, CB7) the images of S = Z - Gamma
    satisfy 1 + |Gamma| - h_Gamma(d - 3) linear relations, and the one at
    p in S has coefficient zero iff p lies on every degree-(d - 3) curve
    through Gamma. For the grid x = (d - 1 - i) z, y = (d - 1 - j) z, Gamma
    is {1 <= x + y <= d - 3}, independent in degree d - 3, and its one
    curve prod_k (x + y - k z) misses S. Both conditions are open, so lines
    in general position give one relation, every coefficient nonzero;
    choose_hyperplanes checks it exactly."""
    return [i * d + j for i in range(d) for j in range(d)
            if not d + 1 <= i + j <= 2 * d - 3]


def choose_hyperplanes(d, seed):
    """Two lists of d random integer lines and their d^2 distinct exact
    intersection points, line i of the first meeting line j of the second
    at index i*d + j. The points _functional_points(d) have degree-d
    images tied by exactly one linear relation with every coefficient
    nonzero, so the configuration feeds the separating-functional
    construction directly. Draws that fail are rejected."""
    if d < 3:
        raise ValueError("need degree at least 3")
    rng = _rng(seed)
    exps = _monomials(d)
    chosen = _functional_points(d)
    for _ in range(_MAX_DRAWS):
        raw = rng.integers(-_COEFF_BOUND, _COEFF_BOUND + 1, size=(2 * d, 3))
        if not raw.any(axis=1).all():
            continue
        lines = [_primitive([int(c) for c in row]) for row in raw]
        if len(set(lines)) != 2 * d:
            continue
        ell, em = lines[:d], lines[d:]
        pts = [_cross(a, b) for a in ell for b in em]
        if any(p == (0, 0, 0) for p in pts):
            continue
        pts = [_primitive(p) for p in pts]
        if len(set(pts)) != d * d:
            continue
        # one relation gives the chosen images rank e + 1, and so all d^2:
        # h1 and h2 are independent and vanish on every image
        images = [_veronese_image(pts[i], d, exps) for i in chosen]
        rel = nullspace(zip(*images))
        if len(rel) != 1 or any(c == 0 for c in rel[0]):
            continue
        return ell, em, pts
    raise RetryExhausted(
        "no valid line configuration in %d draws" % _MAX_DRAWS)


def fit_h0(points, selected, seed, h_forms):
    """Degree-d form vanishing exactly at the selected points: drawn from
    the exact nullspace of their Veronese evaluation matrix, verified
    nonvanishing at every non-selected point. The line products h_forms =
    (h1, h2), vectors over the degree-d monomials, are verified to vanish
    there too, and span{h0, h1, h2} to be the full vanishing space."""
    d = math.isqrt(len(points))
    if d * d != len(points):
        raise InconsistentModel("point count is not a square")
    exps = _monomials(d)
    e = (d + 2) * (d + 1) // 2 - 3
    if len(selected) != e or len(set(selected)) != e:
        raise DegenerateSpan("need %d distinct selected indices" % e)
    rows = [_veronese_image(points[i], d, exps) for i in selected]
    vanishing = nullspace(rows)
    if len(vanishing) != 3:
        raise DegenerateSpan(
            "vanishing space has dimension %d, expected 3" % len(vanishing))
    unselected_images = [_veronese_image(points[i], d, exps)
                         for i in range(len(points)) if i not in set(selected)]
    rng = _rng(seed)
    h0 = None
    for _ in range(_MAX_DRAWS):
        c = rng.integers(-4, 5, size=3)
        if not c.any():
            continue
        cand = [sum(int(c[k]) * vanishing[k][j] for k in range(3))
                for j in range(len(exps))]
        if all(v == 0 for v in cand):
            continue
        cand = list(_primitive(cand))
        vals = [sum(a * b for a, b in zip(cand, img))
                for img in unselected_images]
        if all(v != 0 for v in vals):
            h0 = cand
            break
    if h0 is None:
        raise RetryExhausted(
            "no combination avoided the unselected points in %d draws"
            % _MAX_DRAWS)
    h1, h2 = h_forms
    if not (in_row_span(vanishing, h1) and in_row_span(vanishing, h2)):
        raise InconsistentModel(
            "line products do not vanish at the selected points")
    if exact_rank([h0, h1, h2]) != 3:
        raise DegenerateSpan("h0, h1, h2 do not span the vanishing space")
    return h0


def _double_vanishing_rows(points, selected, d, exps2):
    """Value and the three partial derivatives at each selected point: the
    degree-2d forms with a double zero there are their nullspace."""
    return [row for i in selected
            for row in _value_and_partials(points[i], 2 * d, exps2)]


def build_f(points, selected, prods):
    """Degree-2d form with double zeros at the selected points, outside
    the span of the pairwise products h_i h_j, given as their coefficient
    vectors over the sorted degree-2d monomials (_square_products).

    Returns (coefficient vector over the sorted degree-2d monomials,
    stats dict with nullspace/product-span/quotient dimensions). The
    quotient dimension must be at least the quadratic deficiency of the
    model, and exactly 1 for d = 3 where f is unique up to scale.
    """
    d = math.isqrt(len(points))
    if d * d != len(points):
        raise InconsistentModel("point count is not a square")
    exps2 = _monomials(2 * d)
    rows = _double_vanishing_rows(points, selected, d, exps2)
    ns = nullspace(rows, ncols=len(exps2))
    rp = exact_rank(prods)
    if exact_rank(prods + ns) != len(ns):
        raise InconsistentModel(
            "a product h_i h_j misses a double zero at a selected point")
    quotient = len(ns) - rp
    if quotient == 0:
        raise EmptyComplement(
            "every doubly-vanishing form is a combination of the h_i h_j")
    eps = epsilon(veronese_model(2, d))
    if quotient < eps or (d == 3 and quotient != 1):
        raise DegenerateSpan(
            "quotient dimension %d is degenerate (deficiency %d)"
            % (quotient, eps))
    f = next((w for w in residues(prods, ns) if any(w)), None)
    if f is None:
        raise EmptyComplement("nullspace basis reduced to zero")
    f = _primitive(f)
    if any(sum(c * v for c, v in zip(f, row)) != 0 for row in rows):
        raise InconsistentModel("f fails to doubly vanish at a point")
    return [Fraction(c) for c in f], {"nullspace_dim": len(ns),
                                      "products_rank": rp,
                                      "quotient_dim": quotient}


def _float_terms(vec, deg):
    """The nonzero terms ((a, b, deg - a - b), float c) of a coefficient
    vector over _monomials(deg)."""
    return [((a, b, deg - a - b), float(c))
            for (a, b), c in zip(_monomials(deg), vec) if c != 0]


def _eval_many(poly_items, powers):
    """Float values of a sparse ternary polynomial at sample arrays, given
    their power tables: powers[i][k] is coordinate i to the k-th power."""
    PX, PY, PZ = powers
    total = np.zeros_like(PX[0])
    for (a, b, e), c in poly_items:
        total += c * PX[a] * PY[b] * PZ[e]
    return total


def _product_table(x, top):
    table = [np.ones_like(x), x]
    while len(table) <= top:
        table.append(table[-1] * x)
    return table[:top + 1]


class _SphereSamples:
    """Seeded unit-sphere samples with the float values of f and of
    h = sum h_i^2: coordinate powers by repeated multiplication, then
    sum c X^a Y^b Z^e term by term in monomial order. Every operation is
    elementwise, so a sample's value does not depend on the samples that
    share its block. The pass runs in blocks of _SAMPLE_BLOCK samples, so
    the power tables stay small."""

    def __init__(self, f_vec, h_vectors, samples, seed):
        # a degree-d vector has (d + 1)(d + 2) / 2 coefficients
        d = (math.isqrt(8 * len(h_vectors[0]) + 1) - 3) // 2
        if any(len(h) != len(_monomials(d)) for h in h_vectors) \
                or len(f_vec) != len(_monomials(2 * d)):
            raise InconsistentModel("h and f lengths do not match degrees "
                                    "d and 2d")
        rng = _rng(seed)
        pts = rng.normal(size=(int(samples), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        self.pts = pts
        self._top = 2 * d
        self._f_items = _float_terms(f_vec, 2 * d)
        self._h_items = [_float_terms(h, d) for h in h_vectors]
        n = len(pts)
        self.f = np.empty(n)
        self.h = np.empty(n)
        for s in range(0, n, _SAMPLE_BLOCK):
            block = slice(s, s + _SAMPLE_BLOCK)
            self.f[block], self.h[block] = self._values(pts[block])

    def _values(self, rows):
        """(f, h) on the rows of one block; its power tables are freed
        when it returns, before the next block builds its own."""
        powers = [_product_table(rows[:, i], self._top) for i in range(3)]
        f = _eval_many(self._f_items, powers)
        h = np.zeros(len(rows))
        for items in self._h_items:
            h += _eval_many(items, powers) ** 2
        return f, h

    def margin(self, mult):
        """(min of mult f + h, max of |mult f| + h) over all samples."""
        return (float((mult * self.f + self.h).min()),
                float((np.abs(mult * self.f) + self.h).max()))


def _outside(pts, centers, radius):
    """Mask of the samples farther than radius from every +-center. For
    unit p, q the nearer of p -+ q lies at distance sqrt(2 - 2 |p.q|), so
    only rows with |p.q| > 1 - radius^2 (less 1e-9 for rounding) can fall
    within radius; the distance formula runs on those rows alone."""
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


def delta_search(f_vec, h_vectors, selected_points, samples=100000, seed=0):
    """Power-of-two rational delta with delta f + sum h_i^2 sampled
    nonnegative on the unit sphere (relative margin -1e-9).

    The starting estimate is inf(sum h_i^2) / sup|f| over samples outside
    small neighborhoods of the selected points, where the ratio bound is
    meaningful; halving from there terminates because the double zeros
    make the negative part of delta f locally dominated. Power-of-two
    values convert exactly between float and Fraction, so the accepted
    delta is the tested delta.

    Every reported number is a min or max of the per-sample floats of
    _SphereSamples, evaluated once.
    """
    sphere = _SphereSamples(f_vec, h_vectors, samples, seed)
    keep = _outside(sphere.pts, selected_points, _EXCLUSION_RADIUS)
    if not keep.any():
        keep[:] = True
    sup_f = float(np.abs(sphere.f[keep]).max())
    if sup_f == 0.0:
        estimate = 1.0
    else:
        estimate = float(sphere.h[keep].min()) / sup_f
    k0 = 10 if estimate <= 0 else min(10, math.floor(math.log2(estimate)))
    for k in range(k0, -61, -1):
        wmin, scale = sphere.margin(math.ldexp(1.0, k))
        if scale == 0.0 or wmin >= -1e-9 * scale:
            evidence = {"samples": int(samples),
                        "excluded": int((~keep).sum()),
                        "delta_estimate": estimate,
                        "min_value": wmin,
                        "scale": scale,
                        "margin": 0.0 if scale == 0.0 else wmin / scale}
            return Fraction(2) ** k, evidence
    raise NoDeltaFound("halving reached 2^-60 without a nonnegative sample")


def sample_nonnegativity(report: "WitnessReport", samples=100000, seed=0,
                         delta=None):
    """Independent sampling re-check of the witness: relative margin of
    delta f + sum h_i^2 over fresh sphere samples. delta defaults to the
    report's accepted value. Returns {"min_value", "scale", "margin"},
    computed as delta_search computes its margin."""
    if delta is None:
        delta = report.delta
    wmin, scale = _SphereSamples(report.f.coefficients, report.h_vectors,
                                 samples, seed).margin(float(delta))
    return {"min_value": wmin, "scale": scale,
            "margin": 0.0 if scale == 0.0 else wmin / scale}


@dataclass
class WitnessReport:
    """Complete record of one pipeline run; every certificate ingredient
    is exact and re-checkable from the stored fields alone."""

    d: int
    seed: int
    attempt: int
    h1_factors: list
    h2_factors: list
    h_vectors: list          # h0, h1, h2 over the degree-d monomial basis
    points: list             # primitive integer triples, construction order
    selected: list
    f: QuadraticForm
    delta: Fraction
    witness: QuadraticForm
    stats: dict
    certificate: dict
    nonneg_evidence: dict
    functional: object = None
    functional_info: dict | None = None
    functional_checks: dict | None = None
    sos: dict | None = None

    def to_json(self):
        return {
            "d": self.d,
            "seed": self.seed,
            "attempt": self.attempt,
            "h1_factors": [list(f) for f in self.h1_factors],
            "h2_factors": [list(f) for f in self.h2_factors],
            "h_vectors": [[_frac_json(c) for c in v] for v in self.h_vectors],
            "points": [list(p) for p in self.points],
            "selected": list(self.selected),
            "f": self.f.to_json(),
            "delta": _frac_json(self.delta),
            "witness": self.witness.to_json(),
            "stats": dict(self.stats),
            "certificate": dict(self.certificate),
            "nonneg_evidence": dict(self.nonneg_evidence),
            "functional": None if self.functional is None
                else self.functional.to_json(),
            "functional_info": None if self.functional_info is None else {
                "lambdas": [_frac_json(v)
                            for v in self.functional_info["lambdas"]],
                "kappas": [_frac_json(v)
                           for v in self.functional_info["kappas"]],
                "point_indices": list(self.functional_info["point_indices"]),
            },
            "functional_checks": None if self.functional_checks is None
                else dict(self.functional_checks),
            "sos": None if self.sos is None else dict(self.sos),
        }


def _frac_from_json(blob):
    return Fraction(int(blob["num"]), int(blob["den"]))


def witness_report_from_json(blob):
    """Rebuild a WitnessReport (and its model-backed forms) from to_json
    output."""
    d = int(blob["d"])
    model = veronese_model(2, d)
    fn = None
    if blob["functional"] is not None:
        vals = [_frac_from_json(v) for v in blob["functional"]["values"]]
        fn = DualFunctional(model, vals)
    info = None
    if blob["functional_info"] is not None:
        info = {
            "lambdas": [_frac_from_json(v)
                        for v in blob["functional_info"]["lambdas"]],
            "kappas": [_frac_from_json(v)
                       for v in blob["functional_info"]["kappas"]],
            "point_indices": list(blob["functional_info"]["point_indices"]),
        }
    return WitnessReport(
        d=d,
        seed=int(blob["seed"]),
        attempt=int(blob["attempt"]),
        h1_factors=[tuple(int(c) for c in f) for f in blob["h1_factors"]],
        h2_factors=[tuple(int(c) for c in f) for f in blob["h2_factors"]],
        h_vectors=[[_frac_from_json(c) for c in v]
                   for v in blob["h_vectors"]],
        points=[tuple(int(c) for c in p) for p in blob["points"]],
        selected=[int(i) for i in blob["selected"]],
        f=QuadraticForm(model, [Fraction(c) for c in blob["f"]["coefficients"]]),
        delta=_frac_from_json(blob["delta"]),
        witness=QuadraticForm(
            model, [Fraction(c) for c in blob["witness"]["coefficients"]]),
        stats=dict(blob["stats"]),
        certificate=dict(blob["certificate"]),
        nonneg_evidence=dict(blob["nonneg_evidence"]),
        functional=fn,
        functional_info=info,
        functional_checks=None if blob["functional_checks"] is None
            else dict(blob["functional_checks"]),
        sos=None if blob["sos"] is None else dict(blob["sos"]),
    )


def certify_not_sos(report: WitnessReport) -> bool:
    """Exact re-verification that the witness is not a sum of squares:
    (a) the degree-d forms vanishing at the selected points are exactly
    span{h0, h1, h2}; (b) f vanishes at the selected points but lies
    outside span{h_i h_j}; (c) the witness is delta f + h0^2 + h1^2 + h2^2
    with delta > 0. Any square decomposition of the witness would force its
    squares into the span from (a), contradicting (b). The forms are read
    over the bases of a fresh veronese_model(2, d), which also forms the
    products. Returns False instead of raising on an invalid report."""
    try:
        d = report.d
        model = veronese_model(2, d)
        exps, exps2 = model.r1_basis, model.r2_basis
        rows = [_veronese_image(report.points[i], d, exps)
                for i in report.selected]
        vanishing = nullspace(rows, ncols=len(exps))
        if len(vanishing) != 3:
            return False
        hs = report.h_vectors
        if len(hs) != 3 or any(len(h) != len(exps) for h in hs):
            return False
        if any(any(r) for r in residues(vanishing, hs)) \
                or exact_rank(hs) != 3:
            return False
        prods = _square_products(model, hs)
        f = [Fraction(c) for c in report.f.coefficients]
        if len(f) != len(exps2) or all(c == 0 for c in f):
            return False
        delta = Fraction(report.delta)
        # prods[0], prods[3], prods[5] are h0^2, h1^2, h2^2
        if delta <= 0 or list(report.witness.coefficients) != [
                delta * c + a + b + e
                for c, a, b, e in zip(f, prods[0], prods[3], prods[5])]:
            return False
        f = _integer_row(f)
        rp = exact_rank(prods)
        if exact_rank(prods + [f]) != rp + 1:
            return False
        for i in report.selected:
            img2 = _veronese_image(report.points[i], 2 * d, exps2)
            if sum(c * v for c, v in zip(f, img2)) != 0:
                return False
        return True
    except (MindegError, AttributeError, ValueError, IndexError, KeyError,
            TypeError):
        return False


def _dual_parts(report, model, prods):
    """(l2, l1, K): values on the degree-2d monomials of two functionals
    and a power of two K such that l = l2 + K l1 certifies that the witness
    is not a sum of squares (one step of facial reduction).

    prods are the h_i h_j as _square_products gives them. l1 sums the
    evaluations at the selected points: integer valued, zero on f and on
    every h_i h_j, with a PSD moment matrix whose kernel is
    span{h0, h1, h2}. l2 solves l2(h_i h_j) = alpha [i = j], l2(f) = -1
    with alpha = delta / 4, so l(witness) = -delta / 4 for every K. In the
    basis (h0, h1, h2, unit vectors u) the moment matrix of l is
    [[alpha I, B], [B^T, C + K P]] with P > 0, positive definite once
    K > bound = tr(P^-1 B^T B) / alpha + |C|_inf tr(P^-1). The bound is
    computed in Fractions and K = 2^(b + 1), b the least integer with
    2^b >= bound."""
    d = report.d
    nvars = model.n + 1
    hs = report.h_vectors
    alpha = report.delta / 4
    targets = [alpha if i == j else 0 for i in range(3) for j in range(i, 3)]
    l2 = solve_exact(prods + [report.f.coefficients], targets + [-1])
    if l2 is None:
        raise InconsistentModel("f lies in the span of the h_i h_j")
    images = [_veronese_image(report.points[i], 2 * d, model.r2_basis)
              for i in report.selected]
    l1 = [sum(col) for col in zip(*images)]
    M2 = _moment_matrix(model, l2)
    M1 = _moment_matrix(model, l1)
    pivots = set(_echelon(hs)[1])
    free = [k for k in range(nvars) if k not in pivots]
    B = [[sum(M2[k][i] * h[i] for i in range(nvars)) for k in free]
         for h in hs]
    n = len(free)
    aug = [[M1[k][l] for l in free] + [int(r == c) for c in range(n)]
           for r, k in enumerate(free)]
    red, pivs = rref(aug)
    if pivs != list(range(n)):
        raise InconsistentModel("point moments are singular off the h_i")
    P_inv = [row[n:] for row in red]
    c_norm = max(sum(abs(M2[k][l]) for l in free) for k in free)
    bound = (sum(row[r] * P_inv[r][c] * row[c]
                 for row in B for r in range(n) for c in range(n)) / alpha
             + c_norm * sum(P_inv[r][r] for r in range(n)))
    # the least b with 2^b >= bound is top or top + 1
    top = bound.numerator.bit_length() - bound.denominator.bit_length()
    if Fraction(2) ** top < bound:
        top += 1
    return l2, l1, Fraction(2) ** (top + 1)


def _attach_dual(model, report, prods):
    """report.sos: the exact Infeasible verdict with its functional. No
    fallback: a report that fails certify_dual is a model error."""
    l2, l1, K = _dual_parts(report, model, prods)
    fn = DualFunctional(model, [a + K * b for a, b in zip(l2, l1)])
    report.sos = {"status": "Infeasible",
                  "separation": _frac_json(fn.apply(report.witness)),
                  "functional": fn.to_json()}
    if not certify_dual(report):
        raise InconsistentModel("dual certificate failed the exact check")


def certify_dual(report: WitnessReport) -> bool:
    """Exact re-verification of report.sos from the JSON fields alone: the
    functional, rebuilt on veronese_model(2, d), has a positive definite
    moment matrix and a negative value on the witness, so the witness is
    not a sum of squares. Returns False instead of raising on a malformed
    or tampered report."""
    try:
        model = veronese_model(2, report.d)
        blob = report.sos["functional"]
        if blob["model"] != model.name:
            return False
        fn = DualFunctional(model, [_frac_from_json(v)
                                    for v in blob["values"]])
        witness = QuadraticForm(model, list(report.witness.coefficients))
        return (fn.apply(witness) < 0
                and is_positive_definite(fn.moment_matrix()))
    except (MindegError, AttributeError, ValueError, IndexError, KeyError,
            TypeError, ZeroDivisionError):
        return False


def _attach_functional(model, report):
    """Separating functional from the e+2 intersection points
    _functional_points(d), plus the exact pairing and kernel checks. The
    draw guarantees their unique all-nonzero relation (choose_hyperplanes),
    and the functional's exact nullspace confirms it."""
    d = report.d
    e = model.e
    idx = _functional_points(d)
    images = _normalized_on_variety(
        model, [_veronese_image(report.points[i], d, model.r1_basis)
                for i in idx])
    fn, info = _functional_from_points(model, images)
    # unit weights: g(p_j) = lambda_j / kappa_j = lambda_j
    g = interpolant_through_points(info["points"][:e + 1], info["lambdas"])
    pairing = pair_with_square(fn, g)
    for h in report.h_vectors[1:]:
        pairing += pair_with_square(fn, h)
    if pairing != 0:
        raise InconsistentModel(
            "functional fails to annihilate g^2 + h1^2 + h2^2")
    # g, h1 and h2 lie in Ker M by the pairing; extremality_check
    # verifies exactly that they are a basis of it
    kernel = [g] + list(report.h_vectors[1:])
    extremal, pdim = extremality_check(fn, kernel=kernel)
    kd = len(kernel)
    if extremal and kd != model.m + 1:
        raise InconsistentModel(
            "extremal functional kernel dimension %d != m+1" % kd)
    report.functional = fn
    report.functional_info = {"lambdas": info["lambdas"],
                              "kappas": info["kappas"],
                              "point_indices": idx}
    report.functional_checks = {
        "moment_min_eig": moment_psd(fn),
        "pairing_is_zero": True,
        "kernel_dim": kd,
        "extremal": extremal,
        "perturbation_dim": pdim,
    }


def _default_selection(d, e):
    """Indices of the e selected points in the d x d intersection grid
    (cell (i, j) = line i of the first product meeting line j of the
    second, at index i*d + j). The d*d - e unselected cells walk wrapped
    diagonals, so every line keeps unselected points and no triple of
    lines hoards the selection; clustered selections inflate the
    vanishing space past dimension 3."""
    skip = d * d - e
    cells = {((t % d) * d + (t % d + t // d) % d) for t in range(skip)}
    return [i for i in range(d * d) if i not in cells]


def hilbert_witness(d=3, seed=0, samples=100000) -> WitnessReport:
    """Full pipeline on the degree-d Veronese surface model. Steps that
    depend on the random draw retry with derived seeds; the final report
    carries the exact non-SOS certificate, sampling evidence for
    nonnegativity, the separating functional with its exact pairing, and
    the exact Infeasible verdict with its dual functional (certify_dual)."""
    if d < 3:
        raise ValueError("need degree at least 3")
    model = veronese_model(2, d)
    if list(model.r1_basis) != _monomials(d) \
            or list(model.r2_basis) != _monomials(2 * d):
        raise InconsistentModel("model monomial order drifted")
    e = model.e
    last_err = None
    for attempt in range(_MAX_RETRIES):
        ss = np.random.SeedSequence(int(seed), spawn_key=(attempt,))
        s_lines, s_h0, s_delta = ss.spawn(3)
        try:
            ell, em, points = choose_hyperplanes(d, s_lines)
            selected = _default_selection(d, e)
            h1, h2 = _line_product(ell), _line_product(em)
            hs = [fit_h0(points, selected, s_h0, h_forms=(h1, h2)), h1, h2]
            prods = _square_products(model, hs)
            f_raw, stats = build_f(points, selected, prods)
            break
        except (DegeneratePosition, DegenerateSpan, EmptyComplement,
                RetryExhausted) as ex:
            last_err = ex
    else:
        raise RetryExhausted(
            "pipeline failed after %d attempts; last: %s"
            % (_MAX_RETRIES, last_err))

    # prods[0], prods[3], prods[5] are h0^2, h1^2, h2^2
    h_sq = [a + b + c for a, b, c in zip(prods[0], prods[3], prods[5])]
    # scale f so its coefficient size matches the square part; delta then
    # measures the perturbation relative to the SOS bulk
    ratio = max(abs(c) for c in h_sq) / max(abs(c) for c in f_raw)
    f_vec = [c * ratio for c in f_raw]
    delta, evidence = delta_search(
        f_vec, hs, selected_points=[points[i] for i in selected],
        samples=samples, seed=s_delta)
    evidence["f_scale"] = float(ratio)
    witness_coeffs = [delta * fc + hc for fc, hc in zip(f_vec, h_sq)]
    report = WitnessReport(
        d=d, seed=int(seed), attempt=attempt,
        h1_factors=list(ell), h2_factors=list(em),
        h_vectors=hs, points=list(points), selected=selected,
        f=QuadraticForm(model, f_vec), delta=delta,
        witness=QuadraticForm(model, witness_coeffs),
        stats=stats, certificate={}, nonneg_evidence=evidence)
    cert_valid = certify_not_sos(report)
    report.certificate = {
        "vanishing_dim": 3,
        "products_rank": stats["products_rank"],
        "with_f_rank": stats["products_rank"] + 1,
        "quotient_dim": stats["quotient_dim"],
        "valid": cert_valid,
    }
    if not cert_valid:
        raise InconsistentModel("exact certificate failed to re-verify")
    _attach_functional(model, report)
    _attach_dual(model, report, prods)
    return report
