"""Nonnegative-but-not-SOS witnesses on plane Veronese embeddings.

Pipeline for the degree-d Veronese surface model: draw two products of d
rational lines meeting in d^2 distinct exact points, fit a third degree-d
form through a selected subset of e of them, solve for a degree-2d form f
with double zeros at the selected points that escapes the span of the
pairwise products h_i h_j, and scale a rational delta > 0 so that

    w = delta f + h0^2 + h1^2 + h2^2

is nonnegative on sampled real points while provably not a sum of squares:
any SOS decomposition would force each square into span{h0,h1,h2}^2, and f
sits outside that span: its exact residue modulo the h_i h_j is nonzero.
That rank argument is Hilbert's own and the report's one not-SOS proof,
re-checked exactly from the report by certify_not_sos. Nonnegativity is
sampling evidence backed by the order-two vanishing at the selected
points.

Every form is an exact coefficient vector over the model's bases: the h_i
over r1_basis (the degree-d monomials), f, w and the products over
r2_basis (degree 2d). Every product h_i h_j is VarietyModel.product, read
from the model's own pairs and columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import (
    DualFunctional,
    extremality_check,
    interpolant_through_points,
    moment_psd,
    separating_functional_real,
)
from .errors import (
    DegeneratePosition,
    InconsistentModel,
    MindegError,
    NoDeltaFound,
    RetryExhausted,
)
from .numerics import (_echelon, _frac_from_json, _frac_json,
                       _integer_row, _kernel_vector, _numerators, _primitive,
                       _residue, exact_rank, nullspace, residues)
from .variety import QuadraticForm, epsilon, veronese_model

# sphere samples per block in _SphereSamples: one block's points, power
# tables and scratch arrays live at a time, beside 17 bytes per sample
_SAMPLE_BLOCK = 1 << 13
# pipeline attempts, each with seeds derived from the caller's
_MAX_RETRIES = 8
# random draws of a line configuration, and of h0 from its vanishing space
_MAX_DRAWS = 64
# line coefficients are drawn from -_COEFF_BOUND..._COEFF_BOUND
_COEFF_BOUND = 9
# sphere samples this close to a selected point are left out of delta's
# starting estimate
_EXCLUSION_RADIUS = 0.1


def _degree(model):
    """d of veronese_model(2, d), whose sorted r1_basis ends with (d, 0)."""
    return model.r1_basis[-1][0]


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _normalized(vec):
    """The primitive integer tuple of vec != 0, first nonzero entry > 0."""
    ints = _primitive(vec)
    lead = next(v for v in ints if v != 0)
    return tuple(-v for v in ints) if lead < 0 else tuple(ints)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _powers(c, top):
    """[1, c, c c, ..] up to c^top, by repeated multiplication."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * c)
    return out


def _veronese_image(point, d, exps):
    """Values of the degree-d monomials (a, b, d - a - b) of exps at point:
    ints at an integer point."""
    px, py, pz = (_powers(c, d) for c in point)
    return [px[a] * py[b] * pz[d - a - b] for (a, b) in exps]


def _partials(point, D, exps):
    """Three rows over the degree-D monomials of exps: their partial
    derivatives along x, y and z at point, d/dx_k x^e = e_k x^(e - u_k),
    from the coordinate powers up to D - 1."""
    px, py, pz = (_powers(c, D - 1) for c in point)
    rows = [[], [], []]
    for (a, b) in exps:
        c = D - a - b
        rows[0].append(a * px[a - 1] * py[b] * pz[c] if a else 0)
        rows[1].append(b * px[a] * py[b - 1] * pz[c] if b else 0)
        rows[2].append(c * px[a] * py[b] * pz[c - 1] if c else 0)
    return rows


def _line_product(lines, exps):
    """Coefficient vector over the exponent pairs exps of the product of
    the lines (a, b, c), each the form a x + b y + c z. The terms are keyed
    by their exponents of x and y; z takes the rest of the degree."""
    prod = {(0, 0): 1}
    for line in lines:
        nxt = {}
        for (i, j), v in prod.items():
            for key, c in zip(((i + 1, j), (i, j + 1), (i, j)), line):
                nxt[key] = nxt.get(key, 0) + c * v
        prod = nxt
    return [prod.get(e, 0) for e in exps]


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


def choose_hyperplanes(model, seed):
    """Two lists of d random integer lines of model = veronese_model(2, d)
    and their d^2 distinct exact intersection points, line i of the first
    meeting line j of the second at index i*d + j. The points
    _functional_points(d) have images tied by exactly one linear relation
    with every coefficient nonzero, so the configuration feeds the
    separating-functional construction directly. Draws that fail are
    rejected; DegeneratePosition when all _MAX_DRAWS of them fail."""
    d = _degree(model)
    if d < 3:
        raise ValueError("need degree at least 3")
    rng = _rng(seed)
    chosen = _functional_points(d)
    for _ in range(_MAX_DRAWS):
        raw = rng.integers(-_COEFF_BOUND, _COEFF_BOUND + 1, size=(2 * d, 3))
        if not raw.any(axis=1).all():
            continue
        lines = [_normalized([int(c) for c in row]) for row in raw]
        if len(set(lines)) != 2 * d:
            continue
        ell, em = lines[:d], lines[d:]
        # distinct primitive lines, first entry > 0: no cross product is 0
        pts = [_normalized(_cross(a, b)) for a in ell for b in em]
        if len(set(pts)) != d * d:
            continue
        # one relation gives the chosen images rank e + 1, and so all d^2:
        # h1 and h2 are independent and vanish on every image
        images = [_veronese_image(pts[i], d, model.r1_basis)
                  for i in chosen]
        rel = nullspace(zip(*images))
        if len(rel) != 1 or any(c == 0 for c in rel[0]):
            continue
        return ell, em, pts
    raise DegeneratePosition(
        "no valid line configuration in %d draws" % _MAX_DRAWS)


def fit_h0(model, points, selected, seed):
    """Form over model.r1_basis vanishing exactly at the selected points:
    drawn from the exact nullspace of their Veronese evaluation matrix,
    verified nonvanishing at every non-selected point (DegeneratePosition
    after _MAX_DRAWS failed draws, or at once if the basis vanishes at one).
    The draw combines its reduced-echelon basis: the _kernel_vector of each
    free column fc, brought to one integer scale, their entries' lcm at fc.

    With the line products h1 and h2 it spans that nullspace: they vanish
    at every grid point, are independent (distinct primitive lines), and
    h0 is not in their span, being nonzero at the unselected points where
    they vanish. certify_not_sos checks both facts again."""
    d, exps, e = _degree(model), model.r1_basis, model.e
    if len(selected) != e or len(set(selected)) != e:
        raise DegeneratePosition("need %d distinct selected indices" % e)
    rows = [_veronese_image(points[i], d, exps) for i in selected]
    mat, pivots = _echelon(rows)
    free = [c for c in range(len(exps)) if c not in pivots]
    if len(free) != 3:
        raise DegeneratePosition(
            "vanishing space has dimension %d, expected 3" % len(free))
    vanishing = [_kernel_vector(mat, pivots, fc, len(exps)) for fc in free]
    scale = math.lcm(*(v[fc] for v, fc in zip(vanishing, free)))
    vanishing = [[scale // v[fc] * x for x in v]
                 for v, fc in zip(vanishing, free)]
    # a draw's value at an unselected point combines the basis values there
    vals = [[sum(a * b for a, b in zip(v, img)) for v in vanishing]
            for img in (_veronese_image(points[i], d, exps)
                        for i in range(len(points)) if i not in selected)]
    if all(any(v) for v in vals):
        rng = _rng(seed)
        for _ in range(_MAX_DRAWS):
            c = rng.integers(-4, 5, size=3).tolist()
            if any(c) and all(sum(a * b for a, b in zip(c, v)) for v in vals):
                # c is nonzero and the vanishing basis independent: so is h0
                return list(_normalized([sum(a * b for a, b in zip(c, col))
                                         for col in zip(*vanishing)]))
    raise DegeneratePosition(
        "no combination avoided the unselected points in %d draws"
        % _MAX_DRAWS)


def build_f(model, points, selected, prods):
    """Form over model.r2_basis with double zeros at the selected points,
    outside the span of the pairwise products h_i h_j, given as their
    vectors over the same basis (_square_products).

    Returns (coefficient vector over model.r2_basis, stats dict with
    nullspace/product-span/quotient dimensions). The quotient dimension
    must be at least the quadratic deficiency of the model, and exactly 1
    for d = 3 where f is unique up to scale.

    The double-zero rows and the products are each eliminated forward
    once: their ranks give the dimensions, and f is the first residue
    modulo the products, over the free columns in order, of the
    reduced-echelon nullspace vector of that column, each back-substituted
    alone (_kernel_vector). The vector of a free column is unique, so f is
    the one read off the whole reduced nullspace.

    The products lie in the nullspace, which the quotient dimension relies
    on: h0 vanishes at the selected points and h1, h2 at every grid point,
    so each h_i h_j vanishes there to order two.
    """
    d, exps2, ncols = _degree(model), model.r2_basis, model.dim_r2
    # F has a double zero at p iff its partials vanish there: by Euler's
    # relation sum_k p_k dF/dx_k (p) = 2d F(p), so F(p) = 0 follows
    rows = [row for i in selected
            for row in _partials(points[i], 2 * d, exps2)]
    mat, pivots = _echelon(rows)
    pmat, ppivots = _echelon(prods)
    ns_dim, rp = ncols - len(pivots), len(ppivots)
    quotient = ns_dim - rp
    if quotient == 0:
        raise DegeneratePosition(
            "every doubly-vanishing form is a combination of the h_i h_j")
    eps = epsilon(model)
    if quotient < eps or (d == 3 and quotient != 1):
        raise DegeneratePosition(
            "quotient dimension %d is degenerate (deficiency %d)"
            % (quotient, eps))
    # quotient > 0: some nullspace vector lies outside span(prods)
    pivset = set(pivots)
    for fc in range(ncols):
        if fc not in pivset:
            f = _residue(_kernel_vector(mat, pivots, fc, ncols), pmat,
                         ppivots)
            if any(f):
                break
    # the products lie in the nullspace, so f, a residue of a nullspace
    # vector modulo them, lies in it too: every row kills it
    return [Fraction(c) for c in _normalized(f)], {
        "nullspace_dim": ns_dim, "products_rank": rp,
        "quotient_dim": quotient}


def _float_terms(vec, exps, deg):
    """The nonzero terms ((a, b, deg - a - b), float c) of a coefficient
    vector over the degree-deg exponent pairs exps."""
    return [((a, b, deg - a - b), float(c))
            for (a, b), c in zip(exps, vec) if c != 0]


def _blocks(n):
    """Consecutive slices of at most _SAMPLE_BLOCK samples covering
    range(n)."""
    return [slice(s, min(s + _SAMPLE_BLOCK, n))
            for s in range(0, n, _SAMPLE_BLOCK)]


def _powers_into(table):
    """[1, c, c c, ..] as _powers builds it for the float array c in
    table[0], with c^k written into table[k - 1], one row per power."""
    for k in range(1, len(table)):
        np.multiply(table[k - 1], table[0], out=table[k])
    return [1, *table]


def _eval_into(total, term, poly_items, powers):
    """Float values of a sparse ternary polynomial on one block, written
    into total, given its power tables: powers[i][k] is coordinate i to the
    k-th power. term is scratch of the same length; each term is
    c * X^a * Y^b * Z^e, multiplied left to right."""
    total.fill(0.0)
    for exps, c in poly_items:
        # a zeroth power is the int 1: leaving it out changes no bit
        first, *rest = [P[k] for P, k in zip(powers, exps) if k]
        np.multiply(c, first, out=term)
        for factor in rest:
            term *= factor
        total += term


def _sample_count(samples):
    """samples as an int; ValueError unless it is an integer >= 1."""
    try:
        n = operator.index(samples)
    except TypeError:
        n = 0
    if n < 1:
        raise ValueError("samples must be an integer >= 1, got %r"
                         % (samples,))
    return n


class _SphereSamples:
    """Seeded unit-sphere samples, streamed one block of _SAMPLE_BLOCK at a
    time: each block is drawn, normalized, evaluated and masked, and only
    the float values of f and of h = sum h_i^2 and the mask keep of the
    samples outside _EXCLUSION_RADIUS of every +-center outlive it, 17
    bytes per sample.

    A block's draws are normalized by |row| = sqrt((x x + y y) + z z), the
    sum np.linalg.norm(axis=1) forms, and each coordinate is divided into
    a contiguous row of its power table. Values come from coordinate
    powers by repeated multiplication, then sum c X^a Y^b Z^e term by term
    in monomial order, in place in the block's buffers. Consecutive draws
    from one Generator equal one large draw, and every float operation
    acts on one sample, so no value depends on the block size."""

    def __init__(self, model, f_vec, h_vectors, samples, seed, centers=()):
        d = _degree(model)
        if any(len(h) != len(model.r1_basis) for h in h_vectors) \
                or len(f_vec) != model.dim_r2:
            raise InconsistentModel("h and f lengths do not match the "
                                    "model's bases")
        n = _sample_count(samples)
        rng = _rng(seed)
        f_items = _float_terms(f_vec, model.r2_basis, 2 * d)
        h_items = [_float_terms(h, model.r1_basis, d) for h in h_vectors]
        units = _unit_rows(centers)
        self.f = np.empty(n)
        self.h = np.empty(n)
        self.keep = np.empty(n, dtype=bool)
        # one block's buffers, reused by every block
        width = min(n, _SAMPLE_BLOCK)
        tables = np.empty((3, 2 * d, width))
        term_buf, hi_buf = np.empty(width), np.empty(width)
        dots = np.empty(len(units) * width)
        for block in _blocks(n):
            m = block.stop - block.start
            term, hi = term_buf[:m], hi_buf[:m]
            rows = rng.normal(size=(m, 3))
            # hi holds |row| until the division
            np.multiply(rows[:, 0], rows[:, 0], out=hi)
            for i in (1, 2):
                np.multiply(rows[:, i], rows[:, i], out=term)
                hi += term
            np.sqrt(hi, out=hi)
            coords = tables[:, 0, :m]
            np.divide(rows.T, hi, out=coords)
            powers = [_powers_into(tables[i, :, :m]) for i in range(3)]
            _eval_into(self.f[block], term, f_items, powers)
            h = self.h[block]
            h.fill(0.0)
            for items in h_items:
                _eval_into(hi, term, items, powers)
                hi *= hi
                h += hi
            self.keep[block] = _outside(coords, units, _EXCLUSION_RADIUS,
                                        dots)

    def margin(self, mult):
        """{"min_value", "scale", "margin"}: the min of mult f + h and the
        max of |mult f| + h over all samples, and their ratio (0.0 when
        the scale is 0), taken block by block."""
        mins, maxs = [], []
        for block in _blocks(len(self.f)):
            w = mult * self.f[block]
            a = np.abs(w)
            w += self.h[block]
            a += self.h[block]
            mins.append(w.min())
            maxs.append(a.max())
        wmin, scale = float(np.min(mins)), float(np.max(maxs))
        return {"min_value": wmin, "scale": scale,
                "margin": 0.0 if scale == 0.0 else wmin / scale}


def _unit_rows(centers):
    """The centers as float rows, each divided by its np.linalg.norm."""
    rows = np.empty((len(centers), 3))
    for row, p in zip(rows, centers):
        q = np.array([float(c) for c in p])
        row[:] = q / np.linalg.norm(q)
    return rows


def _outside(coords, units, radius, dots):
    """Mask of the samples farther than radius from every +-center, for
    unit samples given as the rows x, y, z of coords and unit centers as
    the rows of units. For unit p, q the nearer of p -+ q lies at distance
    sqrt(2 - 2 |p.q|), so only pairs with |p.q| > 1 - radius^2 (less 1e-9
    for rounding) can fall within radius. The samples are multiplied
    against all centers at once into the scratch dots and the samples with
    a candidate pair found along the center axis; the distance test
    np.linalg.norm(p -+ q) then runs on the candidate pairs alone."""
    m, e = coords.shape[1], len(units)
    keep = np.ones(m, dtype=bool)
    prod = dots[:e * m].reshape(e, m)
    np.matmul(units, coords, out=prod)
    np.abs(prod, out=prod)
    near = prod > 1.0 - radius ** 2 - 1e-9
    cols = np.flatnonzero(near.any(axis=0))
    if cols.size:
        ci, k = np.nonzero(near[:, cols])
        idx = cols[k]
        rows, q = coords[:, idx].T, units[ci]
        dist = np.minimum(np.linalg.norm(rows - q, axis=1),
                          np.linalg.norm(rows + q, axis=1))
        keep[idx[dist <= radius]] = False
    return keep


def delta_search(model, f_vec, h_vectors, selected_points, samples=100000,
                 seed=0):
    """Power-of-two rational delta with delta f + sum h_i^2 sampled
    nonnegative on the unit sphere (relative margin -1e-9).

    The starting estimate is inf(sum h_i^2) / sup|f| over samples outside
    small neighborhoods of the selected points, where the ratio bound is
    meaningful; halving from there terminates because the double zeros
    make the negative part of delta f locally dominated. Power-of-two
    values convert exactly between float and Fraction, so the accepted
    delta is the tested delta.

    Every reported number is a min or max of the per-sample floats of
    _SphereSamples, evaluated once. samples must be an integer >= 1, else
    ValueError.
    """
    sphere = _SphereSamples(model, f_vec, h_vectors, samples, seed,
                            centers=selected_points)
    keep = sphere.keep
    if not keep.any():
        keep[:] = True
    # sup |f| is max(max f, -min f); masked reductions copy nothing
    sup_f = float(max(np.max(sphere.f, where=keep, initial=-np.inf),
                      -np.min(sphere.f, where=keep, initial=np.inf)))
    if sup_f == 0.0:
        estimate = 1.0
    else:
        estimate = float(np.min(sphere.h, where=keep, initial=np.inf)) / sup_f
    k0 = 10 if estimate <= 0 else min(10, math.floor(math.log2(estimate)))
    for k in range(k0, -61, -1):
        evidence = sphere.margin(math.ldexp(1.0, k))
        if evidence["scale"] == 0.0 \
                or evidence["min_value"] >= -1e-9 * evidence["scale"]:
            evidence.update(samples=len(sphere.f),
                            excluded=len(keep) - int(np.count_nonzero(keep)),
                            delta_estimate=estimate)
            return Fraction(2) ** k, evidence
    raise NoDeltaFound("halving reached 2^-60 without a nonnegative sample")


def sample_nonnegativity(report: "WitnessReport", samples=100000, seed=0):
    """Independent sampling re-check of the witness: relative margin of
    report.delta f + sum h_i^2 over fresh sphere samples. Returns
    {"min_value", "scale", "margin"}, computed as delta_search computes its
    margin, over the bases of the model of report.f. samples must be an
    integer >= 1, else ValueError."""
    return _SphereSamples(report.f.model, report.f.coefficients,
                          report.h_vectors, samples, seed).margin(
                              float(report.delta))


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
            "functional": self.functional.to_json(),
            "functional_info": {
                "lambdas": [_frac_json(v)
                            for v in self.functional_info["lambdas"]],
                "kappas": [_frac_json(v)
                           for v in self.functional_info["kappas"]],
                "point_indices": list(self.functional_info["point_indices"]),
            },
            "functional_checks": dict(self.functional_checks),
            "sos": dict(self.sos),
        }


def witness_report_from_json(blob):
    """Rebuild a WitnessReport (and its model-backed forms) from to_json
    output."""
    d = int(blob["d"])
    model = veronese_model(2, d)
    info = blob["functional_info"]
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
        functional=DualFunctional(model, [
            _frac_from_json(v) for v in blob["functional"]["values"]]),
        functional_info={
            "lambdas": [_frac_from_json(v) for v in info["lambdas"]],
            "kappas": [_frac_from_json(v) for v in info["kappas"]],
            "point_indices": list(info["point_indices"]),
        },
        functional_checks=dict(blob["functional_checks"]),
        sos=dict(blob["sos"]),
    )


def certify_not_sos(report: WitnessReport) -> bool:
    """Exact re-verification, from the report's fields alone, that the
    witness is not a sum of squares:
    (a) the degree-d forms vanishing at the selected points are exactly
    span{h0, h1, h2}; (b) f vanishes at the selected points but lies
    outside span{h_i h_j}; (c) the witness is delta f + h0^2 + h1^2 + h2^2
    with delta > 0. Any square decomposition of the witness would force its
    squares into the span from (a), contradicting (b). The h_i must be
    three integer forms over r1_basis; a fresh veronese_model(2, d) forms
    their products. Returns False instead of raising on an invalid
    report."""
    try:
        d = report.d
        model = veronese_model(2, d)
        exps, exps2 = model.r1_basis, model.r2_basis
        hs = [_numerators(h) for h in report.h_vectors]
        if len(hs) != 3 or any(den != 1 or len(h) != len(exps)
                               for h, den in hs):
            return False
        hs = [h for h, _ in hs]
        points = [tuple(operator.index(c) for c in report.points[i])
                  for i in report.selected]
        # (a): the h_i lie in that space, the images' kernel, when each
        # vanishes at each selected point; they span it when independent
        # and the images reach rank dim R_1 - 3
        images = [_veronese_image(p, d, exps) for p in points]
        if any(sum(a * b for a, b in zip(h, image))
               for image in images for h in hs) \
                or exact_rank(hs, 3) != 3 \
                or exact_rank(images, len(exps) - 3) != len(exps) - 3:
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
        # f lies outside span{h_i h_j} iff its residue modulo them is not 0
        if not any(residues(prods, [f])[0]):
            return False
        for p in points:
            img2 = _veronese_image(p, 2 * d, exps2)
            if sum(c * v for c, v in zip(f, img2)) != 0:
                return False
        return True
    except (MindegError, AttributeError, ValueError, IndexError, KeyError,
            TypeError):
        return False


def _attach_functional(model, report):
    """Separating functional from the e+2 intersection points
    _functional_points(d), plus its exact kernel check, which implies the
    pairing l(g^2 + h1^2 + h2^2) = 0. The draw guarantees their unique
    all-nonzero relation (choose_hyperplanes), and the functional's exact
    nullspace confirms it."""
    d = report.d
    e = model.e
    idx = _functional_points(d)
    fn, info = separating_functional_real(
        model, [_veronese_image(report.points[i], d, model.r1_basis)
                for i in idx])
    # unit weights: g(p_j) = lambda_j / kappa_j = lambda_j
    g = interpolant_through_points(info["points"][:e + 1], info["lambdas"])
    # extremality_check proves g, h1, h2 a basis of Ker M: l(k^2) = 0
    kernel = [g] + list(report.h_vectors[1:])
    extremal, pdim = extremality_check(fn, kernel=kernel)
    report.functional = fn
    report.functional_info = {"lambdas": info["lambdas"],
                              "kappas": info["kappas"],
                              "point_indices": idx}
    report.functional_checks = {
        "moment_min_eig": moment_psd(fn),
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
    depend on the random draw retry with derived seeds on
    DegeneratePosition; the final report carries the exact not-SOS rank
    certificate, sampling evidence for nonnegativity, and the separating
    functional with its exact kernel check. Its verdict sos is
    {"status": "Infeasible"}, set only once certify_not_sos has passed.
    samples must be an integer >= 1, else ValueError before any stage."""
    if d < 3:
        raise ValueError("need degree at least 3")
    _sample_count(samples)
    model = veronese_model(2, d)
    e = model.e
    last_err = None
    for attempt in range(_MAX_RETRIES):
        ss = np.random.SeedSequence(int(seed), spawn_key=(attempt,))
        s_lines, s_h0, s_delta = ss.spawn(3)
        try:
            ell, em, points = choose_hyperplanes(model, s_lines)
            selected = _default_selection(d, e)
            hs = [fit_h0(model, points, selected, s_h0),
                  _line_product(ell, model.r1_basis),
                  _line_product(em, model.r1_basis)]
            prods = _square_products(model, hs)
            f_raw, stats = build_f(model, points, selected, prods)
            break
        except DegeneratePosition as ex:
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
        model, f_vec, hs, selected_points=[points[i] for i in selected],
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
    report.sos = {"status": "Infeasible"}
    _attach_functional(model, report)
    return report
