"""Lattice polytopes and their positivity-relevant invariants: Ehrhart
h*-polynomials, k-normality, polytope degree, sparse AM-GM witnesses,
difference-sublattice density, and classification of the minimal cases.

Conventions: a lattice point is a tuple of ints; a polytope is given by its
vertex list in an ambient lattice Z^ambient_rank and may sit in a proper
affine sublattice; operations that need full dimension first project to
exact coordinates on the saturated difference lattice of the affine span.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InconsistentModel, NotFullDimensional
from .numerics import (_integer_row, exact_rank, lattice_index, nullspace,
                       saturation_chart, solve_exact)

DENSE = "Dense"
NOT_DENSE = "NotDense"

# chunk bound for numpy box scans, keeps peak memory modest
_SCAN_CHUNK = 1 << 21


def _as_point(p):
    t = tuple(int(c) for c in p)
    return t


class LatticePolytope:
    """Convex hull of integer points. The stored vertex list is reduced to
    the extreme points and sorted, so equal polytopes compare equal."""

    def __init__(self, ambient_rank: int, points):
        if ambient_rank <= 0:
            raise ValueError("ambient rank must be positive")
        pts = []
        for p in points:
            q = _as_point(p)
            if len(q) != ambient_rank:
                raise DimensionMismatch(
                    "point %r does not have length %d" % (p, ambient_rank))
            pts.append(q)
        pts = sorted(set(pts))
        if not pts:
            raise ValueError("need at least one point")
        self.ambient_rank = ambient_rank
        self._base = pts[0]
        diffs = [[c - b for c, b in zip(p, self._base)] for p in pts[1:]]
        self.dim, self._W, W_inv = saturation_chart(diffs, ambient_rank)
        self._sat_basis = W_inv[:self.dim]
        self._facets = [] if self.dim == 0 else None
        self.vertices = self._extreme_points(pts)
        self._point_cache = {}
        self._simplices = None

    # -- exact chart between ambient coords and Z^dim on the affine span --

    def _proj(self, p, k: int = 1):
        """Coordinates of p - k*base on the saturated difference lattice,
        or None if p is not on (the k-dilated) affine lattice span."""
        d = [c - k * b for c, b in zip(p, self._base)]
        full = [sum(d[i] * self._W[i][j] for i in range(self.ambient_rank))
                for j in range(self.ambient_rank)]
        if any(full[j] != 0 for j in range(self.dim, self.ambient_rank)):
            return None
        return tuple(full[:self.dim])

    def _lift(self, x, k: int = 1):
        out = [k * b for b in self._base]
        for i, xi in enumerate(x):
            for j in range(self.ambient_rank):
                out[j] += xi * self._sat_basis[i][j]
        return tuple(out)

    @property
    def proj_vertices(self):
        return [self._proj(v) for v in self.vertices]

    def _extreme_points(self, pts):
        if self.dim == 0:
            return tuple(pts[:1])
        proj = [self._proj(p) for p in pts]
        self._facets = _supporting_hyperplanes(proj, self.dim)
        active = [{k for k, (a, b) in enumerate(self._facets) if _dot(a, x) == b}
                  for x in proj]
        # p is a vertex iff no other point lies on every facet through p
        return tuple(p for p, z in zip(pts, active)
                     if sum(z <= y for y in active) == 1)

    def facets(self):
        """The facets as primitive integer inequalities a.x <= b in chart
        coordinates, sorted; exactly one per facet."""
        if self._facets is None:
            self._facets = _supporting_hyperplanes(self.proj_vertices, self.dim)
        return self._facets

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.ambient_rank == other.ambient_rank
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_rank, self.vertices))

    def __repr__(self):
        return "LatticePolytope(rank=%d, dim=%d, %d vertices)" % (
            self.ambient_rank, self.dim, len(self.vertices))

    def to_json(self) -> dict:
        return {"ambient_rank": self.ambient_rank,
                "vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, obj) -> "LatticePolytope":
        if not isinstance(obj, dict) or "ambient_rank" not in obj or "vertices" not in obj:
            raise ValueError("polytope JSON needs ambient_rank and vertices")
        rank, verts = obj["ambient_rank"], obj["vertices"]
        # JSON integers only: no floats (1.5, 2.0, 1e300) and no booleans
        if type(rank) is not int or not isinstance(verts, list) or not all(
                isinstance(v, list) and all(type(c) is int for c in v)
                for v in verts):
            raise ValueError("ambient_rank and vertex coordinates must be "
                             "JSON integers")
        return cls(rank, verts)


def _supporting_hyperplanes(proj_points, m):
    """The facets of the hull of points that affinely span R^m, as sorted
    primitive integer (normal, rhs) pairs with a.x <= b.

    Exact double description (Motzkin et al. 1953; Fukuda & Prodon 1996):
    start from the facets of a simplex on m+1 of the points, then add one
    point p at a time. Each facet keeps the bitmask of the points added so
    far that lie on it. Facets with p strictly outside are dropped, and each
    adjacent pair (outside, inside) is combined into a facet through p;
    adjacency is the combinatorial test: the two incidence sets share at
    least m-1 points and no third facet contains their intersection."""
    pts = list(proj_points)
    base = pts[0]
    chosen, diffs = [0], []
    for i in range(1, len(pts)):
        d = [c - b for c, b in zip(pts[i], base)]
        if exact_rank(diffs + [d]) > len(diffs):
            chosen.append(i)
            diffs.append(d)
            if len(diffs) == m:
                break
    facets = []  # (normal, rhs, incidence bitmask)
    for k in chosen:
        on = [pts[i] for i in chosen if i != k]
        ker = nullspace([[c - b for c, b in zip(p, on[0])] for p in on[1:]], m)
        a = _integer_row(ker[0])
        b = _dot(a, on[0])
        if _dot(a, pts[k]) > b:
            a, b = [-e for e in a], -b
        facets.append((a, b, sum(1 << i for i in chosen if i != k)))
    taken = set(chosen)
    for i, p in enumerate(pts):
        if i in taken:
            continue
        s = [_dot(a, p) - b for a, b, _ in facets]
        out = [k for k, sk in enumerate(s) if sk > 0]
        inside = [k for k, sk in enumerate(s) if sk < 0]
        new = []
        for ko in out:
            ao, _, zo = facets[ko]
            for ki in inside:
                ai, _, zi = facets[ki]
                z = zo & zi
                if z.bit_count() < m - 1 or any(
                        zk & z == z for k, (_, _, zk) in enumerate(facets)
                        if k != ko and k != ki):
                    continue
                a = [s[ko] * x - s[ki] * y for x, y in zip(ai, ao)]
                g = math.gcd(*a)
                new.append(([e // g for e in a], _dot(a, p) // g, z | 1 << i))
        facets = [(a, b, z | 1 << i if sk == 0 else z)
                  for (a, b, z), sk in zip(facets, s) if sk <= 0] + new
    return sorted((tuple(a), b) for a, b, _ in facets)


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _box_candidates(lo, hi):
    """Integer grid of the box [lo, hi] in lexicographic order, yielded as
    int64 arrays in chunks of about _SCAN_CHUNK points along the first
    axis."""
    ranges = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    first, rest = ranges[0], ranges[1:]
    per_slice = math.prod(len(r) for r in rest)
    step = max(1, _SCAN_CHUNK // max(1, per_slice))
    for s in range(0, len(first), step):
        yield np.stack(np.meshgrid(first[s:s + step], *rest, indexing="ij"),
                       axis=-1).reshape(-1, len(ranges))


def _scan_box(Q: LatticePolytope, k: int):
    """(lo, hi) int64 corners of the chart box of kQ. ValueError unless
    |coordinate| * k * (largest l1 norm of a facet normal) <= 2^62, which
    keeps every facet value on the box inside int64."""
    proj = Q.proj_vertices
    coord = max(abs(c) for v in proj for c in v)
    if coord * k * max(sum(map(abs, a)) for a, _ in Q.facets()) > 2 ** 62:
        raise ValueError("dilate %d of the polytope exceeds the int64 lattice "
                         "scan limit 2^62" % k)
    verts = np.array(proj, dtype=np.int64) * k
    return verts.min(axis=0), verts.max(axis=0)


def _scan_dilate(Q: LatticePolytope, k: int):
    """Chart coordinates of the lattice points of kQ."""
    lo, hi = _scan_box(Q, k)
    planes = Q.facets()
    A = np.array([a for a, _ in planes], dtype=np.int64)
    b = np.array([bb for _, bb in planes], dtype=np.int64) * k
    found = []
    for grid in _box_candidates(lo, hi):
        vals = grid @ A.T
        keep = grid[(vals <= b).all(axis=1)]
        if len(keep):
            found.append(keep)
    if not found:
        return []
    allpts = np.concatenate(found, axis=0)
    return [tuple(int(c) for c in row) for row in allpts]


def lattice_points(Q: LatticePolytope, k: int):
    """The set (kQ) ∩ M in ambient coordinates; k = 0 gives {origin}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cached = Q._point_cache.get(k)
    if cached is not None:
        return set(cached)
    if k == 0:
        result = {(0,) * Q.ambient_rank}
    elif Q.dim == 0:
        result = {tuple(k * c for c in Q.vertices[0])}
    else:
        result = {Q._lift(x, k) for x in _scan_dilate(Q, k)}
    Q._point_cache[k] = frozenset(result)
    return result


@dataclass(frozen=True)
class HStar:
    """Coefficient vector h*_0 .. h*_m of the Ehrhart series numerator."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("h*_0 must be 1")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("h* coefficients must be nonnegative")

    @property
    def degree(self) -> int:
        d = 0
        for j, c in enumerate(self.coefficients):
            if c != 0:
                d = j
        return d

    @property
    def h2(self) -> int:
        return self.coefficients[2] if len(self.coefficients) > 2 else 0

    def sum(self) -> int:
        return sum(self.coefficients)

    def to_json(self):
        return {"coefficients": list(self.coefficients)}


def h_star(Q: LatticePolytope) -> HStar:
    """h*_j = sum_{i<=j} (-1)^i C(m+1, i) L(j-i), with L(k) = |(kQ) ∩ M|.

    Lower-dimensional input is projected to exact full-dimensional
    coordinates on its affine lattice span first (the chart does this)."""
    m = Q.dim
    L = [len(lattice_points(Q, k)) for k in range(m + 1)]
    coeffs = []
    for j in range(m + 1):
        v = sum((-1) ** i * math.comb(m + 1, i) * L[j - i] for i in range(j + 1))
        coeffs.append(v)
    if coeffs[0] != 1 or any(c < 0 for c in coeffs):
        raise NotFullDimensional("Ehrhart counts are inconsistent; chart failed")
    return HStar(tuple(coeffs))


def polytope_degree(Q: LatticePolytope) -> int:
    """Degree of h*: by Ehrhart reciprocity the smallest j >= 0 such that
    kQ has no interior lattice point for all 1 <= k <= m - j."""
    return h_star(Q).degree


def is_k_normal(Q: LatticePolytope, k: int):
    """True iff every point of (kQ) ∩ M is a sum of k points of Q ∩ M.
    On failure also returns the lex-smallest unreachable point."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pts1 = sorted(lattice_points(Q, 1))
    target = lattice_points(Q, k)
    reach = _iterated_sumset(pts1, k)
    missing = target - reach
    if not missing:
        return True, None
    return False, min(missing)


def _iterated_sumset(pts1, k):
    """The k-fold sums of the lex-sorted points pts1, as a set of tuples.
    The int64 sums run on the points less the least one, pts1[0], which k
    times over is added back in Python ints; ValueError unless k times
    every coordinate difference stays inside int64."""
    least = pts1[0]
    base = _int64_translate(pts1, least, k)
    acc = base
    for _ in range(k - 1):
        if len(acc) * len(base) <= 4_000_000:
            sums = (acc[:, None, :] + base[None, :, :]).reshape(-1, base.shape[1])
            acc = np.unique(sums, axis=0)
        else:
            blocks = []
            step = max(1, 4_000_000 // len(base))
            for s in range(0, len(acc), step):
                part = (acc[s:s + step, None, :] + base[None, :, :]).reshape(-1, base.shape[1])
                blocks.append(np.unique(part, axis=0))
            acc = np.unique(np.concatenate(blocks, axis=0), axis=0)
    shift = [k * c for c in least]
    return {tuple(c + o for c, o in zip(row, shift)) for row in acc.tolist()}


def _int64_translate(pts, least, k):
    """The int64 array of pts - least. ValueError unless k * |coordinate|
    < 2^63 for every difference, so that sums of k rows stay in int64."""
    diffs = [[c - o for c, o in zip(p, least)] for p in pts]
    if k * max((abs(c) for d in diffs for c in d), default=0) >= 2 ** 63:
        raise ValueError("sums of %d lattice points exceed the int64 range"
                         % k)
    return np.array(diffs, dtype=np.int64)


@dataclass
class SparsePolynomial:
    """Laurent polynomial as exponent -> coefficient, no zero coefficients."""

    terms: dict

    def __post_init__(self):
        clean = {}
        for e, c in self.terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c != 0:
                clean[_as_point(e)] = c
        self.terms = clean

    def newton_polytope(self) -> LatticePolytope:
        pts = list(self.terms)
        return LatticePolytope(len(pts[0]), pts)

    def to_json(self):
        items = sorted(self.terms.items())
        return {"terms": [{"exp": list(e),
                           "num": str(c.numerator),
                           "den": str(c.denominator)} for e, c in items]}

    @classmethod
    def from_json(cls, obj) -> "SparsePolynomial":
        terms = {}
        for t in obj["terms"]:
            e = tuple(int(c) for c in t["exp"])
            terms[e] = Fraction(int(t["num"]), int(t["den"]))
        return cls(terms)

    def evaluate(self, z) -> Fraction:
        """Exact evaluation at a rational torus point (all coords nonzero)."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(1)
            for zi, ei in zip(z, e):
                v *= Fraction(zi) ** ei
            total += c * v
        return total


def amgm_witness(Q: LatticePolytope):
    """For a non-2-normal Q: f = sum r_i z^(2 v_i) - (sum r_i) z^u with u the
    lex-smallest point of (2Q) ∩ M that is not a sum of two points of Q ∩ M,
    and r the cleared denominators of the sparsest exact convex combination
    u = sum c_i (2 v_i). Nonnegative on the real torus by weighted AM-GM.
    Returns None when Q is 2-normal."""
    ok, u = is_k_normal(Q, 2)
    if ok:
        return None
    doubled = [tuple(2 * c for c in v) for v in Q.vertices]
    n = Q.ambient_rank
    m = Q.dim
    combo = None
    for size in range(1, m + 2):
        for subset in itertools.combinations(range(len(doubled)), size):
            cols = [doubled[i] for i in subset]
            rows = [[Fraction(cols[j][i]) for j in range(size)] for i in range(n)]
            rows.append([Fraction(1)] * size)
            if exact_rank(rows) != size:
                continue  # affinely dependent; a smaller support exists
            rhs = [Fraction(c) for c in u] + [Fraction(1)]
            sol = solve_exact(rows, rhs)
            if sol is None or any(c < 0 for c in sol):
                continue
            combo = (subset, sol)
            break
        if combo:
            break
    if combo is None:
        raise ValueError("no convex combination found; u outside 2Q?")
    subset, sol = combo
    lcm = math.lcm(*(c.denominator for c in sol))
    r = [int(c * lcm) for c in sol]
    terms = {}
    for i, ri in zip(subset, r):
        if ri:
            terms[doubled[i]] = terms.get(doubled[i], Fraction(0)) + ri
    terms[u] = -Fraction(sum(r))
    return SparsePolynomial(terms)


def sublattice_index(Q: LatticePolytope) -> int:
    """Index of the lattice generated by {u - u0 : u in Q ∩ M} in the lattice
    of the affine span of Q. Equals |det| of the difference lattice."""
    pts = sorted(lattice_points(Q, 1))
    proj = [Q._proj(p) for p in pts]
    base = proj[0]
    diffs = [[c - b for c, b in zip(p, base)] for p in proj[1:]]
    if Q.dim == 0:
        return 1
    return lattice_index(diffs)


def real_density(Q: LatticePolytope) -> str:
    """Dense iff the sublattice index is odd (parity criterion)."""
    return DENSE if sublattice_index(Q) % 2 == 1 else NOT_DENSE


# ---------------------------------------------------------------------------
# Independent oracle routes: the --oracle checks, and normalized_volume for
# VarietyModel.degree. The primary lattice_points path never calls these.


def triangulate(Q: LatticePolytope):
    """Exact triangulation into lattice simplices (vertex tuples in the
    ambient coordinates); cones each facet avoiding the least vertex."""
    if Q._simplices is None:
        Q._simplices = [tuple(s) for s in _triangulate_rec(Q)]
    return Q._simplices


def _triangulate_rec(Q: LatticePolytope):
    if Q.dim == 0:
        return [[Q.vertices[0]]]
    if len(Q.vertices) == Q.dim + 1:
        return [list(Q.vertices)]
    v0 = Q.vertices[0]
    x0 = Q._proj(v0)
    out = []
    for a, b in Q.facets():
        if sum(ai * xi for ai, xi in zip(a, x0)) == b:
            continue
        face_pts = [v for v in Q.vertices
                    if sum(ai * xi for ai, xi in zip(a, Q._proj(v))) == b]
        if len(face_pts) < Q.dim:
            continue  # supporting hyperplane of a lower-dimensional face
        F = LatticePolytope(Q.ambient_rank, face_pts)
        if F.dim != Q.dim - 1:
            continue
        for simplex in _triangulate_rec(F):
            out.append([v0] + list(simplex))
    return out


def normalized_volume(Q: LatticePolytope) -> int:
    """m! * vol(Q) w.r.t. the lattice of the affine span, via triangulation.
    Independent of the Ehrhart counting route."""
    if Q.dim == 0:
        return 1
    total = 0
    for simplex in triangulate(Q):
        proj = [Q._proj(v) for v in simplex]
        base = proj[0]
        rows = [[c - b for c, b in zip(p, base)] for p in proj[1:]]
        total += lattice_index(rows)
    return total


def contains_point_oracle(Q: LatticePolytope, p, k: int = 1) -> bool:
    """Membership of p in kQ decided via the triangulation route: p lies in
    some k-dilated simplex (exact barycentric coordinates)."""
    x = Q._proj(p, k)
    if x is None:
        return False
    for simplex in triangulate(Q):
        proj = [Q._proj(v) for v in simplex]
        rows = [[Fraction(k * proj[j][i]) for j in range(len(proj))]
                for i in range(Q.dim)]
        rows.append([Fraction(1)] * len(proj))
        rhs = [Fraction(c) for c in x] + [Fraction(1)]
        # simplices are affinely independent, so sol is never None
        sol = solve_exact(rows, rhs)
        if all(c >= 0 for c in sol):
            return True
    return False


def lattice_point_count_oracle(Q: LatticePolytope, k: int) -> int:
    """Brute-force count of (kQ) ∩ M via the membership oracle."""
    if k == 0:
        return 1
    if Q.dim == 0:
        return 1
    lo, hi = _scan_box(Q, k)
    count = 0
    for grid in _box_candidates(lo, hi):
        for row in grid:
            p = Q._lift(tuple(int(c) for c in row), k)
            if contains_point_oracle(Q, p, k):
                count += 1
    return count


def k_normal_oracle(Q: LatticePolytope, k: int):
    """Brute-force k-normality via combinations-with-replacement sums."""
    pts1 = sorted(lattice_points(Q, 1))
    sums = set()
    for combo in itertools.combinations_with_replacement(pts1, k):
        sums.add(tuple(sum(c) for c in zip(*combo)))
    target = lattice_points(Q, k)
    missing = target - sums
    if not missing:
        return True, None
    return False, min(missing)


# ---------------------------------------------------------------------------
# Classification.

PYRAMID = "PyramidOverTwiceSimplex"
CAYLEY = "CayleySegments"
IMAGE_OF_MODEL = "ImageOfModel"
NOT_MINIMAL = "NotMinimal"


@dataclass
class ClassificationReport:
    h2_zero: bool
    two_normal: bool
    polytope_degree: int
    degree_one: bool
    family: str
    model_map: dict | None
    density: str
    pos_equals_sos: str
    density_criterion: str = "index parity"

    def to_json(self):
        return {
            "h2_zero": self.h2_zero,
            "two_normal": self.two_normal,
            "polytope_degree": self.polytope_degree,
            "degree_one": self.degree_one,
            "family": self.family,
            "model_map": self.model_map,
            "density": self.density,
            "density_criterion": self.density_criterion,
            "pos_equals_sos": self.pos_equals_sos,
        }


def pyramid_over_twice_simplex(m: int) -> LatticePolytope:
    """(m-2)-fold pyramid over conv{(0,0),(2,0),(0,2)}, in Z^m."""
    if m < 2:
        raise ValueError("m must be at least 2")
    verts = [(0,) * m,
             (2,) + (0,) * (m - 1),
             (0, 2) + (0,) * (m - 2)]
    for i in range(2, m):
        e = [0] * m
        e[i] = 1
        verts.append(tuple(e))
    return LatticePolytope(m, verts)


def cayley_polytope_of_segments(degrees) -> LatticePolytope:
    """Cayley polytope of the segments [0, d_i] over the vertices of a
    unimodular (m-1)-simplex, in Z^m (last coordinate is the segment)."""
    d = [int(x) for x in degrees]
    m = len(d)
    if m < 1 or any(x < 0 for x in d) or max(d) < 1:
        raise ValueError("need m >= 1 segment degrees with at least one positive")
    verts = []
    for i in range(m):
        base = [0] * (m - 1)
        if i >= 1:
            base[i - 1] = 1
        verts.append(tuple(base) + (0,))
        verts.append(tuple(base) + (d[i],))
    return LatticePolytope(m, verts)


def classify(Q: LatticePolytope) -> ClassificationReport:
    """Full report: h*_2, 2-normality, degree, family, density, and the
    equality-vs-strict-containment verdict.

    Every polytope of dimension >= 1 and degree <= 1 is named, in every
    dimension: by Batyrev & Nill ("Multiples of lattice polytopes without
    interior lattice points", Mosc. Math. J. 2007) it is a Cayley polytope
    of segments (a Lawrence prism) or the pyramid over twice the unimodular
    triangle, and model_map is an exactly verified map from that family
    member onto Q. A polytope with symmetries has several such maps; the
    one returned is deterministic but not unique."""
    hs = h_star(Q)
    h2_zero = hs.h2 == 0
    two_normal = is_k_normal(Q, 2)[0]
    pdeg = hs.degree
    density = real_density(Q)
    family = NOT_MINIMAL
    model_map = None
    if Q.dim >= 1 and pdeg <= 1:
        model_map = _recognize_family(Q)
        family = model_map["family"]
    elif h2_zero and two_normal:
        family = IMAGE_OF_MODEL
    pos = "Equal" if (h2_zero and density == DENSE) else "NotEqual"
    return ClassificationReport(
        h2_zero=h2_zero,
        two_normal=two_normal,
        polytope_degree=pdeg,
        degree_one=pdeg <= 1,
        family=family,
        model_map=model_map,
        density=density,
        pos_equals_sos=pos,
    )


def _recognize_family(Q: LatticePolytope) -> dict:
    """The model_map of a polytope of dimension >= 1 and degree <= 1: the
    first candidate map of the prism test, then of the exceptional-simplex
    test, that passes the exact check."""
    for segments, cols, t in itertools.chain(_prism_maps(Q),
                                             _exceptional_maps(Q)):
        mp = _verified_map(Q, segments, cols, t)
        if mp is not None:
            return mp
    raise InconsistentModel(
        "degree <= 1 but neither a Cayley polytope of segments nor a "
        "pyramid over twice a triangle: %r" % (Q.vertices,))


def _prism_maps(Q: LatticePolytope):
    """Candidate maps from cayley_polytope_of_segments(segments) into Q's
    chart, as (segments, images of the unit vectors, image of 0). For each primitive direction u between two vertices, the
    projection along u (the last dim - 1 coordinates of the chart
    saturation_chart([u], m)) must send the vertices onto exactly m points.
    Each fiber is then a point or a segment along u; sorted by length, the
    lengths are the segments and the lower ends the images of the base
    simplex. The exact check asks that these ends, with u, span the lattice."""
    m = Q.dim
    verts = Q.proj_vertices
    seen = set()
    for p, q in itertools.combinations(verts, 2):
        d = [b - a for a, b in zip(p, q)]
        g = math.gcd(*d)
        u = tuple(x // g for x in d)  # first nonzero entry > 0: p < q
        if u in seen:
            continue
        seen.add(u)
        _, W, W_inv = saturation_chart([u], m)
        fibers = {}
        for v in verts:
            c = [_dot(v, col) for col in zip(*W)]
            fibers.setdefault(tuple(c[1:]), []).append((c[0], v))
        if len(fibers) != m:
            continue
        ends = sorted((max(f)[0] - min(f)[0], min(f)[1])
                      for f in fibers.values())
        p0 = ends[0][1]
        cols = [[a - b for a, b in zip(p, p0)] for _, p in ends[1:]]
        cols.append(W_inv[0])
        yield [h for h, _ in ends], cols, p0


def _exceptional_maps(Q: LatticePolytope):
    """Candidate maps from pyramid_over_twice_simplex(m) into Q's chart: a
    simplex with a triangle (a, b, c) whose three edges have lattice length
    2 sends 2e_1 and 2e_2 to b and c, and e_i to the other vertices."""
    m = Q.dim
    verts = Q.proj_vertices
    if m < 2 or len(verts) != m + 1:
        return
    for tri in itertools.combinations(range(m + 1), 3):
        a, b, c = (verts[i] for i in tri)
        edges = [[y - x for x, y in zip(s, e)]
                 for s, e in itertools.combinations((a, b, c), 2)]
        if all(math.gcd(*e) == 2 for e in edges):
            yield None, [[x // 2 for x in e] for e in edges[:2]] + [
                [y - x for x, y in zip(a, v)]
                for i, v in enumerate(verts) if i not in tri], a


def _verified_map(Q: LatticePolytope, segments, cols, t):
    """The model_map of x -> A x + t, A with columns cols, from the Cayley
    polytope of the given segments (the pyramid over twice a triangle when
    segments is None) into Q's chart, or None unless A is unimodular and the
    map sends the family polytope's vertices and lattice points exactly onto
    Q's. The map is returned in ambient coordinates: `matrix` (ambient_rank
    x dim) and `translation`."""
    try:
        if lattice_index(cols) != 1:
            return None
    except ValueError:  # singular A
        return None
    if segments is None:
        target = pyramid_over_twice_simplex(Q.dim)
        mp = {"family": PYRAMID}
    else:
        target = cayley_polytope_of_segments(segments)
        mp = {"family": CAYLEY, "segments": segments}
    # chart to ambient: q = base_Q + x B with x = A p + t
    B = list(zip(*Q._sat_basis))
    mp["matrix"] = [[_dot(row, c) for c in cols] for row in B]
    mp["translation"] = [b + _dot(row, t) for b, row in zip(Q._base, B)]

    def apply(p):
        return tuple(_dot(row, p) + s
                     for row, s in zip(mp["matrix"], mp["translation"]))

    if sorted(map(apply, target.vertices)) != list(Q.vertices) \
            or sorted(map(apply, lattice_points(target, 1))) \
            != sorted(lattice_points(Q, 1)):
        return None
    return mp


# ---------------------------------------------------------------------------
# Named polytopes used throughout.


def simplex(m: int, scale: int = 1) -> LatticePolytope:
    verts = [(0,) * m]
    for i in range(m):
        e = [0] * m
        e[i] = scale
        verts.append(tuple(e))
    return LatticePolytope(m, verts)


def reeve_simplex(q: int) -> LatticePolytope:
    return LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)])


def higashitani_simplex(m: int, k: int) -> LatticePolytope:
    """Simplex conv{0, e_1, .., e_{m-1}, w} with
    w = e_1 + .. + e_{(m-1)/2} + k (e_{(m+1)/2} + .. + e_{m-1}) + (k+1) e_m;
    m odd. Exactly m+1 lattice points; h* = 1 + k t^{(m+1)/2}."""
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be odd and at least 3")
    if k < 1:
        raise ValueError("k must be positive")
    verts = [(0,) * m]
    for i in range(m - 1):
        e = [0] * m
        e[i] = 1
        verts.append(tuple(e))
    half = (m - 1) // 2
    w = [1] * half + [k] * half + [k + 1]
    verts.append(tuple(w))
    return LatticePolytope(m, verts)


def product_polytope(P: LatticePolytope, R: LatticePolytope) -> LatticePolytope:
    return LatticePolytope(P.ambient_rank + R.ambient_rank,
                           [p + r for p in P.vertices for r in R.vertices])
