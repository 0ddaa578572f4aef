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

from .errors import DimensionMismatch, InconsistentModel
from .numerics import (_echelon, _frac_from_json, _frac_json, _kernel_vector,
                       _primitive, lattice_index, nullspace, saturation_chart)

DENSE = "Dense"
NOT_DENSE = "NotDense"

# points (prefix rows in the row scan) per block of the numpy scans and
# sumsets, which keeps peak memory modest
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
        self.vertices = self._extreme_points(pts)
        self._rows = {}
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

    def _lift(self, rows, k: int = 1):
        """Ambient tuples k*base + x B of the int64 chart rows x, B the basis
        of the saturated difference lattice, by one matrix product: in int64
        when no coordinate can reach 2^63, else exactly over Python ints."""
        shift = [k * b for b in self._base]
        big = int(np.abs(rows).max(initial=0))
        reach = max(abs(s) + big * sum(abs(r[j]) for r in self._sat_basis)
                    for j, s in enumerate(shift))
        dtype = np.int64 if reach < 2 ** 63 else object
        B = np.array(self._sat_basis, dtype=dtype).reshape(
            self.dim, self.ambient_rank)
        out = rows.astype(dtype) @ B + np.array(shift, dtype=dtype)
        return list(map(tuple, out.tolist()))

    def _extreme_points(self, pts):
        """The vertices of the sorted pts; sets _facets and proj_vertices."""
        if self.dim == 0:
            self._facets, self.proj_vertices = [], [()]
            return tuple(pts[:1])
        proj = [self._proj(p) for p in pts]
        hull = _supporting_hyperplanes(proj, self.dim)
        self._facets = [(a, b) for a, b, _ in hull]
        # p is a vertex iff no other point lies on every facet through p:
        # the AND of the incidences of those facets is p's own bit
        meet = [(1 << len(pts)) - 1] * len(pts)
        for _, _, z in hull:
            for i in range(len(pts)):
                if z >> i & 1:
                    meet[i] &= z
        keep = [i for i, z in enumerate(meet) if z == 1 << i]
        self.proj_vertices = [proj[i] for i in keep]
        return tuple(pts[i] for i in keep)

    def facets(self):
        """The facets as primitive integer inequalities a.x <= b in chart
        coordinates, sorted; exactly one per facet."""
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
    triples (normal, rhs, incidence): primitive integer a.x <= b, and the
    bitmask of the input points on the facet.

    Exact double description (Motzkin et al. 1953; Fukuda & Prodon 1996):
    start from the facets of a simplex on m+1 of the points, then add one
    point p at a time. Each facet keeps the bitmask of the points added so
    far that lie on it. Facets with p strictly outside are dropped, and each
    adjacent pair (outside, inside) is combined into a facet through p;
    adjacency is the combinatorial test: the two incidence sets share at
    least m-1 points and no third facet contains their intersection.

    The masks end exact for every input point: each added point sets its
    bit on every kept facet through it, and a new facet's inequality is a
    positive combination of its two parents', so its hyperplane meets the
    old hull exactly in their ridge: its mask zo & zi | 1 << i is exact."""
    pts = list(proj_points)
    base = pts[0]
    # pivot columns: the first points affinely independent of those before
    _, pivots = _echelon([[p[j] - base[j] for p in pts[1:]] for j in range(m)])
    chosen = [0] + [c + 1 for c in pivots]
    # E^-1, E the rows w_k - w_0 for the simplex's vertices w: the nullspace
    # of [E | -I] holds s_t (E^-1 e_t, e_t), s_t > 0, and E^-1 e_t is normal
    # to the facet opposite w_(t+1); minus their sum, over the common scale
    # lcm(s_t), is normal to the one opposite w_0
    ker = nullspace([
        [c - b for c, b in zip(pts[k], base)] + [-int(r == t) for t in range(m)]
        for r, k in enumerate(chosen[1:])])
    scale = math.lcm(*(v[m + t] for t, v in enumerate(ker)))
    normals = [[-sum(scale // v[m + t] * v[j] for t, v in enumerate(ker))
                for j in range(m)]] + [v[:m] for v in ker]
    facets = []  # (normal, rhs, incidence bitmask)
    for k, normal in zip(chosen, normals):
        on = chosen[1] if k == 0 else 0
        a = _primitive(normal)
        b = _dot(a, pts[on])
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
    return sorted((tuple(a), b, z) for a, b, z in facets)


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _box_candidates(lo, hi):
    """Integer grid of the box [lo, hi] in lexicographic order, yielded as
    int64 arrays in chunks of about _SCAN_CHUNK points along the first
    axis."""
    shape = [int(h - l) + 1 for l, h in zip(lo, hi)]
    step = max(1, _SCAN_CHUNK // math.prod(shape[1:]))
    for s in range(0, shape[0], step):
        grid = np.indices([min(step, shape[0] - s)] + shape[1:],
                          dtype=np.int64).reshape(len(shape), -1).T + lo
        grid[:, 0] += s
        yield grid


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


def _scan_rows(Q: LatticePolytope, k: int):
    """The lattice points of kQ, k >= 1 and dim Q >= 1, row by row: blocks
    (prefix, lo, width) over the chart box of the first dim - 1 coordinates
    in lexicographic order; row i holds prefix[i] + (t,) for
    lo[i] <= t < lo[i] + width[i].

    A facet a.x <= k b bounds t above (a_m > 0) or -t (a_m < 0) by the
    floor of (k b - a'.x') / |a_m|; one with a_m = 0 only tests the prefix.
    This stays in int64: with C = coordinate * k and l = |a|_1 <= 2^62 / C
    (the box check), |k b| <= l C and |a'.x'| <= (l - |a_m|) C, and the
    bounds are clipped next to the box, of span <= 2^62, before they meet."""
    lo, hi = _scan_box(Q, k)
    # the facets with a_m > 0, then a_m = 0, then a_m < 0
    planes = sorted(Q.facets(), key=lambda p: -np.sign(p[0][-1]))
    last = np.array([a[-1] for a, _ in planes], dtype=np.int64)
    up, down = np.count_nonzero(last > 0), np.count_nonzero(last >= 0)
    A = np.array([a[:-1] for a, _ in planes], dtype=np.int64).T
    kb = np.array([b for _, b in planes], dtype=np.int64) * k
    prefixes = (_box_candidates(lo[:-1], hi[:-1]) if Q.dim > 1
                else [np.zeros((1, 0), dtype=np.int64)])
    for prefix in prefixes:
        vals = prefix @ A
        top = ((kb[:up] - vals[:, :up]) // last[:up]).min(axis=1)
        top = np.clip(top, lo[-1] - 1, hi[-1])
        bottom = -((kb[down:] - vals[:, down:]) // -last[down:]).min(axis=1)
        bottom = np.clip(bottom, lo[-1], hi[-1] + 1)
        width = np.maximum(top - bottom + 1, 0)
        width *= (vals[:, up:down] <= kb[up:down]).all(axis=1)
        yield prefix, bottom, width


def _chart_rows(Q: LatticePolytope, k: int):
    """The chart coordinates of (kQ) ∩ M, read-only int64 rows in
    lexicographic order, listed once per k from the row scan."""
    rows = Q._rows.get(k)
    if rows is None:
        rows = np.zeros((1, Q.dim), dtype=np.int64)
        if k and Q.dim:
            # the j-th point of a row (from 0) has last coordinate lo + j
            rows = np.concatenate([np.column_stack((
                np.repeat(prefix, width, axis=0),
                np.repeat(lo + width - np.cumsum(width), width)
                + np.arange(width.sum()))) for prefix, lo, width in
                _scan_rows(Q, k)])
        rows.flags.writeable = False
        Q._rows[k] = rows
    return rows


def _lattice_point_count(Q: LatticePolytope, k: int) -> int:
    """|(kQ) ∩ M|, k >= 1 and dim Q >= 1: the sum of the row widths, in
    Python ints, without listing a point."""
    return sum(sum(width[width > 0].tolist()) for _, _, width in
               _scan_rows(Q, k))


def lattice_points(Q: LatticePolytope, k: int):
    """The set (kQ) ∩ M in ambient coordinates; k = 0 gives {origin}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return set(Q._lift(_chart_rows(Q, k), k))


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

    def to_json(self):
        return {"coefficients": list(self.coefficients)}


def h_star(Q: LatticePolytope) -> HStar:
    """h*_j = sum_{i<=j} (-1)^i C(m+1, i) L(j-i), with L(k) = |(kQ) ∩ M|.

    Lower-dimensional input is projected to exact full-dimensional
    coordinates on its affine lattice span first (the chart does this)."""
    return HStar(tuple(_hstar_from_counts(
        [1] + [_lattice_point_count(Q, k) for k in range(1, Q.dim + 1)])))


def _hstar_from_counts(L):
    """h*_0 .. h*_m from the lattice point counts L(0) .. L(m) of the
    dilates of an m-dimensional polytope."""
    m = len(L) - 1
    return [sum((-1) ** i * math.comb(m + 1, i) * L[j - i]
                for i in range(j + 1)) for j in range(m + 1)]


def polytope_degree(Q: LatticePolytope) -> int:
    """Degree of h*: by Ehrhart reciprocity the smallest j >= 0 such that
    kQ has no interior lattice point for all 1 <= k <= m - j."""
    return h_star(Q).degree


def is_k_normal(Q: LatticePolytope, k: int):
    """True iff every point of (kQ) ∩ M is a sum of k points of Q ∩ M.
    On failure also returns the lex-smallest unreachable point. The sums of
    Q's chart rows lie in kQ, so equal counts mean k-normal; the chart's
    lex order is not the ambient one, so every missing row is lifted."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rows = _chart_rows(Q, 1)
    target = _chart_rows(Q, k)
    reach = _iterated_sumset(rows, k)
    if len(reach) == len(target):
        return True, None
    # reach is inside target: a row met once is missing
    merged, inverse = _lex_unique(np.concatenate([reach, target]))
    return False, min(Q._lift(merged[np.bincount(inverse) == 1], k))


def _iterated_sumset(rows, k):
    """The distinct k-fold sums of Q's int64 chart rows, lex-sorted. Call
    it after _chart_rows(Q, k): a point of Q has |x_j| <= coord, the largest
    |vertex coordinate| in the chart, so a sum of j <= k rows has |entry|
    <= k * coord <= 2^62, as the scan check of kQ asks k * coord * l <= 2^62
    for the l1 norm l >= 1 of a facet normal."""
    acc = rows
    # blocks of rows of acc whose sums with rows number about _SCAN_CHUNK;
    # each shape is given in full, as the rows of a point have width 0
    step = max(1, _SCAN_CHUNK // len(rows))
    for _ in range(k - 1):
        blocks = [_lex_unique((block[:, None, :] + rows).reshape(
                      len(block) * len(rows), rows.shape[1]))[0]
                  for block in np.split(acc, range(step, len(acc), step))]
        acc = _lex_unique(np.concatenate(blocks, axis=0))[0]
    return acc


def _lex_unique(rows):
    """np.unique(rows, axis=0, return_inverse=True) of a 2-d int64 array by
    one lexsort: the distinct rows in lexicographic order, and the index
    of each row's distinct row."""
    # rows of length 0 (a point, P^0) have no key to sort by: all are equal
    order = (np.lexsort(rows.T[::-1]) if rows.shape[1]
             else np.arange(len(rows)))
    rows = rows[order]
    # drop each sorted row equal to its predecessor
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(keep) - 1
    return rows[keep], inverse


def _int64_translate(pts, least):
    """The int64 array of pts - least. ValueError unless 2 * |coordinate|
    < 2^63 for every difference, so that sums of two rows stay in int64."""
    diffs = [[c - o for c, o in zip(p, least)] for p in pts]
    if 2 * max((abs(c) for d in diffs for c in d), default=0) >= 2 ** 63:
        raise ValueError("sums of 2 lattice points exceed the int64 range")
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

    def to_json(self):
        return {"terms": [{"exp": list(e), **_frac_json(c)}
                          for e, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, obj) -> "SparsePolynomial":
        return cls({tuple(int(c) for c in t["exp"]): _frac_from_json(t)
                    for t in obj["terms"]})


def amgm_witness(Q: LatticePolytope):
    """For a non-2-normal Q: f = sum r_i z^(2 v_i) - (sum r_i) z^u with u the
    lex-smallest point of (2Q) ∩ M that is not a sum of two points of Q ∩ M,
    and r the cleared denominators of an exact convex combination
    u = sum c_i (2 v_i). Nonnegative on the real torus by weighted AM-GM.
    Returns None when Q is 2-normal.

    The combination is the sparsest one, and among those the first subset
    of Q's sorted vertices in lexicographic order: subsets of sizes 2 to
    dim + 1 are tested in turn, each by one integer kernel vector in chart
    coordinates (_convex_weights). The chart is an affine isomorphism, so
    it keeps affine independence and barycentric coordinates."""
    ok, u = is_k_normal(Q, 2)
    if ok:
        return None
    x = Q._proj(u, 2)
    doubled = [tuple(2 * c for c in v) for v in Q.proj_vertices]
    # u is not in Q + Q while every 2v is, so no single vertex holds u
    for size in range(2, Q.dim + 2):
        for subset in itertools.combinations(range(len(doubled)), size):
            r = _convex_weights([doubled[j] for j in subset], x)
            if r is not None:
                terms = {tuple(2 * c for c in Q.vertices[j]): rj
                         for j, rj in zip(subset, r)}
                terms[u] = -sum(r)
                return SparsePolynomial(terms)
    raise ValueError("no convex combination found; u outside 2Q?")


def _convex_weights(points, x):
    """Coprime integers r >= 0 with sum(r) x = sum r_j points[j], or None
    when the points are affinely dependent, x is off their affine span or
    a barycentric coordinate of x is negative. The kernel vector, at its
    last column, of the columns (p_j, 1) and (-x, -1) is the primitive
    (r, sum(r)); the columns (p_j, 1) are pivots exactly when the points
    are affinely independent and x lies on their span."""
    k = len(points)
    mat, pivots = _echelon([[*col, -c] for col, c in zip(zip(*points), x)]
                           + [[1] * k + [-1]])
    if pivots != list(range(k)):
        return None
    r = _kernel_vector(mat, pivots, k, k + 1)[:k]
    return None if min(r) < 0 else r


def sublattice_index(Q: LatticePolytope) -> int:
    """Index of the lattice generated by {u - u0 : u in Q ∩ M} in the lattice
    of the affine span of Q. Equals |det| of the difference lattice."""
    if Q.dim == 0:
        return 1
    # the chart origin is the least vertex, a point of Q ∩ M, so the
    # differences generate the lattice of the chart rows themselves
    return lattice_index(_chart_rows(Q, 1).tolist())


def real_density(Q: LatticePolytope) -> str:
    """Dense iff the sublattice index is odd (parity criterion)."""
    return DENSE if sublattice_index(Q) % 2 == 1 else NOT_DENSE


# ---------------------------------------------------------------------------
# Independent oracle routes for the --oracle checks. The primary
# lattice_points path never calls these.


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
    v0, x0 = Q.vertices[0], Q.proj_vertices[0]
    out = []
    for a, b in Q.facets():
        if _dot(a, x0) == b:
            continue
        face_pts = [v for v, x in zip(Q.vertices, Q.proj_vertices)
                    if _dot(a, x) == b]
        if len(face_pts) < Q.dim:
            continue  # supporting hyperplane of a lower-dimensional face
        F = LatticePolytope(Q.ambient_rank, face_pts)
        if F.dim != Q.dim - 1:
            continue
        for simplex in _triangulate_rec(F):
            out.append([v0] + list(simplex))
    return out


def contains_point_oracle(Q: LatticePolytope, p, k: int = 1) -> bool:
    """Membership of p in kQ, k >= 1, decided via the triangulation route:
    p lies in some k-dilated simplex (_convex_weights)."""
    x = Q._proj(p, k)
    if x is None:
        return False
    for simplex in triangulate(Q):
        cell = [[k * c for c in Q._proj(v)] for v in simplex]
        if _convex_weights(cell, x) is not None:
            return True
    return False


def lattice_point_count_oracle(Q: LatticePolytope, k: int) -> int:
    """Brute-force count of (kQ) ∩ M via the membership oracle."""
    if k == 0 or Q.dim == 0:
        return 1
    lo, hi = _scan_box(Q, k)
    count = 0
    for grid in _box_candidates(lo, hi):
        for p in Q._lift(grid, k):
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
        return dict(vars(self))


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
    map sends the family polytope's vertices exactly onto Q's. Then it sends
    the lattice points onto Q's too: a unimodular A and an integral t make
    x -> A x + t a bijection of the chart lattice. The map is returned in
    ambient coordinates: `matrix` (ambient_rank x dim) and `translation`."""
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
    A = list(zip(*cols))
    if sorted(tuple(_dot(row, p) + s for row, s in zip(A, t))
              for p in target.vertices) != sorted(Q.proj_vertices):
        return None
    # chart to ambient: q = base_Q + x B with x = A p + t
    B = list(zip(*Q._sat_basis))
    mp["matrix"] = [[_dot(row, c) for c in cols] for row in B]
    mp["translation"] = [b + _dot(row, t) for b, row in zip(Q._base, B)]
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
