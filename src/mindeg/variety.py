"""Embedded-variety models: toric varieties of lattice polytopes, Veronese
and Segre-Veronese embeddings, cones over the Veronese surface, and rational
normal scrolls. Each model carries a basis of the degree-1 part, the quadric
relations, the dimension of the degree-2 part, and the quadratic deficiency
epsilon = C(e+1,2) - dim I_2 whose vanishing characterizes minimal degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InconsistentModel
from .numerics import _echelon, exact_rank, rref
from .polytope import (LatticePolytope, _int64_translate, is_k_normal,
                       lattice_points, normalized_volume, product_polytope,
                       simplex)


def _pair_index_map(nvars):
    """Canonical order of monomials x_i x_j, i <= j: i-major."""
    pairs = [(i, j) for i in range(nvars) for j in range(i, nvars)]
    return pairs, {p: s for s, p in enumerate(pairs)}


def _position(i, j, nvars):
    """Index of the pair (i, j), i <= j, in the i-major order."""
    return i * (2 * nvars - i - 1) // 2 + j


class VarietyModel:
    """A nondegenerate variety X in P^n presented by degree-1 coordinates and
    independent quadric relations. r1_basis entries are exponent tuples for
    toric models and label strings for determinantal ones.

    The model owns the degree-2 map Sym^2(R_1) -> R_2: the pairs x_i x_j
    (i <= j, i-major), the sparse R_2 column of each pair, the relations as
    sparse terms and one representative pair per basis element. A toric
    model keeps only the basis index of each pair's exponent sum
    (pair_sums) until a reader asks for more."""

    def __init__(self, name, m, r1_basis, relations=None, toric_sums=None,
                 pair_sums=None, degree=None, source_polytope=None):
        self.name = name
        self.r1_basis = list(r1_basis)
        self.n = len(self.r1_basis) - 1
        self.m = m
        self.e = self.n - self.m
        if self.e < 0:
            raise InconsistentModel("dim X exceeds ambient dimension")
        self.is_toric = toric_sums is not None
        self._degree = degree
        self._source_polytope = source_polytope
        self._pair_sums = pair_sums
        npairs = math.comb(self.n + 2, 2)
        if self.is_toric:
            self.r2_basis = toric_sums
            self.dim_r2 = len(toric_sums)
            self.i2_count = npairs - self.dim_r2
            return
        pairs, pair_idx = _pair_index_map(self.n + 1)
        rows = []
        for rel in relations:
            row = [Fraction(0)] * npairs
            for p, c in rel.items():
                row[pair_idx[p]] += Fraction(c)
            rows.append(row)
        reduced, pivots = rref(rows)
        if len(reduced) != len(rows):
            # keep each relation independent of those before it: the pivot
            # columns of the transposed rows
            rows = [rows[k] for k in _echelon(list(zip(*rows)))[1]]
        self.i2_count = len(reduced)
        self.dim_r2 = npairs - self.i2_count
        pivset = set(pivots)
        free = [s for s in range(npairs) if s not in pivset]
        self.r2_basis = [pairs[s] for s in free]
        # a free pair is its own basis element; a pivot pair is minus the
        # tail of its reduced row over the free pairs
        cols = {s: {k: 1} for k, s in enumerate(free)}
        for row, piv in zip(reduced, pivots):
            cols[piv] = {k: -row[s] for k, s in enumerate(free) if row[s]}
        self._columns = [cols[s] for s in range(npairs)]
        self.relations = [tuple((pairs[s], c) for s, c in enumerate(row) if c)
                          for row in rows]

    @functools.cached_property
    def pairs(self):
        """The monomial pairs (i, j), i <= j, in i-major order."""
        return _pair_index_map(self.n + 1)[0]

    @functools.cached_property
    def rep_pairs(self):
        """One pair per R_2 basis element, whose column is {s: 1}: on a
        toric model the first pair with that exponent sum, on a labelled
        one the free pair itself."""
        if not self.is_toric:
            return list(self.r2_basis)
        first = np.unique(self._pair_sums, return_index=True)[1]
        return [self.pairs[c] for c in first.tolist()]

    @functools.cached_property
    def relations(self):
        """Each quadric relation as its nonzero ((i, j), coefficient) terms
        over the pairs. A labelled model sets them at construction; a toric
        model's are the binomials x_a - x_b, a the representative pair of a
        sum and b each later pair with that sum, by sum and then pair."""
        sums = self._pair_sums.tolist()
        reps = self.rep_pairs
        return [((reps[sums[c]], 1), (self.pairs[c], -1))
                for c in np.argsort(self._pair_sums, kind="stable").tolist()
                if self.pairs[c] != reps[sums[c]]]

    @functools.cached_property
    def columns(self):
        """The sparse R_2 column {basis index: coefficient} of each pair,
        checked exactly when first built: every representative pair's
        column is {s: 1}, which makes the map onto R_2, and every relation
        maps to zero."""
        if self.is_toric:
            cols = [{s: 1} for s in self._pair_sums.tolist()]
        else:
            cols = self._columns
        nvars = self.n + 1
        if any(cols[_position(i, j, nvars)] != {s: 1}
               for s, (i, j) in enumerate(self.rep_pairs)):
            raise InconsistentModel(
                "a representative pair's column is not its unit vector")
        for terms in self.relations:
            image = {}
            for (i, j), c in terms:
                for s, coeff in cols[_position(i, j, nvars)].items():
                    image[s] = image.get(s, 0) + coeff * c
            if any(v != 0 for v in image.values()):
                raise InconsistentModel(
                    "quadric relation does not lie in the Gram kernel")
        return cols

    def product(self, g, h):
        """The R_2 coefficient vector of g h, for g and h given over
        r1_basis: each pair x_i x_j adds g_i h_j + g_j h_i (g_i h_i on the
        diagonal) times its column. Ints stay ints."""
        out = [0] * self.dim_r2
        for (i, j), col in zip(self.pairs, self.columns):
            c = g[i] * h[i] if i == j else g[i] * h[j] + g[j] * h[i]
            if c == 0:
                continue
            for s, coeff in col.items():
                out[s] += c if coeff == 1 else coeff * c
        return out

    @property
    def degree(self):
        """deg X when derivable: closed form for determinantal families,
        normalized volume for toric models from a 2-normal polytope."""
        if self._degree is not None:
            return self._degree
        if self.is_toric and self._source_polytope is not None:
            Q = self._source_polytope
            if is_k_normal(Q, 2)[0]:
                self._degree = normalized_volume(Q)
        return self._degree

    def __repr__(self):
        return "VarietyModel(%s: n=%d, m=%d, e=%d, dim R2=%d, |I2|=%d)" % (
            self.name, self.n, self.m, self.e, self.dim_r2, self.i2_count)

    def to_json(self):
        """Serialized model. Toric models are reconstructed from r1_basis
        alone, so their (possibly huge) relation list is included only when
        small enough to be worth reading."""
        if self.is_toric:
            r1 = [list(u) for u in self.r1_basis]
        else:
            r1 = list(self.r1_basis)
        out = {"name": self.name, "n": self.n, "m": self.m, "r1_basis": r1}
        if self.is_toric and self.i2_count > 2000:
            return out
        size = self.n + 1
        mats = []
        for terms in self.relations:
            mat = [[Fraction(0)] * size for _ in range(size)]
            for (i, j), c in terms:
                if i == j:
                    mat[i][i] = Fraction(c)
                else:
                    mat[i][j] = mat[j][i] = Fraction(c) / 2
            mats.append([str(x) for row in mat for x in row])
        out["i2_basis"] = mats
        return out

    @classmethod
    def from_json(cls, obj):
        """The model of to_json output: an optional string name, r1_basis
        distinct toric rows, lists of JSON integers of one length, with m
        their affine rank, or distinct string labels with i2_basis rows of
        nvars^2 strings or JSON integers and m in 0..n. Anything else raises
        ValueError."""
        r1, m, flats = obj["r1_basis"], obj["m"], obj.get("i2_basis")
        if type(m) is not int or not isinstance(r1, list):
            raise ValueError("m must be a JSON integer, r1_basis a list")
        if not isinstance(obj.get("name", ""), str):
            raise ValueError("name must be a JSON string")
        if r1 and isinstance(r1[0], list):
            if not all(isinstance(u, list) and len(u) == len(r1[0])
                       and all(type(c) is int for c in u) for u in r1) \
                    or len({tuple(u) for u in r1}) != len(r1):
                raise ValueError("toric r1_basis rows must be distinct lists "
                                 "of JSON integers of one length")
            rank = exact_rank([[a - b for a, b in zip(u, r1[0])] for u in r1])
            if m != rank:
                raise ValueError("m must be %d, the affine rank of the toric "
                                 "r1_basis" % rank)
            return toric_model_from_points(obj.get("name", "toric"),
                                           [tuple(u) for u in r1], m)
        nvars = len(r1)
        if not all(isinstance(u, str) for u in r1) \
                or len(set(r1)) != nvars \
                or not isinstance(flats, list) \
                or not all(isinstance(f, list) and len(f) == nvars * nvars
                           and all(type(c) in (int, str) for c in f)
                           for f in flats):
            raise ValueError("r1_basis labels must be distinct strings, "
                             "i2_basis rows lists of nvars^2 strings or JSON "
                             "integers")
        if not 0 <= m < nvars:
            raise ValueError("m must lie in 0..n for a labelled model")
        rels = []
        for flat in flats:
            rel = {}
            for i in range(nvars):
                for j in range(i, nvars):
                    a = Fraction(flat[i * nvars + j])
                    if i != j:
                        a = a + Fraction(flat[j * nvars + i])
                    if a != 0:
                        rel[(i, j)] = rel.get((i, j), Fraction(0)) + a
            rels.append({k: v for k, v in rel.items() if v != 0})
        return cls(obj.get("name", "model"), m, r1, relations=rels)


@dataclass
class QuadraticForm:
    """Element of R_2 over the model's canonical basis, exact coefficients."""

    model: VarietyModel
    coefficients: list

    def __post_init__(self):
        if len(self.coefficients) != self.model.dim_r2:
            raise InconsistentModel("coefficient count must equal dim R_2")
        self.coefficients = [c if isinstance(c, Fraction) else Fraction(c)
                             for c in self.coefficients]

    def to_json(self):
        return {"model": self.model.name,
                "coefficients": [str(c) for c in self.coefficients]}


def toric_model_from_points(name, exponents, m):
    """The toric model of the exponents: the pairwise sums run in int64 on
    the exponents less the least one, which keeps their lexicographic
    order, and twice it is added back in Python ints. One lexsort gives
    both the distinct sums and the basis index of each pair's sum."""
    pts = sorted(set(exponents))
    arr = _int64_translate(pts, pts[0], 2)
    i, j = np.triu_indices(len(arr))
    sums = arr[i] + arr[j]
    # rows of length 0 (a point, P^0) have one pair and no key to sort by
    order = np.lexsort(sums.T[::-1]) if sums.shape[1] else np.arange(1)
    sums = sums[order]
    # the distinct sums in lexicographic order: drop each sorted row equal
    # to its predecessor
    keep = np.ones(len(sums), dtype=bool)
    keep[1:] = (sums[1:] != sums[:-1]).any(axis=1)
    pair_sums = np.empty(len(sums), dtype=np.intp)
    pair_sums[order] = np.cumsum(keep) - 1
    shift = [2 * c for c in pts[0]]
    toric_sums = [tuple(c + o for c, o in zip(row, shift))
                  for row in sums[keep].tolist()]
    return VarietyModel(name, m, pts, toric_sums=toric_sums,
                        pair_sums=pair_sums)


def toric_model(Q: LatticePolytope) -> VarietyModel:
    """Projective toric variety of the polytope: coordinates indexed by
    Q ∩ M, quadric relations the degree-2 binomials of the monoid ring."""
    pts = sorted(lattice_points(Q, 1))
    if Q.dim < Q.ambient_rank:
        exps = [Q._proj(p) for p in pts]
    else:
        exps = pts
    model = toric_model_from_points("toric", exps, Q.dim)
    model._source_polytope = Q
    return model


def veronese_model(n: int, d: int) -> VarietyModel:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    model = toric_model(simplex(n, d))
    model.name = "veronese(%d,%d)" % (n, d)
    return model


def segre_veronese_model(dims, degrees) -> VarietyModel:
    dims = [int(x) for x in dims]
    degrees = [int(x) for x in degrees]
    if len(dims) != len(degrees) or len(dims) < 2:
        raise ValueError("need matching factor lists of length >= 2")
    if any(x < 1 for x in dims) or any(x < 1 for x in degrees):
        raise ValueError("factor dimensions and degrees must be >= 1")
    Q = simplex(dims[0], degrees[0])
    for ni, di in zip(dims[1:], degrees[1:]):
        Q = product_polytope(Q, simplex(ni, di))
    model = toric_model(Q)
    model.name = "segre_veronese(%s;%s)" % (
        ",".join(map(str, dims)), ",".join(map(str, degrees)))
    return model


def veronese_cone_model(n: int) -> VarietyModel:
    """Cone over the Veronese surface in P^5, cut out by the 2x2 minors of
    the generic symmetric 3x3 matrix in x_0..x_5; x_6..x_n are cone
    variables."""
    if n < 5:
        raise ValueError("need n >= 5")
    sym = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]
    rels = []
    for r1_, r2_ in itertools.combinations(range(3), 2):
        for c1, c2 in itertools.combinations(range(3), 2):
            rel = {}
            for (a, b), sign in (((sym[r1_][c1], sym[r2_][c2]), 1),
                                 ((sym[r1_][c2], sym[r2_][c1]), -1)):
                key = (min(a, b), max(a, b))
                rel[key] = rel.get(key, Fraction(0)) + sign
            rel = {k: v for k, v in rel.items() if v != 0}
            if rel:
                rels.append(rel)
    labels = ["x%d" % i for i in range(n + 1)]
    return VarietyModel("veronese_cone(%d)" % n, n - 3, labels,
                        relations=rels, degree=4)


def scroll_model(d) -> VarietyModel:
    """Rational normal scroll of segment degrees d (ascending, last > 0):
    relations are the 2x2 minors of the two-row block matrix whose block i
    stacks x_{i,0..d_i-1} over x_{i,1..d_i}."""
    d = [int(x) for x in d]
    if not d or any(d[i] > d[i + 1] for i in range(len(d) - 1)):
        raise ValueError("degrees must be sorted ascending")
    if d[-1] < 1 or any(x < 0 for x in d):
        raise ValueError("last degree must be positive, none negative")
    labels = []
    var = {}
    for i, di in enumerate(d):
        for j in range(di + 1):
            var[(i, j)] = len(labels)
            labels.append("x%d_%d" % (i, j))
    columns = [(i, j) for i, di in enumerate(d) for j in range(di)]
    rels = []
    for (i1, j1), (i2, j2) in itertools.combinations(columns, 2):
        rel = {}
        for (a, b), sign in (((var[(i1, j1)], var[(i2, j2 + 1)]), 1),
                             ((var[(i1, j1 + 1)], var[(i2, j2)]), -1)):
            key = (min(a, b), max(a, b))
            rel[key] = rel.get(key, Fraction(0)) + sign
        rel = {k: v for k, v in rel.items() if v != 0}
        if rel:
            rels.append(rel)
    return VarietyModel("scroll(%s)" % ",".join(map(str, d)), len(d), labels,
                        relations=rels, degree=sum(d))


def epsilon(model: VarietyModel) -> int:
    """Quadratic deficiency C(e+1,2) - dim I_2, zero iff deg X = 1 +
    codim X. A negative value, more independent quadrics than C(e+1,2),
    means a malformed model."""
    a = math.comb(model.e + 1, 2) - model.i2_count
    if a < 0:
        raise InconsistentModel("negative deficiency; relations overdetermined")
    return a


def is_minimal_degree(model: VarietyModel) -> bool:
    return epsilon(model) == 0
