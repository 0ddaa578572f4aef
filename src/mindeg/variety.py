"""Embedded-variety models: toric models of exponents (lattice polytopes,
Veronese and Segre-Veronese embeddings, cones over the Veronese surface,
rational normal scrolls) and labelled models read with their own quadrics.
Each model carries a basis of the degree-1 part, the quadric relations, the
degree-2 map sigma: Sym^2(R_1) -> R_2 with its transpose sigma* (the moment
matrix of a functional), and the quadratic deficiency
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
from .polytope import LatticePolytope, _chart_rows, _lex_unique


def _pair_index_map(nvars):
    """Canonical order of monomials x_i x_j, i <= j: i-major."""
    pairs = [(i, j) for i in range(nvars) for j in range(i, nvars)]
    return pairs, {p: s for s, p in enumerate(pairs)}


class VarietyModel:
    """A nondegenerate variety X in P^n presented by degree-1 coordinates and
    independent quadric relations. r1_basis entries are exponent tuples for
    toric models, as every named family is, and label strings for a model
    read from JSON with its own i2_basis.

    The model owns sigma (sigma) and sigma* (moment): the pairs x_i x_j
    (i <= j, i-major), the sparse R_2 column of each pair, the relations as
    sparse terms and one representative pair per basis element. A toric
    model keeps only the basis index of each pair's exponent sum
    (pair_sums) until a reader asks for more."""

    def __init__(self, name, m, r1_basis, relations=None, toric_sums=None,
                 pair_sums=None):
        self.name = name
        self.r1_basis = list(r1_basis)
        self.n = len(self.r1_basis) - 1
        self.m = m
        self.e = self.n - self.m
        if self.e < 0:
            raise InconsistentModel("dim X exceeds ambient dimension")
        self.is_toric = toric_sums is not None
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
        self.columns = [cols[s] for s in range(npairs)]
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
        """The sparse R_2 column {basis index: coefficient} of each pair. A
        labelled model sets them at construction; a toric pair's column is
        the unit vector of its exponent sum. Either way each representative
        pair's column is its unit vector and every relation maps to zero."""
        return [{s: 1} for s in self._pair_sums.tolist()]

    def sigma(self, weights):
        """sigma of the pair weights w_p (in pairs order): the R_2 vector sum
        of w_p times column p over the nonzero w_p. Ints stay ints."""
        out = [0] * self.dim_r2
        for c, col in zip(weights, self.columns):
            if c == 0:
                continue
            for s, coeff in col.items():
                out[s] += c if coeff == 1 else coeff * c
        return out

    def moment(self, values):
        """Exact sigma-transpose image of a functional given by its values on
        the R_2 basis: M[i][j] = l(x_i x_j). A pair whose column is {s: 1}
        reads values[s] itself, so int values stay ints; only reduced pairs
        sum Fractions."""
        nvars = self.n + 1
        M = [[None] * nvars for _ in range(nvars)]
        for (i, j), col in zip(self.pairs, self.columns):
            terms = list(col.items())
            if len(terms) == 1 and terms[0][1] == 1:
                m = values[terms[0][0]]
            else:
                m = sum((values[s] * coeff for s, coeff in terms), Fraction(0))
            M[i][j] = M[j][i] = m
        return M

    def product(self, g, h):
        """The R_2 vector of g h, for g and h over r1_basis: sigma of the
        weights g_i h_j + g_j h_i (g_i h_i on the diagonal)."""
        return self.sigma(g[i] * h[i] if i == j else g[i] * h[j] + g[j] * h[i]
                          for i, j in self.pairs)

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
            flat = ["0"] * (size * size)
            for (i, j), c in terms:
                v = str(Fraction(c) if i == j else Fraction(c) / 2)
                flat[i * size + j] = flat[j * size + i] = v
            mats.append(flat)
        out["i2_basis"] = mats
        return out

    @classmethod
    def from_json(cls, obj):
        """The model of to_json output: an optional string name and JSON
        integer n = len(r1_basis) - 1, and r1_basis distinct toric rows,
        lists of JSON integers of one length, with m their affine rank, or
        distinct string labels with m in 0..n. i2_basis (_relations) gives
        a labelled model's relations, no more independent ones than
        C(e + 1, 2) (epsilon), and must span a toric model's I_2 when
        given. Anything else raises ValueError."""
        r1, m, flats = obj["r1_basis"], obj["m"], obj.get("i2_basis")
        if type(m) is not int or not isinstance(r1, list):
            raise ValueError("m must be a JSON integer, r1_basis a list")
        if not isinstance(obj.get("name", ""), str):
            raise ValueError("name must be a JSON string")
        nvars = len(r1)
        n = obj.get("n", nvars - 1)
        if type(n) is not int or n != nvars - 1:
            raise ValueError("n must be len(r1_basis) - 1 = %d" % (nvars - 1))
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
            model = toric_model_from_points(obj.get("name", "toric"),
                                            [tuple(u) for u in r1], m)
            if flats is not None:
                # the rows span I_2: rank i2_count, with or without its own
                rels = _relations(flats, nvars) \
                    + [dict(terms) for terms in model.relations]
                rows = [[r.get(p, 0) for p in model.pairs] for r in rels]
                if not exact_rank(rows[:len(flats)]) == exact_rank(rows) \
                        == model.i2_count:
                    raise ValueError("i2_basis must span the model's I_2")
            return model
        if not all(isinstance(u, str) for u in r1) or len(set(r1)) != nvars:
            raise ValueError("r1_basis labels must be distinct strings")
        if not 0 <= m < nvars:
            raise ValueError("m must lie in 0..n for a labelled model")
        if flats is None:
            raise ValueError("a labelled model needs i2_basis ([] for none)")
        model = cls(obj.get("name", "model"), m, r1,
                    relations=_relations(flats, nvars))
        try:
            epsilon(model)
        except InconsistentModel as ex:
            raise ValueError(str(ex)) from None
        return model


def _relations(flats, nvars):
    """The quadrics x^T A x of i2_basis rows, flattened nvars x nvars
    matrices A of strings or JSON integers (else ValueError), as their
    nonzero coefficients {(i, j): A_ij + A_ji, or A_ii}, i <= j."""
    if not isinstance(flats, list) or not all(
            isinstance(f, list) and len(f) == nvars * nvars
            and all(type(c) in (int, str) for c in f) for f in flats):
        raise ValueError("i2_basis rows must be lists of nvars^2 strings or "
                         "JSON integers")
    rels = []
    for flat in flats:
        A = [Fraction(c) for c in flat]
        rel = {(i, j): A[i * nvars + j] + (A[j * nvars + i] if i != j else 0)
               for i, j in _pair_index_map(nvars)[0]}
        rels.append({p: c for p, c in rel.items() if c})
    return rels


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


def _int64_translate(pts, least):
    """The int64 array of pts - least. ValueError unless 2 * |coordinate|
    < 2^63 for every difference, so that sums of two rows stay in int64."""
    diffs = [[c - o for c, o in zip(p, least)] for p in pts]
    if 2 * max((abs(c) for d in diffs for c in d), default=0) >= 2 ** 63:
        raise ValueError("sums of 2 lattice points exceed the int64 range")
    return np.array(diffs, dtype=np.int64)


def toric_model_from_points(name, exponents, m):
    """The toric model of the exponents: the pairwise sums run in int64 on
    the exponents less the least one, which keeps their lexicographic
    order, and twice it is added back in Python ints. One lexsort gives
    both the distinct sums and the basis index of each pair's sum."""
    pts = sorted(set(exponents))
    arr = _int64_translate(pts, pts[0])
    i, j = np.triu_indices(len(arr))
    sums, pair_sums = _lex_unique(arr[i] + arr[j])
    shift = [2 * c for c in pts[0]]
    toric_sums = [tuple(c + o for c, o in zip(row, shift))
                  for row in sums.tolist()]
    return VarietyModel(name, m, pts, toric_sums=toric_sums,
                        pair_sums=pair_sums)


def toric_model(Q: LatticePolytope) -> VarietyModel:
    """Projective toric variety of the polytope: coordinates indexed by
    Q ∩ M, quadric relations the degree-2 binomials of the monoid ring."""
    rows = _chart_rows(Q, 1)
    # a full-dimensional Q keeps its ambient exponents
    exps = (Q._lift(rows) if Q.dim == Q.ambient_rank
            else map(tuple, rows.tolist()))
    return toric_model_from_points("toric", exps, Q.dim)


def _simplex_points(n, d):
    """{e in N^n : |e| <= d}, the lattice points of d times the n-simplex."""
    return [e for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) <= d]


def veronese_model(n: int, d: int) -> VarietyModel:
    """The toric model of d times the standard n-simplex, built from its
    lattice points without a polytope."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return toric_model_from_points("veronese(%d,%d)" % (n, d),
                                   _simplex_points(n, d), n)


def segre_veronese_model(dims, degrees) -> VarietyModel:
    """The toric model of the product of the d_i-fold n_i-simplices, whose
    lattice points are the products of its factors' lattice points."""
    dims = [int(x) for x in dims]
    degrees = [int(x) for x in degrees]
    if len(dims) != len(degrees) or len(dims) < 2:
        raise ValueError("need matching factor lists of length >= 2")
    if any(x < 1 for x in dims) or any(x < 1 for x in degrees):
        raise ValueError("factor dimensions and degrees must be >= 1")
    factors = [_simplex_points(ni, di) for ni, di in zip(dims, degrees)]
    return toric_model_from_points(
        "segre_veronese(%s;%s)" % (",".join(map(str, dims)),
                                   ",".join(map(str, degrees))),
        [sum(p, ()) for p in itertools.product(*factors)], sum(dims))


def veronese_cone_model(n: int) -> VarietyModel:
    """Cone over the Veronese surface in P^5 with vertex P^(n-6): the toric
    model of x_0..x_5 = a^2, ab, ac, b^2, bc, c^2 at (0^(n-5), b+c, c),
    and of the cone variable x_(6+i) at the unit vector e_(n-5-i)."""
    if n < 5:
        raise ValueError("need n >= 5")
    exps = [(0,) * (n - 5) + (s, t) for s in range(3) for t in range(s + 1)]
    apexes = [tuple(int(k == n - 6 - i) for k in range(n - 3))
              for i in range(n - 5)]
    return toric_model_from_points("veronese_cone(%d)" % n, exps + apexes,
                                   n - 3)


def scroll_model(d) -> VarietyModel:
    """Rational normal scroll of segment degrees d (ascending, last > 0):
    the toric model of x_(i,j) at (b_i, j), 0 <= j <= d_i, with b_0 = 0 and
    b_i the unit vector e_(k+1-i) of Z^k, k = len(d) - 1, so that the
    variables run block by block."""
    d = [int(x) for x in d]
    if not d or any(d[i] > d[i + 1] for i in range(len(d) - 1)):
        raise ValueError("degrees must be sorted ascending")
    if d[-1] < 1 or any(x < 0 for x in d):
        raise ValueError("last degree must be positive, none negative")
    k = len(d) - 1
    exps = [tuple(int(i > 0 and t == k - i) for t in range(k)) + (j,)
            for i, di in enumerate(d) for j in range(di + 1)]
    return toric_model_from_points("scroll(%s)" % ",".join(map(str, d)),
                                   exps, len(d))


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
