"""Variety models: dimensions, relation counts, quadratic deficiency."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mindeg.cones import GramSlice
from mindeg.errors import InconsistentModel
from mindeg.numerics import exact_rank
from mindeg.polytope import LatticePolytope, h_star, simplex
from mindeg.variety import (QuadraticForm, VarietyModel, epsilon,
                            is_minimal_degree, scroll_model,
                            segre_veronese_model, toric_model,
                            toric_model_from_points, veronese_cone_model,
                            veronese_model)

F = Fraction


def test_veronese_surface():
    m = veronese_model(2, 2)
    assert (m.n, m.m, m.e) == (5, 2, 3)
    assert m.dim_r2 == 15 and m.i2_count == 6
    assert epsilon(m) == 0 and is_minimal_degree(m)
    # deg X = 1 + codim X: the sum of h* is the normalized volume of 2Δ_2
    assert sum(h_star(simplex(2, 2)).coefficients) == m.e + 1 == 4


def test_twisted_cubic():
    m = veronese_model(1, 3)
    assert (m.n, m.m, m.e) == (3, 1, 2)
    assert m.i2_count == 3 and epsilon(m) == 0
    assert sum(h_star(simplex(1, 3)).coefficients) == m.e + 1 == 3


def test_projective_space_has_no_relations():
    m = veronese_model(3, 1)
    assert m.i2_count == 0 and epsilon(m) == 0
    assert sum(h_star(simplex(3, 1)).coefficients) == m.e + 1 == 1


def test_veronese_deficiency_values():
    # closed form: C(n+2d,2d) - (n+1) C(n+d,d) + C(n+1,2)
    for n, d in [(2, 3), (3, 2), (2, 2), (2, 4), (4, 2)]:
        m = veronese_model(n, d)
        want = (math.comb(n + 2 * d, 2 * d)
                - (n + 1) * math.comb(n + d, d) + math.comb(n + 1, 2))
        assert epsilon(m) == want
    assert epsilon(veronese_model(2, 3)) == 1
    # epsilon > 0 and deg X = 9 > 1 + codim X = 8
    m = veronese_model(2, 3)
    assert sum(h_star(simplex(2, 3)).coefficients) == 9 != m.e + 1 == 8
    assert epsilon(veronese_model(3, 2)) == 1
    assert epsilon(veronese_model(2, 4)) == 3


def test_veronese_cone():
    m = veronese_cone_model(5)
    assert (m.n, m.m, m.e) == (5, 2, 3)
    assert m.i2_count == 6 and epsilon(m) == 0
    m7 = veronese_cone_model(7)
    assert (m7.m, m7.e) == (4, 3)
    assert m7.i2_count == 6 and epsilon(m7) == 0
    with pytest.raises(ValueError):
        veronese_cone_model(4)


def test_scrolls():
    s = scroll_model([1, 2])
    assert (s.n, s.m, s.e) == (4, 2, 2)
    assert s.i2_count == 3 and epsilon(s) == 0
    s = scroll_model([2, 2])
    assert (s.n, s.m, s.e) == (5, 2, 3)
    assert s.i2_count == 6 and epsilon(s) == 0
    # leading zero degrees are cone directions contributing a free variable
    s = scroll_model([0, 2])
    assert (s.n, s.m, s.e) == (3, 2, 1)
    assert s.i2_count == 1 and epsilon(s) == 0
    with pytest.raises(ValueError):
        scroll_model([2, 1])
    with pytest.raises(ValueError):
        scroll_model([0, 0])


def test_scroll_matches_segre():
    s = scroll_model([1, 1])
    sv = segre_veronese_model([1, 1], [1, 1])
    assert (s.n, s.m, s.i2_count) == (sv.n, sv.m, sv.i2_count) == (3, 2, 1)


def test_segre_veronese_examples():
    m = segre_veronese_model([1, 2], [1, 1])
    assert is_minimal_degree(m)
    m = segre_veronese_model([2, 2], [1, 1])
    assert not is_minimal_degree(m)
    m = segre_veronese_model([1, 1], [2, 1])
    assert is_minimal_degree(m)
    m = segre_veronese_model([1, 1], [2, 2])
    assert not is_minimal_degree(m)


def test_toric_sparse_support():
    # support of the Motzkin form: deficiency one with no relations at all
    Q = LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)])
    m = toric_model(Q)
    assert (m.n, m.m, m.e) == (3, 2, 1)
    assert m.dim_r2 == 10 and m.i2_count == 0
    assert epsilon(m) == 1


@pytest.mark.parametrize("seed", range(8))
def test_toric_sums_match_numpy_unique(seed):
    # the pairwise sums, deduplicated by sorting, against np.unique on
    # every ordered pair; the exponents repeat and go negative
    rng = np.random.Generator(np.random.Philox(seed))
    width = int(rng.integers(1, 5))
    pts = rng.integers(-3, 4, size=(int(rng.integers(2, 30)), width))
    exps = [tuple(int(c) for c in p) for p in pts]
    exps += exps[:len(exps) // 2]
    arr = np.array(sorted(set(exps)))
    sums = (arr[:, None, :] + arr[None, :, :]).reshape(-1, width)
    want = [tuple(int(c) for c in row) for row in np.unique(sums, axis=0)]
    model = toric_model_from_points("t", exps, 0)
    assert model.r2_basis == want
    assert model.r1_basis == sorted(set(exps))


def test_pair_count_identity():
    for m in [veronese_model(2, 2), scroll_model([1, 2]),
              veronese_cone_model(5),
              toric_model(LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)]))]:
        assert m.dim_r2 + m.i2_count == math.comb(m.n + 2, 2)


def _pairs(nvars):
    """The monomial pairs (i, j), i <= j, in i-major order."""
    return [(i, j) for i in range(nvars) for j in range(i, nvars)]


def test_relations_are_independent():
    for m in [veronese_model(2, 2), veronese_model(1, 3),
              scroll_model([1, 2]), veronese_cone_model(5)]:
        index = {p: c for c, p in enumerate(_pairs(m.n + 1))}
        rows = []
        for terms in m.relations:
            row = [0] * len(index)
            for p, c in terms:
                row[index[p]] = c
            rows.append(row)
        assert exact_rank(rows) == len(rows) == m.i2_count


def test_toric_binomials():
    m = veronese_model(1, 3)
    rels = m.relations
    assert len(rels) == 3
    for ((i, j), one), ((k, l), minus_one) in rels:
        assert (one, minus_one) == (1, -1)
        a = tuple(x + y for x, y in zip(m.r1_basis[i], m.r1_basis[j]))
        b = tuple(x + y for x, y in zip(m.r1_basis[k], m.r1_basis[l]))
        assert a == b and (i, j) != (k, l)


def _pair_product(m, i, j):
    """The R_2 vector of x_i x_j: model.product of two unit vectors."""
    unit = [[int(k == t) for k in range(m.n + 1)] for t in (i, j)]
    return m.product(*unit)


def _unit(m, s):
    return [int(k == s) for k in range(m.dim_r2)]


def test_pair_vector_toric_is_unit():
    m = veronese_model(2, 2)
    v = _pair_product(m, 0, 3)
    (idx,) = [k for k, c in enumerate(v) if c != 0]
    assert v == _unit(m, idx) and all(type(c) is int for c in v)
    s = tuple(a + b for a, b in zip(m.r1_basis[0], m.r1_basis[3]))
    assert m.r2_basis[idx] == s


# -- the labelled builds of the scroll and the Veronese cone: the minors
# these families were once built from, kept as references for the toric
# models that replaced them and as labelled models with several relations

def _minor_relations(M):
    """The nonzero 2x2 minors x_M[r1][c1] x_M[r2][c2] - x_M[r1][c2]
    x_M[r2][c1] of a matrix M of variable indices, as {(i, j): coefficient},
    i <= j: row pairs r1 < r2, then column pairs c1 < c2, in
    itertools.combinations order."""
    rels = []
    for r1, r2 in itertools.combinations(range(len(M)), 2):
        for c1, c2 in itertools.combinations(range(len(M[0])), 2):
            rel = {}
            for (a, b), sign in (((M[r1][c1], M[r2][c2]), 1),
                                 ((M[r1][c2], M[r2][c1]), -1)):
                key = (min(a, b), max(a, b))
                rel[key] = rel.get(key, Fraction(0)) + sign
            rel = {k: v for k, v in rel.items() if v != 0}
            if rel:
                rels.append(rel)
    return rels


def _labelled_veronese_cone_model(n: int) -> VarietyModel:
    """Cone over the Veronese surface in P^5, cut out by the 2x2 minors of
    the generic symmetric 3x3 matrix in x_0..x_5; x_6..x_n are cone
    variables."""
    if n < 5:
        raise ValueError("need n >= 5")
    rels = _minor_relations([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
    labels = ["x%d" % i for i in range(n + 1)]
    return VarietyModel("veronese_cone(%d)" % n, n - 3, labels, relations=rels)


def _labelled_scroll_model(d) -> VarietyModel:
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
    rels = _minor_relations([[var[(i, j + t)] for i, j in columns]
                             for t in (0, 1)])
    return VarietyModel("scroll(%s)" % ",".join(map(str, d)), len(d), labels,
                        relations=rels)


def _relation_rows(m):
    """m.relations as rows over m.pairs."""
    return [[dict(terms).get(p, 0) for p in m.pairs] for terms in m.relations]


@pytest.mark.parametrize("family,arg", [
    ("scroll", d) for d in [(1, 2), (2, 2), (0, 2), (1, 1, 3), (2, 3, 4),
                            (0, 0, 5), (3,), (0, 1, 1, 2)]] + [
    ("cone", n) for n in (5, 6, 7, 9)],
    ids=lambda v: v if isinstance(v, str) else str(v).replace(" ", ""))
def test_toric_family_matches_its_labelled_reference(family, arg):
    # the same variety in the same coordinates: equal invariants, and the
    # two relation sets span one I_2
    if family == "scroll":
        toric, ref = scroll_model(arg), _labelled_scroll_model(arg)
        k = len(arg) - 1
        # x_(i,j) at (b_i, j): b_0 = 0, b_i the unit vector e_(k+1-i)
        blocks = [tuple(int(i > 0 and t == k - i) for t in range(k))
                  for i in range(len(arg))]
        order = [b + (j,) for b, di in zip(blocks, arg)
                 for j in range(di + 1)]
    else:
        toric = veronese_cone_model(arg)
        ref = _labelled_veronese_cone_model(arg)
        # a^2, ab, ac, b^2, bc, c^2 at (0^(n-5), b+c, c), then the cone
        # variables x_(6+i) at e_(n-5-i)
        cone = arg - 5
        order = [(0,) * cone + (b + c, c)
                 for _, b, c in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0),
                                 (0, 1, 1), (0, 0, 2)]]
        order += [tuple(int(t == cone - 1 - i) for t in range(cone)) + (0, 0)
                  for i in range(cone)]
    assert toric.is_toric and not ref.is_toric and toric.name == ref.name
    assert (toric.n, toric.m, toric.e, toric.dim_r2, toric.i2_count) == \
        (ref.n, ref.m, ref.e, ref.dim_r2, ref.i2_count)
    assert epsilon(toric) == epsilon(ref)
    assert toric.pairs == ref.pairs
    rows, ref_rows = _relation_rows(toric), _relation_rows(ref)
    assert exact_rank(rows) == exact_rank(ref_rows) \
        == exact_rank(rows + ref_rows) == ref.i2_count
    assert toric.r1_basis == order


def test_pair_vector_determinantal_reduces():
    m = _labelled_veronese_cone_model(5)
    # x0 x3 = x1^2 modulo the minors
    v = _pair_product(m, 0, 3)
    assert {m.r2_basis[k]: c for k, c in enumerate(v) if c} == {(1, 1): F(1)}
    assert _pair_product(m, 3, 0) == v


@pytest.mark.parametrize("build", [lambda: _labelled_veronese_cone_model(5),
                                   lambda: _labelled_scroll_model([1, 2]),
                                   lambda: _labelled_scroll_model([2, 2])])
def test_product_matches_gram_map_on_labelled_models(build):
    # g h is sigma of the symmetric Gram matrix (g h^T + h g^T) / 2; the
    # labelled reference builds have reduced pairs, whose columns carry
    # Fractions
    m = build()
    gs = GramSlice(m)
    rng = np.random.Generator(np.random.Philox(m.n))
    for _ in range(5):
        g, h = ([int(c) for c in rng.integers(-5, 6, m.n + 1)]
                for _ in range(2))
        G = [[F(g[i] * h[j] + h[i] * g[j], 2) for j in range(m.n + 1)]
             for i in range(m.n + 1)]
        assert m.product(g, h) == gs.apply_to_gram(G)
        assert m.product(g, h) == m.product(h, g)


def test_lower_dimensional_toric_input():
    Q = LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)])
    m = toric_model(Q)
    assert (m.n, m.m, m.e) == (5, 2, 3)
    assert epsilon(m) == 0


def test_epsilon_detects_malformed_model():
    # a fabricated relation that is not a quadric of the variety: two
    # independent quadrics on a curve in P^2, whose C(e+1, 2) is 1
    m = VarietyModel("bogus", 1, ["x0", "x1", "x2"],
                     relations=[{(0, 2): F(1), (1, 1): F(-1)},
                                {(0, 1): F(1)}])
    with pytest.raises(InconsistentModel):
        epsilon(m)


def test_quadratic_form_validation():
    m = veronese_model(1, 2)
    f = QuadraticForm(m, [F(1)] * m.dim_r2)
    assert f.to_json()["coefficients"] == ["1"] * m.dim_r2
    with pytest.raises(InconsistentModel):
        QuadraticForm(m, [F(1)])


def test_model_json_roundtrip_toric():
    m = veronese_model(2, 2)
    obj = json.loads(json.dumps(m.to_json(), sort_keys=True))
    m2 = VarietyModel.from_json(obj)
    assert (m2.n, m2.m, m2.dim_r2, m2.i2_count) == (m.n, m.m, m.dim_r2,
                                                    m.i2_count)
    assert m2.is_toric and epsilon(m2) == 0


def test_model_json_roundtrip_determinantal():
    m = _labelled_scroll_model([1, 2])
    obj = json.loads(json.dumps(m.to_json(), sort_keys=True))
    m2 = VarietyModel.from_json(obj)
    assert not m2.is_toric
    assert (m2.n, m2.m, m2.dim_r2, m2.i2_count) == (m.n, m.m, m.dim_r2,
                                                    m.i2_count)
    assert epsilon(m2) == 0



def test_toric_model_json_checks_its_relations():
    # any basis of I_2 is accepted; rows outside I_2, or too few to span
    # it, are not (x0 x2 - x1^2 spans I_2 of the conic)
    blob = {"m": 1, "n": 2, "r1_basis": [[0], [1], [2]]}
    conic = ["0", "0", "1/2", "0", "-1", "0", "1/2", "0", "0"]
    assert VarietyModel.from_json(dict(blob, i2_basis=[conic])).i2_count == 1
    twice = [str(2 * F(c)) for c in conic]
    assert VarietyModel.from_json(
        dict(blob, i2_basis=[twice, conic])).i2_count == 1
    for rows in ([], [["1"] + ["0"] * 8], [conic, ["1"] + ["0"] * 8]):
        with pytest.raises(ValueError):
            VarietyModel.from_json(dict(blob, i2_basis=rows))


def test_big_model_json_omits_relations():
    m = veronese_model(5, 4)
    assert m.i2_count > 2000
    assert "i2_basis" not in m.to_json()


# SHA-256 of json.dumps(model.to_json(), sort_keys=True): the relations in
# their order and the serialized model stay byte for byte as they were; the
# labelled entries pin the reference builds of the scroll and the cone
MODEL_JSON_SHA256 = {
    "veronese(2,2)":
        "22ee502a1a0b255e408727025ab9a27018b08d6c764af0f56c2b185822562b75",
    "twisted-cubic":
        "8078ae8acda97da6ef38e7f4dab7dd12078f4477ba19264eea6fa59748a0446f",
    "labelled scroll(1,2)":
        "bd6183b3d2e306dbde07bb780263c959c7c1f550ac35a8ff90773f34f729d9f4",
    "labelled scroll(2,2)":
        "070505be205eb06d490747326bf430d162382c46f18c9577e29e29c07664ad86",
    "labelled veronese_cone(5)":
        "45f9371a4095084a3ff73ce0dc3bf37a39a7a806e1493f2bec6916ad7d82a594",
    "lower-dimensional":
        "89efeb18c2d63241f654d0317e478893ada9d9a056618a6d66ae15e7e9c7667b",
    "labelled scroll(0,2)":
        "072be1714b2f0fc7c614e23b13794acee47796d3a60a1dceb0090e73a9ddc75a",
    "labelled veronese_cone(7)":
        "5cbdcdf69385bba2027e3d15a46204eebc35b8147eec066efd3706da1956d91c",
    "labelled scroll(1,1,3)":
        "5804a5779b8be5f34dc0c3af159594dda214bf606b19d07fab0208b02b7e9b09",
    # the toric scrolls and cones, built from their exponents
    "scroll(1,2)":
        "d63c00f8271374aabadd738fd723df90e02d85a15a4461bb460b00ac95b2b2e5",
    "scroll(2,2)":
        "d4c948199f321e9dc375500c6c7855dcb20eb47f6fd29f6cde35f0c0e8eaf178",
    "veronese_cone(5)":
        "6e0b6b4449427d294ee44f23cf23a2087ddf152ef837c3eb510faae276f5fda9",
    "scroll(0,2)":
        "4dab7a424935afef72b1ecde546d123976e6f657f34e14891564db99c1af0d76",
    "veronese_cone(7)":
        "78d9b130d86b8983d5791b43b013603cfcca55d416fdf006c574a758ce7d1a84",
    "scroll(1,1,3)":
        "5a78242b6f318e5c3da008e1980f246e4eeed4edce0acab0b18411de982f2b09",
}

MODEL_FAMILIES = {
    "veronese(2,2)": lambda: veronese_model(2, 2),
    "twisted-cubic": lambda: veronese_model(1, 3),
    "scroll(1,2)": lambda: scroll_model([1, 2]),
    "scroll(2,2)": lambda: scroll_model([2, 2]),
    "veronese_cone(5)": lambda: veronese_cone_model(5),
    "lower-dimensional": lambda: toric_model(
        LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)])),
    "scroll(0,2)": lambda: scroll_model([0, 2]),
    "veronese_cone(7)": lambda: veronese_cone_model(7),
    "scroll(1,1,3)": lambda: scroll_model([1, 1, 3]),
    "labelled scroll(1,2)": lambda: _labelled_scroll_model([1, 2]),
    "labelled scroll(2,2)": lambda: _labelled_scroll_model([2, 2]),
    "labelled veronese_cone(5)": lambda: _labelled_veronese_cone_model(5),
    "labelled scroll(0,2)": lambda: _labelled_scroll_model([0, 2]),
    "labelled veronese_cone(7)": lambda: _labelled_veronese_cone_model(7),
    "labelled scroll(1,1,3)": lambda: _labelled_scroll_model([1, 1, 3]),
    "segre_veronese(1,1;2,1)": lambda: segre_veronese_model([1, 1], [2, 1]),
    "motzkin-support": lambda: toric_model(
        LatticePolytope(2, [(0, 0), (2, 1), (1, 2), (1, 1)])),
    "points": lambda: toric_model_from_points(
        "t", [(3, -1), (0, 0), (1, 2), (2, 2), (-1, 1)], 2),
    # 3 x0 x2 = 2 x1^2, listed twice: one relation is kept, and x0 x2
    # reduces to 2/3 x1^2
    "conic": lambda: VarietyModel.from_json(
        {"m": 1, "r1_basis": ["a", "b", "c"],
         "i2_basis": [["0", "0", "3/2", "0", "-2", "0", "3/2", "0", "0"]] * 2}),
}


@pytest.mark.parametrize("name", sorted(MODEL_JSON_SHA256))
def test_model_json_is_pinned(name):
    blob = json.dumps(MODEL_FAMILIES[name]().to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        MODEL_JSON_SHA256[name]


@pytest.mark.parametrize("name", [k for k in sorted(MODEL_JSON_SHA256)
                                  if k.startswith("labelled ")])
def test_labelled_model_json_roundtrips_byte_identically(name):
    # a model JSON that gives its own i2_basis reads back to the same JSON
    blob = json.dumps(MODEL_FAMILIES[name]().to_json(), sort_keys=True)
    back = VarietyModel.from_json(json.loads(blob))
    assert json.dumps(back.to_json(), sort_keys=True) == blob


@pytest.mark.parametrize("name", sorted(MODEL_FAMILIES))
def test_representative_pairs_have_unit_columns(name):
    m = MODEL_FAMILIES[name]()
    pairs = _pairs(m.n + 1)
    assert m.pairs == pairs and len(m.columns) == len(pairs)
    assert len(m.rep_pairs) == m.dim_r2
    for s, (i, j) in enumerate(m.rep_pairs):
        assert _pair_product(m, i, j) == _unit(m, s)
    assert m.i2_count == len(m.relations)
    # every relation maps to zero: I_2 lies in the kernel of the columns
    for terms in m.relations:
        image = [0] * m.dim_r2
        for (i, j), c in terms:
            image = [a + c * b for a, b in zip(image, _pair_product(m, i, j))]
        assert not any(image), terms
    if m.is_toric:
        # every column is the unit vector of the pair's exponent sum, and
        # the representative is the first pair with that sum
        first = {}
        for i, j in pairs:
            s = m.r2_basis.index(tuple(
                a + b for a, b in zip(m.r1_basis[i], m.r1_basis[j])))
            assert _pair_product(m, i, j) == _unit(m, s)
            first.setdefault(s, (i, j))
        assert m.rep_pairs == [first[s] for s in range(m.dim_r2)]
    else:
        assert m.rep_pairs == m.r2_basis
