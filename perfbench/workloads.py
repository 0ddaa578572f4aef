"""The three workloads: seeded job generators, the set-up their jobs share,
the timed call of one job, and the output check of one job.

A run's job list is a fixed number of rounds (`rounds`). Every round has the
same composition, in counts of each job class, and the seed only chooses the
members and their order, so every commit runs the same jobs for a seed.

* lattice-cli: in-process `mindeg.cli.main(argv)` on inline polytope JSON.
  Exact lattice geometry does the work and the float kernels none. Small
  random and named polytopes set the median; a few many-vertex products
  Delta_n1(d1) x Delta_n2(d2), whose facet scan runs one exact nullspace per
  vertex subset, set the tail and most of the time.
* sos-stream: library `sos_check(form, gram_slice, budget=40000)` on a
  shuffled stream over six models (Gram sizes 4x4 to 15x15). The Dykstra
  kernel and the solver do the work; exact algebra appears only in set-up.
* witness: in-process `mindeg witness --d 3` and `--d 4`, the one request
  that crosses every layer, including the solver's full-budget path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import numpy as np

from mindeg import cli, cones, polytope, variety, witness

class Job:
    """One request: `run` is timed, `check` is not."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload


class Unanswered(str):
    """Check failure where the program gave no answer (Undetermined) on an
    input it should decide: the job failed, but no output is wrong."""


def round_rng(seed, name, r):
    key = list(WORKLOADS).index(name)
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=(key, r))))


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def digest(output):
    """SHA-256 of a job's stdout (CLI jobs) or verdict (library jobs)."""
    if isinstance(output, tuple):
        text = "%d\n%s" % output
    else:
        text = json.dumps(output.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- lattice-cli -------------------------------------------------------------

SMALL_COMMANDS = (["hstar"], ["normal", "--k", "2"], ["classify"],
                  ["density"], ["amgm"], ["epsilon"])
PRODUCT_COMMANDS = ("epsilon", "density", "amgm")
RANDOM_POLYTOPES = 120      # each sent to all six commands
CAYLEY_POLYTOPES = 6        # besides 15 fixed named polytopes
# A corpus-like polytope whose lattice chart is sheared: h* scans a box of
# about a million chart points (about 110 MB). Random draws rarely come close,
# so with it in every round peak memory does not depend on the seed.
SHEARED = {"ambient_rank": 3,
           "vertices": [[0, 0, 2], [1, 4, 0], [2, 0, 4], [2, 4, 2], [3, 4, 2],
                        [4, 1, 0], [4, 3, 4]]}
MID_PRODUCTS = 16           # Delta_2(d1) x Delta_3(d2): 792 vertex 5-subsets
SMALL_PRODUCTS = 12         # at most 9 vertices
BIG_PRODUCTS = 1            # Delta_3 x Delta_3: 8008 vertex 6-subsets


def random_polytope(rng):
    """Ambient rank <= 3, coordinates 0..4, like the acceptance corpus."""
    while True:
        m = int(rng.integers(1, 4))
        npts = int(rng.integers(m + 1, m + 5))
        pts = sorted({tuple(int(c) for c in rng.integers(0, 5, m))
                      for _ in range(npts)})
        if len(pts) >= 2:
            return {"ambient_rank": m, "vertices": [list(p) for p in pts]}


def named_polytopes(rng):
    """Every Reeve, Higashitani and pyramid member below, plus seeded Cayley
    polytopes of two or three segments of degree 0..3. The fixed members
    include the largest dilates scanned, so peak memory does not depend on
    the seed."""
    out = [polytope.reeve_simplex(q) for q in range(1, 7)]
    out += [polytope.higashitani_simplex(m, k) for m in (3, 5)
            for k in (1, 2, 3)]
    out += [polytope.pyramid_over_twice_simplex(m) for m in (2, 3, 4)]
    for _ in range(CAYLEY_POLYTOPES):
        degs = sorted(int(d) for d in
                      rng.integers(0, 4, int(rng.integers(2, 4))))
        degs[-1] = max(degs[-1], 1)
        out.append(polytope.cayley_polytope_of_segments(degs))
    return [Q.to_json() for Q in out]


def product_shape(rng, size, i):
    """(n1, d1, n2, d2) of Delta_n1(d1) x Delta_n2(d2), factors in seeded
    order. The mid class cycles through its four dilations, whose costs
    differ by up to a third, so the seed does not set the class's cost."""
    if size == "big":
        return (3, 1, 3, 1)
    if size == "mid":
        a, b = (2, 1 + i % 2), (3, 1 + i // 2 % 2)
    else:
        a = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        b = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    if rng.integers(0, 2):
        a, b = b, a
    return a + b


def product_json(shape):
    n1, d1, n2, d2 = shape
    verts = [p + q for p in polytope.simplex(n1, d1).vertices
             for q in polytope.simplex(n2, d2).vertices]
    return {"ambient_rank": n1 + n2, "vertices": [list(v) for v in verts]}


def lattice_round(ctx, rng):
    jobs = []
    polys = ([random_polytope(rng) for _ in range(RANDOM_POLYTOPES)]
             + named_polytopes(rng) + [SHEARED])
    for blob in polys:
        text = json.dumps(blob)
        for cmd in SMALL_COMMANDS:
            jobs.append(Job(cmd[0], (cmd + ["--input", text], blob, None)))
    for size, count in (("big", BIG_PRODUCTS), ("mid", MID_PRODUCTS),
                        ("small", SMALL_PRODUCTS)):
        for i in range(count):
            shape = product_shape(rng, size, i)
            # by index, not by seed: on the big product the commands differ
            # in cost by up to a fifth, so the seed must not choose them
            cmd = "epsilon" if size == "big" else PRODUCT_COMMANDS[i % 3]
            blob = product_json(shape)
            jobs.append(Job(cmd, ([cmd, "--input", json.dumps(blob)],
                                  blob, shape)))
    rng.shuffle(jobs)
    return jobs


def lattice_run(ctx, job):
    return run_cli(job.payload[0])


def _reference(ctx, blob):
    """h* and 2-normality from the library, cached per polytope."""
    key = json.dumps(blob, sort_keys=True)
    ref = ctx["reference"].get(key)
    if ref is None:
        Q = polytope.LatticePolytope.from_json(blob)
        ref = (list(polytope.h_star(Q).coefficients),
               polytope.is_k_normal(Q, 2)[0])
        ctx["reference"][key] = ref
    return ref


def lattice_check(ctx, job, output):
    """Failure reasons of one lattice-cli job that exited 0; empty when it
    passed."""
    rep = json.loads(output[1])
    _, blob, shape = job.payload
    if shape is not None:
        # Delta_n1(d1) x Delta_n2(d2) is normal with unimodular difference
        # lattice, and minimal degree exactly in the criterion-2 cases
        n1, d1, n2, d2 = shape
        if job.kind == "epsilon":
            expected = (n1 == 1 and d2 == 1) or (n2 == 1 and d1 == 1)
            if rep["minimal_degree"] != expected:
                return ["minimal_degree %r for %r" % (rep["minimal_degree"],
                                                      shape)]
        elif job.kind == "density":
            if rep["sublattice_index"] != 1 or rep["density"] != "Dense":
                return ["product density %r" % rep]
        elif rep["two_normal"] is not True or rep["witness"] is not None:
            return ["product reported not 2-normal"]
        return []
    hstar, two_normal = _reference(ctx, blob)
    if job.kind == "hstar":
        got = rep["h_star"]["coefficients"]
        if got[0] != 1 or min(got) < 0 or got != hstar:
            return ["h* %r, library %r" % (got, hstar)]
    elif job.kind == "epsilon":
        h2 = hstar[2] if len(hstar) > 2 else 0
        if two_normal and rep["epsilon"] != h2:
            return ["epsilon %d != h*_2 %d" % (rep["epsilon"], h2)]
    elif job.kind == "classify":
        flat = all(c == 0 for c in hstar[2:])
        if rep["classification"]["degree_one"] != flat:
            return ["degree_one disagrees with h*_j = 0 for j >= 2"]
    elif job.kind == "normal":
        if rep["k_normal"] != two_normal \
                or (rep["missing_point"] is None) != rep["k_normal"]:
            return ["2-normality %r" % rep["k_normal"]]
    elif job.kind == "density":
        odd = rep["sublattice_index"] % 2 == 1
        if (rep["density"] == "Dense") != odd:
            return ["density disagrees with index parity"]
    elif job.kind == "amgm":
        w = rep["witness"]
        if rep["two_normal"] != two_normal or (w is None) != two_normal:
            return ["amgm witness presence %r" % rep["two_normal"]]
        if w is not None and sum(1 for t in w["terms"]
                                 if t["num"].startswith("-")) != 1:
            return ["amgm witness needs exactly one negative term"]
    return []


def lattice_setup():
    return {"reference": {}}


# -- sos-stream --------------------------------------------------------------

BUDGET = 40000
NONNEG_PER_MODEL = 4        # minimal-degree models only
SAMPLES = 2000

# (label, factory, minimal degree, exponents parameterizing the affine cone
# or None for the toric exponent basis, PSD-Gram forms, negative forms).
# Most PSD forms go to the two smallest models, whose 500-iteration solves
# cost the same, so the median sits inside one tight class. Six extra
# negative forms on the twisted cubic put the tail rank (ten jobs beyond it)
# inside the full-budget class instead of on the near-boundary forms.
MODELS = (
    ("doubled-triangle",
     lambda: variety.toric_model(polytope.simplex(2, 2)), True, None, 6, 1),
    ("scroll(1,2)", lambda: variety.scroll_model([1, 2]), True,
     [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)], 40, 1),
    ("scroll(2,2)", lambda: variety.scroll_model([2, 2]), True,
     [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)],
     6, 1),
    ("twisted-cubic", lambda: variety.veronese_model(1, 3), True, None,
     40, 7),
    ("veronese(2,3)", lambda: variety.veronese_model(2, 3), False, None,
     6, 1),
    ("veronese(2,4)", lambda: variety.veronese_model(2, 4), False, None,
     6, 1),
)


def sos_setup():
    slices = []
    for _, make, _, _, _, _ in MODELS:
        gs = cones.GramSlice(make())
        gs.a_float()
        slices.append(gs)
    return {"slices": slices}


def representative_pairs(model):
    """One monomial pair x_i x_j per element of the R_2 basis."""
    if not model.is_toric:
        return list(model.r2_basis)
    index = {s: k for k, s in enumerate(model.r2_basis)}
    reps = [None] * model.dim_r2
    for i in range(model.n + 1):
        for j in range(i, model.n + 1):
            s = tuple(a + b for a, b in zip(model.r1_basis[i],
                                            model.r1_basis[j]))
            if reps[index[s]] is None:
                reps[index[s]] = (i, j)
    return reps


def cone_points(model, param_exps, count, rng):
    """Unit-norm points of the affine cone, in the coordinates x_0..x_n.
    Cauchy parameters reach every chart of the parameterization."""
    if param_exps is None:
        param_exps = [tuple(e) for e in model.r1_basis]
    params = rng.standard_cauchy(size=(count, len(param_exps[0])))
    cols = []
    for e in param_exps:
        col = np.ones(count)
        for j, ej in enumerate(e):
            if ej:
                col = col * params[:, j] ** ej
        cols.append(col)
    X = np.stack(cols, axis=1)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def r2_values(model, X):
    """Values of the R_2 basis at the points X."""
    reps = representative_pairs(model)
    return np.stack([X[:, i] * X[:, j] for i, j in reps], axis=1)


def exact_gram(C):
    n = C.shape[0]
    return [[Fraction(float((C[i, j] + C[j, i]) / 2.0)) for j in range(n)]
            for i in range(n)]


def shifted_form(g, shift, sum_sq):
    """g - shift * (sum of squares of the coordinates), exactly; the
    subtracted form is 1 at every unit-norm cone point."""
    shift = Fraction(shift)
    return [Fraction(float(gc)) - shift * ec for gc, ec in zip(g, sum_sq)]


def near_boundary_gram(X, rng):
    """B^T B + c I with B x0 = 0 at a sampled cone point x0, c = 2% of the
    largest sampled value of B^T B: positive definite, so the form is SOS by
    construction, and it is c at x0, so it sits near the boundary."""
    nvars = X.shape[1]
    x0 = X[int(rng.integers(0, len(X)))]
    B = rng.normal(size=(nvars, nvars))
    B -= np.outer(B @ x0, x0)
    G = B.T @ B
    values = np.einsum("ij,jk,ik->i", X, G, X)
    cushion = 0.02 * max(1.0, float(values.max()))
    return G + cushion * np.eye(nvars)


def sos_round(ctx, rng):
    jobs = []
    for k, (_, _, minimal, param_exps, psd, negative) in enumerate(MODELS):
        gs = ctx["slices"][k]
        model = gs.model
        nvars = model.n + 1
        X = cone_points(model, param_exps, SAMPLES, rng)
        R = r2_values(model, X)
        ident = [[Fraction(int(i == j)) for j in range(nvars)]
                 for i in range(nvars)]
        sum_sq = gs.apply_to_gram(ident)
        for _ in range(psd):
            B = rng.normal(size=(nvars, nvars))
            coeffs = gs.apply_to_gram(exact_gram(B.T @ B))
            jobs.append(Job("psd", (k, variety.QuadraticForm(model, coeffs))))
        for _ in range(NONNEG_PER_MODEL if minimal else 0):
            coeffs = gs.apply_to_gram(exact_gram(near_boundary_gram(X, rng)))
            if float((R @ np.array([float(c) for c in coeffs])).min()) < 0:
                raise AssertionError("generated form is negative on a sample")
            jobs.append(Job("nonneg",
                            (k, variety.QuadraticForm(model, coeffs))))
        for _ in range(negative):
            # negative at the sample where g is smallest
            g = rng.normal(size=model.dim_r2)
            vals = R @ g
            shift = float(vals.min()) + 0.1 * float(np.abs(vals).max())
            coeffs = shifted_form(g, shift, sum_sq)
            if float((R @ np.array([float(c) for c in coeffs])).min()) >= 0:
                raise AssertionError("generated form is not negative")
            jobs.append(Job("negative",
                            (k, variety.QuadraticForm(model, coeffs))))
    rng.shuffle(jobs)
    return jobs


def sos_run(ctx, job):
    k, form = job.payload
    return cones.sos_check(form, ctx["slices"][k], budget=BUDGET)


def sos_check_output(ctx, job, res):
    if job.kind == "psd":
        if res.status == "Undetermined":
            return [Unanswered("PSD-Gram form returned Undetermined")]
        if res.status != "Certificate":
            return ["PSD-Gram form returned %s" % res.status]
        if res.residual > 1e-6 or res.min_eig < -1e-8:
            return ["certificate residual %g min_eig %g"
                    % (res.residual, res.min_eig)]
    elif job.kind == "nonneg" and res.status == "Infeasible":
        return ["SOS form returned Infeasible"]
    elif job.kind == "negative" and res.status == "Certificate":
        return ["form negative at a cone point returned Certificate"]
    return []


# -- witness -----------------------------------------------------------------

# Veronese degrees of one round's jobs. The six d=3 jobs hold the median;
# the tail is the maximum (N < 20), the slower of two d=4 jobs, whose cost
# varies by seed from about 6 to 10 s (exact rref on larger entries).
WITNESS_ROUND = (3,) * 6 + (4,) * 2
CHECK_SAMPLES = 100000


def witness_round(ctx, rng):
    jobs = [Job("witness", (d, int(rng.integers(0, 2 ** 31))))
            for d in WITNESS_ROUND]
    rng.shuffle(jobs)
    return jobs


def witness_run(ctx, job):
    d, seed = job.payload
    return run_cli(["witness", "--d", str(d), "--seed", str(seed)])


def witness_check(ctx, job, output):
    blob = json.loads(output[1])
    rep = witness.witness_report_from_json(blob)
    bad = []
    if not witness.certify_not_sos(rep):
        bad.append("certify_not_sos failed on the re-parsed report")
    fresh = witness.sample_nonnegativity(rep, samples=CHECK_SAMPLES,
                                         seed=job.payload[1] + 1000)
    if fresh["margin"] < -1e-9:
        bad.append("fresh sampling margin %g" % fresh["margin"])
    if rep.d == 3 and rep.stats["quotient_dim"] != 1:
        bad.append("quotient_dim %d at d=3" % rep.stats["quotient_dim"])
    if rep.sos["status"] == "Certificate":
        bad.append("solver certified a non-SOS witness")
    return bad


def describe(job):
    """Short identity of a job for failure reports."""
    p = job.payload
    if job.kind in ("psd", "nonneg", "negative"):
        return "%s form on %s" % (job.kind, MODELS[p[0]][0])
    if job.kind == "witness":
        return "witness --d %d --seed %d" % p
    return " ".join(p[0])[:200]


def verdict(job, output):
    """Solver verdict of a job, or None when the job runs no solver."""
    if isinstance(output, tuple):
        if job.kind == "witness":
            return json.loads(output[1])["sos"]["status"]
        return None
    return output.status


# name: (set-up, one round's jobs, the timed call, the output check)
WORKLOADS = {
    "lattice-cli": (lattice_setup, lattice_round, lattice_run, lattice_check),
    "sos-stream": (sos_setup, sos_round, sos_run, sos_check_output),
    "witness": (dict, witness_round, witness_run, witness_check),
}
# job time of one round at the baseline, in seconds, on the machine of
# README.md; a run takes the rounds that fill --seconds at that speed
ROUND_SECONDS = {"lattice-cli": 13, "sos-stream": 30, "witness": 30}


def rounds(name, seconds):
    """Rounds in a run of `seconds`: set by the constants above, never by
    how fast the code runs, so every commit runs the same jobs."""
    return max(1, round(seconds / ROUND_SECONDS[name]))


def job_list(name, ctx, seed, count):
    """The first `count` seeded rounds of a workload, in order."""
    make_round = WORKLOADS[name][1]
    return [job for r in range(count)
            for job in make_round(ctx, round_rng(seed, name, r))]
