"""Self-tests of the benchmark's own logic. Run either way:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

mindeg = run.import_mindeg()

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _job_class(job):
    """Workload job class; product polytopes by their vertex count."""
    if job.kind in ("psd", "nonneg", "negative", "witness"):
        return job.kind if job.kind != "witness" else job.payload[0]
    blob, shape = job.payload[1], job.payload[2]
    if shape is None:
        return job.kind
    return {16: "big", 12: "mid"}.get(len(blob["vertices"]), "small")


def _key(job):
    """Comparable form of a job's input."""
    p = job.payload
    if job.kind in ("psd", "nonneg", "negative"):
        return (job.kind, p[0], tuple(str(c) for c in p[1].coefficients))
    if job.kind == "witness":
        return (job.kind, p)
    return (job.kind, tuple(p[0]))


def test_generators_deterministic_per_seed_and_differ_across_seeds():
    for name, (setup, make_round, _, _) in workloads.WORKLOADS.items():
        ctx = setup()

        def round_keys(seed, r):
            rng = workloads.round_rng(seed, name, r)
            return [_key(j) for j in make_round(ctx, rng)]

        a = make_round(ctx, workloads.round_rng(3, name, 0))
        c = make_round(ctx, workloads.round_rng(4, name, 0))
        keys = [_key(j) for j in a]
        assert keys == round_keys(3, 0), name
        assert keys != [_key(j) for j in c], name
        assert keys != round_keys(3, 1), name
        # the seed chooses members and order, never the composition
        assert sorted(map(_job_class, a)) == sorted(map(_job_class, c)), name


def test_job_list_does_not_depend_on_speed():
    # the number of rounds is set by --seconds and constants alone
    assert workloads.rounds("lattice-cli", 30) == 2
    assert workloads.rounds("sos-stream", 30) == 1
    assert workloads.rounds("witness", 5) == 1
    ctx = workloads.WORKLOADS["witness"][0]()
    two = workloads.job_list("witness", ctx, 9, 2)
    assert [_key(j) for j in two[:len(two) // 2]] == \
        [_key(j) for j in workloads.job_list("witness", ctx, 9, 1)]


def test_near_boundary_forms_are_sos_by_construction():
    import numpy as np
    rng = workloads.round_rng(5, "sos-stream", 0)
    for _, make, minimal, param_exps, _, _ in workloads.MODELS:
        if not minimal:
            continue
        model = make()
        X = workloads.cone_points(model, param_exps, 200, rng)
        G = workloads.near_boundary_gram(X, rng)
        eig = np.linalg.eigvalsh(G)
        values = np.einsum("ij,jk,ik->i", X, G, X)
        # positive definite, and within a few percent of zero at a sample
        assert eig.min() > 0
        assert values.min() <= 0.021 * max(1.0, values.max())


def test_tail_rule():
    xs = [float(i) for i in range(19, 0, -1)]
    assert run.tail_latency(xs) == (19.0, 1.0, 19, "max (N < 20)")
    value, p, n, _ = run.tail_latency([float(i) for i in range(20)])
    assert (value, p, n) == (9.0, 0.5, 20)
    ys = [float(i) for i in range(1000)]
    value, p, n, _ = run.tail_latency(ys[::-1])
    assert n == 1000 and abs(p - 0.99) < 1e-12
    assert sum(1 for y in ys if y > value) == 10


def test_compare_refuses_records_from_another_machine():
    env = {"backend": "numpy", "cpu_model": "x", "nproc": 2, "python": "3",
           "numpy": "2", "blas": "b", "blas_threads": {}}
    rec = {"workload": "witness", "trace": 0, "env": env,
           "result": {"metrics": {"jobs_per_s": {"value": 1.0}}}}
    assert run.compare(rec, rec) == 0
    for field, value in (("backend", "numba"), ("nproc", 8)):
        other = dict(rec, env=dict(env, **{field: value}))
        try:
            run.compare(rec, other)
        except run.BenchError as ex:
            assert field in str(ex)
        else:
            raise AssertionError("compared records that differ in " + field)


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs or {}]


def test_self_time_of_nested_spans():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 4.0, 0, {"cells": 6}),
             _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 9.0, 0),
             _span("b", 9.5, 10.0, 0, {"cells": 4})]
    assert tr.self_times(spans) == [2.5, 2.0, 1.0, 4.0, 0.5]
    agg = tr.aggregate(spans)
    assert agg["b"] == {"calls": 2, "self_s": 2.5, "cells": 10}
    assert tr.has_ancestor(spans, 2, ("a",))
    assert not tr.has_ancestor(spans, 0, ("a",))
    # self times partition the root's wall time
    assert sum(tr.self_times(spans)) == 10.0


def _tiny_jobs():
    ctx = workloads.lattice_setup()
    cube = '{"ambient_rank": 2, "vertices": [[0,0],[1,0],[0,1],[1,1]]}'
    jobs = [(workloads.lattice_run, ctx,
             workloads.Job(c, ([c, "--input", cube], None, None)))
            for c in ("hstar", "classify", "amgm", "epsilon")]
    sctx = workloads.sos_setup()
    stream = workloads.job_list("sos-stream", sctx, 0, 1)
    jobs += [(workloads.sos_run, sctx, j) for j in stream
             if j.kind == "psd" and j.payload[0] == 3][:2]
    return jobs


def test_wrappers_leave_outputs_byte_identical():
    jobs = _tiny_jobs()
    plain = [workloads.digest(call(ctx, job)) for call, ctx, job in jobs]
    originals = (mindeg.numerics.rref, mindeg.polytope.nullspace,
                 mindeg.cli.sos_check, mindeg.cones.GramSlice.__init__)
    tracer = tr.Tracer()
    with tr.Installed(tracer, mindeg):
        assert mindeg.variety.rref is mindeg.numerics.rref
        assert mindeg.polytope.nullspace is not originals[1]
        traced = [workloads.digest(call(ctx, job))
                  for call, ctx, job in jobs]
    assert traced == plain
    assert (mindeg.numerics.rref, mindeg.polytope.nullspace,
            mindeg.cli.sos_check, mindeg.cones.GramSlice.__init__) \
        == originals
    names = {s[tr.NAME] for s in tracer.spans}
    assert {"cli.main", "numerics.rref", "cones.sos_check",
            "kernels.dykstra_chunk"} <= names


if __name__ == "__main__":
    for fn_name, fn in sorted(globals().items()):
        if fn_name.startswith("test_"):
            fn()
            print("ok", fn_name)
