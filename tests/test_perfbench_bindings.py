"""The benchmark's tracer binds mindeg's layer functions by name; a rename
or deletion in the package would make `perfbench/run.py --trace 1` fail
with a KeyError. This test loads the tracer from its file and checks every
binding it makes, and runs one sos-stream job and one witness job of the
benchmark's workloads under it."""

import hashlib
import importlib.util
import inspect
from pathlib import Path

import mindeg
import mindeg.cli  # noqa: F401  (the tracer binds mindeg.cli.main)
from mindeg import cones
from test_cones import _assert_parameterizes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer = _load("tracer")
    targets = tracer.targets(mindeg)
    originals = [vars(owner)[attr] for owner, attr, *_ in targets]
    with tracer.Installed(tracer.Tracer(), mindeg):
        for owner, attr, *_ in targets:
            assert attr in vars(owner), (owner, attr)
    assert [vars(owner)[attr] for owner, attr, *_ in targets] == originals


def test_sos_check_keeps_its_budget_keyword():
    # the tracer reads the budget from sos_check's signature
    assert "budget" in inspect.signature(cones.sos_check).parameters


def test_sos_stream_job_reports_its_layer_metrics():
    # the workload reads gs.pairs, a_float() and apply_to_gram, the tracer
    # gs.model and gs.pairs; a refactor that drops one fails here
    tracer, workloads = _load("tracer"), _load("workloads")
    spans = tracer.Tracer()
    with tracer.Installed(spans, mindeg):
        ctx = workloads.sos_setup()
        jobs = workloads.sos_round(ctx, workloads.round_rng(0, "sos-stream",
                                                            0))
        res = workloads.sos_run(ctx, jobs[0])
    assert workloads.sos_check_output(ctx, jobs[0], res) == []
    metrics = tracer.layer_metrics(spans.spans, 0, 0.0)
    assert metrics["cones.GramSlice.sigma_entries"] > 0
    assert metrics["cones.sos_check.calls"] == 1


def test_witness_job_passes_its_check_under_the_tracer():
    # witness_check re-parses the report, re-certifies it and re-samples
    # it through the witness API; a refactor that breaks one of those
    # calls, or a stage the tracer times, fails here
    tracer, workloads = _load("tracer"), _load("workloads")
    jobs = workloads.witness_round({}, workloads.round_rng(0, "witness", 0))
    job = next(j for j in jobs if j.payload[0] == 3)
    spans = tracer.Tracer()
    with tracer.Installed(spans, mindeg):
        out = workloads.witness_run({}, job)
    assert out[0] == 0
    assert workloads.witness_check({}, job, out) == []
    names = {span[tracer.NAME] for span in spans.spans}
    assert {"witness.delta_search", "witness.certify_not_sos"} <= names


def test_model_rows_parameterize_their_models():
    # the workload samples each model's cone through these exponents, in
    # the model's own coordinate order: a model whose variables move away
    # from its row's exponents fails here
    for _, make, _, param_exps, _, _ in _load("workloads").MODELS:
        _assert_parameterizes(make(), param_exps)


# SHA-256 of the statuses of the sos-stream job lists of seeds 0-2 (396
# jobs), one per line in job order, computed with the barrier from weight 1
# and the full Newton step: a solver change that moves a verdict fails here
SOS_STREAM_STATUS_SHA256 = \
    "04b5fd6756956eeec771abf86734c0f7295cb497bb2e96097c30209fd9058cd4"


def test_sos_stream_verdicts_are_pinned():
    # the solver's path (gram, iterations) may move; no verdict may
    workloads = _load("workloads")
    ctx = workloads.sos_setup()
    statuses = [workloads.sos_run(ctx, job).status for seed in range(3)
                for job in workloads.job_list("sos-stream", ctx, seed, 1)]
    assert len(statuses) == 396
    assert hashlib.sha256("\n".join(statuses).encode()).hexdigest() \
        == SOS_STREAM_STATUS_SHA256
