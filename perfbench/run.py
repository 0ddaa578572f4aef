"""mindeg benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload lattice-cli --seed 1 --seconds 30
    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --compare A.json B.json

--trace 0 runs the workload's fixed job list untraced and reports the
end-to-end metrics; the list has a fixed number of seeded rounds per
--seconds, sized to take about that long at the baseline, so every commit
runs the same jobs for a seed. --trace 1 runs round 0 untraced and then
again with timing wrappers on every layer, and reports the per-layer
metrics. Every job's output is checked outside its timed span. The last
line of stdout is one JSON object; a full record goes to perfbench/out/.
"""

import os

# one process, one client, no extra threads: pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
# fields that must match before two results may be compared
MACHINE_FIELDS = ("backend", "cpu_model", "nproc", "python", "numpy", "blas",
                  "blas_threads")


class BenchError(Exception):
    """The benchmark cannot run here; exit code 2, no result."""


def import_mindeg():
    """Import mindeg from this checkout's src/, and nowhere else."""
    if not (SRC / "mindeg" / "__init__.py").is_file():
        raise BenchError("no mindeg sources at %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import mindeg
    import mindeg.cli  # noqa: F401
    if SRC not in Path(mindeg.__file__).resolve().parents:
        raise BenchError("mindeg imported from %s, not %s"
                         % (mindeg.__file__, SRC))
    return mindeg


# -- statistics --------------------------------------------------------------

def tail_latency(latencies):
    """Latency at p = 1 - 10/N, so that ten jobs lie beyond it; the maximum
    when N < 20. Returns (value, p, N, rule)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 1.0, n, "max (N < 20)"
    return xs[n - 11], 1.0 - 10.0 / n, n, "p = 1 - 10/N"


# -- environment -------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    # GIT_CEILING_DIRECTORIES keeps git from using a repository above the
    # checkout; a checkout without .git reports None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(mindeg, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "backend": mindeg.kernels.BACKEND,
        "commit": git_commit(),
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------

def setup_probe(name):
    """Child mode: time from a fresh interpreter to ready."""
    t0 = time.perf_counter()
    import_mindeg()
    import workloads
    workloads.WORKLOADS[name][0]()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_sample(name):
    """Set-up time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name], capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError("set-up failed: %s" % out.stderr.strip())
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- running jobs ------------------------------------------------------------

class Pass:
    """Timed outputs of a sequence of jobs."""

    def __init__(self):
        self.latencies = []
        self.digests = []
        self.failures = []
        self.verdicts = []
        self.stdout_bytes = 0
        # jobs whose completed output failed its check with a wrong answer;
        # a job that raised, exited non-zero or answered Undetermined where
        # it should decide failed, but gave no wrong answer
        self.wrong = set()


def run_jobs(name, ctx, jobs, result, check, tracer=None, between=None):
    """Run jobs one after another, timing each; `between(i)`, if given, is
    called untimed before job i."""
    import workloads
    _, _, run, check_output = workloads.WORKLOADS[name]
    for i, job in enumerate(jobs):
        if between is not None:
            between(i)
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            out = run(ctx, job)
        except Exception as ex:  # a job that raises counts as failed
            result.latencies.append(time.perf_counter() - t0)
            result.digests.append(None)
            result.failures.append((len(result.latencies) - 1,
                                    workloads.describe(job),
                                    "raised %r" % ex))
            continue
        result.latencies.append(time.perf_counter() - t0)
        index = len(result.latencies) - 1
        result.digests.append(workloads.digest(out))
        if isinstance(out, tuple):
            result.stdout_bytes += len(out[1].encode())
            if out[0] != 0:
                result.failures.append((index, workloads.describe(job),
                                        "exit code %d" % out[0]))
                continue
        result.verdicts.append(workloads.verdict(job, out))
        if check:
            try:
                reasons = check_output(ctx, job, out)
            except Exception as ex:  # malformed output fails its check
                reasons = ["check raised %r" % ex]
            for reason in reasons:
                result.failures.append((index, workloads.describe(job),
                                        str(reason)))
                if not isinstance(reason, workloads.Unanswered):
                    result.wrong.add(index)


def timed_run(name, seed, seconds):
    """The fixed job list, untraced, with the set-up samples spread evenly
    between its jobs so that they see the same machine as the jobs.
    Returns the pass, the set-up samples and the number of rounds."""
    import workloads
    rounds = workloads.rounds(name, seconds)
    ctx = workloads.WORKLOADS[name][0]()
    jobs = workloads.job_list(name, ctx, seed, rounds)
    at = {len(jobs) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    samples = []

    def between(i):
        if i in at:
            samples.append(setup_sample(name))

    result = Pass()
    run_jobs(name, ctx, jobs, result, check=True, between=between)
    return result, samples, rounds


def traced_round(mindeg, name, seed):
    """Round 0 untraced, then with a fresh set-up traced; returns both
    passes and the spans. One fixed round makes the counts repeat exactly
    for a seed."""
    import tracer as tr
    import workloads
    setup = workloads.WORKLOADS[name][0]
    plain = Pass()
    ctx = setup()
    run_jobs(name, ctx, workloads.job_list(name, ctx, seed, 1), plain,
             check=True)
    traced = Pass()
    tracer = tr.Tracer()
    tracer.job = "setup"
    with tr.Installed(tracer, mindeg):
        ctx = setup()
    jobs = workloads.job_list(name, ctx, seed, 1)
    with tr.Installed(tracer, mindeg):
        run_jobs(name, ctx, jobs, traced, check=False, tracer=tracer)
    return plain, traced, tracer.spans


def failed_jobs(failures):
    return len({index for index, _, _ in failures})


def verdict_counts(verdicts):
    counts = {}
    for v in verdicts:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    return counts


def decided_frac(verdicts):
    vs = [v for v in verdicts if v is not None]
    if not vs:
        return None
    return sum(1 for v in vs if v in ("Certificate", "Infeasible")) / len(vs)


# -- one workload ------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    mindeg = import_mindeg()
    record = {"workload": name, "seconds": seconds, "trace": trace,
              "env": environment(mindeg, seed)}
    lines = ["env " + json.dumps(record["env"], sort_keys=True)]
    if trace:
        import tracer as tr
        plain, traced, spans = traced_round(mindeg, name, seed)
        differ = [i for i, (a, b) in enumerate(zip(plain.digests,
                                                   traced.digests)) if a != b]
        failures = plain.failures + [
            (i, "trace", "output differs between traced and untraced runs")
            for i in differ]
        wrong = plain.wrong | set(differ)
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
        values = tr.layer_metrics(spans, traced.stdout_bytes, overhead)
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        attempted = len(plain.latencies)
        record["digests_match"] = not differ
        record["flop_formula"] = tr.FLOP_FORMULA
        write_spans(name, seed, spans)
        lines.append("kernels.dykstra_chunk.flop_est is computed: "
                     + tr.FLOP_FORMULA)
        lines.append("output digests traced vs untraced: %s"
                     % ("%d differ" % len(differ) if differ
                        else "identical"))
    else:
        result, setup_samples, rounds = timed_run(name, seed, seconds)
        setup_s = statistics.median(setup_samples)
        failures = result.failures
        wrong = result.wrong
        lat = result.latencies
        tail, p, n, rule = tail_latency(lat)
        attempted = len(lat)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": attempted / sum(lat), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "job_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        record.update({
            "rounds": rounds, "setup_samples_s": setup_samples,
            "tail": {"p": p, "N": n, "rule": rule},
            "failed_frac": failed_jobs(failures) / attempted,
            "decided_frac": decided_frac(result.verdicts),
            "verdicts": verdict_counts(result.verdicts),
        })
        lines.append("job_tail_s at %s: p = %.5f, N = %d"
                     % (rule, p, n))
        lines.append("failed_frac = %d / %d = %.4f"
                     % (failed_jobs(failures), attempted,
                        failed_jobs(failures) / attempted))
        dec = record["decided_frac"]
        lines.append("decided_frac = %s  verdicts %s"
                     % ("n/a (no solver verdicts)" if dec is None
                        else "%.4f" % dec, record["verdicts"]))
    record["failures"] = failures[:50]
    failed = failed_jobs(failures)
    result_line = {"correct": not wrong, "attempted": attempted,
                   "failed": failed, "metrics": metrics}
    record["result"] = result_line
    write_record(name, seed, trace, record)
    for k, v in metrics.items():
        print("%-12s %-42s %16.6g %s" % (name, k, v["value"], v["unit"]))
    for line in lines:
        print("%-12s %s" % (name, line))
    for index, job, reason in failures[:10]:
        print("%-12s FAILED job %s (%s): %s" % (name, index, job, reason))
    print(json.dumps(result_line))
    return 0


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_record(name, seed, trace, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def write_spans(name, seed, spans):
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-spans.json" % (name, seed)), "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job",
                              "attrs"], "spans": spans}, fh)


# -- every workload, and comparing results ------------------------------------

def run_all(seed, seconds):
    """Each workload in a fresh process, so set-up and memory are its own."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], timeout=600)
        status = status or out.returncode
    return status


def load_record(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(a, b):
    """Metric ratios B/A for two records of one workload; refuses records
    taken on different machines or backends."""
    differ = [f for f in MACHINE_FIELDS if a["env"].get(f) != b["env"].get(f)]
    if differ:
        raise BenchError("refusing to compare: %s differ"
                         % ", ".join(differ))
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        raise BenchError("refusing to compare different workloads or modes")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for k in ma:
        va, vb = ma[k]["value"], mb[k]["value"]
        print("%-42s %14.6g %14.6g  %s" % (
            k, va, vb, "x%.3f" % (vb / va) if va else "-"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="lattice-cli, sos-stream, witness or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--compare", nargs=2, metavar="RECORD")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*map(load_record, args.compare))
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        import_mindeg()
        import workloads
        if args.workload not in tuple(workloads.WORKLOADS) + ("all",):
            raise BenchError("unknown workload %r; choose from %s"
                             % (args.workload,
                                ", ".join(workloads.WORKLOADS)))
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds,
                            args.trace)
    except BenchError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
