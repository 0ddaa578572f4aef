"""Span tracing from outside the program: timing wrappers around the public
functions of each mindeg module, installed by rebinding every module-level
binding of the wrapped object, so calls between modules are caught no matter
which module's name the caller used.

Spans are kept in memory as (name, start, end, parent, job, attrs) and turned
into per-layer metrics at the end. Self time of a span is its duration minus
the durations of its direct children; the program is single-threaded, so
children never overlap and their union is their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

NAME, START, END, PARENT, JOB, ATTRS = range(6)


class Tracer:
    """In-memory span collector. `job` tags every span opened while set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.job, {}]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def current(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Timing wrapper. on_call(attrs, args, kwargs) runs before the
        call, on_return(attrs, args, kwargs, result) after a normal return;
        an exception is recorded as attrs["error"] and re-raised."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            attrs = span[ATTRS]
            if on_call is not None:
                on_call(attrs, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except Exception as ex:
                attrs["error"] = type(ex).__name__
                raise
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(attrs, args, kwargs, out)
            return out

        return traced

    def counter(self, key, fn, count):
        """Wrapper that opens no span: adds count(result) to attrs[key] of
        the innermost open span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            span = tracer.current()
            if span is not None:
                span[ATTRS][key] = span[ATTRS].get(key, 0) + count(out)
            return out

        return counted


# -- what gets wrapped -------------------------------------------------------

def _tag(fn_name):
    def record(attrs, args, kwargs):
        attrs["fn"] = fn_name
    return record


def _rref_cells(attrs, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    rows = rows if isinstance(rows, list) else list(rows)
    attrs["cells"] = len(rows) * (len(rows[0]) if rows else 0)


def _points(attrs, args, kwargs, out):
    attrs["points"] = len(out)


def _sigma_entries(attrs, args, kwargs, out):
    gs = args[0]
    attrs["sigma_entries"] = gs.model.dim_r2 * len(gs.pairs)


def _sos_result(signature):
    def record(attrs, args, kwargs, res):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        attrs["iterations"] = res.iterations
        attrs["status"] = res.status
        attrs["full_budget"] = (
            res.status == "Undetermined"
            and res.iterations >= bound.arguments["budget"])
    return record


def _dykstra_size(signature):
    def record(attrs, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        attrs["iterations"] = int(bound.arguments["iters"])
        attrs["n"] = int(bound.arguments["matdim"])
    return record


def targets(mindeg):
    """(owner, attribute, span name, on_call, on_return) for every traced
    callable. Owners are the defining module, or the class for methods."""
    numerics, polytope, variety = (mindeg.numerics, mindeg.polytope,
                                   mindeg.variety)
    cones, kernels, witness, cli = (mindeg.cones, mindeg.kernels,
                                    mindeg.witness, mindeg.cli)
    out = [
        (numerics, "rref", "numerics.rref", _rref_cells, None),
        (numerics, "nullspace", "numerics.nullspace", None, None),
        (numerics, "integer_diagonalize", "numerics.integer_diagonalize",
         None, None),
        (polytope.LatticePolytope, "__init__", "polytope.LatticePolytope",
         None, None),
        (polytope.LatticePolytope, "facets", "polytope.facets", None, None),
        (polytope, "lattice_points", "polytope.lattice_points", None, _points),
        (polytope, "h_star", "polytope.h_star", None, None),
        (polytope, "is_k_normal", "polytope.is_k_normal", None, None),
        (polytope, "classify", "polytope.classify", None, None),
        (polytope, "amgm_witness", "polytope.amgm_witness", None, None),
        (polytope, "polytope_degree", "polytope.polytope_degree", None, None),
        (polytope, "sublattice_index", "polytope.sublattice_index",
         None, None),
        (polytope, "real_density", "polytope.sublattice_index", None, None),
        (variety, "epsilon", "variety.epsilon", None, None),
        (variety, "is_minimal_degree", "variety.epsilon", None, None),
        (cones.GramSlice, "__init__", "cones.GramSlice", None, _sigma_entries),
        (cones, "sos_check", "cones.sos_check", None,
         _sos_result(inspect.signature(cones.sos_check))),
        (cones, "extremality_check", "cones.extremality_check", None, None),
        (kernels, "dykstra_chunk", "kernels.dykstra_chunk",
         _dykstra_size(inspect.signature(kernels.dykstra_chunk)), None),
        (kernels, "project_psd", "kernels.project_psd", None, None),
        (witness, "hilbert_witness", "witness.hilbert_witness", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    for name in ("toric_model", "toric_model_from_points", "veronese_model",
                 "segre_veronese_model", "scroll_model",
                 "veronese_cone_model"):
        out.append((variety, name, "variety.model_build", None, None))
    for name in ("separating_functional_real", "interpolant_through_points",
                 "pair_with_square", "kernel_dimension", "moment_psd"):
        out.append((cones, name, "cones.functional", _tag(name), None))
    for name in ("choose_hyperplanes", "fit_h0", "build_f", "delta_search",
                 "certify_not_sos"):
        out.append((witness, name, "witness." + name, None, None))
    return out


class Installed:
    """Context manager: installs the wrappers on enter, restores every
    rebound name on exit."""

    def __init__(self, tracer, mindeg):
        self.tracer = tracer
        self.mindeg = mindeg
        self._undo = []

    def _rebind_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mindeg"
                                   or modname.startswith("mindeg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        for owner, attr, name, on_call, on_return in targets(self.mindeg):
            original = vars(owner)[attr]
            wrapped = self.tracer.wrap(name, original, on_call, on_return)
            if isinstance(owner, type):
                # a class keeps its name: rebinding it would break the
                # isinstance checks inside the package
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
            else:
                self._rebind_everywhere(original, wrapped)
        # hull size is a count on the enclosing constructor or facets span
        polytope = self.mindeg.polytope
        original = polytope._supporting_hyperplanes
        polytope._supporting_hyperplanes = self.tracer.counter(
            "facets_returned", original, len)
        self._undo.append((polytope, "_supporting_hyperplanes", original))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


# -- span arithmetic ---------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def aggregate(spans):
    """name -> {"calls", "self_s", summed numeric attrs}."""
    selfs = self_times(spans)
    agg = {}
    for s, st in zip(spans, selfs):
        a = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += st
        for k, v in s[ATTRS].items():
            if isinstance(v, (int, float)):
                a[k] = a.get(k, 0) + v
    return agg


def flops_per_dykstra_iter(n):
    """Computed, not measured: the slice projection is a dense N x N
    matrix-vector product (2 N^2, N = n(n+1)/2) and the cone projection a
    symmetric eigendecomposition (~9 n^3) plus V diag(w) V^T (2 n^3)."""
    N = n * (n + 1) // 2
    return 2 * N * N + 11 * n ** 3


FLOP_FORMULA = "iterations * (2 N^2 + 11 n^3), N = n(n+1)/2"


def layer_metrics(spans, stdout_bytes, overhead_frac):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    agg = aggregate(spans)

    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    hull_nullspace = sum(
        1 for i, s in enumerate(spans) if s[NAME] == "numerics.nullspace"
        and has_ancestor(spans, i, ("polytope.LatticePolytope",
                                    "polytope.facets")))
    facets_returned = (get("polytope.LatticePolytope", "facets_returned")
                       + get("polytope.facets", "facets_returned"))
    psd_under_sos = sum(
        1 for i, s in enumerate(spans) if s[NAME] == "kernels.project_psd"
        and has_ancestor(spans, i, ("cones.sos_check",)))
    sos = [s for s in spans if s[NAME] == "cones.sos_check"]
    infeasible = sum(1 for s in sos if s[ATTRS].get("status") == "Infeasible")
    decided = sum(1 for s in sos
                  if s[ATTRS].get("status") in ("Certificate", "Infeasible"))
    sep = [s for s in spans
           if s[NAME] == "cones.functional"
           and s[ATTRS].get("fn") == "separating_functional_real"]
    dyk_iters = get("kernels.dykstra_chunk", "iterations")
    dyk_flops = sum(s[ATTRS]["iterations"]
                    * flops_per_dykstra_iter(s[ATTRS]["n"])
                    for s in spans if s[NAME] == "kernels.dykstra_chunk")
    m = {
        "numerics.rref.calls": get("numerics.rref", "calls"),
        "numerics.rref.cells": get("numerics.rref", "cells"),
        "numerics.rref.self_s": get("numerics.rref"),
        "numerics.nullspace.calls": get("numerics.nullspace", "calls"),
        "numerics.integer_diagonalize.self_s":
            get("numerics.integer_diagonalize"),
        "polytope.LatticePolytope.calls":
            get("polytope.LatticePolytope", "calls"),
        "polytope.LatticePolytope.self_s": get("polytope.LatticePolytope"),
        "polytope.facets.self_s": get("polytope.facets"),
        "polytope.hull.useful_ratio": ratio(facets_returned, hull_nullspace),
        "polytope.lattice_points.calls":
            get("polytope.lattice_points", "calls"),
        "polytope.lattice_points.points":
            get("polytope.lattice_points", "points"),
        "polytope.lattice_points.self_s": get("polytope.lattice_points"),
        "polytope.h_star.self_s": get("polytope.h_star"),
        "polytope.is_k_normal.self_s": get("polytope.is_k_normal"),
        "polytope.classify.self_s": get("polytope.classify"),
        "polytope.amgm_witness.self_s": get("polytope.amgm_witness"),
        "polytope.polytope_degree.self_s": get("polytope.polytope_degree"),
        "polytope.sublattice_index.self_s": get("polytope.sublattice_index"),
        "variety.model_build.self_s": get("variety.model_build"),
        "variety.epsilon.self_s": get("variety.epsilon"),
        "cones.GramSlice.calls": get("cones.GramSlice", "calls"),
        "cones.GramSlice.self_s": get("cones.GramSlice"),
        "cones.GramSlice.sigma_entries":
            get("cones.GramSlice", "sigma_entries"),
        "cones.sos_check.calls": len(sos),
        "cones.sos_check.self_s": get("cones.sos_check"),
        "cones.sos_check.iterations": get("cones.sos_check", "iterations"),
        "cones.sos_check.full_budget_ratio":
            ratio(get("cones.sos_check", "full_budget"), len(sos)),
        "cones.sos_check.decided_frac": ratio(decided, len(sos)),
        "cones.separation.useful_ratio": ratio(infeasible, psd_under_sos),
        "cones.functional.self_s": get("cones.functional"),
        "cones.extremality_check.self_s": get("cones.extremality_check"),
        "cones.functional.useful_ratio": ratio(
            sum(1 for s in sep if "error" not in s[ATTRS]), len(sep)),
        "kernels.dykstra_chunk.calls": get("kernels.dykstra_chunk", "calls"),
        "kernels.dykstra_chunk.iterations": dyk_iters,
        "kernels.dykstra_chunk.self_s": get("kernels.dykstra_chunk"),
        "kernels.dykstra_chunk.us_per_iter":
            1e6 * ratio(get("kernels.dykstra_chunk"), dyk_iters),
        "kernels.dykstra_chunk.flop_est": dyk_flops,
        "kernels.project_psd.calls": get("kernels.project_psd", "calls"),
        "kernels.project_psd.self_s": get("kernels.project_psd"),
        "witness.attempts": get("witness.choose_hyperplanes", "calls"),
        "cli.main.self_s": get("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    for stage in ("hilbert_witness", "choose_hyperplanes", "fit_h0",
                  "build_f", "delta_search", "certify_not_sos"):
        m["witness.%s.self_s" % stage] = get("witness." + stage)
    return m
