"""Batch command-line front end: one analysis per invocation, JSON in and
out. Exit codes: 0 success, 2 invalid input or flags, 3 computation error
(exhausted retries, inconsistent inputs)."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .cones import sos_check
from .errors import DimensionMismatch, InconsistentModel, MindegError
from .polytope import (
    LatticePolytope,
    _hstar_from_counts,
    amgm_witness,
    classify,
    h_star,
    is_k_normal,
    k_normal_oracle,
    lattice_point_count_oracle,
    real_density,
    sublattice_index,
)
from .variety import (
    QuadraticForm,
    VarietyModel,
    epsilon,
    is_minimal_degree,
    toric_model,
)
from .witness import hilbert_witness


# largest --samples that witness accepts: the sample search keeps 17
# bytes per sample and one block of them, so the ceiling keeps a run near
# 200 MB
MAX_SAMPLES = 10 ** 7


class UsageError(Exception):
    """Invalid request shape; maps to exit code 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindeg",
        description="Sums-of-squares analysis of lattice polytopes and "
                    "embedded varieties (JSON in, JSON out).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_input:
            p.add_argument("--input", required=True,
                           help="path to a JSON file, or inline JSON")
        p.add_argument("--output", help="write the report here instead of "
                                        "stdout")
        return p

    p = add("hstar", "Ehrhart series numerator of a lattice polytope",
            _cmd_hstar)
    p.add_argument("--oracle", action="store_true",
                   help="re-derive the counts by brute force and diff")
    p = add("normal", "k-normality of a lattice polytope", _cmd_normal)
    p.add_argument("--k", type=int, default=2, help="dilation factor "
                                                    "(default 2)")
    p.add_argument("--oracle", action="store_true",
                   help="re-derive by brute force and diff")
    add("classify", "degree-one recognition and positivity verdict",
        _cmd_classify)
    add("density", "sublattice index and real-point density", _cmd_density)
    add("amgm", "nonnegative witness outside the SOS cone, when one exists",
        _cmd_amgm)
    add("epsilon", "quadratic deficiency of a model or polytope",
        _cmd_epsilon)
    add("sos-check", "Gram feasibility of a quadratic form on a model",
        _cmd_sos_check)
    p = add("witness", "nonnegative-not-SOS pipeline on a plane Veronese",
            _cmd_witness, needs_input=False)
    p.add_argument("--d", type=int, default=3, help="Veronese degree "
                                                    "(default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100000,
                   help="sphere samples for the nonnegativity evidence "
                        "(1 to %d, default 100000)" % MAX_SAMPLES)
    return parser


def _load_input(arg):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _polytope(blob) -> LatticePolytope:
    try:
        return LatticePolytope.from_json(blob)
    except (ValueError, TypeError, DimensionMismatch) as ex:
        raise UsageError("invalid polytope JSON: %s" % ex)


def _cmd_hstar(args):
    Q = _polytope(_load_input(args.input))
    hs = h_star(Q)
    rep = {"polytope": Q.to_json(), "h_star": hs.to_json(),
           "hstar_degree": hs.degree, "h2": hs.h2,
           "polytope_degree": hs.degree}
    if args.oracle:
        brute = _hstar_from_counts([lattice_point_count_oracle(Q, k)
                                    for k in range(Q.dim + 1)])
        matches = brute == list(hs.coefficients)
        rep["oracle"] = {"coefficients": brute, "matches": matches}
        if not matches:
            raise InconsistentModel(
                "h* disagrees with the brute-force lattice count")
    return rep


def _cmd_normal(args):
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    Q = _polytope(_load_input(args.input))
    ok, missing = is_k_normal(Q, args.k)
    rep = {"polytope": Q.to_json(), "k": args.k, "k_normal": ok,
           "missing_point": None if missing is None else list(missing)}
    if args.oracle:
        ok2, missing2 = k_normal_oracle(Q, args.k)
        matches = (ok2, missing2) == (ok, missing)
        rep["oracle"] = {
            "k_normal": ok2,
            "missing_point": None if missing2 is None else list(missing2),
            "matches": matches}
        if not matches:
            raise InconsistentModel(
                "k-normality disagrees with the brute-force route")
    return rep


def _cmd_classify(args):
    Q = _polytope(_load_input(args.input))
    return {"polytope": Q.to_json(), "classification": classify(Q).to_json()}


def _cmd_density(args):
    Q = _polytope(_load_input(args.input))
    return {"polytope": Q.to_json(), "sublattice_index": sublattice_index(Q),
            "density": real_density(Q)}


def _cmd_amgm(args):
    Q = _polytope(_load_input(args.input))
    w = amgm_witness(Q)
    return {"polytope": Q.to_json(), "two_normal": w is None,
            "witness": None if w is None else w.to_json()}


def _model_from_blob(blob) -> VarietyModel:
    if not isinstance(blob, dict):
        raise UsageError("expected a JSON object")
    if "vertices" in blob:
        return toric_model(_polytope(blob))
    try:
        return VarietyModel.from_json(blob)
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            OverflowError) as ex:
        raise UsageError("invalid model JSON: %s" % ex)


def _cmd_epsilon(args):
    model = _model_from_blob(_load_input(args.input))
    return {"model": model.name, "n": model.n, "m": model.m, "e": model.e,
            "dim_r2": model.dim_r2, "i2_count": model.i2_count,
            "epsilon": epsilon(model),
            "minimal_degree": is_minimal_degree(model)}


def _cmd_sos_check(args):
    blob = _load_input(args.input)
    if not isinstance(blob, dict) or "model" not in blob \
            or "coefficients" not in blob:
        raise UsageError("sos-check input needs 'model' and 'coefficients'")
    if not isinstance(blob["coefficients"], list):
        raise UsageError("sos-check coefficients must be a JSON list")
    model = _model_from_blob(blob["model"])
    try:
        coeffs = [Fraction(str(c)) for c in blob["coefficients"]]
    except (ValueError, ZeroDivisionError) as ex:
        raise UsageError("invalid coefficient: %s" % ex)
    for raw, c in zip(blob["coefficients"], coeffs):
        # sos_check's input range: floats below 2^1023 in size
        try:
            inside = abs(float(c)) < 2.0 ** 1023
        except OverflowError:
            inside = False
        if not inside:
            raise UsageError("coefficient %s is beyond the float range "
                             "(|c| < 2^1023)" % raw)
    try:
        form = QuadraticForm(model, coeffs)
    except InconsistentModel as ex:
        raise UsageError(str(ex))
    res = sos_check(form)
    return {"model": model.name, "dim_r2": model.dim_r2,
            "result": res.to_json()}


def _cmd_witness(args):
    if args.d < 3:
        raise UsageError("--d must be at least 3")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError("--samples must be between 1 and %d" % MAX_SAMPLES)
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    rep = hilbert_witness(args.d, seed=args.seed, samples=args.samples)
    return rep.to_json()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code) if ex.code else 0
    try:
        report = args.run(args)
    except (UsageError, json.JSONDecodeError, OSError, KeyError, TypeError,
            ValueError, DimensionMismatch) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except MindegError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 3
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            print("error: %s" % ex, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
