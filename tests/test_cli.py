"""End-to-end runs of the command-line entry point via main(argv)."""

import contextlib
import hashlib
import io
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mindeg.polytope
from mindeg import cli
from mindeg.cli import MAX_SAMPLES, main
from mindeg.polytope import (LatticePolytope, SparsePolynomial,
                             cayley_polytope_of_segments, higashitani_simplex,
                             pyramid_over_twice_simplex, reeve_simplex)
from mindeg.variety import veronese_model
from mindeg.witness import certify_not_sos, witness_report_from_json

SQUARE = json.dumps({"ambient_rank": 2,
                     "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
# empty simplex of normalized volume 2; (1,1,1) lies in 2Q but is not a
# sum of two lattice points of Q
TETRA = json.dumps({"ambient_rank": 3,
                    "vertices": [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]]})
# a segment whose chart coordinates lie far beyond int64
HUGE_SEGMENT = {"ambient_rank": 1, "vertices": [[0], [10 ** 30]]}
# a unit triangle translated far beyond int64
FAR = 10 ** 30
FAR_TRIANGLE = {"ambient_rank": 2,
                "vertices": [[FAR, 0], [FAR, 1], [FAR + 1, 0]]}


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_hstar_square(capsys):
    code, out, err = run(capsys, ["hstar", "--input", SQUARE])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["h_star"]["coefficients"] == [1, 1, 0]
    assert rep["hstar_degree"] == 1
    assert rep["h2"] == 0
    assert rep["polytope_degree"] == 1
    LatticePolytope.from_json(rep["polytope"])


def test_hstar_oracle_agrees(capsys):
    code, out, _ = run(capsys, ["hstar", "--input", TETRA, "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["matches"] is True
    assert rep["oracle"]["coefficients"] == rep["h_star"]["coefficients"]


def test_hstar_from_file_matches_inline(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE, encoding="utf-8")
    code1, out1, _ = run(capsys, ["hstar", "--input", str(path)])
    code2, out2, _ = run(capsys, ["hstar", "--input", SQUARE])
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_flag_writes_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, ["hstar", "--input", SQUARE,
                                "--output", str(dest)])
    assert code == 0 and out == ""
    _, direct, _ = run(capsys, ["hstar", "--input", SQUARE])
    assert dest.read_text(encoding="utf-8") == direct


def test_invalid_json_is_exit_2(capsys):
    code, out, err = run(capsys, ["hstar", "--input", "{not json"])
    assert code == 2 and out == "" and "error" in err


def test_missing_key_is_exit_2(capsys):
    code, _, err = run(capsys, ["hstar", "--input", '{"vertices": [[0]]}'])
    assert code == 2 and "polytope" in err


def test_unknown_command_is_exit_2(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, ["hstar", "--input", "/nonexistent/p.json"])
    assert code == 2 and err != ""


def test_normal_square(capsys):
    code, out, _ = run(capsys, ["normal", "--input", SQUARE, "--k", "2",
                                "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 2
    assert rep["k_normal"] is True
    assert rep["missing_point"] is None
    assert rep["oracle"]["matches"] is True


def test_normal_detects_gap(capsys):
    code, out, _ = run(capsys, ["normal", "--input", TETRA, "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["k_normal"] is False
    assert rep["missing_point"] == [1, 1, 1]
    assert rep["oracle"]["matches"] is True


def test_normal_rejects_bad_k(capsys):
    code, _, err = run(capsys, ["normal", "--input", SQUARE, "--k", "0"])
    assert code == 2 and "--k" in err


def test_classify_square(capsys):
    code, out, _ = run(capsys, ["classify", "--input", SQUARE])
    assert code == 0
    rep = json.loads(out)["classification"]
    assert rep["two_normal"] is True
    assert rep["h2_zero"] is True
    assert rep["pos_equals_sos"] == "Equal"


def test_density_square(capsys):
    code, out, _ = run(capsys, ["density", "--input", SQUARE])
    assert code == 0
    rep = json.loads(out)
    assert rep["sublattice_index"] == 1
    assert rep["density"] == "Dense"


def test_amgm_two_normal_has_no_witness(capsys):
    code, out, _ = run(capsys, ["amgm", "--input", SQUARE])
    assert code == 0
    rep = json.loads(out)
    assert rep["two_normal"] is True and rep["witness"] is None


def test_amgm_witness_round_trips(capsys):
    code, out, _ = run(capsys, ["amgm", "--input", TETRA])
    assert code == 0
    rep = json.loads(out)
    assert rep["two_normal"] is False
    poly = SparsePolynomial.from_json(rep["witness"])
    assert poly.terms


def test_epsilon_from_polytope(capsys):
    code, out, _ = run(capsys, ["epsilon", "--input", SQUARE])
    assert code == 0
    rep = json.loads(out)
    assert (rep["n"], rep["m"], rep["e"]) == (3, 2, 1)
    assert rep["epsilon"] == 0
    assert rep["minimal_degree"] is True


def test_epsilon_from_model_json(capsys):
    blob = json.dumps(veronese_model(2, 2).to_json())
    code, out, _ = run(capsys, ["epsilon", "--input", blob])
    assert code == 0
    rep = json.loads(out)
    assert (rep["n"], rep["m"]) == (5, 2)
    assert rep["epsilon"] == 0 and rep["minimal_degree"] is True


def test_sos_check_certificate(capsys):
    model = veronese_model(1, 2)
    blob = json.dumps({"model": model.to_json(),
                       "coefficients": ["1", "0", "1", "0", "1"]})
    code, out, _ = run(capsys, ["sos-check", "--input", blob])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["status"] == "Certificate"
    assert rep["dim_r2"] == 5


def test_sos_check_has_no_tolerance_flag(capsys):
    # the form is negative everywhere; a loose PSD tolerance once passed it
    # as a Certificate, so the flag is gone and the library default decides
    model = veronese_model(1, 2)
    blob = json.dumps({"model": model.to_json(), "coefficients": ["-1"] * 5})
    for tol in ("inf", "1e9", "nan", "-1"):
        code, out, err = run(capsys, ["sos-check", "--input", blob,
                                      "--tol", tol])
        assert code == 2 and out == "" and "--tol" in err
    code, out, _ = run(capsys, ["sos-check", "--input", blob])
    assert code == 0
    assert json.loads(out)["result"]["status"] == "Infeasible"


def test_sos_check_rejects_bad_count(capsys):
    model = veronese_model(1, 2)
    blob = json.dumps({"model": model.to_json(), "coefficients": ["1"]})
    code, _, err = run(capsys, ["sos-check", "--input", blob])
    assert code == 2 and err != ""


@pytest.mark.parametrize("coeff", ["1e400", "-1e400", 2 ** 1023,
                                   -2 ** 1023 + 2 ** 969])
def test_sos_check_rejects_coefficients_beyond_float_range(capsys, coeff):
    # "1e400" once ended in an OverflowError traceback from float(c)
    model = veronese_model(1, 2)
    coeffs = [coeff] + ["0"] * (model.dim_r2 - 1)
    blob = json.dumps({"model": model.to_json(), "coefficients": coeffs})
    code, out, err = run(capsys, ["sos-check", "--input", blob])
    assert code == 2 and out == ""
    assert str(coeff) in err and "Traceback" not in err


def test_sos_check_accepts_the_largest_coefficients(capsys):
    model = veronese_model(1, 2)
    # the largest float below 2^1023
    coeffs = [str(2 ** 1023 - 2 ** 970)] + ["0"] * (model.dim_r2 - 1)
    blob = json.dumps({"model": model.to_json(), "coefficients": coeffs})
    code, out, _ = run(capsys, ["sos-check", "--input", blob])
    assert code == 0
    assert json.loads(out)["result"]["status"] == "Certificate"


def test_sos_check_needs_both_keys(capsys):
    code, _, err = run(capsys, ["sos-check", "--input", '{"model": {}}'])
    assert code == 2 and "coefficients" in err


def test_witness_command(capsys):
    argv = ["witness", "--d", "3", "--seed", "7", "--samples", "2000"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    assert "certificate" not in rep
    report = witness_report_from_json(rep)
    assert report.delta > 0 and certify_not_sos(report) is True
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0 and out2 == out


# SHA-256 of the exact part of `mindeg witness --d D --seed S`: the JSON
# less its only float fields, nonneg_evidence (sphere sampling) and, at
# d = 3, functional_checks.moment_min_eig (an eigenvalue), dumped with
# sorted keys. Every other field is exact, and a fixed seed fixes it byte
# for byte.
WITNESS_EXACT_SHA256 = {
    (3, 7): "3f8221ba0f9fde3574abff1c9b8eb59e2752d07117ed5039fd621e2c9bd4dad4",
    (4, 1): "641a96e091b9de695fa12271a1bc551e5930ae31237755fc4c83df0116f58a48",
    (5, 2): "e23685bfd74a755a9906ba8d4430cf20ce7f6590711425422b4d3f98e34cc328",
    (6, 1): "7e235493364a73d21b99556b2f9f2b28ff8f2cb57e09a998db1ff415d9867e54",
    # attempt 1: fit_h0 exhausts its draws on attempt 0
    (4, 219): "5870197669e9c7faaa6f78ed3d23600c16765e5c102fe88d462d55241b6eb1b0",
}


@pytest.mark.parametrize("d,seed", sorted(WITNESS_EXACT_SHA256))
def test_witness_exact_output_is_pinned(capsys, d, seed):
    code, out, _ = run(capsys, ["witness", "--d", str(d),
                                "--seed", str(seed)])
    assert code == 0
    blob = json.loads(out)
    del blob["nonneg_evidence"]
    if blob["functional_checks"] is not None:
        del blob["functional_checks"]["moment_min_eig"]
    digest = hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert digest == WITNESS_EXACT_SHA256[(d, seed)]


def _pinned_polytopes():
    """Named polytopes of the benchmark corpus, a sheared one, and three
    lower-dimensional embeddings (a doubled triangle at height 1, a unit
    square and a Reeve simplex on skew planes of Z^4)."""
    polys = [reeve_simplex(q) for q in range(1, 7)]
    polys += [higashitani_simplex(m, k) for m in (3, 5) for k in (1, 2, 3)]
    polys += [pyramid_over_twice_simplex(m) for m in (2, 3, 4)]
    polys += [cayley_polytope_of_segments(d)
              for d in [(1, 2), (0, 1, 3), (2, 2, 3), (1, 1, 2, 2)]]
    polys.append(LatticePolytope(3, [(0, 0, 2), (1, 4, 0), (2, 0, 4),
                                     (2, 4, 2), (3, 4, 2), (4, 1, 0),
                                     (4, 3, 4)]))
    polys.append(LatticePolytope(3, [(0, 0, 1), (2, 0, 1), (0, 2, 1)]))
    polys.append(LatticePolytope(4, [(1, 0, 2, 1), (2, 1, 2, 0),
                                     (0, 1, 3, 2), (1, 2, 3, 1)]))
    polys.append(LatticePolytope(4, [(1, -1, 0, 2), (1, 0, 1, 2),
                                     (2, -1, 1, 3), (5, 3, 5, 3)]))
    return [json.dumps(Q.to_json()) for Q in polys]


# SHA-256 of the stdout of each polytope command over _pinned_polytopes(),
# one output after another; classify less classification.model_map, which
# is the one field that depends on the lattice chart's basis.
POLYTOPE_OUTPUT_SHA256 = {
    "amgm":
        "746d528b998e52e4ff7757610b266890bcf70c23857ca7926a9811fea2ff1a8a",
    "classify":
        "13660369376687c16e7d92e835d7af24a4268aeb74e9256bdcf27c70e288353f",
    "density":
        "dc827e32eedfa66e8ced631a980d30dec6f0d026b37370e261392dad48f62c7b",
    "epsilon":
        "d2a190c086c95be81c270de568512c5b66cb1de87d9618140053666871a89ff9",
    "hstar":
        "4026bc40724d578e250b93da55a45906e27be972511e47e3772851cf15ac0f40",
    "normal":
        "5c70894ffcaec09e25f3eab2cb1bf7aafd5194ff508ac85f87c84757f6fe065f",
}


@pytest.mark.parametrize("command", sorted(POLYTOPE_OUTPUT_SHA256))
def test_polytope_output_is_pinned(capsys, command):
    extra = ["--k", "2"] if command == "normal" else []
    h = hashlib.sha256()
    for text in _pinned_polytopes():
        code, out, _ = run(capsys, [command, "--input", text] + extra)
        assert code == 0
        if command == "classify":
            blob = json.loads(out)
            del blob["classification"]["model_map"]
            out = json.dumps(blob, sort_keys=True, indent=2) + "\n"
        h.update(out.encode())
    assert h.hexdigest() == POLYTOPE_OUTPUT_SHA256[command]


def test_witness_rejects_small_degree(capsys):
    code, _, err = run(capsys, ["witness", "--d", "2"])
    assert code == 2 and "--d" in err


def test_witness_sample_ceiling(capsys, monkeypatch):
    asked = []

    class Stub:
        def to_json(self):
            return {}

    def pipeline(d, seed, samples):
        asked.append(samples)
        return Stub()

    # the stub stands in for the pipeline: a count past the check would
    # otherwise try to allocate it
    monkeypatch.setattr(cli, "hilbert_witness", pipeline)
    for count in (10 ** 12, MAX_SAMPLES + 1, 0):
        tracemalloc.start()
        code, out, err = run(capsys, ["witness", "--samples", str(count)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 2 and out == "" and "--samples" in err
        assert peak < 1 << 20
    assert asked == []
    code, _, _ = run(capsys, ["witness", "--samples", str(MAX_SAMPLES)])
    assert code == 0 and asked == [MAX_SAMPLES]


def test_witness_negative_seed_exits_2(capsys, monkeypatch):
    # numpy's own message for a negative seed does not name the flag
    asked = []
    monkeypatch.setattr(cli, "hilbert_witness",
                        lambda *args, **kwargs: asked.append(args))
    code, out, err = run(capsys, ["witness", "--seed", "-1"])
    assert code == 2 and out == "" and "--seed" in err
    assert asked == []


def test_classify_cayley_segments_exit_0(capsys):
    # the affine-equivalence search used to feed fractional candidate maps
    # to the integer determinant and crash on these
    polys = [cayley_polytope_of_segments(d).to_json()
             for d in [(3, 3), (0, 2, 2), (0, 2, 3), (0, 3, 3), (2, 3, 3),
                       (3, 3, 3)]]
    polys.append({"ambient_rank": 2,
                  "vertices": [[3, 0], [3, 3], [4, 2], [4, 4]]})
    for poly in polys:
        code, out, err = run(capsys, ["classify", "--input", json.dumps(poly)])
        assert code == 0, err
        rep = json.loads(out)["classification"]
        assert rep["family"] == "CayleySegments"


def test_parser_reused_across_calls(capsys):
    # the argparse tree is built once per process: a rejected argv must not
    # leave state behind for the next call
    valid = ["normal", "--input", SQUARE]
    code1, out1, _ = run(capsys, valid)
    code2, out2, err2 = run(capsys, ["normal", "--k", "3", "--input"])
    code3, out3, _ = run(capsys, valid)
    assert (code1, code2, code3) == (0, 2, 0)
    assert out2 == "" and "--input" in err2
    assert out3.encode() == out1.encode()
    assert json.loads(out1)["k"] == 2


@pytest.mark.parametrize("blob", [
    {"ambient_rank": 1, "vertices": [[3], [1.5]]},
    {"ambient_rank": 1, "vertices": [[3], [2.0]]},
    {"ambient_rank": 1, "vertices": [[3], [1e300]]},
    {"ambient_rank": 1, "vertices": [[3], [True]]},
    {"ambient_rank": 2.0, "vertices": [[0, 0], [1, 0], [0, 1]]},
    {"ambient_rank": True, "vertices": [[0], [1]]},
    {"ambient_rank": 1, "vertices": [[0], "1"]},
], ids=["half", "integral-float", "1e300", "bool-coord", "float-rank",
        "bool-rank", "string-vertex"])
@pytest.mark.parametrize("command", ["hstar", "classify", "epsilon"])
def test_polytope_json_rejects_non_integers(capsys, command, blob):
    # a float must not be truncated ([[3], [1.5]] is not [[3], [1]]) or
    # overflow (1e300), and 2.0 is not an integer rank
    code, out, err = run(capsys, [command, "--input", json.dumps(blob)])
    assert code == 2 and out == ""
    assert "integer" in err and "Traceback" not in err


_SCROLL = {"m": 1, "r1_basis": ["a", "b", "c"],
           "i2_basis": [["0", "0", "1", "0", "-1", "0", "1", "0", "0"]]}


@pytest.mark.parametrize("blob", [
    {"m": 1, "r1_basis": [[0], [1.7]]},
    {"m": 1, "r1_basis": [[0], [True]]},
    {"m": 1.9, "r1_basis": [[0], [1]]},
    {"m": True, "r1_basis": [[0], [1]]},
    {"m": 1, "r1_basis": [[0], [1], [1]]},
    {"m": 1, "r1_basis": [[0], [1, 0]]},
    {"m": 1, "r1_basis": [[0], [10 ** 30]]},
    {"m": 1, "r1_basis": "abc", "i2_basis": []},
    dict(_SCROLL, r1_basis=["a", ["b"], "c"]),
    dict(_SCROLL, i2_basis=[["0", "0", "1"]]),
    dict(_SCROLL, i2_basis=[["0", "0", 1.0, "0", "-1", "0", "1", "0", "0"]]),
    dict(_SCROLL, i2_basis=[["1/0"] * 9]),
    dict(_SCROLL, i2_basis="0"),
    {"m": 0, "r1_basis": [[0], [1], [2]]},
    {"m": 1, "r1_basis": [[0, 0], [1, 0], [0, 1]]},
    {"m": -1, "r1_basis": [[0], [1], [2]]},
    dict(_SCROLL, m=-1),
    dict(_SCROLL, m=-2),
    dict(_SCROLL, m=3),
    {"m": 1, "r1_basis": [[0], [1], [2]], "name": [1, 2]},
    dict(_SCROLL, name=7),
    {"m": 1, "r1_basis": ["a", "a", "b"], "i2_basis": []},
    {"m": 1, "n": 7, "r1_basis": [[0], [1], [2]]},
    {"m": 1, "r1_basis": [[0], [1], [2]],
     "i2_basis": [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0, 0]]},
    {"m": 1, "n": "x", "r1_basis": ["a", "b", "c"], "i2_basis": []},
    {"m": 1, "r1_basis": ["a", "b"], "i2_basis": [[1, 0, 0, 0]]},
    {"m": 0, "r1_basis": ["a", "b"],
     "i2_basis": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]},
    {"m": 0, "r1_basis": ["a"]},
], ids=["float-row", "bool-row", "float-m", "bool-m", "duplicate-rows",
        "ragged-rows", "huge-exponent", "string-basis", "list-label",
        "short-i2-row", "float-i2-entry", "zero-denominator", "string-i2",
        "toric-m-below-rank", "toric-m-below-plane", "toric-m-negative",
        "labelled-m-negative", "labelled-m-minus-two",
        "labelled-m-above-n", "toric-list-name", "labelled-int-name",
        "duplicate-labels", "toric-wrong-n", "toric-foreign-i2",
        "labelled-string-n", "labelled-negative-epsilon",
        "labelled-zero-r2", "labelled-no-i2"])
@pytest.mark.parametrize("command", ["epsilon", "sos-check"])
def test_model_json_rejects_malformed_input(capsys, command, blob):
    # a float must not be truncated ([[0], [1.7]] is not [[0], [1]]), a
    # duplicate row must not change n, a short i2_basis row must not index
    # out of range, and m must be the affine rank of toric rows (0..n for
    # labels): a wrong m once gave a wrong epsilon with exit 0. A non-string
    # name was once echoed as the model, and repeated labels were accepted;
    # an n that is not len(r1_basis) - 1 and a toric i2_basis outside the
    # model's I_2 were once ignored. A labelled model with more independent
    # quadrics than C(e + 1, 2) once got a sos-check verdict, or a crash
    # when R_2 = 0
    if command == "sos-check":
        blob = {"model": blob, "coefficients": []}
    code, out, err = run(capsys, [command, "--input", json.dumps(blob)])
    assert code == 2 and out == ""
    assert "invalid model JSON" in err and "Traceback" not in err


def test_labelled_model_without_i2_basis_says_so(capsys):
    # a missing i2_basis was once reported as malformed i2_basis rows
    code, out, err = run(capsys, ["epsilon", "--input",
                                  '{"r1_basis": ["a"], "m": 0}'])
    assert code == 2 and out == ""
    assert "a labelled model needs i2_basis ([] for none)" in err


def test_model_json_accepts_the_scroll(capsys):
    code, out, _ = run(capsys, ["epsilon", "--input", json.dumps(_SCROLL)])
    assert code == 0
    assert json.loads(out)["epsilon"] == 0


def test_sos_check_where_a_relation_kills_a_pair(capsys):
    # x0 x1 = 0 leaves that pair an empty column, whose moment entry is 0;
    # the moment matrix once failed to unpack it and exited 2
    model = {"m": 1, "r1_basis": ["a", "b", "c"],
             "i2_basis": [[0, 1, 0, 1, 0, 0, 0, 0, 0]]}
    for sign, status in (("-1", "Infeasible"), ("1", "Certificate")):
        blob = json.dumps({"model": model,
                           "coefficients": [sign, "0", "0", "0", "0"]})
        code, out, err = run(capsys, ["sos-check", "--input", blob])
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["status"] == status


def test_sos_check_coefficients_must_be_a_list(capsys):
    # the string "121" once read as the coefficients [1, 2, 1]
    blob = json.dumps({"model": veronese_model(1, 2).to_json(),
                       "coefficients": "10101"})
    code, out, err = run(capsys, ["sos-check", "--input", blob])
    assert code == 2 and out == "" and "list" in err


def test_hstar_segment_in_chunks(capsys, monkeypatch):
    # a one-dimensional box scan too long for one block once stacked an
    # empty meshgrid and exited 2
    monkeypatch.setattr(mindeg.polytope, "_SCAN_CHUNK", 4)
    blob = json.dumps({"ambient_rank": 1, "vertices": [[0], [30]]})
    code, out, err = run(capsys, ["hstar", "--input", blob])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["h_star"]["coefficients"] == [1, 29]
    assert rep["polytope_degree"] == rep["hstar_degree"] == 1


@pytest.mark.parametrize("command", ["hstar", "normal", "classify", "amgm",
                                     "epsilon"])
def test_coordinates_beyond_int64_exit_2(capsys, command):
    # once an uncaught OverflowError from the int64 box scan; the sums
    # behind normal, classify and amgm stop at the same scan of kQ
    code, out, err = run(capsys, [command, "--input",
                                  json.dumps(HUGE_SEGMENT)])
    assert code == 2 and out == ""
    assert "2^62" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["normal", "classify", "amgm", "epsilon"])
def test_far_translated_polytope_answers_as_at_the_origin(capsys, command):
    # once an OverflowError traceback from the int64 sumset and toric model
    near = {"ambient_rank": 2, "vertices": [[0, 0], [0, 1], [1, 0]]}
    code, out, err = run(capsys, [command, "--input", json.dumps(near)])
    assert code == 0
    want = json.loads(out)
    code, out, err = run(capsys, [command, "--input",
                                  json.dumps(FAR_TRIANGLE)])
    assert code == 0 and err == ""
    got = json.loads(out)
    # ambient coordinates shifted back by (FAR, 0)
    if "polytope" in got:
        got["polytope"]["vertices"] = [
            [x - FAR, y] for x, y in got["polytope"]["vertices"]]
    if command == "classify":
        got["classification"]["model_map"]["translation"][0] -= FAR
    assert got == want


def test_far_translated_gap_keeps_its_missing_point(capsys):
    far = {"ambient_rank": 3,
           "vertices": [[FAR + x, y, z] for x, y, z in json.loads(TETRA)[
               "vertices"]]}
    code, out, _ = run(capsys, ["normal", "--input", json.dumps(far)])
    assert code == 0
    assert json.loads(out)["missing_point"] == [2 * FAR + 1, 1, 1]


@pytest.mark.parametrize("x", [2 ** 62 - 1, 2 ** 62, 10 ** 30])
def test_sumset_at_the_int64_edge(capsys, x):
    # a primitive segment: two lattice points, whose ambient sum leaves
    # int64 from x = 2^62, while the sums run on the chart rows 0, 1, 2
    blob = {"ambient_rank": 2, "vertices": [[0, 0], [x, 1]]}
    code, out, err = run(capsys, ["normal", "--oracle", "--input",
                                  json.dumps(blob)])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["k_normal"] is True and rep["missing_point"] is None
    assert rep["oracle"]["matches"] is True


def test_classify_single_point_exit_0(capsys):
    # recognition needs dimension >= 1: a point stays ImageOfModel
    point = json.dumps({"ambient_rank": 2, "vertices": [[3, 1]]})
    code, out, err = run(capsys, ["classify", "--input", point])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["polytope"]["vertices"] == [[3, 1]]
    assert rep["classification"]["h2_zero"] is True
    assert rep["classification"]["family"] == "ImageOfModel"


POINT_MODELS = [{"ambient_rank": 1, "vertices": [[3]]},
                {"ambient_rank": 3, "vertices": [[1, -2, 5]]},
                {"m": 0, "r1_basis": [[]]}]


@pytest.mark.parametrize("blob", POINT_MODELS)
def test_epsilon_of_a_point_is_p0(capsys, blob):
    # the model of one point is P^0: a single pair x_0 x_0, no relation
    code, out, err = run(capsys, ["epsilon", "--input", json.dumps(blob)])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert (rep["n"], rep["m"], rep["e"]) == (0, 0, 0)
    assert (rep["dim_r2"], rep["i2_count"], rep["epsilon"]) == (1, 0, 0)
    assert rep["minimal_degree"] is True


@pytest.mark.parametrize("blob", POINT_MODELS)
@pytest.mark.parametrize("coeff,status,gram", [
    (1, "Certificate", [[{"num": "1", "den": "1"}]]),
    (-1, "Infeasible", None),
    (0, "Certificate", [[{"num": "0", "den": "1"}]])])
def test_sos_check_on_a_point(capsys, blob, coeff, status, gram):
    code, out, err = run(capsys, ["sos-check", "--input", json.dumps(
        {"model": blob, "coefficients": [coeff]})])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["dim_r2"] == 1
    assert rep["result"]["status"] == status
    assert rep["result"]["gram"] == gram


_COORD = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                   st.integers(-3, 3), st.floats(allow_nan=False),
                   st.booleans(), st.none(), st.text(max_size=2))
_POLYTOPE_BLOB = st.one_of(
    st.fixed_dictionaries({
        "ambient_rank": st.one_of(st.integers(-1, 3), st.integers(1, 3),
                                  st.floats(0, 4), st.booleans()),
        "vertices": st.lists(st.lists(_COORD, max_size=3), max_size=5),
    }),
    st.fixed_dictionaries({
        "ambient_rank": st.integers(1, 4),
        "vertices": st.lists(st.lists(st.integers(-3, 3), min_size=1,
                                      max_size=4), min_size=1, max_size=6),
    }),
    st.lists(st.integers(0, 3), max_size=3),
    st.fixed_dictionaries({"vertices": st.just([[0], [1]])}),
)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["hstar", "normal", "classify", "density",
                                "amgm", "epsilon"]),
       blob=_POLYTOPE_BLOB)
@example(command="hstar", blob=HUGE_SEGMENT)
@example(command="epsilon", blob=HUGE_SEGMENT)
@example(command="normal", blob=FAR_TRIANGLE)
@example(command="classify", blob=FAR_TRIANGLE)
@example(command="amgm", blob=FAR_TRIANGLE)
@example(command="epsilon", blob=FAR_TRIANGLE)
def test_polytope_commands_never_crash(command, blob):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", json.dumps(blob)])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() != "") == (code == 0)


_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                   st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", ""]),
                   st.floats(allow_nan=False), st.booleans(), st.none())
_MODEL_BLOB = st.one_of(
    st.fixed_dictionaries({
        "m": st.one_of(st.integers(-1, 3), st.floats(0, 3), st.booleans()),
        "r1_basis": st.lists(st.lists(_ENTRY, max_size=3), max_size=5),
    }),
    st.fixed_dictionaries({
        "m": st.integers(0, 3),
        "r1_basis": st.lists(st.lists(st.integers(-2, 2), min_size=2,
                                      max_size=2), min_size=1, max_size=5),
    }),
    st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
        "m": st.one_of(st.integers(-1, 3), st.floats(0, 3)),
        "r1_basis": st.lists(st.one_of(st.text(max_size=2), st.integers()),
                             min_size=n, max_size=n),
        "i2_basis": st.lists(st.lists(_ENTRY, min_size=n * n - 1,
                                      max_size=n * n), max_size=3),
    })),
    st.fixed_dictionaries({"m": st.integers(0, 2), "r1_basis": st.just([])}),
)


@settings(max_examples=200, deadline=None)
@given(blob=_MODEL_BLOB)
def test_epsilon_on_model_json_never_crashes(blob):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["epsilon", "--input", json.dumps(blob)])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() != "") == (code == 0)
