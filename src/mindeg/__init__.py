"""Deciding nonnegativity-versus-sums-of-squares for quadratic forms on
embedded real projective varieties and for sparse polynomials with prescribed
Newton polytope, with machine-checkable certificates on both sides.
"""

from .cones import (DualFunctional, GramSlice, SosResult, extremality_check,
                    interpolant_through_points, kernel_dimension, moment_psd,
                    pair_with_square, separating_functional_real, sos_check)
from .errors import (DegeneratePosition, DimensionMismatch,
                     InconsistentModel, MindegError, NoDeltaFound,
                     RetryExhausted)
from .polytope import (ClassificationReport, HStar, LatticePolytope,
                       SparsePolynomial, amgm_witness,
                       cayley_polytope_of_segments, classify, h_star,
                       higashitani_simplex, is_k_normal, lattice_points,
                       polytope_degree, pyramid_over_twice_simplex,
                       real_density, reeve_simplex, simplex, sublattice_index)
from .variety import (QuadraticForm, VarietyModel, epsilon,
                      is_minimal_degree, scroll_model, segre_veronese_model,
                      toric_model, toric_model_from_points,
                      veronese_cone_model, veronese_model)
from .witness import (WitnessReport, build_f, certify_not_sos,
                      choose_hyperplanes, delta_search, fit_h0,
                      hilbert_witness, sample_nonnegativity,
                      witness_report_from_json)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport", "DegeneratePosition", "DimensionMismatch",
    "DualFunctional", "GramSlice", "HStar", "InconsistentModel",
    "LatticePolytope", "MindegError", "NoDeltaFound", "QuadraticForm",
    "RetryExhausted", "SosResult", "SparsePolynomial", "VarietyModel",
    "WitnessReport", "amgm_witness", "build_f", "cayley_polytope_of_segments",
    "certify_not_sos", "choose_hyperplanes", "classify",
    "delta_search", "epsilon", "extremality_check", "fit_h0", "h_star",
    "higashitani_simplex", "hilbert_witness", "interpolant_through_points",
    "is_k_normal", "is_minimal_degree", "kernel_dimension", "lattice_points",
    "moment_psd", "pair_with_square", "polytope_degree",
    "pyramid_over_twice_simplex", "real_density", "reeve_simplex",
    "sample_nonnegativity", "scroll_model", "segre_veronese_model",
    "separating_functional_real", "simplex", "sos_check", "sublattice_index",
    "toric_model", "toric_model_from_points", "veronese_cone_model",
    "veronese_model", "witness_report_from_json",
]
