"""Nonstabilizer quantum codes from Fourier descriptions of Gottesman subgroups."""

from .fourier_code import (
    FourierDescription,
    Report,
    bounds,
    code_dimension,
    greedy_construct,
    projection_coefficients,
    verify_distance,
)
from .galois import PrimeField, error_sphere_count, gaussian_binomial
from .gottesman import (
    GottesmanSpec,
    forbidden_set,
    purity_radius,
    synthesize_phase_matrix,
    validate,
)
from .oracle import SparseState, apply, codeword, kl_check, orthonormality_check
from .weyl import AlphabetGroup, WeylElement, compose, gamma, inverse, prime_group

__version__ = "0.1.0"

__all__ = [
    "AlphabetGroup",
    "FourierDescription",
    "GottesmanSpec",
    "PrimeField",
    "Report",
    "SparseState",
    "WeylElement",
    "apply",
    "bounds",
    "code_dimension",
    "codeword",
    "compose",
    "error_sphere_count",
    "forbidden_set",
    "gamma",
    "gaussian_binomial",
    "greedy_construct",
    "inverse",
    "kl_check",
    "orthonormality_check",
    "prime_group",
    "projection_coefficients",
    "purity_radius",
    "synthesize_phase_matrix",
    "validate",
    "verify_distance",
]
