"""Exact wavelet-set and super-wavelet verification on local fields of
positive characteristic GF(q)((p)).

All arithmetic is exact: field elements are finite-support Laurent series,
measures are rationals, and character values live in the cyclotomic field
Q(zeta_p), times q**(g/2) with half-grade g of 0 or 1: the dilation factors
q**(j/2) fold their even part into the rational coordinates, so each value
has one representation.
"""

from .clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from .cyclo import CycloScalar, GradeMismatch
from .gfq import ConfigMismatch, FieldConfig, FqElement
from .lfield import (
    FieldElement,
    character,
    coset_index,
    coset_rep,
    format_element,
    parse_element,
    split_integral,
)
from .stepfn import StepFunction, common_refinement, periodized_weight

__all__ = [
    "Ball",
    "ClopenSet",
    "ConfigMismatch",
    "CycloScalar",
    "FieldConfig",
    "FieldElement",
    "FqElement",
    "GradeMismatch",
    "StepFunction",
    "character",
    "common_refinement",
    "coset_index",
    "coset_rep",
    "format_element",
    "fractional_ideal",
    "integers",
    "parse_element",
    "periodized_weight",
    "shell",
    "split_integral",
    "units",
]

__version__ = "0.1.0"
