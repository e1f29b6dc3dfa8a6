"""Numerical workbench for the U(1)-current and Virasoro chiral algebras."""

from .fnspace import (
    SIGMA_NORM,
    CircleFourier,
    LineIntegralResult,
    LineObject,
    PiecewiseLinearCircle,
    Weight,
    derivative,
    dilate_line,
    fourier_project,
    g_limit,
    gn_family,
    line_integral,
    pointwise_product,
    sigma,
    sobolev_half_sq,
    translate_line,
    vectorfield_line_integral_f3g,
)
from .fock import FockVector, apply_current, apply_mode, inner, vacuum
from .states import GroundStateParams, WeylWord
from .sugawara import apply_stress_circle, apply_virasoro_mode

__all__ = [
    "SIGMA_NORM",
    "CircleFourier",
    "FockVector",
    "GroundStateParams",
    "LineIntegralResult",
    "LineObject",
    "PiecewiseLinearCircle",
    "Weight",
    "WeylWord",
    "apply_current",
    "apply_mode",
    "apply_stress_circle",
    "apply_virasoro_mode",
    "derivative",
    "dilate_line",
    "fourier_project",
    "g_limit",
    "gn_family",
    "inner",
    "line_integral",
    "pointwise_product",
    "sigma",
    "sobolev_half_sq",
    "translate_line",
    "vacuum",
    "vectorfield_line_integral_f3g",
]
