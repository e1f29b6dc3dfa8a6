"""Virasoro modes via the normal-ordered quadratic (Sugawara) construction.

L_n is applied as the finite sum over unordered index pairs (j, k), j <= k,
j + k = n, acting annihilator-first; on a level-truncated vector only
finitely many pairs contribute, so the algebra checks are exact up to
floating rounding.

The perturbed stress tensor carries an internal coupling KAPPA_SCALE * kappa
on the current term so that the resulting central charge is exactly
1 + kappa^2 in this mode normalization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from . import fock
from .fnspace import (
    SIGMA_NORM,
    CircleFourier,
    LineObject,
    QuadratureSpec,
    Weight,
    derivative,
    multiply_by_t,
    pointwise_product,
    sigma,
    vectorfield_line_integral_f3g,
)
from .fock import FockVector, apply_current, apply_mode, vec_add, vec_scale

# Coupling of the current term in the perturbed stress tensor; with
# [J_m, J_n] = m delta the perturbation (kappa/sqrt(12)) J(f') shifts the
# central charge from 1 to exactly 1 + kappa^2.
KAPPA_SCALE = 1.0 / math.sqrt(12.0)


def apply_virasoro_mode(n: int, v: FockVector) -> FockVector:
    """L_n = (1/2) sum_m :J_{-m} J_{n+m}: applied as a finite pair sum."""
    out = FockVector(v.cutoff, {}, v.safe_level)
    kmin = -((-n) // 2)  # ceil(n/2)
    kmax = max(0, v.level_max())
    for k in range(kmin, kmax + 1):
        j = n - k
        if j == 0 or k == 0:
            continue
        weight = 0.5 if j == k else 1.0
        term = apply_mode(j, apply_mode(k, v))
        out = vec_add(out, vec_scale(weight, term))
    return out


def apply_stress_circle(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared stress tensor T(f) = sum_n c_n L_n."""
    out = FockVector(v.cutoff, {}, v.safe_level)
    for n in range(-f.max_mode, f.max_mode + 1):
        c = f.coeff(n)
        if c == 0:
            continue
        out = vec_add(out, vec_scale(c, apply_virasoro_mode(n, v)))
    return out


def line_derivative_repr(
    F: LineObject, M: int = None, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[CircleFourier, float]:
    """Circle representative of the line derivative of the pushforward of F.

    For F(t) = ((t^2+1)/2) h(theta(t)) one has F'(t) = t h + h' pointwise on
    the circle; the t-multiplication is re-projected with reported residual.
    """
    h = F.circle_repr
    if not isinstance(h, CircleFourier):
        raise TypeError("vector field must carry a Fourier representative")
    if M is None:
        M = 2 * h.max_mode + 2
    th_part, resid = multiply_by_t(h, M, quad)
    return th_part + derivative(h).pad(M), resid


def apply_stress_line(
    F: LineObject,
    kappa: float,
    v: FockVector,
    M: int = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[FockVector, float]:
    """Perturbed stress tensor on a vector field: T(h) + kappa-scaled J(F').

    Returns the image vector and the projection residual of the current term.
    """
    if F.weight is not Weight.VECTOR_FIELD:
        raise ValueError("apply_stress_line expects a vector field")
    h = F.circle_repr
    out = apply_stress_circle(h, v)
    if kappa == 0.0:
        return out, 0.0
    phi, resid = line_derivative_repr(F, M, quad)
    out = vec_add(out, vec_scale(KAPPA_SCALE * kappa, apply_current(phi, v)))
    return out, resid


def virasoro_residual(m: int, n: int, N: int, drop_central: bool = False) -> float:
    """Max residual of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m+n,0}.

    The central term is the scalar at c = 1; drop_central omits it for
    mutation testing.
    """
    window = N - abs(m) - abs(n)
    if window < 0:
        raise ValueError("window too small")
    worst = 0.0
    central = 0.0 if drop_central or m + n != 0 else (m**3 - m) / 12.0
    for p in fock.basis_partitions(window):
        v = fock.basis_vector(N, p)
        r = vec_add(
            apply_virasoro_mode(m, apply_virasoro_mode(n, v)),
            vec_scale(-1.0, apply_virasoro_mode(n, apply_virasoro_mode(m, v))),
        )
        r = vec_add(r, vec_scale(-(float(m - n)), apply_virasoro_mode(m + n, v)))
        if central != 0.0:
            r = vec_add(r, vec_scale(-central, v))
        worst = max(worst, fock.norm(r) / fock.norm(v))
    return worst


def mixed_relation_residual(f: CircleFourier, g: CircleFourier, N: int) -> float:
    """Max residual of [T(f), J(g)] = i J(f g') over the exactness window."""
    window = N - 2 * (f.max_mode + g.max_mode)
    if window < 0:
        raise ValueError("window too small")
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    worst = 0.0
    for p in fock.basis_partitions(window):
        v = fock.basis_vector(N, p)
        r = vec_add(
            apply_stress_circle(f, apply_current(g, v)),
            vec_scale(-1.0, apply_current(g, apply_stress_circle(f, v))),
        )
        r = vec_add(r, vec_scale(-1j, apply_current(fgp, v)))
        worst = max(worst, fock.norm(r) / fock.norm(v))
    return worst


def central_charge_estimate(
    F: LineObject,
    G: LineObject,
    kappa: float,
    N: int,
    quad: QuadratureSpec = QuadratureSpec(),
    M: int = None,
    min_denominator: float = 1e-6,
) -> float:
    """Estimate the central charge from the vacuum bracket of stress tensors.

    c_est = 12 * SIGMA_NORM * <vac, [T^k(F), T^k(G)] vac> / (i * int F''' G dt);
    the vacuum expectation of the stress-tensor part of the bracket vanishes,
    leaving the central scalar, whose target value is 1 + kappa^2.
    """
    denom = vectorfield_line_integral_f3g(F, G)
    if abs(denom.value) < min_denominator:
        raise ValueError("degenerate test pair: cocycle integral too small")
    vac = fock.vacuum(N)
    tg, _ = apply_stress_line(G, kappa, vac, M, quad)
    tf, _ = apply_stress_line(F, kappa, vac, M, quad)
    tfg, _ = apply_stress_line(F, kappa, tg, M, quad)
    tgf, _ = apply_stress_line(G, kappa, tf, M, quad)
    num = fock.inner(vac, tfg) - fock.inner(vac, tgf)
    c = 12.0 * SIGMA_NORM * num / (1j * denom.value)
    return float(c.real)


def parity_flip(v: FockVector) -> FockVector:
    """Diagonal involution (-1)^{#parts}; conjugation sends J(f) to J(-f)."""
    out = {p: ((-1) ** len(p)) * a for p, a in v.amps.items()}
    return FockVector(v.cutoff, out, v.safe_level)


def weyl_adjoint_stress_residual(
    g: CircleFourier, f: CircleFourier, N: int, restrict_level: int = None
) -> float:
    """Operator-norm residual of the exponentiated adjoint action on T(f).

    With W(g) = exp(i J(g)) on the truncated space, the identity
    W(g) T(f) W(g)* = T(f) + J(f g') + sigma(f g', g) / (2 * SIGMA_NORM)
    holds on the untruncated domain; the residual is measured on vectors of
    level <= restrict_level (default N/2) and converges as N grows.
    """
    if restrict_level is None:
        restrict_level = N // 2
    Jg = fock.operator_matrix(lambda v: apply_current(g, v), N)
    Tf = fock.operator_matrix(lambda v: apply_stress_circle(f, v), N)
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    Jfgp = fock.operator_matrix(lambda v: apply_current(fgp, v), N)
    W = expm(1j * Jg)
    scalar = sigma(fgp, g) / (2.0 * SIGMA_NORM)
    A = W @ Tf @ W.conj().T - Tf - Jfgp - scalar * np.eye(Tf.shape[0])
    P = fock.level_projector(N, restrict_level)
    return float(np.linalg.norm(A @ P, ord=2))
