"""Virasoro modes via the normal-ordered quadratic (Sugawara) construction.

L_n is the finite sum over index pairs j <= k, j + k = n, of J_j J_k, built
once per level as a block from the J mode maps; the algebra checks are exact
up to floating rounding.  The perturbed stress tensor couples its current term
with KAPPA_SCALE * kappa, so that its central charge is exactly 1 + kappa^2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from . import fock
from .fnspace import (SIGMA_NORM, CircleFourier, LineObject, Weight, derivative, multiply_by_t,
                      pointwise_product, sigma, vectorfield_line_integral_f3g)
from .fock import FockVector, apply_current, vec_add, vec_scale

# Coupling of the current term in the perturbed stress tensor; with
# [J_m, J_n] = m delta the perturbation (kappa/sqrt(12)) J(f') shifts the
# central charge from 1 to exactly 1 + kappa^2.
KAPPA_SCALE = 1.0 / math.sqrt(12.0)


def _pairs(n: int, top: int):
    """(j, k, weight) of L_n = sum weight J_j J_k over k >= j, j + k = n, on levels <= top."""
    for k in range(-((-n) // 2), max(0, top) + 1):
        if k != 0 and k != n:
            yield n - k, k, 0.5 if 2 * k == n else 1.0


@lru_cache(maxsize=None)
def virasoro_block(n: int, level: int) -> np.ndarray:
    """Dense block of L_n from ``level`` to ``level - n``.

    Each pair J_j J_k sends column c to the single row rj[rk[c]] with weight
    weight * vk[c] * vj[rk[c]] (mode_map), so the block is one scatter-add of
    all pairs.  Its entries are small integers or halves, hence exact.
    """
    shape = (len(fock.partitions_at(level - n)), len(fock.partitions_at(level)))
    index, weights = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for j, k, weight in _pairs(n, level):
        rk, vk = fock.mode_map(k, level)
        rj, vj = fock.mode_map(j, level - k)
        w = weight * vk * vj[rk]
        hit = np.flatnonzero(w)
        index.append(rj[rk[hit]] * shape[1] + hit)
        weights.append(w[hit])
    flat = np.bincount(np.concatenate(index), np.concatenate(weights), shape[0] * shape[1])
    return flat.reshape(shape)


def _pair_sum_safe_level(n: int, v: FockVector) -> float:
    """safe_level of L_n v as the pair sum leaves it, term by term under apply_mode's rules."""
    N, s, lv, off = v.cutoff, v.safe_level, fock.nonzero_levels(v), fock.basis(v.cutoff).offsets
    top, safe = (lv[-1] if lv.size else -math.inf), s
    for j, k, _ in _pairs(n, top):
        if k < 0:  # J_k and then J_j create: either step may overflow
            t = (min(s - k, N) if top - k > N else s - k) - j
            overflow = np.any((lv > N + n) & (lv <= N + k))
        else:  # J_k annihilates; J_j then overflows from what J_k leaves
            t = s - n
            overflow = any(np.any(v.data[off[lvl]:off[lvl + 1]][fock.mode_map(k, lvl)[1] != 0])
                           for lvl in lv[lv > N + n])
        safe = min(safe, min(t, N) if overflow else t)
    return safe


def apply_virasoro_mode(n: int, v: FockVector) -> FockVector:
    """L_n = (1/2) sum_m :J_{-m} J_{n+m}: through its level blocks."""
    out = fock.apply_homogeneous(lambda lvl: virasoro_block(n, lvl), n, v)
    return FockVector(v.cutoff, out.data, _pair_sum_safe_level(n, v))


def apply_stress_circle(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared stress tensor T(f) = sum_n c_n L_n."""
    return fock.smeared(apply_virasoro_mode, f, v)


def line_derivative_repr(F: LineObject, M: int = None) -> tuple[CircleFourier, float]:
    """Circle representative of the line derivative of the pushforward of F.

    For F(t) = ((t^2+1)/2) h(theta(t)) one has F'(t) = t h + h' pointwise on
    the circle; the t-multiplication is re-projected with reported residual.
    """
    h = F.circle_repr
    if not isinstance(h, CircleFourier):
        raise TypeError("vector field must carry a Fourier representative")
    if M is None:
        M = 2 * h.max_mode + 2
    th_part, resid = multiply_by_t(h, M)
    return th_part + derivative(h).pad(M), resid


def stress_line_operator(F: LineObject, kappa: float, M: int = None
                         ) -> tuple[Callable[[FockVector], FockVector], float]:
    """The perturbed stress tensor T(h) + kappa-scaled J(F') on a vector field,
    as a map of Fock vectors, with the projection residual of its current term.
    F' is resampled once, however often the map is applied."""
    if F.weight is not Weight.VECTOR_FIELD:
        raise ValueError("the perturbed stress tensor expects a vector field")
    if kappa == 0.0:
        return partial(apply_stress_circle, F.circle_repr), 0.0
    phi, resid = line_derivative_repr(F, M)
    return (lambda v: vec_add(apply_stress_circle(F.circle_repr, v),
                              vec_scale(KAPPA_SCALE * kappa, apply_current(phi, v)))), resid


def virasoro_residual(m: int, n: int, N: int, drop_central: bool = False) -> float:
    """Max residual of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m+n,0}.

    The central term is the scalar at c = 1; drop_central omits it for
    mutation testing.
    """
    central = 0.0 if drop_central or m + n != 0 else (m**3 - m) / 12.0
    return fock.bracket_residual(virasoro_block, m, n, lambda lvl: (m - n) * virasoro_block(
        m + n, lvl) + central * np.eye(*virasoro_block(m + n, lvl).shape), N)


def mixed_relation_residual(f: CircleFourier, g: CircleFourier, N: int) -> float:
    """Max residual of [T(f), J(g)] = i J(f g') over the exactness window."""
    # the bracket and J(f g') each move the level by up to Mf + Mg
    window = fock.exactness_window(N, f.max_mode + g.max_mode, f.max_mode + g.max_mode)
    if window < 0:
        raise ValueError("window too small")
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    T, J, worst = partial(apply_stress_circle, f), partial(apply_current, g), 0.0
    for level in range(window + 1):
        v = fock.identity_batch(N, level)
        r = FockVector(N, T(J(v)).data - J(T(v)).data - 1j * apply_current(fgp, v).data)
        worst = max(worst, float(np.max(fock.column_norms(r) / fock.column_norms(v))))
    return worst


def central_charge_estimate(F: LineObject, G: LineObject, kappa: float, N: int,
                            M: int = None, min_denominator: float = 1e-6) -> float:
    """Estimate the central charge from the vacuum bracket of stress tensors.

    c_est = 12 * SIGMA_NORM * <vac, [T^k(F), T^k(G)] vac> / (i * int F''' G dt);
    the vacuum expectation of the stress-tensor part of the bracket vanishes,
    leaving the central scalar, whose target value is 1 + kappa^2.  Raises
    ValueError if that vacuum amplitude lies outside its exactness window.
    """
    denom = vectorfield_line_integral_f3g(F, G)
    if abs(denom.value) < min_denominator:
        raise ValueError("degenerate test pair: cocycle integral too small")
    vac = fock.vacuum(N)
    TF, TG = (stress_line_operator(X, kappa, M)[0] for X in (F, G))
    tfg, tgf = TF(TG(vac)), TG(TF(vac))
    safe = min(tfg.safe_level, tgf.safe_level)
    if safe < 0:
        raise ValueError(f"cutoff {N} too small: the vacuum amplitude of the bracket is "
                         f"outside its exactness window (safe level {safe:g})")
    num = fock.inner(vac, tfg) - fock.inner(vac, tgf)
    c = 12.0 * SIGMA_NORM * num / (1j * denom.value)
    return float(c.real)


def weyl_adjoint_stress_residual(g: CircleFourier, f: CircleFourier, N: int,
                                 restrict_level: int = None) -> float:
    """Operator-norm residual of the exponentiated adjoint action on T(f).

    With W(g) = exp(i J(g)) on the truncated space, the identity
    W(g) T(f) W(g)* = T(f) + J(f g') + sigma(f g', g) / (2 * SIGMA_NORM)
    holds on the untruncated domain; the residual is measured on the slab of
    levels <= restrict_level (default N/2) and converges as N grows.  W and W*
    act on the slab through fock.exp_current, which raises ValueError unless
    J(g) is Hermitian (g real).
    """
    restrict_level = N // 2 if restrict_level is None else restrict_level
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    s = np.sqrt(fock.basis(N).norm_sq)[:, None]

    def hat(op, h, Y):  # op(h) in the orthonormalized basis, on the columns of Y
        return s * op(h, FockVector(N, Y / s)).data

    P = np.eye(len(s), fock.basis(N).offsets[restrict_level + 1])  # the level slab
    WsP = fock.exp_current(g, -1.0, P, N)
    WTWsP = fock.exp_current(g, 1.0, hat(apply_stress_circle, f, WsP), N)
    A = (WTWsP - hat(apply_stress_circle, f, P) - hat(apply_current, fgp, P)
         - sigma(fgp, g) / (2.0 * SIGMA_NORM) * P)
    return float(np.linalg.norm(A, ord=2))
