"""Reference Fock layer for the oracle tests: one dict of partition -> amplitude
per vector and one Python loop per basis vector, with the truncation rules
the array layer in chiralground.fock must reproduce; the Weyl adjoint
residual computed with a dense eigendecomposition of J(g); the Virasoro level
blocks summed pair by pair; and small helpers of the array layer that only
the tests use.

Partitions are tuples of parts sorted descending; the partition
(n_1, ..., n_k) stands for J_{-n_1} ... J_{-n_k} vac, whose squared norm is
prod_j j^{m_j} m_j!.
"""

import math
from dataclasses import dataclass

import numpy as np

from chiralground import fnspace as fn
from chiralground import fock, sugawara


@dataclass(frozen=True)
class DictVector:
    cutoff: int
    amps: dict
    safe_level: float = math.inf

    def level_max(self) -> int:
        return max((sum(p) for p in self.amps), default=0)


def basis_norm_sq(parts) -> int:
    out = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for j, m in mult.items():
        out *= j**m * math.factorial(m)
    return out


def apply_mode(n: int, v: DictVector) -> DictVector:
    """J_n: creation for n < 0, annihilation for n > 0, zero for n = 0."""
    if n == 0:
        return DictVector(v.cutoff, {}, v.safe_level)
    out = {}
    if n < 0:
        k = -n
        truncated = False
        for p, a in v.amps.items():
            if sum(p) + k > v.cutoff:
                truncated = True
                continue
            q = tuple(sorted(p + (k,), reverse=True))
            b = out.get(q, 0.0) + a
            if b == 0:
                out.pop(q, None)
            else:
                out[q] = b
        safe = v.safe_level + k
        if truncated:
            safe = min(safe, v.cutoff)
        return DictVector(v.cutoff, out, safe)
    k = n
    for p, a in v.amps.items():
        m = p.count(k)
        if m == 0:
            continue
        q = list(p)
        q.remove(k)
        q = tuple(q)
        b = out.get(q, 0.0) + a * k * m
        if b == 0:
            out.pop(q, None)
        else:
            out[q] = b
    return DictVector(v.cutoff, out, v.safe_level - k)


def vec_add(u: DictVector, v: DictVector) -> DictVector:
    out = dict(u.amps)
    for p, a in v.amps.items():
        b = out.get(p, 0.0) + a
        if b == 0:
            out.pop(p, None)
        else:
            out[p] = b
    return DictVector(u.cutoff, out, min(u.safe_level, v.safe_level))


def vec_scale(lam, v: DictVector) -> DictVector:
    if lam == 0:
        return DictVector(v.cutoff, {}, v.safe_level)
    return DictVector(v.cutoff, {p: lam * a for p, a in v.amps.items()}, v.safe_level)


def inner(u: DictVector, v: DictVector) -> complex:
    s = 0.0 + 0.0j
    for p, a in u.amps.items():
        b = v.amps.get(p)
        if b is not None:
            s += np.conj(a) * b * basis_norm_sq(p)
    return complex(s)


def apply_virasoro_mode(n: int, v: DictVector) -> DictVector:
    """L_n as the pair sum over k >= j, j + k = n, annihilator first."""
    out = DictVector(v.cutoff, {}, v.safe_level)
    for k in range(-((-n) // 2), max(0, v.level_max()) + 1):
        j = n - k
        if j == 0 or k == 0:
            continue
        weight = 0.5 if j == k else 1.0
        out = vec_add(out, vec_scale(weight, apply_mode(j, apply_mode(k, v))))
    return out


def smeared(apply, f, v: DictVector) -> DictVector:
    """sum_n c_n apply(n, v) over the modes of a CircleFourier f."""
    out = DictVector(v.cutoff, {}, v.safe_level)
    for n in range(-f.max_mode, f.max_mode + 1):
        if f.coeff(n) != 0:
            out = vec_add(out, vec_scale(f.coeff(n), apply(n, v)))
    return out


def partitions_upto(N: int) -> list:
    def parts(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    return [p for lvl in range(N + 1) for p in parts(lvl, lvl)]


def dense_matrix(op, N: int) -> np.ndarray:
    """Matrix of op in the orthonormalized basis, one basis vector at a time."""
    basis = partitions_upto(N)
    index = {p: i for i, p in enumerate(basis)}
    A = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, p in enumerate(basis):
        for q, a in op(DictVector(N, {p: 1.0 + 0.0j})).amps.items():
            A[index[q], j] = a * math.sqrt(basis_norm_sq(q) / basis_norm_sq(p))
    return A


def operator_matrix(op, N: int) -> np.ndarray:
    """Dense matrix of a linear operator of the array layer in the orthonormalized
    partition basis, built from the identity batch of each level."""
    off, s = fock.basis(N).offsets, np.sqrt(fock.basis(N).norm_sq)
    A = np.zeros((len(s), len(s)), dtype=complex)
    for lvl in range(N + 1):
        A[:, off[lvl]:off[lvl + 1]] = op(fock.identity_batch(N, lvl)).data
    A *= s[:, None] / s
    return A


def weyl_residual_eigh(g, f, N: int) -> float:
    """The Weyl adjoint residual with W = exp(i J(g)) from the eigendecomposition
    of the dense Hermitian J(g), on the level-<=N/2 slab of the array layer."""
    Jg = operator_matrix(lambda v: fock.apply_current(g, v), N)
    lam, V = np.linalg.eigh(Jg)
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode)
    s = np.sqrt(fock.basis(N).norm_sq)[:, None]

    def hat(op, h, Y):
        return s * op(h, fock.FockVector(N, Y / s)).data

    P = np.eye(len(s), fock.basis(N).offsets[N // 2 + 1])
    WsP = V @ (np.exp(-1j * lam)[:, None] * V[: P.shape[1]].conj().T)
    TWsP = hat(sugawara.apply_stress_circle, f, WsP)
    WTWsP = V @ (np.exp(1j * lam)[:, None] * (V.conj().T @ TWsP))
    A = (WTWsP - hat(sugawara.apply_stress_circle, f, P) - hat(fock.apply_current, fgp, P)
         - fn.sigma(fgp, g) / (2.0 * fn.SIGMA_NORM) * P)
    return float(np.linalg.norm(A, ord=2))


def virasoro_block(n: int, level: int) -> np.ndarray:
    """Dense block of L_n from ``level`` to ``level - n``, summed pair by pair as
    sum weight J_j J_k over k >= j, j + k = n, k and j nonzero."""
    out = np.zeros((len(fock.partitions_at(level - n)), len(fock.partitions_at(level))))
    for k in range(-((-n) // 2), max(0, level) + 1):
        j = n - k
        if j == 0 or k == 0:
            continue
        rows, vals = fock.mode_map(k, level)  # J_k sends each column to one row
        out += (0.5 if j == k else 1.0) * fock.mode_block(j, level - k)[:, rows] * vals
    return out


def basis_vector(N: int, parts) -> fock.FockVector:
    return fock.FockVector.from_amps(N, {tuple(parts): 1.0})


def apply_L0(v: fock.FockVector) -> fock.FockVector:
    """L_0 as the level of each basis vector."""
    levels = np.array([sum(p) for p in fock.basis_partitions(v.cutoff)], dtype=float)
    return fock.FockVector(v.cutoff, (levels * v.data.T).T, v.safe_level)


def parity_flip(v: fock.FockVector) -> fock.FockVector:
    """Diagonal involution (-1)^{#parts}; conjugation sends J(f) to J(-f)."""
    sign = np.array([(-1.0) ** len(p) for p in fock.basis_partitions(v.cutoff)])
    return fock.FockVector(v.cutoff, (sign * v.data.T).T, v.safe_level)


def apply_stress_line(F, kappa: float, v: fock.FockVector, M: int = None):
    """Perturbed stress tensor on a vector field: T(h) + kappa-scaled J(F'),
    with the projection residual of the current term."""
    op, resid = sugawara.stress_line_operator(F, kappa, M)
    return op(v), resid
