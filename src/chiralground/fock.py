"""Level-truncated charge-zero bosonic Fock space.

Basis vectors are indexed by integer partitions (parts sorted descending);
the partition (n_1, ..., n_k) stands for the unnormalized vector
J_{-n_1} ... J_{-n_k} applied to the vacuum.  Squared norms are the exact
integers prod_j j^{m_j} m_j! forced by [J_m, J_n] = m delta_{m+n,0} and
J_n^* = J_{-n}; amplitudes are complex floats.

Truncation contract: mode operators never throw past the cutoff; the
overflowing components are dropped and the exactness window shrinks.
safe_level = inf means the stored vector is the exact untruncated result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fnspace import CircleFourier

Partition = tuple  # of positive ints, sorted descending


@dataclass(frozen=True)
class ExactnessWindow:
    safe_level: int


@dataclass(frozen=True)
class FockVector:
    cutoff: int
    amps: dict
    safe_level: float = math.inf

    def level_max(self) -> int:
        return max((sum(p) for p in self.amps), default=0)

    def window(self) -> ExactnessWindow:
        lvl = min(self.safe_level, self.cutoff)
        return ExactnessWindow(int(max(lvl, 0)))


def vacuum(N: int) -> FockVector:
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    return FockVector(N, {(): 1.0 + 0.0j})


def basis_vector(N: int, parts: Partition) -> FockVector:
    parts = tuple(sorted(parts, reverse=True))
    if sum(parts) > N:
        raise ValueError("partition level exceeds cutoff")
    return FockVector(N, {parts: 1.0 + 0.0j})


@lru_cache(maxsize=None)
def basis_norm_sq(parts: Partition) -> int:
    """prod_j j^{m_j} m_j! over the part multiplicities m_j."""
    out = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for j, m in mult.items():
        out *= j**m * math.factorial(m)
    return out


def apply_mode(n: int, v: FockVector) -> FockVector:
    """Current mode J_n: creation for n < 0, annihilation for n > 0, zero for n = 0."""
    if n == 0:
        return FockVector(v.cutoff, {}, v.safe_level)
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
        return FockVector(v.cutoff, out, safe)
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
    return FockVector(v.cutoff, out, v.safe_level - k)


def vec_add(u: FockVector, v: FockVector) -> FockVector:
    if u.cutoff != v.cutoff:
        raise ValueError("cutoff mismatch")
    out = dict(u.amps)
    for p, a in v.amps.items():
        b = out.get(p, 0.0) + a
        if b == 0:
            out.pop(p, None)
        else:
            out[p] = b
    return FockVector(u.cutoff, out, min(u.safe_level, v.safe_level))


def vec_scale(lam, v: FockVector) -> FockVector:
    if lam == 0:
        return FockVector(v.cutoff, {}, v.safe_level)
    return FockVector(v.cutoff, {p: lam * a for p, a in v.amps.items()}, v.safe_level)


def inner(u: FockVector, v: FockVector) -> complex:
    if u.cutoff != v.cutoff:
        raise ValueError("cutoff mismatch")
    if len(u.amps) > len(v.amps):
        return complex(np.conj(inner(v, u)))
    s = 0.0 + 0.0j
    for p, a in u.amps.items():
        b = v.amps.get(p)
        if b is not None:
            s += np.conj(a) * b * basis_norm_sq(p)
    return complex(s)


def norm(v: FockVector) -> float:
    return math.sqrt(max(inner(v, v).real, 0.0))


def apply_current(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared current J(f) = sum_n c_n J_n applied mode by mode."""
    out = FockVector(v.cutoff, {}, v.safe_level)
    for n in range(-f.max_mode, f.max_mode + 1):
        if n == 0:
            continue
        c = f.coeff(n)
        if c == 0:
            continue
        out = vec_add(out, vec_scale(c, apply_mode(n, v)))
    return out


def apply_L0(v: FockVector) -> FockVector:
    out = {p: sum(p) * a for p, a in v.amps.items() if sum(p) != 0 and a != 0}
    return FockVector(v.cutoff, out, v.safe_level)


# ---------------------------------------------------------------------------
# Basis enumeration and dense matrices


def _partitions_of(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def basis_partitions(N: int):
    """All partitions of level 0..N, ordered by level."""
    out = []
    for lvl in range(N + 1):
        out.extend(_partitions_of(lvl, lvl))
    return out


def heisenberg_residual(m: int, n: int, N: int) -> float:
    """Max residual of [J_m, J_n] = m delta_{m+n,0} over admissible basis vectors."""
    window = N - abs(m) - abs(n)
    if window < 0:
        raise ValueError("window too small")
    worst = 0.0
    for p in basis_partitions(window):
        v = basis_vector(N, p)
        r = vec_add(
            apply_mode(m, apply_mode(n, v)),
            vec_scale(-1.0, apply_mode(n, apply_mode(m, v))),
        )
        if m + n == 0:
            r = vec_add(r, vec_scale(-float(m), v))
        worst = max(worst, norm(r) / norm(v))
    return worst


def operator_matrix(op, N: int) -> np.ndarray:
    """Dense matrix of a linear operator in the orthonormalized partition basis."""
    basis = basis_partitions(N)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    A = np.zeros((dim, dim), dtype=complex)
    for j, p in enumerate(basis):
        w = op(basis_vector(N, p))
        nj = math.sqrt(basis_norm_sq(p))
        for q, a in w.amps.items():
            A[index[q], j] = a * math.sqrt(basis_norm_sq(q)) / nj
    return A


def level_projector(N: int, level: int) -> np.ndarray:
    """Diagonal projector onto basis states of level <= level."""
    basis = basis_partitions(N)
    d = np.array([1.0 if sum(p) <= level else 0.0 for p in basis])
    return np.diag(d)
