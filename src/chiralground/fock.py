"""Level-truncated charge-zero bosonic Fock space, stored level by level.

Basis vectors are integer partitions (parts sorted descending) in level
order; (n_1, ..., n_k) stands for the unnormalized J_{-n_1} ... J_{-n_k} vac,
whose squared norm is the exact integer prod_j j^{m_j} m_j!.  A FockVector
holds complex amplitudes over that basis, as one column or a batch.  J_n maps
level l to l - n (Kac-Raina, Bombay Lectures, lecture 2): it is one dense
float64 block per source level, which depends only on (n, l).

Truncation contract: mode operators never throw past the cutoff; the
overflowing components are dropped and the exactness window shrinks.
safe_level = inf means the stored vector is the exact untruncated result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fnspace import CircleFourier

Partition = tuple  # of positive ints, sorted descending


def exactness_window(N: int, *reach: int) -> int:
    """Top input level at which operators moving the level by ``reach`` stay below N."""
    return N - sum(abs(r) for r in reach)


@lru_cache(maxsize=None)
def partitions_at(level: int, max_part: int = None) -> tuple:
    """Partitions of one level (none below 0) with parts <= max_part, in basis order."""
    if level <= 0:
        return ((),) if level == 0 else ()
    return tuple((first,) + rest for first in range(min(level, max_part or level), 0, -1)
                 for rest in partitions_at(level - first, first))


@lru_cache(maxsize=None)
def _index_at(level: int) -> dict:
    return {p: i for i, p in enumerate(partitions_at(level))}


@lru_cache(maxsize=None)
def basis_norm_sq(parts: Partition) -> int:
    """prod_j j^{m_j} m_j! over the part multiplicities m_j."""
    return math.prod(j ** parts.count(j) * math.factorial(parts.count(j)) for j in set(parts))


@lru_cache(maxsize=None)
def norm_sq_at(level: int) -> np.ndarray:
    return np.array([basis_norm_sq(p) for p in partitions_at(level)], dtype=float)


class Basis(NamedTuple):
    partitions: tuple
    offsets: np.ndarray  # level l occupies [offsets[l], offsets[l + 1])
    norm_sq: np.ndarray
    levels: np.ndarray


@lru_cache(maxsize=None)
def basis(N: int) -> Basis:
    sizes = [len(partitions_at(lvl)) for lvl in range(N + 1)]
    return Basis(tuple(p for lvl in range(N + 1) for p in partitions_at(lvl)),
                 np.cumsum([0] + sizes), np.concatenate([norm_sq_at(lvl) for lvl in range(N + 1)]),
                 np.repeat(np.arange(N + 1), sizes))


def basis_partitions(N: int) -> tuple:
    """All partitions of level 0..N, ordered by level."""
    return basis(N).partitions


@lru_cache(maxsize=None)
def mode_map(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """J_n on ``level``: partition c goes to vals[c] times partition rows[c] of level - n."""
    src = partitions_at(level)
    rows, vals = np.zeros(len(src), dtype=int), np.zeros(len(src))
    dst = _index_at(level - n)
    for c, p in enumerate(src):
        if n < 0:
            rows[c], vals[c] = dst[tuple(sorted(p + (-n,), reverse=True))], 1.0
        elif n > 0 and n in p:
            rows[c], vals[c] = dst[p[:p.index(n)] + p[p.index(n) + 1:]], n * p.count(n)
    return rows, vals


@lru_cache(maxsize=None)
def mode_block(n: int, level: int) -> np.ndarray:
    """Dense block of J_n from ``level`` to ``level - n``."""
    rows, vals = mode_map(n, level)
    out = np.zeros((len(partitions_at(level - n)), len(rows)))
    hit = np.flatnonzero(vals)
    out[rows[hit], hit] = vals[hit]
    return out


@dataclass(frozen=True, eq=False)
class FockVector:
    """Amplitudes over basis_partitions(cutoff): data is (dim,) or a (dim, k) batch."""

    cutoff: int
    data: np.ndarray
    safe_level: float = math.inf

    @classmethod
    def from_amps(cls, cutoff: int, amps: dict, safe_level: float = math.inf):
        data = np.zeros(basis(cutoff).offsets[-1], dtype=complex)
        for p, a in amps.items():
            p = tuple(sorted(p, reverse=True))
            if sum(p) > cutoff:
                raise ValueError("partition level exceeds cutoff")
            data[basis(cutoff).offsets[sum(p)] + _index_at(sum(p))[p]] = a
        return cls(cutoff, data, safe_level)

    @property
    def amps(self) -> dict:
        """The nonzero amplitudes of a single vector, keyed by partition."""
        return {p: complex(a) for p, a in zip(basis_partitions(self.cutoff), self.data) if a != 0}


def vacuum(N: int) -> FockVector:
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    return FockVector.from_amps(N, {(): 1.0})


def basis_vector(N: int, parts: Partition) -> FockVector:
    return FockVector.from_amps(N, {tuple(parts): 1.0})


def identity_batch(N: int, level: int) -> FockVector:
    """The basis vectors of one level as the columns of a batch."""
    off = basis(N).offsets
    return FockVector(N, np.eye(off[-1], off[level + 1] - off[level], -off[level], dtype=complex))


def nonzero_levels(v: FockVector) -> np.ndarray:
    rows = v.data if v.data.ndim == 1 else v.data.any(axis=1)
    return np.flatnonzero(np.logical_or.reduceat(rows != 0, basis(v.cutoff).offsets[:-1]))


def apply_homogeneous(block, n: int, v: FockVector) -> FockVector:
    """The operator with blocks block(l) from level l to l - n, truncated like J_n."""
    N, off, lv = v.cutoff, basis(v.cutoff).offsets, nonzero_levels(v)
    out = np.zeros_like(v.data, dtype=complex)
    for lvl in lv[(lv >= n) & (lv - n <= N)]:
        out[off[lvl - n]:off[lvl - n + 1]] = block(lvl) @ v.data[off[lvl]:off[lvl + 1]]
    overflow = lv.size and lv[-1] - n > N
    return FockVector(N, out, min(v.safe_level - n, N) if overflow else v.safe_level - n)


def apply_mode(n: int, v: FockVector) -> FockVector:
    """Current mode J_n: creation for n < 0, annihilation for n > 0, zero for n = 0."""
    return apply_homogeneous(lambda lvl: mode_block(n, lvl), n, v)


def smeared(apply, f: CircleFourier, v: FockVector) -> FockVector:
    """sum_n c_n apply(n, v) over the modes of f; safe_level is the least of the terms'."""
    data, safe = np.zeros_like(v.data, dtype=complex), v.safe_level
    for n in range(-f.max_mode, f.max_mode + 1):
        c = f.coeff(n)
        if c != 0:
            w = apply(n, v)
            data += c * w.data
            safe = min(safe, w.safe_level)
    return FockVector(v.cutoff, data, safe)


def apply_current(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared current J(f) = sum_n c_n J_n applied mode by mode."""
    return smeared(apply_mode, f, v)


def vec_add(u: FockVector, v: FockVector) -> FockVector:
    if u.cutoff != v.cutoff:
        raise ValueError("cutoff mismatch")
    return FockVector(u.cutoff, u.data + v.data, min(u.safe_level, v.safe_level))


def vec_scale(lam, v: FockVector) -> FockVector:
    return FockVector(v.cutoff, lam * v.data, v.safe_level)


def inner(u: FockVector, v: FockVector) -> complex:
    if u.cutoff != v.cutoff:
        raise ValueError("cutoff mismatch")
    return complex(np.vdot(u.data, basis(u.cutoff).norm_sq * v.data))


def column_norms(v: FockVector):
    """Norm of each column of a batch (of the vector itself when unbatched)."""
    return np.sqrt((basis(v.cutoff).norm_sq * (np.abs(v.data) ** 2).T).T.sum(axis=0))


def norm(v: FockVector) -> float:
    return float(column_norms(v))


def apply_L0(v: FockVector) -> FockVector:
    return FockVector(v.cutoff, (basis(v.cutoff).levels * v.data.T).T, v.safe_level)


def bracket_residual(block, m: int, n: int, rhs, N: int) -> float:
    """Largest relative norm of ([A_m, A_n] - rhs) e over the basis vectors e of
    each level in the exactness window; A_k and rhs are given by their blocks
    block(k, l) and rhs(l), so a level costs a few block products."""
    window = exactness_window(N, m, n)
    if window < 0:
        raise ValueError("window too small")
    worst = 0.0
    for lvl in range(window + 1):
        r = block(m, lvl - n) @ block(n, lvl) - block(n, lvl - m) @ block(m, lvl) - rhs(lvl)
        worst = max(worst, np.max(norm_sq_at(lvl - m - n) @ r**2 / norm_sq_at(lvl), initial=0.0))
    return math.sqrt(worst)


def heisenberg_residual(m: int, n: int, N: int) -> float:
    """Max residual of [J_m, J_n] = m delta_{m+n,0} over the exactness window."""
    return bracket_residual(mode_block, m, n, lambda lvl: m * np.eye(len(partitions_at(lvl)))
                            if m + n == 0 else 0.0, N)


def operator_matrix(op, N: int) -> np.ndarray:
    """Dense matrix of a linear operator in the orthonormalized partition basis."""
    off, s = basis(N).offsets, np.sqrt(basis(N).norm_sq)
    A = np.zeros((len(s), len(s)), dtype=complex)
    for lvl in range(N + 1):
        A[:, off[lvl]:off[lvl + 1]] = op(identity_batch(N, lvl)).data
    A *= s[:, None] / s
    return A
