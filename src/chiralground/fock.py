"""Level-truncated charge-zero bosonic Fock space, indexed by part multiplicities.

Basis vectors are integer partitions (parts sorted descending) in level
order; (n_1, ..., n_k) stands for the unnormalized J_{-n_1} ... J_{-n_k} vac.
With P[m, a] the partitions of m with parts <= a, P[m, a] = P[m, a - 1] +
P[m - a, a] (Andrews, The Theory of Partitions, 1976, ch. 1), level l is the
blocks a = l, l - 1, ..., 1: the part a put in front of each of the last
P[l - a, a] partitions of level l - a, in their order.  So a partition's
position is closed form in its largest part and the position of the rest, and
basis(N) is built a level at a time, from the largest basis built below N.
basis(N, max_part), the partitions with parts <= R = min(max_part, N), is the Fock
space of the modes 1..R, a tensor factor of the whole that each J_n, n <= R, acts
on alone; its level l is the last P[l, R] rows of level l, in their order.
It holds counts[i, j] = m_j, the number of parts j of partition i, the squared
norm prod_j j^{m_j} m_j! and the raise map up[a, i], partition i with one more
part a, each level's from the levels below.  A vector is a numpy array of
complex amplitudes over that basis, (dim,) or a (dim, k) batch.  J_n maps level
l to l - n (Kac-Raina, Bombay Lectures, lecture 2).
J_n and J(f) here, and L_n and T(f) in sugawara, have one sparse form: triples
(src, dst, w) over basis(N), column src going to w times row dst, w in the
amplitude basis only, so that J_n and L_n have exact integer and half weights;
J_n, n > 0, is read off the raise map once, stacked by n with the part n of each
entry cached beside it, and J_{-n} is its slice swapped.  apply sums the
products w v[src] onto their rows by one scatter per column; bracket_residual
composes triples by products, and L_n composes the slices of J_c (lowering) with
the raise map.  weyl gives P_N exp(i J(g)) P_N, the Weyl operator compressed to
the levels <= N, on orthonormal columns Y, on which triples act as
e apply(op, Y / e), e the norms; the displacement table of each mode runs only to
the multiplicity that the nonzero rows of Y reach.

Truncation contract: mode operators never throw past the cutoff; the components
past level N, or with a part past R, are dropped.  exactness_window(N, *reach)
gives, from the modes alone, the top input level whose amplitudes stay exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .fnspace import CircleFourier

Op = tuple  # (src, dst, w): column src goes to w times row dst; entries may repeat

_EMPTY = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


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


class Basis(NamedTuple):
    offsets: np.ndarray  # level l occupies [offsets[l], offsets[l + 1])
    counts: np.ndarray  # (dim, N + 1) uint8: counts[i, j] = m_j, the parts j in partition i
    norm_sq: np.ndarray  # prod_j j^{m_j} m_j!, exact where below 2^53
    up: np.ndarray  # (N + 1, dim + 1) int32: up[a, i] = i with a part a more, or dim past N or R


_BASES = {}  # basis(N, max_part) by (N, R); only the bases asked for are kept
_NONE = Basis(np.zeros(1, dtype=int), np.zeros((0, 0), dtype=np.uint8), np.zeros(0),
              np.zeros((0, 1), dtype=np.int32))  # the cutoff -1, which basis(0) grows from


def top_part(N: int, max_part: int | None = None) -> int:
    """R = min(max_part, N), N for None: every cache keys R, so no operator is held twice."""
    return N if max_part is None else min(max_part, N)


def basis(N: int, max_part: int | None = None) -> Basis:
    """The basis of the modes 1..R, R = top_part(N, max_part), at the levels <= N, grown from
    the largest basis (M, min(R, M)) built below N; the full basis is R = N."""
    key = N, top_part(N, max_part)
    if key not in _BASES:
        if min(key) < 0:
            raise ValueError("cutoff and top part must be >= 0")
        below = [(M, R) for M, R in _BASES if M < N and R == min(key[1], M)]
        _BASES[key] = _grow(_BASES[max(below)] if below else _NONE, *key)
    return _BASES[key]


basis.cache_clear = _BASES.clear


def _grow(old: Basis, N: int, R: int) -> Basis:
    """basis(N, R), its levels <= M taken from old = basis(M, min(R, M)), M < N, and the levels
    above M built in turn, each from the levels below it."""
    M = len(old.offsets) - 2
    # P[m, a], a <= R, the partitions of m with parts <= a: P[m, a] = P[m, a - 1] + P[m - a, a],
    # so column a is the sums of column a - 1 down the steps of a, one cumsum over rows of a
    # entries; the rows past N pad the column to whole rows and are dropped
    P = np.zeros((N + R + 1, R + 1), dtype=int)
    P[0] = 1
    for a in range(1, R + 1):
        m = -(-(N + 1) // a) * a
        P[:m, a] = P[:m, a - 1].reshape(-1, a).cumsum(axis=0).ravel()
    P = P[:N + 1]
    offsets = np.concatenate([[0], np.cumsum(P[:, R])])
    dim = offsets[-1]
    B = offsets[1:, None] - P  # B[m, a], a <= R: the first row of level m with parts <= a
    # level l is the blocks a = min(l, R), ..., 1, the part a put in front of each of the
    # last P[l - a, a] rows of level l - a; row i is first[i] in front of row prev[i], and
    # the vacuum the part 0 in front of itself
    blocks = np.minimum(np.arange(N + 1), R)
    blocks[0] = 1
    lvl = np.repeat(np.arange(N + 1), blocks)  # the level and the part of each block
    part = np.minimum(lvl, R) - np.arange(len(lvl)) + np.repeat(np.cumsum(blocks) - blocks, blocks)
    size = P[lvl - part, part]
    first = np.repeat(part, size)
    row = np.arange(dim)
    prev = np.repeat(B[lvl - part, part] - np.cumsum(size) + size, size) + row
    level = np.repeat(np.arange(N + 1), P[:, R])
    # multiplicities are at most N, far below 256 for any basis that fits in memory
    counts = np.zeros((dim, N + 1), dtype=np.uint8)
    up = np.full((N + 1, dim + 1), dim, dtype=np.int32)  # the rows a > R stay dim
    counts[:offsets[M + 1], :M + 1] = old.counts
    for a in range(1, min(R, M) + 1):  # old's raises below level M + 1; the loop makes the rest
        up[a, :offsets[M + 1 - a]] = old.up[a, :offsets[M + 1 - a]]
    for t in range(max(M + 1, 1), N + 1):  # the rows of level t, and every raise to level t
        new = slice(offsets[t], offsets[t + 1])
        counts[new] = counts[prev[new]]
        counts[row[new], first[new]] += 1
        below = slice(offsets[max(t - R, 0)], offsets[t])  # the rows a part a <= R raises to t
        i, a, f = row[below], t - level[below], first[below]
        to = i - B[t - a, a] + B[t, a]  # a put in front of i, where a >= i's parts
        low = np.flatnonzero(a < f)  # else f put in front of prev[i] raised by a
        to[low] = up[a[low], prev[i[low]]] - B[t - f[low], f[low]] + B[t, f[low]]
        up[a, i] = to
    factor = np.ones((R + 1, N + 1))  # j^m m!, for the multiplicities m <= N / j of a part j
    for j in range(1, R + 1):
        factor[j, :N // j + 1] = [float(j**m * math.factorial(m)) for m in range(N // j + 1)]
    # np.prod multiplies in order of j, so the factors 1 of the parts above M leave old's alone
    norm_sq = np.prod(factor[np.arange(R + 1), counts[offsets[M + 1]:, :R + 1]], axis=1)
    return Basis(offsets, counts, np.concatenate([old.norm_sq, norm_sq]), up)


def basis_partitions(N: int) -> tuple:
    """All partitions of level 0..N, ordered by level."""
    return tuple(chain.from_iterable(map(partitions_at, range(N + 1))))


@lru_cache(maxsize=None)
def _modes(N: int, R: int) -> tuple:
    """J_n for 0 < n <= R on basis(N, R), read off the raise map: each dst of a level <= N - n
    from src = up[n, dst] with weight n m_n(src), stacked by n; src ascends with dst, since
    adding a part keeps the basis order.  Also where each n starts, the part n of each stacked
    entry, and weights 1 for J_{-n}."""
    b = basis(N, R)
    ends = np.concatenate([[0, 0], np.cumsum(b.offsets[N:N - R:-1])])
    n = np.repeat(np.arange(1, R + 1), b.offsets[N:N - R:-1])
    dst = np.arange(ends[-1]) - ends[n]
    src = b.up[n, dst].astype(int)
    return ends, (src, dst, n * b.counts[src, n].astype(float)), n, np.ones(b.offsets[N])


def mode_triples(n: int, N: int, max_part: int | None = None) -> Op:
    """J_n on basis(N, max_part), truncated at N; src ascending, dst without repeats.  J_{-n} is
    J_n's slice swapped, with weight 1: adding a part keeps the basis order, so its src is an
    arange."""
    R = top_part(N, max_part)
    if abs(n) > R:  # no partition of the basis has a part |n|
        return _EMPTY
    ends, (src, dst, w), _, ones = _modes(N, R)
    at = slice(ends[abs(n)], ends[abs(n) + 1])
    return (src[at], dst[at], w[at]) if n > 0 else (dst[at], src[at], ones[:at.stop - at.start])


def lowering(lo: int, hi: int, N: int, max_part: int | None = None) -> tuple:
    """J_c for lo <= c <= hi, c <= R, on basis(N, max_part), and the part c of each of its
    entries: one slice of the triples of _modes and of their cached parts."""
    ends, down, part, _ = _modes(N, top_part(N, max_part))
    at = slice(ends[min(lo, len(ends) - 1)], ends[min(hi, len(ends) - 2) + 1])
    return tuple(a[at] for a in down), part[at]


def concat(ops) -> Op:
    """The sum of the operators in ops, their triples side by side."""
    return tuple(map(np.concatenate, zip(_EMPTY, *ops)))


def scaled(c, op: Op) -> Op:
    """c times op; a zero multiple has no entries."""
    src, dst, w = (a[:0] for a in op) if c == 0 else op
    return src, dst, c * w


def identity(N: int, c) -> Op:
    """c times the identity on basis(N)."""
    diag = np.arange(basis(N).offsets[-1])
    return scaled(c, (diag, diag, np.ones(len(diag))))


def smear(op, f: CircleFourier, N: int, *max_part) -> Op:
    """sum_n c_n op(n, N, *max_part) over the modes n of f."""
    return concat([scaled(c, op(n, N, *max_part))
                   for n, c in enumerate(f.full(), -f.max_mode) if c != 0])


def columns(op: Op, top: int) -> Op:
    """op on the first top basis vectors: its entries with src < top."""
    on = op[0] < top
    return tuple(a[on] for a in op)


def product(A: Op, B: Op) -> Op:
    """A B, B applied first: each entry of B followed by every entry of A at its row."""
    (sa, da, wa), (sb, db, wb) = A, B
    order = np.argsort(sa, kind="stable")
    lo, hi = (np.searchsorted(sa, db, side, sorter=order) for side in ("left", "right"))
    count = hi - lo
    ib = np.repeat(np.arange(len(db)), count)
    ia = order[np.arange(len(ib)) + np.repeat(lo - np.cumsum(count) + count, count)]
    return sb[ib], da[ia], wa[ia] * wb[ib]


def merge(op: Op, dim: int) -> Op:
    """op with the weights of each (src, dst) summed into one entry, ordered by (dst, src)."""
    src, dst, w = op
    key, inv = np.unique(dst * dim + src, return_inverse=True)
    out = np.zeros(len(key), dtype=w.dtype)
    out.real = np.bincount(inv, w.real, len(key))  # sums in order, as np.add.at does
    if np.iscomplexobj(w):
        out.imag = np.bincount(inv, w.imag, len(key))
    return key % dim, key // dim, out


def vacuum(N: int) -> np.ndarray:
    return np.eye(1, len(basis(N).norm_sq), dtype=complex)[0]


def apply(op: Op, x: np.ndarray) -> np.ndarray:
    """The operator with triples op applied to the amplitudes x, (dim,) or (dim, k), by one
    scatter per column: the products w x[src] summed onto their rows dst in op order;
    IndexError off the basis."""
    src, dst, w = op
    cols = x.reshape(len(x), -1)
    dim = len(cols)
    if np.max(dst, initial=-1) >= dim:  # bincount would lengthen the vector, not refuse
        raise IndexError("an entry of the operator maps past the basis")
    out = np.empty(cols.shape, dtype=complex)
    for c, col in enumerate(np.ascontiguousarray(cols.T, dtype=complex)):
        terms = col[src]  # w x[src], one per entry
        terms *= w
        out.real[:, c], out.imag[:, c] = (np.bincount(dst, p, dim)
                                          for p in (terms.real, terms.imag))
        del terms  # so that no two columns' products are held at once
    return out.reshape(x.shape)


def _norm_sq(N: int, *vs: np.ndarray) -> np.ndarray:
    """The squared norms of basis(N); ValueError for a batch or a vector of another length."""
    norm_sq = basis(N).norm_sq
    if any(np.ndim(v) != 1 or len(v) != len(norm_sq) for v in vs):
        raise ValueError(f"a vector is not 1-d or not the dimension {len(norm_sq)} of cutoff {N}")
    return norm_sq


def inner(u: np.ndarray, v: np.ndarray, N: int) -> complex:
    return complex(np.vdot(u, _norm_sq(N, u, v) * v))


def norm(v: np.ndarray, N: int) -> float:
    return float(np.sqrt((_norm_sq(N, v) * np.abs(v) ** 2).sum()))


def bracket_residual(A: Op, B: Op, rhs: Op, window: int, N: int) -> float:
    """Largest relative norm of ([A, B] - rhs) e over the basis vectors e of the
    levels <= window, from the merged triples of A B - B A - rhs on those columns."""
    if window < 0:
        raise ValueError("window too small")
    top, norm_sq = basis(N).offsets[window + 1], basis(N).norm_sq
    src, dst, r = merge(concat([product(A, columns(B, top)),
                                scaled(-1, product(B, columns(A, top))),
                                scaled(-1, columns(rhs, top))]), len(norm_sq))
    worst = np.bincount(src, norm_sq[dst] * np.abs(r) ** 2, minlength=top) / norm_sq[:top]
    return math.sqrt(np.max(worst, initial=0.0))


def heisenberg_residual(m: int, n: int, N: int) -> float:
    """Max residual of [J_m, J_n] = m delta_{m+n,0} over the exactness window."""
    return bracket_residual(mode_triples(m, N), mode_triples(n, N),
                            identity(N, m if m + n == 0 else 0), exactness_window(N, m, n), N)


def displacement(alpha: complex, L: int, K: int | None = None) -> np.ndarray:
    """<j|D(alpha)|k> for j <= L and k <= K <= L (K = L by default), D(alpha) = exp(alpha a^+ -
    conj(alpha) a) on one mode: sqrt(lo!/hi!) b^(hi - lo) e^(-|alpha|^2/2) times
    L_lo^(hi - lo)(|alpha|^2), lo and hi the lesser and greater of j and k, b = alpha for
    j >= k and -conj(alpha) above (Cahill and Glauber, Phys. Rev. 177, 1857, 1969), with the
    Laguerre L_k^(a) by their recurrence in k, run only to the degree K that lo reaches; the
    columns k <= K of the table for K = L, bit for bit."""
    K = L if K is None else K
    x, a = abs(alpha) ** 2, np.arange(L + 1)
    lag = np.zeros((K + 2, L + 1))  # lag[k, a] = L_k^(a)(x), row -1 as k = -1
    lag[0] = 1.0
    ks = np.arange(K)[:, None]  # the recurrence's factors, for all degrees k at once
    c1, c2 = 2 * ks + 1 + a - x, (ks + a).astype(float)
    for k in range(K):
        lag[k + 1] = (c1[k] * lag[k] - c2[k] * lag[k - 1]) / (k + 1)
    j, k = a[:, None], np.arange(K + 1)  # the row j and the column k of the table
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(a[1:]))])
    b = np.where(j >= k, complex(alpha), -np.conj(alpha))
    return np.exp((log_fact[lo] - log_fact[hi] - x) / 2) * b ** (hi - lo) * lag[lo, hi - lo]


def weyl(g: CircleFourier, X: np.ndarray, N: int, max_part: int | None = None) -> np.ndarray:
    """P exp(i J(g)) P X for the columns X, (dim,) or (dim, k), over the orthonormalized
    basis(N, max_part), P the projection on its span: the levels <= N of the modes 1..R.

    The modes of J(g) commute, so exp(i J(g)) is the product of the displacements
    D(alpha_n), alpha_n = i sqrt(n) conj c_n(g), of the multiplicities m_n, n >= 1 (J_0 = 0
    in charge zero).  Row p of X reaches the rows q that share its parts above g's top mode,
    with weight prod_n <m_n(q)|D(alpha_n)|m_n(p)>; the table of mode n has the columns
    m_n(p) <= K_n alone, K_n the largest m_n of the nonzero rows of X.  A mode n > R adds the
    factor exp(-|alpha_n|^2 / 2) = <0|D(alpha_n)|0>, which the exponential of the compressed
    J(g) would drop.  The nonzero rows are grouped by those parts, and each group is taken k
    rows p at a time, k the columns of X, as one weight block times those rows of X.
    ValueError for an X of another length; ArithmeticError if not finite.
    """
    counts = basis(N, max_part).counts
    if len(X) != len(counts):
        raise ValueError(f"X has {len(X)} rows, not the dimension {len(counts)} of cutoff {N}")
    top = min(g.max_mode, top_part(N, max_part))
    cols = X.reshape(len(X), -1)
    k = cols.shape[1]
    nonzero = np.flatnonzero(np.any(cols, axis=1))
    reach = counts[nonzero, 1:top + 1].max(axis=0, initial=0).tolist()  # K_n for n <= top
    alpha = 1j * np.sqrt(np.arange(1, g.max_mode + 1)) * np.conj(g.coeffs[1:])
    tables = [displacement(a, N // n, K) for n, (a, K) in enumerate(zip(alpha, reach), 1)]
    scale = math.exp(-0.5 * np.sum(np.abs(alpha[top:]) ** 2))
    # the parts exp(i J(g)) keeps, each row as one byte string
    kept = (counts * (np.arange(N + 1) > top)).view(f"V{N + 1}")[:, 0]
    Y = np.zeros(cols.shape, dtype=complex)
    keys, group = np.unique(kept[nonzero], return_inverse=True)
    rows = nonzero[np.argsort(group, kind="stable")]  # the nonzero rows, group after group
    size = np.bincount(group)
    for key, lo, hi in zip(keys, np.cumsum(size) - size, np.cumsum(size)):
        q = np.flatnonzero(kept == key)
        mq = counts[q, 1:top + 1].T[:, :, None]  # m_n(q), one row per mode n
        for start in range(lo, hi, k):
            p = rows[start:min(start + k, hi)]
            block = np.full((len(q), len(p)), scale, dtype=complex)
            for D, i, j in zip(tables, mq, counts[p, 1:top + 1].T):
                block *= D[i, j]
            Y[q] += block @ cols[p]
    if not np.all(np.isfinite(Y)):
        raise ArithmeticError("exp(i J(g)) X is not finite")
    return Y.reshape(X.shape)
