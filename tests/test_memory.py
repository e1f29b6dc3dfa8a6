"""Traced peak memory of the Weyl path, in units of the complex level slab
(basis dimension x slab columns x 16 bytes).

tracemalloc counts numpy's array allocations, so these peaks do not depend on
the host.  Each call runs once untraced first, so that the level caches are
built before the traced call; the cold sweep starts from cleared caches
instead, so that it sees them.
"""

import math
import tracemalloc

import fock_reference as ref
import numpy as np

from chiralground import fnspace as fn
from chiralground import fock, states, sugawara


def _pair():
    rng = np.random.default_rng(1)
    return tuple(h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


def _slab(N):
    off = fock.basis(N).offsets
    return np.eye(off[-1], off[N // 2 + 1])


def _traced_peak_in_slabs(call, N):
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (2 * _slab(N).nbytes)


def test_weyl_residual_peak():
    # measured 6.2 slabs with the two-buffer series (7.2 with three buffers and whole sums)
    g, f = _pair()
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, 16), 16) < 7


def test_series_peak_on_the_slab():
    # measured 5.6 slabs with the two-buffer series (6.4 with three buffers and whole sums)
    g, _ = _pair()
    P = _slab(18)
    assert _traced_peak_in_slabs(lambda: ref.exp_current(g, -1.0, P, 18), 18) < 6
    # in the gauge the slab keeps its real columns, and costs less than half: measured 2.3
    _, S, W = fock._real_gauge(g, 18)
    assert _traced_peak_in_slabs(lambda: fock._exp_gauged(S, W, -1.0, P), 18) < 2.5


def test_cold_weyl_sweep_peak_and_caches():
    # From cleared caches the N = 10..18 sweep measured a 17.4 MB peak and left 3.1 MB of
    # caches behind; with dense level blocks it was 27.4 MB and 10.4 MB.  The bounds allow
    # 15% and 30% over the measured values.
    g, f = _pair()
    for mod in (fn, fock, states, sugawara):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    tracemalloc.start()
    try:
        for N in range(10, 19, 2):
            sugawara.weyl_adjoint_stress_residual(g, f, N)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert held < 4e6
