"""Traced peak memory of the Weyl path, in units of the complex level slab
(basis dimension x slab columns x 16 bytes).

tracemalloc counts numpy's array allocations, so these peaks do not depend on
the host.  Each call runs once untraced first, so that the level caches are
built before the traced call.
"""

import math
import tracemalloc

import numpy as np

from chiralground import fnspace as fn
from chiralground import fock, sugawara


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
    # the slab carried as complex columns, with whole-basis gathers, peaks at 10.6 slabs
    g, f = _pair()
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, 16), 16) < 9


def test_series_peak_on_the_slab():
    # with whole-basis gathers of dim x 4 x 2c floats the series peaks at 8.1 slabs
    g, _ = _pair()
    P = _slab(18)
    assert _traced_peak_in_slabs(lambda: fock.exp_current(g, -1.0, P, 18), 18) < 7.5
    # in the gauge the slab keeps its real columns, and costs half
    _, S, W = fock._real_gauge(g, 18)
    assert _traced_peak_in_slabs(lambda: fock._exp_gauged(S, W, -1.0, P), 18) < 4
