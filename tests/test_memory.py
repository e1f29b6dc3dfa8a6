"""Traced peak memory of the Weyl path, in units of the complex level slab
(basis dimension x slab columns x 16 bytes), and of one fock.apply, in bytes
per entry of its operator.

tracemalloc counts numpy's array allocations, so these peaks do not depend on
the host.  Each call runs once untraced first, so that the level caches are
built before the traced call; the cold sweep starts from cleared caches
instead, so that it sees them.
"""

import math
import tracemalloc

import fock_reference as ref
import numpy as np
import pytest

from chiralground import fnspace as fn
from chiralground import fock, states, sugawara


def _pair():
    rng = np.random.default_rng(1)
    return tuple(h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


def _slab(N):
    off = fock.basis(N).offsets
    return np.eye(off[-1], off[N // 2 + 1])


def _traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peak_in_slabs(call, N):
    return _traced_peak(call) / (2 * _slab(N).nbytes)


def test_weyl_residual_peak():
    # measured 1.9 slabs with the series cut to the columns that W* X P reads, 2.3 on all
    # columns with W*P held as its entries, 3.2 with W*P dense and the rows of R streamed
    # per budget, 3.9 with R held whole; the full-space series measured 6.1 (6.2 with two
    # buffers, 7.2 with three buffers and whole sums)
    g, f = _pair()
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, 16), 16) < 2.3


def test_weyl_residual_peak_at_cutoff_24():
    # one slab is 32 MB here, and the largest budget holds 7% of the rows: with W*P held
    # as its entries the peak is one budget's rows of T(f) W*P and the products that form
    # them, measured 0.46 slabs (0.54 with the series on all columns, 1.6 with W*P dense,
    # 3.3 with T(f) W*P, R and its conjugate held whole)
    g, f = _pair()
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, 24), 24) < 0.56


def test_weyl_residual_peak_at_cutoff_28():
    # one slab is 150 MB here; measured 0.35 slabs (0.38 with the series on all columns),
    # where W*P alone was one slab
    g, f = _pair()
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, 28), 28) < 0.42


@pytest.mark.parametrize("N, series_peak", [(12, 8.2), (16, 6.25)])
def test_wide_generator_peak(N, series_peak):
    # g of max mode N has one spectator, the empty one, and one block of all dim rows,
    # exponentiated in column chunks of at most a slab.  Measured 6.2 and 5.1 slabs (6.7
    # and 5.4 while the caller kept the gather that exp_blocks copies); the full-space
    # series of ref.weyl_residual_series measured 8.2 and 6.2 on the same call.
    rng = np.random.default_rng(1)
    g, f = (h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
            for h in (fn.random_real_circle(N, rng), fn.random_real_circle(2, rng)))
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(ref.weyl_residual_series(g, f, N), rel=1e-10)
    assert _traced_peak_in_slabs(lambda: sugawara.weyl_adjoint_stress_residual(g, f, N),
                                 N) < series_peak


def test_series_peak_on_the_slab():
    # measured 5.6 slabs with the two-buffer series (6.4 with three buffers and whole sums)
    g, _ = _pair()
    P = _slab(18)
    assert _traced_peak_in_slabs(lambda: ref.exp_current(g, -1.0, P, 18), 18) < 6
    # in the gauge the slab keeps its real columns, and costs less than half: measured 2.3
    _, S, W = fock._real_gauge(g, 18)
    assert _traced_peak_in_slabs(lambda: fock._exp_gauged(S, W, -1.0, P), 18) < 2.5


def test_cold_weyl_sweep_peak_and_caches():
    # From cleared caches the N = 10..18 sweep measured a 4.7 MB peak and left 1.5 MB of
    # caches behind; with the series on all columns the peak was 5.3 MB, with W*P dense
    # 7.8 MB, with R held whole 10.5 MB, with the full-space series 17.4 MB and 3.1 MB,
    # and with dense level blocks 27.4 MB and 10.4 MB.  The bounds allow about 20% and
    # 40% over the measured values.
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
    assert peak < 5.6e6
    assert held < 2.1e6


def test_apply_peak_per_entry():
    # J(f), f of top mode 20, on vacuum(20): 16,532 entries over dim 2,714.  The scatter
    # measured 0.62 MB, one complex product per entry and little else; the whole-basis
    # gather it replaced measured 2.12 MB.
    f = fn.random_real_circle(20, np.random.default_rng(1))
    J, v = fock.smear(fock.mode_triples, f, 20), fock.vacuum(20)
    assert (len(J[0]), len(v.data)) == (16532, 2714)
    assert _traced_peak(lambda: fock.apply(J, v)) < 3 * 16 * len(J[0])
