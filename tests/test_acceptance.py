"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured quantity at the stated tolerance."""

import math
import time

import numpy as np
import pytest

from chiralground import fnspace as fn
from chiralground import fock, states, sugawara


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _vector_fields():
    hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])
    hG = fn.circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])
    return (
        fn.LineObject(hF, fn.Weight.VECTOR_FIELD, 4),
        fn.LineObject(hG, fn.Weight.VECTOR_FIELD, 5),
    )


def test_acceptance_01_heisenberg():
    t0 = time.monotonic()
    worst = 0.0
    for m in range(-4, 5):
        for n in range(m, 5):
            worst = max(worst, fock.heisenberg_residual(m, n, 12))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "heisenberg", ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_02_virasoro_and_mutation():
    worst = 0.0
    for m in range(-4, 5):
        for n in range(m, 5):
            worst = max(worst, sugawara.virasoro_residual(m, n, 12))
    mutated = sugawara.virasoro_residual(2, -2, 12, drop_central=True)
    ok = worst < 1e-9 and mutated >= 0.4
    _report(2, "virasoro", ok, f"max residual {worst:.2e}, mutation residual {mutated:.3f}")


def test_acceptance_03_vacuum_moments():
    worst = 0.0
    for n in range(2, 6):
        v = fock.vacuum(2 * n + 2)
        val = fock.inner(v, sugawara.apply_virasoro_mode(n, sugawara.apply_virasoro_mode(-n, v)))
        worst = max(worst, abs(val - (n**3 - n) / 12.0))
    ok = worst < 1e-10
    _report(3, "vacuum_moments", ok, f"max deviation {worst:.2e}")


def test_acceptance_04_mixed_relation():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(5):
        f = fn.random_real_circle(int(rng.integers(1, 4)), rng)
        g = fn.random_real_circle(int(rng.integers(1, 4)), rng)
        worst = max(worst, sugawara.mixed_relation_residual(f, g, 14))
    ok = worst < 1e-9
    _report(4, "mixed_TJ_relation", ok, f"max residual {worst:.2e}")


def test_acceptance_05_central_charge():
    F, G = _vector_fields()
    worst = 0.0
    detail = []
    ok = True
    for kappa in (0.0, 0.5, 1.0, 2.0):
        c = sugawara.central_charge_estimate(F, G, kappa, 16)
        err = abs(c - (1.0 + kappa**2))
        tol = 1e-6 if kappa == 0.0 else 1e-3
        ok = ok and err < tol
        worst = max(worst, err)
        detail.append(f"k={kappa}: err {err:.1e}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fn, "GRID_NODES", 4096)
        c1 = sugawara.central_charge_estimate(F, G, 1.0, 16)
    c0 = sugawara.central_charge_estimate(F, G, 1.0, 16)
    ok = ok and abs(c1 - c0) < 1e-6
    _report(5, "central_charge", ok, "; ".join(detail) + f"; doubling gap {abs(c1 - c0):.1e}")


def test_acceptance_06_sobolev_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    v = fock.vacuum(12)
    for _ in range(50):
        f = fn.random_real_circle(int(rng.integers(1, 13)), rng)
        jf = fock.apply_current(f, v)
        worst = max(worst, abs(fock.inner(jf, jf).real - fn.sobolev_half_sq(f)))
    ok = worst < 1e-12
    _report(6, "sobolev_norm_identity", ok, f"max deviation {worst:.2e}")


def test_acceptance_07_ground_state_values():
    rng = np.random.default_rng(102)
    fs = []
    for _ in range(6):
        b, _ = fn.gaussian_bump_line(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 1.5)), 96)
        fs.append(b.scale(float(rng.uniform(-1, 1))))
    min_eig = min(
        states.gram_psd(states.GroundStateParams(q), fs, 96) for q in (-2.0, 0.0, 1.0, 5.0)
    )
    one = states.ground_current_onepoint(states.GroundStateParams(1.3), fs[0], 96)
    fd_gap = abs(one.finite_difference - one.closed_form)
    F, _ = _vector_fields()
    s1 = states.ground_stress_onepoint(states.GroundStateParams(2.0, 0.0), F)
    s2 = states.ground_stress_onepoint(states.GroundStateParams(-2.0, 1.5), F)
    stress_gap = abs(s1 - 0.5 * 4.0 * 2.0 * math.pi)  # exact integral is 2 pi
    ok = min_eig > -1e-10 and fd_gap < 1e-6 and stress_gap < 1e-8 and s1 == s2
    _report(
        7,
        "ground_state_values",
        ok,
        f"gram min eig {min_eig:.1e}, fd gap {fd_gap:.1e}, stress gap {stress_gap:.1e}",
    )


def test_acceptance_08_covariance():
    bump, _ = fn.gaussian_bump_line(0.0, 1.0, 96)
    dil = max(states.dilation_orbit_residual(1.0, s, bump, 96) for s in (-0.5, 0.5))
    tr = states.translation_invariance_residual(1.5, bump, 0.7, 96)
    ok = dil < 1e-5 and tr < 1e-5
    _report(8, "dilation_translation", ok, f"dilation residual {dil:.1e}, translation {tr:.1e}")


def test_acceptance_09_nonnormality():
    t0 = time.monotonic()
    q = 1.0
    ns = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    rows = states.nonnormality_series(q, ns, 2048)
    elapsed = time.monotonic() - t0
    qs = [r.q_n for r in rows]
    ds = [r.d_n for r in rows]
    mono = all(b > a for a, b in zip(qs, qs[1:])) and all(b < a for a, b in zip(ds, ds[1:]))
    decay = ds[-1] < 1e-3 * ds[0]
    slope = (qs[-1] - qs[-2]) / math.log(2.0)
    slope_ok = abs(slope - 2.0 * q) < 0.1 * abs(2.0 * q)
    ok = mono and decay and slope_ok and all(r.converged for r in rows) and elapsed < 60.0
    _report(
        9,
        "nonnormality_table",
        ok,
        f"slope {slope:.3f} vs {2.0 * q}, d_1024/d_4 {ds[-1] / ds[0]:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_10_weyl_adjoint():
    rng = np.random.default_rng(103)

    def unit(f, size):
        return f.scale(size / max(1e-12, math.sqrt(fn.sobolev_half_sq(f))))

    g = unit(fn.random_real_circle(2, rng), 0.5)
    f = unit(fn.random_real_circle(2, rng), 0.5)
    rs = [sugawara.weyl_adjoint_stress_residual(g, f, N) for N in (10, 12, 14, 16)]
    ok = all(b < a for a, b in zip(rs, rs[1:]))
    _report(10, "weyl_adjoint_convergence", ok, "residuals " + ", ".join(f"{r:.2e}" for r in rs))
