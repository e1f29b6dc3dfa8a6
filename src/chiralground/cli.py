"""Command-line driver for the verification suites and numerical demonstrations.

Subcommands: verify | charge | nonnormal | ground.  Output is CSV or JSON
with 12 significant digits; exit status is 0 iff every executed check
passed or was explicitly skipped by the window rules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, states, sugawara
from .fnspace import (
    LineObject,
    Weight,
    circle_from_real_modes,
    circle_to_json,
    dilate_line,
    gaussian_bump_line,
    gn_family,
    random_real_circle,
    sobolev_half_sq,
    translate_line,
)


@dataclass
class RunConfig:
    cutoff: int = 12
    modes: int = 64
    fmt: str = "csv"
    out: str = None
    seed: int = 0


@dataclass
class CheckResult:
    name: str
    window: str
    residual: float
    threshold: float
    status: str  # pass | fail | skip


class UsageError(ValueError):
    """Input the command line accepted but the computation cannot honour (exit 2)."""


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def parse_function_spec(spec: str, M: int) -> LineObject:
    """Mini-language for test functions: gn:<n> | bump:<center>:<width> | fourier:<a0>,<a1>,...

    fourier coefficients are read as a0 + sum_k (a_k cos k theta + b_k sin k theta)
    with the list a0,a1,b1,a2,b2,...  Raises UsageError for a spec it cannot honour.
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "gn":
            return LineObject(gn_family(int(rest)), Weight.FUNCTION)
        if kind == "bump":
            center_s, _, width_s = rest.partition(":")
            center, width = _finite(center_s), _finite(width_s)
            if width <= 0:
                raise ValueError("bump width must be > 0")
            obj, _resid = gaussian_bump_line(center, width, M)
            return obj
        if kind == "fourier":
            vals = [_finite(x) for x in rest.split(",") if x]
            c0 = vals[0] if vals else 0.0
            cos_c = vals[1::2]
            sin_c = vals[2::2]
            return LineObject(circle_from_real_modes(c0, cos_c, sin_c), Weight.FUNCTION)
    except ValueError as exc:
        raise UsageError(f"function spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown function spec: {spec!r}")


# ---------------------------------------------------------------------------
# verify


def run_verify(config: RunConfig, drop_central: bool = False) -> list:
    N = config.cutoff
    rng = np.random.default_rng(config.seed)
    checks = []

    def sweep(name, pairs, residual_fn, threshold):
        for m, n in pairs:
            window = fock.exactness_window(N, m, n)
            if window < 0:
                checks.append(CheckResult(f"{name}({m},{n})", "none", 0.0, threshold,
                                          "skip"))
                continue
            r = residual_fn(m, n)
            status = "pass" if r < threshold else "fail"
            checks.append(CheckResult(f"{name}({m},{n})", f"level<={window}", r,
                                      threshold, status))

    pairs = [(m, n) for m in range(-4, 5) for n in range(-4, 5) if m <= n]
    sweep("heisenberg", pairs, lambda m, n: fock.heisenberg_residual(m, n, N), 1e-10)
    sweep(
        "virasoro",
        pairs,
        lambda m, n: sugawara.virasoro_residual(m, n, N, drop_central=drop_central),
        1e-9,
    )

    for n in range(2, 6):
        if fock.exactness_window(N, n, n) < 0:
            checks.append(CheckResult(f"vacuum_moment({n})", "none", 0.0, 1e-10, "skip"))
            continue
        v = fock.vacuum(N)
        val = fock.inner(
            v, sugawara.apply_virasoro_mode(n, sugawara.apply_virasoro_mode(-n, v))
        )
        r = abs(val - (n**3 - n) / 12.0)
        checks.append(
            CheckResult(f"vacuum_moment({n})", f"level<={N}", r, 1e-10,
                        "pass" if r < 1e-10 else "fail")
        )

    for trial in range(3):
        Mf, Mg = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        window = fock.exactness_window(N, Mf + Mg, Mf + Mg)
        name = f"mixed_TJ(trial={trial})"
        if window < 0:
            checks.append(CheckResult(name, "none", 0.0, 1e-9, "skip"))
            continue
        f = random_real_circle(Mf, rng)
        g = random_real_circle(Mg, rng)
        r = sugawara.mixed_relation_residual(f, g, N)
        checks.append(CheckResult(name, f"level<={window}", r, 1e-9,
                                  "pass" if r < 1e-9 else "fail"))

    for trial in range(3):
        n = int(rng.integers(1, 4))
        window = fock.exactness_window(N, n)
        name = f"adjointness(n={n},trial={trial})"
        if window < 0:
            checks.append(CheckResult(name, "none", 0.0, 1e-12, "skip"))
            continue
        basis = fock.basis_partitions(window)
        u = fock.FockVector.from_amps(
            N, {p: complex(rng.standard_normal(), rng.standard_normal()) for p in basis}
        )
        v = fock.FockVector.from_amps(
            N, {p: complex(rng.standard_normal(), rng.standard_normal()) for p in basis}
        )
        lhs = fock.inner(fock.apply_mode(-n, u), v)
        rhs = fock.inner(u, fock.apply_mode(n, v))
        r = abs(lhs - rhs) / (fock.norm(u) * fock.norm(v))
        checks.append(CheckResult(name, f"level<={window}", r, 1e-12,
                                  "pass" if r < 1e-12 else "fail"))

    if N < 1:  # no mode of a test function fits under the cutoff
        checks.append(CheckResult("sobolev_norm_identity", "none", 0.0, 1e-12, "skip"))
        return checks
    worst = 0.0
    for _ in range(50):
        f = random_real_circle(int(rng.integers(1, min(config.modes, N) + 1)), rng)
        if f.max_mode > N:
            continue
        v = fock.vacuum(N)
        jf = fock.apply_current(f, v)
        worst = max(worst, abs(fock.inner(jf, jf).real - sobolev_half_sq(f)))
    checks.append(CheckResult("sobolev_norm_identity", f"level<={N}", worst, 1e-12,
                              "pass" if worst < 1e-12 else "fail"))
    return checks


def _emit_checks(checks, config: RunConfig):
    if config.fmt == "json":
        payload = [
            {"name": c.name, "window": c.window, "residual": c.residual,
             "threshold": c.threshold, "status": c.status}
            for c in checks
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["name,window,residual,threshold,status"]
        for c in checks:
            lines.append(
                f"{c.name},{c.window},{_fmt(c.residual)},{_fmt(c.threshold)},{c.status}"
            )
        text = "\n".join(lines) + "\n"
    _write(text, config)
    return 0 if all(c.status in ("pass", "skip") for c in checks) else 1


def _write(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# charge


def run_charge(config: RunConfig, kappas) -> list:
    rows = []
    hF = _vector_field_default(0)
    hG = _vector_field_default(1)
    for kappa in kappas:
        c_est = sugawara.central_charge_estimate(hF, hG, kappa, config.cutoff)
        rows.append((kappa, c_est, abs(c_est - (1.0 + kappa**2))))
    return rows


def _vector_field_default(which: int) -> LineObject:
    # Band-limited fields vanishing at the point at infinity to order >= 2;
    # the (1 - cos)^2 factor keeps the perturbation term band-limited too.
    if which == 0:
        coeffs = circle_from_real_modes(1.5, [-2.0, 0.5])  # (1 - cos)^2
        order = 4
    else:
        coeffs = circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])  # (1 - cos)^2 sin
        order = 5
    return LineObject(coeffs, Weight.VECTOR_FIELD, vanishing_order=order)


# ---------------------------------------------------------------------------
# nonnormal


def run_nonnormal(config: RunConfig, q: float, n_max: int):
    ns = []
    n = 4
    while n <= n_max:
        ns.append(n)
        n *= 2
    M = max(config.modes, 2 * n_max)
    return states.nonnormality_series(q, ns, M)


# ---------------------------------------------------------------------------
# ground


def run_ground(config: RunConfig, q: float, kappa: float, fspec: str) -> dict:
    M = config.modes
    f = parse_function_spec(fspec, M)
    if states.as_fourier(f, M).truncated:
        raise UsageError(f"{fspec!r} has modes above --modes {M}")
    p = states.GroundStateParams(q, kappa)
    report = {"q": q, "kappa": kappa, "function": fspec}
    gw = states.ground_weyl(p, states.WeylWord((f,)), M)
    report["ground_weyl"] = {"re": gw.value.real, "im": gw.value.imag,
                             "divergent": gw.divergent}
    one = states.ground_current_onepoint(p, f, M)
    report["current_onepoint"] = {
        "closed_form": one.closed_form,
        "finite_difference": one.finite_difference,
    }
    report["stress_onepoint"] = states.ground_stress_onepoint(p, f)
    rng = np.random.default_rng(config.seed)
    fs = []
    for _ in range(4):
        b, _resid = gaussian_bump_line(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 1.5)), M)
        fs.append(b.scale(float(rng.uniform(-1, 1))))
    report["gram_min_eigenvalue"] = states.gram_psd(p, fs, M)
    fd, dil_resid = dilate_line(f, 0.5, M)
    report["dilation_orbit"] = {"s": 0.5, "projection_error": dil_resid, **_covariance(
        lambda: states.dilation_orbit_residual(q, 0.5, f, M, dilated=fd))}
    ft, tr_resid = translate_line(f, 1.0, M)
    report["translation"] = {"t": 1.0, "projection_error": tr_resid, **_covariance(
        lambda: states.translation_invariance_residual(q, f, 1.0, M, translated=ft))}
    report["circle_representative"] = circle_to_json(states.as_fourier(f, M))
    return report


def _covariance(residual_fn) -> dict:
    """Report entry of a covariance residual; a divergent one has no residual."""
    try:
        return {"residual": residual_fn(), "divergent": False}
    except states.DivergenceError:
        return {"divergent": True}


# ---------------------------------------------------------------------------
# entry point


def _add_common(sp):
    sp.add_argument("--cutoff", type=int, default=12)
    sp.add_argument("--modes", type=int, default=64)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)


def _config(args) -> RunConfig:
    return RunConfig(
        cutoff=args.cutoff,
        modes=args.modes,
        fmt=args.format,
        out=args.out,
        seed=args.seed,
    )


def _option(flag: str, text) -> float:
    """A finite number given for flag; UsageError otherwise."""
    try:
        return _finite(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _check_options(args, config: RunConfig):
    """Refuse numeric options the computation cannot honour, with UsageError."""
    if config.cutoff < 0:
        raise UsageError("--cutoff must be >= 0")
    if config.modes < 1:
        raise UsageError("--modes must be >= 1")
    if args.command in ("nonnormal", "ground"):
        _option("--q", args.q)
    if args.command == "nonnormal" and args.n_max < 4:  # the table starts at n = 4
        raise UsageError("--n-max must be >= 4")
    if args.command == "ground":  # charge's --kappa is a list, read where it is used
        _option("--kappa", args.kappa)


def _error(message: str, status: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="chiralground")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run the operator-identity suite")
    _add_common(sp)
    sp.add_argument("--drop-central-term", action="store_true",
                    help="mutation testing: omit the Virasoro central scalar")

    sp = sub.add_parser("charge", help="central-charge table over kappa values")
    _add_common(sp)
    sp.add_argument("--kappa", default="0,0.5,1,2",
                    help="comma-separated kappa values")

    sp = sub.add_parser("nonnormal", help="non-normality table (n, q_n, d_n)")
    _add_common(sp)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--n-max", type=int, default=256)

    sp = sub.add_parser("ground", help="ground-state report for one test function")
    _add_common(sp)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--kappa", type=float, default=0.0)
    sp.add_argument("--function", default="bump:0:1",
                    help="gn:<n> | bump:<center>:<width> | fourier:<a0>,<a1>,<b1>,...")

    args = ap.parse_args(argv)
    config = _config(args)
    try:
        _check_options(args, config)
    except UsageError as exc:
        return _error(str(exc), 2)

    if args.command == "verify":
        checks = run_verify(config, drop_central=args.drop_central_term)
        return _emit_checks(checks, config)

    if args.command == "charge":
        try:
            kappas = [_option("--kappa", x) for x in args.kappa.split(",") if x]
            if not kappas:
                raise UsageError("--kappa: no value given")
        except UsageError as exc:
            return _error(str(exc), 2)
        try:
            rows = run_charge(config, kappas)
        except ValueError as exc:
            return _error(str(exc), 1)
        if config.fmt == "json":
            text = json.dumps(
                [{"kappa": k, "c_est": c, "abs_error": e} for k, c, e in rows],
                indent=2,
            ) + "\n"
        else:
            lines = ["kappa,c_est,abs_error"]
            lines += [f"{_fmt(k)},{_fmt(c)},{_fmt(e)}" for k, c, e in rows]
            text = "\n".join(lines) + "\n"
        _write(text, config)
        return 0

    if args.command == "nonnormal":
        rows = run_nonnormal(config, args.q, args.n_max)
        if config.fmt == "json":
            text = json.dumps(
                [
                    {"n": r.n, "q_n": r.q_n, "d_n": r.d_n,
                     "flag": "ok" if r.converged else "divergent"}
                    for r in rows
                ],
                indent=2,
            ) + "\n"
        else:
            lines = ["n,q_n,d_n,flag"]
            lines += [
                f"{r.n},{_fmt(r.q_n)},{_fmt(r.d_n)},{'ok' if r.converged else 'divergent'}"
                for r in rows
            ]
            text = "\n".join(lines) + "\n"
        _write(text, config)
        return 0

    if args.command == "ground":
        try:
            report = run_ground(config, args.q, args.kappa, args.function)
        except UsageError as exc:
            return _error(str(exc), 2)
        except ValueError as exc:  # a DivergenceError: some quantity diverges
            return _error(str(exc), 1)
        _write(json.dumps(report, indent=2) + "\n", config)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
