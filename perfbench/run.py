#!/usr/bin/env python3
"""chiralground benchmark: fixed jobs through the public entry points, gated and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; chiralground is imported from its ``src/``.
The load is a closed loop from one process: each job starts when the previous
one ends, and the workload's job list (one "pass") repeats until ``--seconds``
have elapsed.  Before every pass the program's own caches are cleared, because
every command-line user pays that cost.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of several fresh processes, from start until inputs are
built), ``peak_rss_mb`` and ``pass_frac`` (gated checks passed / attempted).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics; its spans are written to ``.bench_out/`` when the run ends.

Every time reported is rescaled to a reference host speed by ``SpeedProbe``:
the host's speed drifts by up to a factor of two within seconds, and a fixed
probe run throughout the timed work measures that drift.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
job executions; a job fails when it raises or when one of its gated checks
fails that is not in ``KNOWN_DEFECTS``.  Known defects still count against
``pass_frac``.  See ``perfbench/BASELINE.md`` for workloads, the layer map and
the first committed numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 5
WORKLOADS = ("fock-algebra", "weyl-adjoint", "ground-states")

# Problem sizes of the benchmark proper, and the small ones of the self-test.
FULL = {"cutoff": 16, "weyl_ns": (10, 12, 14, 16, 18), "modes": 96, "n_max": 16384}
SMOKE = {"cutoff": 8, "weyl_ns": (4, 6, 8), "modes": 16, "n_max": 256}

# Gated checks that fail at the commit that introduced this benchmark.  They
# are reported as failed and lower pass_frac; their thresholds are the same
# as everywhere else.  Any other failing check makes the run incorrect.
KNOWN_DEFECTS = frozenset({
    "ground gn:8/fd_gap",        # 2.2e-6 against 1e-6
    "ground gn:8/dilation",      # 1.4e-2 against 1e-5
    "ground gn:8/translation",   # 1.85 against 1e-5
    "nonnormal/slope",           # 3.66 against 2 +- 0.2
})

# Tolerances of the acceptance gate (tests/test_acceptance.py); the
# adjointness rows mirror the command-line threshold, which no acceptance
# test covers.
VERIFY_TOL = {
    "heisenberg": 1e-10,
    "virasoro": 1e-9,
    "vacuum_moment": 1e-10,
    "mixed_TJ": 1e-9,
    "adjointness": 1e-12,
    "sobolev_norm_identity": 1e-12,
}
GRAM_MIN_EIG = -1e-10
FD_GAP_TOL = 1e-6
COVARIANCE_TOL = 1e-5
WEYL_SIZE = 0.5

# On a shared 2-vCPU VM, pure-Python code ran up to twice as slow for seconds
# at a time while the process kept its CPU, and numpy code slowed with it.
# fock-algebra pass times varied by 34%; the same passes rescaled by the
# probe's speed varied by 6%.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 5e-4  # near the probe's fastest time on a 2.1 GHz Xeon vCPU; only a scale


@dataclass
class Job:
    label: str
    describe: list
    run: Callable[[], object]
    check: Callable[[object], list]
    cutoffs: tuple = ()


@dataclass
class Program:
    """The modules of chiralground and its libraries, imported from this checkout."""

    np: object
    scipy: object
    cli: object
    fnspace: object
    fock: object
    states: object
    sugawara: object
    package_modules: list


def import_program() -> Program:
    """Cap BLAS threads, then import chiralground from src/, never an installed copy."""
    if not (SRC / "chiralground" / "__init__.py").is_file():
        raise SystemExit(f"error: no chiralground sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import chiralground
    from chiralground import cli, fnspace, fock, states, sugawara

    if Path(chiralground.__file__).resolve().parent != SRC / "chiralground":
        raise SystemExit(f"error: imported chiralground from {chiralground.__file__}")
    return Program(numpy, scipy, cli, fnspace, fock, states, sugawara,
                   [chiralground, cli, fnspace, fock, states, sugawara])


# ---------------------------------------------------------------------------
# Jobs and their gates


def cli_job(prog: Program, label: str, argv: list, check, cutoffs=()) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = prog.cli.main(argv)
        return rc, buf.getvalue()

    return Job(label, ["chiralground"] + argv, run, check, cutoffs)


def check_verify(out) -> list:
    rc, text = out
    checks = [("exit_status", rc == 0)]
    for row in json.loads(text):
        if row["status"] == "skip":
            continue
        tol = VERIFY_TOL[row["name"].split("(")[0]]
        checks.append((row["name"], row["status"] == "pass" and row["residual"] < tol))
    return checks


def check_charge(kappas):
    def check(out) -> list:
        rows = {r["kappa"]: r["c_est"] for r in json.loads(out[1])}
        checks = []
        for k in kappas:
            tol = 1e-6 if k == 0.0 else 1e-3
            c = rows.get(k, math.nan)
            checks.append((f"kappa={k}", abs(c - (1.0 + k * k)) < tol))
        return checks

    return check


def check_ground(out) -> list:
    r = json.loads(out[1])
    one = r["current_onepoint"]
    return [
        ("gram_psd", r.get("gram_min_eigenvalue", -math.inf) > GRAM_MIN_EIG),
        ("fd_gap", abs(one["finite_difference"] - one["closed_form"]) < FD_GAP_TOL),
        ("dilation", r.get("dilation_orbit", {}).get("residual", math.inf) < COVARIANCE_TOL),
        ("translation", r.get("translation", {}).get("residual", math.inf) < COVARIANCE_TOL),
        ("not_divergent", r["ground_weyl"]["divergent"] is False),
    ]


def check_nonnormal(q: float):
    def check(out) -> list:
        rows = json.loads(out[1])
        qs = [r["q_n"] for r in rows]
        ds = [r["d_n"] for r in rows]
        slope = (qs[-1] - qs[-2]) / math.log(2.0)
        return [
            ("q_increasing", all(b > a for a, b in zip(qs, qs[1:]))),
            ("d_decreasing", all(b < a for a, b in zip(ds, ds[1:]))),
            ("d_decay", ds[-1] < 1e-3 * ds[0]),
            ("all_ok", all(r["flag"] == "ok" for r in rows)),
            ("slope", abs(slope - 2.0 * q) < 0.1 * abs(2.0 * q)),
        ]

    return check


def check_weyl(ns):
    def check(out) -> list:
        return [(f"N={b}<N={a}", out[j + 1] < out[j]) for j, (a, b) in enumerate(zip(ns, ns[1:]))]

    return check


def weyl_pair(prog: Program, seed: int):
    """The seeded (g, f) of the Weyl sweep, each scaled to Sobolev-1/2 norm WEYL_SIZE."""
    fn = prog.fnspace
    rng = prog.np.random.default_rng(seed)

    def unit(h):
        return h.scale(WEYL_SIZE / max(1e-12, math.sqrt(fn.sobolev_half_sq(h))))

    g = unit(fn.random_real_circle(2, rng))
    f = unit(fn.random_real_circle(2, rng))
    return g, f


def build_jobs(prog: Program, workload: str, seed: int, size=FULL) -> list:
    s = ["--seed", str(seed)]
    if workload == "fock-algebra":
        N = str(size["cutoff"])
        kappas = [0.0, 0.5, 1.0, 2.0]
        return [
            cli_job(prog, "verify", ["verify", "--cutoff", N, "--format", "json"] + s,
                    check_verify, (size["cutoff"],)),
            cli_job(prog, "charge", ["charge", "--cutoff", N, "--kappa", "0,0.5,1,2",
                                     "--format", "json"] + s,
                    check_charge(kappas), (size["cutoff"],)),
        ]
    if workload == "weyl-adjoint":
        g, f = weyl_pair(prog, seed)
        ns = size["weyl_ns"]
        sweep = prog.sugawara

        def run():
            return [sweep.weyl_adjoint_stress_residual(g, f, N) for N in ns]

        describe = [f"sugawara.weyl_adjoint_stress_residual(g, f, {N})" for N in ns]
        describe.append(f"g, f = random_real_circle(2, default_rng({seed})) x2, "
                        f"Sobolev-1/2 norm {WEYL_SIZE}")
        return [Job("weyl", describe, run, check_weyl(ns), tuple(ns))]
    if workload == "ground-states":
        M = str(size["modes"])
        jobs = [
            cli_job(prog, f"ground {fspec}",
                    ["ground", "--modes", M, "--function", fspec] + s, check_ground)
            for fspec in ("bump:0:1", "gn:8")
        ]
        jobs.append(cli_job(prog, "nonnormal", ["nonnormal", "--n-max", str(size["n_max"]),
                                                "--format", "json"] + s, check_nonnormal(1.0)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, size=FULL):
    """Everything a run does before its first pass: imports and seeded inputs."""
    prog = import_program()
    return prog, build_jobs(prog, workload, seed, size)


# ---------------------------------------------------------------------------
# Host speed, passes, gates and tracing


def probe_kernel():
    """Fixed pure-Python dict work, about 0.5 ms."""
    d = {}
    for i in range(3000):
        d[(i * 7919) % 10007] = d.get(i % 100, 0) + 1


class SpeedProbe:
    """Samples the host's speed while a timed region runs, from SIGALRM.

    One sample at entry, one every PROBE_PERIOD_S and one at exit; a sample
    waits for a running C call to return.  ``rescale(t)`` takes a time that
    contains the whole ``with`` block, subtracts the probe's own time and
    converts the rest to the speed at which the probe takes PROBE_REF_S.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self) -> float:
        """Mean host speed over the samples, relative to the reference speed."""
        return statistics.mean(PROBE_REF_S / p for p in self.samples)

    def rescale(self, elapsed: float) -> float:
        return (elapsed - sum(self.samples)) * self.speed()


def clear_program_caches(prog: Program):
    for mod in prog.package_modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_pass(prog: Program, jobs: list, tracer=None) -> tuple[float, SpeedProbe, list]:
    """One closed-loop pass over the job list from cold caches.

    Returns (wall seconds, the probe that sampled host speed during it, outputs).
    """
    clear_program_caches(prog)
    gc.collect()
    outputs = []
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            try:
                outputs.append(job.run())
            except (Exception, SystemExit) as exc:  # a failed job is a result, not a crash
                outputs.append(exc)
    return time.perf_counter() - t0, probe, outputs


def gate(jobs: list, outputs: list) -> list:
    """(check name, passed, job index) for every gated check of one pass."""
    results = []
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if isinstance(out, BaseException):
            results.append((f"{job.label}/ran: {type(out).__name__}: {out}", False, i))
            continue
        try:
            checks = job.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            checks = [(f"output readable: {type(exc).__name__}: {exc}", False)]
        results.extend((f"{job.label}/{name}", ok, i) for name, ok in checks)
    return results


class Tracer:
    """Spans around chiralground's public functions, kept in memory for one pass.

    Each wrapped function is replaced in every package module that bound it
    (``sugawara`` imports ``apply_mode`` and ``expm`` by name).  The hot leaf
    ``fock.apply_mode`` is only counted.  A span is [job, name, parent, start, end].
    """

    SPANS = [
        ("cli", "main", "cli.main"),
        ("fnspace", "line_integral", "fnspace.line_integral"),
        ("fnspace", "vectorfield_line_integral_f3g", "fnspace.f3g_integral"),
        ("fnspace", "fourier_project", "fnspace.fourier_project"),
        ("fnspace", "gaussian_bump_line", "fnspace.resample"),
        ("fnspace", "dilate_line", "fnspace.resample"),
        ("fnspace", "translate_line", "fnspace.resample"),
        ("fnspace", "multiply_by_t", "fnspace.resample"),
        ("fock", "heisenberg_residual", "fock.heisenberg_residual"),
        ("fock", "operator_matrix", "fock.operator_matrix"),
        ("sugawara", "virasoro_residual", "sugawara.virasoro_residual"),
        ("sugawara", "mixed_relation_residual", "sugawara.mixed_relation_residual"),
        ("sugawara", "central_charge_estimate", "sugawara.central_charge_estimate"),
        ("sugawara", "weyl_adjoint_stress_residual", "sugawara.weyl_adjoint"),
        ("states", "ground_weyl", "states.ground_weyl"),
        ("states", "gram_psd", "states.gram_psd"),
        ("states", "dilation_orbit_residual", "states.covariance"),
        ("states", "translation_invariance_residual", "states.covariance"),
        ("states", "nonnormality_series", "states.nonnormality"),
    ]

    def __init__(self, prog: Program):
        self.prog = prog
        self.spans = []
        self.counts = Counter()
        self.job = 0
        self._apply_mode_calls = [0]
        self._stack = []
        self._undo = []

    def __enter__(self):
        p, np = self.prog, self.prog.np
        for home, attr, name in self.SPANS:
            self._rebind(getattr(p, home), attr, lambda orig, name=name: self._wrap(orig, name))
        self._rebind(p.sugawara, "expm", lambda orig: self._wrap(
            orig, "sugawara.expm",
            lambda a: ("sugawara.expm.bytes", np.asarray(a[0]).nbytes)))
        self._rebind(p.fock, "apply_mode", self._count_only)
        cls = p.fnspace.CircleFourier
        self._undo.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap(
            cls.__call__, "fnspace.circle_eval",
            lambda a: ("fnspace.circle_eval.evals", np.size(a[1]) * a[0].coeffs.size))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, home, attr, make):
        """Replace home.attr by make(home.attr) in every package module that bound it.

        A name the program no longer has is skipped, and its layer reads 0.
        """
        orig = getattr(home, attr, None)
        if orig is None:
            return
        wrapper = make(orig)
        for mod in self.prog.package_modules:
            if vars(mod).get(attr) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _count_only(self, orig):
        # apply_mode(n, v) runs over a million times a pass: a positional
        # wrapper and a list cell cost a fifth of a generic counting wrapper.
        box = self._apply_mode_calls

        def wrapper(n, v):
            box[0] += 1
            return orig(n, v)

        return wrapper

    def _wrap(self, orig, name, extra=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if extra is not None:
                key, n = extra(args)
                counts[key] += n
            rec = [self.job, name, stack[-1] if stack else None, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return orig(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def metrics(self, speed: float = 1.0) -> dict:
        """Per-layer totals of this pass: counts, inclusive seconds and self seconds.

        Seconds are multiplied by ``speed``, the pass's host speed relative to
        the reference; the probe's samples stay inside the spans they hit.
        """
        incl, self_s = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for job, name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for i, (job, name, parent, t0, t1) in enumerate(self.spans):
            self_s[name] += ((t1 - t0) - child[i]) * speed
            anc = parent
            while anc is not None and self.spans[anc][1] != name:
                anc = self.spans[anc][2]
            if anc is None:  # outermost span of this name: count it once
                incl[name] += (t1 - t0) * speed
        out = {k: float(v) for k, v in self.counts.items()}
        out["fock.apply_mode.calls"] = float(self._apply_mode_calls[0])
        out.update({f"{k}.s": v for k, v in incl.items()})
        out["sugawara.weyl_adjoint.self_s"] = float(self_s["sugawara.weyl_adjoint"])
        for mod in ("fnspace", "fock", "sugawara", "states", "cli"):
            out[f"{mod}.self_s"] = float(sum(v for k, v in self_s.items()
                                             if k.startswith(mod + ".")))
        return out


# ---------------------------------------------------------------------------
# Run record


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(prog: Program, workload: str, seed: int, args, jobs: list) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chiralground").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = prog.np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cutoffs = sorted({N for job in jobs for N in job.cutoffs})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "jobs": [job.describe for job in jobs],
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "scipy": prog.scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "basis_dim": {N: len(prog.fock.basis_partitions(N)) for N in cutoffs},
    }


# ---------------------------------------------------------------------------
# Entry point


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from the start of a fresh process until its inputs are built.

    Each is (wall, the same at reference host speed); the child process runs
    the probe from its first statement and reports it with "ready".
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run\n"
            f"with run.SpeedProbe() as probe: run.setup({workload!r}, {seed})\n"
            f"print('ready', sum(probe.samples), probe.speed(), flush=True)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().split()
            t1 = time.perf_counter()
            child.stdout.read()
        if line[:1] != ["ready"] or child.returncode != 0:
            raise SystemExit(f"error: set-up process exited with {child.returncode}")
        probe_s, speed = float(line[1]), float(line[2])
        samples.append((t1 - t0, (t1 - t0 - probe_s) * speed))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_samples = measure_setup(args.workload, args.seed) if not args.trace else []
    prog, jobs = setup(args.workload, args.seed)

    # A pass is not started when the median round so far would end it after
    # --seconds, so a run lasts at most its set-up plus --seconds.
    raw_walls, walls, traced_walls, layer_runs, passes, traces = [], [], [], [], [], []
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        t0 = time.perf_counter()
        wall, probe, outputs = run_pass(prog, jobs)
        raw_walls.append(wall)
        walls.append(probe.rescale(wall))
        passes.append(outputs)
        if args.trace:
            with Tracer(prog) as tracer:
                wall, probe, outputs = run_pass(prog, jobs, tracer)
            traced_walls.append(probe.rescale(wall))
            passes.append(outputs)
            layer_runs.append(tracer.metrics(probe.speed()))
            traces.append({"wall_s": wall, "speed": probe.speed(), "spans": tracer.spans})
        rounds.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [(p, *c) for p, outputs in enumerate(passes) for c in gate(jobs, outputs)]
    bad = [(p, name, i) for p, name, ok, i in checks if not ok and name not in KNOWN_DEFECTS]
    n_failed = sum(not ok for _, _, ok, _ in checks)
    record = run_record(prog, args.workload, args.seed, args, jobs)
    record["passes"] = len(walls)
    record["failed_checks"] = sorted({name for _, name, ok, _ in checks if not ok})
    record["unexpected_failures"] = sorted({name for _, name, _ in bad})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = {k: float(statistics.median(m.get(k, 0.0) for m in layer_runs)) for k in units}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"run_record": record, "passes": traces}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(ref for _, ref in setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - n_failed / len(checks),
        }
        record["wall_s_passes"] = walls
        record["raw_wall_s_passes"] = raw_walls
        record["setup_s_samples"] = [ref for _, ref in setup_samples]
        record["raw_setup_s_samples"] = [raw for raw, _ in setup_samples]

    print("run record: " + json.dumps(record))
    print(f"gated checks: {len(checks)} attempted, {n_failed} failed "
          f"(fail_frac {n_failed / len(checks):.6f}): "
          f"{', '.join(record['failed_checks']) or 'none'}")
    result = {
        "correct": not bad,
        "attempted": len(passes) * len(jobs),
        "failed": len({(p, i) for p, _, i in bad}),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
