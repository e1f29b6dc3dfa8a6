#!/usr/bin/env python3
"""Self-test of the benchmark: its gates catch a known-bad output, and each
workload runs at a small size under the tracer, which touches the layers the
workload is meant to exercise and leaves the program as it found it.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Per workload, per-layer metrics that a traced smoke pass must see non-zero.
EXERCISED = {
    "fock-algebra": ["fock.apply_mode.calls", "fock.heisenberg_residual.s",
                     "sugawara.virasoro_residual.s", "sugawara.central_charge_estimate.s"],
    "weyl-adjoint": ["fock.operator_matrix.s", "sugawara.expm.s", "sugawara.expm.bytes",
                     "sugawara.weyl_adjoint.self_s"],
    "ground-states": ["fnspace.circle_eval.evals", "fnspace.line_integral.calls",
                      "fnspace.resample.s", "states.ground_weyl.calls", "states.gram_psd.s",
                      "states.nonnormality.s", "cli.self_s"],
}


def pass_frac(prog, jobs) -> float:
    _, _, outputs = run.run_pass(prog, jobs)
    checks = run.gate(jobs, outputs)
    return sum(ok for _, ok, _ in checks) / len(checks)


def main() -> int:
    prog = run.import_program()
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    argv = ["verify", "--cutoff", "8", "--format", "json"]
    good = pass_frac(prog, [run.cli_job(prog, "verify", argv, run.check_verify)])
    bad = pass_frac(prog, [run.cli_job(prog, "verify", argv + ["--drop-central-term"],
                                       run.check_verify)])
    expect(good == 1.0, f"verify passes every gate (pass_frac {good:.4f})")
    expect(bad < good, f"verify --drop-central-term lowers pass_frac ({bad:.4f} < {good:.4f})")

    bound = [(m, a, getattr(m, a)) for m in prog.package_modules for a in vars(m)]
    call = prog.fnspace.CircleFourier.__call__
    for workload in run.WORKLOADS:
        jobs = run.build_jobs(prog, workload, seed=0, size=run.SMOKE)
        with run.Tracer(prog) as tracer:
            _, _, outputs = run.run_pass(prog, jobs, tracer)
        raised = [f"{j.label}: {o!r}" for j, o in zip(jobs, outputs) if isinstance(o, BaseException)]
        expect(not raised, f"{workload}: smoke pass completes {raised or ''}")
        expect(bool(run.gate(jobs, outputs)), f"{workload}: smoke outputs are gated")
        layers = tracer.metrics()
        for name in EXERCISED[workload]:
            expect(layers.get(name, 0.0) > 0.0, f"{workload}: traced {name} = {layers.get(name)}")
    restored = all(getattr(m, a) is v for m, a, v in bound) and \
        prog.fnspace.CircleFourier.__call__ is call
    expect(restored, "tracer restores every function it wrapped")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
