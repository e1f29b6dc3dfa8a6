"""One full-size pass of each benchmark workload, gated as perfbench/run.py gates it.

perfbench/run.py is loaded as it is, not changed, so a slip in a report's
format that would fail the benchmark's gates fails here first.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    # import_program sets the BLAS thread variables and prepends src/ to sys.path;
    # monkeypatch puts both back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["fock-algebra", "weyl-adjoint", "ground-states"])
def test_one_full_pass_meets_the_gates(run, workload):
    prog, jobs = run.setup(workload, 1, run.FULL)
    _, _, outputs = run.run_pass(prog, jobs)
    checks = run.gate(jobs, outputs)
    failed = {name for name, ok, _ in checks if not ok}
    assert failed <= run.KNOWN_DEFECTS
    if workload == "ground-states":
        assert len(checks) == 15
        assert sum(ok for _, ok, _ in checks) >= 13
