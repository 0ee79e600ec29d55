"""Layer timings of the Helmholtz FGMRES/V-cycle solver at n=128.

The system is that of the ``helmholtz-fgmres`` benchmark workload at
frequency 5: damped Helmholtz at n=128 (16,129 complex unknowns), a
Galerkin hierarchy down to n=16 with a NAG-Richardson(5) smoother
(omega = 0.8/(8 n^2), alpha = 0.3). Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py \\
        --benchmark-json=layers.json

This directory is outside ``testpaths``, so the test suite does not
collect it.
"""
import numpy as np
import pytest

from richlab.fgmres import FgmresConfig, fgmres
from richlab.multigrid import build_hierarchy, v_cycle
from richlab.problems import HelmholtzProblem, assemble_helmholtz
from richlab.schedules import WeightSchedule

N = 128
FREQUENCY = 5.0
RESTART = 20


@pytest.fixture(scope="module")
def system():
    A = assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * FREQUENCY, n=N))
    smoother = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * N ** 2)),
                              alpha=np.full(5, 0.3), variant="nag")
    h = build_hierarchy(A, N, coarsest=16, schedules=smoother)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
    return A, h, f


def test_complex_fine_matvec(benchmark, system):
    A, _, f = system
    benchmark(A.matvec, f)


def test_fine_level_v_cycle(benchmark, system):
    """One V-cycle from the finest level, from a zero iterate."""
    _, h, f = system
    benchmark(v_cycle, h, f)


def test_fgmres_arnoldi_step(benchmark, system):
    """One full restart cycle of RESTART Arnoldi steps, unpreconditioned
    so that only FGMRES's own work and one matvec per step are timed; the
    time per step is the cycle's time over RESTART (``extra_info``)."""
    A, _, f = system
    cfg = FgmresConfig(restart=RESTART, tol=1e-300, max_outer=1)
    _, rep = benchmark(fgmres, A, f, None, cfg)
    assert rep.iterations == RESTART
    benchmark.extra_info["arnoldi_steps_per_call"] = RESTART
