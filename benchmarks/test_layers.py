"""Layer timings of the Helmholtz FGMRES/V-cycle solver at n=128 and of
one training batch at n=32.

The Helmholtz system is that of the ``helmholtz-fgmres`` benchmark
workload at frequency 5: damped Helmholtz at n=128 (16,129 complex
unknowns), a Galerkin hierarchy down to n=16 with a NAG-Richardson(5)
smoother (omega = 0.8/(8 n^2), alpha = 0.3). The training batches are
drawn from the anisotropic set at n=32 (961 unknowns): a plain
schedule-net batch of 5 with the ``train-schedule`` unroll K=50, and a
hybrid batch of 20 with the ``FnsTrainConfig`` defaults (M=10 smoothing
updates, 3 hybrid steps) in each phase. Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py \\
        --benchmark-json=layers.json

This directory is outside ``testpaths``, so the test suite does not
collect it.
"""
import numpy as np
import pytest

from richlab import tape as tp
from richlab.data import sample_dataset
from richlab.fgmres import FgmresConfig, fgmres
from richlab.fns import FnsTrainConfig, _hybrid_loss, _initial_net
from richlab.metanet import MetaNet
from richlab.multigrid import build_hierarchy, v_cycle
from richlab.problems import HelmholtzProblem, assemble_helmholtz
from richlab.schedules import WeightSchedule
from richlab.tape import Tape
from richlab.training import _schedules, gradient, loss_relative_residual

N = 128
FREQUENCY = 5.0
RESTART = 20
TRAIN_N = 32


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


@pytest.fixture(scope="module")
def training_batch():
    return list(sample_dataset("anisotropic", 20, seed=0, n=TRAIN_N))


def test_schedule_net_batch(benchmark, training_batch):
    """Recorded forward and backward of one plain schedule-net batch."""
    net = MetaNet.create(3, variant="plain", input_dim=2, seed=1)
    batch = training_batch[:5]

    def step():
        return gradient(*loss_relative_residual(batch, net, 50))

    benchmark(step)


@pytest.mark.parametrize("phase", ["lambda", "omega"])
def test_hybrid_batch(benchmark, training_batch, phase):
    """Recorded forward and backward of one hybrid batch from the
    training's initial state: the initial smoother and a zero correction
    row per instance."""
    cfg = FnsTrainConfig()
    net = _initial_net(cfg, input_dim=2)
    table = np.zeros((len(training_batch), (TRAIN_N - 1) ** 2))

    def step():
        tape = Tape()
        if phase == "lambda":
            pvars = [tape.var(row) for row in table]
            omega = _schedules(training_batch, net, net.parameters())[0]
            lam = tp.stack(pvars)
        else:
            pvars = [tape.var(p) for p in net.parameters()]
            omega = _schedules(training_batch, net, pvars)[0]
            lam = table
        loss = _hybrid_loss(training_batch, omega, lam, cfg.unroll,
                            cfg.smooth_steps)
        tape.backward(loss)

    benchmark(step)
