"""Layer timings of the Helmholtz FGMRES/V-cycle solver at n=128, of the
anisotropic single-level layers at n=64 and of one training batch at
n=32.

The Helmholtz system is that of the ``helmholtz-fgmres`` benchmark
workload at frequency 5: damped Helmholtz at n=128 (16,129 complex
unknowns), a Galerkin hierarchy down to n=16 with a NAG-Richardson(5)
smoother (omega = 0.8/(8 n^2), alpha = 0.3). The training batches are
drawn from the anisotropic set at n=32 (961 unknowns): a plain
schedule-net batch of 5 with the ``train-schedule`` unroll K=50, and a
hybrid batch of 20 with the ``FnsTrainConfig`` defaults (M=10 smoothing
updates, 3 hybrid steps) in each phase. The SSOR rows time one build at
n=32 and one forward and one transposed apply over a 20-row stack, one
preconditioner per row, as a preconditioned training batch runs them.
The anisotropic rows take the eps=1e-2, theta=0 cell of the
``aniso-solve`` workload (n=64, 3,969 unknowns): its assembly and
spectral bounds, one product, and plain Richardson inner updates as the
solver runs them.
Run from the repository root:

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
from richlab.multigrid import _smooth, build_hierarchy, v_cycle
from richlab.precond import Preconditioner
from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              assemble_anisotropic, assemble_helmholtz)
from richlab.richardson import solve_stationary
from richlab.schedules import WeightSchedule
from richlab.spectral import dense_spectral_bounds
from richlab.tape import Tape
from richlab.training import (_rowwise, _schedules, gradient,
                              loss_relative_residual)

N = 128
FREQUENCY = 5.0
RESTART = 20
TRAIN_N = 32
ANISO = AnisotropicProblem(epsilon=1e-2, theta=0.0, n=64)
UPDATES = 50   # plain inner updates per timed solve


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


def test_fine_level_nag_smoothing(benchmark, system):
    """One NAG-Richardson(5) smoothing pass on the finest level, from a
    copy of a fixed non-zero iterate."""
    _, h, f = system
    u = v_cycle(h, f)
    benchmark(lambda: _smooth(h.levels[0], f, u.copy(), 1))


@pytest.fixture(scope="module")
def aniso():
    A = assemble_anisotropic(ANISO)
    x = np.random.default_rng(0).standard_normal(A.ncols)
    return A, x


def test_aniso_assembly(benchmark):
    benchmark(assemble_anisotropic, ANISO)


def test_aniso_spectral_bounds(benchmark, aniso):
    benchmark(dense_spectral_bounds, aniso[0])


def test_aniso_matvec(benchmark, aniso):
    A, x = aniso
    benchmark(A.matvec, x)


def test_aniso_plain_inner_updates(benchmark, aniso):
    """UPDATES plain inner updates of the solver (one sweep of a constant
    schedule, each update followed by the residual and its norm); the
    time per update is the call's time over UPDATES (``extra_info``)."""
    A, f = aniso
    omega = 1.0 / dense_spectral_bounds(A).lambda_max
    schedule = WeightSchedule(omega=np.full(UPDATES, omega))
    _, rep = benchmark(solve_stationary, A, f, schedule, tol=1e-300,
                       max_outer=1)
    assert rep.inner_iterations == UPDATES
    benchmark.extra_info["inner_updates_per_call"] = UPDATES


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


def test_ssor_build(benchmark, training_batch):
    benchmark(Preconditioner.ssor, training_batch[0].A)


@pytest.mark.parametrize("direction", ["apply", "apply_transpose"])
def test_ssor_row_stack(benchmark, training_batch, direction):
    apply, apply_t = _rowwise([Preconditioner.ssor(s.A)
                               for s in training_batch])
    X = np.stack([s.f for s in training_batch])
    benchmark(apply if direction == "apply" else apply_t, X)
