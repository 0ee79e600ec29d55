"""Damped Helmholtz solves with flexible GMRES.

Assembles the complex-shifted 5-point Helmholtz operator with an
absorbing sponge layer and solves it with restarted flexible GMRES,
first unpreconditioned and then right-preconditioned by a V-cycle with a
momentum-accelerated smoother. The flexible variant stores the
preconditioned vectors, so any solver step is a legal preconditioner.
Last, it lists how each smoothed level runs its sweep.
"""
import numpy as np

from richlab import (FgmresConfig, HelmholtzProblem, assemble_helmholtz,
                     fgmres, helmholtz_hierarchy, v_cycle)

N = 64
freq = 5.0
prob = HelmholtzProblem(angular_frequency=2 * np.pi * freq, n=N)
A = assemble_helmholtz(prob)
rng = np.random.default_rng(5)
f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)

cfg = FgmresConfig(restart=20, tol=1e-6, max_outer=200)
_, plain = fgmres(A, f, cfg=cfg)

h = helmholtz_hierarchy(A, N)
_, pre = fgmres(A, f, precond_apply=lambda r: v_cycle(h, r), cfg=cfg)

print(f"frequency {freq:g}: identity preconditioner "
      f"{plain.iterations} iterations, V-cycle preconditioner "
      f"{pre.iterations} iterations")
# each smoothed level runs its NAG sweep as one polynomial by Horner's
# rule, unless its amplification bound calls for the step recurrence
for n, count, form, bound in h.smoothing():
    print(f"  level n={n}: {count} sweep by {form}, amplification bound "
          f"{bound:.3g}")
