"""Momentum-accelerated Richardson(m) iterations with learned weight
schedules, composed into multigrid and Krylov solvers."""

from .sparse import SparseMatrix, spmv, read_matrix_market, write_matrix_market
from .spectral import SpectralBounds, dense_spectral_bounds
from .transforms import dst2, dst2_inv, sine_mode
from .problems import (AnisotropicProblem, HelmholtzProblem, ProblemSpec,
                       assemble_anisotropic, assemble_helmholtz,
                       coefficient_matrix)
from .data import Dataset, sample_dataset, read_manifest, write_manifest
from .schedules import (WeightSchedule, chebyshev_schedule,
                        chebyshev_semi_schedule, chebyshev_semi_weights,
                        chebyshev_weights)
from .precond import Preconditioner, apply_preconditioner
from .richardson import DivergenceError, SolveReport, solve_stationary
from .checkpoint import load_checkpoint, save_checkpoint
from .metanet import MetaNet, meta_forward
from .training import (Adam, TrainConfig, evaluate_loss, train_ns,
                       make_preconditioner)
from .multigrid import (Hierarchy, build_hierarchy, galerkin_coarse,
                        prolongation_matrix, restriction_matrix, v_cycle)
from .fns import (FnsLiteModel, FnsTrainConfig, SpectralCorrection,
                  fns_lite_step, sine_basis_eigenvalues, solve_fns,
                  train_fns_lite)
from .fgmres import FgmresConfig, fgmres

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
