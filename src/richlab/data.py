"""Seeded train/test dataset generation for the model problems."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import (AnisotropicProblem, ProblemSpec, _integer,
                       assemble_anisotropic, assemble_anisotropic_batch,
                       assemble_helmholtz)
from .sparse import SparseMatrix

EPS_RANGE = (1e-6, 1.0)
THETA_RANGE = (0.0, np.pi)


@dataclass
class Sample:
    spec: ProblemSpec
    A: SparseMatrix
    f: np.ndarray

    @property
    def mu(self):
        return self.spec.mu


@dataclass
class Dataset:
    kind: str
    seed: int
    n: int
    samples: list[Sample]

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


def assemble(spec: ProblemSpec) -> SparseMatrix:
    if spec.kind == "anisotropic":
        return assemble_anisotropic(spec)
    return assemble_helmholtz(spec)


def sample_dataset(kind, count, seed, n) -> Dataset:
    """Draw ``count`` anisotropic problem instances deterministically
    under ``seed``: eps ~ U(1e-6, 1), theta ~ U(0, pi), and standard
    normal right-hand sides. ``kind`` must be ``"anisotropic"``, the
    family the schedule trainers accept; it is recorded in the metadata.
    The operators are assembled in one batch, so they share one
    read-only sparsity pattern (see :func:`assemble_anisotropic_batch`).
    """
    count = _integer("count", count, 1)
    if kind != "anisotropic":
        raise ValueError(f"unsupported dataset kind: {kind!r}")
    rng = np.random.default_rng(seed)
    specs, rhs = [], []
    for _ in range(count):
        eps = rng.uniform(*EPS_RANGE)
        theta = rng.uniform(*THETA_RANGE)
        specs.append(AnisotropicProblem(epsilon=eps, theta=theta, n=n))
        rhs.append(rng.standard_normal(specs[-1].ndof))
    samples = [Sample(spec=spec, A=A, f=f) for spec, A, f in
               zip(specs, assemble_anisotropic_batch(specs), rhs)]
    return Dataset(kind=kind, seed=seed, n=specs[0].n, samples=samples)
