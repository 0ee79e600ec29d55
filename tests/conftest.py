import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, and slow shared machines do not
# trip hypothesis' per-example deadline
settings.register_profile("richlab", derandomize=True, deadline=None)
settings.load_profile("richlab")

from richlab.sparse import SparseMatrix, _Operator


def random_spd(n, rng, density=1.0):
    """Random dense SPD matrix as a SparseMatrix."""
    M = rng.standard_normal((n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        M = M * (mask | mask.T)
    A = M @ M.T + n * np.eye(n)
    return SparseMatrix.from_scipy(A)


def random_sparse(n, rng, density=0.4):
    M = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    M = M * mask
    np.fill_diagonal(M, np.abs(M.diagonal()) + 1.0)
    return SparseMatrix.from_scipy(M)


def count_bound_products(monkeypatch):
    """Patch the bound operator (``sparse._Operator``) so that each
    product it runs, probed (``matvec``) or accumulating
    (``accumulate``), appends (operator, route) to the returned list."""
    calls = []
    matvec, accumulate = _Operator.matvec, _Operator.accumulate.fget

    def counted_matvec(op, x):
        calls.append((op, "matvec"))
        return matvec(op, x)

    def counted_accumulate(op):
        kernel = accumulate(op)

        def run(x, y):
            calls.append((op, "accumulate"))
            return kernel(x, y)
        return run

    monkeypatch.setattr(_Operator, "matvec", counted_matvec)
    monkeypatch.setattr(_Operator, "accumulate", property(counted_accumulate))
    return calls


def sine_mode(n, p, q):
    """Flattened sine mode sin(p*pi*i/n)*sin(q*pi*j/n) on the interior."""
    i = np.arange(1, n)
    sp = np.sin(p * np.pi * i / n)
    sq = np.sin(q * np.pi * i / n)
    return np.outer(sp, sq).reshape(-1)


def assert_close(value, ref, rtol=1e-12):
    """Within rtol of the reference, relative to its largest entry."""
    value, ref = np.asarray(value), np.asarray(ref)
    assert np.abs(value - ref).max() <= rtol * np.abs(ref).max()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
