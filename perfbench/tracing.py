"""In-memory spans around calls into richlab's public functions.

The tracer replaces a function or method attribute with a wrapper for as
long as it is installed, at the place where its caller looks the name up
(``fns`` calls the ``dst2`` it imported, so ``richlab.fns.dst2`` is the
one wrapped). Each call becomes one span: name, start, end, parent and
an optional measured value (computed bytes for a matvec, inner updates
for a stationary solve). Spans stay in compact arrays until the run
ends, when they are summarised and written out.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

from richlab import data, fns, multigrid, problems, richardson, spectral
from richlab import training
from richlab.metanet import MetaNet
from richlab.precond import Preconditioner
from richlab.sparse import SparseMatrix
from richlab.tape import Tape

# the package re-exports the function fgmres under the module's name
fgmres = importlib.import_module("richlab.fgmres")


def _matvec_bytes(args, result):
    """Bytes a CSR product reads and writes, computed from array sizes."""
    A, x = args[0], args[1]
    csr = A.to_scipy()
    return float(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
                 + np.asarray(x).nbytes + result.nbytes)


def _inner_updates(args, result):
    return float(result[1].inner_iterations)


# (owner, attribute, span name, opaque, measure). An opaque span records
# none of the spans nested in it, so its self time is its whole duration.
PATCHES = [
    (problems, "assemble_anisotropic", "problems.assemble", False, None),
    (problems, "assemble_helmholtz", "problems.assemble", False, None),
    (data, "assemble_anisotropic", "problems.assemble", False, None),
    (data, "assemble_helmholtz", "problems.assemble", False, None),
    (data, "sample_dataset", "data.sample", False, None),
    (spectral, "dense_spectral_bounds", "spectral.bounds", False, None),
    (fns, "sine_basis_eigenvalues", "fns.sine_eig", True, None),
    (SparseMatrix, "matvec", "sparse.matvec", False, _matvec_bytes),
    (SparseMatrix, "rmatvec", "sparse.matvec", False, _matvec_bytes),
    (richardson, "solve_stationary", "richardson.solve", False,
     _inner_updates),
    (fns, "fns_lite_step", "fns.step", False, None),
    (fns, "dst2", "transforms.dst2", False, None),
    (fns, "dst2_inv", "transforms.dst2", False, None),
    (Preconditioner, "ssor", "precond.build", False, None),
    (Preconditioner, "sor", "precond.build", False, None),
    (Preconditioner, "weighted_jacobi", "precond.build", False, None),
    (Preconditioner, "apply", "precond.apply", False, None),
    (Preconditioner, "apply_transpose", "precond.apply", False, None),
    (training, "loss_relative_residual", "tape.forward", False, None),
    (Tape, "backward", "tape.backward", False, None),
    (MetaNet, "forward_tape", "metanet.forward", False, None),
    (MetaNet, "schedule_arrays", "metanet.forward", False, None),
    (training, "evaluate_loss", "training.eval", False, None),
    (multigrid, "build_hierarchy", "multigrid.build", False, None),
    (multigrid, "v_cycle", "multigrid.vcycle", False, None),
    (fgmres, "fgmres", "fgmres.solve", False, None),
]

SETUP_SPAN = "bench.setup"
ROUND_SPAN = "bench.round"

# per-layer metrics taken from set-up spans: median self time per set-up
SETUP_LAYERS = {
    "problems.assemble_s": "problems.assemble",
    "data.sample_s": "data.sample",
    "spectral.bounds_s": "spectral.bounds",
    "fns.sine_eig_s": "fns.sine_eig",
    "multigrid.build_s": "multigrid.build",
}
# per-layer metrics taken from traced rounds: median per round of the
# self time (kind "s"), the call count ("calls") or the summed measured
# value ("value")
ROUND_LAYERS = {
    "sparse.matvec_calls": ("sparse.matvec", "calls"),
    "sparse.matvec_s": ("sparse.matvec", "s"),
    "richardson.solve_self_s": ("richardson.solve", "s"),
    "richardson.inner_updates": ("richardson.solve", "value"),
    "fns.step_calls": ("fns.step", "calls"),
    "fns.step_s": ("fns.step", "s"),
    "transforms.dst2_calls": ("transforms.dst2", "calls"),
    "transforms.dst2_s": ("transforms.dst2", "s"),
    "precond.build_calls": ("precond.build", "calls"),
    "precond.build_s": ("precond.build", "s"),
    "precond.apply_calls": ("precond.apply", "calls"),
    "precond.apply_s": ("precond.apply", "s"),
    "tape.forward_s": ("tape.forward", "s"),
    "tape.backward_s": ("tape.backward", "s"),
    "metanet.forward_s": ("metanet.forward", "s"),
    "training.eval_s": ("training.eval", "s"),
    "multigrid.vcycle_calls": ("multigrid.vcycle", "calls"),
    "multigrid.vcycle_s": ("multigrid.vcycle", "s"),
    "fgmres.self_s": ("fgmres.solve", "s"),
}


class Tracer:
    """Span recorder; install it around the code to be traced."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._value = array("d")
        self._stack = []
        self._opaque = False
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._value.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self._start[idx] = t0
        self._end[idx] = t1

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, fn, name, opaque, measure):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            self._opaque = opaque
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._opaque = False
                self._close(idx, t0, t1)
            if measure is not None:
                self._value[idx] = measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute in PATCHES, restoring them on exit."""
        try:
            for owner, attr, name, opaque, measure in PATCHES:
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapped = classmethod(self._wrap(static.__func__, name,
                                                     opaque, measure))
                else:
                    wrapped = self._wrap(static, name, opaque, measure)
                self._saved.append((owner, attr, static))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attr, static = self._saved.pop()
                setattr(owner, attr, static)

    def arrays(self):
        """Spans as numpy arrays (name id, parent, start, end, value)."""
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start).copy(),
                "end": np.frombuffer(self._end).copy(),
                "value": np.frombuffer(self._value).copy()}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, duration):
    """Duration of each span minus the time its child spans cover."""
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def top_ancestors(parent):
    """Index of each span's outermost enclosing span (itself if none)."""
    top = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        nxt = top[top]
        if np.array_equal(nxt, top):
            return top
        top = nxt


def summarise(tracer):
    """Per-layer metrics from recorded spans.

    Set-up layers give the median over set-ups of the layer's self time
    in one set-up; round layers give the median over traced rounds of
    the per-round self time, call count or measured value.
    """
    sp = tracer.arrays()
    names = tracer.names
    duration = sp["end"] - sp["start"]
    own = self_times(sp["parent"], duration)
    top = top_ancestors(sp["parent"])
    ids = {name: i for i, name in enumerate(names)}
    out = {}

    def per_group(group_name, layer, column):
        groups = np.nonzero(sp["name"] == ids.get(group_name, -1))[0]
        if len(groups) == 0:
            return np.zeros(1)
        sel = (sp["name"] == ids.get(layer, -1)) & np.isin(top, groups)
        weights = {"s": own, "calls": np.ones_like(own),
                   "value": sp["value"]}[column][sel]
        slot = np.searchsorted(groups, top[sel])
        return np.bincount(slot, weights=weights, minlength=len(groups))

    for metric, layer in SETUP_LAYERS.items():
        out[metric] = float(np.median(per_group(SETUP_SPAN, layer, "s")))
    for metric, (layer, column) in ROUND_LAYERS.items():
        out[metric] = float(np.median(per_group(ROUND_SPAN, layer, column)))

    rounds = np.nonzero(sp["name"] == ids.get(ROUND_SPAN, -1))[0]
    sel = (sp["name"] == ids.get("sparse.matvec", -1)) & np.isin(top, rounds)
    busy = float(own[sel].sum())
    out["sparse.matvec_gbs_computed"] = (
        float(sp["value"][sel].sum()) / busy / 1e9 if busy > 0 else 0.0)
    return out
