"""The single-use record of one training batch's forward pass.

A recorded loss (``training.loss_relative_residual``) comes with a
:class:`Tape` that holds the composed adjoint of that batch: the
unroll's transposed recurrence (``training._unroll``) and the schedule
network's backward (``MetaNet.backward``), with the history both read.
"""
from __future__ import annotations


class TapeReuseError(RuntimeError):
    """A tape can drive exactly one backward pass."""


class Tape:
    def __init__(self, adjoint):
        self._adjoint = adjoint

    def backward(self):
        """The parameter gradients of the recorded loss. The tape drops
        the adjoint, and with it the history, so the history is freed by
        reference counting once the gradients are returned."""
        if self._adjoint is None:
            raise TapeReuseError("tape has already been replayed")
        adjoint, self._adjoint = self._adjoint, None
        return adjoint()
