"""Reverse-mode automatic differentiation over dense float64 tensors.

A dynamic tape records every differentiable operation in execution order.
Operations compute eagerly with numpy; each recorded entry carries a backward
rule that maps the output adjoint to input adjoints.  ``Tape.backward`` walks
the record once in reverse and returns ``∂loss/∂t`` for every leaf ``t`` the
loss depends on, as a dict keyed by tensor.  A tape is walked once: the walk
pops each entry as it reaches it, so an op's saved state is released as soon
as its input adjoints are out, and a second walk raises ContractError.
An input's first adjoint contribution is stored without a copy when the rule
made it fresh, and copied when it is ``g`` or a view (``Tape.backward`` gives
the rule), so a backward rule never keeps or reuses an array that it returns.
Tensors carry no gradient state.
Every op takes Tensor operands; ``add``, ``sub`` and ``mul`` need two of the
same shape and raise DimensionError on any other pair.  Each linear layer is
one op, ``affine`` (w @ x + b).
An op defined elsewhere (``model.lstm_recurrence``, ``model.output_log_lik``)
asks ``recording`` for the tape, keeps backward state only when there is one,
and records itself with ``Tape.record``.

Everything is 64-bit: gradient checks at 1e-4 relative error are not
reachable in single precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """Dense float64 array; hashes by identity, so it can key a gradient dict."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations; inputs always precede their users.

    One backward pass visits every recorded operation exactly once, in
    reverse order, and returns the gradients of the leaves (tensors no
    recorded op produced).  An op's output adjoint is complete when the walk
    reaches that op and is dropped there, so no intermediate adjoint outlives
    the walk.  The walk also pops the entry itself, releasing the op's saved
    state, so a tape can be walked only once and is empty afterwards.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._walked = False

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        """Append an op; its output now needs a gradient."""
        out.requires_grad = True
        self._entries.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Return ``{leaf: ∂loss/∂leaf}`` for every leaf the loss depends on.

        Later contributions are added in place to an input's first one, which
        is stored without a copy when it is a float64 ndarray that owns its
        data, is not the output adjoint ``g`` and was not stored already from
        the same entry; any other (``g``, a ``broadcast_to`` view, a reshape)
        is copied.  So a backward rule never keeps or reuses what it returns.
        """
        if loss.shape != ():
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self._walked:
            raise ContractError("backward on a tape that was already walked: "
                                "a tape releases its entries as it is walked")
        self._walked = True
        adjoints: dict[Tensor, np.ndarray] = {loss: np.ones(())} if loss.requires_grad else {}
        entries = self._entries
        while entries:
            out, inputs, backward_fn = entries.pop()
            g = adjoints.pop(out, None)
            if g is None:
                continue  # not an ancestor of the loss
            kept = []  # contributions of this entry stored without a copy
            for inp, contrib in zip(inputs, backward_fn(g)):
                if contrib is None or not inp.requires_grad:
                    continue
                if inp in adjoints:
                    adjoints[inp] += contrib
                elif (type(contrib) is np.ndarray and contrib.dtype == np.float64
                      and contrib.flags.owndata and contrib is not g
                      and all(contrib is not k for k in kept)):
                    adjoints[inp] = contrib
                    kept.append(contrib)
                else:
                    adjoints[inp] = np.array(contrib, dtype=np.float64, copy=True)
        return adjoints


_TAPE_STACK: list[Tape] = []


@contextmanager
def tape():
    """Open a fresh tape; ops executed inside are recorded on it."""
    t = Tape()
    _TAPE_STACK.append(t)
    try:
        yield t
    finally:
        _TAPE_STACK.pop()


def recording(inputs) -> Tape | None:
    """The tape an op over ``inputs`` records on: the innermost open tape when
    some input needs a gradient, else None (the op keeps no backward state)."""
    if _TAPE_STACK and any(i.requires_grad for i in inputs):
        return _TAPE_STACK[-1]
    return None


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    t = recording(inputs)
    if t is not None:
        t.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise operations


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def backward(g):
        return (g * bd if a.requires_grad else None, g * ad if b.requires_grad else None)

    return _record(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def backward(g):
        return (g * c,)

    return _record(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)

    def backward(g):
        return (g * y,)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra and structural operations


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``w @ x + b``: an (m, n) weight times an (n, B) input, plus an (m, 1) bias
    added to every column."""
    if (w.data.ndim != 2 or x.data.ndim != 2 or w.shape[1] != x.shape[0]
            or b.shape != (w.shape[0], 1)):
        raise DimensionError(f"affine: weight {w.shape}, input {x.shape} and bias {b.shape} "
                             "do not fit (m, n) @ (n, B) + (m, 1)")
    wd, xd = w.data, x.data
    out = Tensor(wd @ xd + b.data)

    def backward(g):
        return (g @ xd.T if w.requires_grad else None,
                wd.T @ g if x.requires_grad else None,
                g.sum(axis=1, keepdims=True) if b.requires_grad else None)

    return _record(out, (w, x, b), backward)


def select_columns(x: Tensor, idx) -> Tensor:
    """Gather columns of a (m,n) matrix; repeated indices accumulate gradient."""
    ids = np.asarray(idx, dtype=np.int64)
    if x.data.ndim != 2 or ids.ndim != 1:
        raise DimensionError(f"select_columns: matrix {x.shape}, index shape {ids.shape}")
    n = x.shape[1]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"column index out of range [0, {n}): {ids[(ids < 0) | (ids >= n)][:4]}")
    xd = x.data
    out = Tensor(xd[:, ids])

    def backward(g):
        full = np.zeros_like(xd)
        np.add.at(full, (slice(None), ids), g)
        return (full,)

    return _record(out, (x,), backward)


def column_sums(x: Tensor) -> Tensor:
    """Sum each column of a (m,n) matrix, producing a (1,n) row."""
    if x.data.ndim != 2:
        raise DimensionError(f"column_sums needs a matrix, got shape {x.shape}")
    shp = x.shape
    out = Tensor(x.data.sum(axis=0, keepdims=True))

    def backward(g):
        return (np.broadcast_to(g, shp),)

    return _record(out, (x,), backward)


def maximum_scalar(x: Tensor, c: float) -> Tensor:
    """Elementwise max(x, c); gradient follows x where x >= c, else zero."""
    c = float(c)
    xd = x.data
    out = Tensor(np.maximum(xd, c))

    def backward(g):
        return (g * (xd >= c),)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def reduce_mean(x: Tensor) -> Tensor:
    shp = x.shape
    n = x.data.size
    out = Tensor(x.data.mean())

    def backward(g):
        return (np.broadcast_to(g / n, shp),)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_error: float
    tol: float
    passed: bool
    worst_param: str

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"grad_check {status}: max relative error {self.max_error:.3e} "
                f"(tol {self.tol:.1e}, worst {self.worst_param!r})")


# Relative-error denominator floor.  Central differences on O(1) losses carry
# ~1e-10 roundoff noise; without a floor, parameters whose true gradient is
# zero would divide noise by noise.
_REL_ERR_FLOOR = 1e-4
# central-difference step
_FD_STEP = 1e-5


def grad_check(f, params, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` with central finite differences.

    ``f`` must be a zero-argument deterministic program returning a scalar
    Tensor; ``params`` is a dict or iterable of (name, Tensor).  Every
    parameter entry is perturbed by ±_FD_STEP.
    """
    named = list(params.items() if isinstance(params, dict) else params)

    with tape():
        first = f()
    if first.shape != ():
        raise ContractError(f"grad_check target must be scalar, got shape {first.shape}")
    second = f()
    if not np.array_equal(first.data, second.data):
        raise ContractError("grad_check target is non-deterministic: two forward passes disagree")

    with tape() as t:
        grads = t.backward(f())
    analytic = {name: grads.get(p, np.zeros_like(p.data)) for name, p in named}

    worst, worst_name = 0.0, ""
    for name, p in named:
        numeric = np.zeros(p.shape)
        for i in np.ndindex(p.shape):  # in place whatever the memory layout
            orig = p.data[i]
            p.data[i] = orig + _FD_STEP
            up = f().item()
            p.data[i] = orig - _FD_STEP
            down = f().item()
            p.data[i] = orig
            numeric[i] = (up - down) / (2.0 * _FD_STEP)
        a = analytic[name].reshape(p.shape)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), _REL_ERR_FLOOR)
        err = float(np.max(np.abs(a - numeric) / denom)) if p.data.size else 0.0
        if err >= worst:
            worst, worst_name = err, name
    return GradCheckReport(max_error=worst, tol=tol, passed=worst < tol, worst_param=worst_name)
