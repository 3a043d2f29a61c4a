"""Reverse-mode automatic differentiation over dense float64 tensors.

A dynamic tape records every differentiable operation in execution order.
Operations compute eagerly with numpy; each recorded entry carries a backward
rule that maps the output adjoint to input adjoints.  ``Tape.backward`` walks
the record once in reverse and returns ``∂loss/∂t`` for every leaf ``t`` the
loss depends on, as a dict keyed by tensor.  Tensors carry no gradient state.
An op defined elsewhere (``model.lstm_recurrence``, ``model.output_log_lik``)
asks ``recording`` for the tape, keeps backward state only when there is one,
and records itself with ``Tape.record``.

Everything is 64-bit: gradient checks at 1e-4 relative error are not
reachable in single precision.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError

# np.exp overflows to inf a little above this
_EXP_MAX = 700.0

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
    the walk.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        """Append an op; its output now needs a gradient."""
        out.requires_grad = True
        self._entries.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Return ``{leaf: ∂loss/∂leaf}`` for every leaf the loss depends on."""
        if loss.shape != ():
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        adjoints: dict[Tensor, np.ndarray] = {loss: np.ones(())} if loss.requires_grad else {}
        for out, inputs, backward_fn in reversed(self._entries):
            g = adjoints.pop(out, None)
            if g is None:
                continue  # not an ancestor of the loss
            for inp, contrib in zip(inputs, backward_fn(g)):
                if contrib is None or not inp.requires_grad:
                    continue
                if inp in adjoints:
                    adjoints[inp] += contrib
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


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (numbers.Number, np.ndarray, list, tuple)):
        return Tensor(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a Tensor")


# ---------------------------------------------------------------------------
# elementwise operations


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    """Same shape, or one side scalar (broadcast).  Returns (a_scalar, b_scalar)."""
    if a.shape == b.shape:
        return False, False
    if a.shape == ():
        return True, False
    if b.shape == ():
        return False, True
    raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_sc, b_sc = _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        ga = g.sum() if a_sc else g
        gb = g.sum() if b_sc else g
        return (ga if a.requires_grad else None, gb if b.requires_grad else None)

    return _record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_sc, b_sc = _binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        ga = g.sum() if a_sc else g
        gb = -(g.sum() if b_sc else g)
        return (ga if a.requires_grad else None, gb if b.requires_grad else None)

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_sc, b_sc = _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def backward(g):
        ga = (g * bd).sum() if a_sc else g * bd
        gb = (g * ad).sum() if b_sc else g * ad
        return (ga if a.requires_grad else None, gb if b.requires_grad else None)

    return _record(out, (a, b), backward)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)

    def backward(g):
        return (g * c,)

    return _record(out, (x,), backward)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.size and np.max(x.data) > _EXP_MAX:
        raise NumericError(f"exp would overflow: max input {np.max(x.data):.3g}")
    y = np.exp(x.data)
    out = Tensor(y)

    def backward(g):
        return (g * y,)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra and structural operations


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)

    def backward(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def add_col(mat, col) -> Tensor:
    """Add a (m,1) column vector to every column of a (m,n) matrix."""
    mat, col = _as_tensor(mat), _as_tensor(col)
    if mat.data.ndim != 2 or col.shape != (mat.shape[0], 1):
        raise DimensionError(f"add_col: matrix {mat.shape} with column {col.shape}")
    out = Tensor(mat.data + col.data)

    def backward(g):
        return (g if mat.requires_grad else None,
                g.sum(axis=1, keepdims=True) if col.requires_grad else None)

    return _record(out, (mat, col), backward)


def select_columns(x, idx) -> Tensor:
    """Gather columns of a (m,n) matrix; repeated indices accumulate gradient."""
    x = _as_tensor(x)
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


def column_sums(x) -> Tensor:
    """Sum each column of a (m,n) matrix, producing a (1,n) row."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError(f"column_sums needs a matrix, got shape {x.shape}")
    shp = x.shape
    out = Tensor(x.data.sum(axis=0, keepdims=True))

    def backward(g):
        return (np.broadcast_to(g, shp),)

    return _record(out, (x,), backward)


def maximum_scalar(x, c: float) -> Tensor:
    """Elementwise max(x, c); gradient follows x where x >= c, else zero."""
    x = _as_tensor(x)
    c = float(c)
    xd = x.data
    out = Tensor(np.maximum(xd, c))

    def backward(g):
        return (g * (xd >= c),)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def reduce_mean(x) -> Tensor:
    x = _as_tensor(x)
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

    per_param: dict
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


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` with central finite differences.

    ``f`` must be a zero-argument deterministic program returning a scalar
    Tensor; ``params`` is a dict or iterable of (name, Tensor).  Every
    parameter entry is perturbed by ±h.
    """
    if isinstance(params, dict):
        named = list(params.items())
    else:
        named = [p if isinstance(p, tuple) else (f"p{i}", p) for i, p in enumerate(params)]

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

    per_param: dict[str, float] = {}
    worst, worst_name = 0.0, ""
    for name, p in named:
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), _REL_ERR_FLOOR)
        err = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
        per_param[name] = err
        if err >= worst:
            worst, worst_name = err, name
    return GradCheckReport(per_param=per_param, max_error=worst, tol=tol,
                           passed=worst < tol, worst_param=worst_name)
