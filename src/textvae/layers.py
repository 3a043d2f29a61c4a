"""LSTM cell, linear projection, word-dropout masks.

All layers operate on column-oriented tensors: a batch of B vectors of
dimension m is an (m, B) matrix.  Layer weights live in a name -> Tensor
store (see ``model.VaeParams``); a layer reads its tensors by name prefix.
The LSTM cell is plain numpy: ``model.lstm_recurrence`` runs it over a
whole sequence as one autodiff op with its own backward.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError


def stack_lstm(params, prefix: str, n_x: int):
    """The gate tensors ``{prefix}.w_{i,f,o,c}`` and ``{prefix}.b_{i,f,o,c}``
    stacked into gate rows [i; f; o; g] and split by input columns.

    Each stored (d, n_x + k + d) weight acts on [input; static input;
    hidden], where the static input (k rows, possibly none) is the same at
    every position.  Returns (w_x (4d, n_x), w_s (4d, k), w_h (4d, d),
    b (4d, 1)) as numpy arrays; the weight pieces are views of one stack.
    """
    w = np.concatenate([params[f"{prefix}.w_{g}"].data for g in "ifoc"])
    b = np.concatenate([params[f"{prefix}.b_{g}"].data for g in "ifoc"])
    d = b.shape[0] // 4
    return w[:, :n_x], w[:, n_x: w.shape[1] - d], w[:, w.shape[1] - d:], b


def lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
              base: np.ndarray):
    """One LSTM cell update over a column batch, in numpy.

    ``w_x``/``w_h`` are stacked [i; f; o; g] gate weights (see
    ``stack_lstm``); ``base`` is the bias, plus the static input's term when
    there is one.  ``x`` is (n_x, B), or (n_x, 1) for an input that every
    column shares: its gate term is then one column added to all of them.
    The sigmoid gates are computed as 0.5 * tanh(v / 2) + 0.5, so one tanh
    covers all four gates.  Returns (h_next, c_next, gates), where ``gates``
    holds the activated (4d, B) [i; f; o; g].
    """
    d = h.shape[0]
    gates = w_h @ h
    gates += w_x @ x
    gates += base
    sig = gates[: 3 * d]
    sig *= 0.5
    np.tanh(gates, out=gates)
    sig *= 0.5
    sig += 0.5
    c_next = gates[d: 2 * d] * c
    c_next += gates[:d] * gates[3 * d:]
    h_next = gates[2 * d: 3 * d] * np.tanh(c_next)
    return h_next, c_next, gates


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """weight @ x + bias, bias broadcast over columns."""
    return ad.add_col(ad.matmul(weight, x), bias)


def sample_masks(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(keep_prob) word-dropout masks as a float64 0/1 array.

    One (B, n) draw consumes the generator exactly like B successive draws
    of n, row by row.
    """
    if not 0.0 <= keep_prob <= 1.0:
        raise ConfigError(f"keep probability must lie in [0, 1], got {keep_prob}")
    return (rng.random(shape) < keep_prob).astype(np.float64)
