"""LSTM cell, linear projection, word-dropout masks.

All layers operate on column-oriented tensors: a batch of B vectors of
dimension m is an (m, B) matrix.  Layer weights live in a name -> Tensor
store (see ``model.VaeParams``); a layer reads its tensors by name prefix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError


def lstm_step(x: Tensor, h: Tensor, c: Tensor, params, prefix: str) -> tuple[Tensor, Tensor]:
    """One LSTM cell update over a column batch.

    Gate weights ``{prefix}.w_{i,f,o,c}`` act on the concatenated [input;
    hidden] columns; biases ``{prefix}.b_{i,f,o,c}`` are (hidden, 1) columns.
    """
    xh = ad.concat_rows(x, h)
    i = ad.sigmoid(ad.add_col(ad.matmul(params[f"{prefix}.w_i"], xh), params[f"{prefix}.b_i"]))
    f = ad.sigmoid(ad.add_col(ad.matmul(params[f"{prefix}.w_f"], xh), params[f"{prefix}.b_f"]))
    o = ad.sigmoid(ad.add_col(ad.matmul(params[f"{prefix}.w_o"], xh), params[f"{prefix}.b_o"]))
    g = ad.tanh(ad.add_col(ad.matmul(params[f"{prefix}.w_c"], xh), params[f"{prefix}.b_c"]))
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


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
