"""Gaussian-posterior sentence VAE: encoder, latent sampling, LSTM decoding.

The latent vector conditions the decoder three ways at once: projected into
the initial hidden state, projected into the initial memory cell, and
concatenated to every input embedding.  Encoder and decoder own disjoint
parameter sets (separate embedding tables included), named ``enc.*`` and
``dec.*`` in one ordered store, so the decoder can be reset without
touching encoder features.

Batch convention: sentences are rows of a padded (B, L) id matrix; latents
and all dense activations are column-per-sentence matrices.  Every encode and
decode, teacher-forced or greedy, runs over a batch of such columns.

Sequence convention: a quantity over T positions of B sentences is one
position-major (rows, T·B) matrix, whose column t·B + j holds sentence j at
position t, so position t is the column block [t·B, (t+1)·B).  The LSTM
inputs, the hidden states H that ``lstm_recurrence`` and ``decode_batch``
return, the decoder logits and the per-position cross entropy all follow it;
per-position (T, B) arrays such as ``valid`` flatten row by row to the same
order.  One sentence's H (B = 1) is simply its positions in order.

LSTM layout: each LSTM ``{enc,dec}.lstm`` is stored as two tensors.  The
weight ``lstm.w`` is (4d, n_x + k + d): its row blocks are the gates
[i; f; o; g] (input, forget, output, candidate) and its column blocks w_x,
w_s and w_h act on [input; static input; hidden], where the static input (k
rows: the latent for the decoder, none for the encoder) is the same at every
position.  The bias ``lstm.b`` is (4d, 1) in the same row order; its
forget-gate rows start at 1.

Inputs: every input rides in the recurrent product.  ``lstm_step``, the one
cell form, takes a position's pre-activations as [w_h | W_in] @ [h; in_t] +
base, with base the static term w_s @ z plus the bias, computed once.  The
caller holds the operand [h; in_t]: the cell writes its first d rows, and the
caller fills the rest before each position.  A repeated input, one (n_x, B)
block per position, has W_in = w_x and in_t = x_t; ``decode_greedy`` gathers
each position's embeddings straight into those rows.  A shared input is B
columns that read the same sentence (one sentence decoded against B latent
samples): one (rows, T) input, one column per position, flagged by
``shared_input=True``, since the column count alone cannot tell T positions
from T·B when T is a multiple of B.  Its gate columns col_t = w_x @ x_t + b
are computed once and carry the bias: W_in = col_t and in_t is a row of ones
that stays put, so a position's product has K = d + 1.  Its sums round
differently from the repeated form, within 1e-12 relative, and the
recurrence returns (d, T·B) as usual; ``decode_batch`` takes it for one row
of ids against B > 1 latent columns.  Both forms give the same bits with and
without a tape.  The cell activates the first 3d gate rows by the sigmoid,
computed as 0.5·tanh(v/2) + 0.5 so that one tanh covers all 4d rows, and the
last d by tanh, and returns these activated (4d, B) gates beside h and c.  It
writes the gates, c = f·c + i·g and h = o·tanh(c), in that order of
operations, into three buffers that its caller passes, and returns those
buffers; c's buffer may be c itself and h's may be the operand.  A caller
carries forward what the cell returns.  Under a tape, ``lstm_recurrence``
passes fresh gate and c arrays at each position and keeps them for its BPTT;
without one it, like ``decode_greedy``, reuses one set for all positions.  No
tape keeps h (the recurrence copies each position's into its output), and no
reused buffer is ever handed to a caller.  The recurrence's hand-written
BPTT, the cell's only derivative, reads the gate order, takes s(1 − s) and
1 − g² from the activated gates and recomputes tanh(c) from each kept memory
cell, so the cell and the BPTT change together.  It returns the whole
(4d, n_x + k + d) weight gradient.

Row blocks: two per-position products, the cell's [w_h | W_in] @ [h; in_t]
and the BPTT's ``w_h.T @ dp``, go through ``blocked_matmul``.  The SkylakeX
kernels of numpy's bundled OpenBLAS run a double product of at most
``SMALL_GEMM`` = 10⁶ multiply-adds in an unpacked small-matrix kernel and
pack larger ones first.  At d = 128, n_x = 64 and B = 16 the cell's product
holds 1,572,864 (1,056,768 for a shared input) and the BPTT's 1,048,576,
over the limit, so they run as row blocks that fit it (256 and 64 rows),
about 1.5× faster at B = 16.
The rule looks only at shapes, so it blocks on every CPU and BLAS: results
agree up to last-bit rounding, but the speed of the blocks was measured only
on SkylakeX with OpenBLAS 0.3.31 at d = 128, where the 32-row floor was set;
on another core, BLAS or hidden size they may be slower than one product.

Sentence ends: the recurrence runs all T positions of every column, padding
included, and never looks at where a sentence ends.  Callers handle the ends
afterwards: ``encode_batch`` reads sentence j's final state by index, at
column (lengths[j] − 1)·B + j, and every per-position quantity (the target
log-probabilities, the twin hidden-state gap) is weighted by ``valid`` in
``sentence_sums``.  Positions past an end thus get exact zero adjoints.

Output layer: ``output_log_lik`` takes the decoder's H to the target
log-probability at every position as one autodiff op: the projection and the
log-softmax at each target share one (V, T·B) buffer, updated in place, and
record one tape entry.  The tape is walked once and pops each entry as it
goes, so the backward may turn that buffer into the softmax gradient in
place, and the buffer is released with the entry.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import END, RESERVED_TOKENS, START, Vocabulary
from .errors import DataError, DimensionError

CHECKPOINT_MAGIC = b"TEXTVAE1\n"

BLOCK = 64  # columns per tape-less batched pass: bounds its memory; cost is flat in B
# multiply-adds: the largest double product that the SkylakeX kernels of numpy's
# bundled OpenBLAS (0.3.31) run in their unpacked small-matrix kernel
SMALL_GEMM = 1_000_000


@dataclass
class GaussianPosterior:
    """Diagonal-Gaussian q(z|x): one (mu, log-variance) column per sentence."""

    mu: Tensor
    logvar: Tensor


@dataclass
class VaeParams:
    """Model dimensions plus every trainable tensor in one ordered store.

    ``layout`` gives the store's order, which is the checkpoint order and the
    order in which ``init`` draws the tensors from the generator.
    """

    vocab_size: int
    embed_dim: int
    hidden_dim: int
    latent_dim: int
    tensors: dict[str, Tensor]

    @staticmethod
    def layout(vocab_size: int, embed_dim: int, hidden_dim: int,
               latent_dim: int) -> list[tuple[str, tuple[int, int], float | None]]:
        """(name, shape, init bound) of every tensor, in store order; a weight is
        drawn from U(-bound, bound) and a bias (bound None) starts at zero."""
        heads = {"enc": (("mu", latent_dim, hidden_dim), ("logvar", latent_dim, hidden_dim)),
                 "dec": (("h0", hidden_dim, latent_dim), ("c0", hidden_dim, latent_dim),
                         ("out", vocab_size, hidden_dim))}
        layout = []
        for side, lstm_in in (("enc", embed_dim), ("dec", embed_dim + latent_dim)):
            layout += [(f"{side}.embed", (embed_dim, vocab_size), 0.1),
                       (f"{side}.lstm.w", (4 * hidden_dim, lstm_in + hidden_dim),
                        1.0 / np.sqrt(hidden_dim)),
                       (f"{side}.lstm.b", (4 * hidden_dim, 1), None)]
            for head, rows, cols in heads[side]:
                layout += [(f"{side}.{head}_w", (rows, cols), 1.0 / np.sqrt(cols)),
                           (f"{side}.{head}_b", (rows, 1), None)]
        return layout

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int, hidden_dim: int, latent_dim: int,
             rng: np.random.Generator) -> "VaeParams":
        dims = (vocab_size, embed_dim, hidden_dim, latent_dim)
        tensors = {name: Tensor(np.zeros(shape) if bound is None
                                else rng.uniform(-bound, bound, shape), requires_grad=True)
                   for name, shape, bound in cls.layout(*dims)}
        for side in ("enc", "dec"):
            # forget-gate bias starts at 1 so early training keeps memory open
            tensors[f"{side}.lstm.b"].data[hidden_dim: 2 * hidden_dim] = 1.0
        return cls(*dims, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def reset_decoder(self, rng: np.random.Generator) -> None:
        """Redraw every decoder-side parameter from the fresh-init distribution.

        A whole fresh init is drawn (encoder included) and only its ``dec.*``
        entries are kept, so the generator advances by one full init.
        """
        fresh = VaeParams.init(self.vocab_size, self.embed_dim, self.hidden_dim,
                               self.latent_dim, rng)
        for name, t in fresh.tensors.items():
            if name.startswith("dec."):
                self.tensors[name] = t

    def clone(self) -> "VaeParams":
        return replace(self, tensors={name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
                                      for name, t in self.tensors.items()})


# ---------------------------------------------------------------------------
# recurrence

def block_rows(m: int, k: int, n: int) -> int:
    """Rows per block of an (m, k) @ (k, n) product: the largest power of two r
    with r·k·n ≤ ``SMALL_GEMM`` when 32 ≤ r < m, else m (one plain product)."""
    fits = SMALL_GEMM // max(k * n, 1)
    r = 1 << (fits.bit_length() - 1) if fits else 0
    return r if 32 <= r < m else m


def blocked_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` computed in row blocks of ``block_rows`` rows of ``a``, written
    into ``out`` when one is given."""
    m, k = a.shape
    r = block_rows(m, k, b.shape[1])
    if out is None:
        if r == m:
            return a @ b
        out = np.empty((m, b.shape[1]))
    for i in range(0, m, r):
        np.matmul(a[i: i + r], b, out=out[i: i + r])
    return out


def lstm_step(h: np.ndarray, c: np.ndarray, w: np.ndarray, base: np.ndarray,
              out: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """One LSTM cell update over a column batch, in numpy: (h_next, c_next, gates).

    The pre-activations are ``w @ h + base``: ``h`` is the (d + r, B) operand
    whose first d rows are the hidden state and whose lower r rows the caller
    filled (see the module docstring), and ``gates`` the activated gates of
    the cell above.  The cell writes into ``out`` = (gates, c_next, h_next),
    shaped (4d, B), (d, B) and like h, and returns these same arrays; it
    writes only the first d rows of h_next.  ``c_next`` may be ``c`` and
    ``h_next`` may be ``h``: each is read before it is written.
    """
    gates, c_next, h_next = out
    d = c.shape[0]
    blocked_matmul(w, h, out=gates)
    gates += base
    sig = gates[: 3 * d]
    sig *= 0.5
    np.tanh(gates, out=gates)
    sig *= 0.5
    sig += 0.5
    hn = h_next[:d]
    np.multiply(gates[:d], gates[3 * d:], out=hn)  # i·g, in h_next's rows as scratch
    np.multiply(gates[d: 2 * d], c, out=c_next)
    c_next += hn  # f·c + i·g
    np.tanh(c_next, out=hn)
    hn *= gates[2 * d: 3 * d]
    return h_next, c_next, gates


def lstm_recurrence(xs: Tensor, h0: Tensor, c0: Tensor, params, prefix: str,
                    static: Tensor | None = None, shared_input: bool = False) -> Tensor:
    """Run the LSTM ``prefix`` over T positions as one autodiff op.

    ``xs`` is the position-major (n_x, T·B) input and ``h0``/``c0`` the
    (d, B) initial state.  With ``shared_input`` every column reads the same
    input and ``xs`` is (n_x, T), one column per position.  ``static``
    (k, B), when given, is appended to every position's input; its gate
    term is computed once.
    Returns the hidden states as one position-major (d, T·B) tensor.

    The cell runs in numpy through ``lstm_step``, one call per position,
    and each hidden state is copied into one preallocated (d, T·B) array.
    The cell reads [w_h | w_x] @ [h; x_t], or with a shared input the folded
    [w_h | col_t] @ [h; 1] (see the module docstring).  The backward is an
    analytic BPTT loop; the per-position gates and memory cells it needs are
    fresh arrays kept only while a tape records the op, and it pops each
    position's as it consumes them.  It writes position t's (4d, B) gate
    adjoints into the contiguous ``slab[t]`` of one (T, 4d, B) array with
    in-place ops, sums the slab over positions for the static input and the
    bias, and the closing products read the slab relaid out once as the
    position-major (4d, T·B) ``d_pre``.
    Every product keeps the association of the plain expression, e.g.
    ``dc + (dh_t·o)·(1 − tanh(c_t)²)``, so the gradients are bitwise those
    of a loop of fresh temporaries.
    """
    d, B = h0.shape
    n_x, n_cols = xs.shape
    step = 1 if shared_input else B  # input columns per position
    n_s = 0 if static is None else static.shape[0]
    weight, bias = params[f"{prefix}.w"], params[f"{prefix}.b"]
    if (c0.shape != (d, B) or B == 0 or n_cols == 0 or n_cols % step
            or (static is not None and static.shape != (n_s, B))
            or weight.shape != (4 * d, n_x + n_s + d) or bias.shape != (4 * d, 1)):
        raise DimensionError(
            f"lstm {prefix}: inputs {xs.shape}, state {h0.shape}/{c0.shape}, static "
            f"{None if static is None else static.shape}, weight {weight.shape}, "
            f"bias {bias.shape}")
    T = n_cols // step
    TB = T * B
    inputs = (xs, h0, c0, weight, bias) + (() if static is None else (static,))
    tape = ad.recording(inputs)
    w = weight.data
    w_x, w_s, w_h = w[:, :n_x], w[:, n_x: n_x + n_s], w[:, n_x + n_s:]
    sd = np.zeros((0, B)) if static is None else static.data
    xd = xs.data
    base = w_s @ sd
    if shared_input:  # position t's gate column w_x @ x_t + b rides as [w_h | col_t] @ [h; 1]
        cols = w_x @ xd
        cols += bias.data
    else:  # position t's input rides as [w_h | w_x] @ [h; x_t]
        base += bias.data
    w_cell = np.hstack([w_h, cols[:, :1] if shared_input else w_x])
    h = np.ones((w_cell.shape[1], B))  # [h; 1] keeps its row of ones; [h; x_t] refills
    h[:d] = h0.data
    c = c0.data
    state = (np.empty((4 * d, B)), np.empty((d, B)), h)  # the cell's buffers: gates, c, h
    H = np.empty((d, TB))
    cs, gates_seq = [c], []
    for t in range(T):
        if tape is not None:  # fresh gates and c for the BPTT to keep
            state = (np.empty((4 * d, B)), np.empty((d, B)), state[2])
        if shared_input:
            w_cell[:, d] = cols[:, t]
        else:
            h[d:] = xd[:, t * B: (t + 1) * B]
        h, c, gates = lstm_step(h, c, w_cell, base, state)
        H[:, t * B: (t + 1) * B] = h[:d]
        if tape is not None:
            cs.append(c)
            gates_seq.append(gates)
    out = Tensor(H)
    if tape is None:
        return out

    def backward(g):
        slab = np.empty((T, 4 * d, B))
        dh = np.zeros((d, B))
        dc = np.zeros((d, B))
        u, s3 = np.empty((d, B)), np.empty((3 * d, B))
        for t in reversed(range(T)):
            gates = gates_seq.pop()
            i, f, o, gg = gates[:d], gates[d: 2 * d], gates[2 * d: 3 * d], gates[3 * d:]
            dp = slab[t]
            dh += g[:, t * B: (t + 1) * B]  # dh_t
            tc = np.tanh(cs.pop(), out=u)
            np.multiply(dh, tc, out=dp[2 * d: 3 * d])
            np.multiply(tc, tc, out=tc)
            np.subtract(1.0, tc, out=tc)
            np.multiply(dh, o, out=dp[:d])
            dp[:d] *= tc
            dc += dp[:d]  # dc_t = dc + dh_t * o * (1 - tanh(c_t)²)
            np.multiply(dc, gg, out=dp[:d])
            np.multiply(dc, cs[-1], out=dp[d: 2 * d])
            np.subtract(1.0, gates[:3 * d], out=s3)
            s3 *= gates[:3 * d]
            dp[:3 * d] *= s3
            np.multiply(dc, i, out=dp[3 * d:])
            np.multiply(gg, gg, out=gg)
            np.subtract(1.0, gg, out=gg)
            dp[3 * d:] *= gg
            dh = blocked_matmul(w_h.T, dp)
            dc *= f
        d_pre_sum = slab.sum(axis=0)  # the static input and the bias: positions in order
        # a C-ordered copy (at B = 1 a reshape alone is an F-ordered view, which the products
        # round differently); the slab and its view dp go before the closing products allocate
        d_pre = np.ascontiguousarray(slab.transpose(1, 0, 2)).reshape(4 * d, TB)
        del slab, dp
        # a shared input's adjoint sums its columns first, as the static input's sums positions
        d_pre_x = d_pre.reshape(4 * d, T, B).sum(axis=2) if shared_input else d_pre
        h_prev = np.concatenate([h0.data, H[:, : TB - B]], axis=1)
        d_w = np.empty(w.shape)
        np.matmul(d_pre_x, xd.T, out=d_w[:, :n_x])
        np.matmul(d_pre_sum, sd.T, out=d_w[:, n_x: n_x + n_s])
        np.matmul(d_pre, h_prev.T, out=d_w[:, n_x + n_s:])
        # without a static input, inputs has no slot for its (0, B) gradient
        return (w_x.T @ d_pre_x if xs.requires_grad else None, dh, dc,
                d_w, d_pre_sum.sum(axis=1, keepdims=True), w_s.T @ d_pre_sum)

    tape.record(out, inputs, backward)
    return out


def output_log_lik(H: Tensor, weight: Tensor, bias: Tensor, targets: np.ndarray) -> Tensor:
    """(1, T·B) target log-probability at every position, as one autodiff op.

    ``H`` is the position-major (d, T·B) hidden states, ``weight``/``bias``
    the (V, d)/(V, 1) output projection and ``targets`` the T·B target ids in
    the same column order.  Column n of the result is log softmax(weight @
    H[:, n] + bias)[targets[n]].

    The forward works on one (V, T·B) buffer: logits, then their shifted
    exponentials, in place.  Without a tape nothing is kept.  With one, the
    buffer is kept and the backward turns it into the softmax gradient in
    place; that is safe because a tape is walked once (a second walk raises
    ContractError), and popping the entry releases the buffer.
    """
    d, n_cols = H.shape
    vocab = weight.shape[0]
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if weight.shape != (vocab, d) or bias.shape != (vocab, 1) or tgt.shape != (n_cols,):
        raise DimensionError(f"output layer: hidden {H.shape}, weight {weight.shape}, "
                             f"bias {bias.shape}, targets {tgt.shape}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise IndexError(f"target index out of range [0, {vocab})")
    inputs = (H, weight, bias)
    tape = ad.recording(inputs)
    cols = np.arange(n_cols)
    buf = weight.data @ H.data
    buf += bias.data
    picked = buf[tgt, cols]
    m = buf.max(axis=0)
    buf -= m
    np.exp(buf, out=buf)
    sumexp = buf.sum(axis=0)
    out = Tensor(-(m + np.log(sumexp) - picked).reshape(1, -1))
    if tape is None:
        return out

    def backward(g):
        p = buf
        p /= sumexp
        p[tgt, cols] -= 1.0
        p *= -g
        return (weight.data.T @ p if H.requires_grad else None,
                p @ H.data.T if weight.requires_grad else None,
                p.sum(axis=1, keepdims=True) if bias.requires_grad else None)

    tape.record(out, inputs, backward)
    return out


def sentence_sums(row: Tensor, weights: np.ndarray) -> Tensor:
    """(1, B) per-sentence weighted sums of a position-major (1, T·B) row.

    ``weights`` is (T, B): entry (t, j) scales sentence j's position t.
    """
    if row.shape != (1, weights.size):
        raise DimensionError(f"sentence sums: row {row.shape} with weights {weights.shape}")
    out = Tensor((row.data.reshape(weights.shape) * weights).sum(axis=0, keepdims=True))

    def backward(g):
        return ((g * weights).reshape(1, -1),)

    tape = ad.recording((row,))
    if tape is not None:
        tape.record(out, (row,), backward)
    return out


# ---------------------------------------------------------------------------
# encoder


def encode_batch(ids: np.ndarray, lengths: np.ndarray, params: VaeParams) -> GaussianPosterior:
    """Posterior columns for a padded (B, L) batch, read from each sentence's
    hidden state at its own last token."""
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != lengths.shape[0]:
        raise DimensionError(f"batch ids {ids.shape} do not match lengths {lengths.shape}")
    B, L = ids.shape
    if L == 0 or np.any(lengths <= 0):
        raise DataError("cannot encode an empty sentence")
    zeros = Tensor(np.zeros((params.hidden_dim, B)))
    xs = ad.select_columns(params["enc.embed"], ids.T.reshape(-1))
    H = lstm_recurrence(xs, zeros, zeros, params, "enc.lstm")
    h = ad.select_columns(H, (lengths - 1) * B + np.arange(B))
    mu = ad.affine(params["enc.mu_w"], h, params["enc.mu_b"])
    logvar = ad.affine(params["enc.logvar_w"], h, params["enc.logvar_b"])
    return GaussianPosterior(mu=mu, logvar=logvar)


def reparameterize(post: GaussianPosterior, eps: np.ndarray) -> Tensor:
    """z = mu + exp(logvar/2) * eps; gradient reaches mu and logvar, never eps."""
    eps = Tensor(eps)
    if eps.shape != post.mu.shape:
        raise DimensionError(f"eps shape {eps.shape} does not match mu shape {post.mu.shape}")
    sigma = ad.exp(ad.scale(post.logvar, 0.5))
    return ad.add(post.mu, ad.mul(sigma, eps))


# ---------------------------------------------------------------------------
# decoder


def _wrap_for_teacher_forcing(ids: np.ndarray, lengths: np.ndarray):
    """Inputs [START, x1..xn] and targets [x1..xn, END] per row, padded."""
    B, L = ids.shape
    in_ids = np.full((B, L + 1), 0, dtype=np.int64)
    in_ids[:, 0] = START
    in_ids[:, 1:] = ids
    targets = np.full((B, L + 1), 0, dtype=np.int64)
    targets[:, :L] = ids
    targets[np.arange(B), lengths] = END
    return in_ids, targets


def decode_batch(z: Tensor, ids: np.ndarray, lengths: np.ndarray, params: VaeParams,
                 mask: np.ndarray | None = None):
    """Teacher-forced decoding of a padded batch against the latent columns ``z``.

    ``ids`` has one row per column of ``z``, or a single row that all B
    columns decode (one sentence against B latent samples, run as a shared
    input).  Returns (log_lik (1,B), H (d, T·B), valid (T,B)) with T = L + 1
    positions: H holds every position's hidden state, position-major, and
    valid flags the positions inside each sentence (its END prediction
    included).  Positions past a sentence's end contribute nothing to the
    log-likelihood.  ``mask`` (rows of ``ids``, T) scales each input
    embedding.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n_rows, L = ids.shape
    B = z.shape[1]
    if n_rows not in (1, B):
        raise DimensionError(f"{n_rows} rows of ids against {B} latent columns")
    shared = n_rows < B
    n_steps = L + 1  # every sentence also predicts its end sentinel
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (n_rows, n_steps):
            raise DimensionError(f"mask shape {mask.shape}, expected {(n_rows, n_steps)}")
    in_ids, targets = _wrap_for_teacher_forcing(ids, lengths)
    xs = ad.select_columns(params["dec.embed"], in_ids.T.reshape(-1))
    if mask is not None:
        xs = ad.mul(xs, Tensor(np.broadcast_to(mask.T.reshape(1, -1), xs.shape)))
    h0 = ad.affine(params["dec.h0_w"], z, params["dec.h0_b"])
    c0 = ad.affine(params["dec.c0_w"], z, params["dec.c0_b"])
    H = lstm_recurrence(xs, h0, c0, params, "dec.lstm", static=z, shared_input=shared)
    target_cols = targets.T.reshape(-1)
    valid = (np.arange(n_steps)[:, None] < lengths[None, :] + 1).astype(np.float64)
    if shared:
        target_cols, valid = np.repeat(target_cols, B), np.repeat(valid, B, axis=1)
    log_p = output_log_lik(H, params["dec.out_w"], params["dec.out_b"], target_cols)
    return sentence_sums(log_p, valid), H, valid


def decode_greedy(z: np.ndarray, max_len: int, params: VaeParams) -> list[list[int]]:
    """B greedy id lists, each cut before its first END, one per column of ``z`` (k, B).

    Columns run in blocks of ``BLOCK``.  From the start sentinel, each position makes
    one ``lstm_step`` over a block and feeds back each column's argmax, until every
    column has emitted END or for ``max_len`` positions.
    """
    w, n_x, n_s, d = (params["dec.lstm.w"].data, params.embed_dim, params.latent_dim,
                      params.hidden_dim)
    w_cell, w_s = np.hstack([w[:, n_x + n_s:], w[:, :n_x]]), w[:, n_x: n_x + n_s]
    embed, out_w, out_b = (params[n].data for n in ("dec.embed", "dec.out_w", "dec.out_b"))
    out: list[list[int]] = []
    for start in range(0, z.shape[1], BLOCK):
        zb = z[:, start: start + BLOCK]
        base = w_s @ zb + params["dec.lstm.b"].data
        h = np.empty((d + n_x, zb.shape[1]))  # the operand [h; x_t]
        h[:d] = params["dec.h0_w"].data @ zb + params["dec.h0_b"].data
        c = params["dec.c0_w"].data @ zb + params["dec.c0_b"].data
        state = (np.empty((4 * d, zb.shape[1])), c, h)  # updated in place
        tokens = np.full(zb.shape[1], START)
        ended = np.zeros(zb.shape[1], dtype=bool)
        ids = np.full((zb.shape[1], max_len + 1), END)  # the extra last column ends every row
        for t in range(max_len):
            np.take(embed, tokens, axis=1, out=h[d:])
            h, c, _ = lstm_step(h, c, w_cell, base, state)
            ids[:, t] = tokens = np.argmax(out_w @ h[:d] + out_b, axis=0)
            ended |= tokens == END
            if ended.all():
                break
        out += [row[: row.index(END)] for row in ids.tolist()]
    return out


# ---------------------------------------------------------------------------
# checkpoints and other artifact files


def _config_echo(params: VaeParams, extra: dict | None) -> dict:
    echo = {"vocab_size": params.vocab_size, "embed_dim": params.embed_dim,
            "hidden_dim": params.hidden_dim, "latent_dim": params.latent_dim}
    if extra:
        echo.update(extra)
    return echo


def write_file(path, data: bytes | str) -> None:
    """Write ``data`` (``str`` as UTF-8) to ``path`` whole or not at all, through
    ``<name>.tmp`` beside it; every artifact a run writes goes through here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: VaeParams, vocab: Vocabulary, config: dict | None = None) -> None:
    """Single self-describing file: JSON header + raw little-endian float64 blobs.

    The whole file is serialized before ``write_file`` opens anything, so a
    failed save leaves any previous checkpoint intact.
    """
    named = params.named_parameters()
    header = {
        "config": _config_echo(params, config),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in named],
        "vocab": vocab.id_to_token,
        "vocab_hash": vocab.hash,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_file(path, b"".join([CHECKPOINT_MAGIC, struct.pack("<Q", len(blob)), blob]
                              + [t.data.astype("<f8").tobytes(order="C") for _, t in named]))


def load_checkpoint(path):
    """Returns (params, vocab, config echo); verifies shapes and vocabulary hash."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{path} is not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    try:
        (hlen,) = struct.unpack_from("<Q", raw, off)
        off += 8
        header = json.loads(raw[off: off + hlen].decode("utf-8"))
        if not isinstance(header, dict):
            raise DataError(f"checkpoint {path} header is not a JSON object")
        cfg, tokens, vocab_hash = header["config"], header["vocab"], header["vocab_hash"]
        dims = [cfg[k] for k in ("vocab_size", "embed_dim", "hidden_dim", "latent_dim")]
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
        if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
            raise DataError(f"checkpoint {path} vocabulary is not a list of strings")
        if not all(type(d) is int and d >= 1 for d in dims) or dims[0] != len(tokens):
            raise DataError(f"checkpoint {path} has dims {dims}, which must be positive "
                            f"integers with vocab_size {len(tokens)}, its vocabulary's size")
    except (struct.error, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"checkpoint {path} has a malformed header: {exc!r}") from exc
    off += hlen

    if tokens[:4] != list(RESERVED_TOKENS):
        raise DataError(f"checkpoint {path} carries a malformed vocabulary")
    vocab = Vocabulary(tokens[4:])
    if vocab.hash != vocab_hash:
        raise DataError(f"checkpoint {path} vocabulary hash mismatch")

    # the header must fit the layout and the file's length before anything is allocated
    layout = [(name, shape) for name, shape, _ in VaeParams.layout(*dims)]
    if [name for name, _ in specs] != [name for name, _ in layout]:
        raise DataError(f"checkpoint {path} does not list each model tensor once, in order")
    for (name, shape), (_, expected) in zip(specs, layout):
        if shape != expected:
            raise DataError(f"checkpoint tensor {name!r} has shape {shape}, expected {expected}")
    sizes = [rows * cols for _, (rows, cols) in layout]
    if len(raw) - off != 8 * sum(sizes):
        raise DataError(f"checkpoint {path} holds {len(raw) - off} bytes of tensor data, "
                        f"expected {8 * sum(sizes)}")
    blobs = np.split(np.frombuffer(raw, dtype="<f8", offset=off), np.cumsum(sizes)[:-1])
    tensors = {name: Tensor(blob.reshape(shape).astype(np.float64), requires_grad=True)
               for (name, shape), blob in zip(layout, blobs)}
    return VaeParams(*dims, tensors), vocab, cfg
