"""Gaussian-posterior sentence VAE: encoder, latent sampling, LSTM decoder.

The latent vector conditions the decoder three ways at once: projected into
the initial hidden state, projected into the initial memory cell, and
concatenated to every input embedding.  Encoder and decoder own disjoint
parameter sets (separate embedding tables included), named ``enc.*`` and
``dec.*`` in one ordered store, so the decoder can be reset without
touching encoder features.

Batch convention: sentences are rows of a padded (B, L) id matrix; all
dense activations are column-per-sentence matrices.  Every encode and
decode, for one sentence or many, goes through the batched functions here.

Sequence convention: a quantity over T positions of B sentences is one
position-major (rows, T·B) matrix, whose column t·B + j holds sentence j at
position t, so position t is the column block [t·B, (t+1)·B).  The LSTM
inputs, the hidden states H that ``lstm_recurrence`` and ``decode_batch``
return, the decoder logits and the per-position cross entropy all follow it;
per-position (T, B) arrays such as ``valid`` flatten row by row to the same
order.  One sentence's H (B = 1) is simply its positions in order.

Shared input: B columns that read the same sentence (one sentence decoded
against B latent samples) take one (rows, T) input, one column per
position, and ``lstm_recurrence`` is told so by ``shared_input=True``; the
column count alone cannot tell T positions from T·B when T is a multiple
of B.  Each position's input gate term is then computed once and added to
all B columns, and everything the recurrence returns is (d, T·B) as usual.
``decode_batch`` takes this path when it is given one row of ids against
B > 1 latent columns.

LSTM layout: each LSTM ``{enc,dec}.lstm`` is stored as two tensors.  The
weight ``lstm.w`` is (4d, n_x + k + d): its row blocks are the gates
[i; f; o; g] (input, forget, output, candidate) and its column blocks act on
[input; static input; hidden], where the static input (k rows: the latent
for the decoder, none for the encoder) is the same at every position.  The
bias ``lstm.b`` is (4d, 1) in the same row order; its forget-gate rows start
at 1.  ``lstm_recurrence`` and ``decode_greedy`` read column views of the
stored weight, and the recurrence's backward returns the whole (4d, n_x +
k + d) weight gradient.

Output layer: ``output_log_lik`` takes the decoder's H to per-sentence
log-likelihoods as one autodiff op: the projection, the log-softmax at each
target and the weighted per-sentence sum share one (V, T·B) buffer, updated
in place, and record one tape entry.
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
from .errors import ContractError, DataError, DimensionError
from .layers import linear, lstm_step

CHECKPOINT_MAGIC = b"TEXTVAE1\n"


@dataclass
class GaussianPosterior:
    """Diagonal-Gaussian q(z|x): one (mu, log-variance) column per sentence."""

    mu: Tensor
    logvar: Tensor


@dataclass
class VaeParams:
    """Model dimensions plus every trainable tensor in one ordered store.

    The store's order is the checkpoint order; ``init`` fills it in the
    order the tensors are drawn from the generator.
    """

    vocab_size: int
    embed_dim: int
    hidden_dim: int
    latent_dim: int
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int, hidden_dim: int, latent_dim: int,
             rng: np.random.Generator) -> "VaeParams":
        tensors: dict[str, Tensor] = {}

        def draw(name, bound, shape):
            tensors[name] = Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

        def column(name, rows, fill=0.0):
            tensors[name] = Tensor(np.full((rows, 1), fill), requires_grad=True)

        heads = {"enc": (("mu", latent_dim, hidden_dim), ("logvar", latent_dim, hidden_dim)),
                 "dec": (("h0", hidden_dim, latent_dim), ("c0", hidden_dim, latent_dim),
                         ("out", vocab_size, hidden_dim))}
        for side, lstm_in in (("enc", embed_dim), ("dec", embed_dim + latent_dim)):
            draw(f"{side}.embed", 0.1, (embed_dim, vocab_size))
            draw(f"{side}.lstm.w", 1.0 / np.sqrt(hidden_dim),
                 (4 * hidden_dim, lstm_in + hidden_dim))
            column(f"{side}.lstm.b", 4 * hidden_dim)
            # forget-gate bias starts at 1 so early training keeps memory open
            tensors[f"{side}.lstm.b"].data[hidden_dim: 2 * hidden_dim] = 1.0
            for head, rows, cols in heads[side]:
                draw(f"{side}.{head}_w", 1.0 / np.sqrt(cols), (rows, cols))
                column(f"{side}.{head}_b", rows)
        return cls(vocab_size, embed_dim, hidden_dim, latent_dim, tensors)

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

# Test hook: when True, the recurrence's backward negates every tanh
# derivative.  Used as a negative control by grad_check tests and
# `textvae selfcheck --corrupt-backward`.
_CORRUPT_TANH_BACKWARD = False


def lstm_recurrence(xs: Tensor, h0: Tensor, c0: Tensor, params, prefix: str,
                    static: Tensor | None = None, lengths: np.ndarray | None = None,
                    shared_input: bool = False) -> Tensor:
    """Run the LSTM ``prefix`` over T positions as one autodiff op.

    ``xs`` is the position-major (n_x, T·B) input and ``h0``/``c0`` the
    (d, B) initial state.  With ``shared_input`` every column reads the same
    input and ``xs`` is (n_x, T), one column per position.  ``static``
    (k, B), when given, is appended to every position's input; its gate
    term is computed once.  With ``lengths``, sentence j's state is frozen
    from position ``lengths[j]`` on, so its last column block holds each
    sentence's final state.
    Returns the hidden states as one position-major (d, T·B) tensor.

    The cell runs in numpy through ``lstm_step``, one call per position.
    The backward is an analytic BPTT loop; the per-position gates and memory
    cells it needs are kept only while a tape records the op.
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
    base = w_s @ sd + bias.data

    xd = xs.data
    h, c = h0.data, c0.data
    hs, cs, gates_seq = [], [c], []
    for t in range(T):
        h_new, c_new, gates = lstm_step(xd[:, t * step: (t + 1) * step], h, c, w_x, w_h, base)
        if lengths is not None and not np.all(t < lengths):
            active = t < lengths
            h_new, c_new = np.where(active, h_new, h), np.where(active, c_new, c)
        h, c = h_new, c_new
        hs.append(h)
        if tape is not None:
            cs.append(c)
            gates_seq.append(gates)
    out = Tensor(np.concatenate(hs, axis=1))
    if tape is None:
        return out

    def backward(g):
        d_pre = np.empty((4 * d, TB))
        dh = np.zeros((d, B))
        dc = np.zeros((d, B))
        sign = -1.0 if _CORRUPT_TANH_BACKWARD else 1.0
        for t in reversed(range(T)):
            cols = slice(t * B, (t + 1) * B)
            gates = gates_seq[t]
            i, f, o, gg = gates[:d], gates[d: 2 * d], gates[2 * d: 3 * d], gates[3 * d:]
            dh_t = g[:, cols] + dh
            tc = np.tanh(cs[t + 1])
            dc_t = dc + sign * dh_t * o * (1.0 - tc * tc)
            dp = d_pre[:, cols]
            dp[:d] = dc_t * gg
            dp[d: 2 * d] = dc_t * cs[t]
            dp[2 * d: 3 * d] = dh_t * tc
            dp[:3 * d] *= gates[:3 * d] * (1.0 - gates[:3 * d])
            dp[3 * d:] = sign * dc_t * i * (1.0 - gg * gg)
            dh_prev = w_h.T @ dp
            dc_prev = dc_t * f
            if lengths is not None and not np.all(t < lengths):
                active = t < lengths
                dp *= active
                dh_prev = np.where(active, dh_prev, dh_t)
                dc_prev = np.where(active, dc_prev, dc)
            dh, dc = dh_prev, dc_prev
        d_pre_sum = d_pre.reshape(4 * d, T, B).sum(axis=1)  # the static input and the bias
        # a shared input's adjoint sums its columns first, as the static input's sums positions
        d_pre_x = d_pre.reshape(4 * d, T, B).sum(axis=2) if shared_input else d_pre
        h_prev = np.concatenate([h0.data, out.data[:, : TB - B]], axis=1)
        d_w = np.concatenate([d_pre_x @ xd.T, d_pre_sum @ sd.T, d_pre @ h_prev.T], axis=1)
        # without a static input, inputs has no slot for its (0, B) gradient
        return (w_x.T @ d_pre_x if xs.requires_grad else None, dh, dc,
                d_w, d_pre_sum.sum(axis=1, keepdims=True), w_s.T @ d_pre_sum)

    tape.record(out, inputs, backward)
    return out


def output_log_lik(H: Tensor, weight: Tensor, bias: Tensor, targets: np.ndarray,
                   weights: np.ndarray) -> Tensor:
    """(1, B) per-sentence weighted target log-probabilities, as one autodiff op.

    ``H`` is the position-major (d, T·B) hidden states, ``weight``/``bias``
    the (V, d)/(V, 1) output projection, ``targets`` the T·B target ids in
    the same column order and ``weights`` (T, B): entry (t, j) scales
    sentence j's position t.  Returns sum_t weights[t, j] · log softmax(
    weight @ h + bias)[target] for each sentence j.

    The forward works on one (V, T·B) buffer: logits, then their shifted
    exponentials, in place.  Without a tape nothing is kept.  With one, the
    buffer is kept and the backward turns it into the softmax gradient in
    place; that is safe because ``Tape.backward`` visits each entry once,
    and a second walk over the same entry raises ContractError.
    """
    d, n_cols = H.shape
    vocab = weight.shape[0]
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64)
    if (weight.shape != (vocab, d) or bias.shape != (vocab, 1) or tgt.shape != (n_cols,)
            or weights.ndim != 2 or weights.size != n_cols):
        raise DimensionError(
            f"output layer: hidden {H.shape}, weight {weight.shape}, bias {bias.shape}, "
            f"targets {tgt.shape}, weights {weights.shape}")
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
    ce = m + np.log(sumexp) - picked
    out = Tensor((ce.reshape(weights.shape) * -weights).sum(axis=0, keepdims=True))
    if tape is None:
        return out
    kept = [buf]

    def backward(g):
        if not kept:
            raise ContractError("output layer: backward ran twice over one tape entry")
        p = kept.pop()
        p /= sumexp
        p[tgt, cols] -= 1.0
        p *= (g * -weights).reshape(1, -1)
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
    """Posterior columns for a padded (B, L) batch.

    Hidden state updates are gated off once a sentence ends, so the final
    state is each sentence's state at its own last token.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != lengths.shape[0]:
        raise DimensionError(f"batch ids {ids.shape} do not match lengths {lengths.shape}")
    B, L = ids.shape
    if L == 0 or np.any(lengths <= 0):
        raise DataError("cannot encode an empty sentence")
    zeros = Tensor(np.zeros((params.hidden_dim, B)))
    xs = ad.select_columns(params["enc.embed"], ids.T.reshape(-1))
    H = lstm_recurrence(xs, zeros, zeros, params, "enc.lstm", lengths=lengths)
    h = ad.select_columns(H, np.arange((L - 1) * B, L * B))
    mu = linear(h, params["enc.mu_w"], params["enc.mu_b"])
    logvar = linear(h, params["enc.logvar_w"], params["enc.logvar_b"])
    return GaussianPosterior(mu=mu, logvar=logvar)


def reparameterize(post: GaussianPosterior, eps: np.ndarray) -> Tensor:
    """z = mu + exp(logvar/2) * eps; gradient reaches mu and logvar, never eps."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim == 1:
        eps = eps[:, None]
    if eps.shape != post.mu.shape:
        raise DimensionError(f"eps shape {eps.shape} does not match mu shape {post.mu.shape}")
    sigma = ad.exp(ad.scale(post.logvar, 0.5))
    return ad.add(post.mu, ad.mul(sigma, Tensor(eps)))


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
    h0 = linear(z, params["dec.h0_w"], params["dec.h0_b"])
    c0 = linear(z, params["dec.c0_w"], params["dec.c0_b"])
    H = lstm_recurrence(xs, h0, c0, params, "dec.lstm", static=z, shared_input=shared)
    target_cols = targets.T.reshape(-1)
    valid = (np.arange(n_steps)[:, None] < lengths[None, :] + 1).astype(np.float64)
    if shared:
        target_cols, valid = np.repeat(target_cols, B), np.repeat(valid, B, axis=1)
    log_lik = output_log_lik(H, params["dec.out_w"], params["dec.out_b"], target_cols, valid)
    return log_lik, H, valid


def decode_greedy(z, max_len: int, params: VaeParams) -> list[int]:
    """Feed back the argmax token from the start sentinel until END or max_len."""
    z = (z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)).reshape(-1, 1)
    w, n_x, n_s = params["dec.lstm.w"].data, params.embed_dim, params.latent_dim
    w_x, w_s, w_h = w[:, :n_x], w[:, n_x: n_x + n_s], w[:, n_x + n_s:]
    base = w_s @ z + params["dec.lstm.b"].data
    h = params["dec.h0_w"].data @ z + params["dec.h0_b"].data
    c = params["dec.c0_w"].data @ z + params["dec.c0_b"].data
    embed, out_w, out_b = (params[n].data for n in ("dec.embed", "dec.out_w", "dec.out_b"))
    out: list[int] = []
    token = START
    for _ in range(max_len):
        h, c, _ = lstm_step(embed[:, [token]], h, c, w_x, w_h, base)
        token = int(np.argmax(out_w @ h + out_b))
        if token == END:
            break
        out.append(token)
    return out


# ---------------------------------------------------------------------------
# checkpoints


def _config_echo(params: VaeParams, extra: dict | None) -> dict:
    echo = {"vocab_size": params.vocab_size, "embed_dim": params.embed_dim,
            "hidden_dim": params.hidden_dim, "latent_dim": params.latent_dim}
    if extra:
        echo.update(extra)
    return echo


def save_checkpoint(path, params: VaeParams, vocab: Vocabulary, config: dict | None = None) -> None:
    """Single self-describing file: JSON header + raw little-endian float64 blobs.

    The file is written beside ``path`` under a temporary name and moved into
    place, so a failed save leaves any previous checkpoint intact.
    """
    named = params.named_parameters()
    header = {
        "config": _config_echo(params, config),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in named],
        "vocab": vocab.id_to_token,
        "vocab_hash": vocab.hash,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, t in named:
                fh.write(t.data.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        if not all(type(d) is int and d >= 1 for d in dims):
            raise DataError(f"checkpoint {path} has non-positive or non-integer dims {dims}")
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path} has a malformed header: {exc!r}") from exc
    off += hlen

    if tokens[:4] != list(RESERVED_TOKENS):
        raise DataError(f"checkpoint {path} carries a malformed vocabulary")
    vocab = Vocabulary(tokens[4:])
    if vocab.hash != vocab_hash:
        raise DataError(f"checkpoint {path} vocabulary hash mismatch")

    params = VaeParams.init(*dims, np.random.default_rng(0))
    if [name for name, _ in specs] != list(params.tensors):
        raise DataError(f"checkpoint {path} does not list each model tensor once, in order")
    for name, shape in specs:
        expected = params[name].shape
        if shape != expected:
            raise DataError(f"checkpoint tensor {name!r} has shape {shape}, expected {expected}")
        n_bytes = 8 * int(np.prod(shape)) if shape else 8
        if off + n_bytes > len(raw):
            raise DataError(f"checkpoint {path} is truncated in tensor {name!r}")
        arr = np.frombuffer(raw[off: off + n_bytes], dtype="<f8").reshape(shape)
        params[name].data = arr.astype(np.float64).copy()
        off += n_bytes
    if off != len(raw):
        raise DataError(f"checkpoint {path} has trailing or missing data")
    return params, vocab, cfg
