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
            for gate in "ifoc":
                draw(f"{side}.lstm.w_{gate}", 1.0 / np.sqrt(hidden_dim),
                     (hidden_dim, lstm_in + hidden_dim))
            for gate in "ifoc":
                # forget-gate bias starts at 1 so early training keeps memory open
                column(f"{side}.lstm.b_{gate}", hidden_dim, 1.0 if gate == "f" else 0.0)
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


def _row_mask(values: np.ndarray, rows: int) -> Tensor:
    """Constant (rows, B) tensor broadcasting a 0/1 row over all rows."""
    return Tensor(np.broadcast_to(np.asarray(values, dtype=np.float64)[None, :],
                                  (rows, values.shape[0])).copy())


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
    d = params.hidden_dim
    h = Tensor(np.zeros((d, B)))
    c = Tensor(np.zeros((d, B)))
    for t in range(L):
        x = ad.select_columns(params["enc.embed"], ids[:, t])
        h_new, c_new = lstm_step(x, h, c, params, "enc.lstm")
        if np.all(t < lengths):
            h, c = h_new, c_new
        else:
            active = _row_mask((t < lengths).astype(np.float64), d)
            frozen = _row_mask((t >= lengths).astype(np.float64), d)
            h = ad.add(ad.mul(h_new, active), ad.mul(h, frozen))
            c = ad.add(ad.mul(c_new, active), ad.mul(c, frozen))
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
    """Teacher-forced decoding over a padded batch.

    Returns (log_lik (1,B), steps) where steps is a list of
    (hidden (d,B), valid (B,) float) per decoder position.  Positions past a
    sentence's end contribute nothing to the log-likelihood, and their
    hidden states are flagged invalid for downstream penalties.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    B, L = ids.shape
    n_steps = L + 1  # every sentence also predicts its end sentinel
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (B, n_steps):
            raise DimensionError(f"mask shape {mask.shape}, expected {(B, n_steps)}")
    in_ids, targets = _wrap_for_teacher_forcing(ids, lengths)
    w = params.embed_dim
    h = linear(z, params["dec.h0_w"], params["dec.h0_b"])
    c = linear(z, params["dec.c0_w"], params["dec.c0_b"])
    total_ce = Tensor(np.zeros((1, B)))
    steps = []
    for t in range(n_steps):
        emb = ad.select_columns(params["dec.embed"], in_ids[:, t])
        if mask is not None:
            emb = ad.mul(emb, _row_mask(mask[:, t], w))
        x = ad.concat_rows(emb, z)
        h, c = lstm_step(x, h, c, params, "dec.lstm")
        logits = linear(h, params["dec.out_w"], params["dec.out_b"])
        ce = ad.softmax_cross_entropy_cols(logits, targets[:, t])
        valid = (t < lengths + 1).astype(np.float64)
        total_ce = ad.add(total_ce, ad.mul(ce, Tensor(valid[None, :])))
        steps.append((h, valid))
    log_lik = ad.scale(total_ce, -1.0)
    return log_lik, steps


def decode_greedy(z, max_len: int, params: VaeParams) -> list[int]:
    """Feed back the argmax token from the start sentinel until END or max_len."""
    if not isinstance(z, Tensor):
        z = Tensor(np.asarray(z, dtype=np.float64).reshape(-1, 1))
    h = linear(z, params["dec.h0_w"], params["dec.h0_b"])
    c = linear(z, params["dec.c0_w"], params["dec.c0_b"])
    out: list[int] = []
    token = START
    for _ in range(max_len):
        emb = ad.select_columns(params["dec.embed"], [token])
        x = ad.concat_rows(emb, z)
        h, c = lstm_step(x, h, c, params, "dec.lstm")
        logits = linear(h, params["dec.out_w"], params["dec.out_b"])
        token = int(np.argmax(logits.data[:, 0]))
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
