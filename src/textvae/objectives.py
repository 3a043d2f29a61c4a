"""ELBO assembly: closed-form KL, free bits, fraternal twin pass, all over
padded batches.

All losses are built in minimization form: the training step minimizes

    reconstruction + beta * kl_effective + alpha * fraternal_penalty

where reconstruction is the negative (twin-mean) log-likelihood averaged
over the batch.  The twin pass runs ONE decoder twice, with shared weights,
on the same latent sample: the first pass keeps the input words of a
Bernoulli(keep_prob) mask, its twin keeps exactly the others (so only
1 - keep_prob of the words).  alpha scales the batch mean of each
sentence's squared hidden-state gap between the passes, summed over its
valid positions and divided by (valid positions x hidden dim).  Making the
hidden states agree forces the decoder to route information through the
latent variable rather than the words.  Zolna et al. (2018) penalize the
pre-softmax logits instead.

``elbo_step`` is a pure function of its inputs that returns the loss tensor
and its terms as floats: the training loop draws the latent noise and the
mask, sets beta and logs the terms (see ``training``).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Batch
from .model import (GaussianPosterior, VaeParams, decode_batch, encode_batch, reparameterize,
                    sentence_sums)


def kl_elementwise(post: GaussianPosterior) -> Tensor:
    """KL(q(z|x) || N(0, I)) per coordinate, as a (k, B) matrix over a batched posterior."""
    mu, logvar = post.mu, post.logvar
    # 0.5 * (mu^2 + exp(logvar) - 1 - logvar)
    one = Tensor(np.ones(mu.shape))
    inner = ad.sub(ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), one), logvar)
    return ad.scale(inner, 0.5)


def kl_columns(post: GaussianPosterior) -> Tensor:
    """Per-sentence KL totals as a (1, B) row over a batched posterior."""
    return ad.column_sums(kl_elementwise(post))


def free_bits(kl: Tensor, lam: float, per_dim: bool) -> Tensor:
    """Per-sentence KL floored at ``lam`` as a (1, B) row, from the (k, B)
    ``kl_elementwise``: max(kl, lambda), so below the threshold the term is
    constant (no gradient).  With ``per_dim`` the budget is split evenly across
    the k dimensions and each coordinate's KL is clamped separately."""
    if per_dim:
        return ad.column_sums(ad.maximum_scalar(kl, lam / kl.shape[0]))
    return ad.maximum_scalar(ad.column_sums(kl), lam)


def _hidden_gap_penalty(H_a: Tensor, H_b: Tensor, valid: np.ndarray) -> Tensor:
    """Squared distance between twin hidden matrices, per-sentence normalized.

    ||H' - H''||^2 summed over valid positions, divided by the sentence's
    valid position count times the hidden dim, so the useful range of alpha
    does not depend on sentence length.  ``H_a``/``H_b`` are position-major
    (d, T·B), ``valid`` is (T, B).  Returns a (1, B) row.
    """
    diff = ad.sub(H_a, H_b)
    per_position = ad.column_sums(ad.mul(diff, diff))
    return sentence_sums(per_position, valid / (valid.sum(axis=0) * H_a.shape[0]))


def fraternal_batch(z: Tensor, batch: Batch, mask: np.ndarray, params: VaeParams):
    """Twin decode under ``mask`` (B, L+1) and its complement 1 - mask; returns
    (mean log-lik (1,B), penalty (1,B))."""
    ll_a, H_a, valid = decode_batch(z, batch.ids, batch.lengths, params, mask=mask)
    ll_b, H_b, _ = decode_batch(z, batch.ids, batch.lengths, params, mask=1.0 - mask)
    mean_ll = ad.scale(ad.add(ll_a, ll_b), 0.5)
    penalty = _hidden_gap_penalty(H_a, H_b, valid)
    return mean_ll, penalty


def elbo_step(batch: Batch, config, params: VaeParams, eps: np.ndarray | None,
              mask: np.ndarray | None, beta: float) -> tuple[Tensor, dict]:
    """One surrogate-objective evaluation over a padded batch.

    ``config`` is a ``training.TrainConfig``, whose fields are read directly.
    ``eps`` is the (k, B) latent noise, or None for z = mu (the pretraining
    autoencoder mode); ``mask`` is the (B, L+1) word-dropout mask of the
    first decoder pass, or None for no dropout, and must be given when
    alpha > 0; ``beta`` weighs the KL term.  Returns the scalar loss tensor
    and its terms as floats (batch means, minimization form):
    ``reconstruction``, ``kl_raw``, ``kl_effective`` and ``fraternal_penalty``
    (0 at alpha = 0).
    """
    post = encode_batch(batch.ids, batch.lengths, params)
    z = post.mu if eps is None else reparameterize(post, eps)

    if config.alpha > 0:
        mean_ll, penalty_cols = fraternal_batch(z, batch, mask, params)
        penalty = ad.reduce_mean(penalty_cols)
    else:
        mean_ll, _, _ = decode_batch(z, batch.ids, batch.lengths, params, mask=mask)

    reconstruction = ad.scale(ad.reduce_mean(mean_ll), -1.0)
    kl = kl_elementwise(post)
    kl_raw = ad.reduce_mean(ad.column_sums(kl))
    if config.free_bits > 0:
        kl_effective = ad.reduce_mean(free_bits(kl, config.free_bits, config.free_bits_per_dim))
    else:
        kl_effective = kl_raw

    total = ad.add(reconstruction, ad.scale(kl_effective, beta))
    if config.alpha > 0:
        total = ad.add(total, ad.scale(penalty, config.alpha))
    terms = {"reconstruction": reconstruction.item(), "kl_raw": kl_raw.item(),
             "kl_effective": kl_effective.item(),
             "fraternal_penalty": penalty.item() if config.alpha > 0 else 0.0}
    return total, terms
