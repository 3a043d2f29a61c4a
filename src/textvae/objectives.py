"""ELBO assembly: closed-form KL, linear KL annealing, free bits, fraternal
twin pass, all over padded batches.

All losses are built in minimization form: the training step minimizes

    reconstruction + beta * kl_effective + alpha * fraternal_penalty

where reconstruction is the negative (twin-mean) log-likelihood averaged
over the batch.  The twin pass feeds the SAME latent sample through two
decoders whose input embeddings are masked with complementary draws, so
making the hidden states agree forces the decoder to route information
through the latent variable rather than the words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Batch
from .errors import ConfigError
from .layers import sample_masks
from .model import (GaussianPosterior, VaeParams, decode_batch, encode_batch, reparameterize,
                    sentence_sums)


def _kl_elementwise(mu: Tensor, logvar: Tensor) -> Tensor:
    # 0.5 * (mu^2 + exp(logvar) - 1 - logvar), per coordinate
    inner = ad.sub(ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), 1.0), logvar)
    return ad.scale(inner, 0.5)


def kl_columns(post: GaussianPosterior) -> Tensor:
    """Per-sentence KL totals as a (1, B) row over a batched posterior."""
    return ad.column_sums(_kl_elementwise(post.mu, post.logvar))


def free_bits(kl_total: Tensor, lam: float) -> Tensor:
    """max(kl, lambda): below the threshold the term is constant (no gradient)."""
    if lam < 0:
        raise ConfigError(f"free-bits threshold must be >= 0, got {lam}")
    return ad.maximum_scalar(kl_total, lam)


def free_bits_per_dimension(post: GaussianPosterior, lam: float, latent_dim: int) -> Tensor:
    """Per-dimension variant: the lambda budget is split evenly across
    dimensions and each coordinate's KL is clamped separately.  (1, B) row."""
    if lam < 0:
        raise ConfigError(f"free-bits threshold must be >= 0, got {lam}")
    clamped = ad.maximum_scalar(_kl_elementwise(post.mu, post.logvar), lam / latent_dim)
    return ad.column_sums(clamped)


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


def fraternal_batch(z: Tensor, batch: Batch, keep_prob: float, params: VaeParams,
                    rng: np.random.Generator, mask: np.ndarray | None = None):
    """Twin decode with complementary masks; returns (mean log-lik (1,B), penalty (1,B)).

    One mask pair is drawn per sentence per call; ``mask`` freezes the base
    draw (tests, gradient checks).
    """
    B, L = batch.ids.shape
    n_steps = L + 1
    if mask is None:
        mask = sample_masks((B, n_steps), keep_prob, rng)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(B, n_steps)
    ll_a, H_a, valid = decode_batch(z, batch.ids, batch.lengths, params, mask=mask)
    ll_b, H_b, _ = decode_batch(z, batch.ids, batch.lengths, params, mask=1.0 - mask)
    mean_ll = ad.scale(ad.add(ll_a, ll_b), 0.5)
    penalty = _hidden_gap_penalty(H_a, H_b, valid)
    return mean_ll, penalty


@dataclass
class LossBreakdown:
    """One optimization step's loss terms (batch means, minimization form)."""

    reconstruction: Tensor
    kl_raw: Tensor
    kl_effective: Tensor
    beta: float
    fraternal_penalty: Tensor
    total: Tensor

    def scalars(self) -> dict:
        return {
            "reconstruction": self.reconstruction.item(),
            "kl_raw": self.kl_raw.item(),
            "kl_effective": self.kl_effective.item(),
            "beta": self.beta,
            "fraternal_penalty": self.fraternal_penalty.item(),
            "total": self.total.item(),
        }


def elbo_step(batch: Batch, config, params: VaeParams, rng: np.random.Generator, step: int = 0,
              eps: np.ndarray | None = None, mask: np.ndarray | None = None,
              beta_override: float | None = None, deterministic_z: bool = False) -> LossBreakdown:
    """One surrogate-objective evaluation over a padded batch.

    ``config`` is a ``training.TrainConfig``, whose fields are read directly.
    One latent sample is drawn per sentence; ``eps``/``mask`` freeze the noise
    for gradient checks, ``deterministic_z`` uses z = mu (the pretraining
    autoencoder mode).
    """
    if config.alpha < 0:
        raise ConfigError(f"fraternal alpha must be >= 0, got {config.alpha}")
    B = batch.size

    post = encode_batch(batch.ids, batch.lengths, params)
    if deterministic_z:
        z = post.mu
    else:
        if eps is None:
            eps = rng.standard_normal((config.latent_dim, B))
        z = reparameterize(post, eps)

    if config.alpha > 0:
        mean_ll, penalty_cols = fraternal_batch(z, batch, config.keep_prob, params, rng, mask=mask)
        penalty = ad.reduce_mean(penalty_cols)
    else:
        single_mask = mask
        if single_mask is None and config.keep_prob < 1.0:
            single_mask = sample_masks((B, batch.ids.shape[1] + 1), config.keep_prob, rng)
        mean_ll, _, _ = decode_batch(z, batch.ids, batch.lengths, params, mask=single_mask)
        penalty = Tensor(0.0)

    reconstruction = ad.scale(ad.reduce_mean(mean_ll), -1.0)
    kl_cols = kl_columns(post)
    kl_raw = ad.reduce_mean(kl_cols)
    if config.free_bits > 0:
        if config.free_bits_per_dim:
            kl_eff_cols = free_bits_per_dimension(post, config.free_bits, config.latent_dim)
        else:
            kl_eff_cols = free_bits(kl_cols, config.free_bits)
    else:
        kl_eff_cols = kl_cols
    kl_effective = ad.reduce_mean(kl_eff_cols)

    if beta_override is not None:
        beta = float(beta_override)
    else:
        if config.warmup_steps is None:
            raise ConfigError("warmup_steps is unresolved; train() resolves it, or pass beta_override")
        beta = min(step / config.warmup_steps, 1.0)  # linear KL warmup

    total = ad.add(reconstruction, ad.scale(kl_effective, beta))
    if config.alpha > 0:
        total = ad.add(total, ad.scale(penalty, config.alpha))
    return LossBreakdown(reconstruction=reconstruction, kl_raw=kl_raw,
                         kl_effective=kl_effective, beta=beta,
                         fraternal_penalty=penalty, total=total)
