"""Stochastic-gradient training loop, Adam optimizer, pretraining protocol.

A run is fully determined by (seed, config, corpus): parameter init, batch
shuffling, latent noise and dropout masks all come from one seeded generator
consumed in a fixed order.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autodiff import tape
from .corpus import CorpusSplit, batches
from .errors import ConfigError, NumericError, TrainingError
from .model import VaeParams
from .objectives import elbo_step


_INT_FIELDS = ("latent_dim", "embed_dim", "hidden_dim", "batch_size", "epochs",
               "warmup_steps", "pretrain_epochs", "seed")


@dataclass
class TrainConfig:
    """Every knob of the optimization; seed fully determines a run."""

    latent_dim: int = 32
    embed_dim: int = 64
    hidden_dim: int = 128
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    epochs: int = 30
    # None resolves to 10 epochs' worth of batches at train() time
    warmup_steps: int | None = None
    free_bits: float = 0.0
    # split the free-bits budget evenly and clamp each latent coordinate
    free_bits_per_dim: bool = False
    alpha: float = 0.0
    keep_prob: float = 0.7
    pretrain_epochs: int = 0
    clip_norm: float = 0.0
    seed: int = 0

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "free_bits_per_dim":
                kind, ok = "a boolean", isinstance(value, bool)
            elif f.name == "warmup_steps" and value is None:
                continue
            elif f.name in _INT_FIELDS:
                # bool is an int subclass, so compare the exact type
                kind, ok = "an integer", type(value) is int
            else:
                kind = "a finite number"
                ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and math.isfinite(value))
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        checks = [
            (self.latent_dim >= 1, "latent_dim must be >= 1"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.hidden_dim >= 1, "hidden_dim must be >= 1"),
            (self.lr >= 0, "lr must be >= 0"),
            (0 <= self.adam_beta1 < 1, "adam_beta1 must lie in [0, 1)"),
            (0 <= self.adam_beta2 < 1, "adam_beta2 must lie in [0, 1)"),
            (self.adam_eps > 0, "adam_eps must be positive"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.warmup_steps is None or self.warmup_steps >= 1, "warmup_steps must be >= 1"),
            (self.free_bits >= 0, "free_bits must be >= 0"),
            (self.alpha >= 0, "alpha must be >= 0"),
            (0 <= self.keep_prob <= 1, "keep_prob must lie in [0, 1]"),
            (self.pretrain_epochs >= 0, "pretrain_epochs must be >= 0"),
            (self.clip_norm >= 0, "clip_norm must be >= 0"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        return cls(**d).validate()


@dataclass
class AdamState:
    """Per-parameter moment buffers plus the shared timestep."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Bias-corrected Adam update, in place on the parameter tensors.

    Every gradient is checked before anything is updated: a non-finite
    gradient raises TrainingError with the parameters and state untouched.
    The update runs in two scratch buffers shared by every tensor of the
    call, in the operation order of the textbook expression
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so it rounds the same way.
    """
    params = list(params)
    for name, _ in params:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
    state.t += 1
    t = state.t
    size = max((p.data.size for _, p in params), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in params:
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        a = scratch_a[: p.data.size].reshape(p.shape)
        b = scratch_b[: p.data.size].reshape(p.shape)
        m *= beta1
        m += np.multiply(1 - beta1, g, out=a)
        v *= beta2
        np.multiply(1 - beta2, g, out=a)
        a *= g
        v += a
        np.divide(v, 1 - beta2 ** t, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, 1 - beta1 ** t, out=b)  # m_hat
        b *= lr
        b /= a
        p.data -= b
    return state


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale the gradients in ``grads`` in place so their global L2 norm is at
    most ``max_norm`` (0 clips nothing); returns the norm before clipping."""
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


@dataclass
class TrainResult:
    params: VaeParams          # best-validation checkpoint
    final_params: VaeParams
    log: list[dict]


def _dev_elbo(dev_sentences, config: TrainConfig, params: VaeParams, seed, batch_size: int) -> float:
    """Single-sample negative ELBO on the dev split (beta=1, no dropout)."""
    if not dev_sentences:
        return float("nan")
    rng = np.random.default_rng(seed)
    eval_cfg = replace(config, alpha=0.0, keep_prob=1.0, free_bits=0.0)
    total, count = 0.0, 0
    for batch in batches(dev_sentences, batch_size, seed=None):
        lb = elbo_step(batch, eval_cfg, params, rng, beta_override=1.0)
        total += lb.total.item() * batch.size
        count += batch.size
    return total / count


def _run_phase(phase: str, corpus: CorpusSplit, config: TrainConfig, params: VaeParams,
               rng: np.random.Generator, log: list[dict]) -> VaeParams:
    """Run ``config.epochs`` epochs of one phase, appending a record per epoch to ``log``.

    ``phase="pretrain"`` is the deterministic-autoencoder variant: z = mu and
    beta forced to 0.  Returns the best-validation parameters.  A step that
    fails numerically raises TrainingError carrying those parameters and
    ``log``.
    """
    pretrain = phase == "pretrain"
    named = params.named_parameters()
    state = AdamState()
    best = params.clone()
    best_val = float("inf")
    step = 0
    t0 = time.perf_counter()

    for epoch in range(config.epochs):
        sums = {k: 0.0 for k in ("reconstruction", "kl_raw", "kl_effective",
                                 "beta", "fraternal_penalty", "total")}
        seen = 0
        norms = []
        for batch in batches(corpus.train, config.batch_size, seed=config.seed, epoch=epoch):
            try:
                with tape() as t:
                    lb = elbo_step(batch, config, params, rng, step=step,
                                   beta_override=0.0 if pretrain else None,
                                   deterministic_z=pretrain)
                    adjoints = t.backward(lb.total)
                scalars = lb.scalars()
                if not np.isfinite(scalars["total"]):
                    raise TrainingError(f"loss {scalars['total']}")
                # parameters the loss does not reach (enc.logvar_* in pretraining) get zeros
                grads = {n: adjoints.get(p, np.zeros_like(p.data)) for n, p in named}
                norms.append(clip_gradients(grads, config.clip_norm))
                adam_step(named, grads, state, config.lr,
                          config.adam_beta1, config.adam_beta2, config.adam_eps)
            except (NumericError, TrainingError) as exc:
                raise TrainingError(f"training diverged in {phase} epoch {epoch}, step {step}: "
                                    f"{exc}", params=best, log=log) from exc
            for k in sums:
                sums[k] += scalars[k] * batch.size
            seen += batch.size
            step += 1

        record = {k: sums[k] / seen for k in sums}
        record["grad_norm"] = float(np.mean(norms))
        record["epoch"] = epoch
        record["phase"] = phase
        record["val_elbo"] = _dev_elbo(corpus.dev, config, params,
                                       seed=[config.seed, 1000 + epoch],
                                       batch_size=config.batch_size)
        record["wall_time"] = time.perf_counter() - t0
        log.append(record)

        val = record["val_elbo"] if np.isfinite(record["val_elbo"]) else record["total"]
        if val < best_val:
            best_val = val
            best = params.clone()

    return best


def train(corpus: CorpusSplit, config: TrainConfig, vocab_size: int) -> TrainResult:
    """Optimize the surrogate objective by mini-batch Adam.

    With ``pretrain_epochs > 0`` the run first trains a deterministic
    autoencoder (z = mu, beta = 0, no fraternal term, no word dropout), then
    redraws every decoder-side parameter while keeping the encoder, and only
    then starts the standard loop.  Init, pretraining, the reset and the
    standard loop all draw from one ``default_rng(config.seed)`` in that
    order.  A step that fails numerically, in either phase, raises
    TrainingError carrying the best parameters of that phase so far and the
    whole log.
    """
    config.validate()
    if not corpus.train:
        raise ConfigError("training corpus is empty")
    rng = np.random.default_rng(config.seed)
    params = VaeParams.init(vocab_size, config.embed_dim, config.hidden_dim,
                            config.latent_dim, rng)
    n_batches = (len(corpus.train) + config.batch_size - 1) // config.batch_size
    if config.warmup_steps is None:
        config = replace(config, warmup_steps=max(1, 10 * n_batches))

    log: list[dict] = []
    if config.pretrain_epochs > 0:
        phase_cfg = replace(config, epochs=config.pretrain_epochs, alpha=0.0,
                            keep_prob=1.0, free_bits=0.0)
        _run_phase("pretrain", corpus, phase_cfg, params, rng, log)
        params.reset_decoder(rng)
        log.append({"phase": "reset", "epoch": config.pretrain_epochs,
                    "note": "decoder parameters redrawn; encoder kept"})
    best = _run_phase("train", corpus, config, params, rng, log)
    return TrainResult(params=best, final_params=params, log=log)
