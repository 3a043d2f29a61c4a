"""Stochastic-gradient training loop, Adam optimizer, pretraining protocol.

A run is fully determined by (seed, config, corpus).  Batch shuffling is
seeded per epoch; everything else the training loop uses comes from one
``default_rng(config.seed)``, consumed in this order: the parameter init,
then per training step the latent noise ``eps`` (not in pretraining, where
z = mu) and then the word-dropout mask (only when alpha > 0 or
keep_prob < 1; ``sample_masks`` draws the (B, T) mask in one call, which
consumes the generator exactly like B draws of T, row by row), then after
pretraining the decoder reset, then the steps of the standard loop.  The loop
also sets the KL weight: beta = 0 in pretraining, else the linear warmup
min(step / warmup_steps, 1), with ``warmup_steps`` from
``TrainConfig.resolved``.  The dev ELBO draws its noise from its own
generator, ``default_rng([seed, 1000])``, made afresh at every epoch end of
both phases: each epoch scores its parameters on the same noise, so the
epoch-to-epoch change in ``val_elbo`` is the parameters' alone.

``train`` first keeps freed memory in the process heap (``keep_freed_heap``).
By default glibc serves an array of 128 KiB or more from its own ``mmap``
and gives the heap's free top back to the OS once it exceeds 128 KiB (both
thresholds grow only when a larger mmapped array is freed), so each step
faulted its tape back in, one fresh 4 KiB page at a time.  At the default
dims and train-fraternal sizes, with one BLAS thread, a warm step took up to
about 790 minor faults at alpha = 0 and 670-1030 at alpha = 1 (about 3-4 MB),
54-80% of them in the LSTM backward and the rest in the taped forward, other
backward rules and Adam's moment buffers; a fresh page costs about 1.8 us on
a KVM guest.  With the thresholds raised, a warm ``train`` call of 32 steps
takes 0-32 faults in all, and peak RSS moves by under 2%.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import tape
from .corpus import CorpusSplit, batches
from .errors import Config, ConfigError, ContractError, TrainingError, TrainingInterrupted
from .model import VaeParams
from .objectives import elbo_step


# elements per Adam slice; the update's two scratch buffers hold one slice each
CHUNK = 16384
# Adam's moment decay rates and denominator floor (Kingma & Ba 2015, Algorithm 1)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# glibc's mallopt parameters (malloc.h) and its own 64-bit ceiling on the mmap
# threshold; glibc's dynamic rule keeps the trim threshold at twice the mmap one
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


@functools.cache
def keep_freed_heap() -> None:
    """Raise glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB.

    Freed arrays then stay in the heap and the next step reuses their pages.
    Both are needed: with either one alone, a warm 4-step ``train`` at the
    default dims still took 1300-4300 faults, against 0-3 with both.  This
    changes process-wide allocator state, once per process and permanently,
    and only under glibc; where the C library cannot be loaded or has no
    ``mallopt`` it does nothing.  It changes no arithmetic.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


@dataclass
class TrainConfig(Config):
    """Every knob of the optimization; seed fully determines a run."""

    latent_dim: int = 32
    embed_dim: int = 64
    hidden_dim: int = 128
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 30
    # None: 10 epochs' worth of batches, set by resolved() and recorded in each run's files
    warmup_steps: int | None = None
    free_bits: float = 0.0
    # split the free-bits budget evenly and clamp each latent coordinate
    free_bits_per_dim: bool = False
    alpha: float = 0.0
    keep_prob: float = 0.7
    pretrain_epochs: int = 0
    clip_norm: float = 0.0
    seed: int = 0

    LOWER = {"latent_dim": 1, "embed_dim": 1, "hidden_dim": 1, "lr": 0, "batch_size": 1,
             "epochs": 0, "warmup_steps": 1, "free_bits": 0, "alpha": 0, "keep_prob": 0,
             "pretrain_epochs": 0, "clip_norm": 0, "seed": 0}

    def __post_init__(self):
        super().__post_init__()
        if self.keep_prob > 1:
            raise ConfigError(f"keep_prob must be <= 1, got {self.keep_prob!r}")

    def resolved(self, n_train: int) -> "TrainConfig":
        """This config with ``warmup_steps`` set: a set value is kept, and None
        becomes 10 epochs of batches over ``n_train`` sentences, at least 1."""
        if self.warmup_steps is not None:
            return self
        return replace(self, warmup_steps=max(1, 10 * -(-n_train // self.batch_size)))


def sample_masks(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(keep_prob) word-dropout masks as a float64 0/1 array; ``keep_prob``
    lies in [0, 1], as every ``TrainConfig`` holds."""
    return (rng.random(shape) < keep_prob).astype(np.float64)


@dataclass
class AdamState:
    """Per-parameter moment buffers plus the shared timestep."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state: AdamState, lr: float) -> AdamState:
    """Bias-corrected Adam update at ``BETA1``/``BETA2``/``EPS``, in place on the parameters.

    The gradients must be finite (``clip_gradients`` checks them), and the
    parameters C-contiguous.  The update is Adam's efficient form (Kingma &
    Ba 2015, arXiv:1412.6980, §2): ``p -= alpha_t * m / (sqrt(v) + eps_hat)``
    with ``alpha_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)`` and
    ``eps_hat = eps * sqrt(1 - beta2**t)``, equal in exact arithmetic to
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` but two divides per element
    fewer.  Each tensor is walked in flat slices of ``CHUNK`` elements through
    two chunk-sized scratch buffers shared by the whole call, in the
    operation order of that expression, so it rounds the same way.
    """
    params = list(params)
    for name, p in params:
        if not p.data.flags.c_contiguous:  # a flat slice of it would be a copy
            raise ContractError(f"adam_step: parameter {name!r} is not C-contiguous")
    state.t += 1
    t = state.t
    root_c2 = np.sqrt(1 - BETA2 ** t)
    alpha_t = lr * root_c2 / (1 - BETA1 ** t)
    eps_hat = EPS * root_c2
    scratch_a, scratch_b = np.empty(CHUNK), np.empty(CHUNK)
    for name, p in params:
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        flat = [x.reshape(-1) for x in (p.data, grads[name], state.m[name], state.v[name])]
        for lo in range(0, p.data.size, CHUNK):
            pc, g, m, v = (x[lo: lo + CHUNK] for x in flat)
            a, b = scratch_a[: pc.size], scratch_b[: pc.size]
            m *= BETA1
            m += np.multiply(1 - BETA1, g, out=a)
            v *= BETA2
            np.multiply(1 - BETA2, g, out=a)
            a *= g
            v += a
            np.sqrt(v, out=a)
            a += eps_hat
            np.multiply(alpha_t, m, out=b)
            b /= a
            pc -= b
    return state


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale the gradients in ``grads`` in place so their global L2 norm is at
    most ``max_norm`` (0 clips nothing); returns the norm before clipping.
    A non-finite gradient raises TrainingError naming its parameter, and a
    norm that overflows, of finite gradients, raises one too; either way no
    gradient has been scaled."""
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not np.isfinite(total):  # a NaN or inf entry makes it so: name that parameter
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
        raise TrainingError(f"gradient norm overflows: {total}")
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


@np.errstate(over="ignore", invalid="ignore")  # the caller's finite check decides
def _dev_elbo(sentences, config: TrainConfig, params: VaeParams, seed) -> float:
    """Single-sample negative ELBO of ``sentences`` (beta=1, no dropout), finite or
    not.  Each batch's (size, mean loss) is kept, in order, and the ELBO is then
    their sentence-weighted mean, summed left to right."""
    rng = np.random.default_rng(seed)
    eval_cfg = replace(config, alpha=0.0, free_bits=0.0)
    losses = []
    for batch in batches(sentences, config.batch_size, seed=None):
        eps = rng.standard_normal((config.latent_dim, batch.size))
        loss, _ = elbo_step(batch, eval_cfg, params, eps, None, 1.0)
        losses.append((batch.size, loss.item()))
    return sum(loss * n for n, loss in losses) / sum(n for n, _ in losses)


def _step(batch, config: TrainConfig, params: VaeParams, state: AdamState, eps, mask,
          beta: float) -> tuple[dict, float]:
    """One optimizer step: tape the loss, walk the tape, check the loss, clip, update.

    Returns ``elbo_step``'s terms plus ``total``, the differentiated loss,
    and the gradient norm before clipping.  The tape, the loss and the
    gradients are locals of this call, so none of them outlives the step.
    """
    # an overflow shows as a non-finite loss or gradient, which the checks below refuse
    with np.errstate(over="ignore", invalid="ignore"), tape() as t:
        loss, terms = elbo_step(batch, config, params, eps, mask, beta)
        adjoints = t.backward(loss)
    total = loss.item()
    if not np.isfinite(total):
        raise TrainingError(f"loss {total}")
    named = params.named_parameters()
    grads = {n: adjoints[p] for n, p in named}
    norm = clip_gradients(grads, config.clip_norm)
    adam_step(named, grads, state, config.lr)
    return {**terms, "total": total}, norm


def _run_phase(phase: str, corpus: CorpusSplit, config: TrainConfig, params: VaeParams,
               rng: np.random.Generator, log: list[dict]) -> VaeParams:
    """Run ``config.epochs`` epochs of one phase, appending a record per epoch to ``log``.

    Each step's (batch size, terms with ``total`` and ``beta``, gradient norm)
    is kept in order, and the epoch's record is derived from them once: the
    terms' sentence-weighted means, summed left to right, and ``grad_norm``,
    the norms' plain mean.  Each step draws its noise from ``rng`` in the
    order the module docstring gives.  ``phase="pretrain"`` is the
    deterministic-autoencoder variant: z = mu and beta = 0.  Returns the
    best-validation parameters.  A step whose loss or gradients are not finite, or an epoch
    whose ELBO on the dev split (the train split when there is none) is not
    finite, raises TrainingError carrying those parameters and ``log``, which
    then ends with the failed epoch's record; a KeyboardInterrupt becomes
    TrainingInterrupted, carrying the same.
    """
    pretrain = phase == "pretrain"
    draw_mask = config.alpha > 0 or config.keep_prob < 1.0
    state = AdamState()
    best = params.clone()
    best_val = float("inf")
    step = 0
    t0 = time.perf_counter()

    try:
        for epoch in range(config.epochs):
            steps = []
            for batch in batches(corpus.train, config.batch_size, seed=config.seed, epoch=epoch):
                eps = None if pretrain else rng.standard_normal((config.latent_dim, batch.size))
                mask = (sample_masks((batch.size, batch.ids.shape[1] + 1), config.keep_prob, rng)
                        if draw_mask else None)
                beta = 0.0 if pretrain else min(step / config.warmup_steps, 1.0)
                try:
                    terms, norm = _step(batch, config, params, state, eps, mask, beta)
                except TrainingError as exc:
                    raise TrainingError(f"training diverged in {phase} epoch {epoch}, step {step}: "
                                        f"{exc}", params=best, log=log) from exc
                steps.append((batch.size, {**terms, "beta": beta}, norm))
                step += 1

            n_sents = sum(n for n, _, _ in steps)
            record = {k: sum(v[k] * n for n, v, _ in steps) / n_sents for k in steps[0][1]}
            record["grad_norm"] = float(np.mean([norm for _, _, norm in steps]))
            record["epoch"] = epoch
            record["phase"] = phase
            # without a dev split the train split's ELBO still refuses diverged
            # parameters, and the epoch is selected on its training total
            elbo = _dev_elbo(corpus.dev or corpus.train, config, params,
                             seed=[config.seed, 1000])
            finite = np.isfinite(elbo)
            record["val_elbo"] = elbo if corpus.dev and finite else None  # the log has no NaN
            record["wall_time"] = time.perf_counter() - t0
            log.append(record)
            if not finite:
                split = "dev" if corpus.dev else "train-split"
                raise TrainingError(f"{split} ELBO failed in {phase} epoch {epoch}: "
                                    f"ELBO is not finite: {elbo}", params=best, log=log)

            val = elbo if corpus.dev else record["total"]
            if val < best_val:
                best_val = val
                best = params.clone()
    except KeyboardInterrupt as exc:
        raise TrainingInterrupted(f"training interrupted in {phase} at step {step}",
                                  params=best, log=log) from exc

    return best


def train(corpus: CorpusSplit, config: TrainConfig, vocab_size: int) -> TrainResult:
    """Optimize the surrogate objective by mini-batch Adam.

    With ``pretrain_epochs > 0`` the run first trains a deterministic
    autoencoder (z = mu, beta = 0, no fraternal term, no word dropout), then
    redraws every decoder-side parameter while keeping the encoder, and only
    then starts the standard loop.  Init, pretraining, the reset and the
    standard loop all draw from one ``default_rng(config.seed)`` in that
    order.  A step or an epoch-end ELBO that is not finite, in either phase,
    raises TrainingError carrying the best parameters of that phase so far and
    the whole log; an interrupt raises TrainingInterrupted with the same.

    Before the first step it calls ``keep_freed_heap``, which, under glibc,
    keeps a step's freed memory in the process heap for the next step: a
    warm alpha = 1 step at the default dims went from 670-1030 fresh page
    faults to about 0, and a 32-step ``train`` call from 0.69-0.76 s to
    0.65-0.72 s.  The setting is process-wide and permanent.
    """
    if not corpus.train:
        raise ConfigError("training corpus is empty")
    keep_freed_heap()
    rng = np.random.default_rng(config.seed)
    params = VaeParams.init(vocab_size, config.embed_dim, config.hidden_dim,
                            config.latent_dim, rng)
    config = config.resolved(len(corpus.train))

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
