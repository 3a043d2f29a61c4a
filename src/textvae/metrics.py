"""Evaluation metrics: reconstruction NLL, its importance-weighted bound,
perplexity, KL, active units, mutual information, BLEU.

``evaluate`` is the one corpus-level entry point.  It encodes the whole
split once (``collect_posteriors``); each sentence's posterior row then
feeds one decode that scores the sentence against all of its k posterior
samples, giving the reconstruction NLL and the importance-weighted NLL from
the same draws; MI and greedy decoding for BLEU follow, reusing the same
posteriors.  The functions it builds on score one sentence or take
precomputed posteriors.  All metrics are read-only over the model
parameters and draw their noise from an explicit generator, so a seeded
evaluation is reproducible.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor
from .corpus import make_batch
from .errors import ConfigError, DataError
from .model import GaussianPosterior, VaeParams, decode_batch, decode_greedy, encode_batch
from .objectives import kl_columns

_LOG_2PI = math.log(2.0 * math.pi)

# epsilon substituted for zero n-gram precisions so a single miss does not
# annihilate the geometric mean
BLEU_EPSILON = 1e-9


# ---------------------------------------------------------------------------
# likelihood


def reconstruction_nll(x, mu: np.ndarray, logvar: np.ndarray, params: VaeParams,
                       n_samples: int = 100,
                       rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Two NLL estimates for sentence ``x`` from the same k draws z_k ~ q(z|x).

    ``mu``/``logvar`` are the sentence's posterior row (see
    ``collect_posteriors``).  Returns (rec, iw): rec is the mean over the
    draws of -log p(x|z_k), teacher-forced and unmasked; iw is the
    importance-weighted -log (1/k) sum_k p(x|z_k) p(z_k) / q(z_k|x), an upper
    bound on -log p(x) that tightens as k grows.  One decode scores all k
    draws against the sentence's single row of ids.
    """
    if n_samples < 1:
        raise DataError(f"n_samples must be >= 1, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    mu, logvar = np.reshape(mu, (-1, 1)), np.reshape(logvar, (-1, 1))
    eps = rng.standard_normal((params.latent_dim, n_samples))
    z = mu + np.exp(0.5 * logvar) * eps  # columns: one sample each
    batch = make_batch([tuple(int(i) for i in x)])
    log_lik, _, _ = decode_batch(Tensor(z), batch.ids, batch.lengths, params)
    # log p(z_k) - log q(z_k|x); the 2*pi terms cancel
    log_prior_ratio = -0.5 * (z * z - eps * eps - logvar).sum(axis=0)
    log_w = log_lik.data[0] + log_prior_ratio
    m = log_w.max()
    iw = -(m + math.log(np.exp(log_w - m).mean()))
    return float(-log_lik.data.mean()), float(iw)


# ---------------------------------------------------------------------------
# latent-variable usage


def collect_posteriors(corpus, params: VaeParams, chunk: int = 64):
    """Posterior means/logvars for every sentence, as (N, k) arrays."""
    sents = list(corpus)
    mus, logvars = [], []
    for start in range(0, len(sents), chunk):
        batch = make_batch(sents[start: start + chunk])
        post = encode_batch(batch.ids, batch.lengths, params)
        mus.append(post.mu.data.T.copy())
        logvars.append(post.logvar.data.T.copy())
    return np.concatenate(mus, axis=0), np.concatenate(logvars, axis=0)


def active_units_from_means(mus: np.ndarray, threshold: float = 0.01):
    """Count latent dimensions whose posterior mean varies across the corpus."""
    if mus.shape[0] < 2:
        raise DataError("active units need at least 2 sentences")
    variances = mus.var(axis=0)
    return int(np.sum(variances > threshold)), variances


def _diag_gaussian_logpdf(z: np.ndarray, mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """log N(z; mu, diag(exp(logvar))) for (S,k) samples against (N,k) components -> (S,N)."""
    var = np.exp(logvar)
    quad = ((z[:, None, :] - mu[None, :, :]) ** 2 / var[None, :, :]).sum(axis=2)
    norm = (logvar.sum(axis=1) + z.shape[1] * _LOG_2PI)[None, :]
    return -0.5 * (norm + quad)


def mutual_information_from_posteriors(mus: np.ndarray, logvars: np.ndarray,
                                       n_z_samples: int, rng: np.random.Generator):
    """I(x; z) estimate: mean KL-to-prior minus aggregate-posterior-to-prior gap.

    The two prior terms cancel, so the estimator is evaluated in its stable
    arrangement E_{x, z~q(z|x)}[log q(z|x) - log aggregate], where the
    aggregate posterior is the corpus mixture (1/N) sum_n q(z|x_n) scored by
    log-sum-exp over all components.  Each sample's gap is bounded by ln N,
    so the estimate inherits that bound.  Returns (clamped, raw); raw
    estimates within noise of zero are snapped to exactly zero.
    """
    n, k = mus.shape
    gaps = []
    for i in range(n):
        eps = rng.standard_normal((n_z_samples, k))
        z = mus[i] + np.exp(0.5 * logvars[i]) * eps
        log_components = _diag_gaussian_logpdf(z, mus, logvars)
        m = log_components.max(axis=1, keepdims=True)
        log_aggregate = (m[:, 0] + np.log(np.exp(log_components - m).sum(axis=1))) - math.log(n)
        gaps.append(log_components[:, i] - log_aggregate)
    raw = float(np.mean(np.concatenate(gaps)))
    if abs(raw) < 1e-9:
        return 0.0, raw
    return max(raw, 0.0), raw


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i: i + n]) for i in range(len(seq) - n + 1))


def _clipped_matches(reference, hypothesis, n: int) -> tuple[int, int]:
    hyp = _ngram_counts(hypothesis, n)
    ref = _ngram_counts(reference, n)
    matches = sum(min(c, ref[g]) for g, c in hyp.items())
    return matches, sum(hyp.values())


def _bleu_from_counts(matches, totals, ref_len: int, hyp_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    logs = []
    for m, t in zip(matches, totals):
        if t == 0:
            continue  # order longer than the hypothesis: no evidence either way
        logs.append(math.log(m / t) if m > 0 else math.log(BLEU_EPSILON))
    if not logs:
        return 0.0
    geo = math.exp(sum(logs) / len(logs))
    brevity = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    return geo * brevity


def corpus_bleu(pairs, max_n: int = 4) -> float:
    """Aggregate-count BLEU over (reference, hypothesis) pairs."""
    matches = [0] * max_n
    totals = [0] * max_n
    ref_len = hyp_len = 0
    n_pairs = 0
    for reference, hypothesis in pairs:
        reference = list(reference)
        hypothesis = list(hypothesis)
        if not reference:
            raise DataError("BLEU reference must be nonempty")
        n_pairs += 1
        ref_len += len(reference)
        hyp_len += len(hypothesis)
        for n in range(1, max_n + 1):
            m, t = _clipped_matches(reference, hypothesis, n)
            matches[n - 1] += m
            totals[n - 1] += t
    if n_pairs == 0:
        raise DataError("corpus BLEU needs at least one sentence pair")
    return _bleu_from_counts(matches, totals, ref_len, hyp_len)


# ---------------------------------------------------------------------------
# full report


@dataclass
class EvalConfig:
    n_samples: int = 100       # posterior draws for NLL/PPL
    mi_samples: int = 10       # posterior draws per sentence for MI
    au_threshold: float = 0.01
    max_gen_len: int = 30

    def validate(self) -> "EvalConfig":
        for name in ("n_samples", "mi_samples", "max_gen_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        value = self.au_threshold
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value >= 0)):
            raise ConfigError(f"au_threshold must be a finite number >= 0, got {value!r}")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class MetricsReport:
    """NLL/PPL/KL/AU/MI/BLEU bundle for one model on one corpus split.

    ``nll``/``ppl`` pool the reconstruction term -log p(x|z) over posterior
    samples; ``iw_nll``/``iw_ppl`` pool the importance-weighted estimate of
    -log p(x) from the same samples; ``kl`` is the mean closed-form
    KL(q(z|x) || p(z)).
    """

    nll: float
    ppl: float
    iw_nll: float
    iw_ppl: float
    kl: float
    au: int
    mi: float
    mi_raw: float
    mi_clamped: bool
    bleu: float
    n_sentences: int
    config: dict

    def to_text(self) -> str:
        lines = []
        for key in sorted(("nll", "ppl", "iw_nll", "iw_ppl", "kl", "au", "mi", "mi_raw",
                           "mi_clamped", "bleu", "n_sentences")):
            lines.append(f"{key}: {getattr(self, key)!r}")
        for key in sorted(self.config):
            lines.append(f"config.{key}: {self.config[key]!r}")
        return "\n".join(lines) + "\n"

    def table_row(self, label: str = "") -> str:
        # BLEU shown as a percentage in table output
        return (f"{label:<24} {self.nll:>8.2f} {self.ppl:>8.2f} {self.iw_nll:>8.2f} "
                f"{self.kl:>6.2f} {self.au:>4d} {self.mi:>6.2f} {100.0 * self.bleu:>6.2f}")

    @staticmethod
    def table_header(label: str = "configuration") -> str:
        return (f"{label:<24} {'NLL':>8} {'PPL':>8} {'IW-NLL':>8} {'KL':>6} {'AU':>4} "
                f"{'MI':>6} {'BLEU':>6}")


def evaluate(corpus, params: VaeParams, config: EvalConfig | None = None,
             rng: np.random.Generator | None = None) -> MetricsReport:
    """Full metric suite on a sentence list.

    The split is encoded once.  NLL/PPL and their importance-weighted
    versions pool one sampling pass of ``n_samples`` draws per sentence;
    BLEU decodes greedily from one posterior sample per sentence against the
    original.
    """
    sents = [tuple(int(i) for i in s) for s in corpus]
    if not sents:
        raise DataError("cannot evaluate on an empty corpus")
    if config is None:
        config = EvalConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    mus, logvars = collect_posteriors(sents, params)
    total_nll = total_iw = 0.0
    total_words = 0
    for sent, mu, logvar in zip(sents, mus, logvars):
        rec, iw = reconstruction_nll(sent, mu, logvar, params, config.n_samples, rng)
        total_nll += rec
        total_iw += iw
        total_words += len(sent) + 1
    kl = kl_columns(GaussianPosterior(mu=Tensor(mus.T), logvar=Tensor(logvars.T))).data.mean()

    au, _ = active_units_from_means(mus, config.au_threshold) if len(sents) >= 2 else (0, None)
    mi, mi_raw = mutual_information_from_posteriors(mus, logvars, config.mi_samples, rng)

    pairs = []
    for i, sent in enumerate(sents):
        eps = rng.standard_normal(params.latent_dim)
        z = mus[i] + np.exp(0.5 * logvars[i]) * eps
        hyp = decode_greedy(z, config.max_gen_len, params)
        pairs.append((sent, hyp))
    bleu_score = corpus_bleu(pairs)

    return MetricsReport(nll=float(total_nll / len(sents)),
                         ppl=float(np.exp(total_nll / total_words)),
                         iw_nll=float(total_iw / len(sents)),
                         iw_ppl=float(np.exp(total_iw / total_words)),
                         kl=float(kl), au=int(au), mi=float(mi),
                         mi_raw=float(mi_raw), mi_clamped=bool(mi_raw < 0),
                         bleu=float(bleu_score), n_sentences=len(sents),
                         config=config.to_dict())
