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
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import Tensor
from .corpus import batches, make_batch
from .errors import Config, DataError, NumericError
from .model import BLOCK, GaussianPosterior, VaeParams, decode_batch, decode_greedy, encode_batch
from .objectives import kl_columns

_LOG_2PI = math.log(2.0 * math.pi)

# epsilon substituted for zero n-gram precisions so a single miss does not
# annihilate the geometric mean
BLEU_EPSILON = 1e-9
# longest n-gram order BLEU counts
BLEU_MAX_N = 4


# ---------------------------------------------------------------------------
# likelihood


def reconstruction_nll(x, mu: np.ndarray, logvar: np.ndarray, params: VaeParams,
                       n_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Two NLL estimates for sentence ``x`` from the same k draws z_k ~ q(z|x).

    ``mu``/``logvar`` are the sentence's posterior row (see
    ``collect_posteriors``).  Returns (rec, iw): rec is the mean over the
    draws of -log p(x|z_k), teacher-forced and unmasked; iw is the
    importance-weighted -log (1/k) sum_k p(x|z_k) p(z_k) / q(z_k|x), an upper
    bound on -log p(x) that tightens as k grows.  One decode scores all k
    draws against the sentence's single row of ids.
    """
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


def collect_posteriors(corpus, params: VaeParams):
    """Posterior means/logvars for every sentence, as (N, k) arrays, in batches of ``BLOCK``."""
    mus, logvars = [], []
    for batch in batches(corpus, BLOCK, seed=None):
        post = encode_batch(batch.ids, batch.lengths, params)
        mus.append(post.mu.data.T.copy())
        logvars.append(post.logvar.data.T.copy())
    return np.concatenate(mus, axis=0), np.concatenate(logvars, axis=0)


def active_units_from_means(mus: np.ndarray, threshold: float = 0.01):
    """Count latent dimensions whose posterior mean varies across the corpus."""
    variances = mus.var(axis=0)
    return int(np.sum(variances > threshold)), variances


def mutual_information_from_posteriors(mus: np.ndarray, logvars: np.ndarray,
                                       n_z_samples: int, rng: np.random.Generator):
    """I(x; z) estimate: mean KL-to-prior minus aggregate-posterior-to-prior gap.

    The two prior terms cancel, so the estimator is evaluated in its stable
    arrangement E_{x, z~q(z|x)}[log q(z|x) - log aggregate], where the
    aggregate posterior is the corpus mixture (1/N) sum_n q(z|x_n) scored by
    log-sum-exp over all components.  Each sample's gap is bounded by ln N,
    so the estimate inherits that bound.  Returns (clamped, raw); raw
    estimates within noise of zero are snapped to exactly zero.

    Sentence i's S draws are rows i·S .. i·S + S − 1 of one (N·S, k)
    matrix.  Blocks of ``BLOCK`` sentences are scored against all N
    components at once, the Gaussian quadratic form expanded into two
    matrix products.
    """
    n, k = mus.shape
    s = n_z_samples
    inv_var = np.exp(-logvars)
    mu_inv_var = mus * inv_var
    # log N(z; mu_n, var_n) = -0.5 * (z²·(1/var_n) − 2·z·(mu_n/var_n) + norm_n)
    norm = (mus * mu_inv_var).sum(axis=1) + logvars.sum(axis=1) + k * _LOG_2PI
    eps = rng.standard_normal((n, s, k))  # the same stream as n draws of (S, k)
    z = (mus[:, None, :] + np.exp(0.5 * logvars)[:, None, :] * eps).reshape(n * s, k)
    own = np.repeat(np.arange(n), s)  # the component each row was drawn from
    gaps = []
    for start in range(0, n * s, BLOCK * s):
        zb = z[start: start + BLOCK * s]
        log_components = -0.5 * ((zb * zb) @ inv_var.T - 2.0 * (zb @ mu_inv_var.T) + norm)
        m = log_components.max(axis=1, keepdims=True)
        log_aggregate = (m[:, 0] + np.log(np.exp(log_components - m).sum(axis=1))) - math.log(n)
        rows = np.arange(len(zb))
        gaps.append(log_components[rows, own[start: start + len(zb)]] - log_aggregate)
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


def corpus_bleu(pairs) -> float:
    """Aggregate-count BLEU over (reference, hypothesis) pairs, n-grams up to BLEU_MAX_N."""
    matches = [0] * BLEU_MAX_N
    totals = [0] * BLEU_MAX_N
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
        for n in range(1, BLEU_MAX_N + 1):
            m, t = _clipped_matches(reference, hypothesis, n)
            matches[n - 1] += m
            totals[n - 1] += t
    if n_pairs == 0:
        raise DataError("corpus BLEU needs at least one sentence pair")
    return _bleu_from_counts(matches, totals, ref_len, hyp_len)


# ---------------------------------------------------------------------------
# full report


@dataclass
class EvalConfig(Config):
    n_samples: int = 100       # posterior draws for NLL/PPL
    mi_samples: int = 10       # posterior draws per sentence for MI
    au_threshold: float = 0.01
    max_gen_len: int = 30

    LOWER = {"n_samples": 1, "mi_samples": 1, "au_threshold": 0, "max_gen_len": 1}


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
    bleu: float
    n_sentences: int
    config: dict

    def to_text(self) -> str:
        lines = []
        for key in sorted(f.name for f in fields(self) if f.name != "config"):
            lines.append(f"{key}: {getattr(self, key)!r}")
        for key in sorted(self.config):
            lines.append(f"config.{key}: {self.config[key]!r}")
        return "\n".join(lines) + "\n"


# an overflow shows as a metric that is not finite, which the check at the end refuses
@np.errstate(over="ignore", invalid="ignore")
def evaluate(corpus, params: VaeParams, config: EvalConfig,
             rng: np.random.Generator) -> MetricsReport:
    """Full metric suite on a sentence list.

    The split is encoded once.  NLL/PPL and their importance-weighted
    versions pool one sampling pass of ``n_samples`` draws per sentence: each
    sentence's ``rec``, ``iw`` (``reconstruction_nll``) and word count are kept
    in split order, and each total is summed from them once, left to right.
    BLEU decodes greedily from one posterior sample per sentence against the
    original.  A metric that is not finite raises NumericError.
    """
    sents = [tuple(int(i) for i in s) for s in corpus]
    if not sents:
        raise DataError("cannot evaluate on an empty corpus")

    mus, logvars = collect_posteriors(sents, params)
    rec, iw = zip(*(reconstruction_nll(sent, mu, logvar, params, config.n_samples, rng)
                    for sent, mu, logvar in zip(sents, mus, logvars)))
    words = [len(sent) + 1 for sent in sents]
    kl = kl_columns(GaussianPosterior(mu=Tensor(mus.T), logvar=Tensor(logvars.T))).data.mean()

    au, _ = active_units_from_means(mus, config.au_threshold)
    mi, mi_raw = mutual_information_from_posteriors(mus, logvars, config.mi_samples, rng)

    z = mus + np.exp(0.5 * logvars) * rng.standard_normal(mus.shape)  # one draw per sentence
    bleu_score = corpus_bleu(zip(sents, decode_greedy(z.T, config.max_gen_len, params)))

    report = MetricsReport(nll=float(sum(rec) / len(sents)),
                           ppl=float(np.exp(sum(rec) / sum(words))),
                           iw_nll=float(sum(iw) / len(sents)),
                           iw_ppl=float(np.exp(sum(iw) / sum(words))),
                           kl=float(kl), au=int(au), mi=float(mi), mi_raw=float(mi_raw),
                           bleu=float(bleu_score), n_sentences=len(sents),
                           config=asdict(config))
    for key, value in asdict(report).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericError(f"evaluation metric {key} is not finite: {value}")
    return report
