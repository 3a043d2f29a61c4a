import math

import numpy as np
import pytest

import textvae.metrics
from textvae.autodiff import Tensor
from textvae.corpus import END, make_batch
from textvae.errors import DataError, NumericError
from textvae.metrics import (
    BLEU_EPSILON,
    EvalConfig,
    active_units_from_means,
    collect_posteriors,
    corpus_bleu,
    evaluate,
    mutual_information_from_posteriors,
    reconstruction_nll,
)
from textvae.model import VaeParams, decode_batch, decode_greedy, encode_batch


def tiny_params(seed=0, vocab_size=6, latent_dim=2):
    return VaeParams.init(vocab_size, 4, 4, latent_dim, np.random.default_rng(seed))


def uniform_decoder_params(seed=0):
    p = tiny_params(seed)
    for name, t in p.named_parameters():
        if name.startswith("dec."):
            t.data[...] = 0.0
    return p


def collapse_encoder(p):
    for name in ("enc.mu_w", "enc.mu_b", "enc.logvar_w", "enc.logvar_b"):
        p[name].data[...] = 0.0
    return p


def sentence_nll(x, p, n_samples, rng):
    """One sentence's reconstruction NLL, scored from its posterior row as evaluate() does."""
    mus, logvars = collect_posteriors([x], p)
    return reconstruction_nll(x, mus[0], logvars[0], p, n_samples, rng)[0]


def perplexity(corpus, p, n_samples, rng):
    """The corpus perplexity that evaluate() reports."""
    return evaluate(corpus, p, EvalConfig(n_samples=n_samples, mi_samples=1, max_gen_len=2), rng).ppl


# ---------------------------------------------------------------------------
# NLL / PPL


def test_nll_uniform_decoder_is_length_times_log_vocab():
    p = uniform_decoder_params()
    x = (4, 5, 4)
    nll = sentence_nll(x, p, n_samples=7, rng=np.random.default_rng(0))
    assert abs(nll - (len(x) + 1) * math.log(p.vocab_size)) < 1e-10


def test_nll_degenerate_posterior_has_no_sampling_variance():
    p = tiny_params(1)
    p["enc.logvar_w"].data[...] = 0.0
    p["enc.logvar_b"].data[...] = -20.0
    a = sentence_nll((4, 5), p, n_samples=1, rng=np.random.default_rng(0))
    b = sentence_nll((4, 5), p, n_samples=1, rng=np.random.default_rng(999))
    assert abs(a - b) < 1e-3  # sigma = e^-10: samples pinned to mu


def test_nll_monte_carlo_convergence():
    p = tiny_params(2)
    x = (4, 5, 5)
    singles = [sentence_nll(x, p, 1, np.random.default_rng(1000 + i)) for i in range(100)]
    stderr_100 = np.std(singles) / 10.0
    a = sentence_nll(x, p, 100, np.random.default_rng(3))
    b = sentence_nll(x, p, 10_000, np.random.default_rng(4))
    assert abs(a - b) < 2.0 * stderr_100 + 1e-9


def test_nll_stderr_shrinks_with_samples():
    p = tiny_params(5)
    x = (5, 4)

    def spread(n, reps=12):
        vals = [sentence_nll(x, p, n, np.random.default_rng(50 * n + r)) for r in range(reps)]
        return np.std(vals)

    s10, s100, s1000 = spread(10), spread(100), spread(1000)
    assert s100 < s10
    assert s1000 < s100


def test_perplexity_uniform_decoder_equals_vocab_size():
    p = uniform_decoder_params(3)
    corpus = [(4,), (5, 4), (4, 4, 5)]
    ppl = perplexity(corpus, p, n_samples=3, rng=np.random.default_rng(0))
    assert abs(ppl - p.vocab_size) < 1e-9


def test_perplexity_half_probability_token_is_two():
    p = tiny_params(4)
    p["dec.out_w"].data[...] = 0.0
    p["dec.out_b"].data[...] = 0.0
    p["dec.out_b"].data[4, 0] = 50.0   # the one real token
    p["dec.out_b"].data[END, 0] = 50.0
    ppl = perplexity([(4,)], p, n_samples=2, rng=np.random.default_rng(0))
    assert abs(ppl - 2.0) < 1e-9


def test_perplexity_matches_pooled_recomputation():
    p = tiny_params(6)
    corpus = [(4, 5), (5, 5, 4), (4,)]
    ppl = perplexity(corpus, p, n_samples=5, rng=np.random.default_rng(7))
    # independent pooling over per-sentence values, same rng consumption order
    rng = np.random.default_rng(7)
    total = sum(sentence_nll(s, p, 5, rng) for s in corpus)
    words = sum(len(s) + 1 for s in corpus)
    assert abs(ppl - math.exp(total / words)) < 1e-12


def test_iw_nll_below_rec_plus_sampled_kl_on_the_same_draws():
    # Jensen: -log mean_k w_k <= mean_k -log w_k, with w_k = p(x|z_k) p(z_k) / q(z_k|x)
    p = tiny_params(12, vocab_size=9, latent_dim=3)
    corpus = [(4, 5, 7), (8,), (6, 6, 5, 4, 8)]
    mus, logvars = collect_posteriors(corpus, p)
    for i, x in enumerate(corpus):
        for k in (1, 3, 50):
            rec, iw = reconstruction_nll(x, mus[i], logvars[i], p, k, np.random.default_rng(i))
            eps = np.random.default_rng(i).standard_normal((p.latent_dim, k))
            z = mus[i][:, None] + np.exp(0.5 * logvars[i])[:, None] * eps
            log_q = -0.5 * (math.log(2 * math.pi) + logvars[i][:, None] + eps ** 2).sum(axis=0)
            log_p = -0.5 * (math.log(2 * math.pi) + z ** 2).sum(axis=0)
            bound = rec + float(np.mean(log_q - log_p))
            assert iw <= bound + 1e-12
            if k == 1:  # one draw: the bound is tight
                assert abs(iw - bound) < 1e-10


def test_iw_nll_equals_rec_when_q_is_the_prior_and_the_decoder_ignores_z():
    p = collapse_encoder(tiny_params(13, latent_dim=3))  # q(z|x) = N(0, I) = p(z)
    for name in ("dec.h0_w", "dec.c0_w"):
        p[name].data[...] = 0.0
    p["dec.lstm.w"].data[:, p.embed_dim: p.embed_dim + p.latent_dim] = 0.0
    corpus = [(4, 5), (5, 5, 4, 4), (4,)]
    report = evaluate(corpus, p, EvalConfig(n_samples=9, mi_samples=2, max_gen_len=4),
                      np.random.default_rng(3))
    assert abs(report.iw_nll - report.nll) < 1e-12
    assert abs(report.iw_ppl - report.ppl) < 1e-12 * report.ppl
    assert report.kl == 0.0


def test_evaluate_kl_is_the_mean_closed_form_kl():
    p = tiny_params(14, latent_dim=3)
    corpus = [(4, 5), (5, 5, 4, 4), (4,), (5, 4, 5)]
    report = evaluate(corpus, p, EvalConfig(n_samples=2, mi_samples=2, max_gen_len=4),
                      np.random.default_rng(0))
    mus, logvars = collect_posteriors(corpus, p)
    kl = 0.5 * (mus ** 2 + np.exp(logvars) - 1.0 - logvars).sum(axis=1)
    assert report.kl == pytest.approx(float(kl.mean()), rel=1e-12)
    assert report.kl > 0


def test_perplexity_empty_corpus():
    with pytest.raises(DataError):
        perplexity([], tiny_params(), 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# active units


def test_active_units_all_identical_posteriors():
    mus = np.tile(np.array([0.3, -0.7, 1.1]), (20, 1))
    count, variances = active_units_from_means(mus)
    assert count == 0
    assert np.max(variances) < 1e-20


def test_active_units_single_varying_dimension():
    rng = np.random.default_rng(0)
    mus = np.zeros((200, 5))
    mus[:, 1] = rng.standard_normal(200)  # variance ~ 1
    count, variances = active_units_from_means(mus)
    assert count == 1
    assert variances[1] > 0.5


def test_active_units_matches_bruteforce_variance():
    rng = np.random.default_rng(1)
    mus = rng.uniform(-0.3, 0.3, (50, 6)) * rng.uniform(0, 0.4, 6)
    count, variances = active_units_from_means(mus, threshold=0.01)
    expected = 0
    for u in range(6):
        col = mus[:, u]
        var = sum((v - col.mean()) ** 2 for v in col) / len(col)
        assert abs(var - variances[u]) < 1e-12
        if var > 0.01:
            expected += 1
    assert count == expected


def test_active_units_variance_properties():
    rng = np.random.default_rng(2)
    mus = rng.standard_normal((40, 3))
    _, base = active_units_from_means(mus)
    _, shifted = active_units_from_means(mus + np.array([5.0, -2.0, 0.5]))
    assert np.max(np.abs(base - shifted)) < 1e-10
    _, scaled = active_units_from_means(3.0 * mus)
    assert np.max(np.abs(scaled - 9.0 * base)) < 1e-8


def test_one_sentence_has_no_active_unit():
    # one posterior mean varies in no dimension: its variance is 0, even at threshold 0
    for threshold in (0.01, 0.0):
        count, variances = active_units_from_means(np.array([[0.3, -5.0, 2.0, 0.0]]), threshold)
        assert count == 0 and np.array_equal(variances, np.zeros(4))


def test_active_units_on_model_corpus():
    p = tiny_params(7)
    corpus = [(4, 5), (5, 4), (4, 4), (5, 5)]
    count, variances = active_units_from_means(collect_posteriors(corpus, p)[0])
    mus = np.stack([collect_posteriors([s], p)[0][0] for s in corpus])
    assert np.max(np.abs(variances - mus.var(axis=0))) < 1e-12
    assert count == int(np.sum(mus.var(axis=0) > 0.01))
    report = evaluate(corpus, p, EvalConfig(n_samples=1, mi_samples=1, max_gen_len=2),
                      np.random.default_rng(0))
    assert report.au == count


# ---------------------------------------------------------------------------
# mutual information


def test_mi_zero_when_collapsed():
    mus = np.zeros((30, 4))
    logvars = np.zeros((30, 4))
    clamped, raw = mutual_information_from_posteriors(mus, logvars, 5, np.random.default_rng(0))
    assert clamped == 0.0
    assert abs(raw) < 1e-12


def test_mi_keeps_a_small_estimate_above_the_snap():
    # nearly collapsed posteriors: only an estimate within 1e-9 of zero is snapped
    rng = np.random.default_rng(2)
    mus = 0.01 * rng.standard_normal((20, 2))
    clamped, raw = mutual_information_from_posteriors(mus, np.zeros((20, 2)), 10, rng)
    assert 1e-9 < raw < 1e-3 and clamped == raw


def test_mi_two_separated_posteriors_is_ln2():
    k = 4
    mus = np.zeros((2, k))
    mus[0, 0] = 10.0
    mus[1, 0] = -10.0
    logvars = np.zeros((2, k))
    clamped, _ = mutual_information_from_posteriors(mus, logvars, 200, np.random.default_rng(1))
    assert abs(clamped - math.log(2)) / math.log(2) < 0.05


def test_mi_matches_quadrature_oracle():
    # numerical integration over the 1 effective dimension of the mixture
    from scipy.integrate import quad

    centers = [2.0, -1.0]  # partially overlapping: MI strictly between 0 and ln 2
    k = 3
    mus = np.zeros((2, k))
    mus[0, 0], mus[1, 0] = centers
    logvars = np.zeros((2, k))

    def gauss(z, m):
        return math.exp(-0.5 * (z - m) ** 2) / math.sqrt(2 * math.pi)

    def integrand(z, m):
        q = gauss(z, m)
        mix = 0.5 * (gauss(z, centers[0]) + gauss(z, centers[1]))
        return q * math.log(q / mix)

    oracle = 0.5 * sum(quad(integrand, -30, 30, args=(m,), limit=200)[0] for m in centers)
    est, _ = mutual_information_from_posteriors(mus, logvars, 4000, np.random.default_rng(2))
    assert abs(est - oracle) / oracle < 0.05


def test_mi_bounded_by_log_n():
    rng = np.random.default_rng(3)
    n = 16
    mus = 100.0 * rng.standard_normal((n, 3))  # widely separated: MI saturates at ln N
    logvars = np.zeros((n, 3))
    clamped, _ = mutual_information_from_posteriors(mus, logvars, 100, rng)
    assert clamped <= math.log(n) + 0.05
    assert clamped > math.log(n) - 0.05


def test_mi_model_wrapper_collapsed():
    p = collapse_encoder(tiny_params(8))
    corpus = [(4, 5), (5, 4), (4,), (5, 5)]
    mus, logvars = collect_posteriors(corpus, p)
    assert mutual_information_from_posteriors(mus, logvars, 5, np.random.default_rng(0))[0] == 0.0


def per_sentence_mi_oracle(mus, logvars, n_z_samples, rng):
    """The raw MI estimate, one sentence at a time, from an explicit (S, N, k)
    difference array per sentence: the direct form of the estimator."""
    n, k = mus.shape
    var = np.exp(logvars)
    norm = logvars.sum(axis=1) + k * math.log(2.0 * math.pi)
    gaps = []
    for i in range(n):
        eps = rng.standard_normal((n_z_samples, k))
        z = mus[i] + np.exp(0.5 * logvars[i]) * eps
        quad = ((z[:, None, :] - mus[None, :, :]) ** 2 / var[None, :, :]).sum(axis=2)
        log_components = -0.5 * (norm[None, :] + quad)
        m = log_components.max(axis=1, keepdims=True)
        log_aggregate = (m[:, 0] + np.log(np.exp(log_components - m).sum(axis=1))) - math.log(n)
        gaps.append(log_components[:, i] - log_aggregate)
    return float(np.mean(np.concatenate(gaps)))


@pytest.mark.parametrize("n, scale", [(3, 0.3), (64, 0.05), (130, 0.3), (130, 3.0)])
def test_mi_matches_per_sentence_oracle(n, scale):
    # blocks of model.BLOCK sentences (130 is two full blocks and a partial one) and
    # GEMM-expanded quadratic forms agree with the direct per-sentence form
    rng = np.random.default_rng(n)
    mus = scale * rng.standard_normal((n, 8))
    logvars = rng.uniform(-4.0, 0.5, (n, 8))
    oracle = per_sentence_mi_oracle(mus, logvars, 7, np.random.default_rng(5))
    _, raw = mutual_information_from_posteriors(mus, logvars, 7, np.random.default_rng(5))
    assert abs(raw - oracle) <= 1e-12 * abs(oracle)


# ---------------------------------------------------------------------------
# BLEU


def bleu(reference, hypothesis):
    """One pair's BLEU: the corpus score of a one-pair corpus."""
    return corpus_bleu([(reference, hypothesis)])


def test_bleu_identity_is_one():
    assert bleu("a b c d e".split(), "a b c d e".split()) == 1.0
    assert bleu([4], [4]) == 1.0
    assert bleu((4, 5), (4, 5)) == 1.0


def test_bleu_brevity_penalty_case():
    # all observed precisions are 1; only brevity remains: exp(1 - 5/3)
    score = bleu("a b c d e".split(), "a b c".split())
    assert abs(score - math.exp(1.0 - 5.0 / 3.0)) < 1e-12


def test_bleu_disjoint_vocabulary_near_zero():
    score = bleu("a b c".split(), "x y z".split())
    assert score == pytest.approx(BLEU_EPSILON, rel=1e-6)


def test_bleu_empty_hypothesis_zero():
    assert bleu("a b".split(), []) == 0.0


def test_bleu_empty_reference_rejected():
    with pytest.raises(DataError):
        bleu([], [4])


def test_bleu_hand_counted_table():
    # each case carries its hand-counted n-gram precisions
    e = BLEU_EPSILON

    def geo(ps):
        return math.exp(sum(math.log(p) for p in ps) / len(ps))

    cases = [
        # (ref, hyp, expected)
        ("a b c d e", "a b c d e", 1.0),
        ("a b c d e", "a b c", geo([1, 1, 1]) * math.exp(1 - 5 / 3)),
        # p1: the/2 cat/1 on/1 mat/1 = 5/5; p2: 3/4; p3: 1/3; p4: 0/2 -> eps
        ("the cat sat on the mat", "the cat on the mat",
         geo([1.0, 3 / 4, 1 / 3, e]) * math.exp(1 - 6 / 5)),
        # repetition clipping: p1 = 2/4, p2 = 1/3, p3 = 0/2, p4 = 0/1
        ("a b", "a b a b", geo([2 / 4, 1 / 3, e, e])),
        # single shared unigram: p1 = 1/3, p2..p3 = 0 -> eps; no 4-grams
        ("a x y", "a p q", geo([1 / 3, e, e])),
        ("a b", "b a", geo([1.0, e])),
        # hyp carries bi/trigrams the one-word ref cannot match: p1 = 1/3, p2, p3 -> eps
        ("w", "w w w", geo([1 / 3, e, e])),
        # hyp shorter and imperfect: p1 = 2/3, p2 = 1/2, p3 = 0/1 -> eps
        ("a b c d", "a b z", geo([2 / 3, 1 / 2, e]) * math.exp(1 - 4 / 3)),
        ("a a a a", "a a", geo([1.0, 1.0]) * math.exp(1 - 2.0)),
        ("a b c", "c a b", geo([1.0, 1 / 2, e])),
    ]
    for ref, hyp, expected in cases:
        got = bleu(ref.split(), hyp.split())
        assert got == pytest.approx(expected, rel=1e-9), (ref, hyp)


def test_bleu_range_and_relabeling_invariance():
    rng = np.random.default_rng(4)
    perm = rng.permutation(20)
    for _ in range(50):
        ref = list(rng.integers(0, 20, rng.integers(1, 12)))
        hyp = list(rng.integers(0, 20, rng.integers(0, 12)))
        score = bleu(ref, hyp)
        assert 0.0 <= score <= 1.0
        relabeled = bleu([int(perm[t]) for t in ref], [int(perm[t]) for t in hyp])
        assert relabeled == pytest.approx(score, abs=1e-12)


def test_corpus_bleu_aggregates_counts_not_scores():
    pairs = [(["a", "b"], ["a", "b"]), (["c", "d"], ["c", "x"])]
    pooled = corpus_bleu(pairs)
    # pooled counts: p1 = 3/4, p2 = 1/2
    assert pooled == pytest.approx(math.sqrt(3 / 4 * 1 / 2), rel=1e-12)
    mean_of_scores = 0.5 * (bleu(*pairs[0]) + bleu(*pairs[1]))
    assert abs(pooled - mean_of_scores) > 0.05


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_smoke_untrained():
    rng = np.random.default_rng(5)
    p = tiny_params(9)
    corpus = [tuple(rng.integers(4, 6, rng.integers(1, 6))) for _ in range(50)]
    report = evaluate(corpus, p, EvalConfig(n_samples=3, mi_samples=2, max_gen_len=8),
                      np.random.default_rng(0))
    assert report.n_sentences == 50
    assert np.isfinite(report.nll) and np.isfinite(report.ppl)
    assert report.ppl >= 1.0
    assert 0 <= report.au <= p.latent_dim
    assert report.mi >= 0.0
    assert 0.0 <= report.bleu <= 1.0
    text = report.to_text()
    assert "nll:" in text and "config.n_samples:" in text


def test_evaluate_refuses_a_metric_that_is_not_finite():
    # output weights near 1e300 give log-probabilities near -1e300, whose perplexity overflows
    p = tiny_params(11)
    p["dec.out_w"].data *= 1e300
    with pytest.raises(NumericError, match="ppl is not finite"):
        evaluate([(4, 5), (5, 4, 4)], p, EvalConfig(n_samples=2, mi_samples=2, max_gen_len=4),
                 np.random.default_rng(0))


def test_evaluate_collapsed_model():
    p = collapse_encoder(tiny_params(10))
    corpus = [(4, 5), (5, 4), (4, 4), (5,)]
    report = evaluate(corpus, p, EvalConfig(n_samples=2, mi_samples=2, max_gen_len=6),
                      np.random.default_rng(0))
    assert report.mi == 0.0
    assert report.au == 0


def test_evaluate_deterministic_given_seed():
    p = tiny_params(11)
    corpus = [(4, 5), (5, 4, 4)]
    cfg = EvalConfig(n_samples=3, mi_samples=2, max_gen_len=6)
    a = evaluate(corpus, p, cfg, np.random.default_rng(7))
    b = evaluate(corpus, p, cfg, np.random.default_rng(7))
    assert a.to_text() == b.to_text()


def parent_evaluate_loop(sents, p, config, rng):
    """The per-sentence evaluation that one encode of the split and one batched
    greedy decode replaced: each sentence encoded alone, decoded as n_samples
    repeated rows, and greedily decoded from its own single latent column."""
    total_nll, total_words = 0.0, 0
    for sent in sents:
        batch = make_batch([sent])
        post = encode_batch(batch.ids, batch.lengths, p)
        eps = rng.standard_normal((p.latent_dim, config.n_samples))
        z = Tensor(post.mu.data + np.exp(0.5 * post.logvar.data) * eps)
        rep = make_batch([sent] * config.n_samples)
        log_lik, _, _ = decode_batch(z, rep.ids, rep.lengths, p)
        total_nll += float(-log_lik.data.mean())
        total_words += len(sent) + 1
    mus, logvars = collect_posteriors(sents, p)
    au, _ = active_units_from_means(mus, config.au_threshold)
    mi, mi_raw = mutual_information_from_posteriors(mus, logvars, config.mi_samples, rng)
    pairs = []
    for i, sent in enumerate(sents):
        z = mus[i] + np.exp(0.5 * logvars[i]) * rng.standard_normal(p.latent_dim)
        pairs.append((sent, decode_greedy(z[:, None], config.max_gen_len, p)[0]))
    return {"nll": total_nll / len(sents), "ppl": math.exp(total_nll / total_words), "au": au,
            "mi": mi, "mi_raw": mi_raw, "bleu": corpus_bleu(pairs)}


def test_evaluate_equals_the_per_sentence_loop():
    p = VaeParams.init(12, 6, 8, 3, np.random.default_rng(15))
    rng = np.random.default_rng(4)
    corpus = [tuple(int(t) for t in rng.integers(4, 12, rng.integers(1, 9))) for _ in range(70)]
    cfg = EvalConfig(n_samples=13, mi_samples=3, max_gen_len=10)
    report = evaluate(corpus, p, cfg, np.random.default_rng(8))
    want = parent_evaluate_loop(corpus, p, cfg, np.random.default_rng(8))
    for key, value in want.items():
        assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-300), key


def test_evaluate_encodes_the_split_in_batches(monkeypatch):
    rows = []
    real = textvae.metrics.encode_batch

    def spy(ids, lengths, params):
        rows.append(len(ids))
        return real(ids, lengths, params)

    monkeypatch.setattr(textvae.metrics, "encode_batch", spy)
    corpus = [(4, 5), (5, 5, 4, 4), (4,), (5, 4, 5), (4, 4)] * 20
    evaluate(corpus, tiny_params(16), EvalConfig(n_samples=3, mi_samples=1, max_gen_len=3),
             np.random.default_rng(0))
    assert rows == [64, 36]
