import numpy as np
import pytest

import textvae.autodiff as ad
import textvae.model
from textvae.autodiff import Tensor, grad_check, tape
from textvae.corpus import SyntheticSpec, generate_synthetic, make_batch
from textvae.model import GaussianPosterior, VaeParams, decode_batch, encode_batch, reparameterize
from textvae.objectives import elbo_step, fraternal_batch, free_bits, kl_columns, kl_elementwise
from textvae.training import TrainConfig, sample_masks


def tiny_params(seed=0):
    return VaeParams.init(6, 4, 4, 2, np.random.default_rng(seed))


def posterior(mu, logvar):
    return GaussianPosterior(mu=Tensor(np.asarray(mu, float).reshape(-1, 1), requires_grad=True),
                             logvar=Tensor(np.asarray(logvar, float).reshape(-1, 1), requires_grad=True))


def kl(post):
    return kl_columns(post).item()


def test_kl_zero_at_prior():
    assert kl(posterior([0.0, 0.0], [0.0, 0.0])) == 0.0


def test_kl_half_per_unit_mean():
    assert abs(kl(posterior([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])) - 1.5) < 1e-15
    # one column per sentence: unit means in 0, 1 and 2 of three dimensions
    batch = GaussianPosterior(mu=Tensor(np.triu(np.ones((3, 3)))), logvar=Tensor(np.zeros((3, 3))))
    assert np.max(np.abs(kl_columns(batch).data - [[0.5, 1.0, 1.5]])) < 1e-15


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        assert kl(posterior(rng.uniform(-3, 3, k), rng.uniform(-2, 2, k))) >= 0.0


def test_kl_matches_monte_carlo_oracle():
    # E_q[log q - log p] estimated by sampling, independent of the closed form
    rng = np.random.default_rng(1)
    mu = rng.uniform(-2, 2, 4)
    logvar = rng.uniform(-1, 1, 4)
    total = kl(posterior(mu, logvar))

    n = 100_000
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * rng.standard_normal((n, 4))
    log_q = -0.5 * (np.log(2 * np.pi) + logvar + (z - mu) ** 2 / np.exp(logvar)).sum(axis=1)
    log_p = -0.5 * (np.log(2 * np.pi) + z ** 2).sum(axis=1)
    mc = float(np.mean(log_q - log_p))
    assert abs(mc - total) / total < 0.01


def test_kl_gradcheck():
    p = posterior([0.3, -1.2], [0.4, -0.3])
    report = grad_check(lambda: ad.reduce_mean(kl_columns(p)),
                        {"mu": p.mu, "logvar": p.logvar}, tol=1e-6)
    assert report.passed


def test_free_bits_values():
    # KL = 0.5 * sum(mu^2) at logvar 0: 10 above the floor 8, 3 below it
    assert free_bits(kl_elementwise(posterior([4.0, 2.0], [0.0, 0.0])), 8.0, False).item() == 10.0
    assert free_bits(kl_elementwise(posterior([2.0, 1.0, 1.0], [0.0] * 3)), 8.0,
                     False).item() == 8.0
    for mu in (0.0, 1.0, 3.8):
        p = posterior([mu], [0.0])
        assert free_bits(kl_elementwise(p), 0.0, False).item() == kl(p)


def test_free_bits_blocks_gradient_below_threshold():
    # the kink: below lambda the branch is constant
    p = posterior([0.1, 0.1], [0.0, 0.0])
    with tape() as t:
        grads = t.backward(ad.reduce_mean(free_bits(kl_elementwise(p), 8.0, False)))
    assert np.array_equal(grads[p.mu], np.zeros((2, 1)))
    assert np.array_equal(grads[p.logvar], np.zeros((2, 1)))

    p2 = posterior([3.0, 3.0], [0.0, 0.0])  # KL = 9 > 8: gradient flows
    with tape() as t:
        grads = t.backward(ad.reduce_mean(free_bits(kl_elementwise(p2), 8.0, False)))
    assert np.any(grads[p2.mu] != 0.0)


def test_free_bits_per_dimension_option():
    # dim 0 above its share of the budget, dim 1 below: only dim 1 clamps
    p = posterior([2.0, 0.0], [0.0, 0.0])  # per-dim KL = [2.0, 0.0]
    row = free_bits(kl_elementwise(p), 2.0, per_dim=True)  # per-dim floor 1.0
    assert abs(row.data[0, 0] - 3.0) < 1e-12

    p2 = posterior([2.0, 0.0], [0.0, 0.0])
    with tape() as t:
        grads = t.backward(ad.reduce_mean(free_bits(kl_elementwise(p2), 2.0, True)))
    assert grads[p2.mu][0, 0] != 0.0   # active dimension keeps gradient
    assert grads[p2.mu][1, 0] == 0.0   # clamped dimension is constant


def test_elbo_per_dim_free_bits_config():
    p = tiny_params(18)
    cfg = _config(free_bits=1.0, free_bits_per_dim=True)
    eps = np.random.default_rng(0).standard_normal((2, 1))
    _, terms = elbo_step(make_batch([(4, 5)]), cfg, p, eps, None, 1.0)
    assert terms["kl_effective"] >= 1.0 - 1e-12
    assert terms["kl_effective"] >= terms["kl_raw"] - 1e-12


def test_fraternal_zero_decoder_zero_penalty():
    p = tiny_params(2)
    for name, t in p.named_parameters():
        if name.startswith("dec."):
            t.data[...] = 0.0
    z = Tensor(np.random.default_rng(0).standard_normal((2, 1)))
    mask = sample_masks((1, 4), 0.7, np.random.default_rng(1))
    _, penalty = fraternal_batch(z, make_batch([(4, 5, 4)]), mask, p)
    assert penalty.item() == 0.0


def test_fraternal_penalty_matches_bruteforce_oracle():
    p = tiny_params(3)
    z = Tensor(np.random.default_rng(2).standard_normal((2, 1)))
    batch = make_batch([(4, 5, 5, 4)])
    d = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
    mean_ll, penalty = fraternal_batch(z, batch, d, p)

    ll1, H1, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=d)
    ll2, H2, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=1.0 - d)
    H1, H2 = H1.data, H2.data
    n_steps, hidden = d.shape[1], p.hidden_dim
    expected_penalty = float(((H1 - H2) ** 2).sum()) / (n_steps * hidden)
    assert abs(penalty.item() - expected_penalty) < 1e-12
    assert abs(mean_ll.item() - 0.5 * (ll1.item() + ll2.item())) < 1e-12


def test_fraternal_symmetric_under_mask_swap():
    p = tiny_params(4)
    z = Tensor(np.random.default_rng(4).standard_normal((2, 1)))
    batch = make_batch([(4, 5, 4)])
    d = np.array([[1.0, 0.0, 1.0, 0.0]])
    ll_a, pen_a = fraternal_batch(z, batch, d, p)
    ll_b, pen_b = fraternal_batch(z, batch, 1.0 - d, p)
    assert abs(pen_a.item() - pen_b.item()) < 1e-12
    assert abs(ll_a.item() - ll_b.item()) < 1e-12


def _config(**kw):
    base = dict(latent_dim=2, embed_dim=4, hidden_dim=4, epochs=1, batch_size=2,
                alpha=0.0, keep_prob=1.0, free_bits=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_elbo_autoencoder_limit():
    # beta=0, alpha=0, b=1: total is the plain negative log-likelihood
    p = tiny_params(6)
    batch = make_batch([(4, 5, 4)])
    eps = np.random.default_rng(7).standard_normal((2, 1))
    total, terms = elbo_step(batch, _config(), p, eps, None, 0.0)
    post = encode_batch(batch.ids, batch.lengths, p)
    ll, _, _ = decode_batch(reparameterize(post, eps), batch.ids, batch.lengths, p)
    assert abs(total.item() + ll.item()) < 1e-12
    assert abs(total.item() - terms["reconstruction"]) < 1e-15
    assert terms["fraternal_penalty"] == 0.0


def test_elbo_standard_negative_elbo():
    p = tiny_params(8)
    batch = make_batch([(5, 4)])
    eps = np.random.default_rng(9).standard_normal((2, 1))
    total, terms = elbo_step(batch, _config(), p, eps, None, 1.0)
    assert abs(total.item() - (terms["reconstruction"] + terms["kl_raw"])) < 1e-12
    assert abs(terms["kl_effective"] - terms["kl_raw"]) < 1e-15


def test_elbo_total_formula_with_all_terms():
    p = tiny_params(10)
    cfg = _config(alpha=0.1, keep_prob=0.7, free_bits=1.0)
    rng = np.random.default_rng(11)
    eps = rng.standard_normal((2, 2))
    mask = sample_masks((2, 4), 0.7, rng)
    total, terms = elbo_step(make_batch([(4, 5, 4), (5, 5)]), cfg, p, eps, mask, 0.5)
    expected = (terms["reconstruction"] + 0.5 * terms["kl_effective"]
                + cfg.alpha * terms["fraternal_penalty"])
    assert abs(total.item() - expected) < 1e-12
    assert terms["kl_raw"] >= 0.0
    assert terms["fraternal_penalty"] >= 0.0
    assert terms["kl_effective"] >= terms["kl_raw"]
    assert terms["reconstruction"] <= total.item()


def test_elbo_full_config_gradient_check():
    # frozen eps and mask; every parameter vs central finite differences
    p = tiny_params(12)
    cfg = _config(alpha=0.1, keep_prob=0.7, free_bits=1.0)
    batch = make_batch([(4, 5, 4)])
    rng = np.random.default_rng(13)
    eps = rng.standard_normal((2, 1))
    mask = np.array([[1.0, 0.0, 1.0, 1.0]])

    def f():
        return elbo_step(batch, cfg, p, eps, mask, 0.5)[0]

    report = grad_check(f, dict(p.named_parameters()), tol=1e-4)
    assert report.passed, str(report)


def test_elbo_deterministic_with_frozen_noise():
    p = tiny_params(14)
    cfg = _config(alpha=0.1, keep_prob=0.7)
    eps = np.random.default_rng(15).standard_normal((2, 1))
    mask = np.array([[1.0, 1.0, 0.0]])
    batch = make_batch([(4, 5)])
    a_total, a_terms = elbo_step(batch, cfg, p, eps, mask, 0.5)
    b_total, b_terms = elbo_step(batch, cfg, p, eps.copy(), mask.copy(), 0.5)
    assert a_total.item() == b_total.item() and a_terms == b_terms


def test_elbo_batched_matches_single_sentences():
    # padding correctness: batched mean equals mean of per-sentence losses
    p = tiny_params(16)
    cfg = _config(keep_prob=1.0, alpha=0.0)
    sents = [(4, 5), (5, 4, 4, 5, 5), (4,), (5, 5, 4), (4, 4), (5,), (4, 5, 5, 5), (5, 4)]
    total, terms = elbo_step(make_batch(sents), cfg, p, None, None, 1.0)
    singles = [elbo_step(make_batch([s]), cfg, p, None, None, 1.0) for s in sents]
    assert abs(total.item() - np.mean([t.item() for t, _ in singles])) < 1e-10
    assert abs(terms["kl_raw"] - np.mean([ts["kl_raw"] for _, ts in singles])) < 1e-10


def test_elbo_batched_fraternal_matches_single_sentences():
    p = tiny_params(17)
    cfg = _config(keep_prob=0.6, alpha=0.3)
    sents = [(4, 5, 4), (5,), (4, 4, 5, 5)]
    rng = np.random.default_rng(1)
    mask = np.stack([(rng.random(5) < 0.6).astype(float) for _ in sents])
    total, terms = elbo_step(make_batch(sents), cfg, p, None, mask, 1.0)
    totals, penalties = [], []
    for j, s in enumerate(sents):
        one, one_terms = elbo_step(make_batch([s]), cfg, p, None, mask[j: j + 1, : len(s) + 1],
                                   1.0)
        totals.append(one.item())
        penalties.append(one_terms["fraternal_penalty"])
    assert abs(terms["fraternal_penalty"] - np.mean(penalties)) < 1e-10
    assert abs(total.item() - np.mean(totals)) < 1e-10


def test_tape_size_does_not_grow_with_sentence_length():
    # each recurrence is one tape entry, so a longer batch records no more ops
    p = tiny_params(14)
    cfg = _config(alpha=1.0, keep_prob=0.7, free_bits=1.0)
    sizes = []
    rng = np.random.default_rng(0)
    for sents in ([(4, 5, 4), (5,)], [(4, 5) * 7 + (4,), (5, 4, 4)]):  # max length 3, then 15
        batch = make_batch(sents)
        eps = rng.standard_normal((2, 2))
        mask = sample_masks((2, batch.ids.shape[1] + 1), 0.7, rng)
        with tape() as t:
            elbo_step(batch, cfg, p, eps, mask, 0.1)
            sizes.append(len(t))
    assert sizes[0] == sizes[1]


def test_free_bits_reuses_the_elementwise_kl():
    # kl_raw and the free-bits floor read one elementwise KL: 6 tape entries fewer than
    # building it twice, with the same values
    p = VaeParams.init(6, 8, 8, 4, np.random.default_rng(3))
    batch = make_batch([(4, 5, 4), (5,)])
    eps = np.random.default_rng(4).standard_normal((4, 2))
    cfg = _config(latent_dim=4, embed_dim=8, hidden_dim=8, free_bits=2.0)
    with tape() as t:
        _, terms = elbo_step(batch, cfg, p, eps, None, 0.5)
        assert len(t) == 30
    post = encode_batch(batch.ids, batch.lengths, p)
    floor = ad.reduce_mean(ad.maximum_scalar(kl_columns(post), 2.0))
    assert terms["kl_effective"] == floor.item()
    assert terms["kl_raw"] == ad.reduce_mean(kl_columns(post)).item()


def copying_walk(t, loss):
    """``Tape.backward`` with every first contribution copied, as a reference for the
    walk that keeps fresh ones."""
    adjoints = {loss: np.ones(())}
    while t._entries:
        out, inputs, backward_fn = t._entries.pop()
        g = adjoints.pop(out, None)
        if g is None:
            continue
        for inp, contrib in zip(inputs, backward_fn(g)):
            if contrib is None or not inp.requires_grad:
                continue
            if inp in adjoints:
                adjoints[inp] += contrib
            else:
                adjoints[inp] = np.array(contrib, dtype=np.float64, copy=True)
    return adjoints


@pytest.mark.parametrize("knobs", [dict(alpha=0.0), dict(alpha=1.0), dict(free_bits=4.0)])
def test_kept_adjoints_equal_a_copying_walk_at_default_dims(knobs):
    split, vocab = generate_synthetic(SyntheticSpec(n_train=16, n_dev=0, n_test=0))
    cfg = TrainConfig(**knobs)
    batch = make_batch(split.train)
    B, L = batch.ids.shape
    rng = np.random.default_rng(11)
    params = VaeParams.init(len(vocab), cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, rng)
    eps = rng.standard_normal((cfg.latent_dim, B))
    mask = sample_masks((B, L + 1), cfg.keep_prob, rng)
    grads = []
    for walk in (lambda t, loss: t.backward(loss), copying_walk):
        with tape() as t:
            loss, _ = elbo_step(batch, cfg, params, eps, mask, 0.5)
            adjoints = walk(t, loss)
        grads.append({n: adjoints[p] for n, p in params.named_parameters()})
    kept, copied = grads
    for name, g in copied.items():
        assert kept[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("knobs, entries", [
    (dict(alpha=0.0), 28), (dict(alpha=1.0), 44), (dict(free_bits=4.0), 31),
], ids=["alpha 0", "alpha 1", "free bits"])
def test_default_dims_step_tape_length(knobs, entries):
    # one entry per op: each of the four linear heads (enc.mu, enc.logvar, dec.h0, dec.c0)
    # is one affine op, once per decoder pass
    split, vocab = generate_synthetic(SyntheticSpec(n_train=16, n_dev=0, n_test=0))
    cfg = TrainConfig(**knobs)
    batch = make_batch(split.train)
    B, L = batch.ids.shape
    rng = np.random.default_rng(12)
    params = VaeParams.init(len(vocab), cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, rng)
    eps = rng.standard_normal((cfg.latent_dim, B))
    mask = sample_masks((B, L + 1), cfg.keep_prob, rng)
    with tape() as t:
        elbo_step(batch, cfg, params, eps, mask, 0.5)
        assert len(t) == entries

@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_blocked_products_keep_a_default_dims_step(alpha, monkeypatch):
    # the cell's w_h @ h and the BPTT's w_h.T @ dp run in row blocks at B = 16; switching
    # the blocks off must leave the loss's bits and each gradient up to last-bit rounding
    split, vocab = generate_synthetic(SyntheticSpec(n_train=16, n_dev=0, n_test=0))
    cfg = TrainConfig(alpha=alpha)
    batch = make_batch(split.train)
    B, L = batch.ids.shape
    rng = np.random.default_rng(7)
    params = VaeParams.init(len(vocab), cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, rng)
    eps = rng.standard_normal((cfg.latent_dim, B))
    mask = sample_masks((B, L + 1), cfg.keep_prob, rng)

    def step():
        with tape() as t:
            loss, _ = elbo_step(batch, cfg, params, eps, mask, 0.5)
            adjoints = t.backward(loss)
        return loss.item(), {n: adjoints[p] for n, p in params.named_parameters()}

    blocked_loss, blocked = step()
    monkeypatch.setattr(textvae.model, "SMALL_GEMM", 0)
    plain_loss, plain = step()
    assert B == cfg.batch_size == 16
    assert blocked_loss == plain_loss
    for name, g in plain.items():
        assert np.max(np.abs(blocked[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
