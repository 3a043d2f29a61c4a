import ctypes
import platform
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from textvae.autodiff import Tensor
from textvae.corpus import SyntheticSpec, generate_synthetic
from textvae.errors import ConfigError, ContractError, TrainingError, read_config
from textvae.model import VaeParams, save_checkpoint
from textvae.training import (BETA1, BETA2, CHUNK, EPS, AdamState, TrainConfig, adam_step,
                               clip_gradients, keep_freed_heap, sample_masks, train)

SMALL_SPEC = SyntheticSpec(n_templates=2, words_per_slot=5, length_range=(4, 6),
                           n_train=120, n_dev=20, n_test=20, seed=42)


def small_config(**kw):
    base = dict(latent_dim=4, embed_dim=8, hidden_dim=16, batch_size=16, epochs=2,
                warmup_steps=50, keep_prob=1.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(keep_prob=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(free_bits=-1)
    with pytest.raises(ConfigError):
        read_config(TrainConfig, {"no_such_knob": 1}, "train")
    with pytest.raises(ConfigError):  # the CLI's --seed always replaces a config file's seed
        read_config(TrainConfig, {"seed": True}, "train")
    assert read_config(TrainConfig, {"lr": 0, "warmup_steps": None, "free_bits": 1}, "train").lr == 0


@pytest.mark.parametrize("warmup, n_train, want", [
    (7, 1000, 7),      # a set value is kept
    (None, 80, 50),    # 10 epochs of 5 batches of 16
    (None, 81, 60),    # a partial last batch counts
    (None, 3, 10),     # fewer sentences than a batch: one batch an epoch
    (None, 0, 1),      # never below 1
])
def test_resolved_sets_warmup_steps(warmup, n_train, want):
    cfg = TrainConfig(warmup_steps=warmup, batch_size=16)
    resolved = cfg.resolved(n_train)
    assert resolved.warmup_steps == want
    assert replace(resolved, warmup_steps=warmup) == cfg  # nothing else changes
    assert resolved.resolved(n_train) == resolved


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    state = AdamState()
    adam_step([("p", p)], {"p": np.zeros((1, 2))}, state, lr=0.1)
    assert np.array_equal(p.data, [[1.0, 2.0]])
    assert state.t == 1


def test_adam_first_step_magnitude_is_lr_sign():
    p = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
    g = np.array([[0.3, -0.7]])
    adam_step([("p", p)], {"p": g}, AdamState(), lr=0.1)
    # bias correction makes m_hat/sqrt(v_hat) ~ sign(g) on the first step
    assert np.max(np.abs(p.data - np.array([[0.9, -0.9]]))) < 1e-6


def test_clip_rejects_nonfinite_gradient():
    with pytest.raises(TrainingError) as exc:
        clip_gradients({"p": np.array([[np.nan]])}, 0.0)
    assert "non-finite gradient in parameter 'p'" in str(exc.value)
    # an inf entry is named even where another parameter's finite squares overflow
    with pytest.raises(TrainingError, match="non-finite gradient in parameter 'b'"):
        clip_gradients({"a": np.full((2, 2), 1e200), "b": np.array([[1.0, -np.inf]])}, 1.0)


def test_clip_nonfinite_gradient_updates_nothing():
    # a step is clip_gradients then adam_step: an inf in the last gradient raises
    # before any gradient is scaled, leaving every parameter and the state untouched
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0]]), requires_grad=True)
    named = [("a", a), ("b", b)]
    state = AdamState()
    adam_step(named, {"a": np.ones((1, 2)), "b": np.ones((1, 1))}, state, lr=0.1)
    before = {n: t.data.copy() for n, t in named}
    moments = {n: (state.m[n].copy(), state.v[n].copy()) for n, _ in named}
    grads = {"a": np.ones((1, 2)), "b": np.array([[np.inf]])}
    with pytest.raises(TrainingError) as exc:
        clip_gradients(grads, 0.5)
        adam_step(named, grads, state, lr=0.1)
    assert "'b'" in str(exc.value)
    assert np.array_equal(grads["a"], np.ones((1, 2)))
    assert state.t == 1
    for n, t in named:
        assert np.array_equal(t.data, before[n]), n
        assert np.array_equal(state.m[n], moments[n][0]), n
        assert np.array_equal(state.v[n], moments[n][1]), n


def test_adam_minimizes_quadratic():
    # direct simulation oracle: 50 steps on f(x) = x^2 from x = 1
    x = Tensor(np.array([[1.0]]), requires_grad=True)
    state = AdamState()
    for _ in range(50):
        g = 2.0 * x.data
        adam_step([("x", x)], {"x": g}, state, lr=0.1)
    assert abs(float(x.data[0, 0])) < 0.5


def test_adam_bitwise_equals_textbook_expression():
    # several shapes in one store, gradients over many magnitudes, three steps
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (1,), (7, 1), (16, 40), (2, 3, 5), ()]
    named = [(f"p{i}", Tensor(rng.standard_normal(s), requires_grad=True))
             for i, s in enumerate(shapes)]
    want = {n: t.data.copy() for n, t in named}
    m = {n: np.zeros(s) for (n, _), s in zip(named, shapes)}
    v = {n: np.zeros(s) for (n, _), s in zip(named, shapes)}
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8  # the paper's defaults, as adam_step uses
    state = AdamState()
    for t in (1, 2, 3):
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 3)
                 for (n, _), s in zip(named, shapes)}
        adam_step(named, grads, state, lr)
        # the efficient form of Kingma & Ba (2015, §2) is the bitwise oracle; the
        # bias-corrected form it rewrites must agree with it to 1e-12 relative
        alpha_t = lr * np.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
        eps_hat = eps * np.sqrt(1 - beta2 ** t)
        for n, g in grads.items():
            m[n] = beta1 * m[n] + (1 - beta1) * g
            v[n] = beta2 * v[n] + (1 - beta2) * g * g
            update = alpha_t * m[n] / (np.sqrt(v[n]) + eps_hat)
            m_hat = m[n] / (1 - beta1 ** t)
            v_hat = v[n] / (1 - beta2 ** t)
            bias_corrected = lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.all(np.abs(update - bias_corrected) <= 1e-12 * np.abs(bias_corrected)), (t, n)
            want[n] = want[n] - update
        for n, p in named:
            assert np.array_equal(p.data, want[n]), (t, n)
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n])


def whole_tensor_adam_step(params, grads, state, lr):
    """The unchunked update: two scratch buffers the size of the largest tensor,
    each tensor updated in one pass, in the operation order of Adam's efficient
    form."""
    state.t += 1
    t = state.t
    alpha_t = lr * np.sqrt(1 - BETA2 ** t) / (1 - BETA1 ** t)
    eps_hat = EPS * np.sqrt(1 - BETA2 ** t)
    size = max(p.data.size for _, p in params)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in params:
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        a = scratch_a[: p.data.size].reshape(p.shape)
        b = scratch_b[: p.data.size].reshape(p.shape)
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
        p.data -= b


def test_adam_chunks_bitwise_equal_whole_tensor_update():
    # sizes on either side of a chunk boundary, several chunks with a tail, and a 2-D
    # tensor whose flat length is no multiple of CHUNK
    rng = np.random.default_rng(17)
    shapes = [(1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (3 * CHUNK + 7,), (129, 300)]
    named = [(f"p{i}", Tensor(rng.standard_normal(s), requires_grad=True))
             for i, s in enumerate(shapes)]
    oracle = [(n, Tensor(p.data.copy(), requires_grad=True)) for n, p in named]
    lr = 3e-3
    state, want = AdamState(), AdamState()
    for step in (1, 2, 3):
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 3)
                 for (n, _), s in zip(named, shapes)}
        adam_step(named, grads, state, lr)
        whole_tensor_adam_step(oracle, grads, want, lr)
        for (n, p), (_, q) in zip(named, oracle):
            assert np.array_equal(p.data, q.data), (step, n)
            assert np.array_equal(state.m[n], want.m[n]) and np.array_equal(state.v[n], want.v[n])


def test_adam_scratch_is_chunk_sized():
    # the first step allocates the two moments; a later one only two chunk-sized buffers
    n = 1_000_000
    p = Tensor(np.zeros(n), requires_grad=True)
    g = np.full(n, 0.5)
    state = AdamState()
    adam_step([("p", p)], {"p": g}, state, lr=0.1)
    tracemalloc.start()
    try:
        adam_step([("p", p)], {"p": g}, state, lr=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_adam_rejects_non_contiguous_parameter():
    # checked before any tensor or the step count moves
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((3, 4)).T, requires_grad=True)
    state = AdamState()
    with pytest.raises(ContractError):
        adam_step([("a", a), ("b", b)], {"a": np.ones((2, 2)), "b": np.ones((4, 3))}, state,
                  lr=0.1)
    assert not a.data.any() and not b.data.any() and state.t == 0 and not state.m


def fresh_init(cfg, vocab):
    """The parameters train() starts from when there is no pretraining."""
    return VaeParams.init(len(vocab), cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim,
                          np.random.default_rng(cfg.seed))


def test_train_lr_zero_keeps_initial_params():
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(lr=0.0, epochs=1)
    init = fresh_init(cfg, vocab)
    result = train(split, cfg, len(vocab))
    for (n, t), (_, t0) in zip(result.final_params.named_parameters(), init.named_parameters()):
        assert np.array_equal(t.data, t0.data), n


def test_train_same_seed_identical_logs_and_params():
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(epochs=2, alpha=0.1, keep_prob=0.7)
    r1 = train(split, cfg, len(vocab))
    r2 = train(split, cfg, len(vocab))
    strip = lambda rec: {k: v for k, v in rec.items() if k != "wall_time"}
    assert [strip(r) for r in r1.log] == [strip(r) for r in r2.log]
    for (n1, t1), (_, t2) in zip(r1.params.named_parameters(), r2.params.named_parameters()):
        assert np.array_equal(t1.data, t2.data), n1


def test_train_loss_decreases():
    # seeded regression: mean reconstruction strictly decreases over the
    # first five epochs on a 500-sentence synthetic corpus
    spec = SyntheticSpec(n_templates=2, words_per_slot=5, length_range=(4, 6),
                         n_train=500, n_dev=50, n_test=50, seed=21)
    split, vocab = generate_synthetic(spec)
    cfg = small_config(epochs=5, seed=1, warmup_steps=320)
    result = train(split, cfg, len(vocab))
    recon = [rec["reconstruction"] for rec in result.log]
    assert all(b < a for a, b in zip(recon, recon[1:])), recon


def test_train_divergence_aborts_with_last_good(monkeypatch):
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(epochs=3)

    import textvae.training as training_mod

    real = training_mod.elbo_step
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        calls["n"] += 1
        total, terms = real(*args, **kwargs)
        if calls["n"] >= 10:
            total.data = np.array(np.nan)
        return total, terms

    monkeypatch.setattr(training_mod, "elbo_step", wrapped)
    with pytest.raises(TrainingError) as exc:
        train(split, cfg, len(vocab))
    assert exc.value.params is not None
    assert isinstance(exc.value.log, list)


@pytest.mark.parametrize("n_dev, failure", [(16, "dev ELBO failed"),
                                            (0, "train-split ELBO failed")])
def test_non_finite_epoch_elbo_is_a_divergence(n_dev, failure):
    # lr 1e300 takes one finite step to parameters whose ELBO is NaN (inf - inf in the
    # matmuls).  numpy's warnings are silenced, so only the finite check can end the run:
    # it diverges and keeps the initial parameters instead of selecting the NaN epoch,
    # also when there is no dev split and the epoch is selected on its training total
    split, vocab = generate_synthetic(replace(SMALL_SPEC, n_train=16, n_dev=n_dev))
    cfg = small_config(lr=1e300, epochs=1, latent_dim=2, embed_dim=2, hidden_dim=2)  # one step
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match=failure) as exc:
        train(split, cfg, len(vocab))
    assert "ELBO is not finite" in str(exc.value)
    # the failed epoch keeps its record: its finite loss terms, but no ELBO, as JSON has no NaN
    [record] = exc.value.log
    assert record["epoch"] == 0 and record["val_elbo"] is None
    assert all(np.isfinite(record[k]) for k in ("total", "kl_raw", "grad_norm", "wall_time"))
    for (n, t), (_, t0) in zip(exc.value.params.named_parameters(),
                               fresh_init(cfg, vocab).named_parameters()):
        assert np.array_equal(t.data, t0.data), n


def test_clip_gradients_norm_bits_and_overflow():
    rng = np.random.default_rng(3)
    grads = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((5, 1))}
    want = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    assert clip_gradients(grads, 0.0) == want
    squares = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert abs(want - squares) <= 1e-14 * squares
    # every entry finite, but the sum of squares is not: a divergence, not an inf norm
    huge = {"a": np.full((2, 2), 1e200), "b": np.ones((1, 1))}
    before = {n: g.copy() for n, g in huge.items()}
    with pytest.raises(TrainingError, match="gradient norm overflows"):
        clip_gradients(huge, 1.0)
    assert all(np.array_equal(huge[n], before[n]) for n in huge)


def test_pretrain_zero_epochs_passthrough():
    # with no pretraining, epochs=0 returns the seeded init and an empty log
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(pretrain_epochs=0, epochs=0)
    result = train(split, cfg, len(vocab))
    for (n, a), (_, b) in zip(result.params.named_parameters(),
                              fresh_init(cfg, vocab).named_parameters()):
        assert np.array_equal(a.data, b.data), n
    assert result.log == []


def test_pretrain_reset_redraws_decoder_only(monkeypatch):
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(pretrain_epochs=1, epochs=0)

    # snapshot the pretrained state right before the reset redraws the decoder
    real_reset = VaeParams.reset_decoder
    pre = {}

    def spy(params, rng):
        pre.update({n: t.data.copy() for n, t in params.named_parameters()})
        real_reset(params, rng)

    monkeypatch.setattr(VaeParams, "reset_decoder", spy)
    result = train(split, cfg, len(vocab))
    assert pre, "reset_decoder was not called"
    for n, t in result.params.named_parameters():
        if n.startswith("enc."):
            assert np.array_equal(t.data, pre[n]), n
    changed = [n for n, t in result.params.named_parameters()
               if n.startswith("dec.") and not np.array_equal(t.data, pre[n])]
    assert any(n.startswith("dec.lstm") for n in changed)
    assert any(n.startswith("dec.embed") for n in changed)
    assert [rec["phase"] for rec in result.log] == ["pretrain", "reset"]


def test_pretrained_encoder_separates_template_classes():
    # after AE pretraining, posterior means cluster by template (silhouette > 0)
    from textvae.metrics import collect_posteriors

    spec = SyntheticSpec(n_templates=2, words_per_slot=5, length_range=(4, 6),
                         n_train=300, n_dev=30, n_test=30, seed=5)
    split, vocab = generate_synthetic(spec)
    cfg = small_config(pretrain_epochs=5, epochs=0, seed=3)
    params = train(split, cfg, len(vocab)).params

    mus, _ = collect_posteriors(split.test, params)
    labels = np.array([int(vocab.id_to_token[sent[0]][1]) for sent in split.test])

    def mean_dist(x, group):
        d = np.linalg.norm(group - x, axis=1)
        return d.sum() / max(len(group) - 1, 1)

    scores = []
    for i, x in enumerate(mus):
        same = mus[labels == labels[i]]
        other = mus[labels != labels[i]]
        a = mean_dist(x, same)
        b = float(np.mean(np.linalg.norm(other - x, axis=1)))
        scores.append((b - a) / max(a, b))
    assert float(np.mean(scores)) > 0.0


def spy_steps(monkeypatch):
    """Record (batch, named parameters, eps, mask, beta) of every elbo_step call of the
    training loop."""
    import textvae.training as training_mod

    real = training_mod.elbo_step
    calls = []

    def spy(batch, config, params, eps, mask, beta):
        calls.append((batch, params.named_parameters(), eps, mask, beta))
        return real(batch, config, params, eps, mask, beta)

    monkeypatch.setattr(training_mod, "elbo_step", spy)
    return calls


@pytest.mark.parametrize("alpha, keep_prob, pretrain_epochs",
                         [(0.5, 0.7, 0), (0.0, 0.7, 0), (0.5, 1.0, 0), (0.0, 1.0, 0),
                          (0.5, 0.7, 1)],
                         ids=["0.5-0.7", "0.0-0.7", "0.5-1.0", "0.0-1.0", "pretrain 0.5-0.7"])
def test_step_draws_eps_then_mask_after_init(monkeypatch, alpha, keep_prob, pretrain_epochs):
    # replay the run's generator: init, then per step eps, then the mask, if any;
    # pretraining draws neither (z = mu, no word dropout), then the decoder reset draws
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(epochs=1, alpha=alpha, keep_prob=keep_prob,
                       pretrain_epochs=pretrain_epochs)
    calls = spy_steps(monkeypatch)
    train(split, cfg, len(vocab))
    rng = np.random.default_rng(cfg.seed)
    params = VaeParams.init(len(vocab), cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, rng)
    n_train_steps = -(-len(split.train) // cfg.batch_size)
    if pretrain_epochs:
        assert all(eps is None and mask is None for _, _, eps, mask, _ in calls[:n_train_steps])
        calls = calls[n_train_steps + -(-len(split.dev) // cfg.batch_size):]  # and its dev ELBO
        params.reset_decoder(rng)
    for batch, _, eps, mask, _ in calls[:2]:
        assert np.array_equal(eps, rng.standard_normal((cfg.latent_dim, batch.size)))
        if alpha == 0 and keep_prob == 1:
            assert mask is None
        else:
            n_steps = batch.ids.shape[1] + 1
            assert np.array_equal(mask, sample_masks((batch.size, n_steps), keep_prob, rng))
    assert len(calls) > n_train_steps  # the dev ELBO ran too, on its own generator
    assert all(mask is None for _, _, _, mask, _ in calls[n_train_steps:])


def test_best_checkpoint_is_the_epoch_of_lowest_dev_elbo(monkeypatch):
    # the dev ELBO is scripted so that its best epoch is not the epoch of lowest training total
    import textvae.training as training_mod

    split, vocab = generate_synthetic(SMALL_SPEC)
    scripted, at_epoch_end = [3.0, 1.0, 2.0], []

    def dev_elbo(sentences, config, params, seed):
        at_epoch_end.append(params.clone())
        return scripted[len(at_epoch_end) - 1]

    monkeypatch.setattr(training_mod, "_dev_elbo", dev_elbo)
    result = train(split, small_config(epochs=3), len(vocab))
    assert [r["val_elbo"] for r in result.log] == scripted
    totals = [r["total"] for r in result.log]
    assert min(range(3), key=totals.__getitem__) != 1
    for (n, t), (_, want) in zip(result.params.named_parameters(),
                                 at_epoch_end[1].named_parameters()):
        assert np.array_equal(t.data, want.data), n


def test_dev_elbo_noise_is_common_to_every_epoch():
    # lr 0 keeps each phase's parameters, so equal dev ELBOs mean the same noise each epoch
    split, vocab = generate_synthetic(SMALL_SPEC)
    log = train(split, small_config(lr=0.0, epochs=3, pretrain_epochs=2), len(vocab)).log
    for phase, epochs in (("pretrain", 2), ("train", 3)):
        vals = [r["val_elbo"] for r in log if r["phase"] == phase]
        assert len(vals) == epochs and len({v.hex() for v in vals}) == 1, phase


def test_val_elbo_ignores_free_bits():
    # lr 0 keeps the initial parameters, so the two runs' dev ELBOs differ only if the
    # free-bits surrogate, which their training totals show, leaks into the ELBO
    split, vocab = generate_synthetic(SMALL_SPEC)
    [plain], [floored] = (train(split, small_config(lr=0.0, epochs=1, free_bits=fb),
                                len(vocab)).log for fb in (0.0, 50.0))
    assert plain["total"] != floored["total"]
    assert plain["val_elbo"] == floored["val_elbo"]


def test_logged_beta_is_the_warmup_mean_of_each_epoch():
    # 120 sentences in batches of 8: 15 equal steps per epoch, warmup over 20 steps
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(epochs=3, batch_size=8, warmup_steps=20, pretrain_epochs=1)
    log = train(split, cfg, len(vocab)).log
    assert [(r["phase"], r["beta"]) for r in log[:1]] == [("pretrain", 0.0)]
    assert [r["phase"] for r in log[1:]] == ["reset", "train", "train", "train"]
    for epoch, rec in enumerate(log[2:]):
        want = np.mean([min(step / 20, 1.0) for step in range(15 * epoch, 15 * epoch + 15)])
        assert abs(rec["beta"] - want) < 1e-12, (epoch, rec["beta"], want)
    assert log[-1]["beta"] == 1.0


def test_epoch_record_and_dev_elbo_weight_each_batch_by_its_sentences(monkeypatch):
    # 50 train sentences in batches of 16 end in a batch of 2, and 20 dev sentences in a
    # batch of 4: each logged mean is the sentence-weighted sum of the spied per-step
    # (per-batch) values, taken in order, and grad_norm the plain mean of the step norms
    import textvae.training as training_mod

    spec = replace(SMALL_SPEC, n_train=50, n_dev=20)
    split, vocab = generate_synthetic(spec)
    real_step, real_elbo = training_mod._step, training_mod.elbo_step
    steps, dev, in_step = [], [], []

    def step_spy(batch, *args):
        in_step.append(True)
        terms, norm = real_step(batch, *args)
        in_step.pop()
        steps.append((batch.size, terms, norm))
        return terms, norm

    def elbo_spy(batch, *args):
        loss, terms = real_elbo(batch, *args)
        if not in_step:
            dev.append((batch.size, loss.item()))
        return loss, terms

    monkeypatch.setattr(training_mod, "_step", step_spy)
    monkeypatch.setattr(training_mod, "elbo_step", elbo_spy)
    log = train(split, small_config(epochs=2), len(vocab)).log

    def weighted_mean(pairs):
        total = 0.0
        for n, value in pairs:
            total += value * n
        return total / sum(n for n, _ in pairs)

    assert [n for n, _, _ in steps] == [16, 16, 16, 2] * 2 and [n for n, _ in dev] == [16, 4] * 2
    for epoch, rec in enumerate(log):
        mine, mine_dev = steps[4 * epoch: 4 * epoch + 4], dev[2 * epoch: 2 * epoch + 2]
        for key in ("reconstruction", "total"):
            assert rec[key] == weighted_mean([(n, t[key]) for n, t, _ in mine]), (epoch, key)
        assert rec["val_elbo"] == weighted_mean(mine_dev), epoch
        assert rec["grad_norm"] == np.mean([norm for _, _, norm in mine]), epoch


@pytest.mark.parametrize("mode", ["pretrain", "alpha 0", "alpha 1"])
def test_every_parameter_gets_a_gradient(monkeypatch, mode):
    # pretraining reaches enc.logvar_* through the beta = 0 KL term
    from textvae.autodiff import Tape

    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = {"pretrain": small_config(pretrain_epochs=1, epochs=0),
           "alpha 0": small_config(epochs=1),
           "alpha 1": small_config(epochs=1, alpha=1.0, keep_prob=0.7)}[mode]
    calls = spy_steps(monkeypatch)
    real_backward = Tape.backward
    adjoints = []
    monkeypatch.setattr(Tape, "backward",
                        lambda t, loss: adjoints.append(real_backward(t, loss)) or adjoints[-1])
    train(split, cfg, len(vocab))
    named = calls[0][1]  # the store of every step: no reset falls between them
    assert len(named) == 16 and len(adjoints) == 8  # 120 sentences in batches of 16
    if mode == "pretrain":  # z = mu, no dropout, beta = 0
        assert all(eps is None and mask is None and beta == 0.0
                   for _, _, eps, mask, beta in calls[:8])
    for grads in adjoints:
        assert all(p in grads for _, p in named), [n for n, p in named if p not in grads]


def test_no_step_state_outlives_its_step(monkeypatch):
    # a step's tape, loss and gradients die, by reference counting alone, before the
    # next forward pass starts: the next step's or the dev ELBO's
    import textvae.training as training_mod

    real_tape, real_adam, real_elbo = (training_mod.tape, training_mod.adam_step,
                                       training_mod.elbo_step)
    step_refs, ended = [], []  # the open step's weakrefs; those of finished steps

    @contextmanager
    def keeping_tape():
        with real_tape() as t:
            step_refs.append(weakref.ref(t))
            yield t

    def keeping_adam(named, grads, *args):
        ended.extend(step_refs + [weakref.ref(g) for g in grads.values()])
        step_refs.clear()
        return real_adam(named, grads, *args)

    survivors = []

    def checking_elbo(*args):
        survivors.append(sum(r() is not None for r in ended))
        total, terms = real_elbo(*args)
        if step_refs:  # inside a training step's tape
            step_refs.append(weakref.ref(total.data))
        return total, terms

    monkeypatch.setattr(training_mod, "tape", keeping_tape)
    monkeypatch.setattr(training_mod, "adam_step", keeping_adam)
    monkeypatch.setattr(training_mod, "elbo_step", checking_elbo)
    split, vocab = generate_synthetic(SMALL_SPEC)
    train(split, small_config(epochs=2, alpha=1.0, keep_prob=0.7, pretrain_epochs=1),
          len(vocab))
    assert len(ended) == 3 * 8 * 18  # 3 epochs of 8 steps: a tape, a loss, 16 gradients
    assert survivors[1:] and not any(survivors), survivors


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not GLIBC, reason="the mmap and trim thresholds are glibc's; "
                                      "another C library keeps its own heap policy")
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_warm_training_takes_no_fresh_page_faults(alpha):
    # freed arrays stay in the heap, so a warm train() reuses its pages instead of
    # faulting fresh ones in: without the thresholds a call took 2300-5500 faults,
    # with one of them 1300-4300; without either, alpha 0 can pass after earlier
    # frees in the process have raised glibc's own dynamic thresholds
    import resource

    split, vocab = generate_synthetic(SyntheticSpec(n_train=64, n_dev=16, n_test=0))
    cfg = TrainConfig(alpha=alpha, keep_prob=0.7, epochs=1, seed=0)  # default dims, 4 steps
    for _ in range(2):
        train(split, cfg, len(vocab))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(split, cfg, len(vocab))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults


def no_library(name):
    raise OSError("cannot open shared object file")


@pytest.mark.parametrize("loader", [lambda name: object(), no_library],
                         ids=["no mallopt", "no library"])
def test_train_without_mallopt_writes_the_same_checkpoint(monkeypatch, tmp_path, loader):
    split, vocab = generate_synthetic(SMALL_SPEC)
    cfg = small_config(alpha=1.0, keep_prob=0.7)
    save_checkpoint(tmp_path / "normal.bin", train(split, cfg, len(vocab)).params, vocab)
    calls = []

    def loading(name):
        calls.append(name)
        return loader(name)

    monkeypatch.setattr(ctypes, "CDLL", loading)
    keep_freed_heap.cache_clear()
    try:
        params = train(split, cfg, len(vocab)).params
    finally:
        keep_freed_heap.cache_clear()
    assert calls == [None]
    save_checkpoint(tmp_path / "checkpoint.bin", params, vocab)
    assert (tmp_path / "checkpoint.bin").read_bytes() == (tmp_path / "normal.bin").read_bytes()
