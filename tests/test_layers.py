import numpy as np
import pytest

import textvae.autodiff as ad
from textvae.autodiff import Tensor, grad_check
from textvae.corpus import make_batch
from textvae.errors import ConfigError, DimensionError
from textvae.layers import linear, lstm_step, sample_masks
from textvae.model import VaeParams, decode_batch, encode_batch
from textvae.objectives import fraternal_batch

GATES = ("w_i", "w_f", "w_o", "w_c", "b_i", "b_f", "b_o", "b_c")


def lstm_params(input_dim, hidden_dim, rng, zero=False):
    """A store holding one cell's eight tensors under the prefix ``lstm``."""
    def tensor(shape):
        data = np.zeros(shape) if zero else rng.uniform(-0.5, 0.5, shape)
        return Tensor(data, requires_grad=True)

    p = {f"lstm.{k}": tensor((hidden_dim, input_dim + hidden_dim)) for k in GATES[:4]}
    p.update({f"lstm.{k}": tensor((hidden_dim, 1)) for k in GATES[4:]})
    return p


def tiny_params(seed=0):
    return VaeParams.init(6, 4, 4, 2, np.random.default_rng(seed))


def test_mask_pair_extremes():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_masks((8,), 1.0, rng), np.ones(8))
    assert np.array_equal(sample_masks((2, 8), 0.0, rng), np.zeros((2, 8)))
    assert sample_masks((3, 5), 0.5, rng).dtype == np.float64


def test_mask_pair_law_of_large_numbers():
    masks = sample_masks((10, 1000), 0.5, np.random.default_rng(123))
    assert set(np.unique(masks)) <= {0.0, 1.0}
    assert 0.48 <= masks.mean() <= 0.52


def test_mask_pair_bad_prob():
    with pytest.raises(ConfigError):
        sample_masks((4,), 1.5, np.random.default_rng(0))


def test_apply_mask_trivials():
    # a dropped position feeds a zero embedding; a zero mask equals a zero table
    p = tiny_params(1)
    z = Tensor(np.random.default_rng(2).standard_normal((2, 1)))
    batch = make_batch([(4, 5, 4)])
    ll_masked, steps_masked = decode_batch(z, batch.ids, batch.lengths, p, mask=np.zeros((1, 4)))
    p["dec.embed"].data[...] = 0.0
    ll_zero, steps_zero = decode_batch(z, batch.ids, batch.lengths, p)
    assert ll_masked.item() == ll_zero.item()
    for (h_a, _), (h_b, _) in zip(steps_masked, steps_zero):
        assert np.array_equal(h_a.data, h_b.data)


def test_apply_mask_length_mismatch():
    p = tiny_params(2)
    batch = make_batch([(4, 5)])
    with pytest.raises(DimensionError):
        decode_batch(Tensor(np.zeros((2, 1))), batch.ids, batch.lengths, p, mask=np.ones((1, 4)))


def test_complementary_masks_partition(monkeypatch):
    # the twin decoders see complementary masks, drawn or given
    import textvae.objectives as objectives

    seen = []
    real = objectives.decode_batch

    def spy(z, ids, lengths, params, mask=None):
        seen.append(mask)
        return real(z, ids, lengths, params, mask=mask)

    monkeypatch.setattr(objectives, "decode_batch", spy)
    p = tiny_params(3)
    batch = make_batch([(4, 5, 4), (5,), (4, 4, 5, 5, 4)])
    z = Tensor(np.random.default_rng(7).standard_normal((2, 3)))
    fraternal_batch(z, batch, 0.6, p, np.random.default_rng(7))
    fraternal_batch(z, batch, 0.6, p, np.random.default_rng(7), mask=np.ones((3, 6)))
    for mask_a, mask_b in (seen[:2], seen[2:]):
        assert mask_a.shape == (3, 6)
        assert np.array_equal(mask_a + mask_b, np.ones((3, 6)))
        assert not np.any(mask_a * mask_b)


def test_apply_mask_expected_value():
    rng = np.random.default_rng(11)
    E = np.array([[1.0, -2.0, 0.5, 3.0]])
    b = 0.7
    masked = sample_masks((10000, 4), b, rng) * E
    assert np.max(np.abs(masked.mean(axis=0) - b * E[0])) < 0.02 * np.max(np.abs(E))


def test_apply_mask_gradient_blocked_on_dropped_columns():
    # decoder inputs are [START, 4, 5]; dropping position 1 blocks token 4's row
    p = tiny_params(4)
    batch = make_batch([(4, 5)])
    z = Tensor(np.random.default_rng(5).standard_normal((2, 1)))
    with ad.tape() as t:
        ll, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=np.array([[1.0, 0.0, 1.0]]))
        grad = t.backward(ad.reduce_mean(ll))[p["dec.embed"]]
    assert np.array_equal(grad[:, 4], np.zeros(4))
    assert np.any(grad[:, 2] != 0.0) and np.any(grad[:, 5] != 0.0)


def test_lstm_zero_params_zero_output():
    p = lstm_params(3, 4, None, zero=True)
    inputs = Tensor(np.random.default_rng(1).uniform(-2, 2, (3, 5)))
    h = c = Tensor(np.zeros((4, 1)))
    for t in range(5):
        h, c = lstm_step(ad.select_columns(inputs, [t]), h, c, p, "lstm")
        assert np.array_equal(h.data, np.zeros((4, 1)))


def test_lstm_single_step_equals_cell():
    # a one-token sentence's posterior is the heads applied to one cell step
    p = tiny_params(5)
    post = encode_batch(np.array([[5]]), np.array([1]), p)
    zero = Tensor(np.zeros((4, 1)))
    h, _ = lstm_step(ad.select_columns(p["enc.embed"], [5]), zero, zero, p, "enc.lstm")
    assert np.array_equal(post.mu.data, linear(h, p["enc.mu_w"], p["enc.mu_b"]).data)
    assert np.array_equal(post.logvar.data, linear(h, p["enc.logvar_w"], p["enc.logvar_b"]).data)


def test_lstm_cell_matches_gate_by_gate_oracle():
    # hand-rolled gate equations, independent of the layer implementation
    rng = np.random.default_rng(3)
    d, w = 3, 2
    p = lstm_params(w, d, rng)
    x = rng.uniform(-1, 1, (w, 1))
    h0 = rng.uniform(-1, 1, (d, 1))
    c0 = rng.uniform(-1, 1, (d, 1))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    xh = np.vstack([x, h0])
    i = sig(p["lstm.w_i"].data @ xh + p["lstm.b_i"].data)
    f = sig(p["lstm.w_f"].data @ xh + p["lstm.b_f"].data)
    o = sig(p["lstm.w_o"].data @ xh + p["lstm.b_o"].data)
    g = np.tanh(p["lstm.w_c"].data @ xh + p["lstm.b_c"].data)
    c_exp = f * c0 + i * g
    h_exp = o * np.tanh(c_exp)

    h, c = lstm_step(Tensor(x), Tensor(h0), Tensor(c0), p, "lstm")
    assert np.max(np.abs(h.data - h_exp)) < 1e-12
    assert np.max(np.abs(c.data - c_exp)) < 1e-12


def test_lstm_causality():
    # decoder step t reads input position t: changing token 4 leaves steps 0..3 alone
    p = tiny_params(6)
    z = Tensor(np.random.default_rng(4).standard_normal((2, 1)))
    base = make_batch([(4, 5, 4, 5, 4)])
    bumped = make_batch([(4, 5, 4, 4, 4)])
    _, steps_a = decode_batch(z, base.ids, base.lengths, p)
    _, steps_b = decode_batch(z, bumped.ids, bumped.lengths, p)
    for t in range(4):
        assert np.array_equal(steps_a[t][0].data, steps_b[t][0].data)
    assert not np.array_equal(steps_a[4][0].data, steps_b[4][0].data)


def test_lstm_dimension_error():
    p = lstm_params(3, 4, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        lstm_step(Tensor(np.zeros((2, 5))), Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 5))),
                  p, "lstm")


def test_lstm_gradients_vs_finite_differences():
    rng = np.random.default_rng(5)
    p = lstm_params(2, 3, rng)
    inputs = Tensor(rng.uniform(-1, 1, (2, 4)))

    def f():
        h = c = Tensor(np.zeros((3, 1)))
        loss = Tensor(0.0)
        for t in range(4):
            h, c = lstm_step(ad.select_columns(inputs, [t]), h, c, p, "lstm")
            loss = ad.add(loss, ad.squared_l2_norm(h))
        return loss

    report = grad_check(f, p, tol=1e-5)
    assert report.passed, str(report)


def test_linear_identity_and_bias():
    x = Tensor(np.array([[1.0], [2.0]]))
    eye = Tensor(np.eye(2))
    zero_b = Tensor(np.zeros((2, 1)))
    assert np.array_equal(linear(x, eye, zero_b).data, x.data)
    b = Tensor(np.array([[5.0], [6.0]]))
    assert np.array_equal(linear(x, Tensor(np.zeros((2, 2))), b).data, b.data)


def test_linear_gradcheck():
    rng = np.random.default_rng(6)
    w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 1)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 4)))
    report = grad_check(lambda: ad.squared_l2_norm(linear(x, w, b)), {"w": w, "b": b}, tol=1e-5)
    assert report.passed


def test_embedding_lookup_and_grad_accumulation():
    table = tiny_params(8)["enc.embed"]
    out = ad.select_columns(table, [1, 4, 1])
    assert out.shape == (4, 3)
    assert np.array_equal(out.data[:, 0], table.data[:, 1])
    with ad.tape() as t:
        grad = t.backward(ad.reduce_mean(ad.column_sums(ad.select_columns(table, [2, 2]))))[table]
    # each of the two gathered copies contributes 0.5 to column 2
    assert np.array_equal(grad[:, 2], np.full(4, 1.0))
    assert np.array_equal(grad[:, 0], np.zeros(4))


def test_embedding_lookup_never_mutates_table():
    table = tiny_params(9)["dec.embed"]
    before = table.data.copy()
    ad.select_columns(table, [0, 3, 1])
    assert np.array_equal(table.data, before)


def test_embedding_out_of_vocab():
    with pytest.raises(IndexError):
        encode_batch(np.array([[6]]), np.array([1]), tiny_params(10))
