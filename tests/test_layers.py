import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textvae.autodiff as ad
from textvae.autodiff import Tensor, grad_check
from textvae.corpus import make_batch
from textvae.errors import ConfigError, DimensionError
from textvae.layers import linear, lstm_step, sample_masks
from textvae.model import VaeParams, decode_batch, encode_batch, lstm_recurrence
from textvae.objectives import fraternal_batch


def lstm_params(input_dim, hidden_dim, rng, zero=False):
    """A store holding one cell's stacked weight and bias under the prefix ``lstm``."""
    def tensor(shape):
        data = np.zeros(shape) if zero else rng.uniform(-0.5, 0.5, shape)
        return Tensor(data, requires_grad=True)

    return {"lstm.w": tensor((4 * hidden_dim, input_dim + hidden_dim)),
            "lstm.b": tensor((4 * hidden_dim, 1))}


def cell_weights(p, prefix, n_x):
    """(w_x, w_h, b) of a stored LSTM that has no static input."""
    w = p[f"{prefix}.w"].data
    return w[:, :n_x], w[:, n_x:], p[f"{prefix}.b"].data


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
    ll_masked, H_masked, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=np.zeros((1, 4)))
    p["dec.embed"].data[...] = 0.0
    ll_zero, H_zero, _ = decode_batch(z, batch.ids, batch.lengths, p)
    assert ll_masked.item() == ll_zero.item()
    assert np.array_equal(H_masked.data, H_zero.data)


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
        ll, _, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=np.array([[1.0, 0.0, 1.0]]))
        grad = t.backward(ad.reduce_mean(ll))[p["dec.embed"]]
    assert np.array_equal(grad[:, 4], np.zeros(4))
    assert np.any(grad[:, 2] != 0.0) and np.any(grad[:, 5] != 0.0)


def test_lstm_zero_params_zero_output():
    p = lstm_params(3, 4, None, zero=True)
    inputs = np.random.default_rng(1).uniform(-2, 2, (3, 5))
    w_x, w_h, b = cell_weights(p, "lstm", 3)
    h = c = np.zeros((4, 1))
    for t in range(5):
        h, c, _ = lstm_step(inputs[:, [t]], h, c, w_x, w_h, b)
        assert np.array_equal(h, np.zeros((4, 1)))
    zero = Tensor(np.zeros((4, 1)))
    H = lstm_recurrence(Tensor(inputs), zero, zero, p, "lstm")
    assert np.array_equal(H.data, np.zeros((4, 5)))


def test_lstm_single_step_equals_cell():
    # a one-token sentence's posterior is the heads applied to one cell step
    p = tiny_params(5)
    post = encode_batch(np.array([[5]]), np.array([1]), p)
    zero = np.zeros((4, 1))
    w_x, w_h, b = cell_weights(p, "enc.lstm", 4)
    h, _, _ = lstm_step(p["enc.embed"].data[:, [5]], zero, zero, w_x, w_h, b)
    h = Tensor(h)
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

    # the stored rows are the gates [i; f; o; g], its columns act on [x; h]
    xh = np.vstack([x, h0])
    pre = [p["lstm.w"].data[k * d: (k + 1) * d] @ xh + p["lstm.b"].data[k * d: (k + 1) * d]
           for k in range(4)]
    i, f, o, g = sig(pre[0]), sig(pre[1]), sig(pre[2]), np.tanh(pre[3])
    c_exp = f * c0 + i * g
    h_exp = o * np.tanh(c_exp)

    w_x, w_h, b = cell_weights(p, "lstm", w)
    h, c, _ = lstm_step(x, h0, c0, w_x, w_h, b)
    assert np.max(np.abs(h - h_exp)) < 1e-12
    assert np.max(np.abs(c - c_exp)) < 1e-12


def test_lstm_causality():
    # decoder step t reads input position t: changing token 4 leaves steps 0..3 alone
    p = tiny_params(6)
    z = Tensor(np.random.default_rng(4).standard_normal((2, 1)))
    base = make_batch([(4, 5, 4, 5, 4)])
    bumped = make_batch([(4, 5, 4, 4, 4)])
    _, H_a, _ = decode_batch(z, base.ids, base.lengths, p)
    _, H_b, _ = decode_batch(z, bumped.ids, bumped.lengths, p)
    for t in range(4):  # one sentence: column t is position t
        assert np.array_equal(H_a.data[:, t], H_b.data[:, t])
    assert not np.array_equal(H_a.data[:, 4], H_b.data[:, 4])


def test_lstm_dimension_error():
    p = lstm_params(3, 4, np.random.default_rng(0))
    state = Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError):
        lstm_recurrence(Tensor(np.zeros((2, 5))), state, state, p, "lstm")
    with pytest.raises(DimensionError):  # 7 columns are no whole number of 5-sentence positions
        lstm_recurrence(Tensor(np.zeros((3, 7))), state, state, p, "lstm")
    with pytest.raises(DimensionError):  # a static input the weights have no columns for
        lstm_recurrence(Tensor(np.zeros((3, 5))), state, state, p, "lstm",
                        static=Tensor(np.zeros((1, 5))))


def test_lstm_shared_input_is_declared_not_inferred():
    # 6 input columns against 3 sentences: 2 positions of 3, or 6 shared positions
    p = lstm_params(2, 3, np.random.default_rng(1))
    state = Tensor(np.random.default_rng(2).uniform(-1, 1, (3, 3)))
    xs = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 6)))
    assert lstm_recurrence(xs, state, state, p, "lstm").shape == (3, 6)
    assert lstm_recurrence(xs, state, state, p, "lstm", shared_input=True).shape == (3, 18)


def test_lstm_gradients_vs_finite_differences():
    rng = np.random.default_rng(5)
    p = lstm_params(2, 3, rng)
    inputs = Tensor(rng.uniform(-1, 1, (2, 4)))

    def f():
        h0 = Tensor(np.zeros((3, 1)))
        H = lstm_recurrence(inputs, h0, h0, p, "lstm")
        return ad.reduce_mean(ad.mul(H, H))

    report = grad_check(f, p, tol=1e-5)
    assert report.passed, str(report)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n_x=st.integers(1, 3), n_s=st.integers(0, 2), B=st.integers(1, 3),
       T=st.integers(1, 4), freeze=st.booleans(), shared=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_lstm_recurrence_gradient_matches_finite_differences(d, n_x, n_s, B, T, freeze, shared,
                                                             seed):
    # one fused op over T positions: every input and gate tensor against central differences;
    # a shared input is one (n_x, T) column per position that all B columns read
    rng = np.random.default_rng(seed)
    p = lstm_params(n_x + n_s, d, rng)

    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)

    xs, h0, c0 = leaf(n_x, T if shared else T * B), leaf(d, B), leaf(d, B)
    static = leaf(n_s, B) if n_s else None
    lengths = rng.integers(1, T + 1, B) if freeze else None
    weights = Tensor(rng.uniform(-1, 1, (d, T * B)))

    def run():
        return lstm_recurrence(xs, h0, c0, p, "lstm", static=static, lengths=lengths,
                               shared_input=shared)

    def f():
        return ad.reduce_mean(ad.mul(run(), weights))

    inputs = {"xs": xs, "h0": h0, "c0": c0, **p, **({"static": static} if n_s else {})}
    report = grad_check(f, inputs)
    assert report.passed, str(report)

    # the forward keeps backward state only under a tape; the values are the same bits
    with ad.tape():
        taped = run()
    assert np.array_equal(taped.data, run().data)
    if shared:  # the same recurrence over the input repeated into every column
        repeated = Tensor(np.repeat(xs.data, B, axis=1))
        H = lstm_recurrence(repeated, h0, c0, p, "lstm", static=static, lengths=lengths)
        assert np.allclose(taped.data, H.data, rtol=0, atol=1e-12)
    if freeze:  # a sentence's state stops at its own length
        H = taped.data.reshape(d, T, B)
        for j, n in enumerate(lengths):
            assert np.array_equal(H[:, n - 1:, j], np.repeat(H[:, n - 1: n, j], T - n + 1, axis=1))


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
    def f():
        y = linear(x, w, b)
        return ad.reduce_mean(ad.mul(y, y))

    report = grad_check(f, {"w": w, "b": b}, tol=1e-5)
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
