import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textvae.autodiff as ad
import textvae.model
from textvae.autodiff import Tensor, grad_check
from textvae.corpus import make_batch
from textvae.errors import DimensionError
from textvae.model import (VaeParams, block_rows, blocked_matmul, decode_batch, encode_batch,
                           lstm_recurrence, lstm_step)
from textvae.objectives import fraternal_batch
from textvae.training import sample_masks


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


def cell(x, h, c, w_x, w_h, b):
    """One ``lstm_step`` of [w_h | w_x] @ [h; x] + b into fresh buffers: (h_next,
    c_next, gates), h_next holding the hidden rows only."""
    d, B = c.shape
    operand = np.vstack([h, x])
    h_next, c_next, gates = lstm_step(operand, c, np.hstack([w_h, w_x]), b,
                                      (np.empty((4 * d, B)), np.empty((d, B)),
                                       np.empty(operand.shape)))
    return h_next[:d], c_next, gates


def test_mask_pair_extremes():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_masks((8,), 1.0, rng), np.ones(8))
    assert np.array_equal(sample_masks((2, 8), 0.0, rng), np.zeros((2, 8)))
    assert sample_masks((3, 5), 0.5, rng).dtype == np.float64


def test_mask_pair_law_of_large_numbers():
    masks = sample_masks((10, 1000), 0.5, np.random.default_rng(123))
    assert set(np.unique(masks)) <= {0.0, 1.0}
    assert 0.48 <= masks.mean() <= 0.52


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
    # the twin decoder passes see complementary masks, drawn or all ones
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
    fraternal_batch(z, batch, sample_masks((3, 6), 0.6, np.random.default_rng(7)), p)
    fraternal_batch(z, batch, np.ones((3, 6)), p)
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
        h, c, _ = cell(inputs[:, [t]], h, c, w_x, w_h, b)
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
    h, _, _ = cell(p["enc.embed"].data[:, [5]], zero, zero, w_x, w_h, b)
    h = Tensor(h)
    assert np.array_equal(post.mu.data, ad.affine(p["enc.mu_w"], h, p["enc.mu_b"]).data)
    assert np.array_equal(post.logvar.data, ad.affine(p["enc.logvar_w"], h, p["enc.logvar_b"]).data)


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
    h, c, _ = cell(x, h0, c0, w_x, w_h, b)
    assert np.max(np.abs(h - h_exp)) < 1e-12
    assert np.max(np.abs(c - c_exp)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), n_x=st.integers(1, 4), n_s=st.integers(0, 2), B=st.integers(1, 5),
       T=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
@example(d=128, n_x=64, n_s=32, B=16, T=13, seed=0).via("the decoder's dims")
@example(d=128, n_x=64, n_s=0, B=64, T=11, seed=1).via("the encoder's dims, one eval block")
def test_lstm_repeated_input_fold_matches_separate_products(d, n_x, n_s, B, T, seed):
    # [w_h | w_x] @ [h; x_t] + base sums the two terms in one product; every position's
    # state stays within 1e-12 of a loop that adds w_h @ h, w_x @ x_t and base apart
    rng = np.random.default_rng(seed)
    p = lstm_params(n_x + n_s, d, rng)
    xs, h0, c0 = (rng.uniform(-1, 1, shape) for shape in ((n_x, T * B), (d, B), (d, B)))
    static = rng.uniform(-1, 1, (n_s, B))
    w, b = p["lstm.w"].data, p["lstm.b"].data
    w_x, w_s, w_h = w[:, :n_x], w[:, n_x: n_x + n_s], w[:, n_x + n_s:]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h, c, want = h0, c0, []
    for t in range(T):
        pre = w_h @ h + w_x @ xs[:, t * B: (t + 1) * B] + (w_s @ static + b)
        c = sig(pre[d: 2 * d]) * c + sig(pre[:d]) * np.tanh(pre[3 * d:])
        h = sig(pre[2 * d: 3 * d]) * np.tanh(c)
        want.append(h)
    want = np.hstack(want)
    H = lstm_recurrence(Tensor(xs), Tensor(h0), Tensor(c0), p, "lstm",
                        static=Tensor(static) if n_s else None)
    assert np.max(np.abs(H.data - want)) <= 1e-12 * np.max(np.abs(want))


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
       T=st.integers(1, 4), shared=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_lstm_recurrence_gradient_matches_finite_differences(d, n_x, n_s, B, T, shared, seed):
    # one fused op over T positions: every input and gate tensor against central differences;
    # a shared input is one (n_x, T) column per position that all B columns read
    rng = np.random.default_rng(seed)
    p = lstm_params(n_x + n_s, d, rng)

    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)

    xs, h0, c0 = leaf(n_x, T if shared else T * B), leaf(d, B), leaf(d, B)
    static = leaf(n_s, B) if n_s else None
    weights = Tensor(rng.uniform(-1, 1, (d, T * B)))

    def run():
        return lstm_recurrence(xs, h0, c0, p, "lstm", static=static, shared_input=shared)

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
        H = lstm_recurrence(repeated, h0, c0, p, "lstm", static=static)
        assert np.allclose(taped.data, H.data, rtol=0, atol=1e-12)


def fresh_temporaries_bptt(xs, h0, c0, w, b, static, shared, g):
    """(d_xs, d_h0, d_c0, d_w, d_b, d_static) of the recurrence by a BPTT loop that makes
    fresh temporaries and writes each position's gate adjoints into a strided column
    block of one (4d, T·B) array: the loop the slab replaced, as the reference.  Its
    forward runs the cell on the recurrence's operands: [w_h | w_x] @ [h; x_t], or a
    shared input's gate column folded in as [w_h | col_t] @ [h; 1]."""
    d, B = h0.shape
    n_x = xs.shape[0]
    n_s = 0 if static is None else static.shape[0]
    step = 1 if shared else B
    T = xs.shape[1] // step
    TB = T * B
    w_x, w_s, w_h = w[:, :n_x], w[:, n_x: n_x + n_s], w[:, n_x + n_s:]
    sd = np.zeros((0, B)) if static is None else static
    base = w_s @ sd
    if shared:
        cols = w_x @ xs + b
    else:
        base = base + b
    h, c = h0, c0
    H = np.empty((d, TB))
    cs, gates_seq = [c], []
    for t in range(T):
        if shared:
            h, c, gates = cell(np.ones((1, B)), h, c, cols[:, [t]], w_h, base)
        else:
            h, c, gates = cell(xs[:, t * B: (t + 1) * B], h, c, w_x, w_h, base)
        H[:, t * B: (t + 1) * B] = h
        cs.append(c)
        gates_seq.append(gates)
    d_pre = np.empty((4 * d, TB))
    dh = np.zeros((d, B))
    dc = np.zeros((d, B))
    for t in reversed(range(T)):
        cols = slice(t * B, (t + 1) * B)
        gates = gates_seq.pop()
        i, f, o, gg = gates[:d], gates[d: 2 * d], gates[2 * d: 3 * d], gates[3 * d:]
        dh_t = g[:, cols] + dh
        tc = np.tanh(cs.pop())
        dc_t = dc + dh_t * o * (1.0 - tc * tc)
        dp = d_pre[:, cols]
        dp[:d] = dc_t * gg
        dp[d: 2 * d] = dc_t * cs[-1]
        dp[2 * d: 3 * d] = dh_t * tc
        dp[:3 * d] *= gates[:3 * d] * (1.0 - gates[:3 * d])
        dp[3 * d:] = dc_t * i * (1.0 - gg * gg)
        dh = blocked_matmul(w_h.T, dp)
        dc = dc_t * f
    d_pre_sum = sum((d_pre[:, t * B: (t + 1) * B] for t in range(1, T)), d_pre[:, :B])
    d_pre_x = d_pre.reshape(4 * d, T, B).sum(axis=2) if shared else d_pre
    h_prev = np.concatenate([h0, H[:, : TB - B]], axis=1)
    d_w = np.empty(w.shape)
    np.matmul(d_pre_x, xs.T, out=d_w[:, :n_x])
    np.matmul(d_pre_sum, sd.T, out=d_w[:, n_x: n_x + n_s])
    np.matmul(d_pre, h_prev.T, out=d_w[:, n_x + n_s:])
    return (w_x.T @ d_pre_x, dh, dc, d_w, d_pre_sum.sum(axis=1, keepdims=True),
            w_s.T @ d_pre_sum)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), n_x=st.integers(1, 3), n_s=st.integers(0, 2), B=st.integers(1, 5),
       T=st.integers(1, 6), shared=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(d=128, n_x=64, n_s=32, B=16, T=13, shared=False, seed=0).via("the decoder's dims")
@example(d=128, n_x=64, n_s=0, B=1, T=13, shared=True, seed=1).via("one shared column")
@example(d=128, n_x=64, n_s=32, B=100, T=11, shared=True, seed=2).via("the eval decode's fold")
def test_lstm_slab_bptt_bitwise_equals_fresh_temporaries(d, n_x, n_s, B, T, shared, seed):
    # the slab's in-place products keep each expression's association, so every input
    # gradient is the reference loop's to the bit
    rng = np.random.default_rng(seed)
    p = lstm_params(n_x + n_s, d, rng)

    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)

    xs, h0, c0 = leaf(n_x, T if shared else T * B), leaf(d, B), leaf(d, B)
    static = leaf(n_s, B) if n_s else None
    upstream = rng.standard_normal((d, T * B))
    with ad.tape() as t:
        H = lstm_recurrence(xs, h0, c0, p, "lstm", static=static, shared_input=shared)
        loss = Tensor(0.0)
        t.record(loss, (H,), lambda g: (upstream.copy(),))
        grads = t.backward(loss)
    want = fresh_temporaries_bptt(xs.data, h0.data, c0.data, p["lstm.w"].data,
                                  p["lstm.b"].data, None if static is None else static.data,
                                  shared, upstream)
    leaves = (xs, h0, c0, p["lstm.w"], p["lstm.b"]) + (() if static is None else (static,))
    for k, (leaf_t, expected) in enumerate(zip(leaves, want)):
        assert grads[leaf_t].tobytes() == expected.tobytes(), k


# the cell's (4d, d) @ (d, B) product and the BPTT's (d, 4d) @ (4d, B) one at d = 128
SIZING = {(512, 128, 16): 256, (512, 128, 32): 128, (512, 128, 64): 64, (512, 128, 100): 64,
          (128, 512, 16): 64, (128, 512, 32): 32, (128, 512, 64): 128, (128, 512, 100): 128}


def test_block_rows_follows_the_small_gemm_rule():
    # at B = 64 and 100 the BPTT's blocks would have 16 rows, under the floor of 32
    for (m, k, n), rows in SIZING.items():
        assert block_rows(m, k, n) == rows, (m, k, n)
    assert block_rows(20, 128, 16) == 20  # a 256-row block would hold every row


def test_block_rows_off_when_the_limit_is_zero(monkeypatch):
    monkeypatch.setattr(textvae.model, "SMALL_GEMM", 0)
    assert all(block_rows(m, k, n) == m for m, k, n in SIZING)


@pytest.mark.parametrize("m,k,n", [(512, 128, 16), (512, 128, 100), (128, 512, 16),
                                   (300, 128, 16), (130, 512, 16), (96, 512, 32)])
def test_blocked_matmul_equals_the_plain_product(m, k, n):
    # row and column views of a wider stored weight, as the cell and the BPTT pass them;
    # 300 = 256 + 44, 130 = 2·64 + 2 and 96 = 3·32 rows leave the last block short or full
    rng = np.random.default_rng(m + k + n)
    b = rng.standard_normal((k, n))
    for a in (rng.standard_normal((m, k + 9))[:, 9:], rng.standard_normal((k + 9, m))[9:].T):
        assert block_rows(m, k, n) < m
        expected = a @ b
        got = blocked_matmul(a, b)
        assert got.shape == (m, n)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("m,k,n", [(512, 128, 1), (128, 512, 64), (20, 128, 16)])
def test_blocked_matmul_is_the_plain_product_when_it_declines(m, k, n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((k, m)).T, rng.standard_normal((k, n))
    assert block_rows(m, k, n) == m
    assert blocked_matmul(a, b).tobytes() == (a @ b).tobytes()


def test_linear_identity_and_bias():
    x = Tensor(np.array([[1.0], [2.0]]))
    eye = Tensor(np.eye(2))
    zero_b = Tensor(np.zeros((2, 1)))
    assert np.array_equal(ad.affine(eye, x, zero_b).data, x.data)
    b = Tensor(np.array([[5.0], [6.0]]))
    assert np.array_equal(ad.affine(Tensor(np.zeros((2, 2))), x, b).data, b.data)


def test_linear_gradcheck():
    rng = np.random.default_rng(6)
    w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 1)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 4)))
    def f():
        y = ad.affine(w, x, b)
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
