import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textvae.autodiff as ad
import textvae.model as model
from textvae.autodiff import Tensor, grad_check, matmul, tape
from textvae.errors import ContractError, DimensionError, NumericError
from textvae.layers import lstm_step
from textvae.model import VaeParams, output_log_lik


def cross_entropy_cols(logits, targets):
    """(1, B) cross entropy of each column of (V, B) logits, through the output
    layer with an identity projection: B one-position sentences of weight 1."""
    vocab, batch = logits.shape
    log_lik = output_log_lik(logits, Tensor(np.eye(vocab)), Tensor(np.zeros((vocab, 1))),
                             targets, np.ones((1, batch)))
    return ad.scale(log_lik, -1.0)


def cross_entropy(logits, target):
    """Scalar cross entropy of one logit vector, through the batched op."""
    return ad.reduce_mean(cross_entropy_cols(logits, [target]))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_column_selection():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    report = grad_check(lambda: ad.reduce_mean(matmul(a, b)), {"a": a, "b": b}, tol=1e-6)
    assert report.passed, str(report)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_sigmoid_tanh_at_zero():
    assert ad.exp(Tensor(0.0)).item() == 1.0
    # the LSTM cell's tanh-based gates at zero pre-activation: sigmoid 0.5, tanh 0
    zero = np.zeros((3, 2))
    h, c, gates = lstm_step(zero, zero, zero, np.zeros((12, 3)), np.zeros((12, 3)), 0.0)
    assert np.array_equal(gates, np.repeat([0.5, 0.0], [9, 3])[:, None] * np.ones((1, 2)))
    assert np.array_equal(h, zero) and np.array_equal(c, zero)


def test_exp_overflow_error():
    with pytest.raises(NumericError):
        ad.exp(Tensor(800.0))


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_scalar_broadcast():
    x = Tensor([1.0, 2.0, 3.0])
    assert np.array_equal(ad.add(x, 1.0).data, [2.0, 3.0, 4.0])
    assert np.array_equal(ad.mul(2.0, x).data, [2.0, 4.0, 6.0])
    assert np.array_equal(ad.sub(x, 1.0).data, [0.0, 1.0, 2.0])


def test_item_accepts_any_size_one_tensor():
    assert Tensor(2.5).item() == 2.5
    assert Tensor(np.full((1,), 3.0)).item() == 3.0
    assert Tensor(np.ones((1, 1))).item() == 1.0
    with pytest.raises(ContractError):
        Tensor(np.ones((1, 2))).item()


def test_cross_entropy_uniform_logits():
    out = cross_entropy(Tensor(np.zeros((4, 1))), 2)
    assert abs(out.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_large_logits_stable():
    out = cross_entropy(Tensor([[1000.0], [0.0]]), 0)
    assert 0.0 <= out.item() < 1e-12


def test_cross_entropy_matches_bruteforce_oracle():
    # direct normalized-probability computation, no log-sum-exp trick
    rng = np.random.default_rng(1)
    logits = rng.uniform(-2, 2, 10)
    target = 7
    probs = np.exp(logits) / np.exp(logits).sum()
    expected = -np.log(probs[target])

    t = Tensor(logits[:, None], requires_grad=True)
    with tape() as tp:
        out = cross_entropy(t, target)
        grads = tp.backward(out)
    assert abs(out.item() - expected) < 1e-10
    onehot = np.zeros(10)
    onehot[target] = 1.0
    assert np.max(np.abs(grads[t][:, 0] - (probs - onehot))) < 1e-10


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((4, 1))), 4)


def test_cross_entropy_cols_matches_scalar_version():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-3, 3, (6, 5))
    targets = [0, 5, 2, 3, 1]
    row = cross_entropy_cols(Tensor(logits), targets)
    for j, tgt in enumerate(targets):
        single = cross_entropy(Tensor(logits[:, [j]]), tgt)
        assert abs(row.data[0, j] - single.item()) < 1e-12


def test_reduce_trivials():
    x = Tensor([3.0, 4.0])
    assert ad.reduce_mean(ad.mul(x, x)).item() == 12.5
    assert ad.reduce_mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0


def test_sum_gradient_is_ones():
    x = Tensor([[5.0], [-1.0], [2.0]], requires_grad=True)
    with tape() as t:
        grads = t.backward(ad.reduce_mean(ad.column_sums(x)))
    assert np.array_equal(grads[x], np.ones((3, 1)))
    report = grad_check(lambda: ad.reduce_mean(ad.column_sums(x)), {"x": x}, tol=1e-6)
    assert report.passed


def test_mean_square_backward_analytic():
    # mul reads x twice: its two adjoints accumulate to d mean(x * x) / dx = x
    x = Tensor([1.0, 2.0], requires_grad=True)
    with tape() as t:
        grads = t.backward(ad.reduce_mean(ad.mul(x, x)))
    assert np.array_equal(grads[x], [1.0, 2.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with tape() as t:
        y = ad.scale(x, 2.0)
        with pytest.raises(ContractError):
            t.backward(y)


def test_backward_linearity_of_sums():
    # the gradient of a sum is the sum of the two returned gradient dicts
    x = Tensor(np.random.default_rng(3).uniform(-2, 2, 4), requires_grad=True)
    with tape() as t:
        both = t.backward(ad.add(ad.reduce_mean(ad.mul(x, x)), ad.reduce_mean(ad.exp(x))))
    with tape() as t:
        first = t.backward(ad.reduce_mean(ad.mul(x, x)))
    with tape() as t:
        second = t.backward(ad.reduce_mean(ad.exp(x)))
    assert np.max(np.abs(both[x] - (first[x] + second[x]))) < 1e-12


def test_backward_returns_exactly_the_reachable_leaves():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    unreached = Tensor([5.0], requires_grad=True)
    const = Tensor([1.0, 1.0])
    with tape() as t:
        h = ad.mul(a, b)
        ad.exp(unreached)  # recorded, but not an ancestor of the loss
        s = ad.add(h, const)
        grads = t.backward(ad.reduce_mean(ad.mul(s, s)))
    assert set(grads) == {a, b}  # no intermediate, no constant, no unreached leaf
    assert np.array_equal(grads[a], (a.data * b.data + 1.0) * b.data)
    assert np.array_equal(grads[b], (a.data * b.data + 1.0) * a.data)


def test_forward_is_reproducible():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-2, 2, (3, 3)))
    w = Tensor(rng.uniform(-2, 2, (3, 3)))
    a = ad.exp(matmul(w, x)).data
    b = ad.exp(matmul(w, x)).data
    assert np.array_equal(a, b)


def test_structural_ops_gradients():
    rng = np.random.default_rng(5)
    a = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
    c = Tensor(rng.uniform(-2, 2, (2, 1)), requires_grad=True)

    def f():
        sel = ad.select_columns(b, [0, 2, 2])
        plus = ad.add_col(ad.select_columns(a, [0, 1]), c)
        return ad.add(ad.reduce_mean(ad.mul(sel, sel)), ad.reduce_mean(ad.column_sums(plus)))

    report = grad_check(f, {"a": a, "b": b, "c": c}, tol=1e-6)
    assert report.passed, str(report)


def test_maximum_scalar_kink():
    x = Tensor(3.0, requires_grad=True)
    with tape() as t:
        grads = t.backward(ad.maximum_scalar(x, 8.0))
    assert float(grads[x]) == 0.0  # clamped branch: constant, no gradient
    y = Tensor(10.0, requires_grad=True)
    with tape() as t:
        grads = t.backward(ad.maximum_scalar(y, 8.0))
    assert float(grads[y]) == 1.0


def test_grad_check_exp_matmul_passes():
    rng = np.random.default_rng(7)
    w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-2, 2, (3, 2)))
    report = grad_check(lambda: ad.reduce_mean(ad.exp(matmul(w, x))), {"w": w}, tol=1e-5)
    assert report.passed


def test_grad_check_detects_corrupted_backward():
    # the negative-control hook negates the tanh derivatives of the fused LSTM backward
    rng = np.random.default_rng(8)
    p = VaeParams.init(5, 2, 3, 1, rng)
    xs = Tensor(rng.uniform(-2, 2, (2, 4)), requires_grad=True)
    h0 = Tensor(np.zeros((3, 2)))
    model._CORRUPT_TANH_BACKWARD = True
    try:
        report = grad_check(lambda: ad.reduce_mean(
            model.lstm_recurrence(xs, h0, h0, p, "enc.lstm")), {"xs": xs}, tol=1e-5)
    finally:
        model._CORRUPT_TANH_BACKWARD = False
    assert not report.passed
    assert report.max_error > 100 * report.tol


def test_grad_check_constant_function():
    x = Tensor([1.0, 2.0], requires_grad=True)
    const = Tensor(7.0)
    report = grad_check(lambda: ad.reduce_mean(ad.mul(const, const)), {"x": x}, tol=1e-6)
    assert report.passed
    assert report.max_error == 0.0


def test_grad_check_rejects_nondeterminism():
    rng = np.random.default_rng(9)
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda: ad.reduce_mean(ad.scale(x, float(rng.uniform()))), {"x": x})


def test_gradient_flows_through_deep_chain_vs_fd():
    # composite program covering most op kinds at once
    rng = np.random.default_rng(10)
    w1 = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2, 1)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (3, 5)))

    def f():
        h = ad.exp(matmul(w1, x))
        y = ad.add_col(matmul(w2, h), b)
        z = ad.exp(ad.scale(y, 0.1))
        e = ad.exp(y)
        return ad.add(ad.reduce_mean(ad.mul(e, e)), ad.reduce_mean(ad.mul(z, y)))

    report = grad_check(f, {"w1": w1, "w2": w2, "b": b}, tol=1e-5)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# property test: every op's backward rule against finite differences

SIDE = st.integers(1, 4)


def leaf(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


def binary_case(op):
    def case(data, rng):
        shape = (data.draw(SIDE), data.draw(SIDE))
        a_shape, b_shape = data.draw(st.sampled_from([(shape, shape), ((), shape), (shape, ())]))
        a, b = leaf(rng, a_shape), leaf(rng, b_shape)
        return (lambda: op(a, b)), {"a": a, "b": b}
    return case


def unary_case(op):
    def case(data, rng):
        x = leaf(rng, (data.draw(SIDE), data.draw(SIDE)))
        return (lambda: op(x)), {"x": x}
    return case


def matmul_case(data, rng):
    m, k, n = data.draw(SIDE), data.draw(SIDE), data.draw(SIDE)
    a, b = leaf(rng, (m, k)), leaf(rng, (k, n))
    return (lambda: matmul(a, b)), {"a": a, "b": b}


def add_col_case(data, rng):
    m, n = data.draw(SIDE), data.draw(SIDE)
    mat, col = leaf(rng, (m, n)), leaf(rng, (m, 1))
    return (lambda: ad.add_col(mat, col)), {"mat": mat, "col": col}


def select_columns_case(data, rng):
    m, n = data.draw(SIDE), data.draw(SIDE)
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    idx.append(idx[0])  # always at least one repeated index
    x = leaf(rng, (m, n))
    return (lambda: ad.select_columns(x, idx)), {"x": x}


def scale_case(data, rng):
    c = data.draw(st.floats(-3.0, 3.0))
    x = leaf(rng, (data.draw(SIDE), data.draw(SIDE)))
    return (lambda: ad.scale(x, c)), {"x": x}


def maximum_scalar_case(data, rng):
    # every entry at least 0.1 away from the kink at c
    c = data.draw(st.floats(-2.0, 2.0))
    shape = (data.draw(SIDE), data.draw(SIDE))
    side = rng.choice([-1.0, 1.0], shape)
    x = Tensor(c + side * rng.uniform(0.1, 2.0, shape), requires_grad=True)
    return (lambda: ad.maximum_scalar(x, c)), {"x": x}


OP_CASES = {
    "add": binary_case(ad.add),
    "sub": binary_case(ad.sub),
    "mul": binary_case(ad.mul),
    "scale": scale_case,
    "exp": unary_case(ad.exp),
    "matmul": matmul_case,
    "add_col": add_col_case,
    "select_columns": select_columns_case,
    "column_sums": unary_case(ad.column_sums),
    "maximum_scalar": maximum_scalar_case,
    "reduce_mean": unary_case(ad.reduce_mean),
}


def test_op_cases_cover_every_op():
    not_ops = {"tape", "recording", "grad_check"}
    ops = {name for name, obj in vars(ad).items()
           if inspect.isfunction(obj) and obj.__module__ == ad.__name__
           and not name.startswith("_") and name not in not_ops}
    assert ops == set(OP_CASES)


@pytest.mark.parametrize("op", sorted(OP_CASES))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_op_gradient_matches_finite_differences(op, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    program, params = OP_CASES[op](data, rng)
    # a random weighting makes the upstream adjoint differ entry by entry
    weights = Tensor(rng.uniform(-1.0, 1.0, program().shape))
    report = grad_check(lambda: ad.reduce_mean(ad.mul(program(), weights)), params)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# the decoder's output layer: one op from hidden states to per-sentence log-likelihoods


def output_layer_case(rng, vocab, d, T, B):
    """Leaves H, W, b; targets with at least one repeat; weights with zeros."""
    H, W, b = leaf(rng, (d, T * B)), leaf(rng, (vocab, d)), leaf(rng, (vocab, 1))
    targets = rng.integers(0, vocab, T * B)
    targets[-1] = targets[0]
    weights = rng.uniform(0.5, 2.0, (T, B)) * (rng.random((T, B)) < 0.7)
    weights[-1, 0] = 0.0  # a padded position: scored, but weighted out
    return H, W, b, targets, weights


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_output_layer_gradient_matches_finite_differences(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    H, W, b, targets, weights = output_layer_case(rng, *(data.draw(SIDE) for _ in range(4)))
    upstream = Tensor(rng.uniform(-1.0, 1.0, (1, weights.shape[1])))
    report = grad_check(lambda: ad.reduce_mean(ad.mul(
        output_log_lik(H, W, b, targets, weights), upstream)), {"H": H, "W": W, "b": b})
    assert report.passed, str(report)


def test_output_layer_matches_bruteforce_oracle():
    # direct normalized probabilities, one column at a time, no log-sum-exp trick
    rng = np.random.default_rng(11)
    vocab, d, T, B = 7, 3, 4, 3
    H, W, b, targets, weights = output_layer_case(rng, vocab, d, T, B)
    want = np.zeros(B)
    grad_H, grad_W, grad_b = np.zeros(H.shape), np.zeros(W.shape), np.zeros(b.shape)
    for n in range(T * B):
        t, j = divmod(n, B)
        z = W.data @ H.data[:, n] + b.data[:, 0]
        probs = np.exp(z) / np.exp(z).sum()
        want[j] += weights[t, j] * np.log(probs[targets[n]])
        dz = -weights[t, j] * probs
        dz[targets[n]] += weights[t, j]
        grad_H[:, n] = W.data.T @ dz
        grad_W += np.outer(dz, H.data[:, n])
        grad_b[:, 0] += dz
    with tape() as tp:
        out = output_log_lik(H, W, b, targets, weights)
        grads = tp.backward(ad.scale(ad.reduce_mean(out), B))  # d(sum over sentences)
    assert np.max(np.abs(out.data[0] - want)) < 1e-12
    for got, ref in ((grads[H], grad_H), (grads[W], grad_W), (grads[b], grad_b)):
        assert np.max(np.abs(got - ref)) < 1e-12


def test_output_layer_rejects_bad_shapes_and_targets():
    rng = np.random.default_rng(12)
    H, W, b, targets, weights = output_layer_case(rng, 5, 3, 2, 2)
    with pytest.raises(DimensionError):
        output_log_lik(H, W, b, targets[:-1], weights)
    with pytest.raises(DimensionError):
        output_log_lik(H, W, b, targets, weights[:1])
    with pytest.raises(DimensionError):
        output_log_lik(H, W, Tensor(np.zeros((4, 1))), targets, weights)
    with pytest.raises(DimensionError):
        output_log_lik(H, Tensor(np.zeros((5, 2))), b, targets, weights)
    for bad in (-1, 5):
        with pytest.raises(IndexError):
            output_log_lik(H, W, b, np.r_[targets[:-1], bad], weights)


def test_output_layer_backward_runs_once_per_entry():
    # the backward reuses the forward's buffer in place, so a second walk must refuse
    rng = np.random.default_rng(13)
    H, W, b, targets, weights = output_layer_case(rng, 4, 2, 2, 2)
    with tape() as tp:
        loss = ad.reduce_mean(output_log_lik(H, W, b, targets, weights))
        tp.backward(loss)
        with pytest.raises(ContractError):
            tp.backward(loss)
