import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textvae.autodiff as ad
from textvae.autodiff import Tensor, grad_check
from textvae.cli import EXIT_CODES, main
from textvae.corpus import END, Vocabulary, make_batch
from textvae.errors import DataError, DimensionError
from textvae.model import (
    CHECKPOINT_MAGIC,
    VaeParams,
    decode_batch,
    decode_greedy,
    encode_batch,
    load_checkpoint,
    reparameterize,
    save_checkpoint,
)


def tiny_params(seed=0, vocab_size=6, embed_dim=4, hidden_dim=4, latent_dim=2):
    return VaeParams.init(vocab_size, embed_dim, hidden_dim, latent_dim,
                          np.random.default_rng(seed))


def encode(x, p):
    batch = make_batch([x])
    return encode_batch(batch.ids, batch.lengths, p)


def decode(z, x, mask, p):
    """One sentence's scalar log-likelihood and (hidden, n_steps) state matrix."""
    batch = make_batch([x])
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64).reshape(1, -1)
    ll, H, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=mask)
    return ll, H.data


def side(p, prefix):
    return [(n, t) for n, t in p.named_parameters() if n.startswith(prefix)]


def gate_pre(p, side, k, xh):
    """Gate k's pre-activation (k = 0..3 for i, f, o, g), read from its rows of the stored
    ``{side}.lstm`` weight and bias."""
    rows = slice(k * p.hidden_dim, (k + 1) * p.hidden_dim)
    return p[f"{side}.lstm.w"].data[rows] @ xh + p[f"{side}.lstm.b"].data[rows]


def test_encode_zero_heads_gives_standard_prior():
    p = tiny_params()
    for name in ("enc.mu_w", "enc.mu_b", "enc.logvar_w", "enc.logvar_b"):
        p[name].data[...] = 0.0
    post = encode([4, 5, 4], p)
    assert np.array_equal(post.mu.data, np.zeros((2, 1)))
    assert np.array_equal(post.logvar.data, np.zeros((2, 1)))


def test_encode_deterministic():
    p = tiny_params(1)
    a = encode([4, 5], p)
    b = encode([4, 5], p)
    assert np.array_equal(a.mu.data, b.mu.data)
    assert np.array_equal(a.logvar.data, b.logvar.data)


def test_encode_order_sensitivity():
    p = tiny_params(2)
    a = encode([4, 5], p)
    b = encode([5, 4], p)
    assert not np.allclose(a.mu.data, b.mu.data)


def test_encode_rejects_empty_and_oov():
    p = tiny_params(3)
    with pytest.raises(DataError):
        encode([], p)
    with pytest.raises(DataError):
        encode_batch(np.zeros((1, 0), dtype=np.int64), np.array([0]), p)
    with pytest.raises(IndexError):
        encode([6], p)


def test_encode_batch_matches_single_with_padding():
    p = tiny_params(4)
    sents = [(4, 5), (5, 4, 4, 5), (4,)]
    ids = np.zeros((3, 4), dtype=np.int64)
    lengths = np.array([2, 4, 1])
    for j, s in enumerate(sents):
        ids[j, : len(s)] = s
    post = encode_batch(ids, lengths, p)
    for j, s in enumerate(sents):
        single = encode(s, p)
        assert np.max(np.abs(post.mu.data[:, j: j + 1] - single.mu.data)) < 1e-12
        assert np.max(np.abs(post.logvar.data[:, j: j + 1] - single.logvar.data)) < 1e-12


def test_reparameterize_trivials():
    p = tiny_params(5)
    post = encode([4, 5], p)
    z0 = reparameterize(post, np.zeros(2))
    assert np.array_equal(z0.data, post.mu.data)

    post.mu.data[...] = 0.0
    post.logvar.data[...] = 0.0
    eps = np.array([0.3, -1.2])
    z = reparameterize(post, eps)
    assert np.max(np.abs(z.data[:, 0] - eps)) < 1e-15


def test_reparameterize_grad_dz_dmu_is_identity():
    p = tiny_params(6)
    eps = np.random.default_rng(0).standard_normal(2)

    def f():
        post = encode([4, 5, 5], p)
        return ad.reduce_mean(reparameterize(post, eps))

    report = grad_check(f, side(p, "enc."), tol=1e-4)
    assert report.passed, str(report)


def test_decode_uniform_logits_is_log_vocab():
    p = tiny_params(7)
    for _, t in side(p, "dec."):
        t.data[...] = 0.0
    x = [4, 4, 4]
    ll, H = decode(Tensor(np.zeros((2, 1))), x, None, p)
    n_predictions = len(x) + 1  # end sentinel is modeled
    assert abs(ll.item() + n_predictions * np.log(p.vocab_size)) < 1e-12
    assert H.shape == (4, n_predictions)
    assert np.array_equal(H, np.zeros_like(H))


def test_decode_mask_of_ones_is_identity():
    p = tiny_params(8)
    z = Tensor(np.random.default_rng(1).standard_normal((2, 1)))
    x = [4, 5, 4]
    ll_a, H_a = decode(z, x, None, p)
    ll_b, H_b = decode(z, x, np.ones(len(x) + 1), p)
    assert ll_a.item() == ll_b.item()
    assert np.array_equal(H_a, H_b)


def test_decode_log_likelihood_matches_stepwise_oracle():
    # brute-force position-wise softmax recomputation
    p = tiny_params(9)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 1))
    x = [5, 4, 5, 5]
    ll, _ = decode(Tensor(z), x, None, p)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def d(name):
        return p[f"dec.{name}"].data

    h = d("h0_w") @ z + d("h0_b")
    c = d("c0_w") @ z + d("c0_b")
    seq_in = [2] + x          # start sentinel then gold tokens
    seq_out = x + [END]
    total = 0.0
    for tok_in, tok_out in zip(seq_in, seq_out):
        e = d("embed")[:, [tok_in]]
        xin = np.vstack([e, z])
        xh = np.vstack([xin, h])
        i, f, o = (sig(gate_pre(p, "dec", k, xh)) for k in range(3))
        g = np.tanh(gate_pre(p, "dec", 3, xh))
        c = f * c + i * g
        h = o * np.tanh(c)
        logits = (d("out_w") @ h + d("out_b"))[:, 0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        total += np.log(probs[tok_out])
    assert abs(ll.item() - total) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 7, 40])
@pytest.mark.parametrize("masked", [False, True])
def test_decode_shared_ids_equals_repeated_ids(k, masked):
    # one row of ids against k latent columns is the k-row repeated batch, values and gradients
    p = tiny_params(12, vocab_size=9, embed_dim=5, hidden_dim=6, latent_dim=3)
    rng = np.random.default_rng(k)
    x = (4, 7, 5, 8, 4)
    z = Tensor(rng.standard_normal((3, k)), requires_grad=True)
    mask = (rng.random((1, len(x) + 1)) < 0.6).astype(np.float64) if masked else None
    one, rep = make_batch([x]), make_batch([x] * k)

    def run(batch, m):
        with ad.tape() as t:
            ll, H, valid = decode_batch(z, batch.ids, batch.lengths, p, mask=m)
            grads = t.backward(ad.reduce_mean(ad.mul(ll, ll)))
        return ll.data, H.data, valid, [grads[v] for v in [z] + [t for _, t in side(p, "dec.")]]

    shared = run(one, mask)
    repeated = run(rep, None if mask is None else np.repeat(mask, k, axis=0))
    assert np.array_equal(shared[2], repeated[2])
    for a, b in zip(shared[:2] + tuple(shared[3]), repeated[:2] + tuple(repeated[3])):
        if k == 1:  # the same computation
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def _old_output_chain(H, params, ids, lengths, B):
    """The decoder's output layer as it ran before it became one op, in numpy:
    linear projection, per-column softmax cross entropy, then per-sentence sums
    by a dense (T·B, B) selection matrix.  Returns the (1, B) log-likelihoods
    and the gradients of their mean with respect to dec.out_w and dec.out_b."""
    n_rows, L = ids.shape
    targets = np.zeros((n_rows, L + 1), dtype=np.int64)
    targets[:, :L] = ids
    targets[np.arange(n_rows), lengths] = END
    tgt = targets.T.reshape(-1)
    valid = (np.arange(L + 1)[:, None] < lengths[None, :] + 1).astype(np.float64)
    if n_rows < B:
        tgt, valid = np.repeat(tgt, B), np.repeat(valid, B, axis=1)
    W, b = params["dec.out_w"].data, params["dec.out_b"].data
    logits = (W @ H) + b
    cols = np.arange(tgt.size)
    m = logits.max(axis=0, keepdims=True)
    shifted = logits - m
    sumexp = np.exp(shifted).sum(axis=0, keepdims=True)
    ce = (m + np.log(sumexp)) - logits[tgt, cols][None, :]
    select = (-valid).reshape(-1, 1) * np.tile(np.eye(B), (valid.shape[0], 1))
    g_ce = np.full((1, B), 1.0 / B) @ select.T
    p = np.exp(shifted) / sumexp
    p[tgt, cols] -= 1.0
    g = p * g_ce
    return ce @ select, g @ H.T, g.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("shared", [False, True], ids=["training batch", "k=100 shared input"])
def test_decode_log_lik_bitwise_equals_old_output_chain(shared):
    p = VaeParams.init(30, 8, 16, 4, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    if shared:  # one sentence against 100 posterior samples, as in evaluation
        batch, B, mask = make_batch([(4, 9, 17, 5, 28, 6)]), 100, None
    else:  # sentences of different lengths, word dropout on
        batch = make_batch([(4, 9, 17), (5, 28, 6, 7, 11, 4, 4), (12,), (8, 8, 9, 10, 13)])
        B, mask = 4, (rng.random((4, 8)) < 0.7).astype(np.float64)
    z = Tensor(rng.standard_normal((4, B)))
    with ad.tape() as t:
        ll, H, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=mask)
        grads = t.backward(ad.reduce_mean(ll))
    want, want_w, want_b = _old_output_chain(H.data, p, batch.ids, batch.lengths, B)
    assert np.array_equal(ll.data, want)
    assert np.array_equal(grads[p["dec.out_w"]], want_w)
    assert np.array_equal(grads[p["dec.out_b"]], want_b)
    untaped, _, _ = decode_batch(z, batch.ids, batch.lengths, p, mask=mask)
    assert np.array_equal(untaped.data, want)


def test_decode_rejects_ids_rows_that_match_neither():
    p = tiny_params(13)
    batch = make_batch([(4, 5), (5, 4)])
    with pytest.raises(DimensionError):
        decode_batch(Tensor(np.zeros((2, 3))), batch.ids, batch.lengths, p)


def test_decode_log_likelihood_nonpositive():
    p = tiny_params(10)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = list(rng.integers(4, 6, size=rng.integers(1, 6)))
        z = Tensor(rng.standard_normal((2, 1)))
        ll, _ = decode(z, x, None, p)
        assert ll.item() <= 0.0


def test_decode_twin_masks_deterministic_but_distinct():
    p = tiny_params(11)
    rng = np.random.default_rng(4)
    z = Tensor(rng.standard_normal((2, 1)))
    x = [4, 5, 4, 5]
    d = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    ll1, H1 = decode(z, x, d, p)
    ll2, H2 = decode(z, x, d, p)
    assert ll1.item() == ll2.item()
    assert np.array_equal(H1, H2)
    _, H_comp = decode(z, x, 1.0 - d, p)
    assert not np.allclose(H1, H_comp)


def test_decode_greedy_end_maximizer_gives_empty():
    p = tiny_params(12)
    p["dec.out_w"].data[...] = 0.0
    p["dec.out_b"].data[...] = 0.0
    p["dec.out_b"].data[END, 0] = 10.0
    assert decode_greedy(np.zeros(2), 20, p) == []


def test_decode_greedy_deterministic():
    p = tiny_params(13)
    z = np.random.default_rng(5).standard_normal(2)
    assert decode_greedy(z, 10, p) == decode_greedy(z, 10, p)


def test_decode_greedy_matches_stepwise_oracle():
    # hand-rolled gate equations with argmax feedback, independent of the stacked cell
    p = tiny_params(24, vocab_size=9)
    rng = np.random.default_rng(8)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def d(name):
        return p[f"dec.{name}"].data

    for _ in range(4):
        z = rng.standard_normal((2, 1))
        h = d("h0_w") @ z + d("h0_b")
        c = d("c0_w") @ z + d("c0_b")
        token, expected = 2, []  # start sentinel
        for _ in range(12):
            xh = np.vstack([d("embed")[:, [token]], z, h])
            i, f, o = (sig(gate_pre(p, "dec", k, xh)) for k in range(3))
            g = np.tanh(gate_pre(p, "dec", 3, xh))
            c = f * c + i * g
            h = o * np.tanh(c)
            token = int(np.argmax(d("out_w") @ h + d("out_b")))
            if token == END:
                break
            expected.append(token)
        assert decode_greedy(z[:, 0], 12, p) == expected
        assert decode_greedy(Tensor(z), 12, p) == expected


def test_full_pipeline_gradient_check():
    # encoder -> reparameterize -> decoder, frozen noise, tol 1e-4
    p = tiny_params(14)
    eps = np.random.default_rng(6).standard_normal(2)
    x = [4, 5, 4]

    def f():
        post = encode(x, p)
        ll, _ = decode(reparameterize(post, eps), x, None, p)
        return ad.scale(ad.reduce_mean(ll), -1.0)

    report = grad_check(f, dict(p.named_parameters()), tol=1e-4)
    assert report.passed, str(report)


def test_init_stacks_the_four_gate_draws():
    # each LSTM weight is one draw over (4d, n): the same values, in the same generator
    # order, as four (d, n) per-gate draws stacked as rows [i; f; o; g]
    V, E, H, Z = 9, 3, 5, 2
    p = VaeParams.init(V, E, H, Z, np.random.default_rng(31))
    ref = np.random.default_rng(31)
    heads = {"enc": ("mu_w", "logvar_w"), "dec": ("h0_w", "c0_w", "out_w")}
    for name, n_in in (("enc", E), ("dec", E + Z)):
        assert np.array_equal(p[f"{name}.embed"].data, ref.uniform(-0.1, 0.1, (E, V)))
        bound = 1.0 / np.sqrt(H)
        gates = [ref.uniform(-bound, bound, (H, n_in + H)) for _ in range(4)]
        assert np.array_equal(p[f"{name}.lstm.w"].data, np.vstack(gates))
        bias = np.zeros((4 * H, 1))
        bias[H: 2 * H] = 1.0  # the forget gate's rows
        assert np.array_equal(p[f"{name}.lstm.b"].data, bias)
        for head in heads[name]:
            w = p[f"{name}.{head}"].data
            assert np.array_equal(w, ref.uniform(-1.0 / np.sqrt(w.shape[1]),
                                                 1.0 / np.sqrt(w.shape[1]), w.shape))
    assert [n for n, _ in p.named_parameters()] == [
        "enc.embed", "enc.lstm.w", "enc.lstm.b", "enc.mu_w", "enc.mu_b", "enc.logvar_w",
        "enc.logvar_b", "dec.embed", "dec.lstm.w", "dec.lstm.b", "dec.h0_w", "dec.h0_b",
        "dec.c0_w", "dec.c0_b", "dec.out_w", "dec.out_b"]


def test_encoder_decoder_parameter_partition():
    p = tiny_params(15)
    enc = {name for name, _ in side(p, "enc.")}
    dec = {name for name, _ in side(p, "dec.")}
    assert (len(enc), len(dec)) == (7, 9)
    assert {name for name, _ in p.named_parameters()} == enc | dec
    enc_ids = {id(t) for _, t in side(p, "enc.")}
    dec_ids = {id(t) for _, t in side(p, "dec.")}
    assert not enc_ids & dec_ids


def test_checkpoint_roundtrip(tmp_path):
    p = tiny_params(16)
    vocab = Vocabulary(["aa", "bb"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, vocab, config={"note": "roundtrip"})
    loaded, vocab2, cfg = load_checkpoint(path)
    assert vocab2.hash == vocab.hash
    assert cfg["note"] == "roundtrip"
    for (n1, t1), (n2, t2) in zip(p.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


def test_checkpoint_bytes_deterministic(tmp_path):
    p = tiny_params(17)
    vocab = Vocabulary(["aa", "bb"])
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, p, vocab)
    save_checkpoint(p2, p, vocab)
    assert p1.read_bytes() == p2.read_bytes()


def _corrupted_forms(raw: bytes) -> dict:
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, off)
    header = json.loads(raw[off + 8: off + 8 + hlen])
    body = raw[off + 8 + hlen:]

    def with_header(blob: bytes) -> bytes:
        return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + body

    def with_fields(**fields) -> bytes:
        return with_header(json.dumps(dict(header, **fields)).encode())

    def per_gate(spec):
        if ".lstm." not in spec["name"]:
            return [spec]
        return [{"name": f"{spec['name']}_{g}", "shape": [hidden, spec["shape"][1]]}
                for g in "ifoc"]

    no_dim = dict(header, config={k: v for k, v in header["config"].items() if k != "latent_dim"})
    hidden = header["config"]["hidden_dim"]
    return {
        "truncated tensor": raw[:-8],
        "truncated length prefix": raw[:12],
        "truncated header": raw[:40],
        "header not json": with_header(b"{not json"),
        "header not an object": with_header(b"[1, 2]"),
        "missing header key": with_header(json.dumps(
            {k: v for k, v in header.items() if k != "vocab_hash"}).encode()),
        "missing config key": with_header(json.dumps(no_dim).encode()),
        "vocab not a list": with_fields(vocab=5),
        "non-string token": with_fields(vocab=header["vocab"][:-1] + [7]),
        "negative dim": with_fields(config=dict(header["config"], hidden_dim=-hidden)),
        "string dim": with_fields(config=dict(header["config"], hidden_dim=str(hidden))),
        # same shape, so only the name list shows that logvar_b would keep its init values
        "tensor listed twice": with_fields(tensors=[
            dict(spec, name="enc.mu_b") if spec["name"] == "enc.logvar_b" else spec
            for spec in header["tensors"]]),
        # the same bytes, named as four (d, n) gate blocks per LSTM tensor
        "per-gate lstm layout": with_fields(
            tensors=[s for spec in header["tensors"] for s in per_gate(spec)]),
    }


def test_checkpoint_rejects_corruption(tmp_path):
    p = tiny_params(18)
    vocab = Vocabulary(["aa", "bb"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, vocab)
    for form, raw in _corrupted_forms(path.read_bytes()).items():
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(DataError):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad)]) == EXIT_CODES["data"], form


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(path, tiny_params(24, vocab_size=5, embed_dim=1, hidden_dim=1, latent_dim=1),
                    Vocabulary(["aa"]))
    return path, path.read_bytes()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(cut=st.integers(0, 10**6), flip=st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                                                     st.integers(1, 255))))
def test_checkpoint_fuzz_loads_or_raises_data_error(tiny_checkpoint, cut, flip):
    # a damaged file (cut short, or one byte XOR-ed) either loads or raises
    # DataError; any other exception would surface as an internal error
    path, raw = tiny_checkpoint
    data = bytearray(raw)
    if flip is None:
        del data[cut % len(raw):]
    else:
        data[flip[0] % len(raw)] ^= flip[1]
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(path)
    except DataError:
        pass


def test_checkpoint_failed_save_keeps_previous(tmp_path):
    p = tiny_params(21)
    vocab = Vocabulary(["aa", "bb"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, vocab)
    before = path.read_bytes()

    class FailingArray:
        shape = (6, 1)

        def astype(self, dtype):
            raise OSError("disk full")

    p["dec.out_b"].data = FailingArray()
    with pytest.raises(OSError):
        save_checkpoint(path, p, vocab)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]


def test_reset_decoder_keeps_encoder_bitwise(tmp_path):
    p = tiny_params(19)
    enc_before = {n: t.data.copy() for n, t in side(p, "enc.")}
    dec_before = {n: t.data.copy() for n, t in side(p, "dec.")}
    p.reset_decoder(np.random.default_rng(99))
    for n, t in side(p, "enc."):
        assert np.array_equal(t.data, enc_before[n]), n
    changed = [n for n, t in side(p, "dec.") if not np.array_equal(t.data, dec_before[n])]
    assert changed  # every weight matrix redrawn; zero-init biases may coincide
    assert any(n.startswith("dec.embed") for n in changed)


def test_reset_decoder_draws_one_full_init():
    # the redraw is a whole fresh init's dec.* entries: the generator advances
    # by exactly one init, which seeded runs depend on
    p = tiny_params(22)
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    p.reset_decoder(rng)
    fresh = VaeParams.init(6, 4, 4, 2, ref_rng)
    assert [n for n, _ in p.named_parameters()] == [n for n, _ in fresh.named_parameters()]
    for n, t in side(fresh, "dec."):
        assert np.array_equal(p[n].data, t.data), n
    assert rng.random() == ref_rng.random()


PROPERTY_PARAMS = tiny_params(23, vocab_size=7, embed_dim=3, hidden_dim=3, latent_dim=2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sents=st.lists(st.lists(st.integers(4, 6), min_size=1, max_size=12), min_size=1, max_size=5),
       masked=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_batch_padding_invariance(sents, masked, seed):
    # each sentence scores the same inside any padded batch as on its own
    p = PROPERTY_PARAMS
    rng = np.random.default_rng(seed)
    batch = make_batch(sents)
    B, L = batch.ids.shape
    z = rng.standard_normal((2, B))
    mask = (rng.random((B, L + 1)) < 0.6).astype(np.float64) if masked else None
    post = encode_batch(batch.ids, batch.lengths, p)
    ll, H, _ = decode_batch(Tensor(z), batch.ids, batch.lengths, p, mask=mask)
    for j, sent in enumerate(sents):
        one = make_batch([sent])
        single = encode_batch(one.ids, one.lengths, p)
        assert np.max(np.abs(post.mu.data[:, [j]] - single.mu.data)) <= 1e-12
        assert np.max(np.abs(post.logvar.data[:, [j]] - single.logvar.data)) <= 1e-12
        own_mask = None if mask is None else mask[j: j + 1, : len(sent) + 1]
        ll_one, H_one, _ = decode_batch(Tensor(z[:, [j]]), one.ids, one.lengths, p, mask=own_mask)
        assert abs(ll.data[0, j] - ll_one.item()) <= 1e-12
        for t in range(len(sent) + 1):  # H is position-major: column t*B + j
            assert np.max(np.abs(H.data[:, t * B + j] - H_one.data[:, t])) <= 1e-12
