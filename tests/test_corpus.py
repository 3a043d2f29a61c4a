import numpy as np
import pytest

from textvae.corpus import (
    END,
    PAD,
    RESERVED_TOKENS,
    START,
    UNK,
    Batch,
    CorpusSplit,
    SyntheticSpec,
    Vocabulary,
    batches,
    build_vocab,
    generate_synthetic,
    load_text,
    make_batch,
    split_hashes,
)
from textvae.cli import main
from textvae.errors import ConfigError, DataError


def test_reserved_ids():
    v = Vocabulary(["x"])
    assert v.token_to_id["<pad>"] == PAD == 0
    assert v.token_to_id["<unk>"] == UNK == 1
    assert v.token_to_id["<s>"] == START == 2
    assert v.token_to_id["</s>"] == END == 3
    assert v.token_to_id["x"] == 4


def test_build_vocab_frequency_then_lexicographic():
    v = build_vocab([["a", "b"], ["a"]], max_size=6)
    assert v.id_to_token[4] == "a"  # most frequent first
    assert v.id_to_token[5] == "b"
    v2 = build_vocab([["b", "a"]], max_size=6)
    assert v2.id_to_token[4] == "a"  # tie broken lexicographically


def test_build_vocab_caps_size():
    v = build_vocab([["a", "b", "c", "a", "b", "a"]], max_size=6)
    assert len(v) == 6
    assert "c" not in v.token_to_id
    assert v.encode(["c"]) == (UNK,)


def test_build_vocab_errors():
    with pytest.raises(ConfigError):
        build_vocab([["a"]], max_size=4)
    with pytest.raises(DataError):
        build_vocab([], max_size=10)


def test_vocab_deterministic_over_shuffles():
    rng = np.random.default_rng(0)
    sents = [["w%d" % (i % 7)] * (1 + i % 3) for i in range(30)]
    reference = build_vocab(sents, max_size=9).hash
    for _ in range(10):
        shuffled = [sents[i] for i in rng.permutation(len(sents))]
        assert build_vocab(shuffled, max_size=9).hash == reference


def test_vocab_save_load_roundtrip(tmp_path):
    # the vocab.txt a train run writes: one token per line, in id order
    v = build_vocab([["a", "b", "b"]], max_size=8)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "train.txt").write_text("a b b\n", encoding="utf-8")
    (tmp_path / "cfg.json").write_text('{"vocab_size": 8}', encoding="utf-8")
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--corpus",
                 str(tmp_path / "corpus"), "--epochs", "0", "--out-dir", str(tmp_path / "run")]) == 0
    lines = (tmp_path / "run" / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert lines == ["<pad>", "<unk>", "<s>", "</s>", "b", "a"]
    v2 = Vocabulary(lines[len(RESERVED_TOKENS):])
    assert v2.id_to_token == v.id_to_token
    assert v2.hash == v.hash


def test_load_text_basic(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\nd e\n", encoding="utf-8")
    assert load_text(path) == [["a", "b", "c"], ["d", "e"]]


def test_load_text_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\n  \nc\n", encoding="utf-8")
    assert load_text(path) == [["a", "b"], ["c"]]


def test_load_text_missing_file(tmp_path):
    with pytest.raises(DataError) as exc:
        load_text(tmp_path / "nope.txt")
    assert "nope.txt" in str(exc.value)


def test_text_roundtrip(tmp_path):
    sents = [["a", "b"], ["c"], ["d", "e", "f"]]
    path = tmp_path / "out.txt"
    path.write_text("".join(" ".join(s) + "\n" for s in sents), encoding="utf-8")
    assert load_text(path) == sents


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_templates=2, words_per_slot=4, length_range=(3, 5),
                         n_train=50, n_dev=10, n_test=10, seed=7)
    a, va = generate_synthetic(spec)
    b, vb = generate_synthetic(spec)
    assert a.train == b.train and a.dev == b.dev and a.test == b.test
    assert va.hash == vb.hash


def test_default_synthetic_corpus_is_pinned():
    # the corpus the benchmark and the default config train on, token for token
    split, vocab = generate_synthetic(SyntheticSpec())
    assert (len(vocab), len(split.train), len(split.dev), len(split.test)) == (204, 2000, 200, 200)
    assert split_hashes(split) == {
        "train": "61fa25e942dab24ff0485cb9817abad73bfb1cb652afc61057ccb65c8fa3cf82",
        "dev": "3954d4700a479269b1a9e13cf2ef7dea43b44964de75f1d4331a880b6b8d3efa",
        "test": "3e2e71cae57b00a943ee2bf3f631f8e30c68bdbcdc72ea9d929da932c29ec508"}
    assert vocab.hash == "618be1b9ac5a8df2c1fc94163f24924562d585c15bff6deb40dc458f00fd2d39"


def test_synthetic_both_classes_present():
    spec = SyntheticSpec(n_templates=2, words_per_slot=6, length_range=(6, 9),
                         n_train=1000, n_dev=0, n_test=0, seed=3)
    split, vocab = generate_synthetic(spec)
    counts = {0: 0, 1: 0}
    for sent in split.train:
        first = vocab.id_to_token[sent[0]]
        counts[int(first[1])] += 1
    assert counts[0] >= 400 and counts[1] >= 400


def test_synthetic_class_balance_within_ten_percent():
    spec = SyntheticSpec(n_templates=4, words_per_slot=5, length_range=(8, 12),
                         n_train=2000, n_dev=0, n_test=0, seed=11)
    split, vocab = generate_synthetic(spec)
    counts = np.zeros(4)
    for sent in split.train:
        counts[int(vocab.id_to_token[sent[0]][1])] += 1
    assert np.all(np.abs(counts / 2000 - 0.25) <= 0.1 * 0.25 + 0.025)


def test_synthetic_vocab_is_pool_union():
    spec = SyntheticSpec(n_templates=3, words_per_slot=4, length_range=(5, 7),
                         n_train=30, n_dev=5, n_test=5, seed=5)
    split, vocab = generate_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    lengths = rng.integers(5, 8, size=3)
    assert len(vocab) == 4 + 4 * int(lengths.sum())


def test_synthetic_splits_disjoint_and_valid():
    spec = SyntheticSpec(n_templates=2, words_per_slot=5, length_range=(4, 6),
                         n_train=200, n_dev=40, n_test=40, seed=9)
    split, vocab = generate_synthetic(spec)
    train, dev, test = set(split.train), set(split.dev), set(split.test)
    assert not train & dev and not train & test and not dev & test
    split.validate(len(vocab))


def test_synthetic_average_length_near_ten():
    split, _ = generate_synthetic(SyntheticSpec(seed=1))
    mean_len = np.mean([len(s) for s in split.train])
    assert 8.0 <= mean_len <= 12.0


def test_synthetic_too_small_raises():
    spec = SyntheticSpec(n_templates=2, words_per_slot=1, length_range=(3, 3),
                         n_train=50, n_dev=5, n_test=5, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(spec)


def test_corpus_split_rejects_overlap():
    split = CorpusSplit(train=[(4, 5)], dev=[(4, 5)], test=[(5,)])
    with pytest.raises(DataError):
        split.validate(6)


def test_corpus_split_rejects_empty_sentence():
    split = CorpusSplit(train=[()], dev=[], test=[])
    with pytest.raises(DataError):
        split.validate(6)


def test_reserved_tokens_in_text_keep_their_ids():
    # a text <unk> (as the Penn Treebank writes every rare word) is UNK, not a content token
    vocab = build_vocab([["w1", "<unk>", "w2"], ["<unk>", "w1"]], 10)
    assert vocab.id_to_token == list(RESERVED_TOKENS) + ["w1", "w2"]
    assert vocab.encode(["w1", "<unk>", "w2"]) == (4, UNK, 5)


@pytest.mark.parametrize("sentinel", [PAD, START, END])
def test_corpus_split_rejects_a_sentinel_id(sentinel):
    split = CorpusSplit(train=[(4, 5)], dev=[(4, UNK, sentinel, 5)], test=[])
    with pytest.raises(DataError, match=f"dev split contains the reserved token "
                                        f"'{RESERVED_TOKENS[sentinel]}'"):
        split.validate(6)


def test_make_batch_pads_and_masks():
    b = make_batch([(4, 5, 6), (7,)])
    assert b.ids.shape == (2, 3)
    assert np.array_equal(b.lengths, [3, 1])
    assert b.ids[1, 1] == PAD and b.ids[1, 2] == PAD


def test_batches_single_when_large():
    sents = [(4,), (5,), (6,)]
    out = batches(sents, batch_size=10, seed=None)
    assert len(out) == 1
    assert out[0].size == 3


def test_batches_unshuffled_partition():
    sents = [(4, 4), (5,), (6, 6, 6), (7,), (8, 8)]
    out = batches(sents, batch_size=2, seed=None)
    rebuilt = []
    for b in out:
        for j in range(b.size):
            rebuilt.append(tuple(b.ids[j, : b.lengths[j]]))
    assert rebuilt == sents


def test_batches_epoch_seeded_shuffle():
    sents = [(i,) for i in range(4, 40)]
    a0 = [b.ids.tolist() for b in batches(sents, 8, seed=1, epoch=0)]
    a0_again = [b.ids.tolist() for b in batches(sents, 8, seed=1, epoch=0)]
    a1 = [b.ids.tolist() for b in batches(sents, 8, seed=1, epoch=1)]
    assert a0 == a0_again
    assert a0 != a1


def test_batches_bad_batch_size():
    with pytest.raises(ConfigError):
        batches([(4,)], 0, seed=None)
