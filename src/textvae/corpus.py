"""Vocabulary construction, text ingestion, batching, synthetic corpus generation.

Sentences are tuples of token ids.  Ids 0..3 are reserved for the pad,
unknown, start and end sentinels; content tokens start at 4.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import Config, ConfigError, DataError

PAD, UNK, START, END = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")
SENTINEL_IDS = frozenset((PAD, START, END))  # reserved ids that no sentence holds


def _hash_tokens(tokens) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


class Vocabulary:
    """Bijective token<->id map with fixed reserved ids."""

    def __init__(self, content_tokens):
        self.id_to_token = list(RESERVED_TOKENS) + list(content_tokens)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise DataError("vocabulary tokens must be unique")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        self.hash = _hash_tokens(self.id_to_token)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens) -> tuple[int, ...]:
        return tuple(self.token_to_id.get(t, UNK) for t in tokens)

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(sentences, max_size: int) -> Vocabulary:
    """Keep the most frequent tokens, ties broken lexicographically.  A reserved
    token in the text is not counted: it keeps its reserved id."""
    if max_size <= len(RESERVED_TOKENS):
        raise ConfigError(f"max_size must exceed {len(RESERVED_TOKENS)}, got {max_size}")
    counts = Counter()
    for sent in sentences:
        counts.update(sent)
    for tok in RESERVED_TOKENS:
        del counts[tok]
    if not counts:
        raise DataError("cannot build a vocabulary from a corpus without a content token")
    budget = max_size - len(RESERVED_TOKENS)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([tok for tok, _ in ranked[:budget]])


def load_text(path) -> list[list[str]]:
    """One whitespace-pretokenized sentence per line; blank lines skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    return [line.split() for line in lines if line.strip()]


@dataclass
class CorpusSplit:
    """Train/dev/test id-sequence lists over one vocabulary."""

    train: list[tuple[int, ...]]
    dev: list[tuple[int, ...]]
    test: list[tuple[int, ...]]
    source: str = ""

    def validate(self, vocab_size: int) -> "CorpusSplit":
        seen: dict[tuple[int, ...], str] = {}
        for name in ("train", "dev", "test"):
            for sent in getattr(self, name):
                if len(sent) == 0:
                    raise DataError(f"{name} split contains an empty sentence")
                for i in sent:
                    if i < 0 or i >= vocab_size:
                        raise DataError(f"{name} split contains an out-of-vocabulary id")
                    if i in SENTINEL_IDS:
                        raise DataError(f"{name} split contains the reserved token "
                                        f"{RESERVED_TOKENS[i]!r}")
                prev = seen.get(sent)
                if prev is not None and prev != name:
                    raise DataError(f"splits are not disjoint: a sentence appears in {prev} and {name}")
                seen[sent] = name
        return self


def split_hashes(split: CorpusSplit) -> dict[str, str]:
    out = {}
    for name in ("train", "dev", "test"):
        blob = ";".join(",".join(map(str, s)) for s in getattr(split, name))
        out[name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return out


@dataclass
class SyntheticSpec(Config):
    """Template grammar: per-template slot pools with disjoint word sets.

    Every word names its (template, slot) cell, so sentence identity carries
    recoverable latent structure; a collapsed posterior is then visible as
    MI near zero despite the recoverable template class.
    """

    n_templates: int = 4
    words_per_slot: int = 5
    length_range: tuple[int, int] = (8, 12)
    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200
    seed: int = 12345

    LOWER = {"n_templates": 2, "words_per_slot": 1, "n_train": 1, "n_dev": 0, "n_test": 0,
             "seed": 0}

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.length_range[0] <= self.length_range[1]:
            raise ConfigError(f"length_range must satisfy 1 <= lo <= hi, got {self.length_range!r}")


def generate_synthetic(spec: SyntheticSpec) -> tuple[CorpusSplit, Vocabulary]:
    """Deterministic template-grammar corpus with globally deduplicated sentences."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.length_range
    lengths = rng.integers(lo, hi + 1, size=spec.n_templates)
    pools = [
        [[f"t{t}s{s}w{k}" for k in range(spec.words_per_slot)] for s in range(int(lengths[t]))]
        for t in range(spec.n_templates)
    ]
    vocab = Vocabulary([w for tpl in pools for slot in tpl for w in slot])

    total = spec.n_train + spec.n_dev + spec.n_test
    sentences: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(sentences) < total:
        attempts += 1
        if attempts > 100 * total:
            raise ConfigError(
                "synthetic spec too small to produce enough distinct sentences; "
                "increase words_per_slot or template count")
        t = int(rng.integers(spec.n_templates))
        words = [slot[int(rng.integers(spec.words_per_slot))] for slot in pools[t]]
        ids = vocab.encode(words)
        if ids in seen:
            continue
        seen.add(ids)
        sentences.append(ids)

    split = CorpusSplit(
        train=sentences[: spec.n_train],
        dev=sentences[spec.n_train: spec.n_train + spec.n_dev],
        test=sentences[spec.n_train + spec.n_dev:],
        source=f"synthetic(templates={spec.n_templates}, words_per_slot={spec.words_per_slot}, "
               f"length_range={tuple(spec.length_range)}, seed={spec.seed})",
    )
    return split.validate(len(vocab)), vocab


@dataclass
class Batch:
    """Padded id matrix (B, L) with per-sentence lengths."""

    ids: np.ndarray
    lengths: np.ndarray

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def make_batch(sentences) -> Batch:
    sents = [tuple(s) for s in sentences]
    if not sents:
        raise DataError("cannot build an empty batch")
    if any(len(s) == 0 for s in sents):
        raise DataError("cannot batch an empty sentence")
    lengths = np.array([len(s) for s in sents], dtype=np.int64)
    ids = np.full((len(sents), int(lengths.max())), PAD, dtype=np.int64)
    for j, s in enumerate(sents):
        ids[j, : len(s)] = s
    return Batch(ids=ids, lengths=lengths)


def batches(split, batch_size: int, seed: int | None, epoch: int = 0) -> list[Batch]:
    """Seeded per-epoch shuffle; seed=None keeps the original order."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    sents = list(split)
    if seed is None:
        order = np.arange(len(sents))
    else:
        order = np.random.default_rng([seed, epoch]).permutation(len(sents))
    out = []
    for start in range(0, len(sents), batch_size):
        chunk = [sents[i] for i in order[start: start + batch_size]]
        out.append(make_batch(chunk))
    return out
