"""Span tracing of textvae's layers from outside the program.

The modules import functions by name (``from .model import decode_batch``),
so a layer is wrapped under the name its *caller* looks it up by: patching
``textvae.model.decode_batch`` would miss every call made through
``textvae.objectives.decode_batch``.  Spans are (name, start, end, parent)
plus two counters: Tensor constructions seen at the span's start and end,
and a per-span count (tape entries for the backward walk).  They stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from statistics import median

import textvae.autodiff
import textvae.metrics
import textvae.model
import textvae.objectives
import textvae.training

# (module, attribute looked up by the caller, span name)
FUNCTION_TARGETS = (
    (textvae.training, "batches", "corpus.batches"),
    (textvae.training, "elbo_step", "objectives.elbo_step"),
    (textvae.training, "adam_step", "training.adam_step"),
    (textvae.objectives, "encode_batch", "model.encode_batch"),
    (textvae.objectives, "decode_batch", "model.decode_batch"),
    (textvae.objectives, "fraternal_batch", "objectives.fraternal_batch"),
    (textvae.model, "lstm_step", "model.lstm_step"),
    (textvae.metrics, "encode_batch", "model.encode_batch"),
    (textvae.metrics, "decode_batch", "model.decode_batch"),
    (textvae.metrics, "decode_greedy", "model.decode_greedy"),
    (textvae.metrics, "reconstruction_nll", "metrics.reconstruction_nll"),
    (textvae.metrics, "collect_posteriors", "metrics.collect_posteriors"),
    (textvae.metrics, "mutual_information_from_posteriors", "metrics.mutual_information"),
    (textvae.metrics, "corpus_bleu", "metrics.corpus_bleu"),
)

NAME, START, END, PARENT, TENSORS0, TENSORS1, COUNT = range(7)

# Every per-layer metric but trace.overhead_frac.  A layer that a workload's
# main phase never enters reads 0.
LAYER_METRICS = (
    "corpus.batches_ms", "model.encode_batch_ms", "model.lstm_step_calls",
    "model.decode_batch_ms", "model.decode_batch_calls", "objectives.fraternal_batch_self_ms",
    "objectives.elbo_step_self_ms", "autodiff.backward_ms", "autodiff.tape_entries",
    "autodiff.tensors_per_step", "training.adam_step_ms", "training.dev_elbo_ms",
    "training.step_wall_ms", "training.step_other_ms", "metrics.reconstruction_nll_ms",
    "model.decode_greedy_ms", "model.greedy_tokens", "metrics.collect_posteriors_ms",
    "metrics.mutual_information_ms", "metrics.corpus_bleu_ms",
)
# counts that must repeat exactly between identical calls
COUNTS = ("autodiff.tape_entries", "autodiff.tensors_per_step", "model.lstm_step_calls",
          "model.decode_batch_calls", "model.greedy_tokens")


class Tracer:
    """Install with ``with Tracer() as tr:``; every patch is undone on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.tensors, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[TENSORS1] = self.tensors
        span[END] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module, attr, name in FUNCTION_TARGETS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))

        tape_fn = textvae.training.tape

        @contextmanager
        def traced_tape():
            with self.span("autodiff.tape"), tape_fn() as t:
                yield t
        self._patch(textvae.training, "tape", traced_tape)

        backward = textvae.autodiff.Tape.backward

        def traced_backward(tape_self, loss):
            with self.span("autodiff.backward") as span:
                span[COUNT] = len(tape_self)
                return backward(tape_self, loss)
        self._patch(textvae.autodiff.Tape, "backward", traced_backward)

        init = textvae.autodiff.Tensor.__init__

        def counting_init(tensor_self, *args, **kwargs):
            self.tensors += 1
            init(tensor_self, *args, **kwargs)
        self._patch(textvae.autodiff.Tensor, "__init__", counting_init)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "tensors": s[TENSORS1] - s[TENSORS0],
                                     "count": s[COUNT]}) + "\n")


# ---------------------------------------------------------------------------
# analysis


def _dur(span) -> float:
    return span[END] - span[START]


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.kids: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.kids[s[PARENT]].append(i)

    def index(self, span) -> int:
        """Position of a span record handed out by Tracer.span."""
        return next(i for i, s in enumerate(self.spans) if s is span)

    def self_ms(self, i: int) -> float:
        return 1e3 * (_dur(self.spans[i]) - sum(_dur(self.spans[k]) for k in self.kids[i]))

    def below(self, i: int) -> dict:
        """name -> [calls, inclusive ms, self ms, count] over every descendant of span i.

        Index the lists with CALLS, MS, SELF_MS and COUNTED.
        """
        acc: dict[str, list] = {}
        todo = list(self.kids[i])
        while todo:
            k = todo.pop()
            s = self.spans[k]
            slot = acc.setdefault(s[NAME], [0, 0.0, 0.0, 0])
            slot[0] += 1
            slot[1] += 1e3 * _dur(s)
            slot[2] += self.self_ms(k)
            slot[3] += s[COUNT]
            todo.extend(self.kids[k])
        return acc


CALLS, MS, SELF_MS, COUNTED = range(4)


def _get(acc: dict, name: str, field: int):
    return acc[name][field] if name in acc else 0


def train_units(tree: SpanTree, root: int):
    """Per-step and per-epoch records of one traced train() call.

    A step runs from the end of the previous step's adam_step (or of the
    epoch's training-batches span) to the end of its own adam_step, so
    gradient zeroing and loss bookkeeping land in it.  The dev ELBO is every
    elbo_step that runs outside a tape.
    """
    spans = tree.spans
    kids = tree.kids[root]
    steps, epochs = [], []
    prev_end = prev_tensors = tape_idx = None
    for pos, k in enumerate(kids):
        name = spans[k][NAME]
        if name == "corpus.batches":
            nxt = spans[kids[pos + 1]][NAME] if pos + 1 < len(kids) else None
            if nxt == "autodiff.tape":  # the training split, not the dev split
                epochs.append({"corpus.batches_ms": 0.0, "training.dev_elbo_ms": 0.0})
                prev_end, prev_tensors = spans[k][END], spans[k][TENSORS1]
            epochs[-1]["corpus.batches_ms"] += 1e3 * _dur(spans[k])
        elif name == "autodiff.tape":
            tape_idx = k
        elif name == "training.adam_step":
            acc = tree.below(tape_idx)
            elbo_ms = _get(acc, "objectives.elbo_step", MS)
            backward_ms = _get(acc, "autodiff.backward", MS)
            adam_ms = 1e3 * _dur(spans[k])
            wall_ms = 1e3 * (spans[k][END] - prev_end)
            steps.append({
                "model.encode_batch_ms": _get(acc, "model.encode_batch", MS),
                "model.lstm_step_calls": _get(acc, "model.lstm_step", CALLS),
                "model.decode_batch_ms": _get(acc, "model.decode_batch", MS),
                "model.decode_batch_calls": _get(acc, "model.decode_batch", CALLS),
                "objectives.fraternal_batch_self_ms":
                    _get(acc, "objectives.fraternal_batch", SELF_MS),
                "objectives.elbo_step_self_ms": _get(acc, "objectives.elbo_step", SELF_MS),
                "autodiff.backward_ms": backward_ms,
                "autodiff.tape_entries": _get(acc, "autodiff.backward", COUNTED),
                "autodiff.tensors_per_step": spans[k][TENSORS1] - prev_tensors,
                "training.adam_step_ms": adam_ms,
                "training.step_wall_ms": wall_ms,
                "training.step_other_ms": wall_ms - elbo_ms - backward_ms - adam_ms,
            })
            prev_end, prev_tensors = spans[k][END], spans[k][TENSORS1]
        elif name == "objectives.elbo_step":
            epochs[-1]["training.dev_elbo_ms"] += 1e3 * _dur(spans[k])
    return steps, epochs


def eval_units(tree: SpanTree, root: int, n_sentences: int) -> dict:
    """Per-sentence (and per-call, for the corpus-level metrics) record of one evaluate()."""
    acc = tree.below(root)
    span = tree.spans[root]
    # decoder positions run by greedy decoding, the END step included
    greedy_tokens = sum(1 for k in tree.kids[root] if tree.spans[k][NAME] == "model.decode_greedy"
                        for c in tree.kids[k] if tree.spans[c][NAME] == "model.lstm_step")
    per = 1.0 / n_sentences
    return {
        "model.encode_batch_ms": per * _get(acc, "model.encode_batch", MS),
        "model.lstm_step_calls": per * _get(acc, "model.lstm_step", CALLS),
        "model.decode_batch_ms": per * _get(acc, "model.decode_batch", MS),
        "model.decode_batch_calls": per * _get(acc, "model.decode_batch", CALLS),
        "autodiff.tape_entries": per * _get(acc, "autodiff.backward", COUNTED),
        "autodiff.tensors_per_step": per * (span[TENSORS1] - span[TENSORS0]),
        "metrics.reconstruction_nll_ms": per * _get(acc, "metrics.reconstruction_nll", MS),
        "model.decode_greedy_ms": per * _get(acc, "model.decode_greedy", MS),
        "model.greedy_tokens": per * greedy_tokens,
        "metrics.collect_posteriors_ms": _get(acc, "metrics.collect_posteriors", MS),
        "metrics.mutual_information_ms": _get(acc, "metrics.mutual_information", MS),
        "metrics.corpus_bleu_ms": _get(acc, "metrics.corpus_bleu", MS),
    }


def medians(records: list[dict]) -> dict:
    return {k: median(r[k] for r in records) for k in records[0]} if records else {}


def count_signature(records: list[dict]) -> tuple:
    """The exact counters of a call, in order: equal calls must give equal tuples."""
    return tuple(tuple(r[k] for k in COUNTS if k in r) for r in records)
