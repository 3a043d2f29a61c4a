"""The benchmark's layer tracer still sees every layer of train() and evaluate().

``perfbench/tracing.py`` wraps functions under the names their callers look
them up by.  A refactor that moves a call out from under a patched name
would silently zero that layer's per-layer metrics; this test fails instead.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import textvae.metrics
import textvae.model
import textvae.objectives
import textvae.training
from textvae.corpus import SyntheticSpec, generate_synthetic
from textvae.metrics import EvalConfig, evaluate
from textvae.training import TrainConfig, train

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_records_every_target_and_one_step_per_batch():
    spec = SyntheticSpec(n_templates=2, words_per_slot=5, length_range=(4, 6),
                         n_train=40, n_dev=8, n_test=6, seed=4)
    split, vocab = generate_synthetic(spec)
    cfg = TrainConfig(latent_dim=4, embed_dim=8, hidden_dim=16, batch_size=16, epochs=2,
                      warmup_steps=10, alpha=0.5, keep_prob=0.7, seed=0)
    with tracing.Tracer() as tr:
        with tr.span("train") as train_span:
            result = train(split, cfg, len(vocab))
        with tr.span("evaluate") as eval_span:
            evaluate(split.test, result.params, EvalConfig(n_samples=2, mi_samples=2, max_gen_len=6),
                     np.random.default_rng(0))

    tree = tracing.SpanTree(tr.spans)
    roots = {"train": tree.index(train_span), "evaluate": tree.index(eval_span)}
    callers = {textvae.training: ["train"], textvae.objectives: ["train"],
               textvae.model: ["train", "evaluate"], textvae.metrics: ["evaluate"]}
    for module, attr, name in tracing.FUNCTION_TARGETS:
        for root in callers[module]:
            assert name in tree.below(roots[root]), f"{module.__name__}.{attr} not traced in {root}"

    steps, epochs = tracing.train_units(tree, roots["train"])
    assert len(epochs) == cfg.epochs
    assert len(steps) == cfg.epochs * math.ceil(len(split.train) / cfg.batch_size)
    # alpha > 0 enters every layer of the step, so no per-layer metric may read 0
    for record in steps + epochs:
        assert all(v > 0 for v in record.values()), record
