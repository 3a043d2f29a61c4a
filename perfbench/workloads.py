"""The textvae benchmark workloads: set-up, closed-loop measurement, checks.

Every workload draws its sentences from the default synthetic grammar
(4 templates, 5 words per slot, vocabulary 204) and runs default dims,
batch 16 and keep_prob 0.7.  NOTES.md gives the reason for each workload
and which end-to-end metric each layer metric should move.

Each workload has a main phase, the loop it exists to measure, and a side
phase that supplies the remaining end-to-end metrics:

- train-plain / train-fraternal: rounds of one train() call (main) and one
  evaluate() of the first call's model on a few test sentences (side).
- eval-report: a short train() inside set-up (side), whose parameters the
  main phase, repeated evaluate() calls, then reads.

Repeated calls are identical, so every repeat is a determinism check, and
throughput is a median over many epochs or calls.  Every call's seconds are
scaled to reference machine speed by the SpeedProbe timed around it (see
reference.py); the raw figures go into the run's statistics.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from textvae.corpus import CorpusSplit, SyntheticSpec, generate_synthetic
from textvae.errors import TextVaeError
from textvae.metrics import EvalConfig, evaluate
from textvae.training import TrainConfig, train

import tracing
from reference import SpeedProbe

WORKLOADS = ("train-plain", "train-fraternal", "eval-report")


@dataclass(frozen=True)
class Sizes:
    n_train: int       # sentences per training epoch
    n_dev: int         # dev split for the per-epoch ELBO
    n_eval: int        # sentences per evaluate() call
    epochs: int
    lr: float
    setups: int        # set-ups per run; setup_s is their median


# eval-report trains its model in set-up with a larger step size, so that
# greedy decoding stops at END after a few epochs the way it does for a
# trained model (a barely trained one emits END at once).
FULL = {
    "train-plain": Sizes(n_train=128, n_dev=32, n_eval=16, epochs=4, lr=1e-3, setups=5),
    "train-fraternal": Sizes(n_train=128, n_dev=32, n_eval=16, epochs=4, lr=1e-3, setups=5),
    "eval-report": Sizes(n_train=256, n_dev=32, n_eval=64, epochs=5, lr=1e-2, setups=6),
}
TINY = {name: replace(s, n_train=32, n_dev=16, n_eval=4, epochs=3, lr=1e-2, setups=2)
        for name, s in FULL.items()}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import textvae.training, textvae.metrics; print(time.perf_counter() - t)")


@dataclass
class Ledger:
    """Operations attempted and failed: training steps, eval sentences, checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, n: int, ok: bool, what: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, bool(ok), what)


@dataclass
class Setup:
    split: CorpusSplit
    vocab_size: int
    train_cfg: TrainConfig
    trained: dict | None       # eval-report: the set-up train() summary
    params: object | None      # eval-report: parameters the evaluations read
    seconds: float


def draw_corpus(seed: int, sizes: Sizes) -> tuple[CorpusSplit, int]:
    """A seeded draw of train/dev/eval sentences from the default grammar.

    The grammar itself is fixed (SyntheticSpec's own seed) so every seed
    sees the same vocabulary and template lengths; the workload seed picks
    which sentences land in each split.
    """
    pool, vocab = generate_synthetic(SyntheticSpec())
    sents = pool.train + pool.dev + pool.test
    order = np.random.default_rng([seed, 0]).permutation(len(sents))
    pick = [sents[i] for i in order[: sizes.n_train + sizes.n_dev + sizes.n_eval]]
    split = CorpusSplit(train=pick[: sizes.n_train],
                        dev=pick[sizes.n_train: sizes.n_train + sizes.n_dev],
                        test=pick[sizes.n_train + sizes.n_dev:],
                        source=f"perfbench draw of {pool.source}, seed={seed}")
    return split.validate(len(vocab)), len(vocab)


def import_seconds(root, env) -> float:
    """Import time of textvae (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def summarize_train(result, factor: float = 1.0) -> dict:
    """Raw epoch seconds (wall_time deltas), losses, and the call's speed factor."""
    walls = [rec["wall_time"] for rec in result.log]
    return {
        "epoch_s": [b - a for a, b in zip([0.0] + walls[:-1], walls)],
        "totals": [rec["total"] for rec in result.log],
        "val_elbo": [rec["val_elbo"] for rec in result.log],
        "factor": factor,
    }


def setup(workload: str, seed: int, sizes: Sizes) -> Setup:
    t0 = time.perf_counter()
    split, vocab_size = draw_corpus(seed, sizes)
    alpha = 1.0 if workload == "train-fraternal" else 0.0
    cfg = TrainConfig(alpha=alpha, epochs=sizes.epochs, lr=sizes.lr, seed=seed)
    trained = params = None
    if workload == "eval-report":
        result = train(split, cfg, vocab_size)
        trained, params = summarize_train(result), result.final_params
    return Setup(split, vocab_size, cfg, trained, params, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# checks


def _bits(values) -> tuple:
    return tuple(float(v).hex() for v in values)


def check_train(run: dict, ref: dict, ledger: Ledger, label: str) -> None:
    finite = all(math.isfinite(v) for v in run["totals"] + run["val_elbo"])
    ledger.check(finite, f"{label}: non-finite loss")
    ledger.check(run["totals"][-1] < run["totals"][0], f"{label}: loss did not drop")
    ledger.check(_bits(run["totals"] + run["val_elbo"]) == _bits(ref["totals"] + ref["val_elbo"]),
                 f"{label}: losses differ from the first identical run")


def final_bits(run: dict) -> tuple:
    """final_loss and dev_elbo of a training call, bit for bit."""
    return _bits(run["totals"][-1:] + run["val_elbo"][-1:])


def report_bits(report) -> tuple:
    return _bits((report.nll, report.ppl, report.au, report.mi, report.mi_raw, report.bleu,
                  report.n_sentences))


def check_report(report, ref, n_sentences: int, latent_dim: int, ledger: Ledger,
                 label: str) -> None:
    ledger.check(0 <= report.au <= latent_dim, f"{label}: au {report.au} out of range")
    ledger.check(0.0 <= report.bleu <= 1.0, f"{label}: bleu {report.bleu} out of range")
    ledger.check(report.ppl >= 1.0, f"{label}: ppl {report.ppl} below 1")
    ledger.check(report.n_sentences == n_sentences,
                 f"{label}: n_sentences {report.n_sentences} != {n_sentences}")
    ledger.check(report_bits(report) == report_bits(ref),
                 f"{label}: report differs from the first identical run")


# ---------------------------------------------------------------------------
# closed loops: one call at a time, the next when the previous returns


def train_once(st: Setup, ledger: Ledger, probe: SpeedProbe, runs: list[dict], span=None):
    """One train() call, summarized into ``runs``; returns its final parameters."""
    steps = st.train_cfg.epochs * -(-len(st.split.train) // st.train_cfg.batch_size)
    try:
        with span("training.train") if span else nullcontext() as root:
            result = train(st.split, st.train_cfg, st.vocab_size)
    except TextVaeError as exc:
        probe.factor()
        ledger.ops(steps, False, f"train(): {exc}")
        return None
    run = summarize_train(result, probe.factor())
    run["root"] = root
    ledger.ops(steps, True, "")
    runs.append(run)
    check_train(run, runs[0], ledger, f"train call {len(runs)}")
    return result.final_params


def eval_once(sents, params, seed: int, ledger: Ledger, probe: SpeedProbe, calls: list[dict],
              span=None) -> None:
    """One evaluate() call with EvalConfig defaults, summarized into ``calls``."""
    rng = np.random.default_rng([seed, 1])
    t0 = time.perf_counter()
    try:
        with span("metrics.evaluate") if span else nullcontext() as root:
            report = evaluate(sents, params, EvalConfig(), rng)
    except TextVaeError as exc:
        probe.factor()
        ledger.ops(len(sents), False, f"evaluate(): {exc}")
        return
    seconds = time.perf_counter() - t0
    calls.append({"seconds": seconds, "factor": probe.factor(), "report": report, "root": root})
    ledger.ops(len(sents), True, "")
    check_report(report, calls[0]["report"], len(sents), params.latent_dim, ledger,
                 f"evaluate call {len(calls)}")


def train_loop(st: Setup, until: float, min_calls: int, ledger: Ledger, probe: SpeedProbe,
               span=None) -> list[dict]:
    runs, attempts = [], 0
    while attempts < min_calls or time.perf_counter() < until:
        attempts += 1
        train_once(st, ledger, probe, runs, span)
    return runs


def eval_loop(st: Setup, seed: int, until: float, min_calls: int, ledger: Ledger,
              probe: SpeedProbe, span=None) -> list[dict]:
    calls, attempts = [], 0
    while attempts < min_calls or time.perf_counter() < until:
        attempts += 1
        eval_once(st.split.test, st.params, seed, ledger, probe, calls, span)
    return calls


def train_rate(runs: list[dict], n_train: int, normalized: bool = True) -> float:
    """Training sentences per second of the median epoch (dev ELBO included)."""
    return n_train / median(s * (r["factor"] if normalized else 1.0)
                            for r in runs for s in r["epoch_s"])


def eval_rate(calls: list[dict], n_sentences: int, normalized: bool = True) -> float:
    return n_sentences / median(c["seconds"] * (c["factor"] if normalized else 1.0)
                                for c in calls)


def spread(samples) -> dict:
    """Sample count, median, quartiles and, from 20 samples on, the highest
    percentile that leaves at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": median(xs),
           "q1": float(np.percentile(xs, 25)), "q3": float(np.percentile(xs, 75))}
    if n >= 20:
        pct = 100.0 * (1.0 - 10.0 / n)
        out[f"p{pct:.0f}"] = float(np.percentile(xs, pct))
    return out


# ---------------------------------------------------------------------------
# runs


def run_untraced(workload: str, seed: int, seconds: float, sizes: Sizes, root, env,
                 ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off.  Returns (metrics, sample statistics)."""
    # The set-ups are spread through the run, each followed by its share of
    # the measured rounds, so that set-up and main-phase figures sample the
    # same stretches of machine speed.  A slot's deadline makes up for the
    # overrun of the slots before it, so the rounds take about --seconds.
    probe = SpeedProbe()
    setup_s, setup_raw_s, trained, calls = [], [], [], []
    st = params = None
    main_s = 0.0
    for slot in range(sizes.setups):
        imp = import_seconds(root, env)
        again = setup(workload, seed, sizes)
        factor = probe.factor()
        setup_raw_s.append(imp + again.seconds)
        setup_s.append(setup_raw_s[-1] * factor)
        st = st or again
        if again.trained:
            again.trained["factor"] = factor
            trained.append(again.trained)
            check_train(again.trained, trained[0], ledger, f"set-up train {len(trained)}")
        slot_start = time.perf_counter()
        until = slot_start + (slot + 1) * seconds / sizes.setups - main_s
        rounds = 0
        while rounds < 1 or time.perf_counter() < until:
            rounds += 1
            if workload == "eval-report":
                eval_once(st.split.test, st.params, seed, ledger, probe, calls)
                continue
            # a training call, then an evaluate() of the first call's model
            final = train_once(st, ledger, probe, trained)
            if params is None:
                params = final
            del final
            if params is not None:
                eval_once(st.split.test, params, seed, ledger, probe, calls)
        main_s += time.perf_counter() - slot_start

    metrics = {"setup_s": median(setup_s),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    stats = {"setup_s": spread(setup_s), "setup_raw_s": spread(setup_raw_s),
             "reference_kernel_s": spread(probe.samples)}
    if trained:
        n_train = len(st.split.train)
        metrics["train_sents_per_s"] = train_rate(trained, n_train)
        metrics["final_loss"] = trained[0]["totals"][-1]
        metrics["dev_elbo"] = trained[0]["val_elbo"][-1]
        stats["epoch_raw_s"] = spread([s for r in trained for s in r["epoch_s"]])
        stats["train_sents_per_s_raw"] = train_rate(trained, n_train, normalized=False)
    if calls:
        n_eval = len(st.split.test)
        metrics["eval_sents_per_s"] = eval_rate(calls, n_eval)
        stats["evaluate_raw_s"] = spread([c["seconds"] for c in calls])
        stats["eval_sents_per_s_raw"] = eval_rate(calls, n_eval, normalized=False)
        stats["report"] = {k: getattr(calls[0]["report"], k) for k in
                           ("nll", "ppl", "au", "mi", "bleu", "n_sentences")}
    metrics["ok_ops_frac"] = 1.0 - ledger.failed / max(ledger.attempted, 1)
    return metrics, stats


def _scale_ms(record: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_ms") else v for k, v in record.items()}


def run_traced(workload: str, seed: int, seconds: float, sizes: Sizes, ledger: Ledger,
               spans_path) -> tuple[dict, dict]:
    """Per-layer metrics: the main phase untraced, then traced, in one process.

    Times are at reference speed, like the end-to-end ones, so the two
    halves compare even when the machine changed speed between them.
    """
    st = setup(workload, seed, sizes)
    if st.trained:
        check_train(st.trained, st.trained, ledger, "set-up train")
    probe = SpeedProbe()
    half = 0.5 * seconds
    tracer = tracing.Tracer()
    if workload == "eval-report":
        plain = eval_loop(st, seed, time.perf_counter() + half, 1, ledger, probe)
        with tracer:
            traced = eval_loop(st, seed, time.perf_counter() + half, 2, ledger, probe,
                               span=tracer.span)
        ref = plain[0]["report"] if plain else None
        for i, call in enumerate(traced):
            ledger.check(ref is not None and report_bits(call["report"]) == report_bits(ref),
                         f"traced evaluate {i}: report differs from the untraced run")
        tree = tracing.SpanTree(tracer.spans)
        n = len(st.split.test)
        per_unit = [_scale_ms(tracing.eval_units(tree, tree.index(c["root"]), n), c["factor"])
                    for c in traced]
        signatures = [tracing.count_signature([u]) for u in per_unit]
        layer = tracing.medians(per_unit)
        epochs = []
        rates = [eval_rate(calls, n) for calls in (plain, traced) if calls]
        results = [report_bits(c["report"]) for c in traced]
    else:
        plain = train_loop(st, time.perf_counter() + half, 1, ledger, probe)
        with tracer:
            traced = train_loop(st, time.perf_counter() + half, 2, ledger, probe,
                                span=tracer.span)
        for i, run in enumerate(traced):
            ledger.check(plain and final_bits(run) == final_bits(plain[0]),
                         f"traced train {i}: final_loss/dev_elbo differ from the untraced run")
        tree = tracing.SpanTree(tracer.spans)
        per_unit, epochs, signatures = [], [], []
        for run in traced:
            steps, run_epochs = tracing.train_units(tree, tree.index(run["root"]))
            signatures.append(tracing.count_signature(steps))
            per_unit += [_scale_ms(u, run["factor"]) for u in steps]
            epochs += [_scale_ms(e, run["factor"]) for e in run_epochs]
        layer = {**tracing.medians(per_unit), **tracing.medians(epochs)}
        rates = [train_rate(runs, len(st.split.train)) for runs in (plain, traced) if runs]
        results = [final_bits(run) for run in traced]
    tracer.dump(spans_path)

    ledger.check(len(signatures) >= 2 and all(s == signatures[0] for s in signatures),
                 "counts differ between identical traced calls")
    for name in tracing.LAYER_METRICS:
        layer.setdefault(name, 0.0)
    if len(rates) == 2:
        layer["trace.overhead_frac"] = 1.0 - rates[1] / rates[0]
    stats = {"units": len(per_unit), "epochs": len(epochs), "calls": len(traced),
             "untraced_and_traced_rates": rates, "traced_results_hex": results[:1],
             "reference_kernel_s": spread(probe.samples)}
    return layer, stats
