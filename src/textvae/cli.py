"""Command-line surface: train, eval, sweep, interpolate, sample, selfcheck.

Every run is parameterized by a JSON config file plus flag overrides (flags
win), and every artifact directory receives a manifest tying outputs to the
config echo, corpus hashes, seed and library version.

A config file holds one JSON object with at most four keys: the sections
``train`` (TrainConfig), ``eval`` (EvalConfig) and ``synthetic``
(SyntheticSpec), each an object whose keys are that dataclass's fields, and
``vocab_size``, the vocabulary cap of a --corpus directory.  Only ``train``,
``eval`` and ``sweep`` take --config, and they check every section: an unknown
key, a value of the wrong type or one out of range exits 2, and so does a
``synthetic`` section given with --corpus.  A manifest's ``config`` echoes the
checked file (``train`` with the flags applied and, in a run directory and a
sweep's manifest, ``warmup_steps`` resolved and, for --corpus, ``vocab_size``:
``VOCAB_SIZE`` unless set); for ``train`` and each sweep cell it is a config
file that re-runs the run, and ``eval`` adds ``split``, a sweep ``alphas``.

A run directory is what ``train`` writes into --out-dir, and ``sweep`` into
``alpha_<alpha>/`` for each alpha: ``vocab.txt``, ``checkpoint.bin``,
``train_log.jsonl`` and ``manifest.json``, written once training returns.
A run that diverges or is interrupted writes all four too, from its last good
parameters; the log's last record and a manifest flag say how it ended.  A run
that fails any other way (out of memory, say) leaves its directory empty.  A
sweep cell adds its test-split ``report.txt``; the sweep's --out-dir holds
``sweep_table.txt`` and the sweep's manifest.

Exit codes (``exit_code`` on the classes in ``errors``): 0 ok, 2 config
(also an allocation that a size setting asks for and memory cannot hold),
3 data, 4 numeric (a divergence, a non-finite metric, a shape mismatch),
5 internal, 130 interrupted.  A failed ``selfcheck`` exits 1, and a sweep in
which every alpha failed exits with its last failure's code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import model
from .autodiff import Tensor, grad_check
from .corpus import (RESERVED_TOKENS, CorpusSplit, SyntheticSpec, Vocabulary, build_vocab,
                     generate_synthetic, load_text, make_batch, split_hashes)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    TextVaeError,
    TrainingError,
    TrainingInterrupted,
    read_config,
)
from .metrics import EvalConfig, MetricsReport, corpus_bleu, evaluate
from .model import (GaussianPosterior, VaeParams, decode_greedy, load_checkpoint, save_checkpoint,
                    write_file)
from .objectives import elbo_step, kl_columns
from .training import TrainConfig, TrainResult, train

EXIT_CODES = {
    "ok": 0,
    "config": ConfigError.exit_code,
    "data": DataError.exit_code,
    "numeric": NumericError.exit_code,
    "internal": TextVaeError.exit_code,
    "interrupted": TrainingInterrupted.exit_code,
}

# the TrainConfig fields that train takes as flags (--epochs ... --pretrain-epochs)
TRAIN_FLAGS = ("epochs", "lr", "alpha", "keep_prob", "free_bits", "pretrain_epochs")
# the vocabulary cap of a --corpus directory whose config file sets no vocab_size
VOCAB_SIZE = 10000


def _write_json(path: Path, obj) -> None:
    write_file(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _out_dir(path) -> Path:
    """Create the artifact directory ``path`` and its parents; a path that
    cannot be made a directory is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _read_config(args) -> dict:
    """The --config file (none reads as empty), every section checked: ``train``
    with --seed and the TRAIN_FLAGS given applied (eval's --seed is its own),
    ``eval``, and ``synthetic`` and ``vocab_size`` when the file has them."""
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    known = {"train", "synthetic", "eval", "vocab_size"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}; expected {sorted(known)}")
    flags = () if args.command == "eval" else ("seed",) + TRAIN_FLAGS
    overrides = {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}
    cfg = {"train": read_config(TrainConfig, raw.get("train", {}), "train", **overrides),
           "eval": read_config(EvalConfig, raw.get("eval", {}), "eval")}
    if "synthetic" in raw:
        cfg["synthetic"] = read_config(SyntheticSpec, raw["synthetic"], "synthetic")
    if "vocab_size" in raw:
        cap = raw["vocab_size"]
        if type(cap) is not int or cap <= len(RESERVED_TOKENS):  # bool is an int subclass
            raise ConfigError(f"vocab_size must be an integer >= {len(RESERVED_TOKENS) + 1}, "
                              f"got {cap!r}")
        cfg["vocab_size"] = cap
    return cfg


def _resolve_corpus(cfg: dict, corpus_dir, vocab: Vocabulary | None = None):
    """Returns (split, vocab).  A text directory needs train/dev/test .txt files.

    When ``vocab`` is given (evaluating a checkpoint), the corpus must derive
    the same vocabulary: a text corpus rebuilds it from train.txt, capped at
    the checkpoint's own size, and a synthetic one generates it.
    """
    if corpus_dir is not None:
        if "synthetic" in cfg:
            raise ConfigError("a 'synthetic' config section and --corpus name two corpora")
        root = Path(corpus_dir)
        sents = {}
        for name in ("train", "dev", "test"):
            path = root / f"{name}.txt"
            sents[name] = load_text(path) if path.exists() else []
        if not sents["train"] and vocab is None:
            raise DataError(f"corpus directory {root} has no train.txt with a sentence in it")
        cap = len(vocab) if vocab is not None else cfg.get("vocab_size", VOCAB_SIZE)
        derived = build_vocab(sents["train"], cap) if sents["train"] else vocab
        split = CorpusSplit(
            train=[derived.encode(s) for s in sents["train"]],
            dev=[derived.encode(s) for s in sents["dev"]],
            test=[derived.encode(s) for s in sents["test"]],
            source=str(root),
        ).validate(len(derived))
    else:
        if "vocab_size" in cfg:
            raise ConfigError("config field 'vocab_size' applies only to a --corpus directory; "
                              "a synthetic corpus sets its own vocabulary")
        if "synthetic" not in cfg:
            raise ConfigError("no corpus: pass --corpus DIR or a 'synthetic' config section")
        split, derived = generate_synthetic(cfg["synthetic"])
    if vocab is not None and derived.hash != vocab.hash:
        raise DataError("corpus vocabulary does not match the checkpoint vocabulary "
                        f"({derived.hash[:12]} vs {vocab.hash[:12]})")
    return split, derived


def _resolved(cfg: dict, split: CorpusSplit) -> dict:
    """``cfg`` as a run records it, with the defaults that depend on the corpus filled in."""
    resolved = {**cfg, "train": cfg["train"].resolved(len(split.train))}
    if "synthetic" not in cfg:  # a --corpus directory
        resolved["vocab_size"] = cfg.get("vocab_size", VOCAB_SIZE)
    return resolved


def _eval_seed(args) -> int:
    """--seed for the commands that draw from it (eval, sample, interpolate): 0 when absent."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return 0 if args.seed is None else args.seed


def _manifest(args, config: dict, split, vocab: Vocabulary, seed: int) -> dict:
    hashes = split_hashes(split) if split is not None else {}
    if vocab is not None:
        hashes["vocab"] = vocab.hash
    return {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "config": {key: asdict(v) if is_dataclass(v) else v for key, v in config.items()},
        "corpus_hashes": hashes,
        "seed": seed,
        "version": __version__,
    }


def table_line(label: str, report: MetricsReport | str | None = None) -> str:
    """A line of the metric table of ``eval`` and ``sweep``: the header (no ``report``),
    a FAILED row (a failure's text) or a report's row, BLEU as a percentage."""
    if report is None:
        cells = f"{'NLL':>8} {'PPL':>8} {'IW-NLL':>8} {'KL':>6} {'AU':>4} {'MI':>6} {'BLEU':>6}"
    elif isinstance(report, str):
        cells = f"FAILED: {report}"
    else:
        cells = (f"{report.nll:>8.2f} {report.ppl:>8.2f} {report.iw_nll:>8.2f} {report.kl:>6.2f} "
                 f"{report.au:>4d} {report.mi:>6.2f} {100.0 * report.bleu:>6.2f}")
    return f"{label:<24} {cells}"


# ---------------------------------------------------------------------------
# commands


def _train_and_save(args, cfg: dict, split: CorpusSplit, vocab: Vocabulary,
                    out: Path) -> TrainResult:
    """Train by ``cfg`` (see ``_read_config``), writing the run directory ``out``:
    ``vocab.txt``, ``checkpoint.bin``, ``train_log.jsonl`` and ``manifest.json``,
    none of them before training returns.

    A run that diverges or is interrupted still writes its last good
    checkpoint, its log closed by an "aborted" or "interrupted" record and a
    manifest flagged "diverged" or "interrupted", before the TrainingError
    propagates.
    """
    cfg = _resolved(cfg, split)
    tcfg = cfg["train"]
    manifest = _manifest(args, cfg, split, vocab, tcfg.seed)
    error = None
    try:
        result = train(split, tcfg, len(vocab))
        params, log = result.params, result.log
    except TrainingError as exc:
        error, params = exc, exc.params
        ending = "interrupted" if isinstance(exc, TrainingInterrupted) else "diverged"
        log = exc.log + [{"phase": "interrupted"} if ending == "interrupted"
                         else {"phase": "aborted", "error": str(exc)}]
        manifest[ending] = True
    write_file(out / "vocab.txt", "\n".join(vocab.id_to_token) + "\n")
    save_checkpoint(out / "checkpoint.bin", params, vocab, config=asdict(tcfg))
    write_file(out / "train_log.jsonl",
               "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in log))
    _write_json(out / "manifest.json", manifest)
    if error is not None:
        print(f"training {ending}; last good checkpoint written to {out / 'checkpoint.bin'}")
        raise error
    return result


def cmd_train(args) -> int:
    cfg = _read_config(args)
    split, vocab = _resolve_corpus(cfg, args.corpus)
    out = _out_dir(args.out_dir)
    result = _train_and_save(args, cfg, split, vocab, out)

    summary = f"trained {cfg['train'].epochs} epochs"
    if cfg["train"].epochs:
        final = result.log[-1]
        summary += f"; final total {final['total']:.4f} (kl {final['kl_raw']:.4f})"
    print(f"{summary}; artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _read_config(args)
    params, vocab, _ = load_checkpoint(args.checkpoint)
    split, vocab = _resolve_corpus(cfg, args.corpus, vocab=vocab)
    sentences = getattr(split, args.split)
    if not sentences:
        raise DataError(f"{args.split} split is empty")

    out = _out_dir(args.out_dir) if args.out_dir else None
    report = evaluate(sentences, params, cfg["eval"], np.random.default_rng(_eval_seed(args)))

    print(table_line("configuration"))
    print(table_line(Path(args.checkpoint).stem, report))
    if out is not None:
        write_file(out / "report.txt", report.to_text())
        _write_json(out / "manifest.json",
                    _manifest(args, {**cfg, "split": args.split}, split, vocab, _eval_seed(args)))
    return 0


def cmd_sweep(args) -> int:
    cfg = _read_config(args)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--alphas must be comma-separated numbers: {exc}") from exc
    if not alphas:
        raise ConfigError("--alphas needs at least one value")
    labels = [f"{a:g}" for a in alphas]  # each run writes to alpha_<label>/
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--alphas repeats a value (as run directories: {labels})")
    # each cell's config is checked as it is made, all before any run
    cells = [{**cfg, "train": replace(cfg["train"], alpha=a)} for a in alphas]
    split, vocab = _resolve_corpus(cfg, args.corpus)
    if not split.test:
        raise DataError("test split is empty: sweep evaluates every run on it")
    out = _out_dir(args.out_dir)
    run_dirs = [_out_dir(out / f"alpha_{label}") for label in labels]  # all before any run

    rows = [table_line("alpha")]
    failed, error, interrupt = [], None, None
    for cell, label, run_dir in zip(cells, labels, run_dirs):
        tcfg = cell["train"]
        try:
            result = _train_and_save(args, cell, split, vocab, run_dir)
            report = evaluate(split.test, result.params, cfg["eval"],
                              np.random.default_rng(tcfg.seed))
            write_file(run_dir / "report.txt", report.to_text())
            rows.append(table_line(label, report))
        except (TrainingInterrupted, KeyboardInterrupt) as exc:
            interrupt = exc  # stop here; the table keeps the runs so far
            break
        except (TextVaeError, MemoryError) as exc:  # this cell failed; later cells still run
            failed.append(tcfg.alpha)
            error = exc
            why = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
            rows.append(table_line(label, why))
        print(rows[-1])

    write_file(out / "sweep_table.txt", "\n".join(rows) + "\n")
    echo = {**_resolved(cfg, split), "alphas": alphas}
    manifest = {**_manifest(args, echo, split, vocab, cfg["train"].seed), "failed_alphas": failed}
    _write_json(out / "manifest.json", {**manifest, "interrupted": True} if interrupt else manifest)
    print(f"\nsweep table written to {out / 'sweep_table.txt'}"
          + (f" ({len(failed)} run(s) failed)" if failed else ""))
    if interrupt is not None:
        raise interrupt
    if len(failed) == len(alphas):
        raise error  # no alpha succeeded: exit with the code of the last failure
    return 0


def _decode_and_write(args, params: VaeParams, vocab: Vocabulary, z: np.ndarray,
                      filename: str, config_echo: dict) -> int:
    """Greedy-decode each column of ``z`` (k, B); print the sentences and write them."""
    out = _out_dir(args.out_dir) if args.out_dir else None
    lines = [" ".join(vocab.decode(ids)) for ids in decode_greedy(z, args.max_len, params)]
    for line in lines:
        print(line)
    if out is not None:
        write_file(out / filename, "\n".join(lines) + "\n")
        _write_json(out / "manifest.json",
                    _manifest(args, config_echo, None, vocab, _eval_seed(args)))
    return 0


def cmd_interpolate(args) -> int:
    if args.steps < 2 or args.max_len < 1:
        raise ConfigError(f"--steps must be >= 2 and --max-len >= 1, got {args.steps} and "
                          f"{args.max_len}")
    params, vocab, _ = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(_eval_seed(args))
    z1, z2 = rng.standard_normal((2, params.latent_dim, 1))  # the same draws as two of k
    t = np.linspace(0.0, 1.0, args.steps)
    z = (1.0 - t) * z1 + t * z2
    return _decode_and_write(args, params, vocab, z, "interpolations.txt",
                             {"steps": args.steps, "max_len": args.max_len})


def cmd_sample(args) -> int:
    if args.n < 1 or args.max_len < 1:
        raise ConfigError(f"--n and --max-len must be >= 1, got {args.n} and {args.max_len}")
    params, vocab, _ = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(_eval_seed(args))
    z = rng.standard_normal((args.n, params.latent_dim)).T  # column i is the i-th draw
    return _decode_and_write(args, params, vocab, z, "samples.txt",
                             {"n": args.n, "max_len": args.max_len})


# ---------------------------------------------------------------------------
# selfcheck


def _selfcheck_gradients() -> list[tuple[str, bool, str]]:
    results = []
    rng = np.random.default_rng(0)

    # 3 positions of 2 sentences; the second sentence ends one position early
    out = {name: Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
           for name, shape in (("H", (3, 3 * 2)), ("w", (5, 3)), ("b", (5, 1)))}
    targets = rng.integers(0, 5, 3 * 2)
    valid = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    rep = grad_check(lambda: ad.reduce_mean(model.sentence_sums(model.output_log_lik(
        out["H"], out["w"], out["b"], targets), valid)), out, tol=1e-5)
    results.append(("gradients: output layer", rep.passed, str(rep)))

    params = VaeParams.init(6, 4, 4, 2, rng)
    xs = Tensor(rng.uniform(-1, 1, (4, 3 * 2)))  # 3 positions of 2 sentences
    h0 = Tensor(np.zeros((4, 2)))
    lstm = {n: t for n, t in params.named_parameters() if n.startswith("enc.lstm.")}

    def recurrence_loss():  # each sentence's final state, at lengths 3 and 2
        H = model.lstm_recurrence(xs, h0, h0, params, "enc.lstm")
        final = ad.select_columns(H, np.array([(3 - 1) * 2 + 0, (2 - 1) * 2 + 1]))
        return ad.reduce_mean(ad.mul(final, final))

    rep = grad_check(recurrence_loss, lstm, tol=1e-4)
    results.append(("gradients: lstm recurrence", rep.passed, str(rep)))

    cfg = TrainConfig(latent_dim=2, embed_dim=4, hidden_dim=4, alpha=0.1, free_bits=1.0)
    eps = rng.standard_normal((2, 1))
    mask = np.array([[1.0, 0.0, 1.0, 1.0]])

    def f():
        return elbo_step(make_batch([(4, 5, 4)]), cfg, params, eps, mask, 0.5)[0]

    rep = grad_check(f, dict(params.named_parameters()), tol=1e-4)
    results.append(("gradients: full objective", rep.passed, str(rep)))
    return results


def _selfcheck_kl() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        mu = rng.uniform(-2, 2, 4)
        logvar = rng.uniform(-1, 1, 4)
        post = GaussianPosterior(mu=Tensor(mu.reshape(-1, 1)), logvar=Tensor(logvar.reshape(-1, 1)))
        closed = kl_columns(post).item()
        z = mu + np.exp(0.5 * logvar) * rng.standard_normal((100_000, 4))
        log_q = -0.5 * (np.log(2 * np.pi) + logvar + (z - mu) ** 2 / np.exp(logvar)).sum(axis=1)
        log_p = -0.5 * (np.log(2 * np.pi) + z ** 2).sum(axis=1)
        rel = abs(float(np.mean(log_q - log_p)) - closed) / closed
        worst = max(worst, rel)
    ok = worst < 0.01
    return [("kl: closed form vs monte carlo", ok, f"worst relative error {worst:.4f}")]


def _selfcheck_bleu() -> list[tuple[str, bool, str]]:
    cases = [
        (corpus_bleu([("a b c d e".split(), "a b c d e".split())]), 1.0),
        (corpus_bleu([("a b c d e".split(), "a b c".split())]), math.exp(1 - 5 / 3)),
        (corpus_bleu([("a b c".split(), "x y z".split())]), 1e-9),
    ]
    ok = all(abs(got - want) <= 1e-6 * max(1.0, want) for got, want in cases)
    detail = "; ".join(f"{got:.6g} vs {want:.6g}" for got, want in cases)
    return [("bleu: oracle cases", ok, detail)]


def cmd_selfcheck(args) -> int:
    checks = _selfcheck_gradients() + _selfcheck_kl() + _selfcheck_bleu()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  [{detail}]"))
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textvae",
                                     description="Train and evaluate sentence VAEs with "
                                                 "posterior-collapse countermeasures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, corpus=True, out_required=False):
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config's train.seed; eval, sample and "
                            "interpolate draw from it (default 0)")
        if corpus:  # train, eval and sweep: the commands that read a config
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--corpus", default=None,
                           help="directory with train.txt/dev.txt/test.txt")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        p.add_argument("--out-dir", required=out_required, default=None)

    p = sub.add_parser("train", help="train a model and write the best checkpoint")
    common(p, out_required=True)
    hints = typing.get_type_hints(TrainConfig)
    for name in TRAIN_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=hints[name], default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compute the metric suite for a checkpoint")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate one model per alpha value")
    common(p, out_required=True)
    p.add_argument("--alphas", default="0.01,0.1,0.5,1.0,2.0",
                   help="comma-separated fraternal alpha values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("interpolate", help="decode along a line between two prior draws")
    common(p, checkpoint=True, corpus=False)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--max-len", type=int, default=30, dest="max_len")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("sample", help="decode sentences from prior draws")
    common(p, checkpoint=True, corpus=False)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--max-len", type=int, default=30, dest="max_len")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("selfcheck", help="run the built-in verification suite")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except TextVaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_CODES["interrupted"]
    except MemoryError as exc:  # every large allocation is sized by a user's setting
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES["internal"]


if __name__ == "__main__":
    sys.exit(main())
