"""Command-line surface: train, eval, sweep, interpolate, sample, selfcheck.

Every run is parameterized by a JSON config file plus flag overrides (flags
win), and every artifact directory receives a manifest tying outputs to the
config echo, corpus hashes, seed and library version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import model
from .autodiff import Tensor, grad_check
from .corpus import (CorpusSplit, SyntheticSpec, Vocabulary, build_vocab, generate_synthetic,
                     load_text, make_batch, split_hashes)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NumericError,
    TextVaeError,
    TrainingError,
)
from .metrics import EvalConfig, MetricsReport, corpus_bleu, evaluate
from .model import GaussianPosterior, VaeParams, decode_greedy, load_checkpoint, save_checkpoint
from .objectives import elbo_step, kl_columns
from .training import TrainConfig, TrainResult, train

EXIT_CODES = {
    "ok": 0,
    "config": 2,
    "data": 3,
    "numeric": 4,
    "internal": 5,
}


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CODES["config"]
    if isinstance(exc, DataError):
        return EXIT_CODES["data"]
    if isinstance(exc, (NumericError, DimensionError, TrainingError)):
        return EXIT_CODES["numeric"]
    return EXIT_CODES["internal"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    known = {"train", "synthetic", "eval", "vocab_size"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}; expected {sorted(known)}")
    for name in ("train", "synthetic", "eval"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    if type(cfg.get("vocab_size", 0)) is not int:  # bool is an int subclass
        raise ConfigError("config field 'vocab_size' must be an integer")
    return cfg


def _train_config(cfg: dict, args) -> TrainConfig:
    section = dict(cfg.get("train", {}))
    overrides = {
        "seed": args.seed,
        "epochs": getattr(args, "epochs", None),
        "lr": getattr(args, "lr", None),
        "alpha": getattr(args, "alpha", None),
        "keep_prob": getattr(args, "keep_prob", None),
        "free_bits": getattr(args, "free_bits", None),
        "pretrain_epochs": getattr(args, "pretrain_epochs", None),
    }
    for key, value in overrides.items():
        if value is not None:
            section[key] = value
    try:
        return TrainConfig.from_dict(section)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def _eval_config(cfg: dict) -> EvalConfig:
    section = dict(cfg.get("eval", {}))
    try:
        return EvalConfig(**section).validate()
    except TypeError as exc:
        raise ConfigError(f"bad eval config: {exc}") from exc


def _synthetic_spec(cfg: dict) -> SyntheticSpec | None:
    if "synthetic" not in cfg:
        return None
    section = dict(cfg["synthetic"])
    try:
        if "length_range" in section:
            section["length_range"] = tuple(section["length_range"])
        return SyntheticSpec(**section).validate()
    except TypeError as exc:
        raise ConfigError(f"bad synthetic config: {exc}") from exc


def _resolve_corpus(cfg: dict, corpus_dir, vocab: Vocabulary | None = None):
    """Returns (split, vocab).  A text directory needs train/dev/test .txt files.

    When ``vocab`` is given (evaluating a checkpoint), text corpora are
    encoded with it; a freshly derivable vocabulary must hash-match.
    """
    if corpus_dir is not None:
        root = Path(corpus_dir)
        sents = {}
        for name in ("train", "dev", "test"):
            path = root / f"{name}.txt"
            sents[name] = load_text(path) if path.exists() else []
        if not sents["train"] and vocab is None:
            raise DataError(f"corpus directory {root} has no train.txt")
        if vocab is None:
            vocab = build_vocab(sents["train"], int(cfg.get("vocab_size", 10000)))
        elif sents["train"]:
            derived = build_vocab(sents["train"], int(cfg.get("vocab_size", 10000)))
            if derived.hash != vocab.hash:
                raise DataError(
                    "corpus vocabulary does not match the checkpoint vocabulary "
                    f"({derived.hash[:12]} vs {vocab.hash[:12]})")
        split = CorpusSplit(
            train=[vocab.encode(s) for s in sents["train"]],
            dev=[vocab.encode(s) for s in sents["dev"]],
            test=[vocab.encode(s) for s in sents["test"]],
            source=str(root),
        )
        return split.validate(len(vocab)), vocab

    if "vocab_size" in cfg:
        raise ConfigError("config field 'vocab_size' applies only to a --corpus directory; "
                          "a synthetic corpus sets its own vocabulary")
    spec = _synthetic_spec(cfg)
    if spec is None:
        raise ConfigError("no corpus: pass --corpus DIR or a 'synthetic' config section")
    split, generated = generate_synthetic(spec)
    if vocab is not None and generated.hash != vocab.hash:
        raise DataError(
            "synthetic corpus vocabulary does not match the checkpoint vocabulary "
            f"({generated.hash[:12]} vs {vocab.hash[:12]})")
    return split, (vocab or generated)


def _eval_seed(args) -> int:
    """--seed for the commands that have no train config to take it from: 0 when absent."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return 0 if args.seed is None else args.seed


def _manifest(command: str, args, config_echo: dict, split, vocab: Vocabulary,
              seed: int) -> dict:
    hashes = split_hashes(split) if split is not None else {}
    if vocab is not None:
        hashes["vocab"] = vocab.hash
    return {
        "command": command,
        "argv": list(getattr(args, "_argv", [])),
        "config": config_echo,
        "corpus_hashes": hashes,
        "seed": seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# commands


def _train_and_save(split: CorpusSplit, tcfg: TrainConfig, vocab: Vocabulary,
                    out: Path) -> TrainResult:
    """Train, then write ``checkpoint.bin`` and ``train_log.jsonl`` into ``out``.

    A run that diverges still writes its last good checkpoint and its log,
    closed by an "aborted" record, before the TrainingError propagates.
    """
    error = None
    try:
        result = train(split, tcfg, len(vocab))
        params, log = result.params, result.log
    except TrainingError as exc:
        error, params = exc, exc.params
        log = exc.log + [{"phase": "aborted", "error": str(exc)}]
    save_checkpoint(out / "checkpoint.bin", params, vocab, config=tcfg.to_dict())
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if error is not None:
        raise error
    return result


def cmd_train(args) -> int:
    cfg = _load_config_file(args.config)
    tcfg = _train_config(cfg, args)
    split, vocab = _resolve_corpus(cfg, args.corpus)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config_echo = {"train": tcfg.to_dict(), "eval": _eval_config(cfg).to_dict(),
                   "vocab_size": len(vocab)}
    manifest = _manifest("train", args, config_echo, split, vocab, tcfg.seed)
    vocab.save(out / "vocab.txt")
    try:
        result = _train_and_save(split, tcfg, vocab, out)
    except TrainingError:
        _write_json(out / "manifest.json", {**manifest, "diverged": True})
        print(f"training diverged; last good checkpoint written to {out / 'checkpoint.bin'}")
        raise
    _write_json(out / "manifest.json", manifest)

    summary = f"trained {tcfg.epochs} epochs"
    if tcfg.epochs:
        final = result.log[-1]
        summary += f"; final total {final['total']:.4f} (kl {final['kl_raw']:.4f})"
    print(f"{summary}; artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config_file(args.config)
    params, vocab, _ = load_checkpoint(args.checkpoint)
    split, vocab = _resolve_corpus(cfg, args.corpus, vocab=vocab)
    sentences = getattr(split, args.split)
    if not sentences:
        raise DataError(f"{args.split} split is empty")

    ecfg = _eval_config(cfg)
    report = evaluate(sentences, params, ecfg, np.random.default_rng(_eval_seed(args)))

    print(MetricsReport.table_header())
    print(report.table_row(Path(args.checkpoint).stem))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        config_echo = {"eval": ecfg.to_dict(), "split": args.split}
        _write_json(out / "manifest.json",
                    _manifest("eval", args, config_echo, split, vocab, _eval_seed(args)))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--alphas must be comma-separated numbers: {exc}") from exc
    if not alphas:
        raise ConfigError("--alphas needs at least one value")
    if not all(math.isfinite(a) and a >= 0 for a in alphas):
        raise ConfigError(f"alpha values must be finite and >= 0, got {alphas}")
    labels = [f"{a:g}" for a in alphas]  # each run writes to alpha_<label>/
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--alphas repeats a value (as run directories: {labels})")
    base = _train_config(cfg, args)
    split, vocab = _resolve_corpus(cfg, args.corpus)
    ecfg = _eval_config(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = [MetricsReport.table_header("alpha")]
    failed, error = [], None
    for alpha, label in zip(alphas, labels):
        tcfg = replace(base, alpha=alpha)
        run_dir = out / f"alpha_{label}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = _train_and_save(split, tcfg, vocab, run_dir)
            report = evaluate(split.test, result.params, ecfg, np.random.default_rng(tcfg.seed))
            (run_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
            rows.append(report.table_row(label))
        except TextVaeError as exc:
            failed.append(alpha)
            error = exc
            rows.append(f"{alpha:<24g} FAILED: {exc}")
        print(rows[-1])

    table = "\n".join(rows) + "\n"
    (out / "sweep_table.txt").write_text(table, encoding="utf-8")
    config_echo = {"train": base.to_dict(), "eval": ecfg.to_dict(), "alphas": alphas}
    _write_json(out / "manifest.json",
                {**_manifest("sweep", args, config_echo, split, vocab, base.seed),
                 "failed_alphas": failed})
    print(f"\nsweep table written to {out / 'sweep_table.txt'}"
          + (f" ({len(failed)} run(s) failed)" if failed else ""))
    if len(failed) == len(alphas):
        raise error  # no alpha succeeded: exit with the code of the last failure
    return 0


def _decode_and_write(args, params: VaeParams, vocab: Vocabulary, zs, filename: str,
                      config_echo: dict) -> int:
    """Greedy-decode each latent in ``zs``; print the sentences and write them to ``--out-dir``."""
    lines = [" ".join(vocab.decode(decode_greedy(z, args.max_len, params))) for z in zs]
    for line in lines:
        print(line)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_json(out / "manifest.json",
                    _manifest(args.command, args, config_echo, None, vocab, _eval_seed(args)))
    return 0


def cmd_interpolate(args) -> int:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    params, vocab, _ = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(_eval_seed(args))
    z1 = rng.standard_normal(params.latent_dim)
    z2 = rng.standard_normal(params.latent_dim)
    zs = [(1.0 - t) * z1 + t * z2 for t in np.linspace(0.0, 1.0, args.steps)]
    return _decode_and_write(args, params, vocab, zs, "interpolations.txt",
                             {"steps": args.steps, "max_len": args.max_len})


def cmd_sample(args) -> int:
    params, vocab, _ = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(_eval_seed(args))
    zs = [rng.standard_normal(params.latent_dim) for _ in range(args.n)]
    return _decode_and_write(args, params, vocab, zs, "samples.txt",
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
    rep = grad_check(lambda: ad.reduce_mean(model.output_log_lik(
        out["H"], out["w"], out["b"], targets, valid)), out, tol=1e-5)
    results.append(("gradients: output layer", rep.passed, str(rep)))

    params = VaeParams.init(6, 4, 4, 2, rng)
    xs = Tensor(rng.uniform(-1, 1, (4, 3 * 2)))  # 3 positions of 2 sentences
    h0 = Tensor(np.zeros((4, 2)))
    lstm = {n: t for n, t in params.named_parameters() if n.startswith("enc.lstm.")}

    def recurrence_loss():
        H = model.lstm_recurrence(xs, h0, h0, params, "enc.lstm", lengths=np.array([3, 2]))
        return ad.reduce_mean(ad.mul(H, H))

    rep = grad_check(recurrence_loss, lstm, tol=1e-4)
    results.append(("gradients: lstm recurrence", rep.passed, str(rep)))

    cfg = TrainConfig(latent_dim=2, embed_dim=4, hidden_dim=4, warmup_steps=10,
                      alpha=0.1, keep_prob=0.7, free_bits=1.0, seed=0)
    eps = rng.standard_normal((2, 1))
    mask = np.array([[1.0, 0.0, 1.0, 1.0]])

    def f():
        return elbo_step(make_batch([(4, 5, 4)]), cfg, params, np.random.default_rng(0),
                         eps=eps, mask=mask, beta_override=0.5).total

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
    if args.corrupt_backward:  # negative-control hook used by the test suite
        model._CORRUPT_TANH_BACKWARD = True
    try:
        checks = _selfcheck_gradients() + _selfcheck_kl() + _selfcheck_bleu()
    finally:
        model._CORRUPT_TANH_BACKWARD = False
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
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config's train.seed; eval, sample and "
                            "interpolate draw from it (default 0)")
        if corpus:
            p.add_argument("--corpus", default=None,
                           help="directory with train.txt/dev.txt/test.txt")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        p.add_argument("--out-dir", required=out_required, default=None)

    p = sub.add_parser("train", help="train a model and write the best checkpoint")
    common(p, out_required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--keep-prob", type=float, default=None, dest="keep_prob")
    p.add_argument("--free-bits", type=float, default=None, dest="free_bits")
    p.add_argument("--pretrain-epochs", type=int, default=None, dest="pretrain_epochs")
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
    p.add_argument("--corrupt-backward", action="store_true", dest="corrupt_backward",
                   help=argparse.SUPPRESS)
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
        return _exit_code_for(exc)
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES["internal"]


if __name__ == "__main__":
    sys.exit(main())
