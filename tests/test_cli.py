import json

import numpy as np
import pytest

from textvae.autodiff import Tape
from textvae.cli import EXIT_CODES, main
from textvae.errors import NumericError
from textvae.model import VaeParams, decode_greedy, load_checkpoint


def save_text(sentences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def write_config(tmp_path, **overrides):
    cfg = {
        "train": {
            "latent_dim": 4, "embed_dim": 8, "hidden_dim": 16,
            "batch_size": 16, "epochs": 1, "warmup_steps": 20,
            "keep_prob": 1.0, "seed": 0,
        },
        "synthetic": {
            "n_templates": 2, "words_per_slot": 5, "length_range": [4, 6],
            "n_train": 80, "n_dev": 16, "n_test": 16, "seed": 11,
        },
        "eval": {"n_samples": 3, "mi_samples": 2, "max_gen_len": 8},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_train_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "train_log.jsonl").exists()
    assert (out / "manifest.json").exists()
    assert (out / "vocab.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "vocab" in manifest["corpus_hashes"]
    records = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert {"epoch", "reconstruction", "kl_raw", "kl_effective", "beta",
            "fraternal_penalty", "total", "grad_norm", "wall_time"} <= set(records[-1])
    assert records[-1]["grad_norm"] > 0


@pytest.mark.parametrize("overrides", [{"lr": 0.0}, {"epochs": 0}], ids=["lr 0", "epochs 0"])
def test_train_without_updates_checkpoint_equals_init(tmp_path, overrides):
    cfg = write_config(tmp_path, train=overrides)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    params, vocab, _ = load_checkpoint(out / "checkpoint.bin")
    rng = np.random.default_rng(0)
    init = VaeParams.init(len(vocab), 8, 16, 4, rng)
    for (n, a), (_, b) in zip(params.named_parameters(), init.named_parameters()):
        assert np.array_equal(a.data, b.data), n


def test_train_deterministic_checkpoint_bytes(tmp_path):
    cfg = write_config(tmp_path, train={"alpha": 0.1, "keep_prob": 0.7})
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == 0
    first_ckpt = (out / "checkpoint.bin").read_bytes()
    first_manifest = (out / "manifest.json").read_bytes()
    assert main(argv) == 0  # identical invocation overwrites in place
    assert (out / "checkpoint.bin").read_bytes() == first_ckpt
    assert (out / "manifest.json").read_bytes() == first_manifest


def read_log(run_dir):
    return [json.loads(l) for l in (run_dir / "train_log.jsonl").read_text().splitlines()]


def assert_finite_checkpoint(path):
    params, _, _ = load_checkpoint(path)
    assert all(np.all(np.isfinite(t.data)) for _, t in params.named_parameters())


@pytest.mark.parametrize("failure", ["exp overflow", "non-finite gradient", "pretrain exp overflow"])
def test_train_failure_mid_step_keeps_last_good(tmp_path, monkeypatch, failure):
    import textvae.training as training_mod

    phase = "pretrain" if failure.startswith("pretrain") else "train"

    real = training_mod.elbo_step
    real_backward = Tape.backward
    calls = {"n": 0}
    poisoned = []

    def failing(batch, config, params, rng, **kwargs):
        calls["n"] += 1
        lb = real(batch, config, params, rng, **kwargs)
        if calls["n"] == 8:  # epoch 0 is 5 train steps and 1 dev batch; this is step 6
            if failure.endswith("exp overflow"):
                raise NumericError("exp would overflow: max input 800")
            poisoned.append(params["dec.out_b"])
        return lb

    def poisoning_backward(tape_self, loss):
        grads = real_backward(tape_self, loss)
        while poisoned:
            grads[poisoned.pop()][0, 0] = np.nan
        return grads

    monkeypatch.setattr(training_mod, "elbo_step", failing)
    monkeypatch.setattr(Tape, "backward", poisoning_backward)
    cfg = write_config(tmp_path, train={"epochs": 3,
                                        "pretrain_epochs": 3 if phase == "pretrain" else 0})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CODES["numeric"]
    records = read_log(out)
    assert [(r["phase"], r["epoch"]) for r in records[:-1]] == [(phase, 0)]
    assert records[-1]["phase"] == "aborted"
    assert f"{phase} epoch 1, step 6" in records[-1]["error"]
    assert json.loads((out / "manifest.json").read_text())["diverged"] is True
    assert_finite_checkpoint(out / "checkpoint.bin")


def test_train_eval_round_trip_is_seed_deterministic(tmp_path):
    # train then eval into fresh out-dirs: one seed gives the same bytes, another seed does not
    cfg = write_config(tmp_path, train={"alpha": 0.5, "keep_prob": 0.7})

    def run(name, seed):
        out = tmp_path / name
        ckpt = out / "train" / "checkpoint.bin"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out / "train"),
                     "--seed", str(seed)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out-dir", str(out / "eval"), "--seed", str(seed)]) == 0
        return ckpt.read_bytes(), (out / "eval" / "report.txt").read_bytes()

    first, again, other = run("a", 3), run("b", 3), run("c", 4)
    assert first == again
    assert other[0] != first[0]


def test_flag_overrides_win_over_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                 "--epochs", "2", "--alpha", "0.2", "--keep-prob", "0.8"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["config"]["train"]["alpha"] == 0.2
    assert manifest["config"]["train"]["keep_prob"] == 0.8


def test_config_seed_is_used_unless_the_flag_is_given(tmp_path):
    # a config's train.seed decides the run, the sweep's evaluation and the manifest echo
    for name in ("seeded", "plain"):
        (tmp_path / name).mkdir()
    seeded = write_config(tmp_path / "seeded", train={"seed": 5})
    plain = write_config(tmp_path / "plain")

    def sweep(name, cfg, *flags):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out), "--alphas", "0",
                     *flags]) == 0
        run = out / "alpha_0"
        return (run / "checkpoint.bin").read_bytes(), (run / "report.txt").read_bytes(), \
            json.loads((out / "manifest.json").read_text())["seed"]

    from_config = sweep("config", seeded)
    assert from_config == sweep("flag", plain, "--seed", "5")
    assert from_config[2] == 5
    assert from_config[0] != sweep("default", plain)[0]
    assert sweep("override", seeded, "--seed", "0") == sweep("zero", plain)


def test_eval_without_seed_draws_from_seed_zero(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0
    reports = []
    for name, flags in (("e_default", []), ("e_zero", ["--seed", "0"])):
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                     "--out-dir", str(tmp_path / name), *flags]) == 0
        reports.append((tmp_path / name / "report.txt").read_bytes())
        assert json.loads((tmp_path / name / "manifest.json").read_text())["seed"] == 0
    assert reports[0] == reports[1]
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                 "--seed", "-1"]) == EXIT_CODES["config"]


def test_bad_config_exit_code(tmp_path):
    cfg = write_config(tmp_path, train={"keep_prob": 2.0})
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CODES["config"]
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(cfg2), "--out-dir", str(tmp_path / "y")]) == EXIT_CODES["config"]


@pytest.mark.parametrize("overrides", [
    {"train": [1]},
    {"synthetic": "corpus"},
    {"eval": 5},
    {"vocab_size": "many"},
    {"synthetic": {"n_train": "a"}},
    {"synthetic": {"n_dev": -1}},
    {"eval": {"mi_samples": 0}},
    {"eval": {"n_samples": 0}},
    {"eval": {"n_samples": 2.5}},
    {"eval": {"au_threshold": -0.5}},
    {"eval": {"n_samples": True}},
    {"eval": {"mi_samples": False}},
    {"eval": {"max_gen_len": True}},
    {"eval": {"au_threshold": False}},
    {"eval": {"au_threshold": "0.1"}},
    {"train": {"seed": False}},
    {"train": {"seed": -1}},
    {"train": {"latent_dim": 2.5}},
    {"train": {"embed_dim": 8.0}},
    {"train": {"hidden_dim": True}},
    {"train": {"batch_size": 2.5}},
    {"train": {"epochs": 1.5}},
    {"train": {"pretrain_epochs": "1"}},
    {"train": {"warmup_steps": 2.5}},
    {"train": {"lr": "0.01"}},
    {"train": {"alpha": True}},
    {"train": {"clip_norm": None}},
    {"train": {"free_bits_per_dim": "yes"}},
    {"train": {"free_bits_per_dim": 1}},
    {"train": {"lr": float("inf")}},
    {"train": {"alpha": float("inf")}},
    {"train": {"free_bits": float("inf")}},
    {"train": {"clip_norm": float("nan")}},
    {"eval": {"au_threshold": float("inf")}},
], ids=["train not object", "synthetic not object", "eval not object", "vocab_size not int",
        "n_train not int", "negative n_dev", "mi_samples 0", "n_samples 0", "n_samples float",
        "negative au_threshold", "n_samples bool", "mi_samples bool", "max_gen_len bool",
        "au_threshold bool", "au_threshold string", "seed bool", "negative seed", "latent_dim float", "embed_dim float", "hidden_dim bool",
        "batch_size float", "epochs float", "pretrain_epochs string", "warmup_steps float",
        "lr string", "alpha bool", "clip_norm null", "free_bits_per_dim string",
        "free_bits_per_dim int", "lr inf", "alpha inf", "free_bits inf", "clip_norm nan",
        "au_threshold inf"])
def test_bad_config_value_is_config_error(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == \
        EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flags, overrides", [
    ("sweep", ["--alphas", "abc"], {}),
    ("sweep", ["--alphas", "0,0"], {}),
    ("sweep", ["--alphas", "0.1,0.1000001"], {}),
    ("train", [], {"synthetic": {"length_range": 5}}),
    ("train", [], {"synthetic": {"length_range": [1, 2, 3]}}),
    ("train", [], {"synthetic": {"length_range": [4.5, 6]}}),
    ("train", [], {"synthetic": {"n_templates": 2.5}}),
    ("train", [], {"synthetic": {"words_per_slot": True}}),
    ("train", [], {"synthetic": {"seed": -1}}),
    ("train", [], {"vocab_size": True}),
    ("train", ["--lr", "inf"], {}),
    ("train", ["--alpha", "inf"], {}),
    ("train", ["--free-bits", "inf"], {}),
    ("sweep", ["--alphas", "0,inf"], {}),
    ("sweep", ["--alphas", "nan"], {}),
    ("train", [], {"vocab_size": 3}),
], ids=["alpha not a number", "repeated alpha", "alphas sharing a run directory",
        "length_range int", "length_range of three", "length_range float",
        "n_templates float", "words_per_slot bool", "negative synthetic seed", "vocab_size bool",
        "lr inf", "alpha inf", "free_bits inf", "alphas with inf", "alpha nan",
        "vocab_size with a synthetic corpus"])
def test_bad_cli_input_is_config_error(tmp_path, capsys, command, flags, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)] + flags) == \
        EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # refused before any run starts


def test_unknown_config_field_named_in_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"learning": 1}}), encoding="utf-8")
    code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CODES["config"]
    assert "learning" in capsys.readouterr().err


def test_text_corpus_train_and_eval(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    make = lambda n: [[words[j] for j in rng.integers(0, 12, rng.integers(2, 6))] for _ in range(n)]
    save_text(make(60), corpus_dir / "train.txt")
    save_text(make(10), corpus_dir / "dev.txt")
    save_text(make(10), corpus_dir / "test.txt")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"latent_dim": 4, "embed_dim": 8, "hidden_dim": 12, "epochs": 1,
                  "warmup_steps": 10, "keep_prob": 1.0, "seed": 0},
        "eval": {"n_samples": 2, "mi_samples": 2, "max_gen_len": 6},
        "vocab_size": 30,
    }), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(out)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--checkpoint", str(out / "checkpoint.bin"),
                 "--out-dir", str(eval_out), "--seed", "3"]) == 0
    assert (eval_out / "report.txt").exists()


def test_eval_empty_split_is_data_error(tmp_path):
    cfg = write_config(tmp_path, synthetic={"n_test": 0})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    code = main(["eval", "--config", str(cfg),
                 "--checkpoint", str(out / "checkpoint.bin")])
    assert code == EXIT_CODES["data"]


def test_eval_vocab_hash_mismatch_refused(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    other_cfg = write_config(tmp_path, synthetic={"words_per_slot": 4})
    code = main(["eval", "--config", str(other_cfg),
                 "--checkpoint", str(out / "checkpoint.bin")])
    assert code == EXIT_CODES["data"]
    assert "vocabulary" in capsys.readouterr().err


def test_eval_deterministic_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for e in (e1, e2):
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                     "--out-dir", str(e), "--seed", "5"]) == 0
    assert (e1 / "report.txt").read_bytes() == (e2 / "report.txt").read_bytes()


def test_eval_does_not_mutate_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    before = (out / "checkpoint.bin").read_bytes()
    assert main(["eval", "--config", str(cfg),
                 "--checkpoint", str(out / "checkpoint.bin"), "--seed", "1"]) == 0
    assert (out / "checkpoint.bin").read_bytes() == before


def test_sweep_single_alpha(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out), "--alphas", "0"]) == 0
    table = (out / "sweep_table.txt").read_text().splitlines()
    assert len(table) == 2  # header + one row
    assert table[1].startswith("0")


def diverge_alpha_0_1(monkeypatch):
    """Make the alpha=0.1 run of a sweep overflow in epoch 1 (step 7)."""
    import textvae.training as training_mod

    real = training_mod.elbo_step

    def failing(batch, config, params, rng, step=0, **kwargs):
        if config.alpha == 0.1 and step == 7:
            raise NumericError("exp would overflow: max input 800")
        return real(batch, config, params, rng, step=step, **kwargs)

    monkeypatch.setattr(training_mod, "elbo_step", failing)


def test_sweep_diverged_alpha_keeps_last_good_and_continues(tmp_path, monkeypatch):
    diverge_alpha_0_1(monkeypatch)
    cfg = write_config(tmp_path, train={"epochs": 2})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out), "--alphas", "0.1,0"]) == 0
    assert json.loads((out / "manifest.json").read_text())["failed_alphas"] == [0.1]
    table = (out / "sweep_table.txt").read_text().splitlines()
    assert "FAILED" in table[1] and "train epoch 1, step 7" in table[1]
    assert table[2].startswith("0 ") and "FAILED" not in table[2]
    records = read_log(out / "alpha_0.1")
    assert [r["epoch"] for r in records[:-1]] == [0]
    assert records[-1]["phase"] == "aborted"
    assert_finite_checkpoint(out / "alpha_0.1" / "checkpoint.bin")
    assert not (out / "alpha_0.1" / "report.txt").exists()
    assert (out / "alpha_0" / "report.txt").exists()
    assert [r["epoch"] for r in read_log(out / "alpha_0")] == [0, 1]


def test_sweep_every_alpha_failed_exits_with_last_failure(tmp_path, monkeypatch, capsys):
    diverge_alpha_0_1(monkeypatch)
    cfg = write_config(tmp_path, train={"epochs": 2})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0.1"]) == EXIT_CODES["numeric"]
    assert "train epoch 1, step 7" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["failed_alphas"] == [0.1]
    assert "FAILED" in (out / "sweep_table.txt").read_text().splitlines()[1]
    assert_finite_checkpoint(out / "alpha_0.1" / "checkpoint.bin")


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    for o in (o1, o2):
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(o),
                     "--alphas", "0,0.1"]) == 0
    assert (o1 / "sweep_table.txt").read_text() == (o2 / "sweep_table.txt").read_text()


def test_interpolate_endpoints_and_consistency(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["interpolate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", "2", "--seed", "9", "--max-len", "8"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert len(lines) == 2

    # endpoint t=0 must match a standalone greedy decode of z1
    params, vocab, _ = load_checkpoint(out / "checkpoint.bin")
    rng = np.random.default_rng(9)
    z1 = rng.standard_normal(params.latent_dim)
    expected = " ".join(vocab.decode(decode_greedy(z1, 8, params)))
    assert lines[0] == expected


def test_interpolate_deterministic_artifact(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    idir = tmp_path / "interp"
    argv = ["interpolate", "--checkpoint", str(out / "checkpoint.bin"),
            "--steps", "5", "--seed", "4", "--out-dir", str(idir)]
    assert main(argv) == 0
    first_text = (idir / "interpolations.txt").read_bytes()
    first_manifest = (idir / "manifest.json").read_bytes()
    assert main(argv) == 0
    assert (idir / "interpolations.txt").read_bytes() == first_text
    assert (idir / "manifest.json").read_bytes() == first_manifest


def test_interpolate_rejects_one_step(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert main(["interpolate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", "1"]) == EXIT_CODES["config"]


def test_sample_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["sample", "--checkpoint", str(out / "checkpoint.bin"),
                 "--n", "3", "--seed", "2", "--max-len", "6"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert len(lines) == 3


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_selfcheck_corrupted_backward_fails(capsys):
    assert main(["selfcheck", "--corrupt-backward"]) == 1
    assert "FAIL" in capsys.readouterr().out
