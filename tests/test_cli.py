import json
import math
import tempfile
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textvae.autodiff import Tape
from textvae.cli import EXIT_CODES, TRAIN_FLAGS, main, table_line
from textvae.corpus import SyntheticSpec
from textvae.errors import (FIELD_TYPES, ConfigError, ContractError, DataError, DimensionError,
                            NumericError, TextVaeError, TrainingError, TrainingInterrupted)
from textvae.metrics import EvalConfig, MetricsReport
from textvae.model import VaeParams, decode_greedy, load_checkpoint
from textvae.training import TrainConfig


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
    assert_strict_json_artifacts(out)
    records = read_log(out)
    assert [set(r) for r in records] == [LOG_SCHEMA["train"]]
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


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    out = tmp / "run"
    assert main(["train", "--config", str(write_config(tmp)), "--out-dir", str(out)]) == 0
    return out / "checkpoint.bin"


def strict_json(text):
    """json.loads that fails on NaN and Infinity, which strict JSON does not have."""
    return json.loads(text, parse_constant=pytest.fail)


# the exact keys of each kind of train_log.jsonl record, by its "phase"
EPOCH_KEYS = {"reconstruction", "kl_raw", "kl_effective", "fraternal_penalty", "total", "beta",
              "grad_norm", "epoch", "phase", "val_elbo", "wall_time"}
LOG_SCHEMA = {"pretrain": EPOCH_KEYS, "train": EPOCH_KEYS, "reset": {"phase", "epoch", "note"},
              "aborted": {"phase", "error"}, "interrupted": {"phase"}}


def read_log(run_dir):
    """The records of ``run_dir``'s train_log.jsonl, each checked against the schema of its
    kind; only the last record may say how a run ended."""
    records = [strict_json(l) for l in (run_dir / "train_log.jsonl").read_text().splitlines()]
    for i, record in enumerate(records):
        assert set(record) == LOG_SCHEMA[record["phase"]], record
        assert record["phase"] not in ("aborted", "interrupted") or i == len(records) - 1
    return records


def assert_strict_json_artifacts(out):
    """``out``'s manifest.json and every train_log.jsonl line below ``out`` parse strictly."""
    strict_json((out / "manifest.json").read_text())
    for log in out.rglob("train_log.jsonl"):
        read_log(log.parent)


def assert_finite_checkpoint(path):
    params, _, _ = load_checkpoint(path)
    assert all(np.all(np.isfinite(t.data)) for _, t in params.named_parameters())


def overflow_kl(params):
    """Set every posterior log-variance near 800 in the live parameters, so the KL's
    exp overflows to inf and the step's loss is not finite."""
    params["enc.logvar_b"].data[:] = 800.0


@pytest.mark.parametrize("failure", ["exp overflow", "non-finite gradient", "pretrain exp overflow"])
def test_train_failure_mid_step_keeps_last_good(tmp_path, monkeypatch, failure):
    import textvae.training as training_mod

    phase = "pretrain" if failure.startswith("pretrain") else "train"

    real = training_mod.elbo_step
    real_backward = Tape.backward
    calls = {"n": 0}
    poisoned = []

    def failing(batch, config, params, *inputs):
        calls["n"] += 1
        if calls["n"] == 8:  # epoch 0 is 5 train steps and 1 dev batch; this is step 6
            if failure.endswith("exp overflow"):
                overflow_kl(params)  # loss inf in training, nan in pretraining (beta 0)
            else:
                poisoned.append(params["dec.out_b"])
        return real(batch, config, params, *inputs)

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
    if failure == "non-finite gradient":
        assert "non-finite gradient in parameter 'dec.out_b'" in records[-1]["error"]
    else:
        assert ("loss nan" if phase == "pretrain" else "loss inf") in records[-1]["error"]
    assert json.loads((out / "manifest.json").read_text())["diverged"] is True
    assert_finite_checkpoint(out / "checkpoint.bin")


TWO_DIMS = {"latent_dim": 2, "embed_dim": 2, "hidden_dim": 2}


@pytest.mark.parametrize("train, failure", [
    ({"lr": 1000.0}, "dev ELBO failed in train epoch 0"),
    ({"lr": 100.0}, "gradient norm overflows"),
    ({"lr": 1e300, **TWO_DIMS}, "dev ELBO failed in train epoch 0: ELBO is not finite"),
    ({"lr": 1e300, **TWO_DIMS, "batch_size": 4}, "train epoch 0, step 1: loss nan"),
], ids=["dev elbo overflow", "grad norm overflow", "dev elbo nan", "step overflow"])
def test_train_numeric_blowup_is_a_divergence(tmp_path, train, failure):
    # a huge step size drives the model to overflow: in the dev ELBO's exp at lr 1000,
    # in the squares of finite gradients at lr 100, and at lr 1e300 into inf - inf in the
    # matmuls of the dev ELBO after one step, or of the second step; each ends the run as
    # diverged, with no RuntimeWarning escaping under the suite's warnings-as-errors filter
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "train": {"epochs": 2, "latent_dim": 4, "embed_dim": 8, "hidden_dim": 16, **train},
        "synthetic": {"n_train": 16, "n_dev": 16, "n_test": 8}}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CODES["numeric"]
    lines = (out / "train_log.jsonl").read_text().splitlines()
    records = [strict_json(l) for l in lines]
    assert records[-1]["phase"] == "aborted"
    assert failure in records[-1]["error"]
    if "ELBO failed" in failure:  # the failed epoch keeps its record, with a null ELBO
        assert [(r["epoch"], r["val_elbo"]) for r in records[:-1]] == [(0, None)]
    assert json.loads((out / "manifest.json").read_text())["diverged"] is True
    assert_finite_checkpoint(out / "checkpoint.bin")


def test_train_interrupt_keeps_last_good(tmp_path, monkeypatch, capsys):
    import textvae.training as training_mod

    cfg = write_config(tmp_path, train={"epochs": 3})
    one = tmp_path / "one_epoch"
    assert main(["train", "--config", str(cfg), "--out-dir", str(one), "--epochs", "1"]) == 0

    real = training_mod.elbo_step
    calls = {"n": 0}

    def interrupting(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 8:  # epoch 0 is 5 train steps and 1 dev batch; this is step 6
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(training_mod, "elbo_step", interrupting)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == \
        EXIT_CODES["interrupted"] == 130
    assert "train at step 6" in capsys.readouterr().err
    records = read_log(out)
    assert [(r["phase"], r["epoch"]) for r in records[:-1]] == [("train", 0)]
    assert records[-1] == {"phase": "interrupted"}
    assert json.loads((out / "manifest.json").read_text())["interrupted"] is True
    (got, _, _), (want, _, _) = (load_checkpoint(d / "checkpoint.bin") for d in (out, one))
    for (name, a), (_, b) in zip(got.named_parameters(), want.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_eval_interrupt_writes_no_report(tmp_path, monkeypatch, trained_checkpoint):
    import textvae.cli as cli_mod

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "evaluate", interrupted)
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(write_config(tmp_path)), "--checkpoint",
                 str(trained_checkpoint), "--out-dir", str(out)]) == EXIT_CODES["interrupted"]
    assert list(out.iterdir()) == []


def test_every_artifact_goes_through_write_file(tmp_path, monkeypatch):
    import textvae.cli as cli_mod
    import textvae.model as model_mod

    real = model_mod.write_file
    written = set()

    def recording(path, data):
        written.add(Path(path))
        real(path, data)

    monkeypatch.setattr(model_mod, "write_file", recording)  # save_checkpoint's writer
    monkeypatch.setattr(cli_mod, "write_file", recording)
    cfg = write_config(tmp_path)
    ckpt = ["--checkpoint", str(tmp_path / "train" / "checkpoint.bin")]
    runs = {"train": [], "eval": ckpt, "sweep": ["--alphas", "0,0.1"],
            "sample": ckpt + ["--n", "3"], "interpolate": ckpt}
    left = set()
    for command, flags in runs.items():
        out = tmp_path / command
        if command in ("train", "eval", "sweep"):
            flags = ["--config", str(cfg)] + flags
        assert main([command, "--out-dir", str(out)] + flags) == 0
        left |= {f for f in out.rglob("*") if f.is_file()}
    assert {f.name for f in left} == {
        "checkpoint.bin", "train_log.jsonl", "vocab.txt", "manifest.json", "report.txt",
        "sweep_table.txt", "samples.txt", "interpolations.txt"}
    assert left == written
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("bad", ["corpus", "config"])
def test_non_utf8_input_is_a_typed_error(tmp_path, capsys, bad):
    corpus_dir, cfg = write_text_corpus(tmp_path)
    path, code = {"corpus": (corpus_dir / "train.txt", "data"),
                  "config": (cfg, "config")}[bad]
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_CODES[code]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


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
    flags = {"epochs": 2, "lr": 0.002, "alpha": 0.2, "keep_prob": 0.8, "free_bits": 0.5,
             "pretrain_epochs": 1}
    assert set(flags) == set(TRAIN_FLAGS)
    argv = []
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)] + argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, value in flags.items():
        assert manifest["config"]["train"][name] == value, name


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


ERROR_EXIT_CODES = {ConfigError: 2, DataError: 3, DimensionError: 4, NumericError: 4,
                    TrainingError: 4, ContractError: 5, TrainingInterrupted: 130}


@pytest.mark.parametrize("command, target", [("train", "train"), ("sample", "decode_greedy")])
def test_out_of_memory_is_config_error(tmp_path, monkeypatch, capsys, trained_checkpoint,
                                       command, target):
    # every large allocation is sized by a setting the user chose; the allocation is only
    # simulated, as a real one could succeed and exhaust the machine's memory
    import textvae.cli as cli_mod

    message = "Unable to allocate 7.45 TiB for an array"

    def allocating(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli_mod, target, allocating)
    argv = {"train": ["--config", str(write_config(tmp_path))],
            "sample": ["--checkpoint", str(trained_checkpoint)]}[command]
    assert main([command, *argv, "--out-dir", str(tmp_path / "out")]) == EXIT_CODES["config"]
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_every_error_class_has_an_exit_code_case():
    classes, todo = set(), [TextVaeError]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes |= set(subclasses)
        todo += subclasses
    assert classes == set(ERROR_EXIT_CODES)


@pytest.mark.parametrize("cls, code", ERROR_EXIT_CODES.items(),
                         ids=[cls.__name__ for cls in ERROR_EXIT_CODES])
def test_each_error_class_ends_main_with_its_exit_code(monkeypatch, capsys, cls, code):
    import textvae.cli as cli_mod

    def failing(args):
        raise cls("boom")

    monkeypatch.setattr(cli_mod, "cmd_selfcheck", failing)
    assert cls.exit_code == code
    assert main(["selfcheck"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_bad_config_exit_code(tmp_path):
    cfg = write_config(tmp_path, train={"keep_prob": 2.0})
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CODES["config"]
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(cfg2), "--out-dir", str(tmp_path / "y")]) == EXIT_CODES["config"]
    deep = tmp_path / "deep.json"  # valid JSON, nested beyond the decoder's recursion limit
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["train", "--config", str(deep), "--out-dir", str(tmp_path / "z")]) == EXIT_CODES["config"]


BAD_CONFIG_VALUES = [
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
    # each range check's first value out of range, for the fields no case above covers
    {"train": {"latent_dim": 0}},
    {"train": {"embed_dim": 0}},
    {"train": {"hidden_dim": 0}},
    {"train": {"lr": -5e-324}},
    {"train": {"batch_size": 0}},
    {"train": {"epochs": -1}},
    {"train": {"warmup_steps": 0}},
    {"train": {"free_bits": -5e-324}},
    {"train": {"alpha": -5e-324}},
    {"train": {"keep_prob": math.nextafter(1.0, 2.0)}},
    {"train": {"pretrain_epochs": -1}},
    {"train": {"clip_norm": -5e-324}},
    {"synthetic": {"n_templates": 1}},
    {"synthetic": {"words_per_slot": 0}},
    {"synthetic": {"length_range": [5, 4]}},
    {"synthetic": {"n_train": 0}},
    {"synthetic": {"n_test": -1}},
    {"synthetic": {"seed": -1}},
    {"eval": {"max_gen_len": 0}},
]
BAD_CONFIG_IDS = [
    "train not object", "synthetic not object", "eval not object", "vocab_size not int",
    "n_train not int", "negative n_dev", "mi_samples 0", "n_samples 0", "n_samples float",
    "negative au_threshold", "n_samples bool", "mi_samples bool", "max_gen_len bool",
    "au_threshold bool", "au_threshold string", "seed bool", "negative seed",
    "latent_dim float", "embed_dim float", "hidden_dim bool", "batch_size float",
    "epochs float", "pretrain_epochs string", "warmup_steps float", "lr string", "alpha bool",
    "clip_norm null", "free_bits_per_dim string", "free_bits_per_dim int", "lr inf",
    "alpha inf", "free_bits inf", "clip_norm nan", "au_threshold inf", "latent_dim 0",
    "embed_dim 0", "hidden_dim 0", "lr below 0", "batch_size 0", "epochs -1", "warmup_steps 0",
    "free_bits below 0", "alpha below 0", "keep_prob above 1", "pretrain_epochs -1",
    "clip_norm below 0", "n_templates 1", "words_per_slot 0", "length_range lo above hi",
    "n_train 0", "n_test -1", "synthetic seed -1", "max_gen_len 0",
]
CONFIG_SECTIONS = {"train": TrainConfig, "eval": EvalConfig, "synthetic": SyntheticSpec}


CONFIG_COMMANDS = ("train", "eval", "sweep")  # each reads and checks every section


@pytest.mark.parametrize("command, overrides",
                         [(c, o) for c in CONFIG_COMMANDS for o in BAD_CONFIG_VALUES],
                         ids=[i if c == "train" else f"{c}: {i}"
                              for c in CONFIG_COMMANDS for i in BAD_CONFIG_IDS])
def test_bad_config_value_is_config_error(tmp_path, capsys, trained_checkpoint, command,
                                          overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    flags = {"train": [], "eval": ["--checkpoint", str(trained_checkpoint)],
             "sweep": ["--alphas", "0"]}[command]
    assert main([command, "--config", str(cfg), "--out-dir", str(out)] + flags) == \
        EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # refused before any output


def test_every_config_range_check_has_a_case():
    # a range case sets one field to a value of the right type that its config refuses;
    # every field but a bool has a range check, and each needs a case that reaches it
    kinds = tuple(f" must be {kind}, got " for kind, _ in FIELD_TYPES.values())
    covered = set()
    for overrides in BAD_CONFIG_VALUES:
        for section, values in overrides.items():
            if section not in CONFIG_SECTIONS or not isinstance(values, dict):
                continue
            with pytest.raises(ConfigError) as exc:
                CONFIG_SECTIONS[section](**values)
            if not any(kind in str(exc.value) for kind in kinds):
                covered |= {(section, name) for name in values}
    hints = {section: typing.get_type_hints(cls) for section, cls in CONFIG_SECTIONS.items()}
    assert covered == {(section, name) for section, fields_ in hints.items()
                       for name, hint in fields_.items() if hint is not bool}


@pytest.mark.parametrize("cls, name, value", [(TrainConfig, "keep_prob", 1.5),
                                              (EvalConfig, "mi_samples", 0),
                                              (SyntheticSpec, "n_templates", 2.5)])
def test_config_made_in_code_is_checked(cls, name, value):
    # a config is checked when it is made, in code as from a file, and by replace
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        replace(cls(), **{name: value})


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
    ("sample", ["--n", "-3"], {}),
    ("sample", ["--n", "0"], {}),
    ("sample", ["--max-len", "0"], {}),
    ("sample", ["--max-len", "-5"], {}),
    ("interpolate", ["--max-len", "-2"], {}),
    ("interpolate", ["--max-len", "0"], {}),
], ids=["alpha not a number", "repeated alpha", "alphas sharing a run directory",
        "length_range int", "length_range of three", "length_range float",
        "n_templates float", "words_per_slot bool", "negative synthetic seed", "vocab_size bool",
        "lr inf", "alpha inf", "free_bits inf", "alphas with inf", "alpha nan",
        "vocab_size with a synthetic corpus", "sample n negative", "sample n 0",
        "sample max_len 0", "sample max_len negative", "interpolate max_len negative",
        "interpolate max_len 0"])
def test_bad_cli_input_is_config_error(tmp_path, capsys, trained_checkpoint, command, flags,
                                       overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    if command in ("sample", "interpolate"):
        flags = ["--checkpoint", str(trained_checkpoint)] + flags
    else:
        flags = ["--config", str(cfg)] + flags
    assert main([command, "--out-dir", str(out)] + flags) == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # refused before any run starts


@pytest.mark.parametrize("command", ["sample", "interpolate"])
def test_decoding_commands_take_no_config(tmp_path, capsys, trained_checkpoint, command):
    # they read no config file, so they refuse the option instead of ignoring a broken one
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(broken), "--checkpoint", str(trained_checkpoint)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_unknown_config_field_named_in_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"learning": 1}}), encoding="utf-8")
    code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CODES["config"]
    assert "learning" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["eval", "synthetic"])
def test_unknown_key_in_any_section_named_in_error(tmp_path, capsys, section):
    cfg = write_config(tmp_path, **{section: {"learning": 1}})
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == \
        EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert "learning" in err and repr(section) in err


# every config field's small valid values and range bounds, per section; a number
# field has no upper bound but its finiteness, so 1e300 is one of its valid values
FUZZ_VALID = {
    "train": {"latent_dim": [1, 2], "embed_dim": [1, 2], "hidden_dim": [1, 2],
              "lr": [0, 0.05, 1e300], "batch_size": [1, 4], "epochs": [0, 1],
              "warmup_steps": [None, 1, 5], "free_bits": [0, 0.5, 1e300],
              "free_bits_per_dim": [False, True], "alpha": [0, 1, 1e300],
              "keep_prob": [0, 0.5, 1], "pretrain_epochs": [0, 1], "clip_norm": [0, 1, 1e300],
              "seed": [0, 3]},
    "eval": {"n_samples": [1, 2], "mi_samples": [1, 2], "au_threshold": [0, 0.01, 1e300],
             "max_gen_len": [1, 4]},
    "synthetic": {"n_templates": [2, 3], "words_per_slot": [1, 3],
                  "length_range": [[1, 1], [2, 4]], "n_train": [1, 8], "n_dev": [0, 4],
                  "n_test": [0, 4], "seed": [0, 7]},
}
# values any field may be set to: zero, huge, negative, fractional, bool, string, null, nested
FUZZ_ANY = [0, 1e300, -1, -0.5, 2.5, True, "1", None, {"a": 1}, [1, 2, 3]]
FUZZ_BASE = {
    "train": {"latent_dim": 2, "embed_dim": 2, "hidden_dim": 2, "batch_size": 4, "epochs": 1},
    "eval": {"n_samples": 2, "mi_samples": 2, "max_gen_len": 4},
    "synthetic": {"n_templates": 2, "words_per_slot": 3, "length_range": [2, 4],
                  "n_train": 8, "n_dev": 4, "n_test": 4},
}
FUZZ_METRICS = ("nll", "ppl", "iw_nll", "iw_ppl", "kl", "mi", "mi_raw", "bleu")


def test_every_config_field_has_a_type_check_and_fuzz_values():
    # a field of a type FIELD_TYPES lacks would be a KeyError, exit 5, in a user's run
    for section, cls in CONFIG_SECTIONS.items():
        for name, hint in typing.get_type_hints(cls).items():
            assert hint in FIELD_TYPES, f"{cls.__name__}.{name}: {hint}"
        assert set(FUZZ_VALID[section]) == {f.name for f in fields(cls)}, section


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(sections=st.fixed_dictionaries({name: st.fixed_dictionaries(
           {}, optional={k: st.sampled_from(v) for k, v in fields_.items()})
           for name, fields_ in FUZZ_VALID.items()}),
       mutations=st.lists(st.tuples(
           st.sampled_from([(s, k) for s, fields_ in FUZZ_VALID.items() for k in fields_]),
           st.sampled_from(FUZZ_ANY)), max_size=2))
def test_any_config_ends_in_a_documented_exit_code(sections, mutations):
    # a tiny run of at most one epoch per phase, from any mix of valid and bad field values
    cfg = {name: {**FUZZ_BASE[name], **drawn} for name, drawn in sections.items()}
    for (name, key), value in mutations:
        cfg[name][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = root / "run"
        code = main(["train", "--config", str(root / "config.json"), "--out-dir", str(out)])
        assert code in (0, 2, 3, 4)
        if code in (0, 4):
            read_log(out)  # strict JSON: NaN and Infinity refused
            load_checkpoint(out / "checkpoint.bin")
        if code == 0:
            code = main(["eval", "--config", str(root / "config.json"), "--checkpoint",
                         str(out / "checkpoint.bin"), "--out-dir", str(root / "eval")])
            report = root / "eval" / "report.txt"
            if code == 0:
                values = dict(line.split(": ", 1) for line in report.read_text().splitlines())
                assert all(math.isfinite(float(values[k])) for k in FUZZ_METRICS), values
            else:
                # 3: an empty test split; 4: a metric beyond float64, such as the perplexity
                # of a finite model whose NLL exceeds about 709 nats a word
                assert code == EXIT_CODES["numeric"] or (
                    code == EXIT_CODES["data"] and cfg["synthetic"]["n_test"] == 0)
                assert not report.exists()
        assert list(root.rglob("*.tmp")) == []


def write_text_corpus(tmp_path, **sizes):
    """A --corpus directory of random sentences over 12 words, and a config for it.
    ``sizes`` gives each split file's sentence count (default: train, dev and test)."""
    sizes = sizes or {"train": 60, "dev": 10, "test": 10}
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    for name, n in sizes.items():
        save_text([[words[j] for j in rng.integers(0, 12, rng.integers(2, 6))] for _ in range(n)],
                  corpus_dir / f"{name}.txt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"latent_dim": 4, "embed_dim": 8, "hidden_dim": 12, "epochs": 1,
                  "warmup_steps": 10, "keep_prob": 1.0, "seed": 0},
        "eval": {"n_samples": 2, "mi_samples": 2, "max_gen_len": 6},
        "vocab_size": 30,
    }), encoding="utf-8")
    return corpus_dir, cfg


def test_text_corpus_train_and_eval(tmp_path):
    corpus_dir, cfg = write_text_corpus(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(out)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--checkpoint", str(out / "checkpoint.bin"),
                 "--out-dir", str(eval_out), "--seed", "3"]) == 0
    assert (eval_out / "report.txt").exists()
    assert_strict_json_artifacts(out)
    assert_strict_json_artifacts(eval_out)


def test_text_corpus_manifest_records_the_default_vocabulary_cap(tmp_path):
    # a config file without vocab_size reads a --corpus directory at the default cap; the
    # run's manifest records it, so its config re-trains the run byte for byte, and a
    # sweep's own manifest records it too
    corpus_dir, cfg = write_text_corpus(tmp_path)
    raw = json.loads(cfg.read_text())
    del raw["vocab_size"]
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    for argv, cell in ((["train"], ""), (["sweep", "--alphas", "0"], "alpha_0")):
        out = tmp_path / argv[0]
        assert main([argv[0], "--config", str(cfg), "--corpus", str(corpus_dir),
                     "--out-dir", str(out), *argv[1:]]) == 0
        recorded = strict_json((out / cell / "manifest.json").read_text())["config"]
        assert recorded["vocab_size"] == 10000, argv
        assert strict_json((out / "manifest.json").read_text())["config"]["vocab_size"] == 10000
        rerun_cfg = tmp_path / f"{argv[0]}.json"
        rerun_cfg.write_text(json.dumps(recorded), encoding="utf-8")
        again = tmp_path / f"{argv[0]} again"
        assert main(["train", "--config", str(rerun_cfg), "--corpus", str(corpus_dir),
                     "--out-dir", str(again)]) == 0
        for artifact in ("checkpoint.bin", "vocab.txt"):
            assert (again / artifact).read_bytes() == (out / cell / artifact).read_bytes()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_synthetic_section_with_corpus_is_config_error(tmp_path, capsys, trained_checkpoint,
                                                       command):
    # a run reads one corpus: the manifest would echo a synthetic section it never used
    corpus_dir, cfg = write_text_corpus(tmp_path)
    raw = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**raw, "synthetic": {"n_train": 20}}), encoding="utf-8")
    out = tmp_path / "out"
    extra = {"train": [], "eval": ["--checkpoint", str(trained_checkpoint)],
             "sweep": ["--alphas", "0"]}[command]
    assert main([command, "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(out), *extra]) == EXIT_CODES["config"]
    assert "'synthetic' config section and --corpus" in capsys.readouterr().err
    assert not out.exists()


def test_eval_text_corpus_without_config_rebuilds_the_capped_vocabulary(tmp_path):
    # a checkpoint trained under a vocab_size cap carries its own cap: eval needs no config
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, text in (("train", "a b d\na c\nb c a\nc c e\n"), ("dev", "b a\n"),
                       ("test", "a a b\nc b\n")):
        (corpus_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    cfg = tmp_path / "capped.json"  # keeps c, a and b: d and e become <unk>
    cfg.write_text(json.dumps({"train": {"latent_dim": 2, "embed_dim": 4, "hidden_dim": 4,
                                         "epochs": 1, "warmup_steps": 4},
                               "vocab_size": 7}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(out)]) == 0
    reports = []
    for name, flags in (("with", ["--config", str(cfg)]), ("without", [])):
        assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint",
                     str(out / "checkpoint.bin"), "--out-dir", str(tmp_path / name)] + flags) == 0
        reports.append((tmp_path / name / "report.txt").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cap, code", [(3, 2), (4, 2), (5, 0)])
def test_vocab_size_must_leave_room_for_a_content_token(tmp_path, capsys, cap, code):
    corpus_dir = tmp_path / "corpus"  # one content token is enough for these splits
    corpus_dir.mkdir()
    for name, text in (("train", "a\na a\n"), ("dev", "a a a\n"), ("test", "a b a a\n")):
        (corpus_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {**FUZZ_BASE["train"], "warmup_steps": 1},
                               "vocab_size": cap}), encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(tmp_path / "run")]) == code
    if code == EXIT_CODES["config"]:
        assert f"vocab_size must be an integer >= 5, got {cap}" in capsys.readouterr().err


# (split files, expected exit code) of text corpora that are awkward but possible input
TEXT_CORPORA = {
    "blank lines": ({"train": b"w1 w2\n\n \t \nw2 w3 w1\n\n", "dev": b"\nw3 w1\n",
                     "test": b"w2 w2\n"}, 0),
    "one-word sentences": ({"train": b"w1\nw2\nw3\n", "dev": b"w4\n", "test": b"w1 w1\n"}, 0),
    "train of blank lines only": ({"train": b"\n \n\t\n", "dev": b"w1\n", "test": b"w2\n"}, 3),
    "non-UTF-8 bytes": ({"train": b"w1 \xff\xfe w2\n", "dev": b"w1\n", "test": b"w2\n"}, 3),
    "sentence in two splits": ({"train": b"w1 w2\nw3\n", "dev": b"w1 w2\n",
                                "test": b"w3 w1\n"}, 3),
    "no dev.txt": ({"train": b"w1 w2\nw2 w3\n", "test": b"w3 w1\n"}, 0),
    "no test.txt": ({"train": b"w1 w2\nw2 w3\n", "dev": b"w3 w1\n"}, 0),
    "reserved <unk> token": ({"train": b"w1 <unk> w2\nw2 w3\n", "dev": b"<unk> w1\n",
                              "test": b"w3 <unk>\n"}, 0),
    "train of reserved tokens only": ({"train": b"<unk>\n<unk> <unk>\n", "dev": b"w1\n",
                                       "test": b"w2\n"}, 3),
    "reserved </s> token": ({"train": b"w1 </s> w2\nw2 w3\n", "dev": b"w3 w1\n",
                             "test": b"w2\n"}, 3),
}


@pytest.mark.parametrize("files, code", TEXT_CORPORA.values(), ids=TEXT_CORPORA.keys())
def test_text_corpus_ends_in_a_documented_exit_code(tmp_path, files, code):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, raw in files.items():
        (corpus_dir / f"{name}.txt").write_bytes(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {**FUZZ_BASE["train"], "warmup_steps": 1},
                               "vocab_size": 30}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--out-dir", str(out)]) == code
    if code == 0:
        read_log(out)  # strict JSON
    assert list(tmp_path.rglob("*.tmp")) == []


def test_train_without_dev_split_logs_null_val_elbo(tmp_path):
    # a corpus with no dev.txt has no dev ELBO: the log records null, never NaN, and the
    # checkpoint is still the epoch with the lowest training total
    corpus_dir, cfg = write_text_corpus(tmp_path, train=60, test=10)
    runs = {}
    for name, epochs in (("full", 4), ("cut", None)):
        if epochs is None:  # a run cut after the full run's best epoch ends on its parameters
            totals = [r["total"] for r in read_log(runs["full"].parent)]
            epochs = totals.index(min(totals)) + 1
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                     "--out-dir", str(out), "--epochs", str(epochs), "--lr", "0.05"]) == 0
        assert_strict_json_artifacts(out)
        assert [r["val_elbo"] for r in read_log(out)] == [None] * epochs
        runs[name] = out / "checkpoint.bin"
    (full, _, _), (cut, _, _) = (load_checkpoint(runs[n]) for n in ("full", "cut"))
    for (name, a), (_, b) in zip(full.named_parameters(), cut.named_parameters()):
        assert np.array_equal(a.data, b.data), name


@pytest.mark.parametrize("where", ["a file", "under a file"])
@pytest.mark.parametrize("command", ["train", "eval", "sweep", "sample", "interpolate"])
def test_out_dir_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, trained_checkpoint,
                                                            command, where):
    cfg = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file\n", encoding="utf-8")
    out = taken if where == "a file" else taken / "run"
    flags = {"train": [], "sweep": ["--alphas", "0"]}.get(
        command, ["--checkpoint", str(trained_checkpoint)])
    if command in ("train", "eval", "sweep"):
        flags = ["--config", str(cfg)] + flags
    assert main([command, "--out-dir", str(out)] + flags) == EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert taken.read_text(encoding="utf-8") == "a file\n"


def test_sweep_checks_every_run_directory_before_training(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "alpha_0.1").write_text("a file\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0,0.1"]) == EXIT_CODES["config"]
    assert str(out / "alpha_0.1") in capsys.readouterr().err
    assert not (out / "alpha_0" / "checkpoint.bin").exists()  # refused before the first run


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
    assert_strict_json_artifacts(e1)


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
    assert_strict_json_artifacts(out)


def diverge_alpha_0_1(monkeypatch, failure=overflow_kl):
    """Make the alpha=0.1 run of a sweep call ``failure`` on its live parameters in
    epoch 1 (step 7), by default overflowing the step's loss."""
    import textvae.training as training_mod

    real = training_mod.elbo_step
    steps = {"n": 0}

    def failing(batch, config, params, *inputs):
        if config.alpha == 0.1:  # training steps only: the dev ELBO runs at alpha 0
            if steps["n"] == 7:
                failure(params)
            steps["n"] += 1
        return real(batch, config, params, *inputs)

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


def test_report_table_row_shape():
    report = MetricsReport(nll=33.4, ppl=28.25, iw_nll=35.6, iw_ppl=31.5, kl=4.25, au=2,
                           mi=1.14, mi_raw=1.14, bleu=0.0143, n_sentences=10, config={})
    row = table_line("standard", report)
    header = table_line("configuration")
    assert "33.40" in row and "35.60" in row and "4.25" in row and "1.43" in row
    assert len(header.split()) == len(row.split())

def test_sweep_cell_is_a_run_directory(tmp_path, monkeypatch):
    diverge_alpha_0_1(monkeypatch)
    cfg = write_config(tmp_path, train={"epochs": 2})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out), "--alphas", "0.1,0"]) == 0
    for label, alpha, diverged in (("0.1", 0.1, True), ("0", 0.0, False)):
        run = out / f"alpha_{label}"
        manifest = strict_json((run / "manifest.json").read_text())
        _, vocab, _ = load_checkpoint(run / "checkpoint.bin")
        assert manifest["config"]["train"]["alpha"] == alpha
        assert manifest["corpus_hashes"]["vocab"] == vocab.hash
        assert manifest.get("diverged", False) is diverged
        assert (run / "vocab.txt").read_text().splitlines() == vocab.id_to_token
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(run / "checkpoint.bin")]) == 0


def test_manifest_config_reruns_its_run(tmp_path):
    # a manifest's config, written out as a config file, trains its run again byte for byte;
    # an unset warmup_steps is recorded resolved: 10 epochs of 5 batches of 16 of 80 sentences
    cfg = write_config(tmp_path, train={"alpha": 0.1, "keep_prob": 0.7, "epochs": 2,
                                        "warmup_steps": None})
    runs = {"train": (["train"], ""), "sweep cell": (["sweep", "--alphas", "1"], "alpha_1"),
            "pretrained": (["train", "--pretrain-epochs", "1"], "")}
    for name, (argv, cell) in runs.items():
        out = tmp_path / name
        assert main([argv[0], "--config", str(cfg), "--out-dir", str(out), *argv[1:]]) == 0, name
        run = out / cell
        recorded = strict_json((run / "manifest.json").read_text())["config"]
        assert recorded["train"]["warmup_steps"] == 50, name
        if cell:  # the sweep's own manifest echoes the cells' config, at its own alpha
            swept = strict_json((out / "manifest.json").read_text())["config"]["train"]
            assert {**swept, "alpha": 1.0} == recorded["train"]
        assert load_checkpoint(run / "checkpoint.bin")[2]["warmup_steps"] == 50, name
        rerun_cfg = tmp_path / f"{name}.json"
        rerun_cfg.write_text(json.dumps(recorded), encoding="utf-8")
        again = tmp_path / f"{name} again"
        assert main(["train", "--config", str(rerun_cfg), "--out-dir", str(again)]) == 0, name
        for artifact in ("checkpoint.bin", "vocab.txt"):
            assert (again / artifact).read_bytes() == (run / artifact).read_bytes(), (name, artifact)
        untimed = [[{k: v for k, v in r.items() if k != "wall_time"} for r in read_log(d)]
                   for d in (run, again)]
        assert untimed[0] == untimed[1], name


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


def test_sweep_cell_out_of_memory_fails_that_cell_only(tmp_path, monkeypatch, capsys):
    import textvae.cli as cli_mod

    real = cli_mod.train

    def train_or_oom(split, config, vocab_size):
        if config.alpha == 0.5:  # no real allocation: the error alone
            raise MemoryError("Unable to allocate 9.00 TiB")
        return real(split, config, vocab_size)

    monkeypatch.setattr(cli_mod, "train", train_or_oom)
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0,0.5,1"]) == 0
    table = (out / "sweep_table.txt").read_text().splitlines()
    assert len(table) == 4 and "FAILED" not in table[1] + table[3]
    assert table[2].startswith("0.5 ") and "FAILED: out of memory: Unable to allocate" in table[2]
    assert json.loads((out / "manifest.json").read_text())["failed_alphas"] == [0.5]
    assert (out / "alpha_1" / "report.txt").exists()
    assert list((out / "alpha_0.5").iterdir()) == []  # a failed cell writes no file

    # every cell out of memory: the table and manifest are still written, and the
    # sweep exits as the command line does on memory errors
    out = tmp_path / "all failed"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0.5"]) == ConfigError.exit_code == 2
    assert "out of memory" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["failed_alphas"] == [0.5]
    assert "FAILED: out of memory" in (out / "sweep_table.txt").read_text()


def test_sweep_interrupted_keeps_the_finished_rows(tmp_path, monkeypatch):
    def interrupt(params):
        raise KeyboardInterrupt

    diverge_alpha_0_1(monkeypatch, interrupt)
    cfg = write_config(tmp_path, train={"epochs": 2})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0,0.1,0.5"]) == EXIT_CODES["interrupted"]
    table = (out / "sweep_table.txt").read_text().splitlines()
    assert len(table) == 2 and table[1].startswith("0 ") and "FAILED" not in table[1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["interrupted"] is True and manifest["failed_alphas"] == []
    assert (out / "alpha_0" / "report.txt").exists()
    assert read_log(out / "alpha_0.1")[-1] == {"phase": "interrupted"}
    assert_finite_checkpoint(out / "alpha_0.1" / "checkpoint.bin")
    assert not (out / "alpha_0.1" / "report.txt").exists()
    assert list((out / "alpha_0.5").iterdir()) == []  # stopped before the third run


def test_sweep_empty_test_split_is_refused_before_training(tmp_path, capsys):
    cfg = write_config(tmp_path, synthetic={"n_test": 0})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                 "--alphas", "0,1"]) == EXIT_CODES["data"]
    assert "test split is empty" in capsys.readouterr().err
    assert not out.exists()


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

    # the endpoints t=0 and t=1 match standalone one-column greedy decodes of z1 and z2
    params, vocab, _ = load_checkpoint(out / "checkpoint.bin")
    rng = np.random.default_rng(9)
    ends = [rng.standard_normal(params.latent_dim) for _ in range(2)]
    assert lines == [" ".join(vocab.decode(decode_greedy(z[:, None], 8, params)[0]))
                     for z in ends]


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

    # line i is the one-column greedy decode of the i-th successive prior draw
    params, vocab, _ = load_checkpoint(out / "checkpoint.bin")
    rng = np.random.default_rng(2)
    draws = [rng.standard_normal(params.latent_dim) for _ in range(3)]
    assert lines == [" ".join(vocab.decode(decode_greedy(z[:, None], 6, params)[0]))
                     for z in draws]


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_selfcheck_corrupted_backward_fails(capsys, monkeypatch):
    # negative control: a cell that scales h, which the hand-written BPTT does not know;
    # exactly the checks whose gradients pass through the LSTM recurrence fail
    import textvae.model as model_mod

    real = model_mod.lstm_step

    def scaled(*inputs):
        h, c, gates = real(*inputs)
        return 1.5 * h, c, gates

    monkeypatch.setattr(model_mod, "lstm_step", scaled)
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    failed = [line.split("  ")[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["gradients: lstm recurrence", "gradients: full objective"]
    assert "3/5 checks passed" in out
