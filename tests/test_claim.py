"""The paper's claim at tier-1 size: the fraternal twin pass raises latent use.

The abstract claims "improvements in all the tested configurations".  Each
case runs ``sweep --alphas 0,1`` on the default grammar at dims 8/16/32 (512
train, 64 dev and 200 test sentences, 8 epochs, lr 5e-3, ``keep_prob`` 0.7,
evaluation at 20 posterior samples) under one countermeasure setting and one
seed, and reads each cell's ``report.txt``.  The expectation is the one that
held in every probe: the alpha = 1 cell has more mutual information between x
and z than the alpha = 0 cell.  Its ``iw_nll`` is not compared, because at these
sizes alpha = 1 costs likelihood.
"""

import json

import pytest

from textvae.cli import main

# config overrides of each tested configuration: beta = 1 from the first step, or
# warmup_steps unset, which anneals beta over 10 epochs' worth of batches
CONFIGURATIONS = {"no countermeasure": {"warmup_steps": 1}, "annealing": {"warmup_steps": None}}
SEEDS = (0, 1, 2)


def read_report(path) -> dict[str, str]:
    """A ``report.txt`` as key -> value text, one ``key: value`` line each."""
    return dict(line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("configuration", list(CONFIGURATIONS))
def test_twin_pass_raises_mutual_information(tmp_path, configuration, seed):
    config = {
        "train": {"latent_dim": 8, "embed_dim": 16, "hidden_dim": 32, "epochs": 8, "lr": 5e-3,
                  "keep_prob": 0.7, "seed": seed, **CONFIGURATIONS[configuration]},
        "synthetic": {"n_train": 512, "n_dev": 64, "n_test": 200},
        "eval": {"n_samples": 20},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--alphas", "0,1", "--out-dir", str(out)]) == 0
    plain, twin = (read_report(out / f"alpha_{a}" / "report.txt") for a in (0, 1))
    assert float(twin["mi"]) > float(plain["mi"]), (plain, twin)
