"""Mutation check of the math: does the tier-1 suite notice a plausible bug?

Each mutant replaces one exact piece of text in ``src/textvae`` with a
semantically different one.  The runner applies one mutant at a time to a
fresh copy of the repository (without ``.git``) in a temporary directory
and runs the tier-1 suite there, stopping at the first failure.
A mutant is killed when the suite fails or hangs and survives when it passes.
Mutants run one after another, never in parallel.  A full run takes about
one tier-1 run per mutant at most.

An equivalent mutant gives the same results as the original on every input
the program can meet; it carries the reason, and its survival is expected.

Usage, from the repository root:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named mutants only

Prints one line per mutant (killed or survived, the first failing test,
seconds) and exits 1 if a mutant no longer applies to the source or a
mutant not marked equivalent survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "textvae"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 600  # per mutant; tier-1 takes well under a minute


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/textvae
    old: str   # must occur exactly once in the file
    new: str
    equivalent: str | None = None  # why no input can tell it from the original


MUTANTS = [
    # the six survivors of the first mutation check of the math
    Mutant("best epoch on train total", "training.py",
           'val = elbo if corpus.dev else record["total"]', 'val = record["total"]'),
    Mutant("best epoch ties keep the later", "training.py",
           "if val < best_val:", "if val <= best_val:",
           equivalent="differs only when two epochs tie exactly on the selection value, "
                      "and then either epoch is a best one"),
    Mutant("dev ELBO keeps free bits", "training.py",
           "replace(config, alpha=0.0, free_bits=0.0)", "replace(config, alpha=0.0)"),
    Mutant("pretraining keeps word dropout", "training.py",
           "alpha=0.0,\n                            keep_prob=1.0, free_bits=0.0)",
           "alpha=0.0,\n                            free_bits=0.0)"),
    Mutant("reparameterize sigma exponent", "model.py",
           "ad.exp(ad.scale(post.logvar, 0.5))", "ad.exp(ad.scale(post.logvar, 0.49))"),
    Mutant("MI snaps estimates below 1e-3", "metrics.py",
           "if abs(raw) < 1e-9:", "if abs(raw) < 1e-3:"),
    # one per backward rule in autodiff
    Mutant("tape overwrites a shared adjoint", "autodiff.py",
           "adjoints[inp] += contrib", "adjoints[inp] = contrib"),
    Mutant("add: second adjoint negated", "autodiff.py",
           "return (g if a.requires_grad else None, g if b.requires_grad else None)",
           "return (g if a.requires_grad else None, -g if b.requires_grad else None)"),
    Mutant("sub: second adjoint not negated", "autodiff.py",
           "return (g if a.requires_grad else None, -g if b.requires_grad else None)",
           "return (g if a.requires_grad else None, g if b.requires_grad else None)"),
    Mutant("mul: first adjoint uses its own operand", "autodiff.py",
           "return (g * bd if a.requires_grad", "return (g * ad if a.requires_grad"),
    Mutant("scale: constant dropped", "autodiff.py", "return (g * c,)", "return (g,)"),
    Mutant("exp: output adjoint dropped", "autodiff.py", "return (g * y,)", "return (y,)"),
    Mutant("affine: no adjoint for the weight", "autodiff.py",
           "return (g @ xd.T if w.requires_grad else None,", "return (None,"),
    Mutant("affine: bias adjoint averaged", "autodiff.py",
           "g.sum(axis=1, keepdims=True) if b.requires_grad",
           "g.mean(axis=1, keepdims=True) if b.requires_grad"),
    Mutant("select_columns: repeated indices overwrite", "autodiff.py",
           "np.add.at(full, (slice(None), ids), g)", "full[:, ids] = g"),
    Mutant("column_sums: adjoint divided by the rows", "autodiff.py",
           "return (np.broadcast_to(g, shp),)", "return (np.broadcast_to(g / shp[0], shp),)"),
    Mutant("maximum_scalar: gradient passes below the floor", "autodiff.py",
           "return (g * (xd >= c),)", "return (g * np.ones_like(xd),)"),
    Mutant("reduce_mean: adjoint not divided", "autodiff.py",
           "return (np.broadcast_to(g / n, shp),)", "return (np.broadcast_to(g, shp),)"),
    # one per backward rule in model
    Mutant("lstm: cell adjoint skips the forget gate", "model.py",
           "dc *= f", "dc *= 1.0"),
    Mutant("output layer: adjoint sign flipped", "model.py", "p *= -g", "p *= g"),
    Mutant("sentence_sums: weights dropped from the adjoint", "model.py",
           "return ((g * weights).reshape(1, -1),)",
           "return (np.broadcast_to(g, weights.shape).reshape(1, -1),)"),
    # the row-blocked products and the position sums of the recurrence
    Mutant("blocked matmul: last block skipped", "model.py",
           "for i in range(0, m, r):", "for i in range(0, m - r, r):"),
    Mutant("block rows: the 32-row floor inverted", "model.py",
           "return r if 32 <= r < m else m", "return r if 32 > r < m else m"),
    Mutant("block rows: blocks twice the limit", "model.py",
           "r = 1 << (fits.bit_length() - 1) if fits else 0",
           "r = 1 << fits.bit_length() if fits else 0"),
    Mutant("slab sum: the first position skipped", "model.py",
           "d_pre_sum = slab.sum(axis=0)", "d_pre_sum = slab[1:].sum(axis=0)"),
    # the BPTT slab, the tape's kept adjoints and Adam's efficient form
    Mutant("BPTT slab relaid out without its transpose", "model.py",
           "np.ascontiguousarray(slab.transpose(1, 0, 2))", "np.ascontiguousarray(slab)"),
    Mutant("tape stores one contribution for two inputs", "autodiff.py",
           "and all(contrib is not k for k in kept)", ""),
    Mutant("Adam: eps not rescaled", "training.py",
           "eps_hat = EPS * root_c2", "eps_hat = EPS"),
    Mutant("Adam: alpha_t misses sqrt(1 - beta2^t)", "training.py",
           "alpha_t = lr * root_c2 / (1 - BETA1 ** t)", "alpha_t = lr / (1 - BETA1 ** t)"),
    # the in-place cell, its reused buffers and a shared input's folded gate column
    Mutant("cell: c += i·g before c *= f", "model.py",
           "np.multiply(gates[d: 2 * d], c, out=c_next)\n    c_next += hn",
           "np.add(c, hn, out=c_next)\n    c_next *= gates[d: 2 * d]"),
    Mutant("tape-less output buffer reused across calls", "model.py",
           "H = np.empty((d, TB))\n    cs, gates_seq",
           "H = np.empty((d, TB)) if tape else lstm_recurrence.__dict__.setdefault(\n"
           "        (d, TB), np.empty((d, TB)))\n    cs, gates_seq"),
    Mutant("shared gate column not refreshed per position", "model.py",
           "w_cell[:, d] = cols[:, t]", "w_cell[:, d] = cols[:, 0]"),
    Mutant("shared input: the row of ones left out", "model.py",
           "h = np.ones((w_cell.shape[1], B))", "h = np.zeros((w_cell.shape[1], B))"),
    Mutant("repeated input: operand rows not refreshed per position", "model.py",
           "h[d:] = xd[:, t * B: (t + 1) * B]", "h[d:] = xd[:, :B]"),
    # the dev ELBO's common noise
    Mutant("dev noise reseeded per epoch", "training.py",
           "seed=[config.seed, 1000])", "seed=[config.seed, 1000 + epoch])"),
    # the sentence weighting of each epoch record and of the dev ELBO
    Mutant("each step weighted equally", "training.py",
           "sum(v[k] * n for n, v, _ in steps) / n_sents",
           "sum(v[k] for n, v, _ in steps) / len(steps)"),
    Mutant("each dev batch weighted equally", "training.py",
           "sum(loss * n for n, loss in losses) / sum(n for n, _ in losses)",
           "sum(loss for n, loss in losses) / len(losses)"),
    # one per ELBO term
    Mutant("reconstruction: twins summed, not averaged", "objectives.py",
           "mean_ll = ad.scale(ad.add(ll_a, ll_b), 0.5)", "mean_ll = ad.add(ll_a, ll_b)"),
    Mutant("KL: the -logvar term dropped", "objectives.py",
           "inner = ad.sub(ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), one), logvar)",
           "inner = ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), one)"),
    Mutant("beta: warmup one step ahead", "training.py",
           "min(step / config.warmup_steps, 1.0)", "min((step + 1) / config.warmup_steps, 1.0)"),
    Mutant("free bits: the floor not in the loss", "objectives.py",
           "total = ad.add(reconstruction, ad.scale(kl_effective, beta))",
           "total = ad.add(reconstruction, ad.scale(kl_raw, beta))"),
    Mutant("fraternal penalty: not divided by the hidden dim", "objectives.py",
           "valid / (valid.sum(axis=0) * H_a.shape[0])", "valid / valid.sum(axis=0)"),
    # the allocator thresholds that keep a step's freed memory in the heap
    Mutant("trim threshold not set", "training.py",
           "    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)\n", ""),
    Mutant("mmap threshold not set", "training.py",
           "    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)\n", ""),
]


def mutated(mutant: Mutant) -> str:
    """The text of ``mutant.file`` with the mutant applied; ValueError unless the
    text to replace occurs exactly once."""
    text = (SRC / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the text to replace occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[bool, str, float]:
    """(killed, first failing test or "", seconds) for ``mutant`` on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        (copy / "src" / "textvae" / mutant.file).write_text(mutated(mutant), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a mutant that hangs the suite is detected too
            return True, f"timed out after {TIMEOUT_S} s", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    failed = [line.split(" ", 1)[1].split(" - ")[0]
              for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode != 0, failed[0] if failed else "", seconds


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    try:  # every chosen mutant applies, or none runs
        for mutant in chosen:
            mutated(mutant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    killed = surprises = 0
    for mutant in chosen:
        was_killed, test, seconds = run(mutant)
        killed += was_killed
        surprises += not was_killed and not mutant.equivalent
        verdict = "killed" if was_killed else "survived"
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{verdict:<8}  {mutant.name} [{mutant.file}] {test} {seconds:.0f}s{note}",
              flush=True)
    print(f"{killed} of {len(chosen)} mutants killed; "
          f"{surprises} survivor(s) not marked equivalent")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
