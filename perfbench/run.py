"""Benchmark entry point: one workload, in one process, as a closed loop.

    python3 perfbench/run.py --workload train-plain --seed 1 --seconds 30 --trace 0

Runs against the textvae sources of the checkout this file sits in, with
BLAS pinned to one thread before numpy loads.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; either way the last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
The full record (environment, sample statistics, failed checks) and, for
traced runs, the spans are written under perfbench/results/.
"""

import os

# before numpy is imported anywhere, here or in a child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git directly (never from a parent repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: a few sentences, three short epochs")
    args = ap.parse_args(argv)

    if not (SRC / "textvae" / "__init__.py").is_file():
        print(f"perfbench: no textvae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import textvae

    if Path(textvae.__file__).resolve().parent != SRC / "textvae":
        print(f"perfbench: textvae imported from {textvae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=str(SRC))

    ledger = workloads.Ledger()
    if args.trace:
        metrics, stats = workloads.run_traced(args.workload, args.seed, args.seconds, sizes,
                                              ledger, out_dir / f"{stem}.spans.jsonl")
    else:
        metrics, stats = workloads.run_untraced(args.workload, args.seed, args.seconds, sizes,
                                                ROOT, env, ledger)

    units = declared_units()
    info = environment()
    print("env " + json.dumps(info, sort_keys=True))
    for key, value in sorted(stats.items()):
        print(f"stat {key} {json.dumps(value)}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": info, "stats": stats,
              "failures": ledger.failures, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
