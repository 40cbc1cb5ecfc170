"""cogcn benchmark: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload loso_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``src/cogcn``). It writes
the workload's inputs from ``--seed`` under ``perfbench/out/``, then starts
one child process after the other (``perfbench/child.py``, ``--jobs 1``
throughout). The number of children is fixed by ``--seconds`` and the
workload's nominal child time, at least two, so that it does not depend on
how fast the code under test is. Each child imports cogcn, loads the inputs
and runs the workload's job once.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, taken over
the children (timings from each piece's fastest repetition, the 99th
latency percentile from the lowest child's own stream; see README.md).
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics: medians over the traced children, plus the
traced-minus-untraced wall time. Every run checks the program's outputs and
counts failed operations. The last stdout line is the result object; the line
before it records the environment and per-child detail, which also go to
``perfbench/out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import check_metric_name, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: the jobs are single-process (`--jobs 1`) and extra threads
# on a small shared machine add spread, not speed. Recorded with each result.
BLAS_THREADS = "1"
# Children are stopped so that a run ends within 170 s even if one hangs.
DEADLINE_S = 170.0
# infer_ref's served model; untrained weights cost the same dense work as
# trained ones
HIDDEN_DIM, NUM_LAYERS, GAMMA = 128, 2, 0.5
# Set-up-only children run before each job child: set-up is short and noisy,
# so it gets more samples than the job.
SETUP_CHILDREN = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cogcn" / "__init__.py").is_file():
        print(f"error: no cogcn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for metric in wanted:
        check_metric_name(metric["name"])

    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = out / "inputs"
    generate(workload, args.seed, inputs)

    children, setups = [], []
    deadline = STARTED + DEADLINE_S
    probe = args.trace == 0 and workload.kind == "loso"
    for i in range(max(2, round(args.seconds / workload.child_s))):
        traced = args.trace == 1 and i % 2 == 1
        if args.trace == 0:
            for j in range(SETUP_CHILDREN):
                setups.append(run_child(workload, args.seed, inputs, out / f"setup{i}-{j}",
                                        False, False, deadline, setup_only=True))
        children.append(run_child(workload, args.seed, inputs, out / f"iter{i}",
                                  traced, probe, deadline))

    failed = sum(c["failed"] for c in children) + compare_outputs(workload, out, children)
    attempted = sum(c["attempted"] for c in children)
    values = trace_figures(children) if args.trace else end_to_end(children, setups)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise SystemExit(f"error: metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    prune(out)
    for child in children:
        del child["segments"], child["requests"]
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "children": children,
              "setup_children": setups}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def generate(workload, seed: int, inputs: Path) -> None:
    """Write the workload's corpus (and served checkpoint) for ``seed``."""
    sys.path.insert(0, str(SRC))
    from cogcn.features import SynthSpec, fit_standardizer, save_dataset, synth_dataset
    from cogcn.model import ModelConfig, init_params, save_checkpoint

    dataset = synth_dataset(SynthSpec(**workload.corpus, seed=seed))
    save_dataset(dataset, inputs / "data")
    if workload.kind == "infer":
        config = ModelConfig(in_dim=dataset.d, hidden_dim=HIDDEN_DIM, num_layers=NUM_LAYERS,
                             num_classes=dataset.n_classes)
        save_checkpoint(inputs / "model.json", init_params(config, seed), config,
                        dataset.class_names, fit_standardizer(dataset, dataset.ids),
                        {"gamma": GAMMA, "graph_kind": "cosine"})


def run_child(workload, seed: int, inputs: Path, out: Path, traced: bool,
              probe: bool, deadline: float, setup_only: bool = False) -> dict:
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--inputs", str(inputs), "--out", str(out),
           "--trace", str(int(traced)), "--probe", str(int(probe)),
           "--setup-only", str(int(setup_only))]
    with open(out / "stderr.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, env=env, text=True,
                                  timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: child {out.name} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (out / "stderr.log").read_text(encoding="utf-8")[-2000:]
        raise SystemExit(f"error: child {out.name} exited {proc.returncode}\n{tail}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    child["traced"] = traced
    return child


def compare_outputs(workload, out: Path, children: list) -> int:
    """Count children whose result files differ byte-wise from the first child's."""
    names = ([f"{arm}/metrics.json" for arm in workload.arms]
             if workload.kind == "loso" else ["predictions.json"])

    def contents(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    mismatched = 0
    for i, child in enumerate(children[1:], start=1):
        differing = []
        for name in names:
            mine = contents(out / f"iter{i}" / name)
            if not mine or mine != contents(out / "iter0" / name):
                differing.append(name)
        if differing:
            child["problems"].append(f"differs from iter0: {differing}")
            mismatched += 1
    return mismatched


def prune(out: Path) -> None:
    """Delete the inputs and the program's outputs once checked; keep spans and logs."""
    shutil.rmtree(out / "inputs")
    for child_dir in out.glob("iter*"):
        for path in child_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path.name not in ("spans.jsonl", "stderr.log"):
                path.unlink()


def fastest(children: list, field: str) -> list[float]:
    """The first child's ``field`` pieces, each at its fastest time in any child.

    Identical work on the small shared machine this was tuned on ran up to
    twice as slow for stretches of seconds to minutes, which a median over a
    few children cannot average out. Every piece (the import, one load, one
    batch between Adam steps, one request) runs the same work in every child,
    so its fastest time is the steadier estimate of what the code costs, as
    with ``timeit``.
    """
    best: dict[str, float] = {}
    for child in children:
        for key, seconds in child[field]:
            best[key] = min(seconds, best.get(key, seconds))
    return [best[key] for key, _ in children[0][field]]


def end_to_end(children: list, setups: list) -> dict:
    figures = {
        "setup_s": sum(fastest(children + setups, "setup")),
        "wall_s": sum(fastest(children, "segments")),
        "mean_ua": children[0]["ua"].get("cosine"),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }
    if children[0]["requests"]:
        # The typical request, like every other piece, counts at its fastest:
        # each utterance at the fastest of its many serves in the run.
        figures["infer_p50_ms"] = percentile(fastest(children, "requests"), 50.0) * 1e3
        # A tail only raw streams hold: each child's 99th percentile over its
        # own requests (at least 1000), at the lowest child.
        figures["infer_p99_ms"] = min(c["p99_ms"] for c in children)
    return {name: value for name, value in figures.items() if value is not None}


def trace_figures(children: list) -> dict:
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    figures = {name: statistics.median(c["layers"][name] for c in traced)
               for name in traced[0]["layers"]}
    figures["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                   - statistics.median(c["wall_s"] for c in plain))
    return figures


def environment() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    sha = None
    if (ROOT / ".git").exists():  # a bare source checkout carries no history
        try:
            sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cogcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
