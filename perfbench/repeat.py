"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/new.json

For every workload of BENCHMARK.json it runs ``run.py --trace 0`` once per
seed for ``run_seconds``, then one ``--trace 1`` run on the first seed. For
each end-to-end metric it reports the median, the quartiles of
``statistics.quantiles(n=4)`` and their distance as a share of the median,
next to the metric's bound in BENCHMARK.json. It exits 1 when a run is
incorrect or a spread exceeds its bound. The JSON written to ``--out`` holds every run's result line,
its wall time and the environment record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "elapsed_s": elapsed, "env": detail["env"],
            "result": result}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        summary = {}
        print(f"{workload}: runs took {min(r['elapsed_s'] for r in runs):.1f}-"
              f"{max(r['elapsed_s'] for r in runs):.1f} s")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {**spread(values), "bound": metric["bound"], "values": values}
            s = summary[name]
            within = s["spread"] <= metric["bound"]
            ok = ok and within
            print(f"  {name:14s} median {s['median']:10.4f} {metric['unit']:6s} "
                  f"spread {s['spread']:6.3f} (bound {metric['bound']}) "
                  f"{'ok' if within else 'OVER'}")
        entry = {"runs": runs, "summary": summary,
                 "correct": all(r["result"]["correct"] for r in runs)}
        ok = ok and entry["correct"]
        entry["traced"] = run_once(workload, args.seeds[0], seconds, 1)
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
