"""One measured iteration of a workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --inputs DIR --out DIR \
        --trace 0|1 --probe 0|1 --setup-only 0|1

Times the import of cogcn plus loading its inputs (set-up), then the
workload's job, and prints one JSON object on stdout. Untraced, it also times
the pieces of set-up (the import, each load) and of the job (each batch, cut
at every ``adam_step``; each request).
``--probe 1`` (loso workloads) also classifies the held-out utterances of each
trained fold one at a time with the fold's checkpoint. ``--trace 1`` records
spans around the calls into cogcn, reports per-layer figures and writes the
spans to ``OUT/spans.jsonl`` when it ends. ``--setup-only 1`` times the
set-up pieces alone and runs no job. The metrics are defined in README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from spans import layer_metrics, percentile, span_stats, tail_percentile, union_length
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs, out = Path(args.inputs), Path(args.out)

    t0 = time.perf_counter()
    from cogcn import cli, features, model, training  # noqa: F401  (timed import)
    import_s = time.perf_counter() - t0

    if args.setup_only:
        print(json.dumps(_setup_only(workload, inputs, import_s)))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if workload.kind == "loso":
        result = _run_loso(workload, args.seed, inputs, out, import_s, tracer)
        if args.probe:
            _probe_folds(result, inputs, out / "cosine", workload.requests)
    else:
        result = _run_infer(inputs, out, import_s, tracer, workload.requests)

    if tracer is not None:
        result["layers"] = _layer_figures(tracer, result.pop("job_intervals"))
        tracer.dump(out / "spans.jsonl")
    result.pop("job_intervals", None)
    latencies = [seconds for _, seconds in result["requests"]]
    if latencies:
        result["n_requests"] = len(latencies)
        result["p50_ms"] = percentile(latencies, 50.0) * 1e3
        result["p99_ms"] = percentile(latencies, tail_percentile(len(latencies))) * 1e3
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _new_result(import_s: float) -> dict:
    # "setup" tiles the set-up and "segments" the job, each as [key, seconds]
    # in order; a key names the same work in every child, so the parent can
    # take each piece's fastest time across children. "requests" lists every
    # single-utterance call as [utterance id, seconds], in the same order in
    # every child.
    return {"setup_s": import_s, "wall_s": 0.0, "attempted": 0, "failed": 0,
            "problems": [], "setup": [["import", import_s]], "segments": [],
            "requests": [], "job_intervals": []}


def _timed(fn, sink: list):
    """``fn`` with each call's duration appended to ``sink``."""

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return timed


def _fail(result: dict, message: str) -> None:
    result["failed"] += 1
    result["problems"].append(message)


def _setup_only(workload, inputs: Path, import_s: float) -> dict:
    """The loads a job child times as set-up, with the same keys, and no job."""
    from cogcn import features, model

    setup = [["import", import_s]]
    loads = ([(f"load-{arm}", features.load_dataset, inputs / "data") for arm in workload.arms]
             if workload.kind == "loso" else
             [("load_dataset", features.load_dataset, inputs / "data"),
              ("load_checkpoint", model.load_checkpoint, inputs / "model.json")])
    for key, load, path in loads:
        start = time.perf_counter()
        load(path)
        setup.append([key, time.perf_counter() - start])
    return {"setup": setup, "setup_s": sum(seconds for _, seconds in setup)}


# ---------------------------------------------------------------------------
# loso: `cogcn train` in-process, one call per graph-kind arm


def _run_loso(workload, seed: int, inputs: Path, out: Path, import_s: float,
              tracer) -> dict:
    from cogcn import cli, training

    result = _new_result(import_s)
    # "wall" starts once the data is loaded, so the load counts as set-up
    load_times: list[float] = []
    cli.load_dataset = _timed(cli.load_dataset, load_times)
    # One timestamp after every Adam step cuts each job into batches; the
    # parent keeps each batch at its fastest across children. Without an
    # `adam_step` to stamp, each arm is one piece.
    steps: list[float] = []
    if tracer is None and hasattr(training, "adam_step"):
        adam_step = training.adam_step

        def stamped_adam_step(*args, **kwargs):
            stepped = adam_step(*args, **kwargs)
            steps.append(time.perf_counter())
            return stepped

        training.adam_step = stamped_adam_step
    data = inputs / "data"
    n_speakers = workload.corpus["n_speakers"]
    result["ua"] = {}
    for arm in workload.arms:
        argv = ["train", "--data", str(data), "--graph", arm, *workload.train_args,
                "--seed", str(seed), "--jobs", "1", "-o", str(out / arm)]
        if tracer is not None:
            tracer.run_id = f"train-{arm}"
        n_loads, n_steps = len(load_times), len(steps)
        start = time.perf_counter()
        rc = cli.main(argv)
        end = time.perf_counter()
        load_s = sum(load_times[n_loads:])
        result["setup_s"] += load_s
        result["setup"].append([f"load-{arm}", load_s])
        result["wall_s"] += end - start - load_s
        result["job_intervals"].append((start, end))
        cuts = [start + load_s, *steps[n_steps:], end]
        result["segments"] += [
            [f"{arm}-{i}", b - a] for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
        ]
        result["attempted"] += 1
        if rc != 0:
            _fail(result, f"{arm}: cogcn train exited {rc}")
            continue
        problem = _check_metrics(out / arm / "metrics.json", n_speakers)
        if problem:
            _fail(result, f"{arm}: {problem}")
            continue
        result["ua"][arm] = json.loads((out / arm / "metrics.json").read_text())["mean_ua"]
    return result


def _check_metrics(path: Path, n_speakers: int) -> str | None:
    if not path.is_file():
        return f"{path.name} not written"
    metrics = json.loads(path.read_text())
    folds = metrics["folds"]
    speakers = {f["speaker"] for f in folds}
    if len(folds) != n_speakers or len(speakers) != n_speakers:
        return f"{len(folds)} folds over {len(speakers)} speakers, expected {n_speakers}"
    for value in [metrics["mean_ua"], metrics["mean_wa"]] + [
        f[k] for f in folds for k in ("ua", "wa")
    ]:
        if not 0.0 <= value <= 1.0:
            return f"accuracy {value} outside [0, 1]"
    return None


def _probe_folds(result: dict, inputs: Path, run_dir: Path, n_requests: int) -> None:
    """Serve each fold's checkpoint on its held-out speaker, one utterance a call.

    This is the path `cogcn eval` takes. The predictions must rebuild the
    fold's confusion matrix in metrics.json.
    """
    from cogcn import features, model

    if "cosine" not in result["ua"]:
        return
    folds = json.loads((run_dir / "metrics.json").read_text())["folds"]
    dataset = None
    served = []
    for fold in folds:
        ckpt = model.load_checkpoint(run_dir / f"fold_{fold['speaker']}.json")
        if dataset is None:
            dataset = features.load_dataset(inputs / "data", class_names=ckpt.class_names)
        utts = [u for u in dataset.utterances if u.speaker == fold["speaker"]]
        served.append((fold, ckpt, _requests(dataset, utts)))
    n_utts = sum(len(requests) for *_, requests in served)
    for cycle in range(-(-n_requests // n_utts)):
        for fold, ckpt, requests in served:
            preds = _serve(result, ckpt, requests)
            if cycle == 0:
                confusion = _confusion(requests, preds)
                if confusion != fold["confusion"]:
                    _fail(result, f"fold {fold['speaker']}: served predictions do "
                                  f"not rebuild the confusion matrix in metrics.json")


def _requests(dataset, utts) -> list:
    from cogcn import features

    return [features.Dataset((u,), dataset.d, dataset.class_names) for u in utts]


def _confusion(requests, preds) -> list[list[int]]:
    n = len(requests[0].class_names)
    confusion = [[0] * n for _ in range(n)]
    for req, pred in zip(requests, preds):
        confusion[req.utterances[0].label][pred] += 1
    return confusion


def _serve(result: dict, ckpt, requests, tracer=None) -> list[int]:
    """Classify each one-utterance dataset in its own call, as `cogcn eval` would.

    Appends ``[utterance id, latency]`` per request to the result and returns
    the predictions.
    """
    from cogcn import features, training

    gamma, kind = ckpt.train_meta["gamma"], ckpt.train_meta["graph_kind"]
    preds = []
    for req in requests:
        if tracer is not None:
            tracer.run_id = f"request{len(result['requests'])}"
        start = time.perf_counter()
        std = features.apply_standardizer(req, ckpt.standardizer)
        metrics = training.evaluate(ckpt.params, ckpt.config, std, gamma, kind)
        result["requests"].append([req.utterances[0].id, time.perf_counter() - start])
        preds.append(int(metrics.confusion.sum(axis=0).argmax()))
    result["attempted"] += len(requests)
    return preds


# ---------------------------------------------------------------------------
# infer: one checkpoint serves single-utterance requests


def _run_infer(inputs: Path, out: Path, import_s: float, tracer, n_requests: int) -> dict:
    from cogcn import features, model, training

    result = _new_result(import_s)
    start = time.perf_counter()
    dataset = features.load_dataset(inputs / "data")
    loaded = time.perf_counter()
    ckpt = model.load_checkpoint(inputs / "model.json")
    end = time.perf_counter()
    result["setup_s"] += end - start
    result["setup"] += [["load_dataset", loaded - start], ["load_checkpoint", end - loaded]]
    requests = _requests(dataset, dataset.utterances)

    start = time.perf_counter()
    all_preds = []
    for _ in range(-(-n_requests // len(requests))):
        all_preds.append(_serve(result, ckpt, requests, tracer))
    end = time.perf_counter()
    result["wall_s"] = end - start
    result["job_intervals"].append((start, end))
    result["segments"] = result["requests"]

    preds = all_preds[0]
    for cycle, other in enumerate(all_preds[1:], start=1):
        if other != preds:
            _fail(result, f"cycle {cycle} predictions differ from cycle 0")
    confusion = _confusion(requests, preds)
    result["ua"] = {"cosine": training.metrics_from_confusion(confusion).ua}
    (out / "predictions.json").write_text(json.dumps(preds) + "\n")

    if tracer is None:
        # the same checkpoint on the whole request set at once, as `cogcn eval`
        # runs it; kept out of traced runs so it adds no spans
        whole = training.evaluate(
            ckpt.params, ckpt.config, features.apply_standardizer(dataset, ckpt.standardizer),
            ckpt.train_meta["gamma"], ckpt.train_meta["graph_kind"],
        )
        if whole.confusion.tolist() != confusion:
            _fail(result, "per-request predictions differ from one whole-set evaluate")
    return result


# ---------------------------------------------------------------------------
# traced figures


def _layer_figures(tracer, job_intervals) -> dict:
    from tracer import SPAN_NAMES

    spans = [tuple(s) for s in tracer.spans]
    figures = layer_metrics(span_stats(spans), SPAN_NAMES)
    figures["graph.nodes"] = tracer.nodes
    figures["graph.coeff_density"] = (
        tracer.coeff_nonzero / tracer.coeff_entries if tracer.coeff_entries else 0.0
    )
    in_jobs = [
        (start, end) for _, start, end, _, _ in spans
        if any(a <= start and end <= b for a, b in job_intervals)
    ]
    figures["trace.unattributed_s"] = (
        sum(b - a for a, b in job_intervals) - union_length(in_jobs)
    )
    return figures


if __name__ == "__main__":
    sys.exit(main())
