"""Command-line entry point: synth / train / eval / graph / diag.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
Human-readable logs go to stderr; primary results go to files (and to stdout
as JSON under --json). Every command writes a run_manifest.json next to its
outputs with the resolved configuration, seed, paths, and wall-clock time,
so a run can be replayed exactly; timestamps live only there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .features import (
    DataError,
    SynthSpec,
    apply_standardizer,
    feature_csv_text,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .graph import build_cosine_graph, build_temporal_graph, export_dot, export_graph_json
from .gradcheck import run_gradcheck
from .model import ModelConfig, load_checkpoint, param_count, save_checkpoint
from .training import (
    TrainConfig,
    evaluate,
    CVResult,
    loso_cv,
    run_fold,
    write_history_csv,
    write_metrics_json,
)
from .util import write_text_atomic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse default is 2, which we reserve for data)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _write_run_manifest(out_dir: Path, command: str, config: dict, started: float,
                        inputs: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": config.get("seed"),
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "started_at_unix": started,
        "duration_sec": time.time() - started,
    }
    write_text_atomic(out_dir / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")


def _claim_output(path: str) -> Path:
    """The ``-o`` directory, checked before any data is read: no part of the
    path may be a file."""
    out = Path(path)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ValueError(f"{out}: not usable as an output directory ({blocker} is not a directory)")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    started = time.time()
    spec = SynthSpec(
        n_classes=args.classes,
        n_speakers=args.speakers,
        utt_per_speaker=args.utts,
        frames_lo=args.frames_lo,
        frames_hi=args.frames_hi,
        noise_frac=args.noise,
        d=args.dim,
        cluster_sep=args.sep,
        seed=args.seed,
    )
    out = _claim_output(args.out)
    dataset = synth_dataset(spec)
    save_dataset(dataset, out, force=args.force)
    _write_run_manifest(out, "synth", asdict(spec), started,
                        inputs={}, outputs=[str(out / "manifest.jsonl")])
    print(f"wrote {len(dataset.utterances)} utterances to {out}")
    return EXIT_OK


def _train_config(args, dataset) -> TrainConfig:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # num_layers keeps its default: run_fold sets each trial's K from the grid
    model = ModelConfig(
        in_dim=dataset.d,
        hidden_dim=args.z,
        num_classes=dataset.n_classes,
        use_pre=not args.no_pre,
        use_skip=not args.no_skip,
        dropout=args.dropout,
        dtype=args.dtype,
    )
    return TrainConfig(
        model=model,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        gamma_grid=args.gamma,
        k_grid=args.k,
        seed=args.seed,
        graph_kind=args.graph,
    )


def cmd_train(args) -> int:
    started = time.time()
    out = _claim_output(args.out)
    dataset = load_dataset(args.data)
    tc = _train_config(args, dataset)

    if args.holdout:
        speakers = dataset.speakers
        if args.holdout not in speakers:
            raise DataError(
                f"unknown holdout speaker '{args.holdout}'; available: {', '.join(speakers)}"
            )
        result = CVResult([run_fold(dataset, tc, speakers.index(args.holdout))],
                          dataset.class_names)
    else:
        result = loso_cv(dataset, tc, jobs=args.jobs)

    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    metrics_path = out / "metrics.json"
    write_metrics_json(result, metrics_path)
    outputs.append(str(metrics_path))
    for fold in result.folds:
        ckpt_path = out / f"fold_{fold.speaker}.json"
        save_checkpoint(
            ckpt_path,
            fold.params,
            fold.selected.config,
            dataset.class_names,
            standardizer=fold.stats,
            train_meta={"gamma": fold.selected_gamma, "graph_kind": tc.graph_kind},
        )
        history_path = out / f"fold_{fold.speaker}_history.csv"
        write_history_csv(fold.selected.history, history_path)
        outputs += [str(ckpt_path), str(history_path)]
        _log(
            f"fold {fold.speaker}: wa={fold.metrics.wa:.4f} ua={fold.metrics.ua:.4f} "
            f"(K={fold.selected.config.num_layers}, gamma={fold.selected_gamma})"
        )

    config_dict = {**asdict(tc), "jobs": args.jobs, "holdout": args.holdout}
    del config_dict["model"]["num_layers"]  # each fold selects its K from k_grid
    _write_run_manifest(out, "train", config_dict, started,
                        inputs={"data": str(args.data)}, outputs=outputs)
    print(f"mean_wa={result.mean_wa:.6f} mean_ua={result.mean_ua:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.time()
    out = args.out and _claim_output(args.out)
    ckpt = load_checkpoint(Path(args.ckpt))
    dataset = load_dataset(args.data, class_names=ckpt.class_names)
    if dataset.d != ckpt.config.in_dim:
        raise DataError(f"{args.data}: feature dimension d={dataset.d} does not match "
                        f"{args.ckpt} in_dim={ckpt.config.in_dim}")
    if args.speaker:
        dataset = dataset.subset_speakers([args.speaker])

    gamma = args.gamma if args.gamma is not None else ckpt.train_meta["gamma"]
    graph_kind = args.graph or ckpt.train_meta["graph_kind"]
    try:  # finite weights or statistics can still overflow on this data
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            dataset = apply_standardizer(dataset, ckpt.standardizer)
            metrics = evaluate(ckpt.params, ckpt.config, dataset, gamma, graph_kind)
    except FloatingPointError as exc:
        raise DataError(f"{args.ckpt}: checkpoint gives non-finite numbers on this data "
                        f"({exc})") from exc

    payload = {
        "wa": metrics.wa,
        "ua": metrics.ua,
        "confusion": metrics.confusion.tolist(),
        "n_utterances": int(metrics.confusion.sum()),
        "class_names": list(ckpt.class_names),
    }
    if out:
        out.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out / "eval_metrics.json", json.dumps(payload, indent=2) + "\n")
        _write_run_manifest(
            out, "eval",
            {"ckpt": str(args.ckpt), "data": str(args.data), "speaker": args.speaker,
             "gamma": gamma, "graph_kind": graph_kind, "seed": None},
            started,
            inputs={"ckpt": str(args.ckpt), "data": str(args.data)},
            outputs=[str(out / "eval_metrics.json")],
        )
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"wa={metrics.wa:.6f} ua={metrics.ua:.6f} n={payload['n_utterances']}")
    return EXIT_OK


def cmd_graph(args) -> int:
    started = time.time()
    out = _claim_output(args.out)
    dataset = load_dataset(args.data)
    utt = dataset.by_id(args.utt)
    if args.temporal:
        g = build_temporal_graph(utt.features)
        kind = {"graph_kind": "temporal"}
    else:
        g = build_cosine_graph(utt.features, args.gamma)
        kind = {"graph_kind": "cosine", "gamma": args.gamma}
    out.mkdir(parents=True, exist_ok=True)
    export_dot(g, out / f"{utt.id}.dot")
    export_graph_json(g, out / f"{utt.id}.json")
    write_text_atomic(out / f"{utt.id}_features.csv", feature_csv_text(utt.features))
    _write_run_manifest(
        out, "graph", {"utt": args.utt, **kind, "seed": None}, started,
        inputs={"data": str(args.data)},
        outputs=[str(out / f"{utt.id}{ext}") for ext in (".dot", ".json", "_features.csv")],
    )
    print(f"{utt.id}: {g.n_nodes} nodes, {len(g.edges())} edges")
    return EXIT_OK


def cmd_diag_params(args) -> int:
    config = ModelConfig(
        in_dim=args.d,
        hidden_dim=args.z,
        num_layers=args.k,
        num_classes=args.c,
        use_pre=not args.no_pre,
    )
    print(param_count(config))
    return EXIT_OK


def cmd_diag_gradcheck(args) -> int:
    report = run_gradcheck(n_instances=args.trials, seed=args.seed)
    print(
        f"gradcheck: {report.n_instances} instances, "
        f"max relative error {report.max_rel_error:.3e} (tolerance 1.0e-04), "
        f"worst: instance {report.worst_instance} '{report.worst_param}'"
    )
    return EXIT_OK if report.passed() else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="cogcn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cogcn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--speakers", type=int, default=8)
    p.add_argument("--utts", type=int, default=20, help="utterances per speaker")
    p.add_argument("--noise", type=float, default=0.3, help="vacuum-frame fraction")
    p.add_argument("--frames-lo", type=int, default=10)
    p.add_argument("--frames-hi", type=int, default=30)
    p.add_argument("--dim", type=int, default=88, help="feature dimension")
    p.add_argument("--sep", type=float, default=3.0, help="class-cluster separation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train with leave-one-speaker-out CV")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--graph", choices=("cosine", "temporal"), default="cosine")
    p.add_argument("--gamma", type=_float_list, default=(0.5, 0.55, 0.6),
                   help="similarity thresholds searched per fold, comma-separated; "
                   "one value fixes it")
    p.add_argument("--k", type=_int_list, default=(2, 3, 4),
                   help="layer counts searched per fold, comma-separated; one value fixes it")
    p.add_argument("--z", type=int, default=128, help="hidden units")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--no-skip", action="store_true")
    p.add_argument("--no-pre", action="store_true")
    p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    p.add_argument("--holdout", default=None,
                   help="single split testing on this speaker instead of full CV")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--speaker", default=None, help="restrict to one speaker")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--graph", choices=("cosine", "temporal"), default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph", help="export one utterance's graph (DOT/JSON/CSV)")
    p.add_argument("--data", required=True)
    p.add_argument("--utt", required=True)
    graph_kind = p.add_mutually_exclusive_group(required=True)
    graph_kind.add_argument("--gamma", type=float)
    graph_kind.add_argument("--temporal", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("diag", help="diagnostics")
    diag_sub = p.add_subparsers(dest="diag_command", required=True)

    q = diag_sub.add_parser("params", help="exact parameter count")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--no-pre", action="store_true")
    q.set_defaults(func=cmd_diag_params)

    q = diag_sub.add_parser("gradcheck", help="finite-difference gradient check")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=20)
    q.set_defaults(func=cmd_diag_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
