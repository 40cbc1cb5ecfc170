"""Command-line entry point: synth / train / eval / graph / diag.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
Human-readable logs go to stderr; primary results go to files (and to stdout
as JSON under --json). synth, train and graph write a run_manifest.json next
to their outputs with the resolved configuration, seed, paths, and wall-clock
time, so a run can be replayed exactly; timestamps live only there. eval
writes one only with -o, and diag writes no file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .features import (
    DataError,
    SynthSpec,
    feature_csv_text,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .graph import (GRAPH_KINDS, build_cosine_graph, build_temporal_graph, export_dot,
                    export_graph_json)
from .gradcheck import DEFAULT_TOL, run_gradcheck
from .model import DTYPES, ModelConfig, load_checkpoint, param_count, save_checkpoint
from .training import (
    TrainConfig,
    evaluate_checked,
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


def _settings(target, args, **fixed):
    """``target`` called with each of its parameters that ``args`` holds, plus
    ``fixed``; a flag that was left out is not in ``args``."""
    names = inspect.signature(target).parameters
    return target(**{k: v for k, v in vars(args).items() if k in names}, **fixed)


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
    spec = _settings(SynthSpec, args)
    out = _claim_output(args.out)
    dataset = synth_dataset(spec)
    manifest = save_dataset(dataset, out, force=args.force)
    _write_run_manifest(out, "synth", asdict(spec), started, inputs={}, outputs=[str(manifest)])
    print(f"wrote {len(dataset.utterances)} utterances to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    out = _claim_output(args.out)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    dataset = load_dataset(args.data)
    # num_layers keeps its default: run_fold sets each trial's K from the grid
    model = _settings(ModelConfig, args, in_dim=dataset.d, num_classes=dataset.n_classes)
    tc = _settings(TrainConfig, args, model=model)

    if args.holdout and args.holdout not in dataset.speakers:
        raise DataError(f"unknown holdout speaker '{args.holdout}'; "
                        f"available: {', '.join(dataset.speakers)}")
    try:  # a fault found in training names its speaker; the data are named here
        if args.holdout:
            fold = run_fold(dataset, tc, dataset.speakers.index(args.holdout))
            result = CVResult([fold], dataset.class_names)
        else:
            result = loso_cv(dataset, tc, jobs=args.jobs)
    except DataError as exc:
        raise DataError(f"{args.data}: {exc}") from exc

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
            train_meta={"gamma": fold.selected.gamma, "graph_kind": tc.graph_kind},
        )
        history_path = out / f"fold_{fold.speaker}_history.csv"
        write_history_csv(fold.selected.history, history_path)
        outputs += [str(ckpt_path), str(history_path)]
        _log(
            f"fold {fold.speaker}: wa={fold.metrics.wa:.4f} ua={fold.metrics.ua:.4f} "
            f"(K={fold.selected.config.num_layers}, gamma={fold.selected.gamma})"
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
    metrics = evaluate_checked(ckpt.params, ckpt.config, dataset, ckpt.standardizer, gamma,
                               graph_kind, f"{args.ckpt}: checkpoint")

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
    if utt.id == "run_manifest":
        raise DataError(f"{args.data}: utterance id '{utt.id}' would export its graph JSON "
                        "over run_manifest.json")
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
    config = _settings(ModelConfig, args)
    print(param_count(config))
    return EXIT_OK


def cmd_diag_gradcheck(args) -> int:
    report = _settings(run_gradcheck, args)
    print(
        f"gradcheck: {report.n_instances} instances, "
        f"max relative error {report.max_rel_error:.3e} (tolerance {DEFAULT_TOL:.1e}), "
        f"worst: instance {report.worst_instance} '{report.worst_param}'"
    )
    return EXIT_OK if report.passed() else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="cogcn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cogcn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each flag that sets a library field stores into that field's name. In
    # these parsers a flag left out is absent, so the library's default applies.
    absent = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("synth", help="generate a synthetic dataset", **absent)
    p.add_argument("--classes", type=int, dest="n_classes")
    p.add_argument("--speakers", type=int, dest="n_speakers")
    p.add_argument("--utts", type=int, dest="utt_per_speaker", help="utterances per speaker")
    p.add_argument("--noise", type=float, dest="noise_frac", help="vacuum-frame fraction")
    p.add_argument("--frames-lo", type=int)
    p.add_argument("--frames-hi", type=int)
    p.add_argument("--dim", type=int, dest="d", help="feature dimension")
    p.add_argument("--sep", type=float, dest="cluster_sep", help="class-cluster separation")
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true", default=False)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train with leave-one-speaker-out CV", **absent)
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--graph", choices=GRAPH_KINDS, dest="graph_kind")
    p.add_argument("--gamma", type=_float_list, dest="gamma_grid",
                   help="similarity thresholds searched per fold, comma-separated; "
                   "one value fixes it")
    p.add_argument("--k", type=_int_list, dest="k_grid",
                   help="layer counts searched per fold, comma-separated; one value fixes it")
    p.add_argument("--z", type=int, dest="hidden_dim", help="hidden units")
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--no-skip", action="store_false", dest="use_skip")
    p.add_argument("--no-pre", action="store_false", dest="use_pre")
    p.add_argument("--dtype", choices=DTYPES)
    p.add_argument("--holdout", default=None,
                   help="single split testing on this speaker instead of full CV")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--speaker", default=None, help="restrict to one speaker")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--graph", choices=GRAPH_KINDS, default=None)
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

    q = diag_sub.add_parser("params", help="exact parameter count", **absent)
    q.add_argument("--d", type=int, required=True, dest="in_dim")
    q.add_argument("--z", type=int, required=True, dest="hidden_dim")
    q.add_argument("--k", type=int, required=True, dest="num_layers")
    q.add_argument("--c", type=int, required=True, dest="num_classes")
    q.add_argument("--no-pre", action="store_false", dest="use_pre")
    q.set_defaults(func=cmd_diag_params)

    q = diag_sub.add_parser("gradcheck", help="finite-difference gradient check", **absent)
    q.add_argument("--seed", type=int)
    q.add_argument("--trials", type=int, dest="n_instances")
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
