"""Loss, exact backpropagation, Adam, the epoch loop, and speaker-held-out CV.

Gradients are derived by hand as the exact reverse-mode differential of the
forward pipeline in ``model`` composed with softmax cross-entropy; the
``gradcheck`` module verifies them against central finite differences.
Training batches accumulate per-graph gradients (in ascending utterance
order), average them, and take one Adam step per batch. Cross-validation
holds out one speaker per fold for testing plus the lexicographically next
speaker for validation-based selection of the layer count and similarity
threshold.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import Dataset, StandardizeStats, apply_standardizer, fit_standardizer
from .graph import build_cosine_graph, build_temporal_graph, norm_coefficients
from .model import ForwardCache, ModelConfig, ModelParams, forward_arrays, init_params
from .util import substream, write_text_atomic

GRAPH_KINDS = ("cosine", "temporal")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule, graph kind, and the per-fold selection grids."""

    model: ModelConfig
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    gamma_grid: tuple = (0.5, 0.55, 0.6)
    k_grid: tuple = (2, 3, 4)
    seed: int = 0
    graph_kind: str = "cosine"

    def __post_init__(self) -> None:
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.gamma_grid or not self.k_grid:
            raise ValueError("selection grids must be non-empty")
        if min(self.k_grid) < 1:
            raise ValueError(f"every K in the grid must be >= 1, got {self.k_grid}")
        if not all(-1.0 < g <= 1.0 for g in self.gamma_grid):
            raise ValueError(
                f"every gamma in the grid must be in (-1, 1], got {self.gamma_grid}"
            )
        for name, grid in (("K", self.k_grid), ("gamma", self.gamma_grid)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"the {name} grid repeats a value: {grid}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# ---------------------------------------------------------------------------
# loss


def cross_entropy_from_logits(logits, label: int) -> float:
    """Softmax cross-entropy -log(softmax(logits)[label]), computed in log space."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


# ---------------------------------------------------------------------------
# backward


def backward(
    params: ModelParams, config: ModelConfig, cache: ForwardCache, label: int
) -> ModelParams:
    """Exact gradients of softmax cross-entropy w.r.t. every parameter.

    Follows every path: head, dropout mask, mean readout, skip connections,
    the shared aggregation coefficients, and the optional pre-layer. Requires
    a train-mode cache from ``forward`` on the same parameters.
    """
    if cache.mode != "train":
        raise ValueError("backward requires a train-mode forward cache")
    if len(cache.mp_preacts) != config.num_layers:
        raise ValueError("cache does not match config (layer count differs)")
    if not 0 <= label < config.num_classes:
        raise ValueError(f"label {label} out of range")

    # written in place into the views of one flat vector, so that summing a
    # batch is a single vector add
    grads = ModelParams(config)
    d_logits = grads.b_out
    d_logits[...] = cache.probs
    d_logits[label] -= 1.0

    np.outer(d_logits, cache.h_dropped, out=grads.w_out)
    d_h_graph = (params.w_out.T @ d_logits) * cache.dropout_mask

    n = cache.hs[-1].shape[0]
    dh = np.tile(d_h_graph / n, (n, 1))

    for k in reversed(range(config.num_layers)):
        incoming = dh
        d_preact = incoming * (cache.mp_preacts[k] > 0)
        np.matmul(d_preact.T, cache.aggs[k], out=grads.w_msg[k])
        dh = cache.coeffs.T @ (d_preact @ params.w_msg[k])
        if cache.skips[k]:
            dh = dh + incoming

    if config.use_pre:
        d_pre = dh * (cache.pre_act > 0)
        np.matmul(d_pre.T, cache.x, out=grads.w_pre)
        d_pre.sum(axis=0, out=grads.b_pre)
    return grads


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second-moment vectors, shaped like ``ModelParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update on the flat vector; returns fresh params and state."""
    if grads.flat.shape != params.flat.shape:
        raise ValueError(
            f"gradient/parameter mismatch: {grads.flat.shape} vs {params.flat.shape}"
        )
    t = state.t + 1
    g = grads.flat
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * (g * g)
    new_params = params.copy()
    new_params.flat -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return new_params, AdamState(m, v, t)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    """Confusion matrix (rows true, cols predicted) with WA/UA."""

    confusion: np.ndarray
    wa: float  # weighted accuracy: trace / total
    ua: float  # unweighted accuracy: mean per-class recall over non-empty classes


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = int(confusion.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    wa = float(np.trace(confusion) / total)
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    recalls = confusion.diagonal()[present] / row_sums[present]
    ua = float(recalls.mean())
    return Metrics(confusion, wa, ua)


# ---------------------------------------------------------------------------
# graph preparation (features + aggregation coefficients, cast once)


@dataclass(frozen=True)
class PreparedGraph:
    id: str
    x: np.ndarray
    coeffs: np.ndarray
    label: int


def prepare_graphs(
    dataset: Dataset, gamma: float, graph_kind: str, config: ModelConfig
) -> list[PreparedGraph]:
    """Build one graph per utterance and cast tensors to the model dtype."""
    if graph_kind not in GRAPH_KINDS:
        raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
    dt = config.np_dtype
    prepared = []
    for utt in dataset.utterances:
        if graph_kind == "cosine":
            g = build_cosine_graph(utt.features, gamma)
        else:
            g = build_temporal_graph(utt.features)
        coeffs = norm_coefficients(g, include_self=config.self_in_aggregation)
        prepared.append(
            PreparedGraph(
                id=utt.id,
                x=np.ascontiguousarray(utt.features, dtype=dt),
                coeffs=np.ascontiguousarray(coeffs, dtype=dt),
                label=utt.label,
            )
        )
    return prepared


def _evaluate_prepared(
    params: ModelParams, config: ModelConfig, prepared: list[PreparedGraph]
) -> Metrics:
    confusion = np.zeros((config.num_classes, config.num_classes), dtype=np.int64)
    for pg in prepared:
        _, probs, _ = forward_arrays(params, config, pg.x, pg.coeffs, mode="eval")
        confusion[pg.label, int(np.argmax(probs))] += 1
    return metrics_from_confusion(confusion)


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    dataset: Dataset,
    gamma: float,
    graph_kind: str,
) -> Metrics:
    """Argmax prediction per utterance on an (already standardized) dataset."""
    if not dataset.utterances:
        raise ValueError("empty dataset")
    prepared = prepare_graphs(dataset, gamma, graph_kind, config)
    return _evaluate_prepared(params, config, prepared)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_wa: float
    val_ua: float


def train(
    prepared_train: list[PreparedGraph],
    prepared_val: list[PreparedGraph],
    tc: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Seeded epoch loop on prepared graphs; returns the best-val-UA parameters.

    Per epoch: shuffle, split into batches, accumulate per-graph gradients in
    ascending utterance order, average, one Adam step per batch. Ties in
    validation UA keep the earliest epoch. A non-finite training loss or
    parameter vector stops the run with ``ValueError``.
    """
    if not prepared_val:
        raise ValueError("validation set required for model selection")
    if not prepared_train:
        raise ValueError("empty training set")
    overlap = {pg.id for pg in prepared_train} & {pg.id for pg in prepared_val}
    if overlap:
        raise ValueError(f"train/val share utterance ids: {sorted(overlap)[:5]}")
    config = tc.model

    rng_shuffle = substream(tc.seed, "shuffle")
    rng_dropout = substream(tc.seed, "dropout")
    params = init_params(config, tc.seed)
    state = init_adam_state(params)

    n_train = len(prepared_train)
    history: list[EpochStats] = []
    best_params = params.copy()
    best_ua = -1.0
    for epoch in range(1, tc.epochs + 1):
        order = rng_shuffle.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, tc.batch_size):
            batch = sorted(order[start : start + tc.batch_size].tolist())
            grads = ModelParams(config)
            for idx in batch:
                pg = prepared_train[idx]
                logits, _, cache = forward_arrays(
                    params, config, pg.x, pg.coeffs, mode="train", rng=rng_dropout
                )
                loss_sum += cross_entropy_from_logits(logits, pg.label)
                grads.flat += backward(params, config, cache, pg.label).flat
            grads.flat *= 1.0 / len(batch)
            params, state = adam_step(params, grads, state, tc.lr)
        train_loss = loss_sum / n_train
        n_bad = int(np.count_nonzero(~np.isfinite(params.flat)))
        if n_bad or not np.isfinite(train_loss):
            raise ValueError(
                f"training diverged at epoch {epoch} with K={config.num_layers}: "
                f"train_loss {train_loss}, {n_bad} non-finite parameters"
            )
        val_metrics = _evaluate_prepared(params, config, prepared_val)
        history.append(EpochStats(epoch, train_loss, val_metrics.wa, val_metrics.ua))
        if val_metrics.ua > best_ua:
            best_ua = val_metrics.ua
            best_params = params.copy()
    return best_params, history


def best_epoch(history: list[EpochStats]) -> int:
    """Index of the first epoch attaining the best validation UA."""
    best = max(s.val_ua for s in history)
    for i, s in enumerate(history):
        if s.val_ua == best:
            return i
    raise ValueError("empty history")


# ---------------------------------------------------------------------------
# leave-one-speaker-out cross-validation


@dataclass
class FoldResult:
    speaker: str
    val_speaker: str
    metrics: Metrics
    selected_k: int
    selected_gamma: float
    best_val_ua: float
    best_epoch: int
    params: ModelParams
    history: list[EpochStats]
    stats: StandardizeStats
    config: ModelConfig


@dataclass
class CVResult:
    folds: list[FoldResult]
    mean_wa: float
    mean_ua: float
    class_names: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "folds": [
                {
                    "speaker": f.speaker,
                    "wa": f.metrics.wa,
                    "ua": f.metrics.ua,
                    "confusion": f.metrics.confusion.tolist(),
                    "selected_K": f.selected_k,
                    "selected_gamma": f.selected_gamma,
                }
                for f in self.folds
            ],
            "mean_wa": self.mean_wa,
            "mean_ua": self.mean_ua,
            "class_names": list(self.class_names),
        }


def run_fold(dataset: Dataset, tc: TrainConfig, fold_index: int) -> FoldResult:
    """One cross-validation fold: test on speaker ``fold_index``.

    The lexicographically next speaker is held out for validation; the
    standardizer is fit on the remaining training speakers only. (K, gamma)
    are selected jointly by best validation UA, keeping the earliest
    combination in K-major order on ties. The fold's RNG stream is
    ``tc.seed`` XOR ``fold_index``, so folds are independent and may run in
    parallel with results identical to serial execution.
    """
    speakers = dataset.speakers
    test_speaker = speakers[fold_index]
    val_speaker = speakers[(fold_index + 1) % len(speakers)]
    train_speakers = [s for s in speakers if s not in (test_speaker, val_speaker)]
    if not train_speakers:
        raise ValueError("fold has no training speakers")

    train_ids = [u.id for u in dataset.utterances if u.speaker in set(train_speakers)]
    stats = fit_standardizer(dataset, train_ids)
    ds_std = apply_standardizer(dataset, stats)
    ds_train = ds_std.subset_speakers(train_speakers)
    ds_val = ds_std.subset_speakers([val_speaker])
    ds_test = ds_std.subset_speakers([test_speaker])

    fold_seed = tc.seed ^ fold_index
    gammas = tc.gamma_grid if tc.graph_kind == "cosine" else (tc.gamma_grid[0],)

    # gamma-major, so that only one gamma's graphs are alive at a time; the
    # rank keeps the K-major rule: best validation UA, earliest (K, gamma)
    best = None
    for gi, gamma in enumerate(gammas):
        p_train = prepare_graphs(ds_train, gamma, tc.graph_kind, tc.model)
        p_val = prepare_graphs(ds_val, gamma, tc.graph_kind, tc.model)
        for ki, k in enumerate(tc.k_grid):
            config_k = replace(tc.model, num_layers=int(k))
            tc_run = replace(tc, model=config_k, seed=fold_seed)
            params, history = train(p_train, p_val, tc_run)
            epoch_idx = best_epoch(history)
            rank = (history[epoch_idx].val_ua, -ki, -gi)
            if best is None or rank > best[0]:
                best = (rank, int(k), gamma, params, history, epoch_idx, config_k)
        del p_train, p_val

    (score, _, _), sel_k, sel_gamma, params, history, epoch_idx, config_k = best
    test_metrics = evaluate(params, config_k, ds_test, sel_gamma, tc.graph_kind)
    return FoldResult(
        speaker=test_speaker,
        val_speaker=val_speaker,
        metrics=test_metrics,
        selected_k=sel_k,
        selected_gamma=sel_gamma,
        best_val_ua=score,
        best_epoch=epoch_idx,
        params=params,
        history=history,
        stats=stats,
        config=config_k,
    )


def loso_cv(dataset: Dataset, tc: TrainConfig, jobs: int = 1) -> CVResult:
    """Leave-one-speaker-out CV: one fold per speaker, unweighted fold means.

    ``jobs`` > 1 runs folds in separate processes; per-fold RNG streams make
    the result identical to serial execution.
    """
    speakers = dataset.speakers
    if len(speakers) < 3:
        raise ValueError(
            "leave-one-speaker-out needs at least 3 speakers (test + val + train)"
        )
    indices = range(len(speakers))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(run_fold, *zip(*[(dataset, tc, i) for i in indices])))
    else:
        folds = [run_fold(dataset, tc, i) for i in indices]
    mean_wa = float(np.mean([f.metrics.wa for f in folds]))
    mean_ua = float(np.mean([f.metrics.ua for f in folds]))
    return CVResult(folds, mean_wa, mean_ua, dataset.class_names)


# ---------------------------------------------------------------------------
# result files


def write_metrics_json(result: CVResult, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(result.to_json_dict(), indent=2) + "\n")


def write_history_csv(history: list[EpochStats], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_wa,val_ua"]
    lines += [
        f"{s.epoch},{s.train_loss!r},{s.val_wa!r},{s.val_ua!r}" for s in history
    ]
    write_text_atomic(path, "\n".join(lines) + "\n")
