"""Loss, exact backpropagation, Adam, the epoch loop, and speaker-held-out CV.

Gradients are derived by hand as the exact reverse-mode differential of the
forward pipeline in ``model`` composed with softmax cross-entropy; the
``gradcheck`` module verifies them against central finite differences.
Training cuts each batch, in ascending utterance order, into consecutive
runs of graphs, runs one padded forward and backward per run, sums the
per-graph gradients in that order, averages them, and takes one Adam step
per batch, in place; one ``train`` call's batches and validation passes share
one ``Workspace``. Aggregation coefficients are built in the model dtype, one
rounding of each float64 product, so neither ``prepare_graphs`` nor
``evaluate`` casts them. Cross-validation holds out one speaker per fold for
testing plus the lexicographically next speaker for validation-based
selection of the layer count and similarity threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .features import DataError, Dataset, StandardizeStats, apply_standardizer, fit_standardizer
from .graph import GRAPH_KINDS, build_cosine_graph, build_temporal_graph, norm_coefficients
from .model import (ForwardCache, ModelConfig, ModelParams, check_group, forward_arrays,
                    init_params, Workspace, param_count, sample_dropout_mask)
from .util import substream, write_text_atomic

# Coefficient entries, members * N_max**2, that one padded group may hold.
# Short graphs share a call; long ones run alone, because a larger padded
# block no longer fits in cache.
MAX_GROUP_ENTRIES = 2**16
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


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
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.gamma_grid or not self.k_grid:
            raise ValueError("selection grids must be non-empty")
        if min(self.k_grid) < 1:
            raise ValueError(f"every K in the grid must be >= 1, got {self.k_grid}")
        if not all(-1.0 < g <= 1.0 for g in self.gamma_grid):
            raise ValueError(f"every gamma in the grid must be in (-1, 1], got {self.gamma_grid}")
        for name, grid in (("K", self.k_grid), ("gamma", self.gamma_grid)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"the {name} grid repeats a value: {grid}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# ---------------------------------------------------------------------------
# loss


def cross_entropy_from_logits(logits, label):
    """Softmax cross-entropy -log(softmax(logits)[label]), computed in log space.

    For a group's logits (B, C) and B labels it returns the B losses.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(label)
    if labels.min() < 0 or labels.max() >= logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return np.log(np.exp(shifted).sum(axis=-1)) - shifted[np.arange(len(labels)), labels]


# ---------------------------------------------------------------------------
# backward


def backward(
    params: ModelParams, config: ModelConfig, cache: ForwardCache, label, workspace=None
) -> ModelParams:
    """Exact gradients of softmax cross-entropy w.r.t. every parameter.

    Follows every path: head, dropout mask, mean readout, skip connections,
    the shared aggregation coefficients, and the optional pre-layer. Requires
    a train-mode cache from ``forward_arrays`` on the same parameters, for a
    group of B graphs. ``label`` holds one label per graph, and the result
    holds one gradient row per graph: ``flat`` has shape (B, size), valid
    until the next call with the same ``workspace`` if one is given.
    """
    if cache.dropout_mask is None:
        raise ValueError("backward requires a train-mode forward cache")
    check_group(cache.x, cache.coeffs)
    if len(cache.mp_preacts) != config.num_layers:
        raise ValueError("cache does not match config (layer count differs)")
    labels = np.asarray(label)
    if labels.shape != cache.logits.shape[:-1]:
        raise ValueError(f"{labels.size} labels for logits of shape {cache.logits.shape}")
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ValueError(f"label {label} out of range")

    # every entry is written in place into the views of the flat rows
    dt = config.np_dtype
    shape = labels.shape + (param_count(config),)
    grads = (workspace.params("grad_rows", shape, config) if workspace
             else ModelParams(config, np.empty(shape, dtype=dt)))
    d_logits = grads.b_out
    np.subtract(cache.probs, np.eye(config.num_classes, dtype=dt)[labels], out=d_logits)

    np.multiply(d_logits[..., :, None], cache.h_dropped[..., None, :], out=grads.w_out)
    d_h_graph = np.matmul(params.w_out.T, d_logits[..., None])[..., 0] * cache.dropout_mask

    # the readout gradient on every real node; padding rows get 0
    dh = (d_h_graph / cache.counts)[..., None, :]
    hidden = cache.hs[-1].shape
    if cache.node_mask is None:
        dh = np.broadcast_to(dh, hidden)
    else:
        dh = np.multiply(dh, cache.node_mask, out=workspace and workspace.take("dh0", hidden, dt))

    # dh alternates between two arrays: layer k reads one and writes the other
    for k in reversed(range(config.num_layers)):
        incoming = dh
        d_preact = np.multiply(incoming, cache.mp_preacts[k] > 0,
                               out=workspace and workspace.take("d_preact", hidden, dt))
        np.matmul(d_preact.swapaxes(-1, -2), cache.aggs[k], out=grads.w_msg[k])
        d_agg = np.matmul(d_preact, params.w_msg[k],
                          out=workspace and workspace.take("d_agg", cache.hs[k].shape, dt))
        dh_name = f"dh{(config.num_layers - k) % 2}"
        dh = np.matmul(cache.coeffs.swapaxes(-1, -2), d_agg,
                       out=workspace and workspace.take(dh_name, cache.hs[k].shape, dt))
        if config.skip_at(k):
            dh += incoming

    if config.use_pre:
        d_pre = np.multiply(dh, cache.pre_act > 0,
                            out=workspace and workspace.take("d_preact", hidden, dt))
        np.matmul(d_pre.swapaxes(-1, -2), cache.x, out=grads.w_pre)
        np.einsum("...nz->...z", d_pre, out=grads.b_pre)
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


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state`` in place; returns both."""
    if grads.flat.shape != params.flat.shape:
        raise ValueError(
            f"gradient/parameter mismatch: {grads.flat.shape} vs {params.flat.shape}"
        )
    state.t += 1
    t, g, m, v = state.t, grads.flat, state.m, state.v
    np.add(_BETA1 * m, (1.0 - _BETA1) * g, out=m)
    np.add(_BETA2 * v, (1.0 - _BETA2) * (g * g), out=v)
    params.flat -= lr * (m / (1.0 - _BETA1**t)) / (np.sqrt(v / (1.0 - _BETA2**t)) + _EPS)
    return params, state


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
    rows = confusion.tolist()  # Python ints: cheaper than numpy's calls on a small matrix
    hits = [row[i] for i, row in enumerate(rows)]
    total = sum(map(sum, rows))
    if total == 0:
        raise ValueError("empty confusion matrix")
    recalls = [hit / n for hit, n in zip(hits, map(sum, rows)) if n > 0]
    # the bits of numpy's mean: left to right below 8 terms, pairwise from 8 on
    ua = reduce(add, recalls) / len(recalls) if len(recalls) < 8 else float(np.mean(recalls))
    return Metrics(confusion, sum(hits) / total, ua)


# ---------------------------------------------------------------------------
# graph preparation (features + aggregation coefficients in the model dtype)


@dataclass(frozen=True)
class PreparedGraph:
    id: str
    x: np.ndarray
    coeffs: np.ndarray
    label: int


def prepare_graphs(
    dataset: Dataset,
    gamma: float,
    graph_kind: str,
    config: ModelConfig,
    stats: StandardizeStats | None = None,
) -> list[PreparedGraph]:
    """Build one graph per utterance, every array copied into one block of the model dtype.

    With ``stats`` each utterance is standardized just before its graph is
    built, as ``apply_standardizer`` would, so no standardized copy of the
    dataset is kept. The coefficients come in the model dtype, so only the
    features are cast, and a frame that is not finite once cast is a
    ``DataError``. All of the call's ``x`` and ``coeffs`` are C-contiguous
    views into one array, which is freed with the last of them.
    """
    size = sum(u.features.size + len(u.features) ** 2 for u in dataset.utterances)
    block = np.empty(size, dtype=config.np_dtype)
    graphs, start = [], 0
    with np.errstate(over="ignore"):  # frames past the dtype's range are named below
        for pg in _graph_arrays(dataset, gamma, graph_kind, config, stats):
            views = []
            for value in (pg.x, pg.coeffs):
                view = block[start : start + value.size].reshape(value.shape)
                view[...] = value  # x is cast straight into the block
                start += value.size
                views.append(view)
            if not np.isfinite(views[0]).all():
                raise DataError(f"speaker {dataset.by_id(pg.id).speaker}, utterance {pg.id}: "
                                f"standardized frames are not finite in {config.dtype}")
            graphs.append(PreparedGraph(pg.id, *views, pg.label))
    return graphs


def _graph_arrays(dataset: Dataset, gamma: float, graph_kind: str, config: ModelConfig,
                  stats: StandardizeStats | None = None):
    """One ``PreparedGraph`` per utterance, in order, on its (standardized) features.

    The coefficients are built in the model dtype; the features stay float64.
    """
    if graph_kind not in GRAPH_KINDS:
        raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
    if stats is not None:
        stats.check_width(dataset.d)
    for utt in dataset.utterances:
        x = utt.features if stats is None else stats.standardize(utt.features)
        g = build_cosine_graph(x, gamma) if graph_kind == "cosine" else build_temporal_graph(x)
        coeffs = norm_coefficients(g, config.np_dtype)
        yield PreparedGraph(utt.id, x, coeffs, utt.label)


def _groups(graphs):
    """Consecutive runs of ``graphs``, in order, as (x, coeffs, n_nodes, labels).

    A run takes the next graph while (members + 1) * N_max**2 stays within
    ``MAX_GROUP_ENTRIES``, N_max being the longest length of the members and
    that graph. Each run is yielded as soon as the next graph would break it,
    so an iterator of graphs is consumed one run at a time.
    """
    run, n_max = [], 0
    for pg in graphs:
        n_max = max(n_max, pg.x.shape[0])
        if run and (len(run) + 1) * n_max**2 > MAX_GROUP_ENTRIES:
            yield _padded(run)
            run, n_max = [], pg.x.shape[0]
        run.append(pg)
    if run:
        yield _padded(run)


def _padded(run: list[PreparedGraph]):
    """One run as (x, coeffs, n_nodes, labels).

    A run of several is zero-padded to its longest graph; a run of one is
    views of its graph's own arrays, with no padding and so no ``n_nodes``.
    """
    labels = np.array([pg.label for pg in run])
    if len(run) == 1:
        return run[0].x[None], run[0].coeffs[None], None, labels
    n_nodes = np.array([pg.x.shape[0] for pg in run])
    n_max = n_nodes.max()
    x = np.zeros((len(run), n_max, run[0].x.shape[1]), dtype=run[0].x.dtype)
    coeffs = np.zeros((len(run), n_max, n_max), dtype=run[0].coeffs.dtype)
    for b, (pg, n) in enumerate(zip(run, n_nodes)):
        x[b, :n] = pg.x
        coeffs[b, :n, :n] = pg.coeffs
    return x, coeffs, n_nodes, labels


def _evaluate_groups(params: ModelParams, config: ModelConfig, groups, workspace=None) -> Metrics:
    confusion = [[0] * config.num_classes for _ in range(config.num_classes)]
    for x, coeffs, n_nodes, labels in groups:
        _, probs, _ = forward_arrays(params, config, x, coeffs, mode="eval", n_nodes=n_nodes,
                                     workspace=workspace)
        for label, pred in zip(labels.tolist(), probs.argmax(axis=-1).tolist()):
            confusion[label][pred] += 1
    return metrics_from_confusion(confusion)


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    dataset: Dataset,
    gamma: float,
    graph_kind: str,
) -> Metrics:
    """Argmax prediction per utterance on an (already standardized) dataset.

    Graphs are built as ``_groups`` cuts its runs, so a run's graphs are freed
    before the next run is evaluated, not held for the whole dataset. Nothing
    is cast here: the coefficients come in the model dtype, and
    ``forward_arrays`` casts the float64 features.
    """
    graphs = _graph_arrays(dataset, gamma, graph_kind, config)
    return _evaluate_groups(params, config, _groups(graphs))


def evaluate_checked(params: ModelParams, config: ModelConfig, dataset: Dataset,
                     stats: StandardizeStats, gamma: float, graph_kind: str, source: str):
    """``evaluate`` on ``dataset`` standardized by ``stats``; an overflow or invalid value on
    the way is a ``DataError`` starting with ``source``, not a prediction from NaN logits."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return evaluate(params, config, apply_standardizer(dataset, stats), gamma, graph_kind)
    except FloatingPointError as exc:
        raise DataError(f"{source} gives non-finite numbers on this data ({exc})") from exc


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

    Per epoch: shuffle, split into batches, sum per-graph gradients in
    ascending utterance order (see ``_batch_gradient``), average, one Adam
    step per batch. Ties in validation UA keep the earliest epoch. A
    non-finite training loss or parameter vector stops the run with
    ``ValueError``, and so does a training loss above ten times ln(C), the
    loss of a uniform guess, after epoch 1.
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
    workspace = Workspace()  # reused by every batch and validation pass below
    val_groups = list(_groups(prepared_val))  # padded once for every epoch
    history: list[EpochStats] = []
    best_params = params.copy()
    best_ua = -1.0
    # a diverging run overflows in numpy first; the check after each epoch reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, tc.epochs + 1):
            order = rng_shuffle.permutation(n_train)
            loss_sum = 0.0
            for start in range(0, n_train, tc.batch_size):
                batch = sorted(order[start : start + tc.batch_size])
                batch = [prepared_train[i] for i in batch]
                losses, grads = _batch_gradient(params, config, batch, rng_dropout, workspace)
                for loss in losses.tolist():
                    loss_sum += loss
                params, state = adam_step(params, grads, state, tc.lr)
            train_loss = loss_sum / n_train
            n_bad = int(np.count_nonzero(~np.isfinite(params.flat)))
            # after epoch 1, ten times a uniform guess's loss is divergence too
            too_high = epoch > 1 and train_loss > 10.0 * math.log(config.num_classes)
            if n_bad or too_high or not np.isfinite(train_loss):
                raise ValueError(
                    f"training diverged at epoch {epoch} with K={config.num_layers}: "
                    f"train_loss {train_loss}, {n_bad} non-finite parameters"
                )
            val_metrics = _evaluate_groups(params, config, val_groups, workspace)
            history.append(EpochStats(epoch, train_loss, val_metrics.wa, val_metrics.ua))
            if val_metrics.ua > best_ua:
                best_ua = val_metrics.ua
                best_params = params.copy()
    return best_params, history


def _batch_gradient(
    params: ModelParams,
    config: ModelConfig,
    batch: list[PreparedGraph],
    rng_dropout: np.random.Generator,
    workspace: Workspace,
) -> tuple[np.ndarray, ModelParams]:
    """Per-graph losses and the mean gradient of a batch in utterance order.

    One forward and one backward per run of ``_groups``. The dropout masks
    are drawn, and the per-graph gradients summed, in the batch's order, as
    one call per graph would. The gradient is valid until the next call with
    the same ``workspace``.
    """
    masks = sample_dropout_mask(config, rng_dropout, (len(batch),))
    losses = np.empty(len(batch))
    grads = workspace.params("grad", (param_count(config),), config)
    grads.flat[...] = 0.0
    start = 0
    for x, coeffs, n_nodes, labels in _groups(batch):
        at = slice(start, start + len(labels))
        logits, _, cache = forward_arrays(
            params, config, x, coeffs, "train", dropout_mask=masks[at], n_nodes=n_nodes,
            workspace=workspace,
        )
        losses[at] = cross_entropy_from_logits(logits, labels)
        for row in backward(params, config, cache, labels, workspace).flat:
            grads.flat += row
        start = at.stop
    grads.flat *= 1.0 / len(batch)
    return losses, grads


# ---------------------------------------------------------------------------
# leave-one-speaker-out cross-validation


@dataclass(frozen=True)
class Trial:
    """One point of a fold's (K, gamma) grid: the model config, gamma and epoch history."""

    config: ModelConfig
    gamma: float
    history: list[EpochStats]

    @property
    def val_ua(self) -> float:
        return max(s.val_ua for s in self.history)


def select_trial(trials: list[Trial], k_grid: tuple, gamma_grid: tuple) -> Trial:
    """The trial with the best validation UA; on a tie, the earliest in K-major grid order."""
    in_grid_order = sorted(trials, key=lambda t: (k_grid.index(t.config.num_layers),
                                                  gamma_grid.index(t.gamma)))
    return max(in_grid_order, key=lambda t: t.val_ua)  # max keeps the first maximum


@dataclass
class FoldResult:
    speaker: str
    val_speaker: str
    metrics: Metrics
    trials: list[Trial]  # in the order trained: gamma-major
    selected: Trial
    params: ModelParams  # the selected trial's
    stats: StandardizeStats


@dataclass
class CVResult:
    folds: list[FoldResult]
    class_names: tuple[str, ...] = ()
    mean_wa: float = field(init=False)  # unweighted means over the folds
    mean_ua: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean_wa = float(np.mean([f.metrics.wa for f in self.folds]))
        self.mean_ua = float(np.mean([f.metrics.ua for f in self.folds]))

    def to_json_dict(self) -> dict:
        return {
            "folds": [
                {
                    "speaker": f.speaker,
                    "wa": f.metrics.wa,
                    "ua": f.metrics.ua,
                    "confusion": f.metrics.confusion.tolist(),
                    "selected_K": f.selected.config.num_layers,
                    "selected_gamma": f.selected.gamma,
                }
                for f in self.folds
            ],
            "mean_wa": self.mean_wa,
            "mean_ua": self.mean_ua,
            "class_names": list(self.class_names),
        }


def _fold_speakers(dataset: Dataset, fold_index: int) -> tuple[str, str, list[str]]:
    """Fold ``fold_index``'s test speaker, validation speaker and training speakers."""
    speakers = dataset.speakers
    if len(speakers) < 3:
        raise DataError("leave-one-speaker-out needs at least 3 speakers (test + val + train)")
    test_speaker = speakers[fold_index]
    val_speaker = speakers[(fold_index + 1) % len(speakers)]
    return test_speaker, val_speaker, [s for s in speakers if s not in (test_speaker, val_speaker)]


def run_fold(dataset: Dataset, tc: TrainConfig, fold_index: int) -> FoldResult:
    """One cross-validation fold: test on speaker ``fold_index``.

    The lexicographically next speaker is held out for validation; the
    standardizer is fit on the remaining training speakers only; train and
    validation utterances are standardized one at a time as their graphs are
    built, and the test set is scored as by ``cogcn eval``. Every (K, gamma)
    is trained, and ``select_trial`` picks the fold's by validation UA. The
    fold's RNG stream is ``tc.seed`` XOR ``fold_index``, so folds are
    independent and may run in parallel with the serial results.
    """
    test_speaker, val_speaker, train_speakers = _fold_speakers(dataset, fold_index)
    ds_train = dataset.subset_speakers(train_speakers)
    stats = fit_standardizer(ds_train, ds_train.ids)
    ds_val = dataset.subset_speakers([val_speaker])

    fold_seed = tc.seed ^ fold_index
    gammas = tc.gamma_grid if tc.graph_kind == "cosine" else (tc.gamma_grid[0],)

    # gamma-major, so that only one gamma's graphs are alive at a time; only
    # the parameters of the best trial so far are kept
    trials, params = [], None
    for gamma in gammas:
        p_train = prepare_graphs(ds_train, gamma, tc.graph_kind, tc.model, stats)
        p_val = prepare_graphs(ds_val, gamma, tc.graph_kind, tc.model, stats)
        for k in tc.k_grid:
            tc_run = replace(tc, model=replace(tc.model, num_layers=int(k)), seed=fold_seed)
            trial_params, history = train(p_train, p_val, tc_run)
            trials.append(Trial(tc_run.model, gamma, history))
            if select_trial(trials, tc.k_grid, tc.gamma_grid) is trials[-1]:
                params = trial_params
        del p_train, p_val, trial_params

    selected = select_trial(trials, tc.k_grid, tc.gamma_grid)
    ds_test = dataset.subset_speakers([test_speaker])
    test_metrics = evaluate_checked(params, selected.config, ds_test, stats, selected.gamma,
                                    tc.graph_kind, f"speaker {test_speaker}: the fold's model")
    return FoldResult(test_speaker, val_speaker, test_metrics, trials, selected, params, stats)


def loso_cv(dataset: Dataset, tc: TrainConfig, jobs: int = 1) -> CVResult:
    """Leave-one-speaker-out CV: one fold per speaker, unweighted fold means.

    ``jobs`` > 1 runs folds in separate processes; per-fold RNG streams make
    the result identical to serial execution.
    """
    indices = range(len(dataset.speakers))
    _fold_speakers(dataset, 0)  # the three-speaker rule, checked before any pool starts
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays the import

        # the pool may start every worker at once, so it gets no more than one per fold
        with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
            folds = list(pool.map(run_fold, *zip(*[(dataset, tc, i) for i in indices])))
    else:
        folds = [run_fold(dataset, tc, i) for i in indices]
    return CVResult(folds, dataset.class_names)


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
