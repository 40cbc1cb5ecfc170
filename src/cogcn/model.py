"""The graph-convolutional classifier and its parameter accounting.

Forward pipeline per graph, all plain numpy:

    h0        = relu(x @ W_pre.T + b_pre)        row-wise pre-layer (optional)
    agg_k     = coeffs @ h_k                      degree-normalized aggregation
    h'_{k+1}  = relu(agg_k @ W_msg[k].T)          shared transform, bias-free
    h_{k+1}   = h'_{k+1} + h_k                    skip, when enabled and shapes match
    h_graph   = mean over rows of h_K             readout
    probs     = softmax(W_out @ h_graph + b_out)  head; inverted dropout on
                                                  h_graph in train mode only

Without the pre-layer the first message-passing weight maps the raw input
dimension to the hidden width, so the first skip is shape-gated. The forward
cache retains every intermediate needed for exact reverse-mode gradients
(see ``training.backward``). Every learnable array is a view into one flat
vector laid out by ``param_layout``.

Every input is a group of graphs, ``x`` (B, N, d) with ``coeffs`` (B, N, N);
one graph is a group of one, ``x[None]`` with ``coeffs[None]``. A group of
several is zero-padded to its longest graph, with the true lengths in
``n_nodes``; a group without ``n_nodes`` is unpadded. Every product acts on
the last two axes, and padding rows are zeroed once after the pre-layer and
stay zero in every layer. The padding adds only exact zeros to each graph's
sums, so a graph gets the bits of its own call wherever BLAS sums in an order
that does not depend on the padded length (see tests/test_batching.py).

Training passes a ``Workspace``, so that every node-sized intermediate goes
into a reused array with ``out=``, and the products take contiguous copies
of ``W_pre.T`` and ``W_msg[k].T``; without one numpy allocates and multiplies
by the strided views. Both give the same bits at the model's widths (see
tests/test_model.py for where BLAS tells them apart).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .features import DataError, StandardizeStats, _read_text
from .graph import GRAPH_KINDS
from .util import substream, write_text_atomic

CHECKPOINT_VERSION = 1
DTYPES = ("float32", "float64")
# The JSON types a checkpoint may hold for each type of ``ModelConfig`` field:
# a bool is no int, and an int or a string no bool
_JSON_TYPES = {"int": {int}, "bool": {bool}, "float": {int, float}, "str": {str}}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters."""

    in_dim: int
    hidden_dim: int = 128
    num_layers: int = 2
    num_classes: int = 4
    use_pre: bool = True
    use_skip: bool = True
    dropout: float = 0.1
    self_in_aggregation: bool = True
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.in_dim < 1:
            raise ValueError("in_dim must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be {' or '.join(map(repr, DTYPES))}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def layer_in_dim(self, k: int) -> int:
        """Input width of message-passing layer ``k``."""
        if k == 0 and not self.use_pre:
            return self.in_dim
        return self.hidden_dim


@lru_cache(maxsize=128)
def param_layout(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(name, shape, offset into the flat vector) of every learnable array.

    The one place that knows the parameter names, shapes and order. Computed
    once per configuration: ``ModelParams`` is built for every gradient.
    """
    z, c = config.hidden_dim, config.num_classes
    shapes = []
    if config.use_pre:
        shapes += [("w_pre", (z, config.in_dim)), ("b_pre", (z,))]
    shapes += [(f"w_msg{k}", (z, config.layer_in_dim(k))) for k in range(config.num_layers)]
    shapes += [("w_out", (c, z)), ("b_out", (c,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += math.prod(shape)
    return tuple(layout)


class ModelParams:
    """All learnable tensors as views into one flat vector; also the gradient container.

    ``flat`` holds every entry in ``param_layout`` order. ``arrays`` maps each
    layout name to its view, and ``w_pre``/``b_pre`` (None without the
    pre-layer), ``w_msg[k]``, ``w_out`` and ``b_out`` are the same views, so
    writing through any of them writes ``flat``. Optimizers and gradient
    checks work on ``flat`` alone. The gradients of a group of graphs have
    ``flat`` of shape (B, size), one row per graph, and views with a leading
    B axis.
    """

    __slots__ = ("config", "flat", "arrays", "w_pre", "b_pre", "w_msg", "w_out", "b_out")

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None) -> None:
        size = param_count(config)
        if flat is None:
            flat = np.zeros(size, dtype=config.np_dtype)
        elif flat.shape[-1:] != (size,):
            raise ValueError(f"flat parameter vector has shape {flat.shape}, expected ({size},)")
        self.config = config
        self.flat = flat
        self.arrays = {
            name: flat[..., offset : offset + math.prod(shape)].reshape(flat.shape[:-1] + shape)
            for name, shape, offset in param_layout(config)
        }
        self.w_pre = self.arrays.get("w_pre")
        self.b_pre = self.arrays.get("b_pre")
        self.w_msg = [self.arrays[f"w_msg{k}"] for k in range(config.num_layers)]
        self.w_out = self.arrays["w_out"]
        self.b_out = self.arrays["b_out"]

    def __reduce__(self):
        # pickle the vector once, so the views still share it after unpickling
        return ModelParams, (self.config, self.flat)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


@dataclass
class ForwardCache:
    """Everything the backward pass needs, from one train-mode forward."""

    x: np.ndarray
    coeffs: np.ndarray
    counts: np.ndarray | int  # node count(s) the readout divides by
    node_mask: np.ndarray | None  # (B, N, 1) 1 for real nodes, 0 for padding; None unpadded
    pre_act: np.ndarray | None  # pre-layer pre-activation, None when pre is off
    hs: list  # h_0 .. h_K
    aggs: list  # coeffs @ h_k per layer
    mp_preacts: list  # agg_k @ W_msg[k].T per layer
    skips: list  # whether the skip was applied at each layer
    dropout_mask: np.ndarray | None  # None in eval mode
    h_dropped: np.ndarray  # the readout, with dropout in train mode
    logits: np.ndarray
    probs: np.ndarray


class Workspace:
    """One flat array per name, reused by every batch of a ``train`` call.

    Pass ``out=workspace and workspace.take(...)``: without one numpy allocates.
    The views it hands out, and the ``ModelParams`` built on them, are kept,
    so a batch of a shape seen before builds none; an array that has to grow
    drops every view it had.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray | ModelParams] = {}

    def take(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The first prod(shape) entries of array ``name``, replaced if too small; not zeroed."""
        key = (name, shape, dtype)
        view = self.views.get(key)
        if view is None:
            size = math.prod(shape)
            flat = self.arrays.get(name)
            if flat is None or flat.size < size or flat.dtype != dtype:
                flat = self.arrays[name] = np.empty(size, dtype=dtype)
                for old in [k for k in self.views if k[0] == name]:
                    del self.views[old]
            view = self.views[key] = flat[:size].reshape(shape)
        return view

    def params(self, name: str, shape: tuple, config: ModelConfig) -> ModelParams:
        """A ``ModelParams`` on ``take(name, shape, config.np_dtype)``."""
        key = (name, shape, config)
        params = self.views.get(key)
        if params is None:
            flat = self.take(name, shape, config.np_dtype)
            params = self.views[key] = ModelParams(config, flat)
        return params

    def transposed(self, name: str, w: np.ndarray) -> np.ndarray:
        """``w.T`` copied into array ``name``: BLAS multiplies a contiguous operand faster."""
        out = self.take(name, w.shape[::-1], w.dtype)
        np.copyto(out, w.T)
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = substream(seed, "init")
    params = ModelParams(config)
    for name, shape, _ in param_layout(config):
        if len(shape) == 2:
            fan_out, fan_in = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params.arrays[name][...] = rng.uniform(-limit, limit, size=shape)
    return params


def sample_dropout_mask(
    config: ModelConfig, rng: np.random.Generator, count: tuple[int, ...] = ()
) -> np.ndarray:
    """Inverted-dropout mask: entries 0 or 1/(1-p), keep probability 1-p.

    ``count=(B,)`` draws B masks, one row each, from the same stream as B
    single draws.
    """
    dt = config.np_dtype
    shape = count + (config.hidden_dim,)
    if config.dropout == 0.0:
        return np.ones(shape, dtype=dt)
    keep = rng.random(shape) >= config.dropout
    return (keep / (1.0 - config.dropout)).astype(dt)


# ---------------------------------------------------------------------------
# full forward


def check_group(x: np.ndarray, coeffs: np.ndarray) -> None:
    """Reject anything but a group: ``x`` (B, N, d) with ``coeffs`` (B, N, N)."""
    if x.ndim != 3 or coeffs.shape != x.shape[:2] + x.shape[1:2]:
        raise ValueError(f"expected a group, x (B, N, d) with coeffs (B, N, N); "
                         f"got x {x.shape} and coeffs {coeffs.shape}")


def forward_arrays(
    params: ModelParams,
    config: ModelConfig,
    x: np.ndarray,
    coeffs: np.ndarray,
    mode: str = "eval",
    dropout_mask: np.ndarray | None = None,
    n_nodes: np.ndarray | None = None,
    workspace=None,
):
    """Forward pass on a group of graphs: ``x`` (B, N, d), ``coeffs`` (B, N, N).

    A zero-padded group gives its node counts in ``n_nodes`` (B,); see the
    module docstring. Returns (logits, probs, cache), each with a leading
    group axis. Train mode applies ``dropout_mask`` (B, z), one row per
    graph, which the caller draws with ``sample_dropout_mask``. With a
    ``workspace`` the node-sized intermediates are written into its arrays,
    so the cache is valid only until the next call with that workspace.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got '{mode}'")
    dt = config.np_dtype
    x = np.ascontiguousarray(x, dtype=dt)
    coeffs = np.ascontiguousarray(coeffs, dtype=dt)
    check_group(x, coeffs)
    if x.shape[-1] != config.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != config.in_dim {config.in_dim}")
    b = len(x)
    if mode == "train" and np.shape(dropout_mask) != (b, config.hidden_dim):
        got = None if dropout_mask is None else np.shape(dropout_mask)
        raise ValueError(f"train mode needs a ({b}, {config.hidden_dim}) dropout mask, one row "
                         f"per graph: sample_dropout_mask(config, rng, ({b},)); got {got}")
    if n_nodes is not None and np.shape(n_nodes) != (b,):
        raise ValueError(f"n_nodes {np.shape(n_nodes)} for {b} graphs, needs ({b},)")
    if n_nodes is None:
        counts, node_mask = x.shape[-2], None
    else:
        counts = np.asarray(n_nodes, dtype=dt)[:, None]
        # 0/1 in the model dtype: the same products as a bool mask, without the cast
        node_mask = (np.arange(x.shape[-2]) < counts).astype(dt)[..., None]

    hidden = x.shape[:-1] + (config.hidden_dim,)
    if config.use_pre:
        w_pre_t = workspace.transposed("w_pre_t", params.w_pre) if workspace else params.w_pre.T
        pre_act = np.matmul(x, w_pre_t, out=workspace and workspace.take("pre_act", hidden, dt))
        pre_act += params.b_pre
        h = np.maximum(pre_act, 0.0, out=workspace and workspace.take("h0", hidden, dt))
        if node_mask is not None:
            h *= node_mask  # padding rows were relu(b_pre); zero rows stay zero
    else:
        pre_act = None
        h = x

    hs = [h]
    aggs: list[np.ndarray] = []
    mp_preacts: list[np.ndarray] = []
    skips: list[bool] = []
    for k in range(config.num_layers):
        agg = np.matmul(coeffs, h, out=workspace and workspace.take(f"agg{k}", h.shape, dt))
        w_t = workspace.transposed("w_msg_t", params.w_msg[k]) if workspace else params.w_msg[k].T
        preact = np.matmul(agg, w_t, out=workspace and workspace.take(f"preact{k}", hidden, dt))
        h_new = np.maximum(preact, 0.0,
                           out=workspace and workspace.take(f"h{k + 1}", hidden, dt))
        skip = config.use_skip and h_new.shape == h.shape
        if skip:
            h_new += h
        aggs.append(agg)
        mp_preacts.append(preact)
        skips.append(skip)
        hs.append(h_new)
        h = h_new

    h_graph = np.einsum("...nz->...z", h) / counts  # the bits of h.sum(axis=-2) for z >= 2
    if mode == "train":
        h_dropped = h_graph * dropout_mask
    else:
        dropout_mask = None
        h_dropped = h_graph

    # one matrix-vector product per graph: a (B, z) @ (z, C) product rounds
    # differently from a single graph's
    logits = np.matmul(params.w_out, h_dropped[..., None])[..., 0] + params.b_out
    probs = softmax(logits)
    cache = ForwardCache(
        x=x,
        coeffs=coeffs,
        counts=counts,
        node_mask=node_mask,
        pre_act=pre_act,
        hs=hs,
        aggs=aggs,
        mp_preacts=mp_preacts,
        skips=skips,
        dropout_mask=dropout_mask,
        h_dropped=h_dropped,
        logits=logits,
        probs=probs,
    )
    return logits, probs, cache


def param_count(config: ModelConfig) -> int:
    """Exact learnable-parameter count for the configuration.

    The skip connection is parameter-free, so it never changes the count.
    """
    _, shape, offset = param_layout(config)[-1]
    return offset + math.prod(shape)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Checkpoint:
    params: ModelParams
    config: ModelConfig
    class_names: tuple[str, ...]
    standardizer: StandardizeStats
    train_meta: dict


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    config: ModelConfig,
    class_names,
    standardizer: StandardizeStats,
    train_meta: dict,
) -> None:
    """Write a self-contained JSON checkpoint.

    Floats are printed with shortest round-trip repr, so float64 checkpoints
    reload bit-exactly. ``standardizer`` and ``train_meta`` (the ``gamma``
    and ``graph_kind`` used in training, and any other JSON values) make the
    file sufficient for standalone evaluation. The text is one
    ``json.dumps`` of the whole object.
    """
    obj = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "class_names": list(class_names),
        "params": {
            "W_p": None if params.w_pre is None else params.w_pre.tolist(),
            "b_p": None if params.b_pre is None else params.b_pre.tolist(),
            "W_e": [w.tolist() for w in params.w_msg],
            "W_o": params.w_out.tolist(),
            "b_o": params.b_out.tolist(),
        },
        "standardizer": standardizer.to_dict(),
        "train_meta": train_meta,
    }
    write_text_atomic(path, json.dumps(obj) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; any fault in the file raises ``DataError`` naming it.

    Every field must have the JSON type ``save_checkpoint`` writes, the class
    names must be distinct strings in sorted order, every parameter finite
    once cast into the model dtype, and the standardizer and the training
    gamma and graph kind present.
    """
    path = Path(path)
    try:
        obj = json.loads(_read_text(path, "checkpoint"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: unreadable checkpoint: {exc}") from exc
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format_version {version}")
    try:
        config = _config_from_json(obj["config"])
        params = _params_from_json(obj["params"], config)
        stats = obj.get("standardizer")
        if not (type(stats) is dict and all(_is_number_array(stats.get(k), 1)
                                            for k in ("mean", "std"))):
            raise ValueError("standardizer must hold mean and std as lists of JSON numbers")
        standardizer = StandardizeStats.from_dict(stats, config.in_dim)
        class_names = obj["class_names"]
        if not (type(class_names) is list and all(type(n) is str for n in class_names)):
            raise ValueError(f"class_names must be a list of strings, got {class_names!r}")
        if class_names != sorted(set(class_names)):
            raise ValueError(f"class_names must be distinct and sorted, got {class_names!r}")
        class_names = tuple(class_names)
        if len(class_names) != config.num_classes:
            raise ValueError(f"{len(class_names)} class names for {config.num_classes} classes")
        train_meta = obj.get("train_meta")
        if type(train_meta) is not dict:
            raise ValueError(f"train_meta must be an object, got {train_meta!r}")
        gamma, kind = train_meta.get("gamma"), train_meta.get("graph_kind")
        if not (type(gamma) in (int, float) and -1.0 < gamma <= 1.0):
            raise ValueError(f"train_meta gamma must be a number in (-1, 1], got {gamma!r}")
        if kind not in GRAPH_KINDS:
            raise ValueError(f"train_meta graph_kind must be one of {GRAPH_KINDS}, got {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc
    return Checkpoint(
        params=params,
        config=config,
        class_names=class_names,
        standardizer=standardizer,
        train_meta=train_meta,
    )


def _config_from_json(stored) -> ModelConfig:
    """The checkpoint's ``config`` object as a ModelConfig, every field type checked."""
    if type(stored) is not dict:
        raise ValueError(f"config is not an object: {stored!r}")
    for f in fields(ModelConfig):
        if f.name in stored and type(stored[f.name]) not in _JSON_TYPES[f.type]:
            raise ValueError(f"config {f.name} must be of type {f.type}, got {stored[f.name]!r}")
    return ModelConfig(**stored)


def _is_number_array(value, ndim: int) -> bool:
    """Whether ``value`` is ``ndim`` levels of JSON lists around JSON numbers only."""
    if type(value) is not list:
        return False
    if ndim == 1:
        return set(map(type, value)) <= {int, float}
    return all(_is_number_array(row, ndim - 1) for row in value)


def _params_from_json(p: dict, config: ModelConfig) -> ModelParams:
    """Fill a ModelParams from the checkpoint's ``params`` object, shapes checked."""
    if len(p["W_e"]) != config.num_layers:
        raise ValueError(
            f"W_e holds {len(p['W_e'])} layers, config.num_layers is {config.num_layers}"
        )
    stored = {"w_pre": p["W_p"], "b_pre": p["b_p"], "w_out": p["W_o"], "b_out": p["b_o"]}
    stored.update((f"w_msg{k}", w) for k, w in enumerate(p["W_e"]))
    values = {}
    for name, shape, _ in param_layout(config):
        if not _is_number_array(stored[name], len(shape)):
            raise ValueError(f"{name} is not a {len(shape)}-D list of JSON numbers")
        with np.errstate(over="ignore"):  # a value past the dtype's range becomes inf
            value = values[name] = np.asarray(stored.pop(name), dtype=config.np_dtype)
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, config needs {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} holds a value that is not finite in {config.dtype}")
    extra = [name for name, value in stored.items() if value is not None]
    if extra:
        raise ValueError(f"{', '.join(extra)} present but config.use_pre is false")
    params = ModelParams(config)  # allocated only once every shape is known to fit
    for name, value in values.items():
        params.arrays[name][...] = value
    return params
