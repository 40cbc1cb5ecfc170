"""Central finite-difference verification of the hand-derived gradients.

The checker never calls ``backward`` to produce its reference: it perturbs
every parameter entry by +/-step and differences the forward-pass loss, so
it stays an independent oracle for the analytic gradients.

Relative errors are guarded: each entry is scored as
|analytic - numeric| / max(|analytic|, |numeric|, floor), so entries that are
numerically zero on both routes (dead relu paths, dropped units) cannot
inflate the report through finite-difference round-off.

Instances with a relu pre-activation too close to its kink are re-drawn
(deterministically): central differences are invalid across the kink, and
a parameter perturbation of +/-step can push such a pre-activation over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import build_cosine_graph, build_temporal_graph, norm_coefficients
from .model import (
    ModelConfig,
    ModelParams,
    forward_arrays,
    init_params,
    param_layout,
    sample_dropout_mask,
)
from .training import backward, cross_entropy_from_logits

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
_REL_FLOOR = 1e-3
_KINK_MARGIN = 1e-3  # min |relu pre-activation| for a usable instance


@dataclass(frozen=True)
class GradcheckInstance:
    config: ModelConfig
    params: ModelParams
    x: np.ndarray
    coeffs: np.ndarray
    label: int
    dropout_mask: np.ndarray
    graph_kind: str


@dataclass(frozen=True)
class GradcheckReport:
    max_rel_error: float
    n_instances: int
    worst_instance: int
    worst_param: str
    graph_kinds: tuple[str, ...]
    resampled: int

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_rel_error < tol


def _forward(instance: GradcheckInstance, params: ModelParams):
    """Train-mode forward of the instance as a group of one, as training runs it."""
    return forward_arrays(
        params,
        instance.config,
        instance.x[None],
        instance.coeffs[None],
        mode="train",
        dropout_mask=instance.dropout_mask[None],
    )


def _loss(instance: GradcheckInstance, params: ModelParams) -> float:
    logits, _, _ = _forward(instance, params)
    (loss,) = cross_entropy_from_logits(logits, [instance.label])
    return loss


def finite_difference_grads(
    instance: GradcheckInstance, step: float = DEFAULT_STEP
) -> ModelParams:
    """Central differences of the loss w.r.t. every parameter entry."""
    params = instance.params.copy()
    grads = ModelParams(params.config)
    flat = params.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = _loss(instance, params)
        flat[i] = orig - step
        down = _loss(instance, params)
        flat[i] = orig
        grads.flat[i] = (up - down) / (2.0 * step)
    return grads


def max_relative_error(
    analytic: ModelParams, numeric: ModelParams, floor: float = _REL_FLOOR
) -> tuple[float, str]:
    """Largest guarded relative error over all entries, with its array name."""
    a, n = analytic.flat, numeric.flat
    err = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    worst = int(err.argmax())
    name = next(
        name for name, _, offset in reversed(param_layout(analytic.config))
        if offset <= worst
    )
    return float(err[worst]), name


def _min_preactivation(instance: GradcheckInstance) -> float:
    _, _, cache = _forward(instance, instance.params)
    # Rows whose aggregation coefficients are all zero (isolated nodes without
    # self-aggregation) have structurally-zero pre-activations that no
    # parameter perturbation can move, so they cannot cross the kink.
    movable = np.any(instance.coeffs != 0.0, axis=1)
    mins = []
    for p in cache.mp_preacts:
        if movable.any():
            mins.append(np.abs(p[0, movable]).min())
    if cache.pre_act is not None and cache.pre_act.size:
        mins.append(np.abs(cache.pre_act).min())
    return min(mins) if mins else np.inf


def _draw_instance(rng: np.random.Generator, index: int) -> GradcheckInstance:
    # Cycle the discrete axes so 20 instances cover both graph kinds and all
    # four skip/pre combinations; sizes stay small enough for exhaustive FD.
    graph_kind = ("cosine", "temporal")[index % 2]
    use_pre = bool((index // 2) % 2)
    use_skip = bool((index // 4) % 2)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(1, 7))
    z = int(rng.integers(2, 9))
    d = z if index % 5 == 0 else int(rng.integers(2, 7))  # include d == z skips
    c = int(rng.integers(2, 5))
    dropout = 0.1 if index % 2 == 0 else 0.0
    self_agg = index % 3 != 0

    config = ModelConfig(
        in_dim=d,
        hidden_dim=z,
        num_layers=k,
        num_classes=c,
        use_pre=use_pre,
        use_skip=use_skip,
        dropout=dropout,
        self_in_aggregation=self_agg,
        dtype="float64",
    )
    x = rng.standard_normal((n, d))
    if graph_kind == "cosine":
        g = build_cosine_graph(x, float(rng.uniform(0.3, 0.7)))
    else:
        g = build_temporal_graph(x)
    coeffs = norm_coefficients(g, include_self=self_agg)
    params = init_params(config, int(rng.integers(2**31)))
    label = int(rng.integers(c))
    mask = sample_dropout_mask(config, rng)
    return GradcheckInstance(config, params, x, coeffs, label, mask, graph_kind)


def run_gradcheck(
    n_instances: int = 20,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> GradcheckReport:
    """Compare ``backward`` against central differences on random instances."""
    if n_instances < 1:
        raise ValueError(f"a gradient check needs at least 1 instance, got {n_instances}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    worst = 0.0
    worst_instance = -1
    worst_param = ""
    kinds = set()
    resampled = 0
    for index in range(n_instances):
        instance = _draw_instance(rng, index)
        while _min_preactivation(instance) < _KINK_MARGIN:
            resampled += 1
            instance = _draw_instance(rng, index)
        kinds.add(instance.graph_kind)

        _, _, cache = _forward(instance, instance.params)
        (row,) = backward(instance.params, instance.config, cache, [instance.label]).flat
        analytic = ModelParams(instance.config, row)
        numeric = finite_difference_grads(instance, step=step)
        err, name = max_relative_error(analytic, numeric)
        if err > worst:
            worst, worst_instance, worst_param = err, index, name
    return GradcheckReport(
        max_rel_error=worst,
        n_instances=n_instances,
        worst_instance=worst_instance,
        worst_param=worst_param,
        graph_kinds=tuple(sorted(kinds)),
        resampled=resampled,
    )
