"""A padded run of graphs against one call per graph.

`train` cuts each batch into consecutive runs, one padded forward and one
backward per run, and sums the per-graph gradients in ascending utterance
order. Each graph of two or more nodes must get the bits its own call
gives, so that training output does not depend on how a batch is cut. A
run through the workspace that `train` reuses must get the bits of freshly
allocated arrays.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cogcn import ModelConfig, TrainConfig, build_cosine_graph, init_params, norm_coefficients
from cogcn import training
from cogcn.gradcheck import GradcheckInstance, finite_difference_grads, max_relative_error
from cogcn.model import ModelParams, Workspace, forward_arrays, sample_dropout_mask
from cogcn.training import (
    MAX_GROUP_ENTRIES,
    PreparedGraph,
    _batch_gradient,
    _groups,
    backward,
    cross_entropy_from_logits,
)

# consecutive runs of 3, 6 and 1 graphs: a fourth beside 130 and a seventh
# beside 100 would break the budget
LENGTHS = (23, 2, 130, 45, 7, 32, 60, 16, 100, 31)
D, Z = 8, 16  # desk scale
COMBOS = list(itertools.product(("float32", "float64"), (True, False), (True, False),
                                (True, False)))


def _config(dtype, use_pre, use_skip, self_agg, **kwargs):
    return ModelConfig(in_dim=D, hidden_dim=Z, num_layers=3, num_classes=4,
                       use_pre=use_pre, use_skip=use_skip, self_in_aggregation=self_agg,
                       dtype=dtype, **kwargs)


def _params(config, seed):
    # nonzero biases: with b_pre = 0 the padding rows would be zero without
    # the forward and backward masks, and the masks would go untested
    params = init_params(config, seed)
    rng = np.random.default_rng(seed)
    for bias in (params.b_pre, params.b_out):
        if bias is not None:
            bias[...] = rng.uniform(-0.5, 0.5, size=bias.shape)
    return params


def _graphs(config, lengths=LENGTHS, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for i, n in enumerate(lengths):
        x = rng.standard_normal((n, config.in_dim))
        coeffs = norm_coefficients(build_cosine_graph(x, 0.3),
                                   include_self=config.self_in_aggregation)
        graphs.append(PreparedGraph(f"u{i}", x.astype(config.np_dtype),
                                    coeffs.astype(config.np_dtype),
                                    int(rng.integers(config.num_classes))))
    return graphs


def _assert_same(actual, expected, config, bits=True, one_node=False):
    if (config.dtype == "float32" and not config.use_pre) or one_node:
        # Without the pre-layer the first aggregation is coeffs @ x, x being
        # D=8 wide. OpenBLAS's float32 kernel for an output that narrow sums
        # in an order that depends on the inner (node) length, so padding
        # moves the last bits. A graph of one node moves them too: its own
        # call multiplies (1, 1, k) matrices, which numpy and BLAS treat
        # apart from a padded run's. Every other product here is bit-stable.
        tol = 1e-6 if config.dtype == "float32" else 1e-14
        np.testing.assert_allclose(actual, expected, rtol=10 * tol, atol=tol)
    elif bits:
        assert actual.tobytes() == expected.tobytes()
    else:
        # a +0.0 padding term can turn a sum that is exactly -0.0 into +0.0;
        # the batch sum, which starts from +0.0, does so anyway
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("dtype, use_pre, use_skip, self_agg", COMBOS)
@settings(max_examples=45)
@given(lengths=st.lists(st.integers(1, 130), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=LENGTHS, seed=0)
@example(lengths=[n for n in LENGTHS if n <= 60], seed=0)  # one padded run
def test_group_matches_one_call_per_graph(dtype, use_pre, use_skip, self_agg, lengths, seed):
    config = _config(dtype, use_pre, use_skip, self_agg)
    params = _params(config, 1)
    graphs = _graphs(config, lengths, seed)
    masks = sample_dropout_mask(config, np.random.default_rng(2), (len(graphs),))
    start = 0
    for x, coeffs, n_nodes, labels in _groups(graphs):
        run = slice(start, start + len(labels))
        start = run.stop
        logits, probs, cache = forward_arrays(params, config, x, coeffs, "train",
                                              dropout_mask=masks[run], n_nodes=n_nodes)
        rows = backward(params, config, cache, labels)
        losses = cross_entropy_from_logits(logits, labels)
        for h in cache.hs:
            for b, n in enumerate(n_nodes if n_nodes is not None else ()):
                assert not np.any(h[b, n:]), "a padding row is not exactly 0"
        for b, pg in enumerate(graphs[run]):
            one_logits, one_probs, one_cache = forward_arrays(
                params, config, pg.x[None], pg.coeffs[None], "train",
                dropout_mask=masks[run][b][None])
            one_node = pg.x.shape[0] == 1
            _assert_same(logits[b], one_logits[0], config, one_node=one_node)
            _assert_same(probs[b], one_probs[0], config, one_node=one_node)
            one_row = backward(params, config, one_cache, [pg.label]).flat[0]
            _assert_same(rows.flat[b], one_row, config, bits=False, one_node=one_node)
            if not one_node and (config.dtype == "float64" or config.use_pre):
                assert losses[b] == cross_entropy_from_logits(one_logits, [pg.label])[0]


@pytest.mark.parametrize("dtype, use_pre, use_skip, self_agg", COMBOS)
def test_batch_gradient_matches_ascending_per_graph_sum(dtype, use_pre, use_skip, self_agg):
    config = _config(dtype, use_pre, use_skip, self_agg, dropout=0.1)
    params = _params(config, 3)
    graphs = _graphs(config, seed=4)
    assert len(list(_groups(graphs))) == 3
    losses, grads = _batch_gradient(params, config, graphs, np.random.default_rng(5),
                                    Workspace())

    # what one call per graph gives, masks drawn and gradients summed in order
    rng = np.random.default_rng(5)
    expected = ModelParams(config)
    for b, pg in enumerate(graphs):
        mask = sample_dropout_mask(config, rng)
        logits, _, cache = forward_arrays(params, config, pg.x[None], pg.coeffs[None], "train",
                                          dropout_mask=mask[None])
        if config.dtype == "float64" or config.use_pre:
            assert losses[b] == cross_entropy_from_logits(logits, [pg.label])[0]
        expected.flat += backward(params, config, cache, [pg.label]).flat[0]
    expected.flat *= 1.0 / len(graphs)
    _assert_same(grads.flat, expected.flat, config)


@pytest.mark.parametrize("dtype, use_pre, use_skip, self_agg", COMBOS)
def test_workspace_gives_the_bits_of_fresh_arrays(dtype, use_pre, use_skip, self_agg,
                                                  monkeypatch):
    config = _config(dtype, use_pre, use_skip, self_agg)
    params = _params(config, 9)
    graphs = _graphs(config, seed=10)
    workspace = Workspace()
    # a batch of the first three graphs caches views and gradient containers
    # of small arrays; one group of all ten graphs, padded to 130, then
    # regrows the node-sized arrays and the gradient rows, which must drop
    # the views they had
    _batch_gradient(params, config, graphs[:3], np.random.default_rng(12), workspace)
    monkeypatch.setattr(training, "MAX_GROUP_ENTRIES", len(graphs) * 130**2)
    (x, coeffs, n_nodes, labels), = _groups(graphs)
    masks = sample_dropout_mask(config, np.random.default_rng(11), (len(graphs),))
    _, _, cache = forward_arrays(params, config, x, coeffs, "train", dropout_mask=masks,
                                 n_nodes=n_nodes, workspace=workspace)
    backward(params, config, cache, labels, workspace)
    _batch_gradient(params, config, graphs, np.random.default_rng(12), workspace)
    assert any(isinstance(view, ModelParams) for view in workspace.views.values())
    for (name, *_), view in workspace.views.items():
        flat = view.flat if isinstance(view, ModelParams) else view
        assert np.shares_memory(flat, workspace.arrays[name]), name
    # every array is now larger than the runs below need; every entry is set
    # to NaN, so a value that a call reads without writing it first shows
    for array in workspace.arrays.values():
        array.fill(np.nan)
    monkeypatch.undo()

    # runs of 3, 6 and 1 graphs (the last a group of one), then a 2-frame graph alone
    runs = list(_groups(graphs)) + list(_groups(graphs[1:2]))
    assert [len(labels) for *_, labels in runs] == [3, 6, 1, 1]
    for x, coeffs, n_nodes, labels in runs:
        mask = masks[: len(labels)]
        fresh = forward_arrays(params, config, x, coeffs, "train", dropout_mask=mask,
                               n_nodes=n_nodes)
        reused = forward_arrays(params, config, x, coeffs, "train", dropout_mask=mask,
                                n_nodes=n_nodes, workspace=workspace)
        for a, b in zip(reused[:2], fresh[:2]):  # logits, probs
            assert a.tobytes() == b.tobytes()
        rows = backward(params, config, reused[2], labels, workspace).flat
        assert rows.tobytes() == backward(params, config, fresh[2], labels).flat.tobytes()
    fresh = _batch_gradient(params, config, graphs, np.random.default_rng(5), Workspace())
    reused = _batch_gradient(params, config, graphs, np.random.default_rng(5), workspace)
    assert reused[0].tobytes() == fresh[0].tobytes()  # losses
    assert reused[1].flat.tobytes() == fresh[1].flat.tobytes()


def test_train_reuses_one_workspace_across_batches(monkeypatch):
    config = _config("float32", True, True, True)
    # eight 5-frame graphs in batches of 4: every batch is one (4, 5) group
    train_graphs = _graphs(config, lengths=(5,) * 8, seed=12)
    val_graphs = [replace(pg, id=f"val{i}") for i, pg in
                  enumerate(_graphs(config, lengths=(5,) * 3, seed=13))]
    caches = []
    forward = training.forward_arrays

    def captured(*args, **kwargs):
        result = forward(*args, **kwargs)
        if result[2].mode == "train":
            caches.append(result[2])
        return result

    monkeypatch.setattr(training, "forward_arrays", captured)
    training.train(train_graphs, val_graphs, TrainConfig(model=config, epochs=2, batch_size=4))
    assert len(caches) == 4
    for a, b in zip(caches, caches[1:]):
        assert a.x.shape == b.x.shape == (4, 5, D)
        for u, v in zip([a.pre_act, *a.hs, *a.aggs, *a.mp_preacts],
                        [b.pre_act, *b.hs, *b.aggs, *b.mp_preacts]):
            assert np.shares_memory(u, v)


@pytest.mark.parametrize("use_pre, use_skip, self_agg", itertools.product((True, False),
                                                                          repeat=3))
def test_single_graph_backward_matches_finite_differences(use_pre, use_skip, self_agg):
    config = ModelConfig(in_dim=3, hidden_dim=4, num_layers=2, num_classes=3,
                         use_pre=use_pre, use_skip=use_skip, self_in_aggregation=self_agg,
                         dtype="float64")
    pg = _graphs(config, lengths=(5,), seed=6)[0]
    mask = sample_dropout_mask(config, np.random.default_rng(7))
    instance = GradcheckInstance(config, _params(config, 8), pg.x, pg.coeffs, pg.label,
                                 mask, "cosine")
    _, _, cache = forward_arrays(instance.params, config, pg.x[None], pg.coeffs[None], "train",
                                 dropout_mask=mask[None])
    analytic = ModelParams(config, backward(instance.params, config, cache, [pg.label]).flat[0])
    err, name = max_relative_error(analytic, finite_difference_grads(instance))
    assert err < 1e-4, name


def test_grouping_rule():
    config = _config("float64", True, True, True)
    graphs = _graphs(config)
    runs = list(_groups(graphs))
    at = 0
    for x, coeffs, n_nodes, labels in runs:
        lengths = [x.shape[1]] if n_nodes is None else n_nodes.tolist()
        for b, n in enumerate(lengths):  # the runs cover the list in its own order
            pg = graphs[at + b]
            assert n == pg.x.shape[0] and labels[b] == pg.label
            assert np.array_equal(x[b, :n], pg.x) and np.array_equal(coeffs[b, :n, :n], pg.coeffs)
        assert len(lengths) == 1 or len(lengths) * max(lengths) ** 2 <= MAX_GROUP_ENTRIES
        at += len(lengths)
        if at < len(graphs):
            # a run closes only when the next graph would break the budget
            n_max = max(lengths + [graphs[at].x.shape[0]])
            assert (len(lengths) + 1) * n_max**2 > MAX_GROUP_ENTRIES
    assert at == len(graphs)
    assert [len(labels) for *_, labels in runs] == [3, 6, 1]


def test_single_graph_passes_its_arrays_as_they_are():
    pg = _graphs(_config("float32", True, True, True), lengths=(300,))[0]
    (x, coeffs, n_nodes, labels), = _groups([pg])
    assert x.base is pg.x and coeffs.base is pg.coeffs  # views, no copy
    assert x.shape == (1,) + pg.x.shape and coeffs.shape == (1,) + pg.coeffs.shape
    assert n_nodes is None and labels.tolist() == [pg.label]


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_node_sums_are_sums_over_the_node_axis(dtype):
    # The readout and the b_pre gradient sum over nodes with einsum, which at
    # every width z >= 2 gives the bits of sum(axis=-2). At z=1 the node axis
    # is contiguous and the two reduce it in different blocks (README).
    rng = np.random.default_rng(14)
    for b, n, z in itertools.product((1, 2, 5, 32), (1, 2, 3, 7, 16, 31, 100, 300),
                                     (2, 3, 4, 16, 24, 88, 128)):
        h = rng.standard_normal((b, n, z)).astype(dtype)
        out = np.full((b, z), np.nan, dtype=dtype)
        np.einsum("...nz->...z", h, out=out)
        expected = h.sum(axis=-2).tobytes()
        assert np.einsum("...nz->...z", h).tobytes() == expected, (b, n, z)
        assert out.tobytes() == expected, (b, n, z)
