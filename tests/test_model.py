"""Parameter container, model stages through the full forward, checkpoints.
Permutation invariance and parameter accounting live in acceptance criteria
2 and 4."""

import itertools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cogcn import (
    ModelConfig,
    ModelParams,
    backward,
    build_cosine_graph,
    build_temporal_graph,
    forward_arrays,
    init_params,
    load_checkpoint,
    norm_coefficients,
    param_count,
    param_layout,
    sample_dropout_mask,
    save_checkpoint,
    softmax,
)
from cogcn.model import Workspace

PARENT_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_float64.json"


def config64(**kwargs):
    defaults = dict(in_dim=4, hidden_dim=6, num_layers=2, num_classes=3, dtype="float64")
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def identity_params(d, k, c, use_pre=True, use_skip=True):
    """Square identity weights and zero biases for hand-traceable forwards."""
    cfg = ModelConfig(in_dim=d, hidden_dim=d, num_layers=k, num_classes=c,
                      use_pre=use_pre, use_skip=use_skip, dtype="float64")
    params = ModelParams(cfg)
    if use_pre:
        params.w_pre[...] = np.eye(d)
    for w in params.w_msg:
        w[...] = np.eye(d)
    params.w_out[...] = np.eye(c, d)
    return cfg, params


def hidden_states(cfg, params, x, coeffs):
    """Eval-mode forward on explicit coefficients, as a group of one; returns the cache."""
    _, _, cache = forward_arrays(params, cfg, np.asarray(x, dtype=float)[None],
                                 np.asarray(coeffs, dtype=float)[None])
    return cache


class TestParams:
    def test_layout_is_contiguous_and_covers_flat(self):
        cfg = config64()
        layout = param_layout(cfg)
        assert [name for name, _, _ in layout] == [
            "w_pre", "b_pre", "w_msg0", "w_msg1", "w_out", "b_out"
        ]
        end = 0
        for _, shape, offset in layout:
            assert offset == end
            end += math.prod(shape)
        assert end == param_count(cfg) == init_params(cfg, 0).flat.size

    def test_write_through_view_shows_in_flat(self):
        cfg = config64()
        params = ModelParams(cfg)
        params.w_msg[1][2, 3] = 7.0
        params.b_out[...] = -1.0
        _, shape, offset = dict((n, (n, s, o)) for n, s, o in param_layout(cfg))["w_msg1"]
        assert params.flat[offset + 2 * shape[1] + 3] == 7.0
        np.testing.assert_array_equal(params.flat[-cfg.num_classes:], -1.0)
        assert np.count_nonzero(params.flat) == 1 + cfg.num_classes
        params.flat[0] = 3.0
        assert params.w_pre[0, 0] == 3.0

    def test_copy_is_deep(self):
        params = init_params(config64(), 1)
        clone = params.copy()
        before = params.flat.copy()
        clone.w_out[...] = 0.0
        clone.flat[0] += 1.0
        np.testing.assert_array_equal(params.flat, before)
        assert not np.shares_memory(clone.flat, params.flat)
        assert np.shares_memory(clone.w_out, clone.flat)

    def test_pickle_keeps_views_on_flat(self):
        # folds trained in worker processes come back pickled
        import pickle

        params = init_params(config64(), 3)
        back = pickle.loads(pickle.dumps(params))
        assert back.config == params.config
        assert np.array_equal(back.flat, params.flat)
        back.flat[...] = 0.0
        assert not back.w_out.any() and not back.w_msg[1].any()

    def test_wrong_flat_size_rejected(self):
        with pytest.raises(ValueError, match="flat"):
            ModelParams(config64(), np.zeros(3))


class TestInit:
    def test_same_seed_same_params(self):
        cfg = config64()
        a, b = init_params(cfg, 42), init_params(cfg, 42)
        assert np.array_equal(a.flat, b.flat)

    def test_different_seed_differs(self):
        cfg = config64()
        a, b = init_params(cfg, 1), init_params(cfg, 2)
        assert not np.array_equal(a.w_out, b.w_out)

    def test_glorot_bound(self):
        cfg = ModelConfig(in_dim=88, hidden_dim=128, dtype="float64")
        params = init_params(cfg, 0)
        limit = math.sqrt(6.0 / (88 + 128))
        assert np.all(np.abs(params.w_pre) <= limit)

    def test_biases_zero(self):
        params = init_params(config64(), 9)
        assert np.all(params.b_pre == 0.0) and np.all(params.b_out == 0.0)

    def test_first_layer_width_without_pre(self):
        cfg = config64(use_pre=False)
        params = init_params(cfg, 0)
        assert params.w_pre is None
        assert params.w_msg[0].shape == (6, 4)
        assert params.w_msg[1].shape == (6, 6)


class TestStages:
    """Each stage of the pipeline, read from the forward cache."""

    def test_pre_layer_relu_identity(self):
        cfg, params = identity_params(2, 1, 2)
        cache = hidden_states(cfg, params, [[1.0, -2.0]], [[1.0]])
        np.testing.assert_array_equal(cache.hs[0][0], [[1.0, 0.0]])

    def test_pre_layer_zero_input(self):
        cfg, params = identity_params(2, 1, 2)
        cache = hidden_states(cfg, params, np.zeros((1, 2)), [[1.0]])
        np.testing.assert_array_equal(cache.hs[0][0], [[0.0, 0.0]])

    def test_pre_layer_negative_bias(self):
        cfg = ModelConfig(in_dim=2, hidden_dim=1, num_layers=1, num_classes=2,
                          dtype="float64")
        params = ModelParams(cfg)
        params.w_pre[...] = [[1.0, 1.0]]
        params.b_pre[...] = [-3.0]
        cache = hidden_states(cfg, params, [[1.0, 1.0]], [[1.0]])
        np.testing.assert_array_equal(cache.hs[0][0], [[0.0]])

    def test_mp_layer_single_node_is_identity_then_relu(self):
        cfg, params = identity_params(2, 1, 2, use_pre=False, use_skip=False)
        cache = hidden_states(cfg, params, [[1.0, -2.0]], [[1.0]])
        np.testing.assert_array_equal(cache.hs[1][0], [[1.0, 0.0]])

    def test_mp_layer_two_connected_nodes_average(self):
        cfg, params = identity_params(2, 1, 2, use_pre=False, use_skip=False)
        coeffs = np.full((2, 2), 0.5)  # both degree_hat = 2
        cache = hidden_states(cfg, params, [[2.0, 0.0], [0.0, 2.0]], coeffs)
        np.testing.assert_array_equal(cache.hs[1][0], np.ones((2, 2)))

    def test_mp_layer_isolated_node_sees_only_itself(self):
        # node 1 is isolated: its output must equal relu(W h_1)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
        g = build_cosine_graph(x, 0.9)
        assert g.edges() == [(0, 2)]
        cfg = ModelConfig(in_dim=2, hidden_dim=2, num_layers=1, num_classes=2,
                          use_pre=False, use_skip=False, dtype="float64")
        params = init_params(cfg, 0)
        coeffs = norm_coefficients(g, include_self=cfg.self_in_aggregation)
        _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        w = params.w_msg[0]
        np.testing.assert_allclose(cache.hs[1][0][1], np.maximum(w @ x[1], 0.0), atol=1e-15)

    def test_apply_skip(self):
        # relu(I [1, -2]) + [1, -2]
        cfg, params = identity_params(2, 1, 2, use_pre=False)
        cache = hidden_states(cfg, params, [[1.0, -2.0]], [[1.0]])
        assert cache.skips == [True]
        np.testing.assert_array_equal(cache.hs[1][0], [[2.0, -2.0]])

    def test_apply_skip_zero_update(self):
        cfg, params = identity_params(2, 1, 2, use_pre=False)
        params.w_msg[0][...] = 0.0
        h = np.array([[3.0, -1.0]])
        cache = hidden_states(cfg, params, h, [[1.0]])
        np.testing.assert_array_equal(cache.hs[1][0], h)

    def test_readout_mean(self):
        cfg, params = identity_params(2, 1, 2, use_pre=False, use_skip=False)
        cache = hidden_states(cfg, params, [[1.0, 2.0], [3.0, 4.0]], np.eye(2))
        np.testing.assert_array_equal(cache.h_graph[0], [2.0, 3.0])

    def test_readout_constant_rows(self):
        cfg = config64()
        params = init_params(cfg, 4)
        x = np.tile([5.0, -1.0, 0.5, 2.0], (4, 1))
        cache = hidden_states(cfg, params, x, np.full((4, 4), 0.25))
        np.testing.assert_array_equal(cache.hs[-1][0], np.tile(cache.hs[-1][0][0], (4, 1)))
        np.testing.assert_allclose(cache.h_graph[0], cache.hs[-1][0][0], atol=1e-15)

    def test_readout_permutation_invariant(self):
        rng = np.random.default_rng(1)
        cfg = config64()
        params = init_params(cfg, 2)
        x = rng.standard_normal((6, 4))
        coeffs = norm_coefficients(build_cosine_graph(x, 0.2))
        perm = rng.permutation(6)
        a = hidden_states(cfg, params, x, coeffs)
        b = hidden_states(cfg, params, x[perm], coeffs[np.ix_(perm, perm)])
        np.testing.assert_allclose(a.h_graph[0], b.h_graph[0], atol=1e-15)


class TestClassify:
    """The softmax head, read from full forwards."""

    def _zero_head(self, b_out):
        cfg = ModelConfig(in_dim=2, hidden_dim=2, num_layers=1, num_classes=4,
                          dtype="float64")
        params = init_params(cfg, 0)
        params.w_out[...] = 0.0
        params.b_out[...] = b_out
        x = np.array([[1.0, 2.0], [9.0, -9.0]])
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        _, probs, _ = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        return probs[0]

    def test_uniform_when_weights_zero(self):
        np.testing.assert_allclose(self._zero_head(0.0), 0.25)

    def test_log_odds_bias(self):
        probs = self._zero_head(np.log([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(probs, [0.1, 0.2, 0.3, 0.4], atol=1e-15)

    def test_eval_is_deterministic(self):
        cfg = config64()
        params = init_params(cfg, 2)
        x = np.random.default_rng(2).standard_normal((5, 4))
        coeffs = norm_coefficients(build_cosine_graph(x, 0.3),
                                   include_self=cfg.self_in_aggregation)
        a = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")[1][0]
        assert np.array_equal(a, forward_arrays(params, cfg, x[None], coeffs[None],
                                                mode="eval")[1][0])

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(-0.99, 1.0),
           x=st.integers(1, 12).flatmap(lambda n: arrays(np.float64, (n, 4),
                                                          elements=st.floats(-10.0, 10.0))))
    def test_simplex_at_model_scales(self, seed, gamma, x):
        cfg = config64(num_classes=5)
        coeffs = norm_coefficients(build_cosine_graph(x, gamma),
                                   include_self=cfg.self_in_aggregation)
        logits, probs, _ = forward_arrays(init_params(cfg, seed), cfg, x[None], coeffs[None],
                                          mode="eval")
        assert abs(probs.sum() - 1.0) < 1e-12 and np.all((probs >= 0.0) & (probs <= 1.0))
        # strictly inside (0, 1) unless the logits span 36 or more: then the top
        # class's 1 - p is below float64's resolution at 1 and p rounds to 1
        if np.ptp(logits) < 36.0:
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_dropout_mask_entries(self):
        cfg = config64(dropout=0.5)
        rng = np.random.default_rng(4)
        mask = sample_dropout_mask(cfg, rng)
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_dropout_zero_gives_all_ones(self):
        cfg = config64(dropout=0.0)
        mask = sample_dropout_mask(cfg, np.random.default_rng(0))
        assert np.all(mask == 1.0)


class TestForward:
    def test_single_node_hand_trace(self):
        # x = [1, -2]: pre-layer relu -> [1, 0]; aggregation is identity for a
        # single node; relu -> [1, 0]; skip doubles it -> [2, 0]; readout is
        # the row itself; identity head -> softmax([2, 0]).
        cfg, params = identity_params(2, 1, 2)
        x = np.array([[1.0, -2.0]])
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        _, probs, _ = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        e2 = math.exp(2.0)
        np.testing.assert_allclose(probs[0], [e2 / (1 + e2), 1 / (1 + e2)], atol=1e-15)

    def test_edgeless_graph_equals_per_node_oracle(self):
        # with no edges, the graph forward must equal classifying the average
        # of independent single-node hidden trajectories
        cfg = config64(num_layers=2)
        params = init_params(cfg, 3)
        x = np.random.default_rng(6).standard_normal((5, 4)) \
            * np.array([1.0, -1.0, 2.0, 0.5])
        g = build_cosine_graph(x, 1.0)  # distinct directions: no edges
        assert g.edges() == []
        coeffs = norm_coefficients(g, include_self=cfg.self_in_aggregation)
        _, probs, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")

        finals = []
        for i in range(5):
            gi = build_cosine_graph(x[i : i + 1], 1.0)
            ci_coeffs = norm_coefficients(gi, include_self=cfg.self_in_aggregation)
            _, _, ci = forward_arrays(params, cfg, x[i : i + 1][None], ci_coeffs[None],
                                      mode="eval")
            finals.append(ci.hs[-1][0][0])
        h_mean = np.mean(finals, axis=0)
        np.testing.assert_allclose(cache.hs[-1][0], np.stack(finals), atol=1e-12)
        np.testing.assert_allclose(
            probs[0], softmax(params.w_out @ h_mean + params.b_out), atol=1e-12
        )

    def test_skip_shape_gating_without_pre(self):
        # in_dim != hidden: first layer cannot skip, later layers do
        cfg = config64(use_pre=False, num_layers=2)
        params = init_params(cfg, 1)
        x = np.random.default_rng(7).standard_normal((4, 4))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        assert cfg.hidden_dim != cfg.in_dim
        assert cache.skips == [False, True]

    def test_skip_applies_when_widths_coincide(self):
        cfg = ModelConfig(in_dim=6, hidden_dim=6, num_layers=2, use_pre=False, dtype="float64")
        params = init_params(cfg, 1)
        x = np.random.default_rng(8).standard_normal((3, 6))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        assert cache.skips == [True, True]

    def test_train_mode_requires_rng_with_dropout(self):
        cfg = config64(dropout=0.1)
        params = init_params(cfg, 0)
        x = np.zeros((2, 4))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        with pytest.raises(ValueError, match="rng"):
            forward_arrays(params, cfg, x[None], coeffs[None], mode="train")

    def test_bad_mode_rejected(self):
        cfg = config64()
        params = init_params(cfg, 0)
        x = np.zeros((2, 4))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        with pytest.raises(ValueError, match="mode"):
            forward_arrays(params, cfg, x[None], coeffs[None], mode="predict")

    def test_only_a_group_is_accepted(self):
        # one graph alone is a group of one, (1, n, d) with (1, n, n)
        cfg = config64(dropout=0.5)
        params = init_params(cfg, 0)
        x = np.random.default_rng(10).standard_normal((2, 3, 4))
        coeffs = np.broadcast_to(np.eye(3), (2, 3, 3))
        masks = sample_dropout_mask(cfg, np.random.default_rng(11), (2,))
        for bad_x, bad_coeffs in [(x[0], coeffs[0]), (x, coeffs[0]), (x[:1], coeffs),
                                  (x, coeffs[:, :2, :2]), (x[..., None], coeffs)]:
            with pytest.raises(ValueError, match="expected a group"):
                forward_arrays(params, cfg, bad_x, bad_coeffs)
        with pytest.raises(ValueError, match="dropout mask"):  # one mask for two graphs
            forward_arrays(params, cfg, x, coeffs, "train", dropout_mask=masks[0])
        for n_nodes in (3, [3], [3, 3, 3]):
            with pytest.raises(ValueError, match="n_nodes"):
                forward_arrays(params, cfg, x, coeffs, n_nodes=n_nodes)
        _, _, cache = forward_arrays(params, cfg, x, coeffs, "train", dropout_mask=masks,
                                     n_nodes=[3, 2])
        assert backward(params, cfg, cache, [0, 1]).flat.shape == (2, param_count(cfg))
        with pytest.raises(ValueError, match="expected a group"):
            backward(params, cfg, replace(cache, x=cache.x[0], coeffs=cache.coeffs[0]), [0])


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_contiguous_transpose_gives_the_bits_of_the_view(dtype):
    # With a Workspace, forward_arrays multiplies by a contiguous copy of
    # W.T, without one by the strided view. Both give the same bits at the
    # pre-layer and message-passing shapes of the desk and reference scales.
    # They differ for a group whose graphs have one node (numpy takes a
    # vector-matrix path), for N <= 9 nodes at inner widths 88 and 128, and
    # from width 88 to 16 at N <= 75: BLAS runs another kernel there.
    rng = np.random.default_rng(15)
    workspace = Workspace()
    for (d_in, z), b, n in itertools.product(
            ((3, 4), (8, 16), (16, 16), (16, 128), (88, 128), (128, 128)), (1, 3, 32),
            (10, 16, 17, 31, 32, 100, 257, 300)):
        if b * n * max(d_in, z) > 2**20:
            continue  # MAX_GROUP_ENTRIES never puts 32 graphs that long in one run
        x = rng.standard_normal((b, n, d_in)).astype(dtype)
        w = rng.standard_normal((z, d_in)).astype(dtype)
        w_t = workspace.transposed("w_t", w)
        assert w_t.flags.c_contiguous and np.array_equal(w_t, w.T)
        assert np.matmul(x, w_t).tobytes() == np.matmul(x, w.T).tobytes(), (d_in, z, b, n)


def assert_checkpoint_roundtrips(dtype, use_pre, k, d, z, seed):
    cfg = ModelConfig(in_dim=d, hidden_dim=z, num_layers=k, num_classes=3, use_pre=use_pre,
                      dtype=dtype)
    params = init_params(cfg, seed)
    meta = {"gamma": 0.55, "graph_kind": "cosine"}
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "m.json", params, cfg, ("a", "b", "c"), train_meta=meta)
        ckpt = load_checkpoint(Path(tmp) / "m.json")
    assert ckpt.config == ckpt.params.config == cfg
    assert ckpt.class_names == ("a", "b", "c") and ckpt.train_meta == meta
    assert ckpt.params.flat.dtype == cfg.np_dtype
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert (ckpt.params.w_pre is None) == (ckpt.params.b_pre is None) == (not use_pre)


# The round-trip properties split dtype x use_pre between them and draw K and widths.
checkpoint_shapes = dict(k=st.integers(1, 4), d=st.integers(1, 8), z=st.integers(1, 8),
                         seed=st.integers(0, 99))


class TestCheckpoint:
    @settings(max_examples=8)
    @given(**checkpoint_shapes)
    @example(k=2, d=4, z=6, seed=5)
    def test_roundtrip_float64_bit_exact(self, k, d, z, seed):
        assert_checkpoint_roundtrips("float64", True, k, d, z, seed)

    @settings(max_examples=8)
    @given(use_pre=st.booleans(), **checkpoint_shapes)
    @example(use_pre=True, k=2, d=4, z=6, seed=5)
    def test_roundtrip_float32(self, use_pre, k, d, z, seed):
        assert_checkpoint_roundtrips("float32", use_pre, k, d, z, seed)

    @settings(max_examples=8)
    @given(**checkpoint_shapes)
    @example(k=2, d=4, z=6, seed=2)
    def test_no_pre_roundtrip(self, k, d, z, seed):
        assert_checkpoint_roundtrips("float64", False, k, d, z, seed)

    def test_standardizer_rides_along(self, tmp_path):
        from cogcn import StandardizeStats

        cfg = config64()
        stats = StandardizeStats(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        save_checkpoint(tmp_path / "m.json", init_params(cfg, 0), cfg,
                        ("a", "b", "c"), standardizer=stats)
        ckpt = load_checkpoint(tmp_path / "m.json")
        assert np.array_equal(ckpt.standardizer.mean, stats.mean)

    def test_bad_version_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(tmp_path / "m.json")

    def test_parent_format_float64_reloads_bit_exactly(self, tmp_path):
        # the fixture was written before parameters moved into one flat
        # vector; the format must not change in either direction
        ckpt = load_checkpoint(PARENT_CHECKPOINT)
        cfg = ModelConfig(in_dim=3, hidden_dim=4, num_layers=2, num_classes=3,
                          dtype="float64")
        assert ckpt.config == cfg
        assert np.array_equal(ckpt.params.flat, init_params(cfg, 5).flat)
        save_checkpoint(tmp_path / "m.json", ckpt.params, ckpt.config, ckpt.class_names,
                        standardizer=ckpt.standardizer, train_meta=ckpt.train_meta)
        assert (tmp_path / "m.json").read_bytes() == PARENT_CHECKPOINT.read_bytes()


def one_shot_checkpoint_text(params, config, class_names, standardizer=None, train_meta=None):
    """The whole checkpoint as one object through one ``json.dumps``; the byte oracle."""
    import json
    from dataclasses import asdict

    obj = {
        "format_version": 1,
        "config": asdict(config),
        "class_names": list(class_names),
        "params": {
            "W_p": None if params.w_pre is None else params.w_pre.tolist(),
            "b_p": None if params.b_pre is None else params.b_pre.tolist(),
            "W_e": [w.tolist() for w in params.w_msg],
            "W_o": params.w_out.tolist(),
            "b_o": params.b_out.tolist(),
        },
        "standardizer": None if standardizer is None else standardizer.to_dict(),
        "train_meta": train_meta or {},
    }
    return json.dumps(obj) + "\n"


@pytest.mark.parametrize("with_stats", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("use_pre", [True, False])
def test_checkpoint_matches_one_shot_encoder_bytewise(tmp_path, use_pre, k, dtype, with_stats):
    from cogcn import StandardizeStats

    cfg = ModelConfig(in_dim=5, hidden_dim=6, num_layers=k, num_classes=3, use_pre=use_pre,
                      dtype=dtype)
    params = init_params(cfg, k)
    params.b_out[...] = [0.25, -1e-300 if dtype == "float64" else -1e-30, 3.0]
    rng = np.random.default_rng(k)
    stats = (StandardizeStats(rng.standard_normal(5), rng.random(5) + 0.5) if with_stats
             else None)
    meta = {"gamma": 0.55, "graph_kind": "cosine", "note": "café"} if with_stats else None
    names = ("neu", "häppy", 'say "hi"')
    path = tmp_path / "m.json"
    save_checkpoint(path, params, cfg, names, standardizer=stats, train_meta=meta)
    expected = one_shot_checkpoint_text(params, cfg, names, stats, meta)
    assert path.read_bytes() == expected.encode("utf-8")
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg and ckpt.class_names == names
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert ckpt.train_meta == (meta or {})
    if with_stats:
        assert ckpt.standardizer.mean.tobytes() == stats.mean.tobytes()
        assert ckpt.standardizer.std.tobytes() == stats.std.tobytes()
    else:
        assert ckpt.standardizer is None
