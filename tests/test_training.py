"""Loss, backward vs finite differences, Adam, the training loop, metrics, CV."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cogcn import (
    AdamState,
    DataError,
    ModelConfig,
    ModelParams,
    SynthSpec,
    TrainConfig,
    adam_step,
    apply_standardizer,
    backward,
    build_cosine_graph,
    build_temporal_graph,
    cross_entropy_from_logits,
    evaluate,
    fit_standardizer,
    forward_arrays,
    init_adam_state,
    init_params,
    loso_cv,
    metrics_from_confusion,
    norm_coefficients,
    param_count,
    param_layout,
    prepare_graphs,
    run_fold,
    sample_dropout_mask,
    softmax,
    synth_dataset,
    train,
    write_history_csv,
    write_metrics_json,
)
from cogcn.gradcheck import run_gradcheck
from cogcn.training import EpochStats, Trial, select_trial


# a vector of 2 to 8 logits in [-30, 30], and a label
LOGITS_AND_LABEL = st.integers(2, 8).flatmap(lambda c: st.tuples(
    arrays(np.float64, c, elements=st.floats(-30.0, 30.0)), st.integers(0, c - 1)))


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy_from_logits([[0.0, 0.0, 0.0, 0.0]], [0])[0] == pytest.approx(
            math.log(4)
        )

    def test_confident_correct(self):
        assert cross_entropy_from_logits([[0.0, -1000.0, -1000.0]], [0])[0] == 0.0

    def test_hand_value(self):
        logits = np.log([0.1, 0.2, 0.3, 0.4])
        assert cross_entropy_from_logits([logits], [3])[0] == pytest.approx(0.916290731874155)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy_from_logits([[0.5, 0.5]], [2])

    @settings(max_examples=50)
    @given(LOGITS_AND_LABEL)
    def test_logits_route_matches_probs_route(self, case):
        logits, label = case
        assert cross_entropy_from_logits([logits], [label])[0] == pytest.approx(
            -math.log(softmax(logits)[label]), rel=1e-12
        )

    @settings(max_examples=100)
    @given(LOGITS_AND_LABEL)
    def test_non_negative(self, case):
        logits, label = case
        assert cross_entropy_from_logits([logits], [label])[0] >= 0.0


class TestBackward:
    def test_matches_finite_differences(self):
        report = run_gradcheck(n_instances=8, seed=123)
        assert report.max_rel_error < 1e-4
        assert set(report.graph_kinds) == {"cosine", "temporal"}

    def test_zero_head_gives_closed_form_bias_gradient(self):
        # with W_out = 0 and b_out = 0 the output is uniform, so the head bias
        # gradient is probs - onehot: +0.25 off-label, -0.75 at the label
        cfg = ModelConfig(in_dim=3, hidden_dim=4, num_layers=1, num_classes=4,
                          dropout=0.0, dtype="float64")
        params = init_params(cfg, 0)
        params.w_out[:] = 0.0
        params.b_out[:] = 0.0
        x = np.random.default_rng(2).standard_normal((3, 3))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        mask = sample_dropout_mask(cfg, np.random.default_rng(0))
        _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="train",
                                     dropout_mask=mask[None])
        grads = backward(params, cfg, cache, label=[2])
        np.testing.assert_allclose(grads.b_out[0], [0.25, 0.25, -0.75, 0.25], atol=1e-15)

    def test_gradient_accumulation_is_linear(self):
        # duplicating a graph doubles its contribution before averaging
        cfg = ModelConfig(in_dim=3, hidden_dim=4, num_layers=1, num_classes=2,
                          dropout=0.0, dtype="float64")
        params = init_params(cfg, 1)
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((3, 3))
        x2 = rng.standard_normal((4, 3))

        def grad_of(x, label):
            coeffs = norm_coefficients(build_temporal_graph(x),
                                       include_self=cfg.self_in_aggregation)
            mask = sample_dropout_mask(cfg, np.random.default_rng(0))
            _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="train",
                                         dropout_mask=mask[None])
            return backward(params, cfg, cache, [label])

        a, b = grad_of(x1, 0), grad_of(x2, 1)
        twice_a = grad_of(x1, 0)
        avg = (2 * a.w_out + b.w_out) / 3.0
        manual = (a.w_out + twice_a.w_out + b.w_out) / 3.0
        np.testing.assert_allclose(avg, manual, atol=1e-15)

    def test_oracle_never_calls_backward(self, monkeypatch):
        import cogcn.gradcheck as gc
        import cogcn.training as tr

        def refuse(*args, **kwargs):
            raise AssertionError("the finite-difference oracle called backward")

        monkeypatch.setattr(tr, "backward", refuse)
        monkeypatch.setattr(gc, "backward", refuse)
        instance = gc._draw_instance(np.random.default_rng(0), 0)
        numeric = gc.finite_difference_grads(instance)
        assert numeric.flat.shape == instance.params.flat.shape
        assert np.all(np.isfinite(numeric.flat)) and np.any(numeric.flat != 0.0)

    def test_gradcheck_checks_groups_of_one(self, monkeypatch):
        # the oracle checks the shape training runs: each graph as a group of one
        import cogcn.gradcheck as gc

        shapes = []

        def recording(params, config, cache, label):
            shapes.append((cache.x.shape[0], cache.coeffs.shape[0],
                           cache.dropout_mask.shape[0], np.shape(label)))
            return backward(params, config, cache, label)

        monkeypatch.setattr(gc, "backward", recording)
        assert gc.run_gradcheck(n_instances=2, seed=1).passed()
        assert shapes == [(1, 1, 1, (1,))] * 2

    def test_requires_train_cache(self):
        cfg = ModelConfig(in_dim=3, hidden_dim=4, num_layers=1, dtype="float64")
        params = init_params(cfg, 0)
        x = np.zeros((2, 3))
        coeffs = norm_coefficients(build_temporal_graph(x),
                                   include_self=cfg.self_in_aggregation)
        _, _, cache = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        with pytest.raises(ValueError, match="train-mode"):
            backward(params, cfg, cache, [0])


class TestAdam:
    CFG = ModelConfig(in_dim=3, hidden_dim=3, num_layers=2, num_classes=2,
                      use_pre=False, dtype="float64")

    def _params(self, w_out):
        params = init_params(self.CFG, 0)
        params.w_out[...] = w_out
        return params

    def _grads(self, w_out):
        grads = ModelParams(self.CFG)
        grads.w_out[...] = w_out
        return grads

    def test_first_step_is_signed_lr(self):
        params = self._params([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
        grads = self._grads([[0.5, -0.25, 2.0], [0.0, 0.0, 0.0]])
        state = init_adam_state(params)
        new, state = adam_step(params.copy(), grads, state, lr=0.1)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert new.w_out[0, 0] == pytest.approx(expected, rel=1e-12)
        # each parameter moves by ~lr in the direction opposite the gradient
        moves = new.w_out - params.w_out
        np.testing.assert_allclose(moves, [[-0.1, 0.1, -0.1], [0.0, 0.0, 0.0]], rtol=1e-6)
        np.testing.assert_array_equal(new.w_msg[0], params.w_msg[0])  # zero gradient
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        params = self._params(1.0)
        grads = ModelParams(self.CFG)
        state = init_adam_state(params)
        new, state = adam_step(params.copy(), grads, state, lr=0.1)
        np.testing.assert_array_equal(new.flat, params.flat)
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_identical_tensors_update_identically(self):
        params = init_params(self.CFG, 0)
        grads = ModelParams(self.CFG)
        for w, g in zip(params.w_msg, grads.w_msg):
            w[...] = 1.0
            g[...] = 0.3
        new, _ = adam_step(params, grads, init_adam_state(params), lr=0.01)
        np.testing.assert_array_equal(new.w_msg[0], new.w_msg[1])

    def test_step_size_bounded_by_lr_at_t1(self):
        rng = np.random.default_rng(4)
        params = init_params(self.CFG, 0)
        params.flat[...] = rng.standard_normal(params.flat.size)
        grads = ModelParams(self.CFG, rng.standard_normal(params.flat.size) * 100)
        new, _ = adam_step(params.copy(), grads, init_adam_state(params), lr=0.05)
        assert np.max(np.abs(new.flat - params.flat)) <= 0.05 * (1 + 1e-9)

    def test_updates_in_place(self):
        params = init_params(self.CFG, 0)
        grads = ModelParams(self.CFG, np.full(params.flat.size, 0.5))
        state = init_adam_state(params)
        flat, m, v = params.flat, state.m, state.v
        new, new_state = adam_step(params, grads, state, lr=0.1)
        assert new is params and new_state is state and state.t == 1
        assert new.flat is flat and new_state.m is m and new_state.v is v
        assert np.all(m > 0.0) and np.all(flat != init_params(self.CFG, 0).flat)

    def test_mismatched_shapes_rejected(self):
        params = init_params(self.CFG, 0)
        other = ModelConfig(in_dim=3, hidden_dim=4, num_layers=2, num_classes=2,
                            use_pre=False, dtype="float64")
        assert param_count(other) != param_count(self.CFG)
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(params, ModelParams(other), init_adam_state(params), lr=0.1)

    def test_matches_per_array_reference(self):
        # Adam is elementwise, so the flat update must equal the textbook
        # update applied to each named array separately, bit for bit
        b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        rng = np.random.default_rng(6)
        params = init_params(self.CFG, 1)
        state = init_adam_state(params)
        for t in (1, 2, 3):
            grads = ModelParams(self.CFG, rng.standard_normal(params.flat.size))
            moments = AdamState(state.m.copy(), state.v.copy(), state.t)
            new, new_state = adam_step(params.copy(), grads, moments, lr)
            for name, shape, offset in param_layout(self.CFG):
                part = slice(offset, offset + math.prod(shape))
                g = grads.arrays[name]
                m = b1 * state.m[part].reshape(shape) + (1.0 - b1) * g
                v = b2 * state.v[part].reshape(shape) + (1.0 - b2) * (g * g)
                step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
                assert np.array_equal(new.arrays[name], params.arrays[name] - step)
            params, state = new, new_state


class TestMetrics:
    def test_all_correct(self):
        m = metrics_from_confusion(np.diag([3, 2, 5]))
        assert m.wa == 1.0 and m.ua == 1.0

    def test_hand_confusion(self):
        # class 0: 3/3 correct; class 1: 0/1 -> WA 0.75, UA 0.5
        m = metrics_from_confusion(np.array([[3, 0], [1, 0]]))
        assert m.wa == 0.75 and m.ua == 0.5

    def test_absent_class_excluded_from_ua(self):
        m = metrics_from_confusion(np.array([[2, 0, 0], [0, 1, 1], [0, 0, 0]]))
        assert m.ua == pytest.approx((1.0 + 0.5) / 2)

    @settings(max_examples=50)
    @given(st.tuples(st.integers(2, 8), st.integers(1, 10)).flatmap(
        lambda shape: arrays(np.int64, shape, elements=st.integers(0, shape[0] - 1))))
    def test_wa_equals_ua_when_balanced(self, preds):
        # row i holds the predictions for the utterances of class i, as many per class
        m = metrics_from_confusion(np.array([np.bincount(row, minlength=len(preds))
                                             for row in preds]))
        assert m.wa == pytest.approx(m.ua, abs=1e-12)

    @settings(max_examples=300)
    @given(st.integers(2, 9).flatmap(
        lambda c: arrays(np.int64, (c, c), elements=st.integers(0, 1000))).filter(np.any))
    @example(np.arange(1, 65).reshape(8, 8) * 7 % 11)  # 8 classes, every one present
    @example(np.arange(81).reshape(9, 9) % 13 + np.eye(9, dtype=int))  # 9 present
    @example(np.diag([0, 3, 0, 5, 0, 7, 0, 9, 1]))  # 5 of 9 present
    def test_matches_numpy_formula_bitwise(self, confusion):
        # numpy's mean sums 8 or more recalls pairwise: those must keep its order
        wa = float(np.trace(confusion) / confusion.sum())
        row_sums = confusion.sum(axis=1)
        present = row_sums > 0
        ua = float((confusion.diagonal()[present] / row_sums[present]).mean())
        for given_as in (confusion, confusion.tolist()):
            m = metrics_from_confusion(given_as)
            assert (m.wa.hex(), m.ua.hex()) == (wa.hex(), ua.hex())
            assert m.confusion.dtype == np.int64 and np.array_equal(m.confusion, confusion)


def small_corpus(seed=0, noise=0.0, sep=6.0, speakers=4):
    return synth_dataset(
        SynthSpec(
            n_classes=4, n_speakers=speakers, utt_per_speaker=8,
            frames_lo=5, frames_hi=10, noise_frac=noise, d=6,
            cluster_sep=sep, seed=seed,
        )
    )


def standardized_split(ds, test_speakers):
    train_ids = [u.id for u in ds.utterances if u.speaker not in test_speakers]
    stats = fit_standardizer(ds, train_ids)
    std = apply_standardizer(ds, stats)
    train_ds = std.subset_speakers([s for s in std.speakers if s not in test_speakers])
    val_ds = std.subset_speakers(test_speakers)
    return train_ds, val_ds


def prepared(ds, config, gamma=0.5):
    return prepare_graphs(ds, gamma, "cosine", config)


class TestTrainLoop:
    def _tc(self, seed=0, **kwargs):
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_layers=2, num_classes=4,
                          dtype="float64")
        defaults = dict(model=cfg, epochs=8, seed=seed)
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def _split(self, **corpus):
        train_ds, val_ds = standardized_split(small_corpus(**corpus), ["spk03"])
        cfg = self._tc().model
        return prepared(train_ds, cfg), prepared(val_ds, cfg)

    def test_deterministic_bitwise_float64(self):
        p_train, p_val = self._split()
        p1, h1 = train(p_train, p_val, self._tc())
        p2, h2 = train(p_train, p_val, self._tc())
        assert h1 == h2
        assert np.array_equal(p1.flat, p2.flat)

    def test_loss_decreases_on_separable_data(self):
        p_train, p_val = self._split(noise=0.0, sep=6.0)
        _, history = train(p_train, p_val,
                           self._tc(epochs=50, batch_size=4, lr=3e-3))
        assert min(s.train_loss for s in history) < 0.1

    def test_empty_val_rejected(self):
        p_train, _ = self._split()
        with pytest.raises(ValueError, match="validation set required"):
            train(p_train, None, self._tc())

    def test_overlapping_ids_rejected(self):
        p_train, _ = self._split()
        with pytest.raises(ValueError, match="share"):
            train(p_train, p_train, self._tc())

    def test_width_mismatch_rejected(self):
        p_train, p_val = self._split()
        narrow = self._tc(model=ModelConfig(in_dim=5, hidden_dim=8, num_classes=4,
                                            dtype="float64"))
        with pytest.raises(ValueError, match="input width 6"):
            train(p_train, p_val, narrow)

    def test_ties_keep_the_earliest_best_epochs_params(self):
        # a run cut at the first best epoch takes the same steps up to there
        # and ends on that epoch's parameters, so a run that keeps a later
        # epoch of equal validation UA returns other bits
        p_train, p_val = self._split()
        tc = self._tc(epochs=12, batch_size=4, lr=3e-3)
        params, history = train(p_train, p_val, tc)
        first = max(history, key=lambda s: s.val_ua)
        assert first.val_ua in [s.val_ua for s in history[first.epoch:]]
        cut, _ = train(p_train, p_val, replace(tc, epochs=first.epoch))
        assert params.flat.tobytes() == cut.flat.tobytes()

    def test_history_csv_schema(self, tmp_path):
        p_train, p_val = self._split()
        _, history = train(p_train, p_val, self._tc(epochs=3))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_wa,val_ua"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == history[0].train_loss


def old_prepare_graphs(std_ds, gamma, graph_kind, config):
    """The path before per-utterance standardization: a standardized dataset in,
    one pair of freshly cast arrays per graph out; kept as the byte oracle."""
    dt = config.np_dtype
    out = []
    for utt in std_ds.utterances:
        g = (build_cosine_graph(utt.features, gamma) if graph_kind == "cosine"
             else build_temporal_graph(utt.features))
        coeffs = norm_coefficients(g, include_self=config.self_in_aggregation)
        out.append((utt.id, np.ascontiguousarray(utt.features, dtype=dt),
                    np.ascontiguousarray(coeffs, dtype=dt), utt.label))
    return out


class TestPrepareGraphs:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("graph_kind", ["cosine", "temporal"])
    def test_stats_path_matches_standardized_dataset_bytewise(self, graph_kind, dtype):
        ds = small_corpus(noise=0.3, sep=3.0)
        stats = fit_standardizer(ds, [u.id for u in ds.utterances if u.speaker != "spk03"])
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_classes=4, dtype=dtype)
        std = apply_standardizer(ds, stats)
        expected = old_prepare_graphs(std, 0.55, graph_kind, cfg)
        for got in (prepare_graphs(ds, 0.55, graph_kind, cfg, stats=stats),
                    prepare_graphs(std, 0.55, graph_kind, cfg)):
            assert len(got) == len(expected) == len(ds.utterances)
            for pg, (uid, x, coeffs, label) in zip(got, expected):
                assert (pg.id, pg.label) == (uid, label)
                assert pg.x.dtype == x.dtype and pg.x.shape == x.shape
                assert pg.coeffs.dtype == coeffs.dtype and pg.coeffs.shape == coeffs.shape
                assert pg.x.tobytes() == x.tobytes()
                assert pg.coeffs.tobytes() == coeffs.tobytes()

    def test_stats_width_mismatch_raises_like_apply_standardizer(self):
        from cogcn import StandardizeStats

        ds = small_corpus()
        stats = StandardizeStats(np.zeros(ds.d + 1), np.ones(ds.d + 1))
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_classes=4)
        with pytest.raises(ValueError) as expected:
            apply_standardizer(ds, stats)
        with pytest.raises(ValueError) as got:
            prepare_graphs(ds, 0.5, "cosine", cfg, stats=stats)
        assert str(got.value) == str(expected.value)
        assert "standardizer dimension 7 does not match dataset d=6" in str(got.value)


class TestEvaluate:
    def test_order_invariance(self):
        ds = small_corpus()
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_classes=4, dtype="float64")
        params = init_params(cfg, 0)
        stats = fit_standardizer(ds, ds.ids)
        std = apply_standardizer(ds, stats)
        from cogcn import Dataset

        reversed_ds = Dataset(tuple(reversed(std.utterances)), std.d, std.class_names)
        m1 = evaluate(params, cfg, std, 0.5, "cosine")
        m2 = evaluate(params, cfg, reversed_ds, 0.5, "cosine")
        assert m1.wa == m2.wa and m1.ua == m2.ua
        assert np.array_equal(m1.confusion, m2.confusion)

    def test_returned_params_reproduce_best_val_score(self):
        # the returned checkpoint is the best-val-UA epoch; re-evaluating it
        # on the validation set must reproduce that score exactly
        ds = small_corpus(noise=0.0, sep=8.0)
        train_ds, val_ds = standardized_split(ds, ["spk03"])
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_layers=2, num_classes=4,
                          dtype="float64")
        tc = TrainConfig(model=cfg, epochs=40, batch_size=4, lr=3e-3, seed=0)
        params, history = train(prepared(train_ds, cfg), prepared(val_ds, cfg), tc)
        best = max(history, key=lambda s: s.val_ua)
        m = evaluate(params, cfg, val_ds, 0.5, "cosine")
        assert m.ua == best.val_ua and m.wa == best.val_wa
        assert m.wa == 1.0 and m.ua == 1.0  # corpus is cleanly separable


class TestLosoCV:
    def _tc(self, seed=0):
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_layers=2, num_classes=4,
                          dtype="float64")
        return TrainConfig(model=cfg, epochs=4, seed=seed, k_grid=(1, 2),
                           gamma_grid=(0.5,))

    def test_one_fold_per_speaker(self):
        ds = small_corpus(speakers=4)
        result = loso_cv(ds, self._tc())
        assert [f.speaker for f in result.folds] == list(ds.speakers)
        assert all(int(f.metrics.confusion.sum()) == 8 for f in result.folds)

    def test_no_leakage(self):
        ds = small_corpus(speakers=4)
        for i, speaker in enumerate(ds.speakers):
            fold = run_fold(ds, self._tc(), i)
            assert fold.speaker == speaker
            assert fold.val_speaker != speaker
            test_ids = {u.id for u in ds.utterances if u.speaker == speaker}
            val_ids = {u.id for u in ds.utterances if u.speaker == fold.val_speaker}
            train_ids = set(ds.ids) - test_ids - val_ids
            # standardizer depends only on training ids
            expected_stats = fit_standardizer(ds, train_ids)
            assert np.array_equal(fold.stats.mean, expected_stats.mean)
            assert np.array_equal(fold.stats.std, expected_stats.std)

    def test_val_speaker_is_next_lexicographic_with_wraparound(self):
        ds = small_corpus(speakers=4)
        folds = [run_fold(ds, self._tc(), i) for i in range(4)]
        assert [(f.speaker, f.val_speaker) for f in folds] == [
            ("spk00", "spk01"),
            ("spk01", "spk02"),
            ("spk02", "spk03"),
            ("spk03", "spk00"),
        ]

    def test_deterministic(self):
        ds = small_corpus(speakers=3)
        r1 = loso_cv(ds, self._tc())
        r2 = loso_cv(ds, self._tc())
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_fewer_than_three_speakers_rejected(self):
        ds = small_corpus(speakers=2)
        with pytest.raises(ValueError, match="at least 3 speakers"):
            loso_cv(ds, self._tc())

    def test_too_few_speakers_rejected_before_the_pool_starts(self, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(DataError, match="at least 3 speakers"):
            loso_cv(small_corpus(speakers=2), self._tc(), jobs=2)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (64, 3)])
    def test_pool_has_at_most_one_worker_per_fold(self, monkeypatch, jobs, workers):
        # a recording stand-in that maps in this process: no worker is started
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        ds = small_corpus(speakers=3)
        result = loso_cv(ds, self._tc(), jobs=jobs)
        assert asked == [workers]
        assert [f.speaker for f in result.folds] == list(ds.speakers)

    def test_parallel_matches_serial(self):
        ds = small_corpus(speakers=3)
        serial = loso_cv(ds, self._tc(), jobs=1)
        parallel = loso_cv(ds, self._tc(), jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_metrics_json_schema(self, tmp_path):
        import json

        ds = small_corpus(speakers=3)
        result = loso_cv(ds, self._tc())
        path = tmp_path / "metrics.json"
        write_metrics_json(result, path)
        obj = json.loads(path.read_text())
        assert set(obj) == {"folds", "mean_wa", "mean_ua", "class_names"}
        assert obj["class_names"] == list(ds.class_names)
        assert len(obj["folds"]) == 3
        for fold in obj["folds"]:
            assert set(fold) == {
                "speaker", "wa", "ua", "confusion", "selected_K", "selected_gamma"
            }
        assert obj["mean_wa"] == pytest.approx(
            np.mean([f["wa"] for f in obj["folds"]])
        )

    @pytest.mark.parametrize("scores, expected", [
        ({}, (1, 0.5)),  # every setting ties: the first of both grids
        ({(2, 0.5): 0.9, (1, 0.6): 0.8}, (2, 0.5)),  # unique maximum
        ({(2, 0.5): 0.9, (1, 0.6): 0.9}, (1, 0.6)),  # tie: the earlier K wins
    ])
    def test_selection_rule(self, monkeypatch, scores, expected):
        from cogcn import EpochStats, training

        gammas = []
        prepare = training.prepare_graphs

        def recording_prepare(ds, gamma, *args):
            gammas.append(gamma)
            return prepare(ds, gamma, *args)

        def canned_train(p_train, p_val, tc):
            ua = scores.get((tc.model.num_layers, gammas[-1]), 0.5)
            return init_params(tc.model, 0), [EpochStats(1, 1.0, ua, ua)]

        monkeypatch.setattr(training, "prepare_graphs", recording_prepare)
        monkeypatch.setattr(training, "train", canned_train)
        tc = replace(self._tc(), k_grid=(1, 2, 3), gamma_grid=(0.5, 0.55, 0.6))
        fold = run_fold(small_corpus(speakers=3), tc, 0)
        assert (fold.selected.config.num_layers, fold.selected.gamma) == expected
        assert fold.selected.val_ua == scores.get(expected, 0.5)

    @pytest.mark.parametrize("scores", [
        {},  # every trial ties: the first trained is the first in K-major order
        {(3, 0.6): 0.9},  # the last trial trained wins
        {(2, 0.5): 0.9, (1, 0.6): 0.9},  # a tie won by a trial trained after the other
    ])
    def test_fold_keeps_the_selected_trials_params(self, monkeypatch, scores):
        from cogcn import training

        gammas, returned = [], {}
        prepare = training.prepare_graphs

        def recording_prepare(ds, gamma, *args):
            gammas.append(gamma)
            return prepare(ds, gamma, *args)

        def canned_train(p_train, p_val, tc):
            key = (tc.model.num_layers, gammas[-1])
            returned[key] = init_params(tc.model, 0)
            ua = scores.get(key, 0.5)
            return returned[key], [EpochStats(1, 1.0, ua, ua)]

        monkeypatch.setattr(training, "prepare_graphs", recording_prepare)
        monkeypatch.setattr(training, "train", canned_train)
        grid = (1, 2, 3), (0.5, 0.55, 0.6)
        tc = replace(self._tc(), k_grid=grid[0], gamma_grid=grid[1])
        fold = run_fold(small_corpus(speakers=3), tc, 0)
        # one trial per grid point, in the order trained: gamma-major
        assert [(t.config.num_layers, t.gamma) for t in fold.trials] == [
            (k, g) for g in grid[1] for k in grid[0]]
        assert any(t is fold.selected for t in fold.trials)
        assert fold.params is returned[fold.selected.config.num_layers, fold.selected.gamma]

    def test_temporal_kind_skips_gamma_grid(self):
        ds = small_corpus(speakers=3)
        cfg = ModelConfig(in_dim=6, hidden_dim=8, num_classes=4, dtype="float64")
        tc = TrainConfig(model=cfg, epochs=2, seed=0, k_grid=(1,),
                         gamma_grid=(0.5, 0.55, 0.6), graph_kind="temporal")
        result = loso_cv(ds, tc)
        assert all(f.selected.gamma == 0.5 for f in result.folds)


@settings(max_examples=300)
@given(
    k_grid=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    gamma_grid=st.lists(st.sampled_from([0.3, 0.5, 0.55, 0.6, 0.9]), min_size=1,
                        max_size=3, unique=True),
    data=st.data(),
)
def test_select_trial_is_the_first_maximum_in_k_major_order(k_grid, gamma_grid, data):
    # validation UAs from three values, so that ties are common; a trial's
    # score is the best of its epochs
    epoch_uas = {point: data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                                           min_size=1, max_size=3))
                 for point in itertools.product(k_grid, gamma_grid)}
    config = ModelConfig(in_dim=2, hidden_dim=2, num_classes=2)
    trials = [Trial(replace(config, num_layers=k), g,
                    [EpochStats(e, 1.0, ua, ua) for e, ua in enumerate(epoch_uas[k, g], 1)])
              for g in gamma_grid for k in k_grid]  # gamma-major, as run_fold trains them
    best = None
    for point in itertools.product(k_grid, gamma_grid):  # brute force, K-major
        if best is None or max(epoch_uas[point]) > max(epoch_uas[best]):
            best = point
    chosen = select_trial(trials, tuple(k_grid), tuple(gamma_grid))
    assert any(chosen is t for t in trials)
    assert (chosen.config.num_layers, chosen.gamma) == best
    assert chosen.val_ua == max(epoch_uas[best])
