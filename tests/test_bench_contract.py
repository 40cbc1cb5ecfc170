"""What the benchmark under perfbench/ relies on in the program.

The benchmark wraps functions by module attribute and cuts its batch timings
at every `training.adam_step` call, so a rename or an inlined optimizer step
would silently change what it measures. Its per-layer forward and backward
figures assume one padded call per length group, not one per graph. Its per-layer counts of
`prepare_graphs` and `train` calls, and the fold's peak memory, follow from
the fold loop's shape, which is pinned here too, and so are the two things
that keep a fold to one copy of the corpus: one block per `prepare_graphs`
call, and `apply_standardizer` on the test set only. Its graph-building figures
and node counts come from one graph builder and one `norm_coefficients` call
per utterance.
"""

import importlib
import importlib.util
import itertools
import math
import weakref
from pathlib import Path

import pytest

from cogcn import (ModelConfig, SynthSpec, TrainConfig, fit_standardizer, init_params,
                   prepare_graphs, synth_dataset, train)
from cogcn import training

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _tracer_targets())
def test_tracer_target_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_train_calls_adam_step_once_per_batch(monkeypatch):
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=7,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    ds_train = dataset.subset_speakers(["spk00", "spk01"])
    ds_val = dataset.subset_speakers(["spk02"])
    tc = TrainConfig(model=ModelConfig(in_dim=4, hidden_dim=4, num_classes=2),
                     epochs=3, batch_size=4)
    calls = []
    step = training.adam_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", counted)
    train(prepare_graphs(ds_train, 0.5, "cosine", tc.model),
          prepare_graphs(ds_val, 0.5, "cosine", tc.model), tc)
    n_train = len(ds_train.utterances)
    assert len(calls) == tc.epochs * math.ceil(n_train / tc.batch_size) == 12


def test_train_runs_one_forward_and_backward_per_batch(monkeypatch):
    # 3-5-frame graphs in batches of 4 make one length group per batch; one
    # call per graph would be the per-graph loop the benchmark measured before
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=7,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    ds_train = dataset.subset_speakers(["spk00", "spk01"])
    ds_val = dataset.subset_speakers(["spk02"])
    tc = TrainConfig(model=ModelConfig(in_dim=4, hidden_dim=4, num_classes=2),
                     epochs=3, batch_size=4)
    calls = []
    forward, backward = training.forward_arrays, training.backward

    def counted_forward(*args, **kwargs):
        calls.append(f"forward.{kwargs.get('mode', args[4] if len(args) > 4 else 'eval')}")
        return forward(*args, **kwargs)

    def counted_backward(*args, **kwargs):
        calls.append("backward")
        return backward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_arrays", counted_forward)
    monkeypatch.setattr(training, "backward", counted_backward)
    train(prepare_graphs(ds_train, 0.5, "cosine", tc.model),
          prepare_graphs(ds_val, 0.5, "cosine", tc.model), tc)
    n_batches = tc.epochs * math.ceil(len(ds_train.utterances) / tc.batch_size)
    assert calls.count("forward.train") == calls.count("backward") == n_batches == 12
    assert calls.count("forward.eval") == tc.epochs  # the validation set is one group


def test_fold_loop_is_gamma_major(monkeypatch):
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=4,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    tc = TrainConfig(model=ModelConfig(in_dim=4, hidden_dim=4, num_classes=2),
                     epochs=1, k_grid=(1, 2), gamma_grid=(0.5, 0.55, 0.6))
    prepared = []  # (gamma, weak references to the graphs) per prepare_graphs call
    trained = []
    evaluated = []
    prepare, fit, score = training.prepare_graphs, training.train, training.evaluate

    def alive():
        return {g for g, refs in prepared if any(ref() is not None for ref in refs)}

    def tracked_prepare(ds, gamma, *args):
        assert alive() <= {gamma}, f"gammas {alive()} still alive while building {gamma}"
        graphs = prepare(ds, gamma, *args)
        prepared.append((gamma, [weakref.ref(pg) for pg in graphs]))
        return graphs

    def tracked_train(p_train, p_val, tc_run):
        gamma = prepared[-1][0]
        assert alive() == {gamma}, f"gammas {alive()} alive while training {gamma}"
        trained.append((tc_run.model.num_layers, gamma))
        return fit(p_train, p_val, tc_run)

    def tracked_evaluate(params, config, ds, gamma, graph_kind):
        evaluated.append(gamma)
        return score(params, config, ds, gamma, graph_kind)

    monkeypatch.setattr(training, "prepare_graphs", tracked_prepare)
    monkeypatch.setattr(training, "train", tracked_train)
    monkeypatch.setattr(training, "evaluate", tracked_evaluate)
    for fold in range(len(dataset.speakers)):
        prepared.clear()
        trained.clear()
        evaluated.clear()
        result = training.run_fold(dataset, tc, fold)
        # train and val graphs per gamma; the test set streams through evaluate
        assert len(prepared) == 2 * len(tc.gamma_grid)
        assert sorted(trained) == sorted(itertools.product(tc.k_grid, tc.gamma_grid))
        assert evaluated == [result.selected.gamma]


def test_evaluate_frees_each_run_before_the_next(monkeypatch):
    # with one or two 3-5-frame graphs per run, the test set is several runs;
    # a run's graphs must be gone by the time a later run is evaluated
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=2, utt_per_speaker=6,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    config = ModelConfig(in_dim=4, hidden_dim=4, num_classes=2)
    built = []  # a weak reference to each graph, in build order
    forwards = []
    prepared_graph, forward = training.PreparedGraph, training.forward_arrays

    class TrackedGraph(prepared_graph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    def tracked_forward(params, config, x, *args, **kwargs):
        first = sum(n for n, _ in forwards)  # build index of this run's first graph
        alive = [i for i, ref in enumerate(built) if ref() is not None]
        assert alive and min(alive) >= first, f"graphs {alive} alive evaluating from {first}"
        forwards.append((len(x), alive))
        return forward(params, config, x, *args, **kwargs)

    monkeypatch.setattr(training, "MAX_GROUP_ENTRIES", 2 * 5**2)
    monkeypatch.setattr(training, "PreparedGraph", TrackedGraph)
    monkeypatch.setattr(training, "forward_arrays", tracked_forward)
    training.evaluate(init_params(config, 0), config, dataset, 0.5, "cosine")
    assert sum(n for n, _ in forwards) == len(built) == len(dataset.utterances) == 12
    assert len(forwards) > 2


@pytest.mark.parametrize("graph_kind", ["cosine", "temporal"])
def test_prepare_graphs_builds_each_graph_once(monkeypatch, graph_kind):
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=2, utt_per_speaker=3,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    calls = []

    def counting(name):
        wrapped = getattr(training, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return wrapped(*args, **kwargs)
        return counted

    for name in ("build_cosine_graph", "build_temporal_graph", "norm_coefficients"):
        monkeypatch.setattr(training, name, counting(name))
    graphs = prepare_graphs(dataset, 0.5, graph_kind, ModelConfig(in_dim=4, num_classes=2))
    n = len(dataset.utterances)
    assert len(graphs) == n == 6
    assert calls == [f"build_{graph_kind}_graph", "norm_coefficients"] * n


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_prepare_graphs_fills_one_block(dtype):
    # one allocation per call, freed with the call's graphs: the fold's peak
    # memory is one gamma's block, not a heap of per-graph arrays
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=2, utt_per_speaker=3,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    config = ModelConfig(in_dim=4, num_classes=2, dtype=dtype)
    stats = fit_standardizer(dataset, dataset.ids)
    graphs = prepare_graphs(dataset, 0.5, "cosine", config, stats=stats)
    block = graphs[0].x.base
    assert block is not None and block.dtype == config.np_dtype
    assert block.size == sum(pg.x.size + pg.coeffs.size for pg in graphs)
    for pg in graphs:
        for array in (pg.x, pg.coeffs):
            assert array.base is block
            assert array.flags.c_contiguous and array.dtype == config.np_dtype


def test_run_fold_standardizes_only_the_test_set_as_a_dataset(monkeypatch):
    # train and validation graphs standardize one utterance at a time inside
    # prepare_graphs; no standardized copy of the whole corpus is made
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=4,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    tc = TrainConfig(model=ModelConfig(in_dim=4, hidden_dim=4, num_classes=2),
                     epochs=1, k_grid=(1,), gamma_grid=(0.5, 0.6))
    seen = []
    standardize = training.apply_standardizer

    def recorded(ds, stats):
        seen.append([u.id for u in ds.utterances])
        return standardize(ds, stats)

    monkeypatch.setattr(training, "apply_standardizer", recorded)
    for fold, speaker in enumerate(dataset.speakers):
        seen.clear()
        training.run_fold(dataset, tc, fold)
        assert seen == [[u.id for u in dataset.utterances if u.speaker == speaker]]
