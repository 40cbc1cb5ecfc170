"""What the benchmark under perfbench/ relies on in the program.

The benchmark wraps functions by module attribute and cuts its batch timings
at every `training.adam_step` call, so a rename or an inlined optimizer step
would silently change what it measures. Its per-layer counts of
`prepare_graphs` and `train` calls, and the fold's peak memory, follow from
the fold loop's shape, which is pinned here too.
"""

import importlib
import importlib.util
import itertools
import math
import weakref
from pathlib import Path

import pytest

from cogcn import (ModelConfig, SynthSpec, TrainConfig, prepare_graphs, synth_dataset,
                   train)
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


def test_fold_loop_is_gamma_major(monkeypatch):
    dataset = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=4,
                                      frames_lo=3, frames_hi=5, d=4, seed=0))
    tc = TrainConfig(model=ModelConfig(in_dim=4, hidden_dim=4, num_classes=2),
                     epochs=1, k_grid=(1, 2), gamma_grid=(0.5, 0.55, 0.6))
    prepared = []  # (gamma, weak references to the graphs) per prepare_graphs call
    trained = []
    prepare, fit = training.prepare_graphs, training.train

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

    monkeypatch.setattr(training, "prepare_graphs", tracked_prepare)
    monkeypatch.setattr(training, "train", tracked_train)
    for fold in range(len(dataset.speakers)):
        prepared.clear()
        trained.clear()
        training.run_fold(dataset, tc, fold)
        # train and val graphs per gamma, then the test set's at the selected gamma
        assert len(prepared) == 2 * len(tc.gamma_grid) + 1
        assert sorted(trained) == sorted(itertools.product(tc.k_grid, tc.gamma_grid))
