"""What the benchmark under perfbench/ relies on in the program.

The benchmark wraps functions by module attribute and cuts its batch timings
at every `training.adam_step` call, so a rename or an inlined optimizer step
would silently change what it measures.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from cogcn import ModelConfig, SynthSpec, TrainConfig, synth_dataset, train
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
    train(ds_train, ds_val, tc)
    n_train = len(ds_train.utterances)
    assert len(calls) == tc.epochs * math.ceil(n_train / tc.batch_size) == 12
