#!/usr/bin/env python3
"""Train on one speaker split and watch the loss fall.

Standardization is fit on the training speakers only (graph construction is
scale-sensitive, so z-scoring happens before it), the epoch loop accumulates
per-graph gradients into batch-averaged Adam steps, and the checkpoint kept
is the epoch with the best validation UA.
"""

from pathlib import Path

from cogcn import (
    ModelConfig,
    SynthSpec,
    TrainConfig,
    apply_standardizer,
    best_epoch,
    evaluate,
    fit_standardizer,
    prepare_graphs,
    synth_dataset,
    train,
    write_history_csv,
)

dataset = synth_dataset(
    SynthSpec(n_classes=4, n_speakers=6, utt_per_speaker=16, frames_lo=10,
              frames_hi=20, noise_frac=0.2, d=8, cluster_sep=4.0, seed=1)
)
speakers = dataset.speakers
test_speaker, val_speaker = speakers[0], speakers[1]
train_speakers = [s for s in speakers if s not in (test_speaker, val_speaker)]
print(f"train on {train_speakers}, validate on {val_speaker}, test on {test_speaker}")

train_ids = [u.id for u in dataset.utterances if u.speaker in set(train_speakers)]
stats = fit_standardizer(dataset, train_ids)
std = apply_standardizer(dataset, stats)

config = ModelConfig(in_dim=8, hidden_dim=16, num_layers=2, num_classes=4)
tc = TrainConfig(model=config, lr=1e-3, epochs=50, batch_size=16, seed=0,
                 graph_kind="cosine")

# train() fits graphs built once up front: one per utterance, at one gamma
gamma = 0.5
params, history = train(
    prepare_graphs(std.subset_speakers(train_speakers), gamma, tc.graph_kind, config),
    prepare_graphs(std.subset_speakers([val_speaker]), gamma, tc.graph_kind, config),
    tc,
)

print("\nepoch  train_loss  val_wa  val_ua")
for s in history[::5]:
    print(f"{s.epoch:5d}  {s.train_loss:10.4f}  {s.val_wa:6.3f}  {s.val_ua:6.3f}")
best = history[best_epoch(history)]
print(f"\nbest validation epoch: {best.epoch} (ua {best.val_ua:.3f})")

metrics = evaluate(params, config, std.subset_speakers([test_speaker]),
                   gamma, tc.graph_kind)
print(f"held-out speaker {test_speaker}: wa {metrics.wa:.3f} ua {metrics.ua:.3f}")
print("confusion (rows true, cols predicted):")
print(metrics.confusion)

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
write_history_csv(history, out_dir / "history.csv")
print(f"\nwrote {out_dir}/history.csv")
