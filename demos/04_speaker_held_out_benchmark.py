#!/usr/bin/env python3
"""Compare cosine-similarity graphs against temporal chains under full
leave-one-speaker-out cross-validation.

Each fold holds one speaker out for testing and the next for validation,
fits the standardizer on the rest, and picks the layer count and similarity
threshold by validation UA. The same seeds drive both arms, so they start
from identical weights. Expect the cosine graphs to come out ahead: the
corpus plants a contiguous run of loud vacuum frames in every utterance,
which a chain dutifully propagates into its neighbours while thresholded
similarities prune it away.

Runtime is about ten seconds on two cores; shrink ``SEEDS`` for a quicker look.
"""

import numpy as np

from cogcn import ModelConfig, SynthSpec, TrainConfig, loso_cv, synth_dataset

SEEDS = (0, 1)


def corpus(seed):
    return synth_dataset(
        SynthSpec(n_classes=4, n_speakers=8, utt_per_speaker=20, frames_lo=16,
                  frames_hi=32, noise_frac=0.3, d=8, cluster_sep=3.5, seed=seed)
    )


results = {}
for arm, graph_kind in (("cosine graphs", "cosine"), ("temporal chains", "temporal")):
    uas = []
    for seed in SEEDS:
        config = ModelConfig(in_dim=8, hidden_dim=16, num_layers=2, num_classes=4)
        tc = TrainConfig(model=config, epochs=20, seed=seed, graph_kind=graph_kind)
        cv = loso_cv(corpus(seed), tc)
        print(f"{arm:16s} seed {seed}: mean wa {cv.mean_wa:.4f} "
              f"mean ua {cv.mean_ua:.4f} "
              f"(selected K per fold: {[f.selected.config.num_layers for f in cv.folds]})")
        uas.append(cv.mean_ua)
    results[arm] = float(np.mean(uas))

print()
for arm, ua in results.items():
    print(f"{arm:16s} mean UA over {len(SEEDS)} seeds: {ua:.4f}")
gap = results["cosine graphs"] - results["temporal chains"]
print(f"\ncosine advantage: {gap:+.4f} UA")
