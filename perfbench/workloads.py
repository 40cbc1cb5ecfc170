"""The benchmark's workloads: corpus shape and the `cogcn` settings they run.

Pure data, so the child process can load it before it starts timing the
import of cogcn. See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "loso": `cogcn train`; "infer": one-utterance `evaluate` calls
    corpus: dict  # SynthSpec fields except the seed
    train_args: tuple[str, ...] = ()  # `cogcn train` flags shared by every arm
    arms: tuple[str, ...] = ("cosine",)  # graph kinds trained, cosine first
    # Seconds one job child, with its set-up-only children, takes on the
    # 2-core VM the benchmark was tuned on. A run starts round(--seconds /
    # child_s) job children, at least two, so both sides of a comparison take
    # their fastest times over as many samples.
    child_s: float = 7.0
    # Single-utterance requests timed per child: at least 1000, so that each
    # child's 99th percentile has ten requests beyond it.
    requests: int = 1000


_REF_CORPUS = dict(
    n_classes=4, n_speakers=4, utt_per_speaker=16, frames_lo=100, frames_hi=300,
    noise_frac=0.3, d=88, cluster_sep=12.0,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loso_desk",
            kind="loso",
            corpus=dict(
                n_classes=4, n_speakers=4, utt_per_speaker=20, frames_lo=16,
                frames_hi=32, noise_frac=0.3, d=8, cluster_sep=3.5,
            ),
            train_args=("--z", "16", "--epochs", "10", "--batch", "32", "--lr", "8e-3"),
            arms=("cosine", "temporal"),
            # 0.15 ms requests: a tail of 40 samples is steadier than one of 10
            requests=4000,
            child_s=5.0,
        ),
        Workload(
            name="loso_ref",
            kind="loso",
            corpus=_REF_CORPUS,
            # one K, so every fold checkpoint serves requests at the same depth
            train_args=("--z", "128", "--epochs", "5", "--batch", "32", "--lr", "3e-3",
                        "--k", "2"),
        ),
        Workload(name="infer_ref", kind="infer", corpus={**_REF_CORPUS, "utt_per_speaker": 36},
                 child_s=8.0),
    )
}
