"""Small shared utilities: named RNG substreams and atomic file writes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Every consumer of randomness gets its own stream, so e.g. two architecture
# variants trained with the same seed start from identical weights and two
# synth calls never interleave draws with the training loop.
_STREAMS = {"init": 0, "shuffle": 1, "dropout": 2, "synth": 3}


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named randomness consumer of ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],))
    )


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and atomic rename.

    If the write fails, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
