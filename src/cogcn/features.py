"""Frame-level feature ingestion, standardization, and synthetic corpora.

A dataset is a collection of utterances; each utterance carries an (n, d)
matrix of per-frame feature vectors (one row per analysis frame, e.g. the
88 eGeMAPS descriptors), a class label, and a speaker id. On disk a dataset
is a JSON Lines manifest plus one CSV feature file per utterance.

The synthetic generator produces deterministic corpora in which voiced frames
cluster per class (with a small per-speaker shift) while a configurable
fraction of "vacuum" frames is drawn from one class-independent noise
distribution. It is the canonical desk-scale test corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .util import substream, write_text_atomic

STD_FLOOR = 1e-8
_SPEAKER_SHIFT = 0.25  # scale of the per-speaker offset in synthetic corpora
_VACUUM_STD = 3.0  # vacuum frames are loud, directionless noise bursts


class DataError(ValueError):
    """A manifest, feature file, or dataset violates its contract."""


@dataclass(frozen=True)
class Utterance:
    """One classification instance: an (n, d) frame matrix plus metadata."""

    id: str
    features: np.ndarray
    label: int
    speaker: str
    session: str = ""

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Dataset:
    """A labelled collection of utterances with a shared feature dimension.

    ``class_names`` are sorted lexicographically and define the label
    indices everywhere (files, checkpoints, metrics). At least two distinct
    speakers are needed for speaker-held-out evaluation.
    """

    utterances: tuple[Utterance, ...]
    d: int
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.utterances:
            raise DataError("dataset contains no utterances")
        if list(self.class_names) != sorted(self.class_names):
            raise DataError("class_names must be sorted lexicographically")
        seen = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id '{utt.id}'")
            seen.add(utt.id)
            if utt.features.ndim != 2 or utt.features.shape[1] != self.d:
                raise DataError(
                    f"utterance '{utt.id}': feature dimension "
                    f"{utt.features.shape} does not match d={self.d}"
                )
            if utt.n_frames < 1:
                raise DataError(f"utterance '{utt.id}': empty utterance")
            if not np.all(np.isfinite(utt.features)):
                raise DataError(f"utterance '{utt.id}': non-finite feature value")
            if not 0 <= utt.label < len(self.class_names):
                raise DataError(
                    f"utterance '{utt.id}': label {utt.label} out of range "
                    f"for {len(self.class_names)} classes"
                )

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(sorted({u.speaker for u in self.utterances}))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(u.id for u in self.utterances)

    def by_id(self, utt_id: str) -> Utterance:
        for utt in self.utterances:
            if utt.id == utt_id:
                return utt
        raise DataError(
            f"unknown utterance id '{utt_id}'; available: {', '.join(self.ids)}"
        )

    def subset_speakers(self, keep) -> "Dataset":
        keep = set(keep)
        utts = tuple(u for u in self.utterances if u.speaker in keep)
        if not utts:
            raise DataError(
                f"no utterances for speakers {sorted(keep)}; "
                f"available: {', '.join(self.speakers)}"
            )
        return Dataset(utts, self.d, self.class_names)


@dataclass(frozen=True)
class StandardizeStats:
    """Per-dimension frame mean/std, fit on training-fold frames only."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def check_width(self, d: int) -> None:
        if self.d != d:
            raise ValueError(f"standardizer dimension {self.d} does not match dataset d={d}")

    def standardize(self, features: np.ndarray) -> np.ndarray:
        """One utterance's frames z-scored: ``(features - mean) / std``."""
        return (features - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @staticmethod
    def from_dict(obj: dict, d: int) -> "StandardizeStats":
        """Read ``to_dict``'s output; mean and std must be (d,) and finite, std > 0."""
        mean, std = (np.asarray(obj[key], dtype=np.float64) for key in ("mean", "std"))
        if mean.shape != (d,) or std.shape != (d,):
            raise ValueError(f"standardizer mean {mean.shape} and std {std.shape}, need ({d},)")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0.0).all()):
            raise ValueError("standardizer mean and std must be finite, with std > 0")
        return StandardizeStats(mean, std)


# ---------------------------------------------------------------------------
# loading / saving


def _read_text(path: Path, what: str) -> str:
    """A manifest's or feature file's text; a file that is missing, cannot
    be read or is not UTF-8 raises a ``DataError`` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"{path}: {what} not found") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8: byte {exc.start} is "
                        f"0x{exc.object[exc.start]:02x}") from exc


def _read_feature_csv(path: Path) -> np.ndarray:
    """One utterance's (n, d) frames: one C-level parse, then checks in numpy.

    A file the parse or the checks reject is walked line by line by
    ``_locate_fault``, which raises the error with ``path:line``.
    """
    lines = _read_text(path, "feature file").splitlines()
    if not lines:
        raise DataError(f"{path}: missing header row")
    header = lines[0].split(",")
    if header[0] != "frame_index" or header[1:] != [
        f"f{i}" for i in range(len(header) - 1)
    ]:
        raise DataError(f"{path}:1: malformed header '{lines[0]}'")
    d = len(header) - 1
    body = lines[1:]
    if not any(body):  # no frame rows; loadtxt would warn about it
        return np.empty((0, d))
    row = np.dtype([("index", np.int64), ("values", np.float64, (d,))])
    try:
        rows = np.loadtxt(body, dtype=row, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        _locate_fault(path, body, d, exc)
    index, values = rows["index"], rows["values"]
    if index[0] != 0 or np.any(index[1:] <= index[:-1]) or not np.isfinite(values).all():
        _locate_fault(path, body, d, None)
    return np.ascontiguousarray(values)


def _locate_fault(path: Path, body: list[str], d: int, exc: ValueError | None) -> NoReturn:
    """Raise the first fault of a feature file's frame rows as a ``DataError``.

    Walks the rows with Python's ``int`` and ``float``, which accept digit
    separators that the bulk parse rejects, so ``_`` is refused here too.
    ``exc`` is the bulk parse's error, reported if no row is at fault.
    """
    prev_index = -1
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != d + 1:
            raise DataError(
                f"{path}:{lineno}: ragged row ({len(cells)} cells, expected {d + 1})"
            )
        try:
            frame_index = int(cells[0])
            values = [float(c) for c in cells[1:]]
            if "_" in line:
                raise ValueError(f"digit separator '_' in '{line}'")
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: {err}") from err
        if frame_index <= prev_index or (prev_index == -1 and frame_index != 0):
            raise DataError(
                f"{path}:{lineno}: frame_index must increase strictly from 0"
            )
        prev_index = frame_index
        if not all(np.isfinite(values)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
    raise DataError(f"{path}: {exc}") from exc


def load_dataset(manifest_path: str | Path, class_names=None) -> Dataset:
    """Load a dataset from a JSON Lines manifest.

    Each manifest line is an object with string values for the keys id,
    path (relative to the manifest), label, speaker, and optional session.
    When ``class_names`` is given the manifest labels must be drawn from it;
    otherwise the sorted set of label strings defines the classes.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.jsonl"

    entries = []
    for lineno, line in enumerate(_read_text(manifest_path, "manifest").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{manifest_path}:{lineno}: expected a JSON object, "
                            f"got {type(obj).__name__}")
        for key in ("id", "path", "label", "speaker", "session"):
            if key not in obj and key != "session":
                raise DataError(f"{manifest_path}:{lineno}: missing key '{key}'")
            if not isinstance(obj.get(key, ""), str):
                raise DataError(f"{manifest_path}:{lineno}: key '{key}' must be a string, "
                                f"got {json.dumps(obj[key])}")
        entries.append(obj)
    if not entries:
        raise DataError(f"{manifest_path}: empty manifest")

    if class_names is None:
        class_names = tuple(sorted({e["label"] for e in entries}))
    else:
        class_names = tuple(class_names)
    label_index = {name: i for i, name in enumerate(class_names)}

    utterances = []
    d = None
    for entry in entries:
        if entry["label"] not in label_index:
            raise DataError(
                f"{manifest_path}: unknown label '{entry['label']}' "
                f"(classes: {', '.join(class_names)})"
            )
        path = manifest_path.parent / entry["path"]
        feats = _read_feature_csv(path)
        if feats.shape[0] == 0:
            raise DataError(f"{entry['path']}: empty utterance (no frame rows)")
        if feats.shape[1] == 0:
            raise DataError(f"{path}:1: the header names no feature column")
        if d is None:
            d = feats.shape[1]
        elif feats.shape[1] != d:
            raise DataError(
                f"{entry['path']}: feature dimension {feats.shape[1]} "
                f"differs from {d} seen earlier"
            )
        utterances.append(
            Utterance(
                id=entry["id"],
                features=feats,
                label=label_index[entry["label"]],
                speaker=entry["speaker"],
                session=entry.get("session", ""),
            )
        )
    return Dataset(tuple(utterances), d, class_names)


def feature_csv_text(features: np.ndarray) -> str:
    """One utterance's feature file: header, then one row per frame.

    Floats are printed with shortest round-trip repr, so reading is exact.
    """
    header = "frame_index," + ",".join(f"f{i}" for i in range(features.shape[1]))
    rows = [
        f"{i}," + ",".join(repr(v) for v in frame)
        for i, frame in enumerate(features.tolist())
    ]
    return "\n".join([header, *rows]) + "\n"


def save_dataset(dataset: Dataset, out_dir: str | Path, force: bool = False) -> Path:
    """Write manifest.jsonl plus one feature CSV ``{id}.csv`` per utterance.

    Every id must be a plain file name (no path separator, not ``.`` or
    ``..``); this is checked before anything is written. Save/load is exact.
    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    for utt in dataset.utterances:
        if utt.id in ("", ".", "..") or "/" in utt.id or "\\" in utt.id:
            raise DataError(f"utterance id '{utt.id}' is not a plain file name")
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise DataError(f"{out_dir}: output directory is not empty (use force)")
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest_lines = []
    for utt in dataset.utterances:
        fname = f"{utt.id}.csv"
        write_text_atomic(out_dir / fname, feature_csv_text(utt.features))
        manifest_lines.append(
            json.dumps(
                {
                    "id": utt.id,
                    "path": fname,
                    "label": dataset.class_names[utt.label],
                    "speaker": utt.speaker,
                    "session": utt.session,
                }
            )
        )
    manifest = out_dir / "manifest.jsonl"
    write_text_atomic(manifest, "\n".join(manifest_lines) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# standardization


def fit_standardizer(dataset: Dataset, include_ids) -> StandardizeStats:
    """Per-dimension mean/std over all frames of the included utterances.

    Population std (ddof=0), floored at ``STD_FLOOR`` so constant dimensions
    do not blow up the transform.
    """
    include_ids = set(include_ids)
    if not include_ids:
        raise ValueError("include_ids must be non-empty")
    known = set(dataset.ids)
    unknown = include_ids - known
    if unknown:
        raise ValueError(f"include_ids not in dataset: {sorted(unknown)}")
    frames = np.concatenate(
        [u.features for u in dataset.utterances if u.id in include_ids], axis=0
    )
    mean = frames.mean(axis=0)
    std = np.maximum(frames.std(axis=0), STD_FLOOR)
    return StandardizeStats(mean, std)


def apply_standardizer(dataset: Dataset, stats: StandardizeStats) -> Dataset:
    """Return a copy of the dataset with every frame z-scored by ``stats``."""
    stats.check_width(dataset.d)
    utts = tuple(replace(u, features=stats.standardize(u.features)) for u in dataset.utterances)
    return Dataset(utts, dataset.d, dataset.class_names)


# ---------------------------------------------------------------------------
# synthetic corpora


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic Gaussian-cluster corpus.

    Voiced frames of one class are drawn around a class centroid of norm
    ``cluster_sep`` (unit noise, plus a small per-speaker offset); a fraction
    ``noise_frac`` of each utterance's frames is drawn from a shared
    zero-mean "vacuum" distribution regardless of the label.
    """

    n_classes: int = 4
    n_speakers: int = 8
    utt_per_speaker: int = 20
    frames_lo: int = 10
    frames_hi: int = 30
    noise_frac: float = 0.3
    d: int = 88
    cluster_sep: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_speakers < 2:
            raise ValueError(
                "n_speakers must be >= 2 (leave-one-speaker-out needs held-out speakers)"
            )
        if self.utt_per_speaker < 1:
            raise ValueError("utt_per_speaker must be >= 1")
        if self.frames_lo < 2:
            raise ValueError("frames_lo must be >= 2")
        if self.frames_hi < self.frames_lo:
            raise ValueError("frames_hi must be >= frames_lo")
        if not 0.0 <= self.noise_frac < 1.0:
            raise ValueError("noise_frac must lie in [0, 1)")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.cluster_sep < 0.0:
            raise ValueError("cluster_sep must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic corpus; a pure function of ``spec``.

    Labels are balanced per speaker (round-robin), each utterance carries one
    contiguous vacuum run at a random position, and every draw comes from the
    'synth' substream of ``spec.seed``.
    """
    rng = substream(spec.seed, "synth")

    directions = rng.standard_normal((spec.n_classes, spec.d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centroids = spec.cluster_sep * directions
    speaker_offsets = _SPEAKER_SHIFT * rng.standard_normal((spec.n_speakers, spec.d))

    class_names = tuple(f"class{c:02d}" for c in range(spec.n_classes))
    utterances = []
    for s in range(spec.n_speakers):
        speaker = f"spk{s:02d}"
        session = f"session{s // 2:02d}"
        for u in range(spec.utt_per_speaker):
            label = u % spec.n_classes
            n = int(rng.integers(spec.frames_lo, spec.frames_hi + 1))
            n_vacuum = int(round(spec.noise_frac * n))
            # vacuum frames form one contiguous run, like a real silence region
            start = int(rng.integers(0, n - n_vacuum + 1))
            voiced = (
                centroids[label]
                + speaker_offsets[s]
                + rng.standard_normal((n - n_vacuum, spec.d))
            )
            vacuum = _VACUUM_STD * rng.standard_normal((n_vacuum, spec.d))
            frames = np.concatenate([voiced[:start], vacuum, voiced[start:]])
            utterances.append(
                Utterance(
                    id=f"{speaker}_u{u:03d}",
                    features=frames,
                    label=label,
                    speaker=speaker,
                    session=session,
                )
            )
    return Dataset(tuple(utterances), spec.d, class_names)
