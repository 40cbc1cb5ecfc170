"""Frame-level feature ingestion, standardization, and synthetic corpora.

A dataset is a collection of utterances; each utterance carries an (n, d)
matrix of per-frame feature vectors (one row per analysis frame, e.g. the
88 eGeMAPS descriptors), a class label, and a speaker id. On disk a dataset
is a JSON Lines manifest plus one feature file per utterance: the (n, d)
float64 matrix as ``np.save`` writes it, ``{id}.npy``. A missing or
unreadable input (manifest, feature file, checkpoint) and a manifest or
checkpoint that is not UTF-8 fail in ``_reading``, naming the file.

The synthetic generator produces deterministic corpora in which voiced frames
cluster per class (with a small per-speaker shift) while a configurable
fraction of "vacuum" frames is drawn from one class-independent noise
distribution. It is the canonical desk-scale test corpus.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

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
            if not np.isfinite(utt.features).all():
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


@contextmanager
def _reading(path: Path, what: str):
    """Raise a missing or unreadable file, or non-UTF-8 text, as a ``DataError`` naming it."""
    try:
        yield
    except FileNotFoundError as exc:
        raise DataError(f"{path}: {what} not found") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8: byte {exc.start} is "
                        f"0x{exc.object[exc.start]:02x}") from exc


def _is_plain_file_name(name: str) -> bool:
    """Whether ``name`` names a file in its directory: no ``/`` or ``\\``, not ``.`` or ``..``."""
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


def _read_text(path: Path, what: str) -> str:
    """A manifest's or checkpoint's text."""
    with _reading(path, what):
        return path.read_text(encoding="utf-8")


def _read_feature_npy(path: Path) -> np.ndarray:
    """One utterance's (n, d) frames from a ``.npy`` file, as native C-ordered float64.

    The header is checked before any data is read: a 2-D float64 array, of
    either byte order, whose values fill the rest of the file exactly, with
    at least one row (else an empty utterance) and one column. So
    nothing is unpickled, and a header that claims more rows than the file
    holds allocates nothing. A fault is a ``DataError`` naming the file;
    a path not ending in ``.npy`` is one before the file is opened.
    """
    if path.suffix != ".npy":
        raise DataError(f'{path}: a feature file must be a .npy matrix (README "Data formats")')
    with _reading(path, "feature file"), path.open("rb") as file:
        try:
            # np.save writes version 2.0 only for headers of more than 64 KiB
            if (version := np.lib.format.read_magic(file)) != (1, 0):
                raise ValueError(f"format version {version} is not 1.0")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(file)
            if len(shape) != 2 or min(shape) < 0 or dtype.newbyteorder("=") != np.float64:
                raise ValueError(f"found a {len(shape)}-D {dtype} array of shape {shape}")
            needed, held = shape[0] * shape[1] * 8, os.fstat(file.fileno()).st_size - file.tell()
            if held != needed:
                raise ValueError(f"shape {shape} needs {needed} bytes, the file holds {held}")
        except ValueError as exc:
            raise DataError(f"{path}: need a .npy file of one 2-D float64 array: {exc}") from exc
        if shape[0] == 0:
            raise DataError(f"{path}: empty utterance (no frame rows)")
        if shape[1] == 0:
            raise DataError(f"{path}: the array has no feature column")
        values = np.fromfile(file, dtype=dtype, count=shape[0] * shape[1])
    features = np.ascontiguousarray(values.reshape(shape, order="F" if fortran else "C"), np.float64)
    if not np.isfinite(features).all():
        row = np.argmin(np.isfinite(features).all(axis=1))
        raise DataError(f"{path}: row {row}: non-finite feature value")
    return features


def load_dataset(manifest_path: str | Path, class_names=None) -> Dataset:
    """Load a dataset from a JSON Lines manifest.

    Each manifest line is an object with string values for the keys id,
    path (relative to the manifest), label and speaker; other keys are
    ignored. The id and the speaker must be plain file names. Every path
    must name a ``.npy`` feature file (``_read_feature_npy``).
    When ``class_names`` is given the manifest labels must be drawn from it;
    otherwise the sorted set of label strings defines the classes.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.jsonl"

    entries, first_line = [], {}  # first_line: the manifest line of each id
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
        for key in ("id", "path", "label", "speaker"):
            if key not in obj:
                raise DataError(f"{manifest_path}:{lineno}: missing key '{key}'")
            if not isinstance(obj[key], str):
                raise DataError(f"{manifest_path}:{lineno}: key '{key}' must be a string, "
                                f"got {json.dumps(obj[key])}")
        for key in ("id", "speaker"):
            if not _is_plain_file_name(obj[key]):
                raise DataError(f"{manifest_path}:{lineno}: {key} '{obj[key]}' is not a plain "
                                f"file name")
        if (first := first_line.setdefault(obj["id"], lineno)) != lineno:
            raise DataError(f"{manifest_path}:{lineno}: duplicate utterance id '{obj['id']}' "
                            f"(first on line {first})")
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
        feats = _read_feature_npy(path)
        if d is None:
            d = feats.shape[1]
        elif feats.shape[1] != d:
            raise DataError(
                f"{path}: feature dimension {feats.shape[1]} "
                f"differs from {d} seen earlier"
            )
        utterances.append(
            Utterance(
                id=entry["id"],
                features=feats,
                label=label_index[entry["label"]],
                speaker=entry["speaker"],
            )
        )
    return Dataset(tuple(utterances), d, class_names)


def feature_csv_text(features: np.ndarray) -> str:
    """One utterance's features as CSV text: header, then one row per frame.

    Floats are printed with shortest round-trip repr, so reading is exact.
    ``cogcn graph`` exports it for people to read; datasets are saved as ``.npy``.
    """
    header = "frame_index," + ",".join(f"f{i}" for i in range(features.shape[1]))
    rows = [
        f"{i}," + ",".join(repr(v) for v in frame)
        for i, frame in enumerate(features.tolist())
    ]
    return "\n".join([header, *rows]) + "\n"


def save_dataset(dataset: Dataset, out_dir: str | Path, force: bool = False) -> Path:
    """Write manifest.jsonl plus one float64 ``.npy`` matrix ``{id}.npy`` per utterance.

    Every id and speaker must be a plain file name, as ``load_dataset``
    requires, and without ``force`` the directory must be empty; both are
    checked before anything is written. Save/load is exact for float64
    features. Returns the manifest path.
    """
    out_dir = Path(out_dir)
    for utt in dataset.utterances:
        for key, name in (("id", utt.id), ("speaker", utt.speaker)):
            if not _is_plain_file_name(name):
                raise DataError(f"utterance {key} '{name}' is not a plain file name")
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise DataError(f"{out_dir}: output directory is not empty (pass --force)")
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest_lines = []
    for utt in dataset.utterances:
        fname = f"{utt.id}.npy"
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(utt.features, dtype=np.float64))
        write_text_atomic(out_dir / fname, buffer.getvalue())
        manifest_lines.append(
            json.dumps(
                {
                    "id": utt.id,
                    "path": fname,
                    "label": dataset.class_names[utt.label],
                    "speaker": utt.speaker,
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
    do not blow up the transform. A mean or std past float64's range is a
    ``DataError`` naming the speakers whose frames reach that scale.
    """
    include_ids = set(include_ids)
    if not include_ids:
        raise ValueError("include_ids must be non-empty")
    known = set(dataset.ids)
    unknown = include_ids - known
    if unknown:
        raise ValueError(f"include_ids not in dataset: {sorted(unknown)}")
    utts = [u for u in dataset.utterances if u.id in include_ids]
    frames = np.concatenate([u.features for u in utts], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = frames.mean(axis=0)
        std = np.maximum(frames.std(axis=0), STD_FLOOR)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        # a sum of n squares overflows only with some |x - mean| > sqrt(max / n),
        # so some frame of a speaker named here exceeds half of that
        big = np.sqrt(np.finfo(np.float64).max / len(frames)) / 2.0
        speakers = sorted({u.speaker for u in utts if np.abs(u.features).max() > big})
        raise DataError(f"speaker {', '.join(speakers)}: frames too large for a finite "
                        f"float64 mean and std")
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
                )
            )
    return Dataset(tuple(utterances), spec.d, class_names)
