"""Ingestion, standardization, and the synthetic generator."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from cogcn import features
from cogcn import (
    DataError,
    Dataset,
    StandardizeStats,
    SynthSpec,
    Utterance,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    save_dataset,
    synth_dataset,
)


def write_features(path, matrix):
    """A feature file: ``matrix`` as float64, saved with ``np.save``."""
    np.save(path, np.asarray(matrix, dtype=np.float64))


def write_manifest(path, entries):
    path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")


@pytest.fixture
def tiny_corpus(tmp_path):
    """Two utterances of 5x88 and 7x88 frames, two speakers."""
    rng = np.random.default_rng(0)
    write_features(tmp_path / "u1.npy", rng.standard_normal((5, 88)))
    write_features(tmp_path / "u2.npy", rng.standard_normal((7, 88)))
    write_manifest(
        tmp_path / "manifest.jsonl",
        [
            {"id": "u1", "path": "u1.npy", "label": "joy", "speaker": "a", "session": "s0"},
            {"id": "u2", "path": "u2.npy", "label": "anger", "speaker": "b", "session": "s0"},
        ],
    )
    return tmp_path


def one_utterance(tmp_path, matrix):
    """A manifest of one utterance whose features, ``u.npy``, are ``matrix``."""
    write_features(tmp_path / "u.npy", matrix)
    write_manifest(
        tmp_path / "manifest.jsonl",
        [{"id": "u", "path": "u.npy", "label": "x", "speaker": "a"}],
    )
    return tmp_path / "manifest.jsonl"


class TestLoadDataset:
    def test_shape_propagation(self, tiny_corpus):
        ds = load_dataset(tiny_corpus / "manifest.jsonl")
        assert ds.d == 88
        assert len(ds.utterances) == 2
        assert ds.class_names == ("anger", "joy")  # sorted lexicographically
        assert ds.by_id("u1").label == 1
        assert ds.by_id("u1").n_frames == 5

    def test_accepts_directory_path(self, tiny_corpus):
        assert len(load_dataset(tiny_corpus).utterances) == 2

    def test_non_finite_value_rejected(self, tmp_path):
        manifest = one_utterance(tmp_path, [[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(DataError, match=re.escape("u.npy: row 1: non-finite feature value")):
            load_dataset(manifest)

    def test_empty_utterance_rejected(self, tmp_path):
        # named by its full path, as every other feature-file fault is
        manifest = one_utterance(tmp_path, np.empty((0, 2)))
        with pytest.raises(DataError, match=rf"^{re.escape(str(tmp_path / 'u.npy'))}: "
                                            r"empty utterance \(no frame rows\)$"):
            load_dataset(manifest)

    def test_missing_feature_file(self, tmp_path):
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "absent.npy", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match=re.escape("absent.npy: feature file not found")):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_ragged_row(self, tmp_path):
        # the last row stops short of d values, so the data does not fill the file
        manifest = one_utterance(tmp_path, [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "u.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match=re.escape(
                "u.npy: need a .npy file of one 2-D float64 array: "
                "shape (2, 2) needs 32 bytes, the file holds 24")):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", ["u.csv", "u", "u.npy.txt", "u.NPY"])
    def test_feature_file_must_be_npy(self, tmp_path, name):
        # refused by its name: the file is never opened, so it need not exist
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": name, "label": "x", "speaker": "a"}],
        )
        message = f'{tmp_path / name}: a feature file must be a .npy matrix (README "Data formats")'
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_dimension_mismatch_across_utterances(self, tmp_path):
        # named by its full path, as every other feature-file fault is
        write_features(tmp_path / "u1.npy", [[1.0, 2.0]])
        write_features(tmp_path / "u2.npy", [[1.0, 2.0, 3.0]])
        write_manifest(
            tmp_path / "manifest.jsonl",
            [
                {"id": "u1", "path": "u1.npy", "label": "x", "speaker": "a"},
                {"id": "u2", "path": "u2.npy", "label": "x", "speaker": "a"},
            ],
        )
        with pytest.raises(DataError, match=rf"^{re.escape(str(tmp_path / 'u2.npy'))}: "
                                            "feature dimension 3 differs from 2 seen earlier$"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_unknown_label_against_fixed_classes(self, tiny_corpus):
        with pytest.raises(DataError, match="unknown label"):
            load_dataset(tiny_corpus / "manifest.jsonl", class_names=("anger", "sad"))


def per_line_reader(path: Path) -> np.ndarray:
    """Read a ``feature_csv_text`` export back, one int() and d float()s per
    line, and hold it to the feature-file rules in the .npy reader's words.
    An oracle for the outcome (array or error text) of the matrix exported."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    d = len(header.split(",")) - 1
    rows = []
    for row, line in enumerate(lines):
        index, *cells = line.split(",")
        assert int(index) == row and len(cells) == d
        values = [float(cell) for cell in cells]
        if not all(np.isfinite(values)):
            raise DataError(f"{path}: row {row}: non-finite feature value")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: empty utterance (no frame rows)")
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), d)


def outcome(reader, path):
    """What a reader makes of a file: (dtype, shape, bytes) or the error text
    after the file's path."""
    try:
        out = reader(path)
    except DataError as exc:
        return str(exc).removeprefix(f"{path}: ")
    return out.dtype, out.shape, out.tobytes()


BIG = np.finfo(np.float64).max

# (name, matrix): each reads alike saved as .npy and exported as CSV
EDGE_MATRICES = [
    ("clean", [[1.5, 2.0], [3.0, -4e-3]]),
    ("nan", [[1.0, 2.0], [np.nan, 2.0]]),
    ("-inf", [[-np.inf, 2.0]]),
    ("overflow", [[BIG, -BIG], [5e-324, -0.0]]),  # the last values before it, and the least
    ("header only", np.empty((0, 2))),
]


class TestFeatureReader:
    @pytest.mark.parametrize("name, matrix", EDGE_MATRICES, ids=[n for n, _ in EDGE_MATRICES])
    def test_same_outcome_as_per_line_reader(self, tmp_path, name, matrix):
        write_features(tmp_path / "u.npy", matrix)
        (tmp_path / "u.csv").write_text(features.feature_csv_text(np.asarray(matrix, np.float64)))
        assert (outcome(features._read_feature_npy, tmp_path / "u.npy")
                == outcome(per_line_reader, tmp_path / "u.csv"))

    @pytest.mark.parametrize("spec", [
        SynthSpec(n_speakers=2, utt_per_speaker=4, frames_lo=16, frames_hi=32, d=8, seed=1),
        SynthSpec(n_speakers=2, utt_per_speaker=2, frames_lo=100, frames_hi=300, d=88,
                  cluster_sep=12.0, seed=1),
    ], ids=["desk", "reference"])
    def test_byte_equal_to_per_line_reader(self, tmp_path, spec):
        # save_dataset's files and their CSV exports read to the generator's bytes
        ds = synth_dataset(spec)
        save_dataset(ds, tmp_path / "ds")
        for utt in ds.utterances:
            (tmp_path / f"{utt.id}.csv").write_text(features.feature_csv_text(utt.features))
            new = features._read_feature_npy(tmp_path / "ds" / f"{utt.id}.npy")
            old = per_line_reader(tmp_path / f"{utt.id}.csv")
            assert new.flags.c_contiguous
            assert ((new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())
                    == (np.float64, utt.features.shape, utt.features.tobytes()))

    @pytest.mark.parametrize("order", [">f8", "F"])
    def test_npy_of_either_byte_or_memory_order_reads_native_c_float64(self, tmp_path, order):
        x = np.arange(12.0).reshape(3, 4) / 7
        np.save(tmp_path / "u.npy", np.asfortranarray(x) if order == "F" else x.astype(order))
        got = features._read_feature_npy(tmp_path / "u.npy")
        assert got.dtype == np.dtype("=f8") and got.flags.c_contiguous
        assert got.tobytes() == x.tobytes()

    @pytest.mark.parametrize("shape, data", [
        ((2**40, 2**40), b""),  # 2**80 values, a byte count past int64
        ((3, 4), bytes(97)),  # one byte more than the values need
    ], ids=["2**80 values", "trailing byte"])
    def test_npy_data_must_fill_the_file_exactly(self, tmp_path, shape, data):
        path = tmp_path / "u.npy"
        with path.open("wb") as file:
            np.lib.format.write_array_header_1_0(
                file, {"descr": "<f8", "fortran_order": False, "shape": shape})
            file.write(data)
        needed = shape[0] * shape[1] * 8
        with pytest.raises(DataError, match=rf"^{path}: .*needs {needed} bytes, "
                                            rf"the file holds {len(data)}$"):
            features._read_feature_npy(path)

    def test_header_only_is_empty_utterance_without_warning(self, tmp_path):
        with (tmp_path / "u.npy").open("wb") as file:
            np.lib.format.write_array_header_1_0(
                file, {"descr": "<f8", "fortran_order": False, "shape": (0, 88)})
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.npy", "label": "x", "speaker": "a"}],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape("u.npy: empty utterance")):
                load_dataset(tmp_path / "manifest.jsonl")


class TestStandardizer:
    def test_two_point_hand_computation(self):
        ds = Dataset(
            (Utterance("u", np.array([[0.0, 2.0], [2.0, 2.0]]), 0, "a"),),
            2,
            ("x", "y"),
        )
        stats = fit_standardizer(ds, ["u"])
        np.testing.assert_array_equal(stats.mean, [1.0, 2.0])
        np.testing.assert_array_equal(stats.std, [1.0, 1e-8])

    def test_single_frame_degenerate_variance(self):
        ds = Dataset((Utterance("u", np.array([[5.0]]), 0, "a"),), 1, ("x", "y"))
        stats = fit_standardizer(ds, ["u"])
        assert stats.mean.tolist() == [5.0]
        assert stats.std.tolist() == [1e-8]

    def test_empty_include_rejected(self):
        ds = Dataset((Utterance("u", np.array([[5.0]]), 0, "a"),), 1, ("x", "y"))
        with pytest.raises(ValueError, match="non-empty"):
            fit_standardizer(ds, [])

    def test_fit_then_apply_normalizes(self):
        rng = np.random.default_rng(5)
        utts = tuple(
            Utterance(f"u{i}", rng.standard_normal((10, 4)) * [1, 5, 0.2, 9] + 3, i % 2, "a")
            for i in range(6)
        )
        ds = Dataset(utts, 4, ("x", "y"))
        stats = fit_standardizer(ds, ds.ids)
        out = apply_standardizer(ds, stats)
        frames = np.concatenate([u.features for u in out.utterances])
        assert np.all(np.abs(frames.mean(axis=0)) < 1e-9)
        np.testing.assert_allclose(frames.std(axis=0), 1.0, atol=1e-6)

    def test_identity_stats(self):
        ds = Dataset((Utterance("u", np.array([[5.0, -1.0]]), 0, "a"),), 2, ("x", "y"))
        out = apply_standardizer(ds, StandardizeStats(np.zeros(2), np.ones(2)))
        np.testing.assert_array_equal(out.by_id("u").features, [[5.0, -1.0]])

    def test_dimension_mismatch(self):
        ds = Dataset((Utterance("u", np.array([[5.0, -1.0]]), 0, "a"),), 2, ("x", "y"))
        with pytest.raises(ValueError, match="dimension"):
            apply_standardizer(ds, StandardizeStats(np.zeros(3), np.ones(3)))

    def test_metadata_untouched(self):
        ds = Dataset((Utterance("u", np.array([[5.0]]), 1, "spk", "sess"),), 1, ("x", "y"))
        out = apply_standardizer(ds, StandardizeStats(np.zeros(1), np.ones(1)))
        utt = out.by_id("u")
        assert (utt.label, utt.speaker, utt.session) == (1, "spk", "sess")


def nearest_centroid_accuracy(dataset):
    """Independent oracle: classify each utterance by the nearest class
    centroid of mean frames, centroids fit on the same data."""
    means = np.stack([u.features.mean(axis=0) for u in dataset.utterances])
    labels = np.array([u.label for u in dataset.utterances])
    centroids = np.stack(
        [means[labels == c].mean(axis=0) for c in range(dataset.n_classes)]
    )
    dists = np.linalg.norm(means[:, None, :] - centroids[None, :, :], axis=2)
    return float((dists.argmin(axis=1) == labels).mean())


class TestSynthDataset:
    def test_deterministic_bitwise(self):
        spec = SynthSpec(seed=7, d=6, frames_lo=3, frames_hi=5, utt_per_speaker=2)
        a, b = synth_dataset(spec), synth_dataset(spec)
        assert a.class_names == b.class_names
        for ua, ub in zip(a.utterances, b.utterances):
            assert ua.id == ub.id and ua.label == ub.label
            assert np.array_equal(ua.features, ub.features)

    def test_clean_separable_data_is_centroid_classifiable(self):
        spec = SynthSpec(
            n_classes=4, n_speakers=4, utt_per_speaker=8, frames_lo=5, frames_hi=9,
            noise_frac=0.0, d=10, cluster_sep=8.0, seed=3,
        )
        assert nearest_centroid_accuracy(synth_dataset(spec)) == 1.0

    def test_single_speaker_rejected(self):
        with pytest.raises(ValueError, match="n_speakers"):
            SynthSpec(n_speakers=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"frames_lo": 1},
            {"frames_lo": 5, "frames_hi": 4},
            {"noise_frac": 1.0},
            {"noise_frac": -0.1},
            {"d": 0},
            {"cluster_sep": -1.0},
        ],
    )
    def test_invalid_spec_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)

    def test_counts_and_balance(self):
        spec = SynthSpec(n_classes=4, n_speakers=8, utt_per_speaker=20, d=4,
                         frames_lo=3, frames_hi=5, seed=0)
        ds = synth_dataset(spec)
        assert len(ds.utterances) == 160
        assert len(ds.speakers) == 8
        labels = [u.label for u in ds.utterances]
        assert all(labels.count(c) == 40 for c in range(4))

    def test_frame_counts_within_bounds(self):
        ds = synth_dataset(SynthSpec(frames_lo=4, frames_hi=6, d=3, seed=1))
        assert all(4 <= u.n_frames <= 6 for u in ds.utterances)


class TestRoundTrip:
    def test_save_load_is_exact(self, tmp_path):
        ds = synth_dataset(
            SynthSpec(n_classes=3, n_speakers=2, utt_per_speaker=3, d=5,
                      frames_lo=2, frames_hi=4, seed=11)
        )
        save_dataset(ds, tmp_path / "out")
        back = load_dataset(tmp_path / "out" / "manifest.jsonl")
        assert back.class_names == ds.class_names
        assert back.d == ds.d
        for orig, loaded in zip(ds.utterances, back.utterances):
            assert orig.id == loaded.id
            assert orig.label == loaded.label
            assert orig.speaker == loaded.speaker
            assert orig.session == loaded.session
            assert np.array_equal(orig.features, loaded.features)

    @given(
        frames=st.integers(1, 4).flatmap(lambda d: st.lists(
            hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(d)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=4)),
        fortran=st.booleans(),
        resave=st.lists(st.sampled_from([None, "<f8", ">f8", "F"]), min_size=4, max_size=4),
    )
    def test_npy_and_csv_files_load_to_the_saved_bits(self, frames, fortran, resave):
        # save_dataset's .npy files load bit-exact and C-contiguous, whatever
        # the memory order saved; so do files np.save wrote in either byte or
        # memory order, in place of some of them; and each utterance's CSV
        # export reads back to the same bits
        utts = tuple(Utterance(f"u{i}", np.asfortranarray(x) if fortran else x, 0, "a")
                     for i, x in enumerate(frames))
        ds = Dataset(utts, frames[0].shape[1], ("x",))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            save_dataset(ds, out)
            for utt, order in zip(utts, resave):
                if order is not None:
                    x = np.asfortranarray(utt.features) if order == "F" else utt.features
                    np.save(out / f"{utt.id}.npy", x.astype(">f8" if order == ">f8" else "<f8"))
                (out / f"{utt.id}.csv").write_text(features.feature_csv_text(utt.features))
            loaded = load_dataset(out).utterances
            exported = [per_line_reader(out / f"{utt.id}.csv") for utt in utts]
        for utt, back, csv in zip(utts, loaded, exported, strict=True):
            assert back.features.dtype == np.float64 and back.features.flags.c_contiguous
            assert back.features.shape == csv.shape == utt.features.shape
            assert back.features.tobytes() == csv.tobytes() == utt.features.tobytes()

    def test_duplicate_ids_rejected(self):
        # two utterances saved under one id would share one feature file
        ds = synth_dataset(SynthSpec(d=3, n_speakers=2, utt_per_speaker=2,
                                     frames_lo=2, frames_hi=3))
        first, second = ds.utterances[:2]
        with pytest.raises(DataError, match=f"duplicate utterance id '{first.id}'"):
            Dataset((first, Utterance(first.id, second.features, second.label,
                                      second.speaker)), ds.d, ds.class_names)

    @pytest.mark.parametrize("bad_id", ["a/b", "..", ".", "a\\b", "../x"])
    def test_unsafe_id_rejected_before_writing(self, tmp_path, bad_id):
        # a speaker is held to the same rule, as load_dataset reads it back
        ds = synth_dataset(SynthSpec(d=3, n_speakers=2, utt_per_speaker=2,
                                     frames_lo=2, frames_hi=3))
        last = ds.utterances[-1]
        for key, bad in (("id", Utterance(bad_id, last.features, last.label, last.speaker)),
                         ("speaker", Utterance(last.id, last.features, last.label, bad_id))):
            out = tmp_path / key
            with pytest.raises(DataError, match=f"utterance {key} .* is not a plain file name"):
                save_dataset(Dataset((*ds.utterances[:-1], bad), ds.d, ds.class_names), out)
            assert not out.exists()

    def test_refuses_non_empty_dir(self, tmp_path):
        ds = synth_dataset(SynthSpec(d=3, utt_per_speaker=1, frames_lo=2, frames_hi=2))
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        with pytest.raises(DataError, match="not empty"):
            save_dataset(ds, out)
        save_dataset(ds, out, force=True)
