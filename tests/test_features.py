"""Ingestion, standardization, and the synthetic generator."""

import json

import numpy as np
import pytest

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


def write_feature_csv(path, matrix):
    d = len(matrix[0])
    header = "frame_index," + ",".join(f"f{i}" for i in range(d))
    rows = [f"{i}," + ",".join(str(v) for v in row) for i, row in enumerate(matrix)]
    path.write_text("\n".join([header, *rows]) + "\n")


def write_manifest(path, entries):
    path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")


@pytest.fixture
def tiny_corpus(tmp_path):
    """Two utterances of 5x88 and 7x88 frames, two speakers."""
    rng = np.random.default_rng(0)
    write_feature_csv(tmp_path / "u1.csv", rng.standard_normal((5, 88)).tolist())
    write_feature_csv(tmp_path / "u2.csv", rng.standard_normal((7, 88)).tolist())
    write_manifest(
        tmp_path / "manifest.jsonl",
        [
            {"id": "u1", "path": "u1.csv", "label": "joy", "speaker": "a", "session": "s0"},
            {"id": "u2", "path": "u2.csv", "label": "anger", "speaker": "b", "session": "s0"},
        ],
    )
    return tmp_path


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
        write_feature_csv(tmp_path / "u.csv", [[1.0, 2.0], [np.nan, 0.0]])
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.csv", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match="non-finite feature value"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_empty_utterance_rejected(self, tmp_path):
        (tmp_path / "u.csv").write_text("frame_index,f0,f1\n")
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.csv", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match="empty utterance"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_missing_feature_file(self, tmp_path):
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "absent.csv", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_ragged_row(self, tmp_path):
        (tmp_path / "u.csv").write_text("frame_index,f0,f1\n0,1.0,2.0\n1,3.0\n")
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.csv", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match="ragged row"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_dimension_mismatch_across_utterances(self, tmp_path):
        write_feature_csv(tmp_path / "u1.csv", [[1.0, 2.0]])
        write_feature_csv(tmp_path / "u2.csv", [[1.0, 2.0, 3.0]])
        write_manifest(
            tmp_path / "manifest.jsonl",
            [
                {"id": "u1", "path": "u1.csv", "label": "x", "speaker": "a"},
                {"id": "u2", "path": "u2.csv", "label": "x", "speaker": "a"},
            ],
        )
        with pytest.raises(DataError, match="dimension"):
            load_dataset(tmp_path / "manifest.jsonl")

    def test_unknown_label_against_fixed_classes(self, tiny_corpus):
        with pytest.raises(DataError, match="unknown label"):
            load_dataset(tiny_corpus / "manifest.jsonl", class_names=("anger", "sad"))

    def test_frame_index_must_start_at_zero(self, tmp_path):
        (tmp_path / "u.csv").write_text("frame_index,f0\n1,1.0\n2,2.0\n")
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.csv", "label": "x", "speaker": "a"}],
        )
        with pytest.raises(DataError, match="frame_index"):
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
        ds = synth_dataset(SynthSpec(d=3, n_speakers=2, utt_per_speaker=2,
                                     frames_lo=2, frames_hi=3))
        utts = list(ds.utterances)
        utts[-1] = Utterance(bad_id, utts[-1].features, utts[-1].label, utts[-1].speaker)
        out = tmp_path / "out"
        with pytest.raises(DataError, match="plain file name"):
            save_dataset(Dataset(tuple(utts), ds.d, ds.class_names), out)
        assert not out.exists()

    def test_refuses_non_empty_dir(self, tmp_path):
        ds = synth_dataset(SynthSpec(d=3, utt_per_speaker=1, frames_lo=2, frames_hi=2))
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        with pytest.raises(DataError, match="not empty"):
            save_dataset(ds, out)
        save_dataset(ds, out, force=True)
