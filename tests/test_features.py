"""Ingestion, standardization, and the synthetic generator."""

import json
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


def per_line_reader(path: Path) -> np.ndarray:
    """The feature-file reader before the bulk parse: one int() and d float()s
    per line. An oracle for the outcome (array or error text) of a file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: missing header row")
    header = lines[0].split(",")
    if header[0] != "frame_index" or header[1:] != [
        f"f{i}" for i in range(len(header) - 1)
    ]:
        raise DataError(f"{path}:1: malformed header '{lines[0]}'")
    d = len(header) - 1
    rows = []
    prev_index = -1
    for lineno, line in enumerate(lines[1:], start=2):
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
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if frame_index <= prev_index or (prev_index == -1 and frame_index != 0):
            raise DataError(
                f"{path}:{lineno}: frame_index must increase strictly from 0"
            )
        prev_index = frame_index
        if not all(np.isfinite(values)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        rows.append(values)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), d)


def outcome(reader, path):
    """What a reader makes of a file: (dtype, shape, bytes) or the error text."""
    try:
        out = reader(path)
    except DataError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


HEADER = b"frame_index,f0,f1\n"

# (name, file bytes): each file is read alike by the bulk parse and the oracle
EDGE_FILES = [
    ("clean", HEADER + b"0,1.5,2\n1,3,-4e-3\n"),
    ("no trailing newline", HEADER + b"0,1.5,2\n1,3,4"),
    ("blank lines", HEADER + b"\n0,1.5,2\n\n1,3,4\n\n"),
    ("crlf", HEADER.replace(b"\n", b"\r\n") + b"0,1.5,2\r\n1,3,4\r\n"),
    ("spaced cells", HEADER + b"0, 1.5 ,2\n 1 ,\t3,4 \n"),
    ("plus sign index", HEADER + b"+0,1,2\n+1,3,4\n"),
    ("float index", HEADER + b"0,1,2\n1.0,3,4\n"),
    ("index gap", HEADER + b"0,1,2\n5,3,4\n"),
    ("repeated index", HEADER + b"0,1,2\n0,3,4\n"),
    ("index from 1", HEADER + b"1,1,2\n2,3,4\n"),
    ("negative index", HEADER + b"-1,1,2\n"),
    ("decreasing index", HEADER + b"0,1,2\n1,1,2\n2,1,2\n1,1,2\n"),
    ("word", HEADER + b"0,1,2\n1,abc,2\n"),
    ("empty cell", HEADER + b"0,,2\n"),
    ("short row", HEADER + b"0,1,2\n1,3\n"),
    ("long row", HEADER + b"0,1,2,3\n"),
    ("trailing comma", HEADER + b"0,1,2,\n"),
    ("nan", HEADER + b"0,1,2\n1,nan,2\n"),
    ("-inf", HEADER + b"0,-inf,2\n"),
    ("overflow", HEADER + b"0,1e400,2\n"),
    ("nan before a bad index", HEADER + b"0,nan,2\n0,1,2\n"),
    ("bad index before a word", HEADER + b"1,1,2\n2,x,2\n"),
    ("header only", HEADER),
    ("header and blank lines", HEADER + b"\n\n"),
    ("empty file", b""),
    ("malformed header", b"frame_index,f1\n0,1\n"),
    ("comment line", HEADER + b"# note\n0,1,2\n"),
    ("trailing comment", HEADER + b"0,1,2 # note\n"),
    ("quoted cell", HEADER + b'0,"1",2\n'),
    ("hex", HEADER + b"0,0x1,2\n"),
    ("whitespace-only line", HEADER + b"0,1,2\n   \n1,3,4\n"),
    ("vertical tab splits lines", HEADER + b"0,1,2\x0b1,3,4\n"),
    ("no feature columns", b"frame_index\n0\n1\n"),
]


class TestFeatureReader:
    @pytest.mark.parametrize("name, content", EDGE_FILES, ids=[n for n, _ in EDGE_FILES])
    def test_same_outcome_as_per_line_reader(self, tmp_path, name, content):
        path = tmp_path / "u.csv"
        path.write_bytes(content)
        assert outcome(features._read_feature_csv, path) == outcome(per_line_reader, path)

    @pytest.mark.parametrize("spec", [
        SynthSpec(n_speakers=2, utt_per_speaker=4, frames_lo=16, frames_hi=32, d=8, seed=1),
        SynthSpec(n_speakers=2, utt_per_speaker=2, frames_lo=100, frames_hi=300, d=88,
                  cluster_sep=12.0, seed=1),
    ], ids=["desk", "reference"])
    def test_byte_equal_to_per_line_reader(self, tmp_path, spec):
        for utt in synth_dataset(spec).utterances:
            (tmp_path / f"{utt.id}.csv").write_text(features.feature_csv_text(utt.features))
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            new, old = features._read_feature_csv(path), per_line_reader(path)
            assert new.flags.c_contiguous
            assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())

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

    @pytest.mark.parametrize("row", ["1,1_5,2", "1_0,1,2"])
    def test_digit_separator_rejected_with_line(self, tmp_path, row):
        # int() and float() take '1_5'; the bulk parse does not, so neither do we
        path = tmp_path / "u.csv"
        path.write_bytes(HEADER + b"0,1,2\n" + row.encode() + b"\n")
        assert per_line_reader(path).shape == (2, 2)
        with pytest.raises(DataError, match=rf"^{path}:3: digit separator '_' in '{row}'$"):
            features._read_feature_csv(path)

    @pytest.mark.parametrize("row", ["1,\u0661,2", "99999999999999999999,1,2"])
    def test_what_only_python_parses_is_a_data_error(self, tmp_path, row):
        # non-ASCII digits and an index beyond int64 fail with their line,
        # never as a raw ValueError
        message = {
            "1,\u0661,2": "non-ASCII digit in '1,\u0661,2'",
            "99999999999999999999,1,2": "frame_index 99999999999999999999 does not fit in int64",
        }[row]
        path = tmp_path / "u.csv"
        path.write_text(f"frame_index,f0,f1\n0,1,2\n{row}\n", encoding="utf-8")
        assert per_line_reader(path).shape == (2, 2)
        with pytest.raises(DataError, match=rf"^{path}:3: {message}$"):
            features._read_feature_csv(path)

    @pytest.mark.parametrize("row", [
        "1,\xa03,4", "1,3\u2003,4", "\u30001,3,4", "1\u202f,3,\u205f4", "\xa01\xa0,\u20093\u200a,4",
    ])
    def test_non_ascii_whitespace_around_a_number_is_read(self, tmp_path, row):
        # int() and float() strip it, as str.strip() does
        path = tmp_path / "u.csv"
        path.write_text(f"frame_index,f0,f1\n0,1,2\n{row}\n", encoding="utf-8")
        got = features._read_feature_csv(path)
        assert got.tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
        assert outcome(features._read_feature_csv, path) == outcome(per_line_reader, path)

    @pytest.mark.parametrize("cell", ["\u0661", "1.\u0665", "\u00b2", "\uff11", " \u0661\xa0"])
    def test_non_ascii_digit_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "u.csv"
        path.write_text(f"frame_index,f0,f1\n0,1,2\n1,3,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{path}:3: "):
            features._read_feature_csv(path)

    def test_header_only_is_empty_utterance_without_warning(self, tmp_path):
        (tmp_path / "u.csv").write_bytes(HEADER)
        write_manifest(
            tmp_path / "manifest.jsonl",
            [{"id": "u", "path": "u.csv", "label": "x", "speaker": "a"}],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty utterance"):
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
        as_csv=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_npy_and_csv_files_load_to_the_saved_bits(self, frames, fortran, as_csv):
        # save_dataset's .npy files load bit-exact and C-contiguous, whatever
        # the memory order saved; a manifest mixing .csv and .npy entries
        # loads to the bytes of an all-CSV copy
        utts = tuple(Utterance(f"u{i}", np.asfortranarray(x) if fortran else x, 0, "a")
                     for i, x in enumerate(frames))
        ds = Dataset(utts, frames[0].shape[1], ("x",))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            save_dataset(ds, out)
            saved = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
            for utt in utts:
                (out / f"{utt.id}.csv").write_text(features.feature_csv_text(utt.features))
            as_csv_entries = [{**e, "path": f"{e['id']}.csv"} for e in saved]
            write_manifest(out / "csv.jsonl", as_csv_entries)
            write_manifest(out / "mixed.jsonl", [c if flag else e for e, c, flag
                                                 in zip(saved, as_csv_entries, as_csv)])
            npy, csv, mixed = (load_dataset(out / name).utterances
                               for name in ("manifest.jsonl", "csv.jsonl", "mixed.jsonl"))
        for utt, x, y, z in zip(utts, npy, csv, mixed, strict=True):
            assert all(u.features.dtype == np.float64 and u.features.flags.c_contiguous
                       for u in (x, y, z))
            assert x.features.tobytes() == utt.features.tobytes()
            assert z.features.tobytes() == y.features.tobytes()
            assert x.features.shape == y.features.shape == z.features.shape == utt.features.shape

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
