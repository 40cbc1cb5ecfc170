"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cogcn
from cogcn import (DataError, Dataset, ModelConfig, SynthSpec, TrainConfig, cli,
                   load_checkpoint, load_dataset, save_dataset, synth_dataset)
from cogcn.cli import main
from cogcn.features import feature_csv_text
from cogcn.gradcheck import run_gradcheck


def run(argv):
    return main([str(a) for a in argv])


def dir_digest(path, exclude=("run_manifest.json",)):
    """Stable content hash of a directory tree, minus excluded names."""
    digest = hashlib.sha256()
    for file in sorted(Path(path).rglob("*")):
        if file.is_file() and file.name not in exclude:
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


SYNTH_ARGS = [
    "synth", "--classes", 4, "--speakers", 8, "--utts", 20, "--noise", 0.3,
    "--seed", 7, "--dim", 6, "--frames-lo", 4, "--frames-hi", 8,
]


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run(SYNTH_ARGS + ["-o", out]) == 0
    return out


@pytest.fixture
def trained(tmp_path, data_dir):
    out = tmp_path / "run"
    code = run([
        "train", "--data", data_dir, "--graph", "cosine", "--gamma", 0.5,
        "--k", "1", "--z", 8, "--epochs", 3, "--holdout", "spk00",
        "--seed", 3, "-o", out,
    ])
    assert code == 0
    return out


class TestSynth:
    def test_utterance_count(self, data_dir):
        manifest = (data_dir / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 160
        assert (data_dir / "run_manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, data_dir):
        other = tmp_path / "data2"
        assert run(SYNTH_ARGS + ["-o", other]) == 0
        assert dir_digest(data_dir) == dir_digest(other)

    def test_single_speaker_rejected(self, tmp_path, capsys):
        code = run(["synth", "--speakers", 1, "-o", tmp_path / "x"])
        assert code == 1
        assert "speaker" in capsys.readouterr().err.lower()

    def test_refuses_to_clobber(self, tmp_path, data_dir):
        assert run(SYNTH_ARGS + ["-o", data_dir]) == 2
        assert run(SYNTH_ARGS + ["-o", data_dir, "--force"]) == 0

    def test_seed_defaults_to_zero(self, tmp_path, monkeypatch):
        # --seed is the only source of the seed: the environment sets none
        monkeypatch.setenv("COGCN_SEED", "7")
        args = list(SYNTH_ARGS)
        i = args.index("--seed")
        del args[i : i + 2]
        assert run(args + ["-o", tmp_path / "a"]) == 0
        args[i:i] = ["--seed", 0]
        assert run(args + ["-o", tmp_path / "b"]) == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
        manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        assert manifest["seed"] == 0


class TestTrain:
    def test_holdout_outputs(self, trained):
        metrics = json.loads((trained / "metrics.json").read_text())
        assert set(metrics) == {"folds", "mean_wa", "mean_ua", "class_names"}
        assert len(metrics["folds"]) == 1
        assert metrics["folds"][0]["speaker"] == "spk00"
        assert (trained / "fold_spk00.json").exists()
        history = (trained / "fold_spk00_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_wa,val_ua"
        assert len(history) == 4

    def test_unknown_holdout_speaker(self, tmp_path, data_dir, capsys):
        code = run(["train", "--data", data_dir, "--holdout", "nobody",
                    "-o", tmp_path / "r"])
        assert code == 2
        assert "spk00" in capsys.readouterr().err

    @pytest.mark.parametrize("holdout", [[], ["--holdout", "spk00"]])
    def test_two_speakers_is_data_error(self, tmp_path, capsys, holdout):
        # LOSO and a single holdout split share one check and one exit code
        data = tmp_path / "data"
        assert run(["synth", "--speakers", 2, "--utts", 2, "--dim", 4, "--frames-lo", 4,
                    "--frames-hi", 6, "--seed", 0, "-o", data]) == 0
        capsys.readouterr()
        code = run(["train", "--data", data, "--k", 1, "--gamma", 0.5, "--z", 4,
                    "--epochs", 1, *holdout, "-o", tmp_path / "r"])
        assert code == 2
        assert "at least 3 speakers" in capsys.readouterr().err

    @pytest.mark.parametrize("holdout", [[], ["--holdout", "spk00"]])
    def test_data_error_creates_no_output_directory(self, tmp_path, capsys, holdout):
        data = tmp_path / "data"
        assert run(["synth", "--speakers", 2, "--utts", 2, "--dim", 4, "--frames-lo", 4,
                    "--frames-hi", 6, "--seed", 0, "-o", data]) == 0
        code = run(["train", "--data", data, "--k", 1, "--gamma", 0.5, "--z", 4,
                    "--epochs", 1, *holdout, "-o", tmp_path / "r"])
        assert code == 2
        assert not (tmp_path / "r").exists()

    def test_ablation_flags_accepted(self, tmp_path, data_dir):
        code = run([
            "train", "--data", data_dir, "--graph", "temporal", "--no-skip",
            "--no-pre", "--k", 1, "--z", 8, "--epochs", 2,
            "--holdout", "spk00", "-o", tmp_path / "r",
        ])
        assert code == 0
        ckpt = json.loads((tmp_path / "r" / "fold_spk00.json").read_text())
        assert ckpt["params"]["W_p"] is None
        assert ckpt["config"]["use_skip"] is False
        assert ckpt["train_meta"]["graph_kind"] == "temporal"

    # lr 1e30 turns the float32 loss nan in epoch 2; lr 1e39 overflows the
    # parameters in the last step of the only epoch, after a finite loss; lr
    # 1e6 keeps every number finite but drives the loss to about 1.6e17
    @pytest.mark.parametrize("lr, epochs, message", [
        (1e30, 5, "diverged at epoch 2 with K=1: train_loss nan"),
        (1e39, 1, "diverged at epoch 1 with K=1: train_loss 0.99"),
        (1e6, 5, "diverged at epoch 2 with K=1: train_loss 1.5"),
    ])
    def test_diverged_run_fails_without_metrics(self, tmp_path, capsys, lr, epochs, message):
        data = tmp_path / "tiny"
        assert run(["synth", "--classes", 2, "--speakers", 3, "--utts", 6, "--frames-lo", 4,
                    "--frames-hi", 8, "--dim", 4, "--seed", 0, "-o", data]) == 0
        out = tmp_path / "r"
        code = run(["train", "--data", data, "--lr", lr, "--dtype", "float32", "--k", 1,
                    "--gamma", 0.5, "--z", 4, "--epochs", epochs, "-o", out])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert not list(out.glob("fold_*"))

    # spk00's frames times 1e45 standardize past float32's range: spk00 is the
    # test speaker of fold spk00 and the validation speaker of fold spk02
    @pytest.mark.parametrize("holdout", [[], ["--holdout", "spk00"], ["--holdout", "spk02"]])
    def test_overflowing_speaker_is_data_error(self, tmp_path, capsys, holdout):
        ds = synth_dataset(SynthSpec(n_classes=2, n_speakers=3, utt_per_speaker=6, frames_lo=4,
                                     frames_hi=6, d=4, seed=0))
        utts = tuple(replace(u, features=u.features * 1e45) if u.speaker == "spk00" else u
                     for u in ds.utterances)
        data, out = tmp_path / "data", tmp_path / "r"
        save_dataset(Dataset(utts, ds.d, ds.class_names), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise out of run
            code = run(["train", "--data", data, "--k", 1, "--gamma", 0.5, "--epochs", 2,
                        "--z", 4, *holdout, "-o", out])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: speaker spk00")
        assert not (out / "metrics.json").exists()
        assert not list(out.glob("fold_*"))

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_fails_before_training(self, tmp_path, data_dir, capsys, lr):
        out = tmp_path / "r"
        assert run(["train", "--data", data_dir, "--lr", lr, "--k", 1, "--z", 8,
                    "--epochs", 1, "-o", out]) == 1
        assert f"lr must be a finite number > 0, got {lr}" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_run_prints_only_the_error(self, tmp_path, capfd):
        data = tmp_path / "tiny"
        assert run(["synth", "--classes", 2, "--speakers", 3, "--utts", 6, "--frames-lo", 4,
                    "--frames-hi", 8, "--dim", 4, "--seed", 0, "-o", data]) == 0
        capfd.readouterr()
        # a fresh interpreter shows numpy's warnings as a user would see them
        env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
        argv = ["train", "--data", data, "--lr", 1e30, "--dtype", "float32", "--k", 1,
                "--gamma", 0.5, "--z", 4, "--epochs", 5, "-o", tmp_path / "r"]
        code = subprocess.run([sys.executable, "-m", "cogcn.cli", *map(str, argv)],
                              env=env).returncode
        err = capfd.readouterr().err
        assert code == 1
        assert "RuntimeWarning" not in err
        assert err.splitlines() == [
            "error: training diverged at epoch 2 with K=1: train_loss nan, "
            "46 non-finite parameters"
        ]

    @pytest.mark.parametrize("flag, where, value", [
        (["--dropout", 0], ("model", "dropout"), 0.0),
        (["--batch", 7], ("batch_size",), 7),
        (["--dtype", "float64"], ("model", "dtype"), "float64"),
        (["--no-pre"], ("model", "use_pre"), False),
        (["--no-skip"], ("model", "use_skip"), False),
        (["--lr", 0.25], ("lr",), 0.25),
    ], ids=["dropout", "batch", "dtype", "no_pre", "no_skip", "lr"])
    def test_setting_reaches_checkpoint_and_manifest(self, tmp_path, flag, where, value):
        # each setting of `cogcn train` is recorded where a run is replayed
        # from: the run manifest's config, and a model setting also in the
        # fold checkpoint's config
        data = tmp_path / "tiny"
        assert run(TINY_SYNTH + ["-o", data]) == 0
        out = tmp_path / "r"
        assert run(["train", "--data", data, "--k", 1, "--gamma", 0.5, "--z", 4, "--epochs", 1,
                    "--holdout", "spk00", *flag, "-o", out]) == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        for key in where:
            config = config[key]
        assert type(config) is type(value) and config == value
        if where[0] == "model":
            ckpt = json.loads((out / "fold_spk00.json").read_text())
            assert ckpt["config"][where[1]] == value

    def test_manifest_records_the_k_grid_only(self, tmp_path, data_dir):
        out = tmp_path / "r"
        assert run(["train", "--data", data_dir, "--k", "1,2", "--gamma", 0.5, "--z", 8,
                    "--epochs", 1, "--holdout", "spk00", "-o", out]) == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert config["k_grid"] == [1, 2]
        assert "num_layers" not in config["model"]

    def test_input_dir_never_mutated(self, tmp_path, data_dir):
        before = dir_digest(data_dir, exclude=())
        run(["train", "--data", data_dir, "--k", 1, "--z", 8, "--epochs", 2,
             "--holdout", "spk00", "-o", tmp_path / "r"])
        assert dir_digest(data_dir, exclude=()) == before

    def test_determinism_across_runs(self, tmp_path, data_dir):
        args = ["train", "--data", data_dir, "--gamma", 0.5, "--k", 1,
                "--z", 8, "--epochs", 3, "--holdout", "spk01", "--seed", 5]
        run(args + ["-o", tmp_path / "r1"])
        run(args + ["-o", tmp_path / "r2"])
        assert dir_digest(tmp_path / "r1") == dir_digest(tmp_path / "r2")


def npy_bytes(array, **kwargs):
    """The bytes of ``array`` saved as a .npy file."""
    buffer = io.BytesIO()
    np.save(buffer, array, **kwargs)
    return buffer.getvalue()


def npy_header(shape):
    """A float64 .npy header claiming ``shape``, then 32 bytes of data."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buffer.getvalue() + bytes(32)


NOT_NPY = "spk00_u000.npy: need a .npy file of one 2-D float64 array: "

# how each fault edits the first manifest entry: a function of it, or a
# feature file (name, bytes) that the entry is pointed at (bytes None: a
# directory; edit None: below); and what `cogcn train` must say about it,
# naming the file
BAD_INPUTS = {
    "not_an_object": (lambda e: 5, "manifest.jsonl:1: expected a JSON object, got int"),
    "path_number": (lambda e: {**e, "path": 5},
                    "manifest.jsonl:1: key 'path' must be a string, got 5"),
    "label_list": (lambda e: {**e, "label": [1]},
                   "manifest.jsonl:1: key 'label' must be a string, got [1]"),
    "speaker_number": (lambda e: {**e, "speaker": 3},
                       "manifest.jsonl:1: key 'speaker' must be a string, got 3"),
    "path_is_directory": (("spk00_u000.npy", None),
                          "spk00_u000.npy: cannot read feature file: Is a directory"),
    "manifest_not_utf8": (None, "manifest.jsonl: manifest is not UTF-8: byte 0 is 0xff"),
    # bytes that are not UTF-8 text, too few for the .npy magic string
    "features_not_utf8": (("spk00_u000.npy", b"\xff\n"),
                          NOT_NPY + "EOF: reading magic string, expected 8 bytes got 2"),
    # one frame index and no feature column
    "header_only_index": (("spk00_u000.npy", npy_bytes(np.ones((1, 0)))),
                          "spk00_u000.npy: the array has no feature column"),
    "csv_path": (("spk00_u000.csv", b"frame_index,f0\n0,1\n"),
                 'spk00_u000.csv: a feature file must be a .npy matrix (README "Data formats")'),
    "npy_truncated": (("spk00_u000.npy", npy_bytes(np.ones((4, 4)))[:-8]),
                      NOT_NPY + "shape (4, 4) needs 128 bytes, the file holds 120"),
    "npy_header_claims_1e11_rows": (("spk00_u000.npy", npy_header((10**11, 4))),
                                    NOT_NPY + "shape (100000000000, 4) needs 3200000000000 "
                                    "bytes, the file holds 32"),
    "npy_float32": (("spk00_u000.npy", npy_bytes(np.ones((4, 4), np.float32))),
                    NOT_NPY + "found a 2-D float32 array of shape (4, 4)"),
    "npy_1d": (("spk00_u000.npy", npy_bytes(np.ones(4))),
               NOT_NPY + "found a 1-D float64 array of shape (4,)"),
    "npy_object": (("spk00_u000.npy",
                    npy_bytes(np.array([[1.0, None]], dtype=object), allow_pickle=True)),
                   NOT_NPY + "found a 2-D object array of shape (1, 2)"),
    "npy_nan_row": (("spk00_u000.npy", npy_bytes(np.array([[0.0] * 4, [0.0, np.nan, 0, 0]]))),
                    "spk00_u000.npy: row 1: non-finite feature value"),
    "npy_csv_bytes": (("spk00_u000.npy", b"frame_index,f0\n0,1\n"),
                      NOT_NPY + "the magic string is not correct"),
    "npy_zero_columns": (("spk00_u000.npy", npy_bytes(np.ones((4, 0)))),
                         "spk00_u000.npy: the array has no feature column"),
    "npy_zero_rows": (("spk00_u000.npy", npy_bytes(np.ones((0, 4)))),
                      "spk00_u000.npy: empty utterance (no frame rows)"),
}


@pytest.mark.parametrize("fault", BAD_INPUTS)
def test_bad_input_file_is_data_error_naming_it(tmp_path, capsys, fault):
    data = tmp_path / "tiny"
    assert run(["synth", "--classes", 2, "--speakers", 3, "--utts", 2, "--frames-lo", 4,
                "--frames-hi", 8, "--dim", 4, "--seed", 0, "-o", data]) == 0
    manifest = data / "manifest.jsonl"
    edit, message = BAD_INPUTS[fault]
    first, *rest = manifest.read_text().splitlines()
    if edit is None:
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
    else:
        if isinstance(edit, tuple):
            name, content = edit
            if content is None:
                (data / name).unlink()
                (data / name).mkdir()
            else:
                (data / name).write_bytes(content)
            entry = {**json.loads(first), "path": name}
        else:
            entry = edit(json.loads(first))
        manifest.write_text("\n".join([json.dumps(entry), *rest]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--data", data, "--k", 1, "--z", 4, "--epochs", 1,
                    "-o", tmp_path / "r"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# train_meta graph settings that no training run writes
BAD_GRAPH_SETTINGS = {
    "gamma_text": {"gamma": "0.5"},
    "gamma_out_of_range": {"gamma": 5.0},
    "graph_kind_list": {"graph_kind": ["cosine"]},
    "graph_kind_knn": {"graph_kind": "knn"},
}

# the checkpoint fields that evaluation needs and every training run writes
MISSING_FIELDS = {
    "no_standardizer": ("standardizer",),
    "no_train_meta": ("train_meta",),
    "no_gamma": ("train_meta", "gamma"),
    "no_graph_kind": ("train_meta", "graph_kind"),
}

# checkpoints that fail before any JSON is parsed, with what stderr says after the path
UNREADABLE_CHECKPOINTS = {
    "missing": "checkpoint not found",
    "directory": "cannot read checkpoint: Is a directory",
    "not_utf8": "checkpoint is not UTF-8: byte 0 is 0xff",
}


class TestEval:
    def test_checkpoint_reproduces_recorded_val_score(self, data_dir, trained, capsys):
        # the holdout fold validated on spk01; evaluating the saved checkpoint
        # on that speaker must reproduce the best recorded val_wa/val_ua
        history = (trained / "fold_spk00_history.csv").read_text().splitlines()[1:]
        rows = [tuple(float(v) for v in line.split(",")) for line in history]
        best = max(rows, key=lambda r: (r[3], -r[0]))
        code = run(["eval", "--ckpt", trained / "fold_spk00.json",
                    "--data", data_dir, "--speaker", "spk01", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wa"] == pytest.approx(best[2], abs=1e-9)
        assert payload["ua"] == pytest.approx(best[3], abs=1e-9)

    def test_json_stdout_is_pure_json(self, data_dir, trained, capsys):
        run(["eval", "--ckpt", trained / "fold_spk00.json", "--data", data_dir,
             "--json"])
        out = capsys.readouterr().out
        json.loads(out)  # a single JSON document, nothing else

    def test_class_names_mismatch_fails_without_output(self, tmp_path, trained):
        # class04 does not exist in the checkpoint's label mapping
        other = tmp_path / "other"
        assert run(["synth", "--classes", 5, "--speakers", 2, "--utts", 5,
                    "--dim", 6, "--frames-lo", 4, "--frames-hi", 8,
                    "-o", other]) == 0
        out = tmp_path / "evalout"
        code = run(["eval", "--ckpt", trained / "fold_spk00.json",
                    "--data", other, "-o", out])
        assert code == 2
        assert not (out / "eval_metrics.json").exists()

    def test_csv_feature_path_is_data_error(self, tmp_path, data_dir, trained, capsys):
        manifest = data_dir / "manifest.jsonl"
        first, *rest = manifest.read_text().splitlines()
        entry = json.loads(first)
        (data_dir / f"{entry['id']}.csv").write_text(
            feature_csv_text(np.load(data_dir / entry["path"])))
        manifest.write_text("\n".join([json.dumps({**entry, "path": f"{entry['id']}.csv"}),
                                       *rest]) + "\n")
        capsys.readouterr()
        out = tmp_path / "evalout"
        assert run(["eval", "--ckpt", trained / "fold_spk00.json", "--data", data_dir,
                    "-o", out]) == 2
        err = capsys.readouterr().err
        assert (f"{data_dir / entry['id']}.csv: a feature file must be a .npy matrix"
                in err and "Traceback" not in err)
        assert not out.exists()

    @pytest.mark.parametrize("fault", [
        "missing", "invalid_json", "bad_version", "truncated_w_e", "w_e_count",
        "standardizer_narrow", "standardizer_wide", "zero_std", "nan_mean", "inf_std",
        "gamma_text", "gamma_out_of_range", "graph_kind_list", "graph_kind_knn",
        "train_meta_list", "directory", "not_utf8", "class_names_unsorted",
        "no_standardizer", "no_train_meta", "no_gamma", "no_graph_kind",
    ])
    def test_bad_checkpoint_is_data_error(self, tmp_path, data_dir, trained, fault, capsys):
        good = json.loads((trained / "fold_spk00.json").read_text())
        ckpt = tmp_path / "bad.json"
        if fault == "invalid_json":
            ckpt.write_text('{"format_version": 1, config}')
        elif fault == "bad_version":
            ckpt.write_text(json.dumps({**good, "format_version": 99}))
        elif fault == "truncated_w_e":
            good["params"]["W_e"][-1] = [row[:5] for row in good["params"]["W_e"][-1]]
            ckpt.write_text(json.dumps(good))
        elif fault == "w_e_count":
            good["params"]["W_e"].append(good["params"]["W_e"][-1])
            ckpt.write_text(json.dumps(good))
        elif fault in BAD_GRAPH_SETTINGS:
            meta = {**good["train_meta"], **BAD_GRAPH_SETTINGS[fault]}
            ckpt.write_text(json.dumps({**good, "train_meta": meta}))
        elif fault == "train_meta_list":
            ckpt.write_text(json.dumps({**good, "train_meta": [good["train_meta"]]}))
        elif fault == "class_names_unsorted":
            ckpt.write_text(json.dumps({**good, "class_names": good["class_names"][::-1]}))
        elif fault in MISSING_FIELDS:
            _replace_at(good, MISSING_FIELDS[fault], DELETE)
            ckpt.write_text(json.dumps(good))
        elif fault == "directory":
            ckpt.mkdir()
        elif fault == "not_utf8":
            ckpt.write_bytes(b"\xff" + json.dumps(good).encode())
        elif fault != "missing":  # the standardizer does not fit the model
            mean, std = good["standardizer"]["mean"], good["standardizer"]["std"]
            stats = {
                "standardizer_narrow": {"mean": mean[:-1], "std": std[:-1]},
                "standardizer_wide": {"mean": mean + [0.0], "std": std + [1.0]},
                "zero_std": {"mean": mean, "std": [0.0] * len(std)},
                "nan_mean": {"mean": [float("nan")] + mean[1:], "std": std},
                "inf_std": {"mean": mean, "std": [float("inf")] + std[1:]},
            }[fault]
            ckpt.write_text(json.dumps({**good, "standardizer": stats}))
        code = run(["eval", "--ckpt", ckpt, "--data", data_dir, "--speaker", "spk01"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert "Traceback" not in err
        for field in BAD_GRAPH_SETTINGS.get(fault, ()):
            assert f"train_meta {field}" in err
        if fault in MISSING_FIELDS:  # named in words, not by a Python error's text
            assert " ".join(MISSING_FIELDS[fault]) in err
            assert "NoneType" not in err and "KeyError" not in err
        if fault == "class_names_unsorted":
            assert "class_names must be distinct and sorted" in err
        if fault in UNREADABLE_CHECKPOINTS:
            assert f"{ckpt}: {UNREADABLE_CHECKPOINTS[fault]}" in err

    @pytest.mark.parametrize("field, value, named", [
        (("config", "in_dim"), 6.0, "config in_dim"),
        (("config", "use_pre"), 1, "config use_pre"),
        (("config", "dropout"), False, "config dropout"),
        (("params", "W_o", 0, 0), "1.5", "w_out"),
        (("params", "W_e", 0, 1, 1), True, "w_msg0"),
        (("standardizer", "std", 0), "1.0", "standardizer"),
    ])
    def test_field_of_another_json_type_is_named(self, tmp_path, data_dir, trained,
                                                 field, value, named, capsys):
        # a value numpy or ModelConfig would accept, but not of the JSON type
        # save_checkpoint writes: the error names the file and the field
        obj = json.loads((trained / "fold_spk00.json").read_text())
        _replace_at(obj, field, value)
        ckpt = tmp_path / "typed.json"
        ckpt.write_text(json.dumps(obj))
        assert run(["eval", "--ckpt", ckpt, "--data", data_dir, "--speaker", "spk01"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and named in err and "Traceback" not in err

    def test_graph_override_replaces_the_checkpoint_settings(self, data_dir, trained, capsys):
        ckpt = trained / "fold_spk00.json"
        assert json.loads(ckpt.read_text())["train_meta"]["graph_kind"] == "cosine"
        for override in (["--gamma", 0.55], ["--graph", "temporal"]):
            assert run(["eval", "--ckpt", ckpt, "--data", data_dir, "--json", *override]) == 0
            assert 0.0 <= json.loads(capsys.readouterr().out)["ua"] <= 1.0

    def test_extra_class_name_is_data_error(self, tmp_path, trained, capsys):
        # a 4-class checkpoint that names a fifth class, on a 5-class corpus
        ckpt = tmp_path / "five_names.json"
        good = json.loads((trained / "fold_spk00.json").read_text())
        ckpt.write_text(json.dumps({**good, "class_names": good["class_names"] + ["class04"]}))
        other = tmp_path / "five"
        assert run(["synth", "--classes", 5, "--speakers", 2, "--utts", 5,
                    "--dim", 6, "--frames-lo", 4, "--frames-hi", 8, "-o", other]) == 0
        assert run(["eval", "--ckpt", ckpt, "--data", other]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "class names" in err

    def test_dimension_mismatch(self, tmp_path, trained, capsys):
        other = tmp_path / "otherd"
        assert run(["synth", "--classes", 4, "--speakers", 2, "--utts", 2,
                    "--dim", 5, "--frames-lo", 4, "--frames-hi", 8,
                    "-o", other]) == 0
        ckpt = trained / "fold_spk00.json"
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", other]) == 2
        # both inputs are named, so the reader knows which two files disagree
        assert (f"error: {other}: feature dimension d=5 does not match {ckpt} in_dim=6\n"
                == capsys.readouterr().err)


class TestGraphCommand:
    def test_edge_sets_nest_with_threshold(self, tmp_path, data_dir):
        utt = json.loads(
            (data_dir / "manifest.jsonl").read_text().splitlines()[0]
        )["id"]
        out_tight = tmp_path / "g06"
        out_loose = tmp_path / "g05"
        assert run(["graph", "--data", data_dir, "--utt", utt, "--gamma", 0.6,
                    "-o", out_tight]) == 0
        assert run(["graph", "--data", data_dir, "--utt", utt, "--gamma", 0.5,
                    "-o", out_loose]) == 0
        tight = json.loads((out_tight / f"{utt}.json").read_text())
        loose = json.loads((out_loose / f"{utt}.json").read_text())
        assert {tuple(e) for e in tight["edges"]} <= {tuple(e) for e in loose["edges"]}

    def test_temporal_chain_edge_count(self, tmp_path, data_dir):
        utt = json.loads(
            (data_dir / "manifest.jsonl").read_text().splitlines()[0]
        )["id"]
        out = tmp_path / "gt"
        assert run(["graph", "--data", data_dir, "--utt", utt, "--temporal",
                    "-o", out]) == 0
        obj = json.loads((out / f"{utt}.json").read_text())
        assert len(obj["edges"]) == obj["n"] - 1
        assert (out / f"{utt}.dot").exists()
        assert (out / f"{utt}_features.csv").exists()
        # the run manifest lists every file the command writes, and only those
        manifest = json.loads((out / "run_manifest.json").read_text())
        written = {p.name for p in out.iterdir()} - {"run_manifest.json"}
        assert sorted(Path(f).name for f in manifest["outputs"]) == sorted(written)
        assert written == {f"{utt}.dot", f"{utt}.json", f"{utt}_features.csv"}

    def test_features_csv_matches_dataset_file(self, tmp_path, data_dir):
        # `cogcn graph` exports the utterance's features as CSV text, and
        # float() reads the export back to the bytes of the dataset's .npy file
        entry = json.loads((data_dir / "manifest.jsonl").read_text().splitlines()[3])
        out = tmp_path / "g"
        assert run(["graph", "--data", data_dir, "--utt", entry["id"], "--gamma", 0.5,
                    "-o", out]) == 0
        export = out / f"{entry['id']}_features.csv"
        loaded = load_dataset(data_dir).by_id(entry["id"]).features
        assert export.read_text() == feature_csv_text(loaded)
        header, *rows = (line.split(",") for line in export.read_text().splitlines())
        assert header == ["frame_index", *(f"f{i}" for i in range(loaded.shape[1]))]
        assert [int(row[0]) for row in rows] == list(range(loaded.shape[0]))
        back = np.array([[float(v) for v in row[1:]] for row in rows])
        assert npy_bytes(back) == (data_dir / entry["path"]).read_bytes()

    @pytest.mark.parametrize("flags, utt", [
        (["--gamma", 0.5, "--temporal"], "spk00_u000"),  # gamma would go unused
        ([], "nope"),  # the usage fault, not the unknown id, is reported
    ], ids=["both", "neither"])
    def test_gamma_or_temporal_is_one_required_choice(self, tmp_path, data_dir, capsys,
                                                        flags, utt):
        capsys.readouterr()
        out = tmp_path / "g"
        assert run(["graph", "--data", data_dir, "--utt", utt, *flags, "-o", out]) == 1
        err = capsys.readouterr().err
        assert ("not allowed with argument --gamma" if flags
                else "one of the arguments --gamma --temporal is required") in err
        assert "unknown utterance" not in err and not out.exists()

    def test_unknown_utterance_lists_ids(self, tmp_path, data_dir, capsys):
        code = run(["graph", "--data", data_dir, "--utt", "nope", "--gamma",
                    0.5, "-o", tmp_path / "g"])
        assert code == 2
        assert "spk00_u000" in capsys.readouterr().err

    def test_id_that_names_the_run_manifest_is_data_error(self, tmp_path, data_dir, capsys):
        # its graph JSON and the run manifest would be the same file
        manifest = data_dir / "manifest.jsonl"
        first, *rest = manifest.read_text().splitlines()
        manifest.write_text("\n".join([json.dumps({**json.loads(first), "id": "run_manifest"}),
                                       *rest]) + "\n")
        out = tmp_path / "g"
        assert run(["graph", "--data", data_dir, "--utt", "run_manifest", "--gamma", 0.5,
                    "-o", out]) == 2
        assert "utterance id 'run_manifest'" in capsys.readouterr().err
        assert not out.exists()


class TestDiag:
    def test_params_headline_count(self, capsys):
        assert run(["diag", "params", "--d", 88, "--z", 128, "--k", 2, "--c", 4]) == 0
        assert capsys.readouterr().out.strip() == "44676"

    def test_params_no_pre(self, capsys):
        assert run(["diag", "params", "--d", 88, "--z", 128, "--k", 3, "--c", 4,
                    "--no-pre"]) == 0
        assert capsys.readouterr().out.strip() == "44548"
        # the skip is parameter-free, so params takes no flag for it
        assert run(["diag", "params", "--d", 88, "--z", 128, "--k", 3, "--c", 4,
                    "--no-skip"]) == 1

    def test_gradcheck_passes(self, capsys):
        assert run(["diag", "gradcheck", "--seed", 1, "--trials", 6]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_usage_error_exit_code(self, tmp_path, data_dir, capsys):
        assert run(["train"]) == 1  # missing required flags
        assert run(["nonsense"]) == 1
        # --k 0 is a layer count below 1, not "unset", and the message names the grid
        capsys.readouterr()
        assert run(["train", "--data", data_dir, "--k", 0, "--z", 8, "--epochs", 1,
                    "--holdout", "spk00", "-o", tmp_path / "k0"]) == 1
        assert "every K in the grid must be >= 1, got (0,)" in capsys.readouterr().err
        # bad grids are rejected before any setting is trained
        for flag, grid, message in (("--k", "1,0", "every K in the grid must be >= 1"),
                                    ("--gamma", "0.5,1.5", "must be in (-1, 1]"),
                                    ("--k", "1,1", "the K grid repeats a value")):
            capsys.readouterr()
            assert run(["train", "--data", data_dir, flag, grid, "--z", 8, "--epochs", 1,
                        "--holdout", "spk00", "-o", tmp_path / "grid"]) == 1
            assert message in capsys.readouterr().err
        # a gradient check of no instances, or fewer than one worker, does nothing
        train = ["train", "--data", data_dir, "--k", 1, "--z", 8, "--epochs", 1]
        for argv, message in ((["diag", "gradcheck", "--trials", 0], "at least 1 instance"),
                              (["diag", "gradcheck", "--trials", -2], "at least 1 instance"),
                              (train + ["--jobs", -3, "-o", tmp_path / "jobs"],
                               "--jobs must be >= 1, got -3"),
                              (train + ["--jobs", 0, "--holdout", "spk00", "-o",
                                        tmp_path / "jobs"], "--jobs must be >= 1, got 0"),
                              # found before the data are read, as -o is
                              (["train", "--jobs", 0, "--data", tmp_path / "missing", "-o",
                                tmp_path / "jobs"], "--jobs must be >= 1, got 0")):
            capsys.readouterr()
            assert run(argv) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "jobs").exists()  # rejected before the output is made


TINY_SYNTH = ["synth", "--classes", 2, "--speakers", 3, "--utts", 2, "--frames-lo", 4,
              "--frames-hi", 8, "--dim", 4, "--seed", 0]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 3-speaker corpus, one fold trained on it, and a scratch directory."""
    root = tmp_path_factory.mktemp("tiny")
    assert run(TINY_SYNTH + ["-o", root / "data"]) == 0
    assert run(["train", "--data", root / "data", "--k", 1, "--gamma", 0.5, "--z", 4,
                "--epochs", 1, "--holdout", "spk00", "-o", root / "run"]) == 0
    return root


def _paths(value, path=()):
    """The path of every value nested in a JSON object, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield path + (key,)
        if isinstance(inner, (dict, list)):
            yield from _paths(inner, path + (key,))


def _has_saved_types(ckpt):
    """Whether a checkpoint object holds the JSON types ``save_checkpoint``
    writes: int version and widths, bool flags, a numeric dropout, a string
    dtype, and numbers for every parameter and standardizer entry."""
    def numbers(value):
        return all(map(numbers, value)) if type(value) is list else type(value) in (int, float)
    kinds = {"in_dim": int, "hidden_dim": int, "num_layers": int, "num_classes": int,
             "use_pre": bool, "use_skip": bool, "self_in_aggregation": bool, "dtype": str}
    config, stats = ckpt["config"], ckpt["standardizer"]
    return (type(ckpt["format_version"]) is int
            and all(type(config[k]) is kind for k, kind in kinds.items() if k in config)
            and type(config.get("dropout", 0.0)) in (int, float)
            and all(numbers(v) for v in ckpt["params"].values() if v is not None)
            and all(numbers(stats[k]) for k in ("mean", "std")))


DELETE = object()


def _replace_at(obj, path, value):
    """Set the value at ``path`` inside a JSON object, or delete it for DELETE."""
    *parent, key = path
    for step in parent:
        obj = obj[step]
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4,
)


@settings(max_examples=500)
@given(field=st.integers(0, 10**6), value=st.just(DELETE) | JSON_VALUES)
@example(field=("class_names", 0), value=5)  # a class name that is not a string
@example(field=("class_names", 0), value=None)
@example(field=("class_names", 1), value="class00")  # a repeated class name
@example(field=("params", "W_e", 0, 1, 2), value=1e308)  # past float32's range
@example(field=("params", "W_o", 0, 0), value=float("nan"))
@example(field=("params", "b_o", 1), value=float("inf"))
@example(field=("config", "hidden_dim"), value=10**6)  # a model of terabytes
@example(field=("params", "W_p", 0, 0), value=3.4e38)  # finite, but overflows in the forward
@example(field=("standardizer", "std", 0), value=5e-324)  # overflows in standardizing
@example(field=("params", "b_p", 0), value=10**400)  # past float64's range
@example(field=("config", "in_dim"), value=4.0)  # JSON types save_checkpoint never writes
@example(field=("config", "num_layers"), value=True)
@example(field=("config", "use_skip"), value=1)
@example(field=("config", "dropout"), value="0.1")
@example(field=("config", "dtype"), value=["float32"])
@example(field=("params", "W_o", 0, 0), value="1.5")
@example(field=("params", "b_o", 0), value=True)
@example(field=("standardizer", "mean", 0), value="0.5")
@example(field=("format_version",), value=True)
def test_mutated_checkpoint_is_scored_or_rejected(tiny_run, field, value):
    # one field of a trained checkpoint changed or deleted: `cogcn eval` exits
    # 0 or 2 with no exception or warning, and a checkpoint that loads holds
    # the JSON types save_checkpoint writes, finite parameters and distinct
    # string class names. `field` indexes the checkpoint's paths in document
    # order; an example names its path outright
    text = (tiny_run / "run" / "fold_spk00.json").read_text()
    obj = json.loads(text)
    paths = list(_paths(obj))
    _replace_at(obj, field if isinstance(field, tuple) else paths[field % len(paths)], value)
    ckpt = tiny_run / "mutated.json"
    ckpt.write_text(json.dumps(obj))
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = run(["eval", "--ckpt", ckpt, "--data", tiny_run / "data", "--speaker", "spk01"])
        assert code in (0, 2)
        try:
            loaded = load_checkpoint(ckpt)
        except DataError as exc:
            assert code == 2 and str(ckpt) in str(exc)
            return
    assert _has_saved_types(obj)
    assert np.isfinite(loaded.params.flat).all()
    names = loaded.class_names
    assert all(type(n) is str for n in names) and len(set(names)) == len(names)


OUTPUT_COMMANDS = {
    "synth": lambda root: TINY_SYNTH,
    "train": lambda root: ["train", "--data", root / "data", "--k", 1, "--gamma", 0.5, "--z", 4,
                           "--epochs", 1, "--holdout", "spk00"],
    "eval": lambda root: ["eval", "--ckpt", root / "run" / "fold_spk00.json",
                          "--data", root / "data", "--speaker", "spk01"],
    "graph": lambda root: ["graph", "--data", root / "data", "--utt", "spk00_u000",
                           "--gamma", 0.5],
}


@given(command=st.sampled_from(sorted(OUTPUT_COMMANDS)),
       kind=st.sampled_from(["missing", "empty", "non_empty", "file"]))
def test_output_path_is_claimed_before_any_data_is_read(tiny_run, command, kind):
    out = Path(tempfile.mkdtemp(dir=tiny_run)) / "out"
    if kind == "file":
        out.write_text("keep\n")
    elif kind != "missing":
        out.mkdir()
        if kind == "non_empty":
            (out / "keep.txt").write_text("keep\n")
    argv = OUTPUT_COMMANDS[command](tiny_run)
    if kind == "file":  # a usage error is found before the missing data
        argv = [a if a != tiny_run / "data" else tiny_run / "no_data" for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv + ["-o", out])
    if kind == "file":
        assert code == 1 and str(out) in err.getvalue() and out.read_text() == "keep\n"
    elif kind == "non_empty" and command == "synth":
        assert code == 2 and [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert code == 0 and (out / "run_manifest.json").is_file()
    if kind == "non_empty":
        assert (out / "keep.txt").read_text() == "keep\n"


@pytest.mark.parametrize("command", ["train", "eval", "graph"])
def test_repeated_id_is_named_before_any_feature_file_is_read(tiny_run, tmp_path, capsys,
                                                              command):
    # a manifest whose feature files are all missing: only the repeat can be reported
    data = tmp_path / "data"
    data.mkdir()
    lines = (tiny_run / "data" / "manifest.jsonl").read_text().splitlines()
    repeat = {**json.loads(lines[3]), "id": json.loads(lines[1])["id"]}
    (data / "manifest.jsonl").write_text(
        "\n".join([*lines[:3], json.dumps(repeat), *lines[4:]]) + "\n")
    argv = [data if a == tiny_run / "data" else a for a in OUTPUT_COMMANDS[command](tiny_run)]
    capsys.readouterr()
    assert run(argv + ["-o", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (f"error: {data / 'manifest.jsonl'}:4: duplicate utterance "
                                       f"id '{repeat['id']}' (first on line 2)\n")


@pytest.mark.parametrize("command", ["train", "eval", "graph"])
@pytest.mark.parametrize("key, name", [("id", "../../escaped"), ("speaker", "team/a")],
                         ids=["id", "speaker"])
def test_id_or_speaker_that_is_a_path_is_named_before_anything_is_written(
        tiny_run, tmp_path, capsys, command, key, name):
    # ids and speakers name output files (`graph`'s exports, `train`'s fold
    # files); the manifest holds no feature file, so only the name is reported
    data = tmp_path / "data"
    data.mkdir()
    first, *rest = (tiny_run / "data" / "manifest.jsonl").read_text().splitlines()
    (data / "manifest.jsonl").write_text(
        "\n".join([json.dumps({**json.loads(first), key: name}), *rest]) + "\n")
    argv = [data if a == tiny_run / "data" else a for a in OUTPUT_COMMANDS[command](tiny_run)]
    if command == "graph" and key == "id":
        argv[argv.index("spk00_u000")] = name
    out = tmp_path / "x" / "y" / "out"
    capsys.readouterr()
    assert run(argv + ["-o", out]) == 2
    assert capsys.readouterr().err == (f"error: {data / 'manifest.jsonl'}:1: {key} '{name}' "
                                       f"is not a plain file name\n")
    assert [p for p in tmp_path.rglob("*") if data not in (p, *p.parents)] == []


def test_left_out_flags_take_the_library_defaults(tmp_path, monkeypatch, capsys):
    assert run(["synth", "-o", tmp_path / "data"]) == 0
    manifest = json.loads((tmp_path / "data" / "run_manifest.json").read_text())
    assert manifest["config"] == asdict(SynthSpec())

    class Captured(Exception):
        pass

    def capture(dataset, tc, jobs):
        raise Captured(dataset, tc, jobs)

    monkeypatch.setattr(cli, "loso_cv", capture)  # nothing trains
    with pytest.raises(Captured) as caught:
        run(["train", "--data", tmp_path / "data", "-o", tmp_path / "run"])
    dataset, tc, jobs = caught.value.args
    assert tc == TrainConfig(model=ModelConfig(in_dim=dataset.d, num_classes=dataset.n_classes))
    assert jobs == 1

    capsys.readouterr()
    assert run(["diag", "gradcheck"]) == 0
    report = run_gradcheck()
    assert capsys.readouterr().out == (
        f"gradcheck: {report.n_instances} instances, max relative error "
        f"{report.max_rel_error:.3e} (tolerance 1.0e-04), worst: instance "
        f"{report.worst_instance} '{report.worst_param}'\n")


def test_import_does_not_load_the_process_pool():
    # only `train --jobs N` with N > 1 needs the pool, so loso_cv imports it there
    env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
    probe = "import sys, cogcn.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
