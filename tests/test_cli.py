"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogcn
from cogcn.cli import main


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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COGCN_SEED", "7")
        a = tmp_path / "a"
        args = [x for x in SYNTH_ARGS if True]
        i = args.index("--seed")
        del args[i : i + 2]  # no --seed flag: fall back to COGCN_SEED
        assert run(args + ["-o", a]) == 0
        b = tmp_path / "b"
        assert run(SYNTH_ARGS + ["-o", b]) == 0  # explicit --seed 7
        assert dir_digest(a) == dir_digest(b)


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


# how each fault edits the first manifest entry (None: a file, below), and
# what `cogcn train` must say about it, naming the file
BAD_INPUTS = {
    "not_an_object": (lambda e: 5, "manifest.jsonl:1: expected a JSON object, got int"),
    "path_number": (lambda e: {**e, "path": 5},
                    "manifest.jsonl:1: key 'path' must be a string, got 5"),
    "label_list": (lambda e: {**e, "label": [1]},
                   "manifest.jsonl:1: key 'label' must be a string, got [1]"),
    "speaker_number": (lambda e: {**e, "speaker": 3},
                       "manifest.jsonl:1: key 'speaker' must be a string, got 3"),
    "path_is_directory": (lambda e: {**e, "path": "."},
                          "tiny: cannot read feature file: Is a directory"),
    "manifest_not_utf8": (None, "manifest.jsonl: manifest is not UTF-8: byte 0 is 0xff"),
    "features_not_utf8": (None, "spk00_u000.csv: feature file is not UTF-8: byte 0 is 0xff"),
    "header_only_index": (None, "spk00_u000.csv:1: the header names no feature column"),
}


@pytest.mark.parametrize("fault", BAD_INPUTS)
def test_bad_input_file_is_data_error_naming_it(tmp_path, capsys, fault):
    data = tmp_path / "tiny"
    assert run(["synth", "--classes", 2, "--speakers", 3, "--utts", 2, "--frames-lo", 4,
                "--frames-hi", 8, "--dim", 4, "--seed", 0, "-o", data]) == 0
    manifest = data / "manifest.jsonl"
    edit, message = BAD_INPUTS[fault]
    first, *rest = manifest.read_text().splitlines()
    if edit:
        manifest.write_text("\n".join([json.dumps(edit(json.loads(first))), *rest]) + "\n")
    elif fault == "manifest_not_utf8":
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
    elif fault == "features_not_utf8":
        (data / "spk00_u000.csv").write_bytes(b"\xff\n")
    else:
        (data / "spk00_u000.csv").write_text("frame_index\n0\n")
    capsys.readouterr()
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

    @pytest.mark.parametrize("fault", [
        "missing", "invalid_json", "bad_version", "truncated_w_e", "w_e_count",
        "standardizer_narrow", "standardizer_wide", "zero_std", "nan_mean", "inf_std",
        "gamma_text", "gamma_out_of_range", "graph_kind_list", "graph_kind_knn",
        "train_meta_list",
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

    def test_dimension_mismatch(self, tmp_path, trained):
        other = tmp_path / "otherd"
        assert run(["synth", "--classes", 4, "--speakers", 2, "--utts", 2,
                    "--dim", 5, "--frames-lo", 4, "--frames-hi", 8,
                    "-o", other]) == 0
        assert run(["eval", "--ckpt", trained / "fold_spk00.json",
                    "--data", other]) == 2


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

    def test_features_csv_matches_dataset_file(self, tmp_path, data_dir):
        # `cogcn graph` writes the utterance's features as `save_dataset` does
        entry = json.loads((data_dir / "manifest.jsonl").read_text().splitlines()[3])
        out = tmp_path / "g"
        assert run(["graph", "--data", data_dir, "--utt", entry["id"], "--gamma", 0.5,
                    "-o", out]) == 0
        written = (out / f"{entry['id']}_features.csv").read_bytes()
        assert written == (data_dir / entry["path"]).read_bytes()

    def test_unknown_utterance_lists_ids(self, tmp_path, data_dir, capsys):
        code = run(["graph", "--data", data_dir, "--utt", "nope", "--gamma",
                    0.5, "-o", tmp_path / "g"])
        assert code == 2
        assert "spk00_u000" in capsys.readouterr().err


class TestDiag:
    def test_params_headline_count(self, capsys):
        assert run(["diag", "params", "--d", 88, "--z", 128, "--k", 2, "--c", 4]) == 0
        assert capsys.readouterr().out.strip() == "44676"

    def test_params_no_pre_no_skip(self, capsys):
        assert run(["diag", "params", "--d", 88, "--z", 128, "--k", 3, "--c", 4,
                    "--no-pre", "--no-skip"]) == 0
        assert capsys.readouterr().out.strip() == "44548"

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
                                        tmp_path / "jobs"], "--jobs must be >= 1, got 0")):
            capsys.readouterr()
            assert run(argv) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "jobs").exists()  # rejected before the output is made


def test_import_does_not_load_the_process_pool():
    # only `train --jobs N` with N > 1 needs the pool, so loso_cv imports it there
    env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
    probe = "import sys, cogcn.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
