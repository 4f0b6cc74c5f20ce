import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hybridreid import SynthSpec, l2_normalize, load_checkpoint, load_features, pseudo_label
from hybridreid import cli
from hybridreid.cli import _write_metrics_csv, main
from hybridreid.trainer import EpochReport


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "gen-data", "--out-dir", str(out),
        "--num-identities", "4", "--instances-per-identity", "8",
        "--dims", "8", "--num-cameras", "2",
        "--sigma-within", "0.03", "--sigma-cam", "0.05",
        "--min-angle-deg", "40", "--seed", "11",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    """The partial-run probe's set: at PROBE_FLAGS, epoch 0 forms 22 clusters
    and trains, and the trained model forms 21, too few for a batch."""
    out = tmp_path_factory.mktemp("probe")
    assert main(["gen-data", "--out-dir", str(out), "--num-identities", "20",
                 "--instances-per-identity", "10", "--dims", "16", "--seed", "2",
                 "--sigma-cam", "0.15"]) == 0
    return out


PROBE_FLAGS = ["--epochs", "10", "--num-identities-per-batch", "22",
               "--instances-per-identity", "4", "--slots-per-cluster", "4",
               "--kreciprocal-k", "6", "--lr", "0.003"]

TRAIN_FLAGS = [
    "--epochs", "2",
    "--num-identities-per-batch", "2",
    "--instances-per-identity", "4",
    "--slots-per-cluster", "4",
    "--kreciprocal-k", "7",
]


class TestGenData:
    def test_writes_loadable_splits_and_manifest(self, dataset_dir):
        for name, count in (("train", 32), ("query", 8), ("gallery", 16)):
            fs = load_features(dataset_dir / f"{name}.feat")
            assert fs.features.shape == (count, 8)
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 11
        assert sorted(manifest["outputs"]) == [
            "gallery.feat", "query.feat", "train.feat",
        ]

    def test_defaults_come_from_synth_spec(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == dataclasses.asdict(SynthSpec())

    @pytest.mark.parametrize("flags", [
        ["--num-cameras", "1"], ["--sigma-within", "nan"], ["--sigma-cam", "inf"],
        ["--seed", "-1"],
    ], ids=["num_cameras", "sigma_within", "sigma_cam", "seed"])
    def test_invalid_spec_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        rc = main(["gen-data", "--out-dir", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


class TestCluster:
    def test_labels_match_library(self, dataset_dir, tmp_path):
        out = tmp_path / "cl"
        rc = main([
            "cluster", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--kreciprocal-k", "7",
        ])
        assert rc == 0
        with open(out / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "cluster_id"]
        got = {int(r[0]): int(r[1]) for r in rows[1:]}
        fs = load_features(dataset_dir / "train.feat")
        want = pseudo_label(l2_normalize(fs.features), k=7, eps=0.45, min_pts=4)
        assert got == {i: int(c) for i, c in enumerate(want.assignment)}

    def test_manifest_written_before_failing_work(self, dataset_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "cl2"
        rc = main([
            "cluster", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--kreciprocal-k", "9999",
        ])
        assert rc == 2
        assert (out / "manifest.json").exists()
        assert not (out / "labels.csv").exists()
        capsys.readouterr()


    def test_kreciprocal_k_at_least_n_exits_2_before_clustering(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("clustering ran")

        monkeypatch.setattr("hybridreid.cli.pseudo_label", no_compute)
        rc = main([
            "cluster", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "o"), "--kreciprocal-k", "32",
        ])
        assert rc == 2
        assert "kreciprocal_k" in capsys.readouterr().err

    def test_too_few_samples_for_a_cluster_labels_all_outliers(self, tmp_path, capsys):
        # clustering forms no batches, so no batch-size bound applies: two
        # samples form no cluster at the default dbscan_min_pts=4
        data = tmp_path / "tiny"
        assert main(["gen-data", "--out-dir", str(data), "--num-identities", "1",
                     "--instances-per-identity", "2"]) == 0
        out = tmp_path / "cl"
        rc = main(["cluster", "--features", str(data / "train.feat"),
                   "--out-dir", str(out), "--kreciprocal-k", "1"])
        assert rc == 0, capsys.readouterr().err
        with open(out / "labels.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["sample_index", "cluster_id"],
                                            ["0", "-1"], ["1", "-1"]]


class TestTrain:
    def test_writes_metrics_checkpoint_eval(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out),
            "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(dataset_dir / "gallery.feat"),
            *TRAIN_FLAGS,
        ])
        assert rc == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "C", "outliers", "loss", "loss_cls",
                           "loss_ins", "seconds"]
        assert len(rows) == 3  # header + 2 epochs
        model, state, epoch = load_checkpoint(out / "checkpoint.ckpt")
        assert epoch == 2
        assert model.widths == [8, 128, 64]
        metrics = json.loads((out / "eval.json").read_text())
        assert set(metrics) == {"mAP", "rank1", "rank5", "rank10"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2
        assert "sha256" in manifest["inputs"]["features"]

    def test_deterministic_zeroes_seconds(self, dataset_dir, tmp_path):
        out = tmp_path / "det"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--deterministic", *TRAIN_FLAGS,
        ])
        assert rc == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(float(r[6]) == 0.0 for r in rows[1:])

    def test_deterministic_without_threadpoolctl_warns_and_records(
            self, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        out = tmp_path / "det_unpinned"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--deterministic", *TRAIN_FLAGS,
        ])
        assert rc == 0
        assert "BLAS threads are not pinned" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads_pinned"] is False
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "plain"), *TRAIN_FLAGS,
        ])
        assert rc == 0
        assert "not pinned" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert "blas_threads_pinned" not in manifest

    def test_config_file_and_flag_precedence(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "mu": 0.25}))
        out = tmp_path / "run2"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--config", str(cfg_path),
            "--mu", "0.75",
            "--num-identities-per-batch", "2",
            "--instances-per-identity", "4",
            "--slots-per-cluster", "4",
            "--kreciprocal-k", "7",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # from file
        assert manifest["config"]["mu"] == 0.75  # flag wins

    @pytest.mark.parametrize("given", ["query", "gallery"])
    def test_half_an_evaluation_request_exits_2_before_writing(
            self, dataset_dir, tmp_path, capsys, given):
        out = tmp_path / "run"
        rc = main(["train", "--features", str(dataset_dir / "train.feat"),
                   "--out-dir", str(out), f"--{given}", str(dataset_dir / f"{given}.feat"),
                   *TRAIN_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--query and --gallery" in err
        assert not out.exists()

    def test_hidden_dims_flag(self, dataset_dir, tmp_path):
        out = tmp_path / "run3"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out), "--hidden-dims", "16", "8", *TRAIN_FLAGS,
        ])
        assert rc == 0
        model, _, _ = load_checkpoint(out / "checkpoint.ckpt")
        assert model.widths == [8, 16, 8]


class TestEvaluate:
    def test_stdout_json(self, dataset_dir, capsys):
        rc = main([
            "evaluate", "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(dataset_dir / "gallery.feat"),
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mAP", "rank1", "rank5", "rank10"}
        assert 0.0 <= out["mAP"] <= 1.0

    def test_checkpoint_and_outdir(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(run), *TRAIN_FLAGS,
        ]) == 0
        out = tmp_path / "eval"
        rc = main([
            "evaluate", "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(dataset_dir / "gallery.feat"),
            "--checkpoint", str(run / "checkpoint.ckpt"),
            "--out-dir", str(out), "--per-query",
        ])
        assert rc == 0
        capsys.readouterr()
        metrics = json.loads((out / "eval.json").read_text())
        assert set(metrics) == {"mAP", "rank1", "rank5", "rank10"}
        with open(out / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_index", "average_precision"]
        assert len(rows) == 9  # header + 8 queries
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["eval.json", "per_query.csv"]

    def test_no_junk_filter_flag(self, dataset_dir, capsys):
        args = ["evaluate", "--query", str(dataset_dir / "query.feat"),
                "--gallery", str(dataset_dir / "gallery.feat")]
        assert main(args) == 0
        filtered = json.loads(capsys.readouterr().out)
        assert main(args + ["--no-junk-filter"]) == 0
        unfiltered = json.loads(capsys.readouterr().out)
        # same-camera twins become easy rank-1 matches when kept
        assert unfiltered["rank1"] >= filtered["rank1"]

    def test_per_query_without_out_dir_exits_2_before_loading(self, tmp_path,
                                                              capsys):
        # the inputs do not exist: the flag check must come first
        rc = main([
            "evaluate", "--query", str(tmp_path / "absent_q.feat"),
            "--gallery", str(tmp_path / "absent_g.feat"), "--per-query",
        ])
        assert rc == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_dim_mismatch_exits_2(self, dataset_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main([
            "gen-data", "--out-dir", str(other), "--num-identities", "3",
            "--instances-per-identity", "4", "--dims", "5",
        ]) == 0
        rc = main([
            "evaluate", "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(other / "gallery.feat"),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_manifest_written_before_loading(self, dataset_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main([
            "gen-data", "--out-dir", str(other), "--num-identities", "3",
            "--instances-per-identity", "4", "--dims", "5",
        ]) == 0
        out = tmp_path / "ev"
        rc = main([
            "evaluate", "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(other / "gallery.feat"), "--out-dir", str(out),
        ])
        assert rc == 2
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert not (out / "eval.json").exists()


class TestExitCodes:
    def test_missing_input_exits_3(self, tmp_path, capsys):
        rc = main([
            "train", "--features", str(tmp_path / "absent.feat"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert "absent.feat" in capsys.readouterr().err

    def test_bad_config_json_exits_2(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "o"), "--config", str(bad),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_invalid_config_value_exits_2(self, dataset_dir, tmp_path, capsys):
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "o"), "--mu", "1.5",
        ])
        assert rc == 2
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("lr", "0.1"), ("dbscan_eps", "0.4"), ("mu", None), ("hidden_dims", 5),
        ("seed", True),
    ])
    def test_mistyped_config_value_exits_2(self, dataset_dir, tmp_path, capsys,
                                           field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        rc = main(["train", "--features", str(dataset_dir / "train.feat"),
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_config_flag_types_follow_train_config(self, dataset_dir, tmp_path,
                                                   capsys):
        # int fields reject a float on the command line, float fields take one
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", str(dataset_dir / "train.feat"),
                  "--out-dir", str(tmp_path / "o"), "--epochs", "1.5"])
        assert exc.value.code == 2
        out = tmp_path / "ok"
        assert main(["train", "--features", str(dataset_dir / "train.feat"),
                     "--out-dir", str(out), *TRAIN_FLAGS, "--alpha", "1"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["alpha"] == 1.0 and isinstance(config["alpha"], float)
        assert config["epochs"] == 2 and config["hidden_dims"] == [128, 64]
        capsys.readouterr()

    def test_kreciprocal_k_at_least_n_exits_2_before_embedding(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("embedding ran")

        monkeypatch.setattr("hybridreid.trainer.embed_all", no_compute)
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "o"), "--kreciprocal-k", "32",
        ])
        assert rc == 2
        assert "kreciprocal_k" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("command", ["cluster", "train"])
    def test_dbscan_eps_at_least_one_exits_2(self, dataset_dir, tmp_path, capsys,
                                             command):
        rc = main([
            command, "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(tmp_path / "o"), "--kreciprocal-k", "7",
            "--dbscan-eps", "1.0",
        ])
        assert rc == 2
        assert "dbscan_eps" in capsys.readouterr().err

    def test_config_naming_jaccard_blend_exits_2(self, dataset_dir, tmp_path,
                                                 capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jaccard_blend": 0.0}))
        rc = main(["train", "--features", str(dataset_dir / "train.feat"),
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "jaccard_blend" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, dataset_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", str(dataset_dir / "train.feat"),
                  "--out-dir", str(tmp_path / "o"), "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nan_features_exit_4(self, dataset_dir, tmp_path, capsys):
        blob = bytearray((dataset_dir / "train.feat").read_bytes())
        blob[20:24] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.feat"
        bad.write_bytes(bytes(blob))
        rc = main(["cluster", "--features", str(bad),
                   "--out-dir", str(tmp_path / "o"), "--kreciprocal-k", "7"])
        assert rc == 4
        capsys.readouterr()

    def test_diverged_training_exits_4(self, tmp_path, capsys):
        # lr and weight decay this large overflow the encoder's output norms
        data = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(data), "--num-identities", "30",
                     "--instances-per-identity", "10", "--dims", "16",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        rc = main(["train", "--features", str(data / "train.feat"),
                   "--out-dir", str(tmp_path / "r"), "--epochs", "6", "--lr", "10000",
                   "--weight-decay", "10000", "--num-identities-per-batch", "4",
                   "--instances-per-identity", "4", "--kreciprocal-k", "6"])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_corrupt_magic_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.feat"
        bad.write_bytes(b"XXXX" + bytes(32))
        rc = main(["cluster", "--features", str(bad),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        capsys.readouterr()

    def test_feature_width_past_numpy_record_limit_exits_3(self, dataset_dir, tmp_path,
                                                           capsys):
        # one record of 2**31 floats: numpy cannot describe it, and the file
        # is far too short for it
        bad = tmp_path / "wide.feat"
        bad.write_bytes(b"HHCL" + np.array([1], "<u4").tobytes()
                        + np.array([1], "<u8").tobytes()
                        + np.array([2**31], "<u4").tobytes() + bytes(64))
        rc = main(["evaluate", "--query", str(bad),
                   "--gallery", str(dataset_dir / "gallery.feat")])
        assert rc == 3
        assert capsys.readouterr().err.count("error:") == 1

    def test_clustering_collapse_exits_5(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "train", "--features", str(dataset_dir / "train.feat"),
            "--out-dir", str(out),
            "--epochs", "5", "--dbscan-eps", "1e-6",
            "--dbscan-min-pts", "30", "--kreciprocal-k", "5",
            "--num-identities-per-batch", "2",
        ])
        assert rc == 5
        assert capsys.readouterr().err.count("error:") == 1
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_no_trained_epoch_exits_5_without_checkpoint(self, dataset_dir, tmp_path,
                                                         capsys):
        # 4 identities form about 4 clusters an epoch, fewer than the 10 a
        # batch needs, though validate_config allows up to 13
        train_out, ablate_out = tmp_path / "t", tmp_path / "a"
        flags = ["--epochs", "2", "--kreciprocal-k", "7",
                 "--num-identities-per-batch", "10"]
        assert main(["train", "--features", str(dataset_dir / "train.feat"),
                     "--out-dir", str(train_out), *flags]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no epoch trained")
        assert "num_identities_per_batch=10" in err[0]
        assert int(re.search(r"epoch 0 formed (\d+) clusters", err[0]).group(1)) < 10
        assert sorted(p.name for p in train_out.iterdir()) == ["manifest.json"]
        assert main(["ablate", "--features", str(dataset_dir / "train.feat"),
                     "--query", str(dataset_dir / "query.feat"),
                     "--gallery", str(dataset_dir / "gallery.feat"),
                     "--out-dir", str(ablate_out), "--mu-values", "0.5",
                     "--seeds", "0", *flags]) == 5
        assert sorted(p.name for p in ablate_out.iterdir()) == ["manifest.json"]
        capsys.readouterr()

    def test_one_trained_epoch_exits_0(self, probe_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--features", str(probe_dir / "train.feat"),
                     "--out-dir", str(out), *PROBE_FLAGS, "--seed", "2",
                     "--deterministic"]) == 0
        assert "trained 1 epochs: C=22 " in capsys.readouterr().out
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["epoch"], r["C"]) for r in rows] == [("0", "22")]
        _, _, epoch = load_checkpoint(out / "checkpoint.ckpt")
        assert epoch == 1

    @pytest.mark.parametrize("grid", [
        ["--mu-values", "0.5", "2.0", "--seeds", "0"],
        ["--mu-values", "0.5", "--seeds", "0", "-1"],
        ["--mu-values", "0.5", "0.5", "--seeds", "0", "1"],
        ["--mu-values", "0.5", "--seeds", "1", "1"],
    ], ids=["mu", "seed", "repeated-mu", "repeated-seed"])
    def test_ablate_mu_out_of_range_exits_2(self, dataset_dir, tmp_path,
                                            capsys, monkeypatch, grid):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell started training")

        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "o"
        rc = main([
            "ablate", "--features", str(dataset_dir / "train.feat"),
            "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(dataset_dir / "gallery.feat"),
            "--out-dir", str(out), *grid,
        ])
        assert rc == 2
        assert not out.exists()
        capsys.readouterr()

    def test_batch_beyond_cluster_bound_exits_2_before_training(
            self, dataset_dir, tmp_path, capsys):
        # 32 samples form at most 13 clusters at dbscan_min_pts=4, against
        # 16 identities per batch by default
        train_out, ablate_out = tmp_path / "t", tmp_path / "a"
        assert main(["train", "--features", str(dataset_dir / "train.feat"),
                     "--out-dir", str(train_out), "--epochs", "1",
                     "--kreciprocal-k", "5"]) == 2
        assert main(["ablate", "--features", str(dataset_dir / "train.feat"),
                     "--query", str(dataset_dir / "query.feat"),
                     "--gallery", str(dataset_dir / "gallery.feat"),
                     "--out-dir", str(ablate_out), "--mu-values", "0.5",
                     "--seeds", "0", "--epochs", "1", "--kreciprocal-k", "5"]) == 2
        assert "num_identities_per_batch must be <= 13" in capsys.readouterr().err
        assert sorted(p.name for p in train_out.iterdir()) == ["manifest.json"]
        assert sorted(p.name for p in ablate_out.iterdir()) == ["manifest.json"]
        # clustering forms no batches, so the same set still clusters
        assert main(["cluster", "--features", str(dataset_dir / "train.feat"),
                     "--out-dir", str(tmp_path / "c"), "--kreciprocal-k", "5"]) == 0
        capsys.readouterr()

    def test_instances_per_identity_beyond_n_exits_2_before_training(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("embedding ran")

        monkeypatch.setattr("hybridreid.trainer.embed_all", no_compute)
        # the training set holds 32 samples
        flags = ["--epochs", "1", "--num-identities-per-batch", "2",
                 "--kreciprocal-k", "7", "--instances-per-identity", "33"]
        train_out, ablate_out = tmp_path / "t", tmp_path / "a"
        assert main(["train", "--features", str(dataset_dir / "train.feat"),
                     "--out-dir", str(train_out), *flags]) == 2
        assert main(["ablate", "--features", str(dataset_dir / "train.feat"),
                     "--query", str(dataset_dir / "query.feat"),
                     "--gallery", str(dataset_dir / "gallery.feat"),
                     "--out-dir", str(ablate_out), "--mu-values", "0.5",
                     "--seeds", "0", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: instances_per_identity must be <= 32 samples, got 33"] * 2
        assert sorted(p.name for p in train_out.iterdir()) == ["manifest.json"]
        assert sorted(p.name for p in ablate_out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--dims", "1000000000"],
        ["train", "--hidden-dims", "100000", "100000"],
        ["train", "--instances-per-identity", "100000000"],
    ], ids=["gen-data-dims", "train-hidden-dims", "train-instances"])
    def test_oversized_run_exits_2_without_traceback(self, dataset_dir, tmp_path, argv):
        # each probe runs in a child whose address space is capped at 1 GiB,
        # so an allocation it should not attempt fails at once
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from hybridreid.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        if argv[0] == "train":
            argv = [*argv, "--features", str(dataset_dir / "train.feat"), "--epochs", "1",
                    "--num-identities-per-batch", "2", "--kreciprocal-k", "7"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child, *argv, "--out-dir",
                               str(tmp_path / "o")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_failed_metrics_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        bad = EpochReport(epoch=0, num_clusters=1, num_outliers=0, loss="?",
                          loss_cls=0.0, loss_ins=0.0, seconds=0.0)
        with pytest.raises(ValueError):
            _write_metrics_csv(path, [bad], zero_seconds=True)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


class TestAblate:
    def ablate_args(self, dataset_dir, out):
        return [
            "ablate", "--features", str(dataset_dir / "train.feat"),
            "--query", str(dataset_dir / "query.feat"),
            "--gallery", str(dataset_dir / "gallery.feat"),
            "--out-dir", str(out),
            "--mu-values", "0", "1", "--seeds", "0", "1",
            *TRAIN_FLAGS,
        ]

    def test_summary_schema_and_grid_order(self, dataset_dir, tmp_path,
                                           capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "load_features",
                            lambda path: read.append(path) or load_features(path))
        out = tmp_path / "ab"
        assert main(self.ablate_args(dataset_dir, out)) == 0
        # the four cells share one read of each input file
        assert sorted(map(str, read)) == sorted(
            str(dataset_dir / f"{name}.feat") for name in ("train", "query", "gallery"))
        stdout = capsys.readouterr().out
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "seed", "trained_epochs", "mAP", "rank1", "rank5",
                           "rank10"]
        grid = [(r[0], r[1]) for r in rows[1:]]
        assert grid == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        for r in rows[1:]:
            assert r[2] == "2"
            assert 0.0 <= float(r[3]) <= 1.0
        assert stdout.count("over 2 seeds, 0 trained fewer than 2 epochs") == 2

    def test_cell_that_stopped_early_is_counted(self, probe_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        assert main(["ablate", "--features", str(probe_dir / "train.feat"),
                     "--query", str(probe_dir / "query.feat"),
                     "--gallery", str(probe_dir / "gallery.feat"),
                     "--out-dir", str(out), "--mu-values", "0.5", "--seeds", "2",
                     *PROBE_FLAGS]) == 0
        assert "over 1 seeds, 1 trained fewer than 10 epochs" in capsys.readouterr().out
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["trained_epochs"]) for r in rows] == [("2", "1")]


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridreid.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "hybridreid" in proc.stdout
