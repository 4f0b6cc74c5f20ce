"""The benchmark harness still traces the package: ``perfbench/child.py``
runs ``train`` and then ``evaluate --checkpoint`` in its span-tracing mode
(1) and its tracemalloc mode (2), both exit 0, and their spans hold every
name a traced benchmark session requires."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridreid.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402  (perfbench/run.py)


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("harness_set")
    assert main(["gen-data", "--out-dir", str(out), "--num-identities", "30",
                 "--instances-per-identity", "10", "--dims", str(run.DIMS),
                 "--seed", "3"]) == 0
    return out


def run_child(tmp_path, mode, cli_args):
    record = tmp_path / f"{cli_args[0]}.json"
    env = dict(os.environ, **{var: "1" for var in run.BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(record), str(mode), *cli_args],
        env=env, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(record.read_text())


@pytest.mark.parametrize("mode", [1, 2], ids=["spans", "peaks"])
def test_traced_train_and_evaluate(small_set, tmp_path, mode):
    train = run_child(tmp_path, mode, [
        "train", "--features", str(small_set / "train.feat"),
        "--out-dir", str(tmp_path / "train"), "--epochs", "1", "--seed", "3"])
    evaluate = run_child(tmp_path, mode, [
        "evaluate", "--query", str(small_set / "query.feat"),
        "--gallery", str(small_set / "gallery.feat"),
        "--checkpoint", str(tmp_path / "train" / "checkpoint.ckpt"),
        "--out-dir", str(tmp_path / "evaluate")])
    assert train["rc"] == evaluate["rc"] == 0
    spans = run.merged_spans([train["trace"], evaluate["trace"]])
    for name in (*run.REQUIRED_SPANS, "clustering.dbscan"):
        assert spans.get(name, {}).get("count", 0) > 0, name
    if mode == 2:
        assert train["trace"]["peaks"]["clustering.pseudo_label"]
