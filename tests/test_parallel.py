"""The block driver in ``hybridreid.parallel``: results and artifacts do not
depend on the worker count (nor, for ``train``, on the BLAS thread count),
a worker's exception keeps its exit code, no array of a call outlives it,
no public function runs on a helper thread (the harness's tracer keeps one
span stack per process), and manifests record the worker count."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hybridreid import NumericError, clustering, l2_normalize, loss, memory, parallel
from hybridreid.cli import main
from hybridreid.clustering import k_reciprocal_neighbors
from hybridreid.loss import hard_instance_loss
from hybridreid.memory import hard_keys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402  (perfbench/tracer.py)

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def use_workers(monkeypatch):
    """Run block loops on n workers, BLAS pinned or not."""
    def use(n):
        monkeypatch.setattr(parallel, "WORKERS", n)
        monkeypatch.setattr(parallel, "_pinned", True)
    return use


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks small enough that the hard-key search and the gradient of a
    small batch take several each."""
    monkeypatch.setattr(memory, "SCORE_BYTES", 4 << 10)
    monkeypatch.setattr(loss, "GATHER_BYTES", 8 << 10)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """200 training rows: 7 labeling blocks of 32."""
    out = tmp_path_factory.mktemp("parallel_data")
    assert main(["gen-data", "--out-dir", str(out), "--num-identities", "20",
                 "--instances-per-identity", "10", "--dims", "16", "--seed", "5"]) == 0
    return out


TRAIN_FLAGS = ["--epochs", "2", "--num-identities-per-batch", "4",
               "--instances-per-identity", "4", "--slots-per-cluster", "4",
               "--kreciprocal-k", "6", "--seed", "3"]


def helper_first(monkeypatch, module, name, on_helper=None):
    """Wrap ``module.name``, a function blocks call, so that the caller's
    first call waits until a helper thread has made one (so a helper surely
    runs a block), and a helper's call runs ``on_helper`` first. Returns
    the set of threads that called it."""
    real = getattr(module, name)
    helper_called = threading.Event()
    threads = set()

    def wrapped(*args, **kwargs):
        threads.add(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            helper_called.wait(timeout=10)
        else:
            helper_called.set()
            if on_helper is not None:
                on_helper()
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return threads


def test_blocks_write_their_slices_on_any_worker_count(use_workers):
    out = {}
    for n in WORKER_COUNTS:
        use_workers(n)
        got = np.zeros(100)

        def block(lo, buf):
            buf[:] = lo
            got[lo:lo + 7] = buf[:got[lo:lo + 7].size] + np.arange(got[lo:lo + 7].size)

        parallel.run_blocks(range(0, 100, 7), block, lambda: np.empty(7))
        out[n] = got
    assert np.array_equal(out[1], np.arange(100.0))
    assert all(np.array_equal(got, out[1]) for got in out.values())


def test_first_error_is_raised_after_every_worker_stops(use_workers):
    use_workers(3)
    started, finished = [], []

    def block(lo, _):
        started.append(lo)
        if lo == 0:
            raise NumericError("block 0")
        time.sleep(0.01)
        finished.append(lo)

    with pytest.raises(NumericError, match="block 0"):
        parallel.run_blocks(range(50), block)
    # every block that started has finished, and the error stopped the rest
    assert sorted(finished) == sorted(set(started) - {0})
    assert len(started) < 50


FORK_PROBE = """
import os, signal, sys
import numpy as np
from hybridreid import parallel
parallel.WORKERS, parallel._pinned = 2, True
out = np.zeros(8)
def block(lo, _):
    out[lo] = lo
parallel.run_blocks(range(8), block)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child waiting on its parent's helpers dies, not hangs
    parallel.run_blocks(range(8), block)
    os._exit(0 if out.tolist() == list(range(8)) else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_a_forked_child_starts_its_own_helpers():
    """A child forked after helpers started has none of them: its block
    loops start their own instead of waiting for the parent's."""
    proc = subprocess.run([sys.executable, "-c", FORK_PROBE], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr


def test_kreciprocal_hard_keys_and_gradient_bits_do_not_depend_on_workers(
        use_workers, small_blocks, rng):
    emb = l2_normalize(rng.standard_normal((300, 16)))
    emb[150:200] = emb[:50]  # exact copies tie and take per-pair distances
    slots = l2_normalize(rng.standard_normal((40 * 4, 16))).reshape(40, 4, 16)
    batch = l2_normalize(rng.standard_normal((24, 16)))
    own = rng.integers(0, 40, size=24)
    runs = []
    for n in WORKER_COUNTS:
        use_workers(n)
        sets = k_reciprocal_neighbors(emb, 10)
        out = hard_instance_loss(batch, slots, own, 0.1)
        runs.append([*sets, *hard_keys(batch, slots, own), out.values, out.grad])
    for run in runs[1:]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(run, runs[0]))


def test_artifacts_do_not_depend_on_workers(use_workers, small_blocks, data_dir, tmp_path):
    artifacts = []
    for n in WORKER_COUNTS:
        use_workers(n)
        out = tmp_path / f"w{n}"
        assert main(["train", "--features", str(data_dir / "train.feat"),
                     "--out-dir", str(out / "train"), *TRAIN_FLAGS]) == 0
        assert main(["cluster", "--features", str(data_dir / "train.feat"),
                     "--out-dir", str(out / "cluster"), "--kreciprocal-k", "6"]) == 0
        artifacts.append([(out / path).read_bytes() for path in (
            "train/checkpoint.ckpt", "train/metrics.csv", "cluster/labels.csv")])
    assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]


TRAIN_CHILD = """
import sys
from hybridreid import parallel
parallel.WORKERS = int(sys.argv[1])
from hybridreid.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_train_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    """A plain one-epoch ``train``, in fresh processes on 1 and 2 workers
    and 1 and 2 OpenBLAS threads, writes one set of checkpoint and metrics
    bytes: ``train()`` pins BLAS before its first GEMM. Without that pin,
    1 worker on 2 threads writes other checkpoint bits on this input (1200
    rows, ~200 clusters, batches of 256)."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out-dir", str(data), "--num-identities", "200",
                 "--instances-per-identity", "6", "--dims", "32", "--seed", "101"]) == 0
    runs = {}
    for workers in (1, 2):
        for threads in (1, 2):
            out = tmp_path / f"w{workers}_t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run(
                [sys.executable, "-c", TRAIN_CHILD, str(workers), "train", "--features",
                 str(data / "train.feat"), "--out-dir", str(out), "--epochs", "1",
                 "--seed", "101", "--kreciprocal-k", "4", "--dbscan-min-pts", "2"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[workers, threads] = [(out / name).read_bytes() for name in (
                "checkpoint.ckpt", "metrics.csv", "timings.csv")]
    checkpoints, metrics, timings = zip(*runs.values())
    assert len(set(checkpoints)) == 1, [hashlib.sha256(b).hexdigest()[:8] for b in checkpoints]
    assert len(set(metrics)) == 1
    assert {t.count(b"\n") for t in timings} == {2}  # header + 1 epoch


@pytest.mark.parametrize("error, code", [(NumericError("injected"), 4),
                                         (MemoryError("injected"), 2)])
def test_worker_error_keeps_the_serial_exit_code(use_workers, data_dir, tmp_path,
                                                 monkeypatch, error, code):
    def fail():
        raise error

    with monkeypatch.context() as mp:
        use_workers(1)
        mp.setattr(clustering, "_gemm", lambda *args: fail())
        serial = main(["train", "--features", str(data_dir / "train.feat"),
                       "--out-dir", str(tmp_path / "serial"), *TRAIN_FLAGS])
    use_workers(2)
    threads = helper_first(monkeypatch, clustering, "_gemm", on_helper=fail)
    parallel_rc = main(["train", "--features", str(data_dir / "train.feat"),
                        "--out-dir", str(tmp_path / "parallel"), *TRAIN_FLAGS])
    assert len(threads) == 2
    assert serial == parallel_rc == code


def traced_growth(fn):
    """Bytes allocated by ``fn()`` and still held once it returns, and its
    result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[0] - base, result
    finally:
        tracemalloc.stop()


def test_no_array_of_a_call_outlives_it(use_workers, rng):
    """Only the results stay allocated: no worker, helper or closure keeps a
    block buffer (1 MiB per worker for the neighbor search here) alive."""
    use_workers(2)
    emb = l2_normalize(rng.standard_normal((4000, 16)))
    slots = l2_normalize(rng.standard_normal((400 * 16, 16))).reshape(400, 16, 16)
    batch = l2_normalize(rng.standard_normal((256, 16)))
    own = rng.integers(0, 400, size=256)
    calls = {"k_reciprocal_neighbors": lambda: k_reciprocal_neighbors(emb, 20),
             "hard_keys": lambda: hard_keys(batch, slots, own)}
    for name, call in calls.items():
        call()  # helpers started, BLAS buffers allocated
        held, result = traced_growth(call)
        kept = sum(a.nbytes for a in result)
        assert held < kept + (64 << 10), f"{name}: {held - kept} bytes beyond its results"


def test_no_public_function_runs_on_a_helper(use_workers, small_blocks, data_dir,
                                             tmp_path, monkeypatch):
    """Wrap every public hybridreid function and method as the harness's
    tracer does: during ``train`` and ``cluster`` on two workers, each runs
    on the calling thread, while helpers run blocks."""
    use_workers(2)
    callers = {}

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callers.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    modules = tracer.package_modules()
    for fn, places in tracer.public_functions(modules).items():
        wrapper = wrap(tracer.span_name(fn), fn)
        for owner, attr in places:
            monkeypatch.setattr(owner, attr, wrapper)
    by_name = {mod.__name__.split(".", 1)[-1]: mod for mod in modules}
    for module, cls_name, method in tracer.METHODS:
        cls = getattr(by_name[module], cls_name)
        fn = getattr(cls, method)
        monkeypatch.setattr(cls, method, wrap(tracer.span_name(fn), fn))
    block_threads = helper_first(monkeypatch, clustering, "_gemm")
    assert main(["train", "--features", str(data_dir / "train.feat"),
                 "--out-dir", str(tmp_path / "train"), *TRAIN_FLAGS]) == 0
    assert main(["cluster", "--features", str(data_dir / "train.feat"),
                 "--out-dir", str(tmp_path / "cluster")]) == 0
    assert len(block_threads) == 2
    assert {"trainer.train", "clustering.k_reciprocal_neighbors", "memory.hard_keys",
            "parallel.run_blocks"} <= set(callers)
    assert all(threads == {threading.get_ident()} for threads in callers.values()), {
        name: len(threads) for name, threads in callers.items()}


def test_manifests_record_the_worker_count(use_workers, data_dir, tmp_path, monkeypatch):
    feats = str(data_dir / "train.feat")
    split = ["--query", str(data_dir / "query.feat"), "--gallery", str(data_dir / "gallery.feat")]
    commands = {
        "train": ["train", "--features", feats, *TRAIN_FLAGS],
        "cluster": ["cluster", "--features", feats],
        "evaluate": ["evaluate", *split],
        "ablate": ["ablate", "--features", feats, *split, "--mu-values", "0.5",
                   "--seeds", "3", *TRAIN_FLAGS[:-2]],
    }

    def recorded(tag):
        counts = {}
        for name, argv in commands.items():
            out = tmp_path / tag / name
            assert main([*argv, "--out-dir", str(out)]) == 0
            counts[name] = json.loads((out / "manifest.json").read_text())["workers"]
        return counts

    use_workers(3)
    assert set(recorded("three").values()) == {3}
    use_workers(1)
    assert set(recorded("one").values()) == {1}
    # where BLAS cannot be pinned, the loops run on one worker
    use_workers(3)
    monkeypatch.setattr(parallel, "_pinned", None)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(parallel, "_numpy_openblas_setter", lambda: None)
    assert parallel.workers() == 1
    assert set(recorded("unpinned").values()) == {1}
