"""End-to-end and per-layer benchmark of hybridreid's ``train`` and
``evaluate`` command-line paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload label-heavy --seed 1 --seconds 40 --trace 0

Each repetition is a closed-loop, single-process user session of fresh
interpreters, one after the other (``perfbench/child.py`` around
``hybridreid.cli.main``): ``train`` on a seeded training set, then
``evaluate --checkpoint`` on a query/gallery split. Steps that are short in
a workload run several times per session, so their medians rest on more
samples. Inputs are generated from ``--seed`` through the public API before
any timing starts, and their sha256 digests go into the results. Sessions
continue until ``--seconds`` is used up (at least three). The last line of
standard output is the result object; a detailed record (every sample,
medians with tail percentiles, input digests, library versions, top self
times) is written under ``.perfbench/results/``.

Workloads, and why each exists:

- label-heavy: train on N=4000 (200 identities x 20 instances) with the
  default TrainConfig, then evaluate the trained checkpoint on its 400
  queries x 1200 gallery items (three times per session). The dense
  k-reciprocal Jaccard + DBSCAN pseudo-labeling is ~85% of an epoch; only
  ~11 batches run.
- loss-heavy: train on N=2400 (400 identities x 6) with kreciprocal_k=4 and
  dbscan_min_pts=2: ~400 clusters and ~18% outliers, 25 batches and 12,800
  per-sample loss calls per epoch. The hybrid loss and its hard-key search
  over the instance bank dominate. Evaluation (800 x 2400) runs three times
  per session.
- eval-heavy: evaluate a seeded, untrained encoder (so training changes
  cannot move its mAP, which is ~0.97 and not saturated) on 3000 queries x
  9000 gallery items of 1500 identities. The rectangular distance and the
  stable argsort in rank_gallery dominate; they differ in shape from the
  clustering distances, so a shared change that helps one and hurts the
  other shows. Every workload must report every end-to-end metric, so its
  session also trains a small model (N=1200, 2 epochs, twice) for
  train_samples_per_s; those runs are ~30% of the session.

End-to-end metrics (``--trace 0``), each a median over the run's samples:
setup_s (spawn until train or evaluation is entered: train plus evaluate
process), wall_s (spawn until exit: train plus evaluate process),
train_samples_per_s (N x epochs over the wall time of the train() call),
eval_queries_per_s (queries over the wall time of embedding plus
evaluate_retrieval), peak_rss_mb (the larger process, from os.wait4), map
and rank1. A session with a failed process or output check counts in
``failed`` of the result line.

Per-layer metrics (``--trace 1``): sessions cycle untraced, traced,
untraced, traced with tracemalloc peaks. Traced sessions run train and
evaluate once each and wrap every public hybridreid function (see
tracer.py); they give per-layer times and counts, and ``trace.overhead_s``,
their wall_s minus the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from statistics import median

from tracer import clock

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")

# One BLAS thread per child: bit-identical repetitions and no contention
# with the other core on a 2-core machine. Must not exceed nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SESSIONS = 3
CHILD_TIMEOUT_S = 120
DIMS = 32
# Spans a traced session must record; each workload trains and evaluates.
REQUIRED_SPANS = ("trainer.train", "clustering.pseudo_label",
                  "evaluation.evaluate_retrieval", "encoder.MLPEncoder.forward")


@dataclass(frozen=True)
class Workload:
    train_ids: int
    train_instances: int
    epochs: int
    train_flags: tuple = ()
    # Untraced sessions run train and evaluate this many times each; short
    # steps repeat so that their medians rest on more samples.
    train_runs: int = 1
    eval_runs: int = 1
    # > 0: evaluate a seeded untrained encoder on a separate set of this
    # many identities instead of the checkpoint the session trained.
    eval_ids: int = 0


# Why each workload exists: see the module docstring and BENCHMARK.json.
WORKLOADS = {
    "label-heavy": Workload(
        train_ids=200, train_instances=20, epochs=1, eval_runs=3),
    "loss-heavy": Workload(
        train_ids=400, train_instances=6, epochs=1, eval_runs=3,
        train_flags=("--kreciprocal-k", "4", "--dbscan-min-pts", "2")),
    "eval-heavy": Workload(
        train_ids=60, train_instances=20, epochs=2, train_runs=2, eval_ids=1500),
}

# name -> (unit, higher is better)
END_TO_END = {
    "setup_s": ("s", False),
    "wall_s": ("s", False),
    "train_samples_per_s": ("1/s", True),
    "eval_queries_per_s": ("1/s", True),
    "peak_rss_mb": ("MiB", False),
    "map": ("fraction", True),
    "rank1": ("fraction", True),
}

# name -> (unit, span, how): "total"/"self" seconds, "count" calls, "peak"
# tracemalloc bytes, or "sum:key"/"mean:key" over tracer.py's observations.
PER_LAYER = {
    "clustering.pseudo_label_s": ("s", "clustering.pseudo_label", "total"),
    "clustering.pairwise_euclidean_s": ("s", "clustering.pairwise_euclidean", "total"),
    "clustering.k_reciprocal_neighbors_s": ("s", "clustering.k_reciprocal_neighbors", "total"),
    "clustering.jaccard_distance_s": ("s", "clustering.jaccard_distance", "total"),
    "clustering.dbscan_s": ("s", "clustering.dbscan", "total"),
    "clustering.pseudo_label_peak_mb": ("MiB", "clustering.pseudo_label", "peak"),
    "clustering.num_clusters": ("count", "clustering.pseudo_label", "mean:num_clusters"),
    "clustering.kept_frac": ("fraction", "clustering.pseudo_label", "mean:kept_frac"),
    "loss.cluster_loss_s": ("s", "loss.cluster_loss", "total"),
    "loss.cluster_loss_calls": ("count", "loss.cluster_loss", "count"),
    "loss.hard_instance_loss_s": ("s", "loss.hard_instance_loss", "total"),
    "loss.hard_instance_loss_calls": ("count", "loss.hard_instance_loss", "count"),
    "loss.softmax_contrastive_s": ("s", "loss.softmax_contrastive", "total"),
    "memory.hard_keys_s": ("s", "memory.hard_keys", "total"),
    "memory.init_cluster_bank_s": ("s", "memory.init_cluster_bank", "total"),
    "memory.init_instance_bank_s": ("s", "memory.init_instance_bank", "total"),
    "memory.update_cluster_bank_s": ("s", "memory.update_cluster_bank", "total"),
    "memory.update_instance_bank_s": ("s", "memory.update_instance_bank", "total"),
    "sampler.build_epoch_batches_s": ("s", "sampler.build_epoch_batches", "total"),
    "sampler.batches": ("count", "sampler.build_epoch_batches", "sum:batches"),
    "encoder.forward_s": ("s", "encoder.MLPEncoder.forward", "total"),
    "encoder.forward_rows": ("count", "encoder.MLPEncoder.forward", "sum:rows"),
    "encoder.backward_s": ("s", "encoder.MLPEncoder.backward", "total"),
    "encoder.adam_step_s": ("s", "encoder.adam_step", "total"),
    "encoder.adam_steps": ("count", "encoder.adam_step", "count"),
    "encoder.save_checkpoint_s": ("s", "encoder.save_checkpoint", "total"),
    "encoder.load_checkpoint_s": ("s", "encoder.load_checkpoint", "total"),
    "trainer.train_self_s": ("s", "trainer.train", "self"),
    "trainer.embed_all_s": ("s", "trainer.embed_all", "total"),
    "evaluation.evaluate_retrieval_s": ("s", "evaluation.evaluate_retrieval", "total"),
    "evaluation.rank_gallery_s": ("s", "evaluation.rank_gallery", "total"),
    "evaluation.cmc_curve_s": ("s", "evaluation.cmc_curve", "total"),
    "evaluation.ap_self_s": ("s", "evaluation.evaluate_retrieval", "self"),
    "core.load_features_s": ("s", "core.load_features", "total"),
    "core.features_matrix_s": ("s", "core.features_matrix", "total"),
    "cli.write_manifest_s": ("s", "cli.write_manifest", "total"),
}
TRACE_OVERHEAD = "trace.overhead_s"


def tail_percentile(values, higher_is_better=False):
    """The highest percentile with at least ten samples beyond it, on the
    bad side (high for times, low for rates), as ``{"p", "value"}``;
    None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # order statistic with exactly ten samples beyond it
    p = 100.0 * (k + 1) / n
    if higher_is_better:
        return {"p": 100.0 - p, "value": sorted(values, reverse=True)[k]}
    return {"p": p, "value": sorted(values)[k]}


def describe(values, higher_is_better=False):
    return {"median": median(values), "n": len(values),
            "tail": tail_percentile(values, higher_is_better)}


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def feature_count(path):
    """Record count from a .feat header (u64 at byte 8)."""
    with open(path, "rb") as fh:
        return int.from_bytes(fh.read(16)[8:16], "little")


def make_inputs(w: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's input files from ``seed`` through the public API."""
    from hybridreid import AdamState, MLPEncoder, TrainConfig, save_checkpoint
    from hybridreid.cli import main as cli_main

    def gen(name, ids, instances):
        target = os.path.join(out_dir, name)
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli_main(["gen-data", "--out-dir", target, "--num-identities", str(ids),
                           "--instances-per-identity", str(instances),
                           "--dims", str(DIMS), "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"gen-data exited {rc}")
        return target

    train_dir = gen("train", w.train_ids, w.train_instances)
    inputs = {"train": os.path.join(train_dir, "train.feat")}
    eval_dir = gen("eval", w.eval_ids, 1) if w.eval_ids else train_dir
    inputs["query"] = os.path.join(eval_dir, "query.feat")
    inputs["gallery"] = os.path.join(eval_dir, "gallery.feat")
    if w.eval_ids:
        cfg = TrainConfig()
        model = MLPEncoder([DIMS, *cfg.hidden_dims], seed=seed)
        inputs["checkpoint"] = os.path.join(out_dir, "untrained.ckpt")
        save_checkpoint(inputs["checkpoint"], model,
                        AdamState.for_model(model, cfg.lr, cfg.weight_decay), epoch=0)
    return inputs


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return env


def run_child(cli_args, out_dir, trace, env):
    """Spawn one child, wait for it with os.wait4 (its own peak RSS, not the
    running maximum RUSAGE_CHILDREN keeps), and read back its marks."""
    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
           str(trace), *cli_args]
    with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        spawn = clock()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused while the
            # timer may still signal it.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            end = clock()
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"rc": proc.returncode, "spawn": spawn, "end": end,
             "wall_s": end - spawn, "peak_rss_mb": usage.ru_maxrss / 1024.0,
             "marks": {}, "trace": None}
    if proc.returncode == 0:
        try:
            with open(record_path) as fh:
                child.update({k: v for k, v in json.load(fh).items() if k != "rc"})
        except (OSError, ValueError):
            pass  # no marks: reported as an unrecorded window

    starts = [t for t in (child["marks"].get("train_start"),
                          child["marks"].get("eval_start")) if t is not None]
    child["setup_s"] = (min(starts) - spawn) if starts else None
    return child


def check_train(train_dir, epochs, min_clusters):
    """Problems with a train run's artifacts; empty when they are sound."""
    from hybridreid import HybridReidError, load_checkpoint

    problems = []
    try:
        _, _, epoch = load_checkpoint(os.path.join(train_dir, "checkpoint.ckpt"))
        if epoch != epochs:
            problems.append(f"checkpoint epoch {epoch} != {epochs}")
    except (OSError, HybridReidError, ValueError) as exc:
        problems.append(f"checkpoint does not reload: {exc}")
    try:
        with open(os.path.join(train_dir, "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != epochs:
            problems.append(f"metrics.csv has {len(rows)} rows for {epochs} epochs")
        small = [r["C"] for r in rows if int(r["C"]) < min_clusters]
        if small:
            problems.append(f"epochs with C < {min_clusters}: {small}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"metrics.csv unreadable: {exc}")
    return problems


def read_eval(eval_dir):
    try:
        with open(os.path.join(eval_dir, "eval.json")) as fh:
            metrics = json.load(fh)
        values = {"map": float(metrics["mAP"]), "rank1": float(metrics["rank1"])}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return {}, [f"eval.json unreadable: {exc}"]
    bad = [k for k, v in values.items() if not (math.isfinite(v) and 0.0 < v <= 1.0)]
    return values, [f"{k}={values[k]} outside (0, 1]" for k in bad]


def run_checked(kind, cli_args, out_dir, trace, env):
    """Run one child and start its problem list with a failed exit or a
    missing timing window."""
    child = run_child(cli_args, out_dir, trace, env)
    child["kind"] = kind
    child["problems"] = []
    if child["rc"] != 0:
        with open(os.path.join(out_dir, "stderr.txt")) as fh:
            child["problems"].append(f"{kind} exited {child['rc']}: {fh.read()[-500:]}")
        return child
    marks = child["marks"]
    window = ("train_start", "train_end") if kind == "train" else ("eval_start", "eval_end")
    if None in (marks.get(window[0]), marks.get(window[1])):
        child["problems"].append(f"{kind} window not recorded")
    else:
        child["window_s"] = marks[window[1]] - marks[window[0]]
    return child


def run_session(w, seed, inputs, sizes, session_dir, trace, env):
    """One repetition: train, then evaluate. Untraced sessions repeat each
    step as the workload says; traced ones run each once."""
    from hybridreid import TrainConfig

    train_runs, eval_runs = (1, 1) if trace else (w.train_runs, w.eval_runs)
    session = {"trace": trace, "children": []}
    checkpoint = inputs.get("checkpoint")
    for i in range(train_runs):
        out = os.path.join(session_dir, f"train{i}")
        child = run_checked("train", [
            "train", "--features", inputs["train"], "--out-dir", os.path.join(out, "run"),
            "--epochs", str(w.epochs), "--seed", str(seed), *w.train_flags],
            out, trace, env)
        session["children"].append(child)
        if child["problems"]:
            break
        child["problems"] += check_train(os.path.join(out, "run"), w.epochs,
                                         TrainConfig().num_identities_per_batch)
        child["train_samples_per_s"] = sizes["train"] * w.epochs / child["window_s"]
        checkpoint = inputs.get("checkpoint", os.path.join(out, "run", "checkpoint.ckpt"))
    for i in range(eval_runs if not any_problems(session) else 0):
        out = os.path.join(session_dir, f"evaluate{i}")
        child = run_checked("evaluate", [
            "evaluate", "--query", inputs["query"], "--gallery", inputs["gallery"],
            "--checkpoint", checkpoint, "--out-dir", os.path.join(out, "run")],
            out, trace, env)
        session["children"].append(child)
        if child["problems"]:
            break
        quality, problems = read_eval(os.path.join(out, "run"))
        child.update(quality)
        child["problems"] += problems
        child["eval_queries_per_s"] = sizes["query"] / child["window_s"]
    if trace and not any_problems(session):
        summaries = [c["trace"] for c in session["children"]]
        counts = merged_spans(summaries)
        missing = [s for s in REQUIRED_SPANS if counts.get(s, {}).get("count", 0) == 0]
        if missing:
            session["children"][-1]["problems"].append(f"no span recorded for {missing}")
        session["wall_s"] = sum(c["wall_s"] for c in session["children"])
        session["layers"], session["absent"] = layer_metrics(summaries)
        session["top_self"] = sorted(
            ((name, row["self_s"], row["count"]) for name, row in counts.items()),
            key=lambda r: -r[1])[:15]
    for child in session["children"]:
        child.pop("trace", None)
    return session


def any_problems(session):
    return any(c["problems"] for c in session["children"])


def merged_spans(summaries):
    out = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def layer_metrics(summaries):
    """Per-layer values for one traced session, and the metric names whose
    function no longer exists (reported as 0)."""
    spans = merged_spans(summaries)
    installed = set().union(*(s["installed"] for s in summaries))
    observations, peaks = {}, {}
    for summary in summaries:
        for name, rows in summary["observations"].items():
            observations.setdefault(name, []).extend(rows)
        for name, values in summary["peaks"].items():
            peaks.setdefault(name, []).extend(values)
    values, absent = {}, []
    for metric, (_, span, how) in PER_LAYER.items():
        if span not in installed:
            absent.append(metric)
            values[metric] = 0.0
            continue
        row = spans.get(span, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        if how in ("total", "self"):
            values[metric] = row[how + "_s"]
        elif how == "count":
            values[metric] = row["count"]
        elif how == "peak":
            values[metric] = max(peaks.get(span, [0])) / 2**20
        else:
            op, key = how.split(":")
            seen = [o[key] for o in observations.get(span, []) if key in o]
            reduce = {"sum": sum, "mean": lambda v: sum(v) / len(v)}[op]
            values[metric] = reduce(seen) if seen else 0.0
    return values, absent


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hybridreid", "__init__.py")):
        print(f"error: no hybridreid sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    env = child_env()
    # Same BLAS threading in this process, which writes the inputs.
    os.environ.update({var: env[var] for var in BLAS_ENV})
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, w, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, w, run_dir, env):
    inputs = make_inputs(w, args.seed, os.path.join(run_dir, "inputs"))
    sizes = {name: feature_count(inputs[name]) for name in ("train", "query")}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": environment(), "sizes": sizes,
        "inputs": {name: {"file": os.path.relpath(path, run_dir), "sha256": sha256(path)}
                   for name, path in inputs.items()},
        "sessions": [],
    }
    deadline = clock() + args.seconds
    durations = []
    # The traced run cycles untraced, traced, untraced, traced with peaks.
    min_sessions = 4 if args.trace else MIN_SESSIONS
    sessions = record["sessions"]
    while True:
        i = len(sessions)
        traced = 0 if not args.trace or i % 2 == 0 else (1 if i % 4 == 1 else 2)
        start = clock()
        sessions.append(run_session(w, args.seed, inputs, sizes,
                                    os.path.join(run_dir, f"session{i}"),
                                    traced, env))
        durations.append(clock() - start)
        if len(sessions) >= min_sessions and clock() + median(durations) > deadline:
            break
    evals = [c for s in sessions for c in s["children"]
             if c["kind"] == "evaluate" and not c["problems"]]
    for child in evals[1:]:
        if (child["map"], child["rank1"]) != (evals[0]["map"], evals[0]["rank1"]):
            child["problems"].append("map/rank1 differ from the first evaluation")
    failed = sum(1 for s in sessions if any_problems(s))
    ok = [s for s in sessions if not any_problems(s)]
    traced = [s for s in ok if s["trace"] == 1]
    with_peaks = [s for s in ok if s["trace"] == 2]
    samples = {}
    for s in ok:
        if s["trace"]:
            continue
        for child in s["children"]:
            for name in ("setup_s", "wall_s", "peak_rss_mb", "train_samples_per_s",
                         "eval_queries_per_s", "map", "rank1"):
                if name in child:
                    samples.setdefault(f"{child['kind']}.{name}", []).append(child[name])
    if failed:
        for i, s in enumerate(sessions):
            for child in s["children"]:
                if child["problems"]:
                    print(f"session {i} {child['kind']}: {child['problems']}", file=sys.stderr)
    if "train.wall_s" not in samples or "evaluate.wall_s" not in samples or (
            args.trace and not (traced and with_peaks)):
        print("error: no session succeeded", file=sys.stderr)
        return 1
    med = {name: median(values) for name, values in samples.items()}
    values = {
        "setup_s": med["train.setup_s"] + med["evaluate.setup_s"],
        "wall_s": med["train.wall_s"] + med["evaluate.wall_s"],
        "train_samples_per_s": med["train.train_samples_per_s"],
        "eval_queries_per_s": med["evaluate.eval_queries_per_s"],
        "peak_rss_mb": max(med["train.peak_rss_mb"], med["evaluate.peak_rss_mb"]),
        "map": med["evaluate.map"],
        "rank1": med["evaluate.rank1"],
    }
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    if args.trace:
        values = {name: median([s["layers"][name] for s in
                                (with_peaks if how == "peak" else traced)])
                  for name, (_, _, how) in PER_LAYER.items()}
        values[TRACE_OVERHEAD] = median([s["wall_s"] for s in traced]) - (
            med["train.wall_s"] + med["evaluate.wall_s"])
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units[TRACE_OVERHEAD] = "s"
        record["absent"] = sorted(set().union(*(s["absent"] for s in traced)))
        record["top_self"] = traced[-1]["top_self"]
    result = {
        "correct": failed == 0,
        "attempted": len(sessions),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record["samples"] = samples
    record["summary"] = {
        name: describe(v, END_TO_END[name.split(".")[1]][1]) for name, v in samples.items()}
    record["result"] = result
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"detailed record: {os.path.relpath(out, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
