#!/usr/bin/env python3
"""Benchmark of ``otrelabel.pipeline.run_pipeline`` on seeded CSV inputs.

Run from the repository root:

    python3 bench/run_bench.py --workload linear_k1 --seed 1 --seconds 15 --trace 0

The benchmark writes the workload's features and votes CSVs (from
``--seed``) under ``.bench_work/``, then calls ``run_pipeline`` in a
closed loop: one client, one run at a time, in this one process.  The
library receives only the CSV paths.  Every run's artifacts are checked;
a run that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: median over 3 set-ups of input generation, CSV writing and
  one untimed warm-up run;
* ``run_s``: median wall time of the untraced runs made in ``--seconds``;
* ``peak_mb``: tracemalloc peak of one more run, outside the timed runs;
* ``pseudo_acc``, ``pseudo_dp_gap``, ``end_acc`` and ``repaired_lf_acc``
  (``lf_0``'s accuracy after repair), read from ``fairness.json``.  They
  are deterministic for a seed and move only when results change;
* ``success_rate``: runs that passed every check over runs attempted.

``--trace 1`` alternates untraced and traced runs for ``--seconds`` and
reports the per-layer metrics: spans recorded around the library's
public functions (``SITES``), the manifest's stage timings,
work counts, and ``trace_overhead_s``, the traced minus the untraced
median run time.  Counts marked "computed" (``COMPUTED``) are derived
from input sizes and repeat exactly on every run.

Which end-to-end metric each layer should move, and on which workload:

* pipeline (CSV ingest, writing) and estimate (moment matrices, triplet
  aggregation): ``run_s`` on passthrough_wide;
* core (validation, called twice per transported run): ``run_s`` on
  linear_k1;
* transport (kNN relabel): ``run_s`` on linear_k1 and sinkhorn_k5;
* ot (Monge map, Sinkhorn plan): ``run_s`` and ``peak_mb`` on
  sinkhorn_k5;
* labelmodel (posterior, end model): ``run_s`` on every workload, most on
  passthrough_wide;
* metrics (fairness reports): ``run_s`` on passthrough_wide.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads it.  One thread
# keeps run times independent of the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import platform
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy

import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
ARTIFACTS = ("votes_repaired.csv", "pseudolabels.csv", "fairness.json")
# Exact counts derived from input sizes, not measured; they repeat on
# every run of a workload and seed.
COMPUTED = ("pipeline.csv_bytes", "estimate.triplets",
            "transport.knn_distance_evals", "ot.sinkhorn.dense_bytes")
# manifest stage -> per-layer metric
STAGE_METRICS = {
    "ingest": "pipeline.ingest_ms",
    "estimate": "estimate.stage_ms",
    "transport": "transport.stage_ms",
    "label_model": "labelmodel.stage_ms",
    "end_model": "labelmodel.end_model_ms",
    "reports": "pipeline.reports_ms",
}


def import_library() -> dict:
    """The otrelabel modules from this checkout's ``src``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "otrelabel", "__init__.py")):
        raise SystemExit(f"bench: {SRC}/otrelabel is missing; run the "
                         "benchmark from a full checkout")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"otrelabel.{name}") for name in
            ("core", "estimate", "labelmodel", "metrics", "pipeline",
             "transport")}
    if not os.path.abspath(mods["pipeline"].__file__).startswith(SRC):
        raise SystemExit("bench: otrelabel was not imported from src/")
    return mods


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Session:
    """Makes every ``run_pipeline`` call on one workload's inputs and
    checks its artifacts; counts attempted and failed runs."""

    def __init__(self, lib: dict, w: workloads.Workload, work: str):
        self.lib = lib
        self.w = w
        self.cfg = lib["core"].PipelineConfig(**w.config)
        self.out_dir = os.path.join(work, "out")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs = None
        self.reference = None  # artifact digests of the first good run
        self.fairness = None
        self.last_manifest = None

    def run(self, call=None, trace_memory: bool = False):
        """One run; its wall seconds, or None when it failed."""
        call = call or self.lib["pipeline"].run_pipeline
        self.attempted += 1
        gc.collect()
        if trace_memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            manifest = call(self.cfg, self.inputs.features_path,
                            self.inputs.votes_path, self.out_dir,
                            passthrough=self.w.passthrough)
        except Exception as exc:  # a failed run is counted, not fatal
            manifest = None
            problems = [f"run_pipeline raised {exc!r}"]
        elapsed = time.perf_counter() - start
        if trace_memory:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if manifest is not None:
            try:
                problems = self.check(manifest)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"artifact check failed: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        self.last_manifest = manifest
        return elapsed

    def check(self, manifest) -> list[str]:
        problems = []
        digests = {name: sha256(os.path.join(self.out_dir, name))
                   for name in ARTIFACTS}
        with open(os.path.join(self.out_dir, "fairness.json")) as fh:
            fairness = json.load(fh)
        with open(os.path.join(self.out_dir, "manifest.json")) as fh:
            on_disk = json.load(fh)
        if not (fairness.get("manifest_digest") == on_disk["digest"]
                == manifest.digest()):
            problems.append("fairness.json manifest_digest differs from "
                            "the manifest's digest")
        if self.reference is None:
            problems += self.check_content(fairness)
            if not problems:
                self.reference = digests
                self.fairness = fairness
        elif digests != self.reference:
            changed = [n for n in ARTIFACTS
                       if digests[n] != self.reference[n]]
            problems.append(f"artifacts differ from the first run: {changed}")
        return problems

    def check_content(self, fairness: dict) -> list[str]:
        """Checks of the first run's artifacts against the inputs; later
        runs must reproduce these artifacts byte for byte."""
        problems = []
        inputs = self.inputs
        repaired = read_csv(os.path.join(self.out_dir, "votes_repaired.csv"))
        if repaired.shape != inputs.votes.shape:
            return [f"votes_repaired.csv has shape {repaired.shape}"]
        changed = repaired != inputs.votes
        by_group = [changed[inputs.groups == k] for k in (0, 1)]
        both = np.flatnonzero(by_group[0].any(axis=0)
                              & by_group[1].any(axis=0))
        if both.size:
            problems.append(f"LFs {both.tolist()} changed votes in both "
                            "groups; the destination group must be unchanged")
        if self.w.passthrough:
            if changed.any():
                problems.append("passthrough run changed votes")
        elif by_group[0][:, 0].any() or not by_group[1][:, 0].any():
            problems.append("lf_0 was not moved from group 1 to group 0")

        pseudo = read_csv(os.path.join(self.out_dir, "pseudolabels.csv"))
        labels = pseudo[:, 1].astype(np.int64)
        if pseudo.shape[0] != inputs.labels.shape[0]:
            problems.append(f"pseudolabels.csv has {pseudo.shape[0]} rows")
        elif not np.array_equal(labels, np.where(pseudo[:, 0] >= 0.5, 1, -1)):
            problems.append("pseudolabels disagree with their probabilities")
        elif float((labels == inputs.labels).mean()) \
                != fairness["pseudolabels"]["accuracy"]:
            problems.append("fairness.json pseudolabel accuracy does not "
                            "match pseudolabels.csv")
        if fairness["end_model"] is None:
            problems.append("fairness.json has no end-model report")
        return problems


def count_knn(counts, args, result):
    counts["transport.knn_queries"] += len(args[0])
    counts["transport.knn_distance_evals"] += len(args[0]) * len(args[1])


def count_triplets(counts, args, result):
    records = result[1]
    counts["estimate.triplets"] += len(records)
    counts["estimate.degenerate_triplets"] += sum(r.degenerate for r in records)


def count_sinkhorn(counts, args, result):
    counts["ot.sinkhorn.iterations"] += result.iterations_run
    counts["ot.sinkhorn.converged"] += int(result.converged)
    counts["ot.sinkhorn.dense_bytes"] += result.T.shape[0] * result.T.shape[1] * 8


def count_transport(counts, args, result):
    m = args[1].m
    counts["transport.directions"] += len(
        {(d.src_group, d.dst_group) for d in result.decisions if not d.skipped})
    counts["transport.lfs_skipped"] += sum(
        m if d.lf_index == "all" else 1
        for d in result.decisions if d.skipped)
    counts["transport.votes_changed"] += int(result.changed_mask.sum())


def count_epochs(counts, args, result):
    counts["labelmodel.epochs"] += result.training_meta["iterations"]


COUNTERS = ("estimate.triplets", "estimate.degenerate_triplets",
            "transport.knn_queries", "transport.knn_distance_evals",
            "transport.directions", "transport.lfs_skipped",
            "transport.votes_changed", "ot.sinkhorn.iterations",
            "ot.sinkhorn.converged", "ot.sinkhorn.dense_bytes",
            "labelmodel.epochs")

# (module, attribute its caller resolves, span name, counting hook).  A
# function called from two modules is wrapped in both, under one name.
SITES = (
    ("pipeline", "load_features_csv", "pipeline.load_features_csv", None),
    ("pipeline", "load_votes_csv", "pipeline.load_votes_csv", None),
    ("pipeline", "write_votes_csv", "pipeline.write_votes_csv", None),
    ("pipeline", "validate_dataset", "core.validate_dataset", None),
    ("transport", "validate_dataset", "core.validate_dataset", None),
    ("pipeline", "per_group_accuracies", "estimate.per_group_accuracies",
     None),
    ("pipeline", "triplet_accuracies", "estimate.triplet_accuracies", None),
    ("estimate", "triplet_accuracies", "estimate.triplet_accuracies", None),
    ("estimate", "moment_matrix", "estimate.moment_matrix", None),
    ("estimate", "accuracies_from_moments",
     "estimate.accuracies_from_moments", count_triplets),
    ("pipeline", "sbm_transport", "transport.sbm_transport",
     count_transport),
    ("transport", "knn_transfer", "transport.knn_transfer", count_knn),
    ("transport", "fit_moments", "ot.fit_moments", None),
    ("transport", "linear_monge", "ot.linear_monge", None),
    ("transport", "apply_monge", "ot.apply_monge", None),
    ("transport", "sinkhorn_plan", "ot.sinkhorn_plan", count_sinkhorn),
    ("transport", "barycentric_map", "ot.barycentric_map", None),
    ("pipeline", "fit_label_model", "labelmodel.fit_label_model", None),
    ("pipeline", "infer_pseudolabels", "labelmodel.infer_pseudolabels", None),
    ("pipeline", "train_end_model", "labelmodel.train_end_model",
     count_epochs),
    ("pipeline", "predict", "labelmodel.predict", None),
    ("pipeline", "lf_delta_report", "metrics.lf_delta_report", None),
    ("pipeline", "fairness_report", "metrics.fairness_report", None),
    ("metrics", "fairness_report", "metrics.fairness_report", None),
)


def instrument(tracer: Tracer, lib: dict) -> list[str]:
    """Wrap every function in SITES; returns the ones the library lacks."""
    return [f"otrelabel.{mod}.{attr}" for mod, attr, name, hook in SITES
            if not tracer.install(lib[mod], attr, name, hook)]


def layer_values(tracer: Tracer, manifest, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced run."""
    totals = tracer.totals()
    out = {name: 0.0 for name in COUNTERS}
    out.update(tracer.counts)
    for name in {site[2] for site in SITES} | {"pipeline.run_pipeline"}:
        row = totals.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    for stage, name in STAGE_METRICS.items():
        out[name] = manifest.stage_timings_ms.get(stage, 0.0)
    out["pipeline.csv_bytes"] = csv_bytes
    triplets = out["estimate.triplets"]
    out["estimate.useful_triplet_ratio"] = (
        1.0 - out["estimate.degenerate_triplets"] / triplets
        if triplets else 0.0)
    queries = out["transport.knn_queries"]
    out["transport.votes_changed_ratio"] = (
        out["transport.votes_changed"] / queries if queries else 0.0)
    epochs = out["labelmodel.epochs"]
    out["labelmodel.epoch_ms"] = (
        out["labelmodel.train_end_model.ms"] / epochs if epochs else 0.0)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n={len(values)}")


def set_up(session: Session, seed: int, work: str) -> list[float]:
    """Generate and write the inputs, then make one warm-up run; repeated
    SETUP_REPEATS times.  The first warm-up run's artifacts become the
    reference every later run must reproduce."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        session.inputs = workloads.write_inputs(
            session.w, seed, os.path.join(work, "inputs"))
        if session.run() is None:
            break
        times.append(time.perf_counter() - start)
    return times


def measure(session: Session, lib: dict, seconds: float, trace: bool,
            csv_bytes: int, work: str) -> dict:
    """Closed loop of untraced runs, alternating with traced runs when
    ``trace`` is set, until ``seconds`` have passed; then, untraced
    only, one run under tracemalloc."""
    tracer = Tracer()
    traced_call = tracer.wrap("pipeline.run_pipeline",
                              lib["pipeline"].run_pipeline)
    untraced, traced, layers, missing = [], [], [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not untraced
           or (trace and not traced)):
        if trace and len(traced) < len(untraced):
            tracer.reset()
            missing = instrument(tracer, lib)
            try:
                elapsed = session.run(traced_call)
            finally:
                tracer.restore()
            if elapsed is None:
                break
            traced.append(elapsed)
            layers.append(layer_values(
                tracer, session.last_manifest, csv_bytes))
        else:
            elapsed = session.run()
            if elapsed is None:
                break
            untraced.append(elapsed)

    values = {}
    if untraced:
        values["run_s"] = statistics.median(untraced)
        print("run_s untraced", summary(untraced))
        print("  samples", " ".join(f"{x:.4f}" for x in untraced))
    if trace and traced and untraced:
        print("run_s traced", summary(traced))
        if missing:
            print("not traced, missing:", ", ".join(missing))
        for name in layers[0]:
            values[name] = statistics.median(row[name] for row in layers)
        values["trace_overhead_s"] = (
            statistics.median(traced) - values["run_s"])
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump({"env": environment(), "spans": tracer.to_json()}, fh)
    elif (not trace and untraced
          and session.run(trace_memory=True) is not None):
        values["peak_mb"] = session.peak_bytes / 2 ** 20
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lib = import_library()
    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", w.name)
    shutil.rmtree(work, ignore_errors=True)
    print("env", json.dumps(environment(), sort_keys=True))
    print("workload", w.name, json.dumps(
        {"rows": 2 * w.rows_per_group, "d": w.d, "m": w.m,
         "passthrough": w.passthrough, "config": w.config}, sort_keys=True))

    session = Session(lib, w, work)
    setup_s = set_up(session, args.seed, work)
    values: dict[str, float] = {}
    if session.fairness is not None:
        csv_bytes = sum(os.path.getsize(p) for p in (
            session.inputs.features_path, session.inputs.votes_path))
        values = measure(session, lib, args.seconds, bool(args.trace),
                         csv_bytes, work)
        fairness = session.fairness
        print("setup_s", summary(setup_s))
        values.update({
            "setup_s": statistics.median(setup_s),
            "pseudo_acc": fairness["pseudolabels"]["accuracy"],
            "pseudo_dp_gap": fairness["pseudolabels"]["dp_gap"],
            "end_acc": fairness["end_model"]["accuracy"],
            "repaired_lf_acc": fairness["per_lf"][0]["after"]["accuracy"],
        })
    values["success_rate"] = (
        (session.attempted - session.failed) / session.attempted)
    for problem in session.problems:
        print("CHECK FAILED:", problem)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in values:
            if session.failed:
                continue  # a failed run left it unmeasured
            print(f"bench: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": unit}
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {values[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
