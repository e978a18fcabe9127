"""Golden artifacts: what ``run_pipeline`` writes for each benchmark
workload (``bench/workloads.py``) on seeds 1-3.

``tests/golden.json`` holds, for each run, the SHA-256 of
``votes_repaired.csv``, ``pseudolabels.csv`` and ``fairness.json``, and
the quality metrics the benchmark reads from ``fairness.json``, plus the
numpy and scipy versions it was made with.  ``tests/test_golden.py``
makes the same runs and names every entry that differs.  A change that
moves results rewrites the file, and without ``--write`` the script
prints the differences:

    python tests/golden.py --write

The name keeps pytest from collecting this file as a test module.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 2, 3)
ARTIFACTS = ("votes_repaired.csv", "pseudolabels.csv", "fairness.json")


def _workloads():
    """``bench/workloads.py``, loaded from its file: ``bench/`` is not a
    package.  Its dataclasses need it in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_entries(directory: Path) -> dict[str, dict]:
    """Every run's entries, keyed ``<workload>/seed<seed>``; the inputs
    and artifacts are written under ``directory``."""
    # imported here: run as a script, the package is found through the
    # path set below
    from otrelabel import PipelineConfig
    from otrelabel.pipeline import run_pipeline

    workloads = _workloads()
    runs = {}
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS:
            name = f"{w.name}/seed{seed}"
            inputs = workloads.write_inputs(w, seed, str(directory / name))
            out = directory / name / "out"
            run_pipeline(PipelineConfig(**w.config), inputs.features_path,
                         inputs.votes_path, str(out),
                         passthrough=w.passthrough)
            entry = {artifact: hashlib.sha256(
                (out / artifact).read_bytes()).hexdigest()
                for artifact in ARTIFACTS}
            # read as bench/run_bench.py reads them
            fairness = json.loads((out / "fairness.json").read_text())
            entry |= {
                "pseudo_acc": fairness["pseudolabels"]["accuracy"],
                "pseudo_dp_gap": fairness["pseudolabels"]["dp_gap"],
                "end_acc": fairness["end_model"]["accuracy"],
                "repaired_lf_acc": fairness["per_lf"][0]["after"]["accuracy"],
            }
            runs[name] = entry
    return runs


def differences(recorded: dict, runs: dict[str, dict]) -> list[str]:
    """One line per entry of ``recorded["runs"]`` that ``runs`` does not
    repeat, or per run only one of them has; then, if any differ, the
    versions both were made with."""
    lines = [f"{name}: run missing from golden.json"
             for name in runs.keys() - recorded["runs"].keys()]
    for name, entries in sorted(recorded["runs"].items()):
        if name not in runs:
            lines.append(f"{name}: recorded, but not run")
            continue
        lines += [f"{name} {key}: recorded {value!r}, got {runs[name][key]!r}"
                  for key, value in entries.items()
                  if runs[name].get(key) != value]
    if lines and recorded["versions"] != versions():
        lines.append(f"golden.json was made with {recorded['versions']}; "
                     f"installed are {versions()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden.json from fresh runs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_entries(Path(tmp))
    if args.write:
        GOLDEN.write_text(json.dumps({"versions": versions(), "runs": runs},
                                     indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(runs)} runs to {GOLDEN}")
        return 0
    lines = differences(json.loads(GOLDEN.read_text()), runs)
    print("\n".join(lines) or f"all {len(runs)} runs match {GOLDEN}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
