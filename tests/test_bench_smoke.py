"""The benchmark runs against this checkout's ``src`` and its traced hooks
still find the library's functions and records."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# traced sites that transport no longer imports: it reads the Sinkhorn
# projection through ot._sinkhorn_projection instead
KNOWN_MISSING = {"otrelabel.transport.sinkhorn_plan",
                 "otrelabel.transport.barycentric_map"}


def test_traced_bench_run_is_correct_and_traces_every_live_site(tmp_path):
    # a copy, so the run's .bench_work/ lands in tmp_path, not the checkout
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "sinkhorn_k5",
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    missing = set()
    for line in lines:
        if line.startswith("not traced, missing:"):
            missing |= set(line.split(":", 1)[1].replace(",", " ").split())
    assert missing <= KNOWN_MISSING
