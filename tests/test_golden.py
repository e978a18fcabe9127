"""Every benchmark workload, on seeds 1-3, writes the artifacts recorded
in ``tests/golden.json`` (see ``tests/golden.py``, which rewrites it)."""

import json

import golden


def test_runs_repeat_the_golden_artifacts(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    runs = golden.run_entries(tmp_path)
    lines = golden.differences(recorded, runs)
    assert not lines, "\n".join(
        ["these entries differ from tests/golden.json:"] + lines)
