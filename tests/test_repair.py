"""The in-memory run, ``pipeline.repair``, against the file run
``run_pipeline``, and ``failed_stage`` for a raise inside each stage."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    GroupedDataset,
    NumericalError,
    PipelineConfig,
    RunResult,
    ValidationError,
    fairness_report,
    lf_delta_report,
    pipeline,
    repair,
)
from otrelabel.pipeline import (
    STAGES,
    load_features_csv,
    load_votes_csv,
    run_pipeline,
    write_votes_csv,
)
from helpers import make_biased_fixture


def write_inputs(tmp_path, n_per_group=150, seed=8):
    """The biased fixture as a features CSV (with gold labels) and a votes
    CSV; returns their paths."""
    ds, wl = make_biased_fixture(n_per_group, seed=seed)
    features = tmp_path / "features.csv"
    features.write_text("f0,f1,group,label\n" + "".join(
        f"{x0!r},{x1!r},{g},{y}\n" for (x0, x1), g, y in zip(
            ds.features.tolist(), ds.groups.tolist(), ds.labels.tolist())))
    votes = str(tmp_path / "votes.csv")
    write_votes_csv(wl, votes)
    return str(features), votes


def run_values(run: RunResult) -> dict:
    """Every field of ``run`` as arrays and plain values, by name."""
    out = {}
    for f in fields(run):
        value = getattr(run, f.name)
        if f.name == "relabel" and value is not None:
            out["relabel.decisions"] = value.decisions
            out["relabel.changed_mask"] = value.changed_mask
            value = value.new_votes
        if f.name == "end_model":
            out["end_model.training_meta"] = value.training_meta
            value = value.coefficients
        out[f.name] = getattr(value, "votes", value)
    return out


def assert_same_run(a: RunResult, b: RunResult) -> None:
    va, vb = run_values(a), run_values(b)
    assert va.keys() == vb.keys()
    for name, value in va.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, vb[name]), name
        else:
            assert value == vb[name], name


# every run goes through to the end model
@pytest.mark.parametrize("ot_type, knn_k, passthrough", [
    ("linear", 1, False), ("sinkhorn", 5, False), ("linear", 1, True)],
    ids=["linear_k1-end", "sinkhorn_k5-end", "passthrough-end"])
def test_repair_reproduces_the_file_run(tmp_path, ot_type, knn_k,
                                        passthrough):
    features, votes = write_inputs(tmp_path)
    cfg = PipelineConfig(ot_type=ot_type, knn_k=knn_k, sinkhorn_eta=0.5)
    out = tmp_path / "out"
    manifest = run_pipeline(cfg, features, votes, str(out),
                            passthrough=passthrough)
    ds, wl = load_features_csv(features), load_votes_csv(votes)
    timings: dict = {}
    run = repair(ds, wl, cfg, passthrough, timings)
    assert list(timings) == list(STAGES[1:5])
    assert (run.relabel is None) == (run.group_acc is None) == passthrough

    repaired = load_votes_csv(str(out / "votes_repaired.csv"))
    assert np.array_equal(repaired.votes, run.repaired.votes)
    header, *rows = (out / "pseudolabels.csv").read_text().splitlines()
    assert header == "prob,label"
    probs = np.array([float(row.split(",")[0]) for row in rows])
    hard = np.array([int(row.split(",")[1]) for row in rows])
    assert np.array_equal(probs.view(np.int64), run.probs.view(np.int64))
    assert np.array_equal(hard, run.hard)
    expected = {
        "skipped": False,
        "per_lf": lf_delta_report(wl, run.repaired, ds),
        "pseudolabels": fairness_report(run.hard, ds.labels, ds.groups),
        "end_model": fairness_report(run.end_preds, ds.labels, ds.groups),
        "manifest_digest": manifest.digest()}
    assert json.loads((out / "fairness.json").read_text()) == json.loads(
        json.dumps(expected, default=lambda report: report.to_dict()))

    # gold labels change nothing: absent or negated, the run is the same
    for other in (ds.without_labels(),
                  GroupedDataset(ds.features, ds.groups, -ds.labels)):
        assert_same_run(run, repair(other, wl, cfg, passthrough))


def repair_or_error(ds, wl, cfg):
    """The arrays a run ends in, or the class of the error it raised."""
    try:
        run = repair(ds, wl, cfg)
    except (ValidationError, NumericalError) as exc:
        return type(exc)
    return run.repaired.votes, run.probs, run.hard, run.end_preds


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40),
       st.sampled_from(["none", "linear", "sinkhorn"]), st.sampled_from([1, 3]),
       st.integers(-12, 8))
def test_repair_does_not_depend_on_the_feature_units(seed, n, ot_type, knn_k,
                                                     k):
    # a power of 4 scales every square, sum, square root and quotient of the
    # features exactly, and the linear map's ridge scales with them
    ds, wl = make_biased_fixture(n, seed=seed)
    cfg = PipelineConfig(ot_type=ot_type, knn_k=knn_k)
    scaled = GroupedDataset(ds.features * 4.0 ** k, ds.groups, ds.labels)
    want, got = repair_or_error(ds, wl, cfg), repair_or_error(scaled, wl, cfg)
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("ot_type", ["none", "linear", "sinkhorn"])
def test_features_without_columns_move_nowhere(ot_type):
    # every distance is 0, so each moved row takes destination row 0's
    # votes; the linear fit used to index an empty eigenvalue list
    ds, wl = make_biased_fixture(20, seed=3)
    bare = GroupedDataset(np.zeros((ds.n, 0)), ds.groups, ds.labels)
    run = repair(bare, wl, PipelineConfig(ot_type=ot_type))
    want = repair(bare, wl, PipelineConfig(ot_type="none"))
    assert np.array_equal(run.repaired.votes, want.repaired.votes)


def test_linear_ridge_does_not_overflow_where_covariances_are_finite():
    # both variances near 1e308: their sum overflows, their mean does not,
    # so the run ends in the Monge map's own overflow check
    ds, wl = make_biased_fixture(50, seed=0)
    big = GroupedDataset(ds.features * 1e153, ds.groups, ds.labels)
    with pytest.raises(NumericalError,
                       match=r"S\^1/2 Sigma S\^1/2 overflows"):
        repair(big, wl, PipelineConfig(ot_type="linear"))


@pytest.mark.parametrize("name, stage", [
    ("sbm_transport", "transport"), ("train_end_model", "end_model"),
    ("lf_delta_report", "reports"), ("write_votes_csv", "reports")])
def test_failure_inside_a_stage_is_recorded_in_manifest(
        tmp_path, monkeypatch, name, stage):
    # a raise through any name the pipeline module resolves names the
    # stage it happened in; the stages before it keep their timings
    def broken(*args, **kwargs):
        raise RuntimeError(name)

    monkeypatch.setattr(pipeline, name, broken)
    features, votes = write_inputs(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=name):
        run_pipeline(PipelineConfig(ot_type="linear"), features, votes,
                     str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage
    assert set(manifest["stage_timings_ms"]) == set(
        STAGES[:STAGES.index(stage)])
