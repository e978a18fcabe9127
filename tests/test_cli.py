import argparse
import hashlib
import json
import os
import re
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from otrelabel import (
    GroupedDataset, PipelineConfig, WeakLabelMatrix, pipeline, synthetic,
    transport)
from otrelabel.cli import build_parser, main
from otrelabel.pipeline import (
    load_votes_csv,
    parse_config_text,
    write_votes_csv,
)
from helpers import (
    adult_features, knn_oracle, make_adult_table, make_biased_fixture)
from test_pipeline import write_features_csv, write_fixture


def test_validate_ok(tmp_path, capsys):
    _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
    assert main(["validate", "--features", features, "--votes", votes]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_problems(tmp_path, capsys):
    ds, wl = make_biased_fixture(10, seed=1)
    features = str(tmp_path / "f.csv")
    bad = ds.__class__(ds.features, np.zeros(ds.n, int), ds.labels)
    write_features_csv(features, bad)
    votes = str(tmp_path / "v.csv")
    write_votes_csv(wl, votes)
    assert main(["validate", "--features", features, "--votes", votes]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["input error: empty group 1"]
    assert captured.out == ""


def test_validate_lists_every_bad_cell(tmp_path, capsys):
    ds, wl = make_biased_fixture(10, seed=1)
    features = tmp_path / "f.csv"
    write_features_csv(str(features), ds)
    lines = features.read_text().splitlines()
    for r, col, bad in ((2, 0, "abc"), (5, 2, "7"), (9, 3, "0")):
        cells = lines[r - 1].split(",")
        cells[col] = bad
        lines[r - 1] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")
    votes = str(tmp_path / "v.csv")
    write_votes_csv(wl, votes)
    assert main(["validate", "--features", str(features),
                 "--votes", votes]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {features}: row 2, column 'f0': "
        "non-numeric value 'abc'",
        f"{features}: row 5: unknown group value '7'",
        f"{features}: row 9: label must be -1 or 1, got '0'",
    ]


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "quoted"])
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_non_finite_features_are_named_one_line_each(tmp_path, capsys, verb,
                                                     plain):
    # nan, inf and 1e999 parse as floats; the loader names each cell at
    # its file row and column
    ds, wl = make_biased_fixture(10, seed=1)
    features = tmp_path / "f.csv"
    write_features_csv(str(features), ds)
    lines = features.read_text().splitlines()
    for r, col, bad in ((2, 0, "nan"), (5, 1, "inf"), (9, 0, "1e999")):
        cells = lines[r - 1].split(",")
        cells[col] = bad
        lines[r - 1] = ",".join(cells)
    if not plain:
        lines = [",".join(f'"{cell}"' for cell in line.split(","))
                 for line in lines]
    features.write_text("\n".join(lines) + "\n")
    votes = str(tmp_path / "v.csv")
    write_votes_csv(wl, votes)
    argv = [verb, "--features", str(features), "--votes", votes]
    assert main(argv + (["--out", str(tmp_path / "out")]
                        if verb == "run" else [])) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"input error: {features}: row 2, column 'f0': non-finite value nan",
        f"{features}: row 5, column 'f1': non-finite value inf",
        f"{features}: row 9, column 'f0': non-finite value inf",
    ]
    assert captured.out == ""


def test_validate_missing_file_is_input_error(tmp_path):
    assert main(["validate", "--features", str(tmp_path / "nope.csv"),
                 "--votes", str(tmp_path / "nope2.csv")]) == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["run", "--features"])  # missing value and required flags
    assert err.value.code == 1


def test_each_verb_has_exactly_its_listed_flags(capsys):
    # adding a flag to a verb is a deliberate edit of this table
    config = {"--" + f.name.replace("_", "-") for f in fields(PipelineConfig)}
    expected = {
        "run": config | {"--features", "--votes", "--out", "--group-col",
                         "--label-col", "--passthrough", "--config"},
        "theory": {"--out"},
        "lf-bank": {"--bank", "--raw", "--out", "--category-map"},
        "validate": {"--features", "--votes", "--group-col", "--label-col"},
    }
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert {verb: {flag for a in p._actions
                   if not isinstance(a, argparse._HelpAction)
                   for flag in a.option_strings}
            for verb, p in verbs.items()} == expected
    with pytest.raises(SystemExit) as err:
        main(["theory", "--shift-n", "10"])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: otrelabel")


def test_run_writes_artifacts(tmp_path, capsys):
    _, _, features, votes = write_fixture(tmp_path, 60, seed=2)
    out = tmp_path / "out"
    code = main(["run", "--features", features, "--votes", votes,
                 "--out", str(out), "--ot-type", "linear"])
    assert code == 0
    for name in ("votes_repaired.csv", "pseudolabels.csv",
                 "fairness.json", "manifest.json"):
        assert (out / name).exists()
    fairness = json.loads((out / "fairness.json").read_text())
    assert "accuracy" in fairness["end_model"]


def test_run_config_file_with_flag_override(tmp_path):
    _, _, features, votes = write_fixture(tmp_path, 60, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ot_type=linear\nknn_k=3\n")
    out = tmp_path / "out"
    code = main(["run", "--features", features, "--votes", votes,
                 "--out", str(out), "--config", str(cfg),
                 "--knn-k", "1"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ot_type"] == "linear"
    assert manifest["config"]["knn_k"] == 1  # flag beats file


def test_run_unknown_config_key_is_input_error(tmp_path):
    _, _, features, votes = write_fixture(tmp_path, 30, seed=4)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("otype=linear\n")
    assert main(["run", "--features", features, "--votes", votes,
                 "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1


@pytest.mark.parametrize("text,message", [
    ("knn_k=three", "config line 1: bad value 'three' for knn_k"),
    ("knn_k=3\not_type linear", "config line 2: expected key=value"),
    ("sinkhorn_eta=0", "sinkhorn_eta must be positive"),
    ("sinkhorn_eta=-0.5", "sinkhorn_eta must be positive"),
    ("sinkhorn_tol=0", "config line 1: unknown key 'sinkhorn_tol'"),
    ("class_balance=0.4", "config line 1: unknown key 'class_balance'"),
    ("l2=1e-3", "config line 1: unknown key 'l2'"),
    ("covariance_ridge=1e-3", "config line 1: unknown key 'covariance_ridge'"),
    ("tie_tol=-0.1", "tie_tol must be nonnegative"),
    ("transport_scope=global", "config line 1: unknown key 'transport_scope'"),
    ("end_model=off", "config line 1: unknown key 'end_model'"),
])
def test_bad_config_file_is_one_input_error_line(tmp_path, capsys, text,
                                                 message):
    _, _, features, votes = write_fixture(tmp_path, 30, seed=4)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "o"
    assert main(["run", "--features", features, "--votes", votes,
                 "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


# the linear map's ridge follows the features' variance, each LF takes
# the direction of its own estimates, every run trains the end model, and
# a run takes the Sinkhorn tolerance, class prior and L2 penalty from the
# defaults of sinkhorn_plan, fit_label_model and train_end_model
@pytest.mark.parametrize("flag, value", [
    ("--covariance-ridge", "1e-3"), ("--transport-scope", "global"),
    ("--end-model", "off"), ("--sinkhorn-tol", "1e-6"),
    ("--class-balance", "0.4"), ("--l2", "1e-3")])
def test_removed_config_flags_are_usage_errors(tmp_path, capsys, flag, value):
    _, _, features, votes = write_fixture(tmp_path, 30, seed=4)
    with pytest.raises(SystemExit) as err:
        main(["run", "--features", features, "--votes", votes, "--out",
              str(tmp_path / "o"), flag, value])
    assert err.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in \
        capsys.readouterr().err


def test_run_bad_flag_value_names_the_flag(tmp_path, capsys):
    _, _, features, votes = write_fixture(tmp_path, 30, seed=4)
    assert main(["run", "--features", features, "--votes", votes,
                 "--out", str(tmp_path / "o"), "--knn-k", "one"]) == 1
    err = capsys.readouterr().err
    assert "--knn-k: bad value 'one'" in err
    assert "config line" not in err


# one non-default value per PipelineConfig field
NON_DEFAULT_CONFIG = {
    "ot_type": "sinkhorn", "knn_k": 3, "sinkhorn_eta": 0.5,
    "sinkhorn_max_iter": 20, "tie_tol": 0.05,
}


def test_every_config_field_parses_from_file_and_flag(tmp_path):
    defaults = PipelineConfig().to_dict()
    assert NON_DEFAULT_CONFIG.keys() == defaults.keys()
    for key, value in NON_DEFAULT_CONFIG.items():
        assert value != defaults[key], key
    text = {key: str(value) for key, value in NON_DEFAULT_CONFIG.items()}
    parsed = parse_config_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    assert PipelineConfig(**parsed).to_dict() == NON_DEFAULT_CONFIG

    _, _, features, votes = write_fixture(tmp_path, 60, seed=5)
    out = tmp_path / "out"
    argv = ["run", "--features", features, "--votes", votes, "--out", str(out)]
    for key, value in text.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == NON_DEFAULT_CONFIG


def test_readme_config_keys_are_the_config_fields():
    # the README's "Keys:" sentence lists the keys by hand; it must name
    # exactly PipelineConfig's fields, and each must be a run flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme[readme.index("Keys: "):].split(" — ", 1)[0]
    names = [f.name for f in fields(PipelineConfig)]
    assert re.findall(r"`(\w+)`", sentence) == names
    run = ["run", "--features", "f", "--votes", "v", "--out", "o"]
    for name in names:
        args = build_parser().parse_args(
            run + ["--" + name.replace("_", "-"), "x"])
        assert getattr(args, name) == "x", name


def test_run_numerical_failure_exit_code(tmp_path, capsys):
    # lf_2's pairwise moments vanish inside each group, so every triplet
    # degenerates and accuracy estimation aborts numerically
    f = tmp_path / "f.csv"
    f.write_text("f1,group\n0.0,0\n0.1,0\n1.0,1\n1.1,1\n")
    v = tmp_path / "v.csv"
    v.write_text("lf_0,lf_1,lf_2\n1,1,1\n1,1,-1\n-1,-1,1\n-1,-1,-1\n")
    code = main(["run", "--features", str(f), "--votes", str(v),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "estimate"
    assert "group 0:" in capsys.readouterr().err


def write_run_inputs(tmp_path, ds, votes):
    """The run flags for ``ds`` and ``votes`` written as the two CSVs."""
    features = str(tmp_path / "f.csv")
    write_features_csv(features, ds)
    votes_path = str(tmp_path / "v.csv")
    write_votes_csv(WeakLabelMatrix(votes), votes_path)
    return ["run", "--features", features, "--votes", votes_path,
            "--out", str(tmp_path / "out")]


def test_run_repairs_lf_negated_on_one_group(tmp_path, capsys):
    # group 1 is group 0's rows shifted by a constant vector, with lf_0
    # negated on it: lf_0's moments with every other LF cancel over the
    # whole sample, so only the per-group estimates of the input votes are
    # defined, and they are all the run needs to pick the direction
    rng = np.random.default_rng(3)
    n = 200
    x0 = rng.normal(size=(n, 2))
    y0 = np.where(x0[:, 0] + x0[:, 1] > 0, 1, -1)
    votes0 = np.column_stack(
        [np.where(x0[:, 0] > 0, 1, -1)]
        + [np.where(rng.random(n) < p, -y0, y0) for p in (0.1, 0.2, 0.3)])
    votes1 = votes0.copy()
    votes1[:, 0] *= -1
    ds = GroupedDataset(np.vstack([x0, x0 + [4.0, -2.5]]),
                        np.repeat([0, 1], n), np.concatenate([y0, y0]))
    argv = write_run_inputs(tmp_path, ds, np.vstack([votes0, votes1]))

    assert main(argv + ["--ot-type", "linear"]) == 0
    repaired = load_votes_csv(str(tmp_path / "out" / "votes_repaired.csv"))
    assert np.array_equal(repaired.votes[n:, 0], votes0[:, 0])
    assert np.array_equal(repaired.votes[:n], votes0)

    # without the repair the label model estimates the input votes
    assert main(argv + ["--passthrough"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "label_model"
    assert capsys.readouterr().err.endswith(
        "every triplet containing lf 0 is degenerate\n")


def silent_lf_run(tmp_path, labelled):
    """Run flags for two groups of noisy copies of y where lf_3 abstains
    on every group-1 row, with its votes."""
    rng = np.random.default_rng(4)
    n = 200
    x = rng.normal(size=(2 * n, 2))
    y = np.where(x[:, 0] + x[:, 1] > 0, 1, -1)
    votes = np.column_stack([np.where(rng.random(2 * n) < p, -y, y)
                             for p in (0.1, 0.2, 0.25, 0.3)])
    groups = np.repeat([0, 1], n)
    votes[groups == 1, 3] = 0
    ds = GroupedDataset(x, groups, y if labelled else None)
    return write_run_inputs(tmp_path, ds, votes), votes


@pytest.mark.parametrize("labelled", [False, True])
def test_passthrough_runs_with_lf_silent_on_one_group(tmp_path, labelled):
    # lf_3 has no group-1 estimate, but a passthrough run reads only the
    # whole-sample one
    argv, votes = silent_lf_run(tmp_path, labelled)
    assert main(argv + ["--passthrough"]) == 0
    repaired = load_votes_csv(str(tmp_path / "out" / "votes_repaired.csv"))
    assert np.array_equal(repaired.votes, votes)
    if labelled:
        # its group-1 rates, over zero rows, are null; parsed as strict
        # JSON, where a NaN or Infinity token fails the test
        fairness = json.loads((tmp_path / "out" / "fairness.json").read_text(),
                              parse_constant=pytest.fail)
        lf_3 = fairness["per_lf"][3]
        for report in (lf_3["before"], lf_3["after"]):
            assert report["per_group_accuracy"][1] is None
            assert report["positive_rate_per_group"][1] is None
            assert report["dp_gap"] is None and report["eo_gap"] is None
            assert report["per_group_accuracy"][0] is not None
        assert lf_3["delta"]["dp_gap"] is None


def test_transport_needs_every_lf_estimated_in_both_groups(tmp_path, capsys):
    argv, _ = silent_lf_run(tmp_path, labelled=True)
    assert main(argv + ["--ot-type", "linear"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "estimate"
    assert capsys.readouterr().err == (
        "numerical failure: group 1: every triplet containing lf 3 is "
        "degenerate\n")


def run_scaled_fixture(tmp_path, scale, ot_type):
    """Exit code of a run on the biased fixture's features times
    ``scale``; every input stays finite."""
    ds, wl = make_biased_fixture(150, seed=0)
    features = str(tmp_path / "f.csv")
    write_features_csv(features, ds.__class__(ds.features * scale, ds.groups,
                                              ds.labels))
    votes = str(tmp_path / "v.csv")
    write_votes_csv(wl, votes)
    return main(["run", "--features", features, "--votes", votes,
                 "--out", str(tmp_path / "out"), "--ot-type", ot_type])


def test_monge_product_overflow_is_a_numerical_failure(tmp_path, capsys):
    # covariances near 1e200 are finite, but S^1/2 Sigma S^1/2 is not:
    # eigh used to raise LinAlgError through the CLI as a traceback
    assert run_scaled_fixture(tmp_path, 1e100, "linear") == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: lf_0: the Monge map's "
                          "S^1/2 Sigma S^1/2 overflows float64 at covariance "
                          "scale ")
    assert "e+200; rescale the features" in err
    assert "Traceback" not in err


def test_covariance_overflow_is_a_numerical_failure(tmp_path, capsys):
    assert run_scaled_fixture(tmp_path, 1e160, "linear") == 2
    assert capsys.readouterr().err == ("numerical failure: lf_0: covariance "
                                       "overflows float64; rescale the "
                                       "features\n")


def test_sinkhorn_distance_overflow_names_the_feature_scale(tmp_path,
                                                            capsys):
    # the features are finite but their squared distances are not; the
    # run used to blame the cost matrix as if an input were bad
    assert run_scaled_fixture(tmp_path, 1e155, "sinkhorn") == 2
    err = capsys.readouterr().err
    biggest = float(np.abs(make_biased_fixture(150, seed=0)[0].features).max()
                    * 1e155)
    assert err == ("numerical failure: lf_0: squared feature distances "
                   f"overflow float64 (largest |feature| {biggest:.3e}); "
                   "rescale the features\n")


def test_untransported_run_refuses_overflowing_distances(tmp_path, capsys):
    # without the refusal every overflowed distance ties, and the kNN scan
    # gives each moved row destination row 0's votes
    assert run_scaled_fixture(tmp_path, 1e155, "none") == 2
    biggest = float(np.abs(make_biased_fixture(150, seed=0)[0].features).max()
                    * 1e155)
    assert capsys.readouterr().err == (
        "numerical failure: lf_0: squared feature distances overflow float64 "
        f"(largest |feature| {biggest:.3e}); rescale the features\n")
    assert not (tmp_path / "out" / "votes_repaired.csv").exists()


def test_untransported_run_takes_large_finite_distances(tmp_path):
    assert run_scaled_fixture(tmp_path, 1e150, "none") == 0
    assert (tmp_path / "out" / "votes_repaired.csv").exists()


def test_lf_bank_materializes_votes(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "age,workclass,education,marital-status,occupation,relationship,"
        "race,capital-gain,native-country\n"
        "40,Private,Masters,Never-married,Sales,Wife,White,6000,Japan\n"
        "20,Private,HS-grad,Never-married,Adm-clerical,Not-in-family,"
        "White,0,United-States\n")
    out = tmp_path / "votes.csv"
    assert main(["lf-bank", "--bank", "adult-v1", "--raw", str(raw),
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(f"lf_{j}" for j in range(9))
    assert rows[1].split(",")[4] == "1"   # capital-gain 6000
    assert rows[2].split(",")[0] == "-1"  # age 20


def test_lf_bank_category_map(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "age,workclass,education,marital-status,occupation,relationship,"
        "race,capital-gain,native-country\n"
        "40,Private,HS-grad,Never-married,professional,Not-in-family,"
        "White,0,United-States\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(
        {"occupation": {"professional": "Prof-specialty"}}))
    out = tmp_path / "votes.csv"
    assert main(["lf-bank", "--bank", "adult-v1", "--raw", str(raw),
                 "--out", str(out), "--category-map", str(mapping)]) == 0
    assert out.read_text().splitlines()[1].split(",")[8] == "1"


def write_adult_raw(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "age,workclass,education,marital-status,occupation,"
        "relationship,race,capital-gain,native-country\n"
        "40,Private,HS-grad,Never-married,Sales,Not-in-family,"
        "White,0,United-States\n")
    return raw


@pytest.mark.parametrize("case,content", [
    ("missing_config", None),
    ("missing_category_map", None),
    ("category_map_bad_json", "{bad"),
    ("category_map_list", '["occupation"]'),
    ("category_map_flat", '{"occupation": "x"}'),
])
def test_unreadable_input_files_are_input_errors(tmp_path, capsys, case,
                                                 content):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    if case == "missing_config":
        _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
        argv = ["run", "--features", features, "--votes", votes,
                "--out", str(tmp_path / "out"), "--config", str(path)]
    else:
        raw = write_adult_raw(tmp_path)
        argv = ["lf-bank", "--bank", "adult-v1", "--raw", str(raw),
                "--out", str(tmp_path / "votes.csv"),
                "--category-map", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("verb", ["lf-bank", "run", "theory"])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, verb):
    afile = tmp_path / "afile"
    afile.write_text("")
    if verb == "lf-bank":
        argv = ["lf-bank", "--bank", "adult-v1",
                "--raw", str(write_adult_raw(tmp_path)),
                "--out", str(afile / "x.csv")]
    elif verb == "run":
        _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
        argv = ["run", "--features", features, "--votes", votes,
                "--out", str(afile / "out")]
    else:
        argv = ["theory", "--out", str(afile / "t")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {afile}")
    assert "Traceback" not in err


def test_theory_verb_writes_bundle(tmp_path, capsys):
    code = main(["theory", "--out", str(tmp_path)])
    assert code == 0
    bundle = json.loads((tmp_path / "theory_report.json").read_text())
    assert bundle["passed"] is True
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "shift_limit: ok", "lipschitz: ok", "map_error_bound: ok"]


def test_theory_verb_failure_exit_code(tmp_path, monkeypatch):
    # a sweep stopping at a moderate shift cannot reach the 0.02 band
    monkeypatch.setattr(synthetic, "SHIFTS", (0.0, 5.0, 20.0))
    code = main(["theory", "--out", str(tmp_path)])
    assert code == 3
    bundle = json.loads((tmp_path / "theory_report.json").read_text())
    assert bundle["shift_limit"]["passed"] is False


@pytest.mark.parametrize("verb", ["run", "validate", "lf-bank", "config"])
def test_non_utf8_input_is_one_line_input_error(tmp_path, capsys, verb):
    # one input per case: features, votes, a raw table and a config file
    _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
    raw = str(write_adult_raw(tmp_path))
    config = tmp_path / "run.cfg"
    config.write_text("ot_type=linear\nknn_k=3\n")
    bad = {"run": features, "validate": votes, "lf-bank": raw,
           "config": str(config)}[verb]
    with open(bad, "rb") as fh:
        data = fh.read()
    offset = data.index(b"\n") + 2
    with open(bad, "wb") as fh:
        fh.write(data[:offset] + b"\xff" + data[offset:])
    argv = {"run": ["run", "--features", features, "--votes", votes,
                    "--out", str(tmp_path / "out")],
            "validate": ["validate", "--features", features, "--votes", votes],
            "lf-bank": ["lf-bank", "--bank", "adult-v1", "--raw", raw,
                        "--out", str(tmp_path / "v.csv")],
            "config": ["run", "--features", features, "--votes", votes,
                       "--out", str(tmp_path / "out"),
                       "--config", str(config)]}[verb]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"input error: {bad}: byte {offset} (0xff) is not UTF-8: "
        "invalid start byte\n")


@pytest.mark.parametrize("role", ["features", "votes"])
def test_non_utf8_header_is_one_line_input_error(tmp_path, capsys, role):
    # an ASCII body passes the plain reader's byte check, and the header's
    # bad byte sends the file to the exact pass, which names it
    _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
    bad = {"features": features, "votes": votes}[role]
    data = Path(bad).read_bytes()
    Path(bad).write_bytes(data[:1] + b"\xfe" + data[1:])
    assert main(["validate", "--features", features, "--votes", votes]) == 1
    assert capsys.readouterr().err == (
        f"input error: {bad}: byte 1 (0xfe) is not UTF-8: "
        "invalid start byte\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("role", ["features", "votes", "config",
                                  "category-map"])
def test_piped_input_is_not_a_regular_file(tmp_path, capsys, role):
    # every input is read more than once, and a pipe yields its bytes once
    _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
    raw = str(write_adult_raw(tmp_path))
    data = {"features": Path(features).read_bytes(),
            "votes": Path(votes).read_bytes(),
            "config": b"ot_type=linear\n", "category-map": b"{}"}[role]
    assert len(data) < 1 << 16  # the writer never waits for a reader
    read_fd, write_fd = os.pipe()

    def feed():
        os.write(write_fd, data)
        os.close(write_fd)  # a reader that reads sees the end, not a hang

    writer = threading.Thread(target=feed)
    writer.start()
    pipe = f"/dev/fd/{read_fd}"
    inputs = {"features": features, "votes": votes, role: pipe}
    argv = ["run", "--features", inputs["features"], "--votes",
            inputs["votes"], "--out", str(tmp_path / "out")]
    if role == "config":
        argv += ["--config", pipe]
    elif role == "category-map":
        argv = ["lf-bank", "--bank", "adult-v1", "--raw", raw,
                "--out", str(tmp_path / "v.csv"), "--category-map", pipe]
    try:
        code = main(argv)
    finally:
        writer.join()
        os.close(read_fd)
    assert code == 1
    assert capsys.readouterr().err == (
        f"input error: {pipe}: not a regular file\n")


def test_manifest_digests_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    # the features file is rewritten after its load: the manifest still
    # describes the bytes the run read, not the file as it is afterwards
    _, _, features, votes = write_fixture(tmp_path, 30, seed=0)
    original = Path(features).read_bytes()
    load_votes = pipeline.load_votes_csv

    def rewrite_features_then_load(path, **kwargs):
        Path(features).write_bytes(original.replace(b"\n", b"\r\n"))
        return load_votes(path, **kwargs)

    monkeypatch.setattr(pipeline, "load_votes_csv", rewrite_features_then_load)
    assert main(["run", "--features", features, "--votes", votes,
                 "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["input_digests"] == {
        "features": hashlib.sha256(original).hexdigest(),
        "votes": hashlib.sha256(Path(votes).read_bytes()).hexdigest()}


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "quoted"])
@pytest.mark.parametrize("text, repeated", [
    ("x0,x0,group,label\n1.0,10.0,0,1\n2.0,20.0,1,-1\n", "'x0'"),
    ("x0,group,x1,group\n1.0,0,2.0,0\n3.0,1,4.0,1\n", "'group'"),
    ("label,x0,group,label,x0\n1,1.0,0,1,2.0\n-1,3.0,1,-1,4.0\n",
     "'label', 'x0'"),
], ids=["feature", "group", "label-and-feature"])
def test_repeated_features_header_name_is_input_error(tmp_path, capsys,
                                                      plain, text, repeated):
    # a repeated name would read one of its columns and drop the others;
    # plain files take numpy's reader, quoted ones the exact pass
    if not plain:
        text = "\n".join(",".join(f'"{cell}"' for cell in line.split(","))
                         for line in text.splitlines()) + "\n"
    features = tmp_path / "f.csv"
    features.write_text(text)
    votes = tmp_path / "v.csv"
    votes.write_text("lf_0\n1\n-1\n")
    assert main(["validate", "--features", str(features),
                 "--votes", str(votes)]) == 1
    assert capsys.readouterr().err == (
        f"input error: {features}: duplicate column names {repeated}\n")


def first_row_knn_oracle(X_query, X_dst, votes_dst):
    """``knn_oracle`` at k = 1 over distinct rows only.  Equal query rows
    get equal votes, and of equal destination rows the first is nearer
    than the rest under the lower-index rule, so the oracle over each
    distinct destination row's first copy, in row order, is the same."""
    first = np.sort(np.unique(X_dst, axis=0, return_index=True)[1])
    uniq, inv = np.unique(X_query, axis=0, return_inverse=True)
    return knn_oracle(uniq, X_dst[first], votes_dst[first], 1)[inv.ravel()]


ARTIFACTS = ("votes_repaired.csv", "pseudolabels.csv", "fairness.json")


def test_census_shaped_categorical_inputs_run_end_to_end(tmp_path):
    # an adult-shaped raw table through lf-bank, then every ot_type on
    # one-hot plus numeric features: heavy distance ties, and covariances
    # that only the ridge keeps invertible
    table, groups, labels = make_adult_table(1000, seed=5)
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(",".join(row) + "\n" for row in [
        list(table), *zip(*table.values())]))
    votes = str(tmp_path / "votes.csv")
    assert main(["lf-bank", "--bank", "adult-v1", "--raw", str(raw),
                 "--out", votes]) == 0
    X = adult_features(table)
    ds, wl = GroupedDataset(X, groups, labels), load_votes_csv(votes)
    for scale in (1, 1024, 1 / 1024):
        write_features_csv(str(tmp_path / f"f{scale}.csv"),
                           GroupedDataset(X * scale, groups, labels))

    def run(ot_type, out, scale=1):
        assert main(["run", "--features", str(tmp_path / f"f{scale}.csv"),
                     "--votes", votes, "--out", str(tmp_path / out),
                     "--ot-type", ot_type]) == 0
        return {name: (tmp_path / out / name).read_bytes()
                for name in ARTIFACTS}

    artifacts = {}
    for ot_type in ("none", "linear", "sinkhorn"):
        artifacts[ot_type] = run(ot_type, ot_type)
        assert run(ot_type, ot_type + "_again") == artifacts[ot_type]
        cfg = PipelineConfig(ot_type=ot_type)
        expected = pipeline.repair(ds, wl, cfg)
        repaired = load_votes_csv(
            str(tmp_path / ot_type / "votes_repaired.csv")).votes
        assert np.array_equal(repaired, expected.repaired.votes)
        moved = [d for d in expected.relabel.decisions if not d.skipped]
        assert moved
        for d in expected.relabel.decisions:
            # a skipped LF keeps every vote, a moved one its destination's
            kept = groups == d.dst_group if not d.skipped else slice(None)
            assert np.array_equal(repaired[kept, d.lf_index],
                                  wl.votes[kept, d.lf_index])
        if ot_type == "sinkhorn":
            continue
        for d in moved:
            src, dst = groups == d.src_group, groups == d.dst_group
            X_src = transport._transported_sources(X[src], X[dst], cfg)
            assert np.array_equal(
                repaired[src, d.lf_index],
                first_row_knn_oracle(X_src, X[dst], wl.votes[dst, d.lf_index]))
    # the linear map's ridge follows the features' units
    for scale in (1024, 1 / 1024):
        scaled = run("linear", f"linear_{scale}", scale)
        for name in ("votes_repaired.csv", "pseudolabels.csv"):
            assert scaled[name] == artifacts["linear"][name]
