import json

import numpy as np
import pytest

from otrelabel import PipelineConfig
from otrelabel.cli import main
from otrelabel.pipeline import parse_config_text, write_votes_csv
from helpers import make_biased_fixture
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
    assert "empty group 1" in capsys.readouterr().out


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


def test_validate_missing_file_is_input_error(tmp_path):
    assert main(["validate", "--features", str(tmp_path / "nope.csv"),
                 "--votes", str(tmp_path / "nope2.csv")]) == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["run", "--features"])  # missing value and required flags
    assert err.value.code == 1


def test_run_writes_artifacts(tmp_path, capsys):
    _, _, features, votes = write_fixture(tmp_path, 60, seed=2)
    out = tmp_path / "out"
    code = main(["run", "--features", features, "--votes", votes,
                 "--out", str(out), "--ot-type", "linear",
                 "--end-model", "off"])
    assert code == 0
    for name in ("votes_repaired.csv", "pseudolabels.csv",
                 "fairness.json", "manifest.json"):
        assert (out / name).exists()
    fairness = json.loads((out / "fairness.json").read_text())
    assert fairness["end_model"] is None


def test_run_config_file_with_flag_override(tmp_path):
    _, _, features, votes = write_fixture(tmp_path, 60, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ot_type=linear\nknn_k=3\nend_model=off\n")
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
    "sinkhorn_max_iter": 20, "sinkhorn_tol": 1e-6, "covariance_ridge": 1e-3,
    "transport_scope": "global", "class_balance": 0.4, "tie_tol": 0.05,
    "end_model": False, "l2": 1e-3,
}


def test_every_config_field_parses_from_file_and_flag(tmp_path):
    defaults = PipelineConfig().to_dict()
    assert NON_DEFAULT_CONFIG.keys() == defaults.keys()
    for key, value in NON_DEFAULT_CONFIG.items():
        assert value != defaults[key], key
    text = {key: ("on" if value else "off") if isinstance(value, bool)
            else str(value) for key, value in NON_DEFAULT_CONFIG.items()}
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
        argv = ["theory", "--out", str(afile / "t"), "--shifts", "0,1000",
                "--shift-n", "100", "--lipschitz-trials", "100",
                "--map-sizes", "100,800", "--map-holdout", "200"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {afile}")
    assert "Traceback" not in err


def test_theory_verb_writes_bundle(tmp_path, capsys):
    code = main(["theory", "--out", str(tmp_path),
                 "--shifts", "0,5,1000", "--shift-n", "3000",
                 "--lipschitz-trials", "3000",
                 "--map-sizes", "100,800", "--map-holdout", "2000"])
    assert code == 0
    bundle = json.loads((tmp_path / "theory_report.json").read_text())
    assert bundle["passed"] is True
    out = capsys.readouterr().out
    assert "shift_limit: ok" in out


def test_theory_verb_failure_exit_code(tmp_path):
    # a sweep stopping at a moderate shift cannot reach the 0.02 band
    code = main(["theory", "--out", str(tmp_path),
                 "--shifts", "0,5,20", "--shift-n", "2000",
                 "--lipschitz-trials", "1000",
                 "--map-sizes", "100,800", "--map-holdout", "1000"])
    assert code == 3
    bundle = json.loads((tmp_path / "theory_report.json").read_text())
    assert bundle["shift_limit"]["passed"] is False


@pytest.mark.parametrize("flag", ["--shifts=", "--shifts=inf",
                                  "--shifts=0,nan", "--map-sizes="])
def test_theory_rejects_lists_it_cannot_check(tmp_path, capsys, flag):
    out = tmp_path / "t"
    code = main(["theory", "--out", str(out), "--shift-n", "100",
                 "--lipschitz-trials", "100", "--map-sizes", "100,800",
                 "--map-holdout", "200", flag])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    assert not out.exists()
