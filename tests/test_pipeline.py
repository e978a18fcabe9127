import codecs
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    NumericalError,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
)
from otrelabel import core, estimate, ot, pipeline
from otrelabel.lfbank import apply_lf_bank, builtin_bank
from otrelabel.pipeline import (
    MAX_CELL_ERRORS,
    load_features_csv,
    load_votes_csv,
    parse_config_text,
    read_raw_csv,
    run_pipeline,
    write_theory_artifacts,
    write_votes_csv,
)
from otrelabel.synthetic import run_theory_suite
from helpers import (
    ORACLE_BANKS,
    lf_bank_oracle,
    load_features_oracle,
    load_votes_oracle,
    make_biased_fixture,
)


def write_features_csv(path, ds, include_labels=True, newline="\n"):
    lines = []
    cols = [f"f{i}" for i in range(ds.d)] + ["group"]
    if include_labels and ds.labels is not None:
        cols.append("label")
    lines.append(",".join(cols))
    for r in range(ds.n):
        row = [repr(float(v)) for v in ds.features[r]]
        row.append(str(int(ds.groups[r])))
        if include_labels and ds.labels is not None:
            row.append(str(int(ds.labels[r])))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def write_fixture(tmp_path, n_per_group=400, seed=0, include_labels=True):
    ds, wl = make_biased_fixture(n_per_group, seed=seed)
    features = str(tmp_path / "features.csv")
    votes = str(tmp_path / "votes.csv")
    write_features_csv(features, ds, include_labels=include_labels)
    write_votes_csv(wl, votes)
    return ds, wl, features, votes


# --------------------------------------------------------------------------
# csv ingestion


def test_load_features_three_rows(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f1,f2,group,label\n1.0,2.0,0,1\n3.5,-1.0,1,-1\n0,0,0,1\n")
    ds = load_features_csv(str(p))
    assert ds.features.shape == (3, 2)
    assert ds.features[1, 0] == 3.5
    assert ds.groups.tolist() == [0, 1, 0]
    assert ds.labels.tolist() == [1, -1, 1]


def test_load_features_unknown_group_names_row(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f1,group\n1.0,0\n2.0,2\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_features_csv(str(p))


def test_load_features_non_numeric_cell_located(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f1,group\n1.0,0\noops,1\n")
    with pytest.raises(ValidationError, match="row 3.*f1"):
        load_features_csv(str(p))


def test_crlf_and_lf_parse_identically(tmp_path):
    ds, _ = make_biased_fixture(20, seed=1)
    lf_path, crlf_path = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_features_csv(str(lf_path), ds, newline="\n")
    write_features_csv(str(crlf_path), ds, newline="\r\n")
    a = load_features_csv(str(lf_path))
    b = load_features_csv(str(crlf_path))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.labels, b.labels)


def test_load_features_without_label_column(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f1,group\n1.0,0\n2.0,1\n")
    assert load_features_csv(str(p)).labels is None


def test_votes_header_enforced(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("a,b\n1,-1\n")
    with pytest.raises(ValidationError, match="lf_0"):
        load_votes_csv(str(p))


def test_votes_value_checked(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("lf_0,lf_1\n1,-1\n2,0\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_votes_csv(str(p))


def test_votes_roundtrip(tmp_path):
    _, wl = make_biased_fixture(15, seed=2)
    p = str(tmp_path / "v.csv")
    write_votes_csv(wl, p)
    assert np.array_equal(load_votes_csv(p).votes, wl.votes)


def test_votes_written_byte_identical_to_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (7, 1), (1, 5), (40, 6)]:
        votes = rng.integers(-1, 2, size=shape)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow([f"lf_{j}" for j in range(shape[1])])
        writer.writerows(votes.tolist())
        p = tmp_path / "v.csv"
        write_votes_csv(WeakLabelMatrix(votes), str(p))
        assert p.read_bytes() == expected.getvalue().encode()


def test_votes_writer_rejects_illegal_votes(tmp_path):
    with pytest.raises(ValidationError, match="illegal vote value 2"):
        write_votes_csv(WeakLabelMatrix(np.array([[1, 2]])),
                        str(tmp_path / "v.csv"))


@pytest.mark.parametrize("bom, eol", [(b"", b"\n"), (codecs.BOM_UTF8, b"\r\n")])
def test_plain_files_skip_the_cell_loop(tmp_path, monkeypatch, bom, eol):
    ds, wl, features, votes = write_fixture(tmp_path, 20, seed=3)
    for path in (features, votes):
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(bom + data.replace(b"\n", eol))

    def no_cell_loop(*args):
        raise AssertionError("plain file went to the exact pass")

    monkeypatch.setattr(pipeline, "_read_rows", no_cell_loop)
    assert np.array_equal(load_votes_csv(votes).votes, wl.votes)
    loaded = load_features_csv(features)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.groups, ds.groups)
    assert np.array_equal(loaded.labels, ds.labels)


@pytest.mark.parametrize("data, votes", [
    (b"lf_0,lf_1\n-1,0\n1,-1\n", [[-1, 0], [1, -1]]),  # first cell -1
    (b"lf_0\n-1\n0\n1\n", [[-1], [0], [1]]),  # m = 1
    (b"lf_0,lf_1,lf_2\n0,1,-1\n-1,-1,0", [[0, 1, -1], [-1, -1, 0]]),
    (b"lf_0,lf_1\r\n1,-1\r\n-1,1\r\n", [[1, -1], [-1, 1]]),
    (codecs.BOM_UTF8 + b"lf_0,lf_1\n0,-1\n", [[0, -1]]),
], ids=["first-cell-minus-one", "one-lf", "no-final-newline", "crlf", "bom"])
def test_canonical_files_never_reach_the_exact_pass(tmp_path, monkeypatch,
                                                    data, votes):
    # the exact pass returns the same values, so only this catches a
    # canonical file that falls back to it
    def exact_pass(*args):
        raise AssertionError("canonical file went to the exact pass")

    ds, wl, features, written = write_fixture(tmp_path, 20, seed=5)
    monkeypatch.setattr(pipeline, "_read_rows", exact_pass)
    monkeypatch.setattr(pipeline, "_parse_cells", exact_pass)
    p = tmp_path / "v.csv"
    p.write_bytes(data)
    assert load_votes_csv(str(p)).votes.tolist() == votes
    assert wl.votes.min() == -1 and wl.votes[0, 0] == -1
    assert np.array_equal(load_votes_csv(written).votes, wl.votes)
    loaded = load_features_csv(features)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.groups, ds.groups)
    assert np.array_equal(loaded.labels, ds.labels)


@pytest.mark.parametrize("text", [
    "\n1\n0\n", "\n\n", "lf_0\n\n", "lf_0\n", "lf_0", "lf_0\r1\r0\r",
    "lf_0,lf_1\r1,0\n0,1\n", "lf_0\n1\n\n", "lf_0\n \n", "\ufefflf_0\n1\n",
])
def test_framing_edge_cases_match_cell_oracle(tmp_path, text):
    p = tmp_path / "v.csv"
    p.write_bytes(text.encode("utf-8"))
    assert_same_outcome(load_votes_csv, load_votes_oracle, str(p), ["votes"])


def test_bom_quoted_and_padded_cells_read_like_plain_ones(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("f1,group,label\n1.5,0,1\n-2,1,-1\n")
    odd = tmp_path / "odd.csv"
    odd.write_bytes(codecs.BOM_UTF8 + b'f1 , group,label\r\n'
                    b'"1.5",0 , +1\r\n -2,"1",-1\r\n')
    a, b = load_features_csv(str(plain)), load_features_csv(str(odd))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.labels, b.labels)
    votes = tmp_path / "v.csv"
    votes.write_bytes(codecs.BOM_UTF8 + b'lf_0,lf_1\r\n"-1", +1\r\n0\t,1\r\n')
    assert load_votes_csv(str(votes)).votes.tolist() == [[-1, 1], [0, 1]]


def test_every_bad_cell_reported_on_its_own_line(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f1,f2,group,label\n1.0,oops,0,1\n2.0,3.0,2,-1\n"
                 "x,4.0,1,0\n")
    with pytest.raises(ValidationError) as err:
        load_features_csv(str(p))
    assert str(err.value).split("\n") == [
        f"{p}: row 2, column 'f2': non-numeric value 'oops'",
        f"{p}: row 3: unknown group value '2'",
        f"{p}: row 4, column 'f1': non-numeric value 'x'",
        f"{p}: row 4: label must be -1 or 1, got '0'",
    ]


def test_bad_cells_past_the_cap_are_counted(tmp_path):
    p = tmp_path / "v.csv"
    n_bad = MAX_CELL_ERRORS + 5
    p.write_text("lf_0,lf_1\n" + "2,0\n" * n_bad + "1,1\n")
    with pytest.raises(ValidationError) as err:
        load_votes_csv(str(p))
    lines = str(err.value).split("\n")
    assert len(lines) == MAX_CELL_ERRORS + 1
    assert lines[0] == f"{p}: row 2, lf_0: illegal vote '2'"
    assert lines[-2] == f"{p}: row {MAX_CELL_ERRORS + 1}, lf_0: illegal vote '2'"
    assert lines[-1] == "... and 5 more bad cells"


# Cell spellings the loaders must read exactly as the cell-by-cell oracles
# do: canonical ones, ones only the exact pass accepts (padding, quotes,
# "+1"), ones numpy reads more loosely than the oracle ("-0", "01") and
# ones only Python's float accepts ("1_0", full-width digits).
_ODD_TOKENS = ["+1", " 1", "-1 ", "\t0", "0\x0b", "\x1c1", "-0", "+0", "00",
               "01", "1.0", "1e0", "1_0", "\uff11", "\xa01", '"1"', '"-1"',
               '" 0"', "", " ", "2", "-2", "nan", "-nan", "inf", "-Infinity",
               "1,", '"0,1"', "abc", "#1"]
_VOTE_TOKENS = ["-1", "0", "1"]
_FEATURE_TOKENS = ["0.5", "-1.25", "3", "1e5", "-0.0", "12345678.9"]
_GROUP_TOKENS = ["0", "1"]
_LABEL_TOKENS = ["-1", "1"]


@st.composite
def csv_files(draw, header, column_tokens):
    """Bytes of a CSV whose cells come from ``column_tokens`` with up to
    three cells replaced by odd spellings, in varied framing."""
    n = draw(st.integers(0, 6))
    rows = [[draw(st.sampled_from(tokens)) for tokens in column_tokens]
            for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, len(header) - 1))
        rows[r][c] = draw(st.sampled_from(_ODD_TOKENS))
    if n and draw(st.integers(0, 3)) == 0:  # ragged row
        r = draw(st.integers(0, n - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    lines = [[draw(st.sampled_from([name, f" {name}", f'"{name}"']))
              for name in header]] + rows
    if draw(st.integers(0, 9)) == 0:  # blank line, possibly before the header
        lines.insert(draw(st.integers(0, len(lines))), [])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    breaks = [eol] * len(lines)
    if draw(st.integers(0, 9)) == 0:  # one lone carriage return
        breaks[draw(st.integers(0, len(lines) - 1))] = "\r"
    text = "".join(",".join(line) + end for line, end in zip(lines, breaks))
    if not draw(st.booleans()):
        text = text[:-len(breaks[-1])]
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def assert_same_outcome(load, oracle, path, fields):
    try:
        expected = oracle(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            load(path)
        assert str(err.value).split("\n")[0] == str(exc)
        return
    got = load(path)
    for name in fields:
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit-equal, NaN signs included


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 4), data=st.data())
def test_votes_loader_matches_cell_oracle(tmp_path_factory, m, data):
    header = [f"lf_{j}" for j in range(m)]
    p = tmp_path_factory.mktemp("votes") / "v.csv"
    p.write_bytes(data.draw(csv_files(header, [_VOTE_TOKENS] * m)))
    assert_same_outcome(load_votes_csv, load_votes_oracle, str(p), ["votes"])


@settings(max_examples=300, deadline=None)
@given(with_labels=st.booleans(), data=st.data())
def test_features_loader_matches_cell_oracle(tmp_path_factory, with_labels,
                                             data):
    columns = {"x0": _FEATURE_TOKENS, "x1": _FEATURE_TOKENS,
               "group": _GROUP_TOKENS}
    if with_labels:
        columns["label"] = _LABEL_TOKENS
    header = data.draw(st.permutations(list(columns)))
    p = tmp_path_factory.mktemp("features") / "f.csv"
    p.write_bytes(data.draw(
        csv_files(header, [columns[name] for name in header])))
    assert_same_outcome(load_features_csv, load_features_oracle, str(p),
                        ["features", "groups", "labels"])


# --------------------------------------------------------------------------
# config parsing


def test_config_text_roundtrip():
    text = """
    # transport settings
    ot_type = linear
    knn_k = 3
    sinkhorn_eta = 0.5
    end_model = off
    """
    kwargs = parse_config_text(text)
    cfg = PipelineConfig(**kwargs)
    assert cfg.ot_type == "linear"
    assert cfg.knn_k == 3
    assert cfg.sinkhorn_eta == 0.5
    assert cfg.end_model is False


def test_config_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config_text("ot_type=linear\nfoo=1\n")


@pytest.mark.parametrize("line", ["lr=0.1", "epochs=500"])
def test_removed_end_model_keys_are_unknown(line):
    # the end model is solved to its optimum: no step size or epoch count
    with pytest.raises(ValidationError, match="config line 2: unknown key"):
        parse_config_text(f"ot_type=linear\n{line}\n")


def test_config_bad_value_rejected():
    with pytest.raises(ValidationError, match="bad value"):
        parse_config_text("knn_k=one\n")


# --------------------------------------------------------------------------
# LF banks


ADULT_COLUMNS = {
    "age": "40", "workclass": "Private", "education": "HS-grad",
    "marital-status": "Never-married", "occupation": "Adm-clerical",
    "relationship": "Not-in-family", "race": "White",
    "capital-gain": "0", "native-country": "United-States",
}


def adult_table(**overrides):
    row = dict(ADULT_COLUMNS)
    row.update(overrides)
    return {k: [v] for k, v in row.items()}


def test_adult_capital_gain_rule():
    wl = apply_lf_bank(adult_table(**{"capital-gain": "6000"}),
                       builtin_bank("adult-v1"))
    assert wl.votes[0, 4] == 1  # capital LF fires above 5000
    wl = apply_lf_bank(adult_table(**{"capital-gain": "5000"}),
                       builtin_bank("adult-v1"))
    assert wl.votes[0, 4] == -1


def test_adult_age_rule():
    wl = apply_lf_bank(adult_table(age="20"), builtin_bank("adult-v1"))
    assert wl.votes[0, 0] == -1
    wl = apply_lf_bank(adult_table(age="30"), builtin_bank("adult-v1"))
    assert wl.votes[0, 0] == 1


def test_adult_categorical_rules():
    wl = apply_lf_bank(
        adult_table(education="Masters", relationship="Wife",
                    workclass="State-gov", occupation="Sales",
                    **{"marital-status": "Married-civ-spouse",
                       "native-country": "Japan",
                       "race": "Asian-Pac-Islander"}),
        builtin_bank("adult-v1"))
    assert wl.votes[0].tolist() == [1, 1, 1, 1, -1, 1, 1, 1, 1]


def test_category_map_translates_spellings():
    table = adult_table(occupation="professional")
    plain = apply_lf_bank(table, builtin_bank("adult-v1"))
    assert plain.votes[0, 8] == -1
    mapped = apply_lf_bank(
        table, builtin_bank("adult-v1"),
        category_map={"occupation": {"professional": "Prof-specialty"}})
    assert mapped.votes[0, 8] == 1


def test_bank_marketing_rules():
    table = {
        "housing": ["no", "yes"], "loan": ["no", "no"],
        "previous": ["0", "2"], "duration": ["100", "400"],
        "marital": ["married", "single"], "poutcome": ["failure", "success"],
        "education": ["basic.4y", "university.degree"],
    }
    wl = apply_lf_bank(table, builtin_bank("bank-v1"))
    assert wl.votes[0].tolist() == [-1, -1, -1, -1, -1, -1]
    assert wl.votes[1].tolist() == [1, 1, 1, 1, 1, 1]


def test_empty_rule_list_rejected():
    with pytest.raises(ValidationError):
        apply_lf_bank(adult_table(), [])


def test_missing_column_named():
    table = adult_table()
    del table["education"]
    with pytest.raises(ValidationError, match="education"):
        apply_lf_bank(table, builtin_bank("adult-v1"))


def test_type_mismatch_in_comparison():
    with pytest.raises(ValidationError, match="age"):
        apply_lf_bank(adult_table(age="forty"), builtin_bank("adult-v1"))


def test_unknown_bank_rejected():
    with pytest.raises(ValidationError):
        builtin_bank("adult-v2")


def test_bank_rules_are_pure_row_functions():
    rng = np.random.default_rng(21)
    ages = [str(a) for a in rng.integers(18, 80, size=25)]
    gains = [str(g) for g in rng.choice([0, 600, 6000, 12000], size=25)]
    base = {k: v * 25 for k, v in
            ((k, [v]) for k, v in ADULT_COLUMNS.items())}
    base["age"] = ages
    base["capital-gain"] = gains
    votes = apply_lf_bank(base, builtin_bank("adult-v1")).votes
    perm = rng.permutation(25)
    shuffled = {k: [col[i] for i in perm] for k, col in base.items()}
    votes_shuffled = apply_lf_bank(shuffled, builtin_bank("adult-v1")).votes
    assert np.array_equal(votes_shuffled, votes[perm])


def test_fewer_than_three_rules_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="otrelabel"):
        apply_lf_bank(adult_table(), [builtin_bank("adult-v1")[0]])
    assert any("3" in rec.message for rec in caplog.records)


def test_columns_of_unequal_length_rejected():
    table = adult_table()
    table["race"] = ["White", "White"]
    with pytest.raises(ValidationError,
                       match="column 'race' has 2 values, expected 1"):
        apply_lf_bank(table, builtin_bank("adult-v1"))


def test_bad_cells_listed_row_major_then_rule_order():
    base = {k: [v] * 3 for k, v in ADULT_COLUMNS.items()}
    base["age"] = ["forty", "40", "x"]
    base["capital-gain"] = ["0", "lots", "y"]
    with pytest.raises(ValidationError) as exc:
        apply_lf_bank(base, builtin_bank("adult-v1"))
    message = "cannot compare non-numeric value"
    assert str(exc.value).splitlines() == [
        f"rule 'age', row 2: column 'age': {message} 'forty'",
        f"rule 'capital', row 3: column 'capital-gain': {message} 'lots'",
        f"rule 'age', row 4: column 'age': {message} 'x'",
        f"rule 'capital', row 4: column 'capital-gain': {message} 'y'",
    ]


def test_bad_cells_past_the_limit_are_counted():
    base = {k: [v] * 30 for k, v in ADULT_COLUMNS.items()}
    base["age"] = ["?"] * 30
    with pytest.raises(ValidationError) as exc:
        apply_lf_bank(base, builtin_bank("adult-v1"))
    lines = str(exc.value).splitlines()
    assert len(lines) == MAX_CELL_ERRORS + 1
    assert lines[-1] == f"... and {30 - MAX_CELL_ERRORS} more bad cells"


@pytest.mark.parametrize("category_map", [
    ["occupation"], {"occupation": "x"}, {"occupation": {"a": 1}}])
def test_malformed_category_map_rejected(category_map):
    with pytest.raises(ValidationError, match="category map"):
        apply_lf_bank(adult_table(), builtin_bank("adult-v1"), category_map)


# cells around every threshold of both banks, float spellings Python reads
# but a careless parser might not, and cells no float parse accepts
NUMBER_CELLS = [
    "30", "29.999", "60", "60.0001", "5000", "5000.0",
    repr(float(np.nextafter(5000.0, np.inf))), "1.1",
    repr(float(np.nextafter(1.1, np.inf))),
    repr(float(np.nextafter(1.1, -np.inf))), "360", "361", "0", "-0.0",
    "inf", "-inf", "nan", " 7", "1e4", "1_000"]
BAD_NUMBER_CELLS = ["forty", "", "1,0", "0x10"]


def bank_spellings(name):
    return sorted({s for _, *tests in builtin_bank(name)
                   for _, spec in tests if isinstance(spec, frozenset)
                   for s in spec})


@st.composite
def bank_inputs(draw):
    """A bank name, a raw table over its columns and a category map."""
    name = draw(st.sampled_from(sorted(ORACLE_BANKS)))
    rules = builtin_bank(name)
    numeric = {c for _, *tests in rules for c, spec in tests
               if not isinstance(spec, frozenset)}
    columns = sorted({c for _, *tests in rules for c, _ in tests})
    # each spelling with its near misses: case, a trailing space or NUL
    words = [w for s in bank_spellings(name)
             for w in (s, s.lower(), s.upper(), s + " ", s + "\x00")]
    anything = NUMBER_CELLS + BAD_NUMBER_CELLS + words
    clean = draw(st.booleans())  # no bad cell in a numeric column
    n = draw(st.integers(1, 6))
    table = {c: draw(st.lists(
        st.sampled_from(NUMBER_CELLS if clean and c in numeric
                        else anything), min_size=n, max_size=n))
        for c in columns}
    category_map = draw(st.none() | st.dictionaries(
        st.sampled_from(columns),
        st.dictionaries(st.sampled_from(anything), st.sampled_from(
            NUMBER_CELLS if clean else anything), max_size=4),
        max_size=3))
    return name, table, category_map


@settings(max_examples=500, deadline=None)
@given(bank_inputs())
def test_lf_bank_matches_row_wise_oracle(inputs):
    name, table, category_map = inputs
    rules = builtin_bank(name)
    try:
        want = lf_bank_oracle(table, ORACLE_BANKS[name](), category_map)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            apply_lf_bank(table, rules, category_map)
        assert str(got.value).splitlines()[0] == str(exc)
    else:
        got = apply_lf_bank(table, rules, category_map)
        assert np.array_equal(got.votes, want.votes)


def test_read_raw_csv_strips_whitespace(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("a,b\n 1 , x \n2,y\n")
    table = read_raw_csv(str(p))
    assert table["a"] == ["1", "2"]
    assert table["b"] == ["x", "y"]


# --------------------------------------------------------------------------
# run_pipeline


def test_pipeline_linear_beats_identity_on_shifted_fixture(tmp_path):
    ds, wl, features, votes = write_fixture(tmp_path, 400, seed=0)
    y, groups = ds.labels, ds.groups
    low = groups == 1

    accs = {}
    for ot in ("none", "linear"):
        out = str(tmp_path / ot)
        run_pipeline(PipelineConfig(ot_type=ot), features, votes, out)
        repaired = load_votes_csv(os.path.join(out, "votes_repaired.csv"))
        accs[ot] = np.mean([
            (repaired.votes[low, j] == y[low]).mean()
            for j in range(wl.m)])
    assert accs["linear"] >= accs["none"]


def test_pipeline_rerun_is_byte_identical(tmp_path):
    _, _, features, votes = write_fixture(tmp_path, 120, seed=3)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline(PipelineConfig(ot_type="linear"), features, votes,
                     str(out))
        blobs.append({
            p: (out / p).read_bytes()
            for p in ("votes_repaired.csv", "pseudolabels.csv",
                      "fairness.json")})
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("ot_type, k", [("linear", 1), ("sinkhorn", 5)])
def test_pipeline_bytes_do_not_depend_on_workers(
        tmp_path, monkeypatch, ot_type, k):
    _, _, features, votes = write_fixture(tmp_path, 300, seed=5)
    cfg = PipelineConfig(ot_type=ot_type, knn_k=k)
    # a few source rows per Sinkhorn block, so every worker sweeps some
    monkeypatch.setattr(ot, "_BLOCK_BYTES", 1 << 12)
    callers = set()
    blobs = []
    for workers in (1, 2, 3):
        def pinned(workers=workers):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return workers

        monkeypatch.setattr(core, "_workers", pinned)
        out = tmp_path / str(workers)
        run_pipeline(cfg, features, votes, str(out))
        blobs.append({
            p: (out / p).read_bytes()
            for p in ("votes_repaired.csv", "pseudolabels.csv",
                      "fairness.json")})
    assert blobs[0] == blobs[1] == blobs[2]
    # the tree search, and the Sinkhorn sweeps, took the pinned count,
    # and transport moved votes
    assert callers == {"otrelabel.transport"} | (
        {"otrelabel.ot"} if ot_type == "sinkhorn" else set())
    with open(votes, "rb") as fh:
        assert blobs[0]["votes_repaired.csv"] != fh.read()


def test_pipeline_without_gold_labels_skips_metrics(tmp_path):
    ds, wl = make_biased_fixture(120, seed=4)
    features = str(tmp_path / "features.csv")
    votes = str(tmp_path / "votes.csv")
    write_features_csv(features, ds, include_labels=False)
    write_votes_csv(wl, votes)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(), features, votes, str(out))
    fairness = json.loads((out / "fairness.json").read_text())
    assert fairness["skipped"] is True
    assert (out / "pseudolabels.csv").exists()


def test_pipeline_fairness_schema(tmp_path):
    _, wl, features, votes = write_fixture(tmp_path, 150, seed=5)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(ot_type="linear"), features, votes, str(out))
    fairness = json.loads((out / "fairness.json").read_text())
    assert fairness["skipped"] is False
    assert len(fairness["per_lf"]) == wl.m
    for row in fairness["per_lf"]:
        assert set(row) == {"name", "before", "after", "delta"}
    assert "accuracy" in fairness["pseudolabels"]
    assert fairness["end_model"] is not None
    manifest = json.loads((out / "manifest.json").read_text())
    assert fairness["manifest_digest"] == manifest["digest"]
    assert manifest["failed_stage"] is None


def test_pipeline_passthrough_reproduces_baseline(tmp_path):
    _, wl, features, votes = write_fixture(tmp_path, 150, seed=6)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(ot_type="linear"), features, votes,
                 str(out), passthrough=True)
    repaired = load_votes_csv(str(out / "votes_repaired.csv"))
    assert np.array_equal(repaired.votes, wl.votes)


def test_pipeline_gold_labels_do_not_steer_transport(tmp_path):
    # flipping all gold labels must not change the repaired votes
    ds, wl, features, votes = write_fixture(tmp_path, 150, seed=7)
    flipped = ds.__class__(ds.features, ds.groups, -ds.labels)
    features2 = str(tmp_path / "features2.csv")
    write_features_csv(features2, flipped)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    run_pipeline(PipelineConfig(ot_type="linear"), features, votes, out1)
    run_pipeline(PipelineConfig(ot_type="linear"), features2, votes, out2)
    a = load_votes_csv(os.path.join(out1, "votes_repaired.csv"))
    b = load_votes_csv(os.path.join(out2, "votes_repaired.csv"))
    assert np.array_equal(a.votes, b.votes)


@pytest.mark.parametrize("passthrough, tie_tol, changed, estimated_rows", [
    # per-group estimates pick the direction; the repaired votes' global
    # estimate weights the posterior
    (False, 0.01, True, [150, 150, 300]),
    # every LF a tie: the votes come back unchanged
    (False, 1.0, False, [150, 150, 300]),
    # no direction to pick: only the global estimate
    (True, 0.01, False, [300]),
])
def test_pipeline_estimates_only_what_its_stages_read(
        tmp_path, monkeypatch, passthrough, tie_tol, changed,
        estimated_rows):
    _, wl, features, votes = write_fixture(tmp_path, 150, seed=8)
    rows = []
    real = estimate.moment_matrix

    def counting(matrix):
        rows.append(matrix.n)
        return real(matrix)

    monkeypatch.setattr(estimate, "moment_matrix", counting)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(ot_type="linear", tie_tol=tie_tol), features,
                 votes, str(out), passthrough=passthrough)
    repaired = load_votes_csv(str(out / "votes_repaired.csv"))
    assert (not np.array_equal(repaired.votes, wl.votes)) == changed
    assert rows == estimated_rows


@pytest.mark.parametrize("features_text, votes_text, error, stage", [
    # group 1 empty: the inputs never validate
    ("f1,group\n1.0,0\n2.0,0\n", "lf_0,lf_1,lf_2\n1,1,-1\n-1,1,1\n",
     ValidationError, "ingest"),
    # lf_2's moments vanish inside each group: estimation aborts
    ("f1,group\n0.0,0\n0.1,0\n1.0,1\n1.1,1\n",
     "lf_0,lf_1,lf_2\n1,1,1\n1,1,-1\n-1,-1,1\n-1,-1,-1\n",
     NumericalError, "estimate"),
], ids=["ingest", "estimate"])
def test_pipeline_failure_recorded_in_manifest(tmp_path, features_text,
                                               votes_text, error, stage):
    p = tmp_path / "f.csv"
    p.write_text(features_text)
    v = tmp_path / "v.csv"
    v.write_text(votes_text)
    out = tmp_path / "out"
    with pytest.raises(error):
        run_pipeline(PipelineConfig(), str(p), str(v), str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage
    if stage == "ingest":
        assert manifest["input_digests"] == {}
        assert manifest["stage_timings_ms"] == {}
    else:
        # the inputs were read, so the manifest says which, by role
        assert manifest["input_digests"] == {
            role: hashlib.sha256(path.read_bytes()).hexdigest()
            for role, path in (("features", p), ("votes", v))}
        assert set(manifest["stage_timings_ms"]) == {"ingest"}


def test_manifest_digest_does_not_depend_on_the_input_paths(
        tmp_path, monkeypatch):
    _, _, features, votes = write_fixture(tmp_path, 150, seed=9)
    data = tmp_path / "b" / "data"
    data.mkdir(parents=True)
    for name in ("features.csv", "votes.csv"):
        (data / name).write_bytes((tmp_path / name).read_bytes())
    cfg = PipelineConfig(ot_type="linear")
    blobs = []
    for cwd, prefix in ((tmp_path, ""), (tmp_path / "b", "data/")):
        monkeypatch.chdir(cwd)
        run_pipeline(cfg, prefix + "features.csv", prefix + "votes.csv",
                     "out")
        blobs.append((cwd / "out" / "fairness.json").read_bytes())
        manifest = json.loads((cwd / "out" / "manifest.json").read_text())
        assert manifest["input_paths"] == {
            "features": prefix + "features.csv", "votes": prefix + "votes.csv"}
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("option", [
    {"passthrough": True}, {"group_col": "g"}, {"label_col": None}],
    ids=["passthrough", "group_col", "label_col"])
def test_manifest_digest_covers_every_run_option(tmp_path, option):
    _, _, features, votes = write_fixture(tmp_path, 150, seed=9)
    # a copy of the group column, so that either one can hold the groups
    head, *rows = (tmp_path / "features.csv").read_text().splitlines()
    (tmp_path / "features.csv").write_text("".join(
        f"{line},{group}\n" for line, group in
        zip([head] + rows, ["g"] + [r.split(",")[-2] for r in rows])))
    cfg = PipelineConfig(ot_type="linear")
    digests = [run_pipeline(cfg, features, votes, str(tmp_path / name),
                            **kwargs).digest()
               for name, kwargs in (("base", {}), ("changed", option))]
    assert digests[0] != digests[1]
    manifest = json.loads((tmp_path / "changed" / "manifest.json").read_text())
    assert manifest["options"] == {
        "passthrough": False, "group_col": "group", "label_col": "label",
        **option}


# the calls a run makes through each name the pipeline module resolves:
# (with transport, passthrough)
PIPELINE_CALLS = {
    "load_features_csv": (1, 1), "load_votes_csv": (1, 1),
    "validate_dataset": (1, 1), "per_group_accuracies": (1, 0),
    "sbm_transport": (1, 0), "triplet_accuracies": (1, 1),
    "fit_label_model": (1, 1), "infer_pseudolabels": (1, 1),
    "train_end_model": (1, 1), "predict": (1, 1),
    "lf_delta_report": (1, 1), "fairness_report": (2, 2),
    "write_votes_csv": (1, 1),
}


@pytest.mark.parametrize("passthrough", [False, True])
def test_pipeline_calls_each_step_through_its_module_name(
        tmp_path, monkeypatch, passthrough):
    # wrapping a name in the pipeline module must see every call the run
    # makes to it, and each stage must be timed, transport or not
    calls = dict.fromkeys(PIPELINE_CALLS, 0)
    for name in PIPELINE_CALLS:
        def counted(*args, _name=name, _real=getattr(pipeline, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    _, _, features, votes = write_fixture(tmp_path, 150, seed=8)
    manifest = run_pipeline(PipelineConfig(ot_type="linear"), features, votes,
                            str(tmp_path / "out"), passthrough=passthrough)
    assert calls == {name: counts[passthrough]
                     for name, counts in PIPELINE_CALLS.items()}
    assert set(manifest.stage_timings_ms) == {
        "ingest", "estimate", "transport", "label_model", "end_model",
        "reports"}


# --------------------------------------------------------------------------
# theory suite


def test_theory_suite_small_run_passes(tmp_path):
    bundle = run_theory_suite(
        seed=0,
        shifts=(0.0, 5.0, 1000.0),
        shift_n=4000,
        lipschitz_trials=4000,
        map_sizes=(100, 1000),
        map_holdout=3000,
    )
    assert bundle["shift_limit"]["passed"]
    assert bundle["lipschitz"]["passed"]
    assert bundle["map_error_bound"]["passed"]
    assert bundle["passed"]
    write_theory_artifacts(bundle, str(tmp_path))
    assert (tmp_path / "theory_report.json").exists()
    shift_csv = (tmp_path / "shift_sweep.csv").read_text().splitlines()
    assert shift_csv[0] == "shift,measured,bound_or_limit"
    assert len(shift_csv) == 4
    assert (tmp_path / "map_error_sweep.csv").exists()
    assert (tmp_path / "lipschitz.csv").exists()
