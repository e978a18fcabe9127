from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otrelabel
import otrelabel.core as core
from otrelabel import (
    GroupedDataset,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    fit_label_model,
    infer_pseudolabels,
    knn_transfer,
    lf_delta_report,
    moment_matrix,
    sbm_transport,
    triplet_accuracies,
    validate_dataset,
)
from otrelabel.core import MAX_CELL_ERRORS
from otrelabel.lfbank import apply_lf_bank
from otrelabel.pipeline import load_votes_csv


def test_consistent_input_yields_empty_report():
    wl = WeakLabelMatrix([[1, -1], [1, 1], [-1, -1], [1, 1]])
    ds = GroupedDataset(np.zeros((4, 2)), [0, 0, 1, 1])
    assert validate_dataset(ds, wl) is None


def test_illegal_vote_names_the_cell():
    with pytest.raises(ValidationError) as exc:
        WeakLabelMatrix([[1, -1], [1, 2], [-1, -1], [1, 1]])
    assert str(exc.value) == "illegal vote value 2 at row 1, lf 1"


def test_all_zero_groups_reports_empty_group_one():
    wl = WeakLabelMatrix([[1], [1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 0])
    with pytest.raises(ValidationError, match="^empty group 1$"):
        validate_dataset(ds, wl)


def test_row_count_mismatch_reported():
    wl = WeakLabelMatrix([[1], [1], [1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1])
    with pytest.raises(ValidationError, match="^row-count mismatch: "
                       "2 feature rows vs 3 vote rows$"):
        validate_dataset(ds, wl)


def test_validate_is_idempotent():
    with pytest.raises(ValidationError,
                       match="^illegal vote value 2 at row 0, lf 1$"):
        WeakLabelMatrix([[1, 2], [0, -1]])
    wl = WeakLabelMatrix([[1, 1], [0, -1], [1, 0]])
    # a non-finite feature is the dataset's own fact; the pair check
    # names the other two violations, one line each, on every call
    with pytest.raises(ValidationError,
                       match="^non-finite feature value nan at row 1, "
                             "column 0$"):
        GroupedDataset([[0.0], [np.nan]], [0, 0])
    ds = GroupedDataset([[0.0], [0.0]], [0, 0])
    reports = []
    for _ in range(2):
        with pytest.raises(ValidationError) as exc:
            validate_dataset(ds, wl)
        reports.append(str(exc.value).split("\n"))
    assert reports[0] == reports[1] == [
        "row-count mismatch: 2 feature rows vs 3 vote rows", "empty group 1"]


def test_label_values_checked():
    with pytest.raises(ValidationError,
                       match="^illegal label value 0 at row 1$"):
        GroupedDataset(np.zeros((2, 1)), [0, 1], [1, 0])


DOMAINS = {"vote": (-1, 0, 1), "group": (0, 1), "label": (-1, 1)}
OUT_OF_DOMAIN = (2, -2, 0.5, -1.5, 0.9, float("nan"), float("inf"),
                 float("-inf"))


def build(kind, values):
    """``values`` as stored by a container that takes them as its
    ``kind`` entries."""
    if kind == "vote":
        return WeakLabelMatrix(values).votes
    n = len(values)
    if kind == "group":
        return GroupedDataset(np.zeros((n, 1)), values).groups
    return GroupedDataset(np.zeros((n, 1)), np.arange(n) % 2, values).labels


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.sampled_from([int, float, bool]),
       st.data())
def test_containers_name_every_out_of_domain_entry(kind, dtype, data):
    shape = ((data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4)))
             if kind == "vote" else (data.draw(st.integers(1, 8)),))
    # a bool array holds only the domain's values among 0 and 1
    legal = [v for v in DOMAINS[kind] if dtype is not bool or v in (0, 1)]
    size = int(np.prod(shape))
    flat = data.draw(st.lists(st.sampled_from(legal), min_size=size,
                              max_size=size))
    values = np.array(flat, dtype=dtype).reshape(shape)
    where = data.draw(st.lists(st.integers(0, values.size - 1), max_size=3,
                               unique=True))
    bad = [data.draw(st.sampled_from(OUT_OF_DOMAIN)) for _ in where]
    values = values.astype(np.result_type(values, *bad))
    values.flat[where] = bad
    if not where:
        stored = build(kind, values)
        assert stored.dtype == (np.int8 if kind == "vote" else np.int64)
        assert np.array_equal(stored, values.astype(np.int64))
        return
    with pytest.raises(ValidationError) as exc:
        build(kind, values)
    expected = []
    for i in sorted(where):
        pos = np.unravel_index(i, shape)
        line = f"illegal {kind} value {values[pos]} at row {pos[0]}"
        expected.append(line + (f", lf {pos[1]}" if kind == "vote" else ""))
    assert str(exc.value).split("\n") == expected


@pytest.mark.parametrize("n_bad", [MAX_CELL_ERRORS, MAX_CELL_ERRORS + 1, 25])
def test_bad_entries_past_the_cap_are_counted(n_bad):
    votes = np.zeros((30, 2))
    votes[:n_bad, 1] = 0.5
    with pytest.raises(ValidationError) as exc:
        WeakLabelMatrix(votes)
    lines = str(exc.value).split("\n")
    named = [f"illegal vote value 0.5 at row {r}, lf 1"
             for r in range(MAX_CELL_ERRORS)]
    rest = n_bad - MAX_CELL_ERRORS
    tail = [f"... and {rest} more bad cells"] if rest else []
    assert lines == named + tail


@pytest.mark.parametrize("n_bad", [MAX_CELL_ERRORS, MAX_CELL_ERRORS + 1, 25])
def test_non_finite_features_past_the_cap_are_counted(n_bad):
    features = np.zeros((15, 2))
    bad = [np.nan, np.inf, -np.inf]
    features.flat[:n_bad] = [bad[i % 3] for i in range(n_bad)]
    with pytest.raises(ValidationError) as exc:
        GroupedDataset(features, np.arange(15) % 2)
    lines = str(exc.value).split("\n")
    named = [f"non-finite feature value {bad[i % 3]} at row {i // 2}, "
             f"column {i % 2}" for i in range(MAX_CELL_ERRORS)]
    rest = n_bad - MAX_CELL_ERRORS
    tail = [f"... and {rest} more bad cells"] if rest else []
    assert lines == named + tail


def test_containers_are_read_only():
    wl = WeakLabelMatrix([[1], [-1]])
    with pytest.raises(ValueError):
        wl.votes[0, 0] = 0
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0


def test_structural_errors_raise():
    with pytest.raises(ValidationError):
        WeakLabelMatrix(np.zeros((0, 2), dtype=int))
    with pytest.raises(ValidationError):
        GroupedDataset(np.zeros((3,)), [0, 1, 1])
    with pytest.raises(ValidationError):
        GroupedDataset(np.zeros((3, 2)), [0, 1])  # group length mismatch
    with pytest.raises(ValidationError):
        GroupedDataset(np.zeros((3, 2)), [0, 1, 1], [1, -1])  # label length


def test_config_defaults_match_reference_settings():
    cfg = PipelineConfig()
    assert cfg.knn_k == 1
    assert cfg.sinkhorn_eta == 1.0
    assert cfg.sinkhorn_max_iter == 10
    assert cfg.ot_type == "none"


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        PipelineConfig(ot_type="exact")
    with pytest.raises(ValidationError):
        PipelineConfig(knn_k=0)
    with pytest.raises(TypeError, match="end_model"):
        PipelineConfig(end_model=False)  # every run trains the end model
    # a run takes these from sinkhorn_plan, fit_label_model, train_end_model
    for name in ("sinkhorn_tol", "class_balance", "l2"):
        with pytest.raises(TypeError, match=name):
            PipelineConfig(**{name: 0.5})
    # True used to be stored as is, and "0.1" raised a bare TypeError
    for name in ("sinkhorn_eta", "tie_tol"):
        for value in (True, np.bool_(False), "0.1", None, np.array([0.5])):
            with pytest.raises(ValidationError,
                               match=f"^{name} must be a number, got "):
                PipelineConfig(**{name: value})


FLOAT_FIELDS = ("sinkhorn_eta", "tie_tol")


def test_float_fields_listed():
    assert FLOAT_FIELDS == tuple(
        f.name for f in fields(PipelineConfig) if f.type == "float")


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_floats(name, value):
    # NaN compares false, so a range check alone lets it through
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), 1])
def test_config_accepts_numpy_floats_as_float(name, value):
    # a numpy float32 used to reach the manifest and fail json.dumps
    stored = getattr(PipelineConfig(**{name: value}), name)
    assert stored == value and type(stored) is float


INT_FIELDS = ("knn_k", "sinkhorn_max_iter")


def test_int_fields_listed():
    assert INT_FIELDS == tuple(
        f.name for f in fields(PipelineConfig) if f.type == "int")


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", 0])
def test_config_rejects_non_integer_counts(name, value):
    # 2.5 or True used to pass here and fail later as a TypeError
    with pytest.raises(ValidationError,
                       match=f"{name} must be an integer >= 1"):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("name", INT_FIELDS)
def test_config_accepts_numpy_integers_as_int(name):
    value = getattr(PipelineConfig(**{name: np.int64(3)}), name)
    assert value == 3 and type(value) is int


def test_without_labels_strips_gold():
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1], [1, -1])
    assert ds.without_labels().labels is None


def test_derived_containers_skip_the_value_checks(monkeypatch):
    wl = WeakLabelMatrix([[1, 0], [-1, 1], [0, 0]])
    ds = GroupedDataset(np.arange(6.0).reshape(3, 2), [0, 1, 1], [1, -1, 1])
    calls = []
    real = core.require_values
    monkeypatch.setattr(core, "require_values",
                        lambda x, *args: calls.append(x.size) or real(x, *args))
    sub = wl.restrict_rows(np.array([True, False, True]))
    blind = ds.without_labels()
    # lf_0 moves from group 0 to group 1: its row-0 vote becomes row 1's
    repaired = sbm_transport(blind, wl, np.array([[0.2, 0.8], [0.5, 0.5]]),
                             PipelineConfig(ot_type="sinkhorn")).new_votes
    assert calls == []
    for derived, votes in ((sub, [[1, 0], [0, 0]]),
                           (repaired, [[-1, 0], [-1, 1], [0, 0]])):
        assert np.array_equal(derived.votes, votes)
        assert derived.votes.dtype == np.int8
        assert not derived.votes.flags.writeable
    assert blind.labels is None
    assert blind.features is ds.features and blind.groups is ds.groups
    # raw input is still checked
    WeakLabelMatrix(sub.votes)
    assert calls == [4]


def test_restrict_rows_keeps_the_shape_checks():
    wl = WeakLabelMatrix([[1, 0], [-1, 1]])
    with pytest.raises(ValidationError, match="at least 1x1"):
        wl.restrict_rows(np.array([False, False]))


def test_every_export_resolves_and_is_listed_once():
    names = otrelabel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(otrelabel, name), name


def test_votes_are_one_byte_a_cell(tmp_path):
    raw = [[1, 0], [-1, 1], [0, 0]]
    built = [WeakLabelMatrix(raw)] + [
        WeakLabelMatrix(np.array(raw, dtype=dtype))
        for dtype in (np.int64, np.float64)]
    built.append(WeakLabelMatrix(np.array([[True, False]])))
    plain, exact = tmp_path / "plain.csv", tmp_path / "exact.csv"
    plain.write_text("lf_0,lf_1\n1,0\n-1,1\n0,0\n")
    exact.write_text("lf_0,lf_1\n+1,0\n-1,1\n0,0\n")  # "+1": the exact pass
    loaded = [load_votes_csv(str(p)) for p in (plain, exact)]
    ds = GroupedDataset(np.arange(6.0).reshape(3, 2), [0, 1, 1])
    derived = [
        built[0].restrict_rows(np.array([True, False, True])),
        sbm_transport(ds, built[0], np.array([[0.2, 0.8], [0.5, 0.5]]),
                      PipelineConfig(ot_type="sinkhorn")).new_votes,
        apply_lf_bank({"c": ["a", "b", "a"]}, [("r", ("c", frozenset("a")))]),
    ]
    for wl in built + loaded + derived:
        assert wl.votes.dtype == np.int8
        assert wl.votes.nbytes == wl.n * wl.m
    assert all(np.array_equal(wl.votes, raw) for wl in loaded)
    moved = knn_transfer(np.zeros((2, 1)), np.ones((3, 1)),
                         np.array(raw, dtype=np.int64), 2)
    assert moved.dtype == np.int8 and moved.tolist() == [[1, 1], [1, 1]]


@pytest.mark.parametrize("mixed", [False, True])
def test_int8_votes_widen_before_any_sum(monkeypatch, mixed):
    # 300 LFs over 300 rows in one row block, all +1, or with every 6th
    # vote on a diagonal of the first 150 LFs -1: the sums reach 300, 250
    # and 200, past int8's 127; int8 reads 200 as -56 and 300 as 44, so a
    # wrapped sum would flip the mixed bank's first 150 signs and no others
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 1 << 40)
    n = m = 300
    votes = np.ones((n, m), dtype=np.int64)
    if mixed:
        diagonal = np.add.outer(np.arange(n), np.arange(m)) % 6 == 0
        votes[diagonal & (np.arange(m) < 150)] = -1
    wl = WeakLabelMatrix(votes)
    wide = core._unchecked(WeakLabelMatrix, votes=votes)
    ds = GroupedDataset(np.zeros((n, 1)), np.arange(n) % 2, np.ones(n))
    assert np.array_equal(moment_matrix(wl), moment_matrix(wide))
    acc = triplet_accuracies(wl)[0]
    assert np.array_equal(acc, triplet_accuracies(wide)[0])
    assert (acc > 0).all()  # every row's majority is +1
    assert lf_delta_report(wl, wl, ds) == lf_delta_report(wide, wide, ds)
    params = fit_label_model(acc, 0.5)
    for got, want in zip(infer_pseudolabels(params, wl),
                         infer_pseudolabels(params, wide)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("call, message", [
    (lambda: WeakLabelMatrix(np.ones(3)), "votes must be 2-D, got ndim=1"),
    (lambda: WeakLabelMatrix(np.ones((2, 2, 2))),
     "votes must be 2-D, got ndim=3"),
    (lambda: WeakLabelMatrix(np.ones((2, 2))).restrict_rows(
        np.zeros(2, bool)), "votes must be at least 1x1, got (0, 2)"),
])
def test_core_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
