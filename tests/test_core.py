import numpy as np
import pytest

from otrelabel import (
    GroupedDataset,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    validate_dataset,
)


def test_consistent_input_yields_empty_report():
    wl = WeakLabelMatrix([[1, -1], [1, 1], [-1, -1], [1, 1]])
    ds = GroupedDataset(np.zeros((4, 2)), [0, 0, 1, 1])
    assert validate_dataset(ds, wl) == []


def test_illegal_vote_names_the_cell():
    wl = WeakLabelMatrix([[1, -1], [1, 2], [-1, -1], [1, 1]])
    ds = GroupedDataset(np.zeros((4, 2)), [0, 0, 1, 1])
    report = validate_dataset(ds, wl)
    assert len(report) == 1
    assert "2" in report[0] and "row 1" in report[0] and "lf 1" in report[0]


def test_all_zero_groups_reports_empty_group_one():
    wl = WeakLabelMatrix([[1], [1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 0])
    assert validate_dataset(ds, wl) == ["empty group 1"]


def test_row_count_mismatch_reported():
    wl = WeakLabelMatrix([[1], [1], [1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1])
    report = validate_dataset(ds, wl)
    assert any("row-count mismatch" in line for line in report)


def test_validate_is_idempotent():
    wl = WeakLabelMatrix([[1, 2], [0, -1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1])
    first = validate_dataset(ds, wl)
    assert validate_dataset(ds, wl) == first


def test_label_values_checked():
    wl = WeakLabelMatrix([[1], [1]])
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1], [1, 0])
    report = validate_dataset(ds, wl)
    assert any("illegal label" in line for line in report)


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
    assert cfg.covariance_ridge == 1e-6
    assert cfg.transport_scope == "per_lf"
    assert cfg.ot_type == "none"


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        PipelineConfig(ot_type="exact")
    with pytest.raises(ValidationError):
        PipelineConfig(knn_k=0)
    with pytest.raises(ValidationError):
        PipelineConfig(class_balance=1.0)
    with pytest.raises(ValidationError):
        PipelineConfig(end_model="off")


def test_without_labels_strips_gold():
    ds = GroupedDataset(np.zeros((2, 1)), [0, 1], [1, -1])
    assert ds.without_labels().labels is None
