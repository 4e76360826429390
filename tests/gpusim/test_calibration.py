"""Calibrations are validated once, at construction."""

from dataclasses import replace

import pytest

from repro.gpusim.calibration import (
    CALIBRATION_PRESETS,
    DEFAULT_CALIBRATION,
    Calibration,
)
from repro.gpusim.cost import GpuCostModel


def test_bad_efficiency_fails_at_construction():
    with pytest.raises(ValueError, match="gpu_scan_efficiency"):
        Calibration(gpu_scan_efficiency=0.0)
    with pytest.raises(ValueError, match="pcie_stream_utilization"):
        Calibration(pcie_stream_utilization=1.5)


def test_replace_with_a_bad_value_fails_at_construction():
    with pytest.raises(ValueError, match="lane_ops_insert"):
        replace(DEFAULT_CALIBRATION, lane_ops_insert=-1)


def test_gpu_scaled_results_are_validated_calibrations():
    for speed in (0.25, 0.5, 2.0, 8.0):
        scaled = DEFAULT_CALIBRATION.gpu_scaled(speed)
        assert isinstance(scaled, Calibration)
        scaled.validate()
    with pytest.raises(ValueError, match="speed"):
        DEFAULT_CALIBRATION.gpu_scaled(-1.0)


def test_cost_model_does_not_revalidate(monkeypatch):
    calls = []
    monkeypatch.setattr(Calibration, "validate", lambda self: calls.append(self))
    for calibration in (None, *CALIBRATION_PRESETS.values()):
        GpuCostModel(calibration=calibration)
    assert calls == []
    Calibration(lane_ops_insert=10.0)
    assert len(calls) == 1  # construction is the one place it runs
