"""The package's public names."""

import importlib

import pytest

import powergeom
from powergeom import (backend, errors, fdcheck, geometry, models,
                       scan_io, stability)


def test_every_exported_name_resolves():
    for name in powergeom.__all__:
        assert getattr(powergeom, name) is not None, name


def test_jet_type_is_the_kernels():
    assert powergeom.Jet3 is backend.Jet3


def test_jet_algebra_is_not_public():
    assert [n for n in powergeom.__all__ if n.startswith("jet_")] == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("powergeom.jets")


def test_flow_kind_is_the_kernels():
    assert powergeom.FlowKind is backend.FlowKind is models.FlowKind


def test_kernel_int_codes_and_guard_are_gone():
    assert not hasattr(powergeom, "DivisionByNearZero")
    assert "DivisionByNearZero" not in powergeom.__all__
    assert not hasattr(errors, "DivisionByNearZero")
    for name in ("KIND_REAL", "KIND_IMAGINARY", "KIND_COMPLEX", "DIV_GUARD"):
        assert not hasattr(backend, name), name
    assert not hasattr(powergeom.FlowKind.REAL, "code")


def test_per_shape_scan_types_are_gone():
    for name in ("GridScan", "DiagonalScan", "_Columns"):
        assert not hasattr(stability, name), name
        assert not hasattr(powergeom, name), name
    assert stability.Scan is type(stability.scan_grid(
        models.PowerModel(models.FlowKind.REAL), n=2))


def test_second_paths_are_gone():
    """One reader, one oracle entry, no label lookups nothing calls."""
    for owner, name in ((scan_io, "read_scan_csv"),
                        (scan_io, "read_scan_json"),
                        (fdcheck, "max_jet_deviation"), (fdcheck, "_oracle"),
                        (stability.Scan, "class_labels"),
                        (geometry.StabilityClass, "from_label")):
        assert not hasattr(owner, name), name
        assert not hasattr(powergeom, name), name
