"""The package's public names."""

import importlib

import pytest

import powergeom
from powergeom import backend


def test_every_exported_name_resolves():
    for name in powergeom.__all__:
        assert getattr(powergeom, name) is not None, name


def test_jet_type_is_the_kernels():
    assert powergeom.Jet3 is backend.Jet3


def test_jet_algebra_is_not_public():
    assert [n for n in powergeom.__all__ if n.startswith("jet_")] == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("powergeom.jets")
