"""The package's public names and structure."""

import ast
import importlib
from pathlib import Path

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


def _write_opens(tree):
    """(function, line) of every ``open`` call in ``tree`` whose mode may
    write: a mode holding w, a, x or +, or one that is not a string
    literal (``os.open``'s flags among them)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            # open(path, mode) and io.open/os.open, but path.open(mode)
            at = int(getattr(getattr(func, "value", func), "id", "")
                     in ("open", "io", "os"))
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = mode or node.args[at:at + 1]
            if name == "open" and mode and not (
                    isinstance(mode[0], ast.Constant)
                    and isinstance(mode[0].value, str)
                    and not set(mode[0].value) & set("wax+")):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_writer_opens_files_for_writing():
    """Every output file goes through ``scan_io.write_text``: it holds the
    package's only ``open`` call with a writing mode."""
    found = {}
    for path in sorted(Path(powergeom.__file__).parent.glob("*.py")):
        for function, line in _write_opens(ast.parse(path.read_text())):
            found.setdefault(path.name, []).append(function)
    assert found == {"scan_io.py": ["write_text"]}


def test_write_open_finder_sees_every_writing_mode():
    tree = ast.parse(
        "def f(p, m):\n"
        "    open(p, 'w'); open(p, 'ab'); open(p, mode='x')\n"
        "    open(p, 'r+'); open(p, m); p.open('w')\n"
        "    io.open(p, 'w'); os.open(p, os.O_WRONLY)\n"
        "    open(p); open(p, 'rb'); p.open(); io.open(p, encoding='ascii')\n"
        "    p.open('r'); io.open(p, 'r')\n")
    assert ([line for _, line in _write_opens(tree)]
            == [2, 2, 2, 3, 3, 3, 4, 4])
