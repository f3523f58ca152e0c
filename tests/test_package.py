"""`import kmetrics` is lazy: each public name and submodule loads on first use."""

import importlib

import pytest
from test_cli import _python

import kmetrics

SUBMODULES = ("simplicial", "metric", "coboundary", "hypertree", "volume", "lp")


def _run(script: str) -> str:
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_numpy_nor_a_submodule():
    loaded = _run(
        "import sys, kmetrics\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.',"
        " 'kmetrics.'))))\n"
    )
    assert loaded.split() == []


def test_submodules_resolve_after_a_bare_import():
    script = "import kmetrics\n" + "".join(
        f"print(kmetrics.{name}.__name__)\n" for name in SUBMODULES)
    assert _run(script).split() == [f"kmetrics.{name}" for name in SUBMODULES]


def test_every_export_is_its_home_module_object():
    assert len(kmetrics.__all__) == sum(map(len, kmetrics._EXPORTS.values()))
    for module, names in kmetrics._EXPORTS.items():
        home = importlib.import_module(f"kmetrics.{module}")
        for name in names:
            assert getattr(kmetrics, name) is getattr(home, name), name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(kmetrics, "no_such_name")
    assert not hasattr(kmetrics, "no_such_name")


def test_dir_and_star_import_cover_all():
    assert set(kmetrics.__all__) <= set(dir(kmetrics))
    assert set(SUBMODULES) <= set(dir(kmetrics))
    namespace = {}
    exec("from kmetrics import *", namespace)
    assert set(kmetrics.__all__) <= set(namespace)
