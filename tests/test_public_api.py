"""Tests for the package's public API surface."""

import ast
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import pytest
from conftest import TIER0_REPRO_MODULES, modules_loaded_by, repro_modules

import repro


def test_version_is_exposed():
    assert repro.__version__


def test_public_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_top_level_quickstart_flow():
    config = repro.make_session_config(36, seed=2, max_time=70.0,
                                       old_stream_segments=400, lookahead=120)
    result = repro.run_single(config)
    assert result.metrics.avg_switch_time > 0
    assert isinstance(repro.FastSwitchAlgorithm(), repro.FastSwitchAlgorithm)


def test_optimal_split_reachable_from_top_level():
    split = repro.optimal_split(15.0, 50.0, 50.0, 10.0, 10.0)
    assert split.r1 > 0 and split.r2 > 0


def test_subpackages_import_cleanly():
    import repro.channels  # noqa: F401
    import repro.churn  # noqa: F401
    import repro.core  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.metrics  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.overlay  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.streaming  # noqa: F401
    import repro.workloads  # noqa: F401


def test_importing_the_cli_does_not_import_networkx():
    """Importing the CLI loads nothing but the standard library: tier 0 of
    the import fences (the other tiers are in ``tests/test_import_fences.py``).
    """
    modules = modules_loaded_by("import repro.cli")
    assert "networkx" not in modules
    assert "numpy" not in modules
    assert repro_modules(modules) == TIER0_REPRO_MODULES


# --------------------------------------------------------------------------- #
# package hubs: lazy name -> defining-module tables (repro/_hub.py)
# --------------------------------------------------------------------------- #
HUBS = ["repro"] + sorted(
    "repro." + module.name for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


def _hub_table(hub_name):
    """name -> defining module, read from the hub's one ``lazy_hub(...)`` call."""
    hub = import_module(hub_name)
    tree = ast.parse(Path(hub.__file__).read_text(encoding="utf-8"))
    (call,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_hub"]
    # The table is the hub's only list of its public names: no eager
    # ``from repro... import`` beside it and no second ``__all__`` list.
    imported = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imported == ["repro._hub"], imported
    return eval(compile(ast.Expression(call.args[1]), hub.__file__, "eval"),
                {"__name__": hub_name})


def test_there_are_fifteen_hubs():
    assert len(HUBS) == 15


@pytest.mark.parametrize("hub_name", HUBS)
def test_hub_names_resolve_to_the_objects_of_their_defining_modules(hub_name):
    hub = import_module(hub_name)
    table = _hub_table(hub_name)
    assert list(table) == list(hub.__all__)
    assert set(hub.__all__) <= set(dir(hub))
    for name, module_name in table.items():
        value = getattr(hub, name)
        assert value is getattr(import_module(module_name), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module_name, f"{name} is re-exported, not defined, there"


@pytest.mark.parametrize("hub_name", HUBS)
def test_unknown_hub_attribute_raises_attribute_error_naming_the_hub(hub_name):
    hub = import_module(hub_name)
    with pytest.raises(AttributeError, match=repr(hub_name)):
        hub.no_such_name
    assert not hasattr(hub, "no_such_name")


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from repro import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(repro.__all__)


@pytest.mark.parametrize("hub_name", HUBS)
def test_rebinding_in_the_defining_module_is_seen_through_the_hub_and_undone(
        hub_name, monkeypatch):
    """What ``bench/trace.py``'s "every binding restored" check relies on."""
    hub = import_module(hub_name)
    name, module_name = next(
        (name, module) for name, module in _hub_table(hub_name).items() if module != hub_name
    )
    original = getattr(hub, name)
    replacement = object()
    monkeypatch.setattr(import_module(module_name), name, replacement)
    assert getattr(hub, name) is replacement
    assert name not in vars(hub)  # resolved through the module, never copied
    monkeypatch.undo()
    assert getattr(hub, name) is original
    assert name not in vars(hub)
