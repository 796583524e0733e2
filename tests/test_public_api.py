"""Public API surface integrity.

Guards against re-export drift: everything a package advertises in
``__all__`` must actually be importable from it, carry a docstring, and the
top-level package must expose the documented entry points.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.hin",
    "repro.metapath",
    "repro.query",
    "repro.core",
    "repro.engine",
    "repro.baselines",
    "repro.datagen",
    "repro.relational",
    "repro.kg",
    "repro.service",
    "repro.utils",
    "repro.zoo",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} is advertised "
        "in __all__ but not importable"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_callables_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    import typing

    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name)
        if isinstance(obj, type(typing.Union[int, str])):
            continue  # typing aliases cannot carry docstrings
        if callable(obj) and not isinstance(obj, type(repro)):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name} exports without docstrings: {undocumented}"
    )


def test_every_module_has_a_docstring():
    missing = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(module_info.name)
        if not (module.__doc__ or "").strip():
            missing.append(module_info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_documented_entry_points_exist():
    """The README's headline API must exist under these exact names."""
    from repro import (  # noqa: F401
        HIN,
        MetaPath,
        NetOutMeasure,
        OutlierDetector,
        ProgressiveQueryExecutor,
        QueryAdvisor,
        parse_query,
        register_measure,
    )
    from repro.datagen import hub_ego_corpus  # noqa: F401
    from repro.engine import CachingStrategy  # noqa: F401
    from repro.hin import from_networkx, slice_by_attribute  # noqa: F401
    from repro.kg import KnowledgeGraph  # noqa: F401
    from repro.relational import database_to_hin  # noqa: F401
    from repro.report import write_html_report  # noqa: F401
    from repro.service import EngineHandle, QueryService  # noqa: F401
    from repro.viz import score_distribution  # noqa: F401


def test_version_is_pep440ish():
    assert repro.__version__.count(".") == 2
    assert all(part.isdigit() for part in repro.__version__.split("."))
