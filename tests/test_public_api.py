"""The public API surface: every exported name resolves and is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro.sim",
    "repro.safs",
    "repro.graph",
    "repro.core",
    "repro.algorithms",
    "repro.baselines",
    "repro.bench",
    "repro.obs",
    "repro.serve",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPublicSurface:
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} has no __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_package_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__) > 40

    def test_exported_callables_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: {undocumented}"


class TestCrossPackageConsistency:
    def test_no_export_name_collisions_hide_different_objects(self):
        # A name exported by two packages must be the same object (e.g.
        # EdgeType re-exports) or live in clearly different domains.
        seen = {}
        collisions = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in package.__all__:
                obj = getattr(package, name)
                if name in seen and seen[name][1] is not obj:
                    collisions.append((name, seen[name][0], package_name))
                seen[name] = (package_name, obj)
        assert not collisions, collisions

    def test_top_level_modules_importable(self):
        for module in (
            "repro.cli",
            "repro.graph.construction",
            "repro.graph.validation",
            "repro.graph.transform",
            "repro.sim.numa",
            "repro.sim.calibration",
            "repro.safs.write_path",
            "repro.obs.registry",
            "repro.obs.spans",
            "repro.obs.report",
            "repro.bench.experiments",
            "repro.bench.extra_experiments",
            "repro.algorithms.louvain",
            "repro.algorithms.scc",
            "repro.algorithms.bc_full",
        ):
            importlib.import_module(module)


class TestPackaging:
    def test_version_matches_pyproject(self):
        import pathlib
        import re

        import repro

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
        assert repro.__version__ == declared

    def test_console_script_target_exists(self):
        from repro.cli import main

        assert callable(main)
