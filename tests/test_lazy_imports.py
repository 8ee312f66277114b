"""Package surfaces that load on first use, and the run path they keep light.

``repro.obs`` and ``repro.blocks`` resolve their exports through
:func:`repro.common.lazy.lazy_exports`.  These tests pin that every
public name still resolves the way an eager ``__init__`` made it
resolve, and, in fresh interpreters, that nothing loads before it is
read.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = ("repro.obs", "repro.blocks")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that sees only ``src``."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        value = getattr(package, export)
        module = getattr(value, "__module__", None)
        assert module is None or module.startswith(name + "."), (export, module)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_all_before_any_name_is_read(name):
    result = _fresh(
        f"""
        import {name} as package
        assert set(package.__all__) <= set(dir(package)), dir(package)
        """
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_the_standard_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError) as info:
        package.no_such_name  # noqa: B018
    assert str(info.value) == f"module {name!r} has no attribute 'no_such_name'"
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_packages_load_each_export_on_first_read():
    """Importing a package loads none of its submodules; reading a name
    loads only the submodule defining it, and binds it on the package."""
    result = _fresh(
        """
        import sys
        import repro.obs, repro.blocks
        loaded = lambda p: sorted(m for m in sys.modules if m.startswith(p + "."))
        assert loaded("repro.obs") == [], loaded("repro.obs")
        assert loaded("repro.blocks") == [], loaded("repro.blocks")
        bus = repro.obs.EventBus
        assert loaded("repro.obs") == ["repro.obs.events"], loaded("repro.obs")
        assert "EventBus" in vars(repro.obs)
        repro.blocks.VirtualBlock(10)
        assert "numpy" not in sys.modules
        assert repro.blocks.RealBlock.__module__ == "repro.blocks.real"
        assert "numpy" in sys.modules
        """
    )
    assert result.returncode == 0, result.stderr


def test_submodules_stay_reachable_as_attributes():
    """``import repro.obs; repro.obs.profile`` reaches the submodule, as
    it did when the package imported it eagerly."""
    result = _fresh(
        """
        import sys
        import repro.obs
        assert "repro.obs.profile" not in sys.modules
        profile = repro.obs.profile
        assert profile is sys.modules["repro.obs.profile"]
        assert profile.SelfProfiler is repro.obs.SelfProfiler
        assert repro.obs.perf.critical_path is repro.obs.critical_path
        """
    )
    assert result.returncode == 0, result.stderr


def test_size_of_never_imports_numpy():
    """Sizing virtual blocks and plain containers leaves numpy unloaded."""
    result = _fresh(
        """
        import sys
        from repro.blocks import VirtualBlock
        from repro.futures.sizing import OBJECT_OVERHEAD_BYTES, size_of
        blocks = [VirtualBlock(10), VirtualBlock(0, record_bytes=8)]
        assert size_of(blocks) == OBJECT_OVERHEAD_BYTES + 1000 + 16
        values = [None, 3, 2.5, b"ab", "x", (1, [2]), {"k": {1, 2}}, object()]
        assert all(size_of(value) > 0 for value in values)
        assert "numpy" not in sys.modules
        """
    )
    assert result.returncode == 0, result.stderr


def test_real_payload_config_fails_without_numpy():
    """A missing numpy fails a real sort's config, before any runtime
    exists; a virtual config never needs it."""
    result = _fresh(
        """
        import sys
        sys.modules["numpy"] = None  # as if numpy were not installed
        from repro.sort import SortJobConfig
        SortJobConfig()
        try:
            SortJobConfig(virtual=False)
        except ImportError:
            pass
        else:
            raise AssertionError("a real config built without numpy")
        """
    )
    assert result.returncode == 0, result.stderr
