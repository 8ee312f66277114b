"""The layering lint: the policy plane must not import mechanism.

Runs ``tools/check_layering.py`` (the CI step) over the real tree, then
over synthetic violations to prove the lint actually bites.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _lint():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_policy_plane_is_mechanism_free():
    lint = _lint()
    violations = lint.check_tree(REPO / "src" / "repro" / "futures" / "policies")
    assert violations == []


def test_lint_catches_mechanism_imports(tmp_path):
    lint = _lint()
    bad = tmp_path / "rogue.py"
    bad.write_text(
        textwrap.dedent(
            """
            import json
            from repro.common.ids import NodeId
            from repro.futures.runtime import Runtime
            from repro.futures import node_manager
            import repro.simcore
            from .sibling import helper
            """
        )
    )
    violations = lint.check_tree(tmp_path)
    offending = [v.split("imports ")[1].split(" ")[0] for v in violations]
    assert offending == ["'repro.futures.runtime'", "'repro.futures'",
                        "'repro.simcore'"]


def test_registry_covers_every_policy_kind():
    """All declared kinds -- autoscale included -- have a built-in."""
    lint = _lint()
    root = REPO / "src" / "repro" / "futures" / "policies"
    assert lint.check_registry_coverage(root) == []


def test_registry_coverage_catches_missing_kind(tmp_path):
    lint = _lint()
    (tmp_path / "registry.py").write_text(
        textwrap.dedent(
            """
            POLICY_KINDS = ("placement", "autoscale")
            def register_policy(kind, name, factory):
                pass
            register_policy("placement", "default", None)
            """
        )
    )
    violations = lint.check_registry_coverage(tmp_path)
    assert len(violations) == 1 and "'autoscale'" in violations[0]
    # A tree with a registry.py gets the coverage check from main() too.
    assert lint.main([str(tmp_path)]) == 1


def test_streaming_tier_is_not_imported_by_the_core():
    """Nothing in the data-plane core imports ``repro.streaming``."""
    lint = _lint()
    violations = lint.check_streaming_isolation(REPO / "src" / "repro")
    assert violations == []


def test_streaming_isolation_catches_core_imports(tmp_path):
    """Synthetic core and app modules importing the tier are flagged;
    the tier itself stays exempt."""
    lint = _lint()
    src_root = tmp_path / "src" / "repro"
    for pkg in ("futures", "streaming", "aggregation"):
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    (src_root / "futures" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import json
            from repro.streaming import RoundDriver
            import repro.streaming.job
            """
        )
    )
    (src_root / "streaming" / "internal.py").write_text(
        "from repro.streaming.rounds import RoundDriver\n"
    )
    (src_root / "aggregation" / "app.py").write_text(
        "from repro.streaming.rounds import RoundDriver\n"
    )
    violations = lint.check_streaming_isolation(src_root)
    assert len(violations) == 3
    assert sum("rogue.py" in v for v in violations) == 2
    assert sum("app.py" in v for v in violations) == 1


def test_live_ops_plane_is_not_imported_by_the_data_plane():
    """``repro.futures`` / ``repro.simcore`` / ``repro.shuffle`` never
    import ``repro.obs.live`` -- the observer stays optional."""
    lint = _lint()
    violations = lint.check_live_isolation(REPO / "src" / "repro")
    assert violations == []


def test_live_isolation_catches_data_plane_imports(tmp_path):
    """A synthetic data-plane module importing the live tier is
    flagged; the obs package itself stays exempt."""
    lint = _lint()
    src_root = tmp_path / "src" / "repro"
    for pkg in ("futures", "obs"):
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    (src_root / "futures" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import json
            from repro.obs.live import TimeSeriesSampler
            import repro.obs.live.dashboard
            from repro.obs.events import EventBus
            """
        )
    )
    (src_root / "obs" / "cli.py").write_text(
        "from repro.obs.live import LiveDashboard\n"
    )
    violations = lint.check_live_isolation(src_root)
    assert len(violations) == 2
    assert all("rogue.py" in v for v in violations)
    assert all("attach_sampler" in v for v in violations)


def test_lint_main_exit_codes(tmp_path, capsys):
    lint = _lint()
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("from repro.common.ids import NodeId\n")
    assert lint.main([str(clean)]) == 0
    (clean / "bad.py").write_text("from repro.futures.scheduler import Scheduler\n")
    assert lint.main([str(clean)]) == 1
    assert lint.main([str(tmp_path / "missing")]) == 2
    capsys.readouterr()


def test_self_profiler_is_not_imported_by_the_observed_planes():
    """``repro.futures`` / ``repro.simcore`` / ``repro.shuffle`` /
    ``repro.cluster`` never import ``repro.obs.profile`` -- the
    profiler observes by instance shadowing, so the observed planes
    must stay profiler-free (zero cost when off)."""
    lint = _lint()
    violations = lint.check_profile_isolation(REPO / "src" / "repro")
    assert violations == []


def test_plan_layer_isolation_holds_in_the_real_tree():
    """``repro.plan`` imports no mechanism layer, and no mechanism
    layer (futures / simcore / cluster / shuffle) imports
    ``repro.plan``."""
    lint = _lint()
    violations = lint.check_plan_isolation(REPO / "src" / "repro")
    assert violations == []


def test_plan_isolation_catches_both_directions(tmp_path):
    """A synthetic plan module importing the runtime is flagged, as is
    every shuffle module importing the planner -- a selection helper
    included; the call-site layers (jobs, dataframe) stay exempt."""
    lint = _lint()
    src_root = tmp_path / "src" / "repro"
    for pkg in ("plan", "shuffle", "jobs"):
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    (src_root / "plan" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import math
            from repro.common.units import MB
            from repro.plan.profile import ClusterProfile
            from repro.futures.runtime import Runtime
            import repro.shuffle.push
            """
        )
    )
    (src_root / "shuffle" / "push.py").write_text(
        "from repro.plan import ShuffleExpr\n"
    )
    (src_root / "shuffle" / "select.py").write_text(
        "from repro.plan import empirical_variant\n"
    )
    (src_root / "jobs" / "manager.py").write_text(
        "from repro.plan import planner_for_runtime\n"
    )
    violations = lint.check_plan_isolation(src_root)
    assert len(violations) == 4
    assert sum("rogue.py" in v for v in violations) == 2
    assert sum("push.py" in v for v in violations) == 1
    assert sum("select.py" in v for v in violations) == 1


def test_profile_isolation_catches_observed_plane_imports(tmp_path):
    """A synthetic simcore module importing the profiler is flagged;
    the obs package (and the bench harness outside src/) stays exempt."""
    lint = _lint()
    src_root = tmp_path / "src" / "repro"
    for pkg in ("simcore", "cluster", "obs"):
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    (src_root / "simcore" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import heapq
            from repro.obs.profile import SelfProfiler
            import repro.obs.profile.flame
            """
        )
    )
    (src_root / "cluster" / "rogue.py").write_text(
        "from repro.obs.profile.core import SelfProfiler\n"
    )
    (src_root / "obs" / "cli.py").write_text(
        "from repro.obs.profile import SelfProfiler\n"
    )
    violations = lint.check_profile_isolation(src_root)
    assert len(violations) == 3
    assert all("rogue.py" in v for v in violations)
    assert all("self_profiler" in v for v in violations)


def test_runtime_keeps_a_single_accounting_store():
    """Outside ``repro.metrics``, ``repro.obs.registry`` and the baseline
    engines, nothing builds a ``Counters``: the metric registry is the
    runtime's one counter store."""
    lint = _lint()
    violations = lint.check_single_accounting_store(REPO / "src" / "repro")
    assert violations == []


def test_single_store_check_catches_a_second_store(tmp_path):
    """A synthetic runtime module keeping its own ``Counters`` (by name
    or through the module) is flagged; the owners stay exempt."""
    lint = _lint()
    src_root = tmp_path / "src" / "repro"
    for pkg in ("futures", "metrics", "obs", "baselines"):
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    (src_root / "futures" / "rogue.py").write_text(
        textwrap.dedent(
            """
            from repro.metrics import core
            from repro.metrics.core import Counters
            job_counters = {"j": Counters()}
            spare = core.Counters()
            """
        )
    )
    (src_root / "metrics" / "core.py").write_text("x = Counters()\n")
    (src_root / "obs" / "registry.py").write_text("x = Counters()\n")
    (src_root / "baselines" / "engine.py").write_text("x = Counters()\n")
    violations = lint.check_single_accounting_store(src_root)
    assert len(violations) == 2
    assert all("futures/rogue.py" in v for v in violations)


def test_size_check_keeps_obs_below_futures(tmp_path):
    """The real tree passes; an ``obs`` as long as ``futures`` fails."""
    lint = _lint()
    assert lint.check_obs_below_futures(REPO / "src" / "repro") == []
    for pkg, lines in (("futures", 3), ("obs", 2), ("obs/live", 1)):
        (tmp_path / pkg).mkdir()
        (tmp_path / pkg / "mod.py").write_text("x = 1\n" * lines)
    violations = lint.check_obs_below_futures(tmp_path)
    assert len(violations) == 1 and "3 lines" in violations[0]
