"""Documentation is a deliverable: every public module, class, and
function in the library must carry a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.simcore",
    "repro.cluster",
    "repro.futures",
    "repro.chaos",
    "repro.jobs",
    "repro.blocks",
    "repro.plan",
    "repro.shuffle",
    "repro.sort",
    "repro.baselines.spark",
    "repro.baselines.dask",
    "repro.baselines.petastorm",
    "repro.ml",
    "repro.aggregation",
    "repro.dataframe",
    "repro.workloads",
    "repro.metrics",
    "repro.obs",
    "repro.streaming",
    "repro.tools",
]


def _iter_modules():
    seen = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if not hasattr(package, "__path__"):
            continue
        for info in pkgutil.iter_modules(package.__path__):
            name = f"{package_name}.{info.name}"
            if name in seen or info.name.startswith("_"):
                continue
            seen.add(name)
            yield importlib.import_module(name)


ALL_MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(item):
            for attr_name, attr in vars(item).items():
                if attr_name.startswith("_") or not inspect.isfunction(attr):
                    continue
                if not (attr.__doc__ and attr.__doc__.strip()):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {sorted(undocumented)}"
    )


#: Each subsystem guide that must exist under ``docs/``, with phrases it
#: must cover and the other guides it must cross-link.
REQUIRED_DOCS = {
    "data_plane.md": (
        ["spill_backend", "choose_node", "stage_boundary"],
        ["elasticity.md", "planner.md"],
    ),
    "chaos.md": (
        ["node_join", "node_drain", "node_remove"],
        ["elasticity.md"],
    ),
    "elasticity.md": (
        ["ClusterMembership", "spill_backend", "drain_node", "remove_node"],
        ["chaos.md", "data_plane.md", "observability.md"],
    ),
    "streaming.md": (
        [
            "StreamSpec", "backpressure", "open-loop", "p999",
            "watermark", "stage_boundary",
        ],
        ["jobs.md", "observability.md", "planner.md"],
    ),
    "jobs.md": (
        ["StreamSpec", "lowering rule"],
        ["streaming.md", "planner.md"],
    ),
    "planner.md": (
        [
            "ShuffleExpr",
            "ShufflePlan",
            "lower",
            "simplify",
            "fits_in_memory",
            "plan.replan",
            "policy.decision",
            "regret",
            'replan="on"',
            'variant="auto"',
            "bit-for-bit",
            "check_plan_isolation",
        ],
        ["data_plane.md", "jobs.md", "streaming.md", "observability.md"],
    ),
    "observability.md": (
        ["p999", "SelfProfiler"],
        ["streaming.md", "perf.md", "profiling.md"],
    ),
    "profiling.md": (
        [
            "SelfProfiler",
            "untracked",
            "coverage_error",
            "events per wall second",
            "bit-for-bit",
            "flamegraph",
            "--profile",
            "never gate",
        ],
        ["perf.md", "observability.md"],
    ),
    "perf.md": (
        ["critical_path", "GaugeFold", "--profile", "trajectory"],
        ["observability.md", "profiling.md"],
    ),
}


@pytest.mark.parametrize("name", sorted(REQUIRED_DOCS), ids=str)
def test_subsystem_guide_covers_and_cross_links(name):
    from pathlib import Path

    docs_dir = Path(__file__).resolve().parent.parent / "docs"
    path = docs_dir / name
    assert path.is_file(), f"docs/{name} is missing"
    text = path.read_text()
    phrases, links = REQUIRED_DOCS[name]
    missing = [p for p in phrases if p not in text]
    assert not missing, f"docs/{name} does not mention {missing}"
    unlinked = [f"]({l})" for l in links if f"]({l})" not in text]
    assert not unlinked, f"docs/{name} is missing cross-links {unlinked}"


def test_readme_links_streaming_guide():
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "docs/streaming.md" in readme.read_text()


def test_readme_links_perf_guide():
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "docs/perf.md" in readme.read_text()


def test_readme_links_profiling_guide():
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "docs/profiling.md" in readme.read_text()


def test_readme_links_planner_guide():
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "docs/planner.md" in readme.read_text()
