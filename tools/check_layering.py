#!/usr/bin/env python
"""Layering lint: the policy plane must stay mechanism-free, the
streaming tier must stay optional, counters live in one store, and the
observability plane stays smaller than the runtime it observes.

``repro.futures.policies`` holds pure decision rules; the refactor that
extracted them is only worth keeping if they *stay* extracted.  This
tool walks every module under ``src/repro/futures/policies`` with
:mod:`ast` and reports any import that is not

- the Python standard library,
- ``repro.common`` (ids, errors, rng, units -- value types and helpers),
- ``repro.futures.task`` / ``repro.futures.refs`` (task/ref value types),
- the policies package itself (absolute or relative).

In particular ``Runtime``, ``NodeManager``, ``ObjectStore``,
``Scheduler``, and ``repro.simcore`` are mechanism layers and must
never be imported here -- policies receive frozen view dataclasses, not
live runtime state.

The second check runs in the opposite direction: ``repro.streaming``
may depend on the jobs/futures/obs planes, but nothing outside the
tier (:data:`STREAMING_IMPORTERS`) may import ``repro.streaming``.
A core module importing the tier
would make it load-bearing in batch-only runs, breaking the
zero-cost-when-off contract the golden digest tests pin.  Run as
``python tools/check_layering.py`` (CI does; nonzero exit on
violation).

The last check keeps the runtime's accounting in one place: the
:class:`~repro.obs.registry.MetricRegistry` holds every counter, and
only the modules in :data:`COUNTERS_OWNERS` may build a ``Counters``.
A second store elsewhere would need its own proof that it agrees with
the first.

The size check keeps ``src/repro/obs`` below ``src/repro/futures`` in
lines of ``*.py`` (as ``cat ... | wc -l`` counts them) and prints both
counts.  The observer growing past the runtime it observes is the sign
that a reader derives a fact some other reader already derives.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

#: Import prefixes the policy plane may use, besides the stdlib and
#: its own (relative) modules.
ALLOWED_PREFIXES = (
    "repro.common",
    "repro.futures.task",
    "repro.futures.refs",
    "repro.futures.policies",
)

#: The default tree to check, relative to the repo root.
DEFAULT_ROOT = Path("src") / "repro" / "futures" / "policies"

#: The whole source tree, walked by the streaming-isolation check.
SRC_ROOT = Path("src") / "repro"

#: Packages allowed to import ``repro.streaming``: the tier itself.
#: Everything else under ``src/repro`` -- futures, cluster, shuffle,
#: jobs, obs, chaos, aggregation, ... -- must work with the tier absent.
STREAMING_IMPORTERS = ("repro.streaming",)

#: Data-plane packages that must never import the live ops plane.  The
#: live tier (``repro.obs.live``) is a pure *consumer* of the event bus:
#: the runtime exposes only the duck-typed ``Runtime.attach_sampler``
#: hook, so dashboards and samplers can be deleted without touching the
#: data plane.  A data-plane import of the live package would invert
#: that arrow and make telemetry rendering load-bearing.
DATA_PLANE_PACKAGES = (
    "repro.futures",
    "repro.simcore",
    "repro.shuffle",
)

#: Packages that must never import the self-profiling tier
#: (``repro.obs.profile``).  The profiler observes the engine by
#: shadowing methods on *instances* at attach time and restoring them
#: on detach; the data plane's only contact is the duck-typed
#: ``Runtime.self_profiler`` slot.  An import in either the data plane
#: or the cluster fabric would make the observer load-bearing and
#: break the zero-cost-when-off contract the golden digests pin.
PROFILE_FORBIDDEN_PACKAGES = (
    "repro.futures",
    "repro.simcore",
    "repro.shuffle",
    "repro.cluster",
)

#: Import prefixes the planning layer (``repro.plan``) may use besides
#: the stdlib: value-type helpers and itself.  The planner is a *pure*
#: lowering library -- it sees the cluster only through duck-typed
#: profile snapshots (``ClusterProfile.from_runtime``) and the event
#: stream, never through runtime internals, so plans stay computable
#: offline from a recorded profile.
PLAN_ALLOWED_PREFIXES = (
    "repro.common",
    "repro.plan",
)

#: Packages that must never import ``repro.plan``: the mechanism layers
#: the planner chooses *between*.  A shuffle variant importing the
#: planner (or the futures runtime importing it for its duck-typed
#: ``Runtime.planner`` slot) would create a cycle where the mechanism
#: depends on the policy that selects it.  There are no exemptions:
#: callers choose a variant through ``repro.plan`` and then call it.
PLAN_FORBIDDEN_IMPORTERS = (
    "repro.futures",
    "repro.simcore",
    "repro.cluster",
    "repro.shuffle",
)

#: Modules allowed to construct a ``Counters``: the class's own package,
#: the metric registry (the runtime's one accounting store), and the
#: baseline engines, which are separate systems with their own books.
COUNTERS_OWNERS = (
    "repro.metrics",
    "repro.obs.registry",
    "repro.baselines",
)


def _allowed(module: str) -> bool:
    """Is an absolute import target acceptable inside the policy plane?"""
    if not module.startswith("repro"):
        return True  # stdlib (third-party deps would fail import anyway)
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in ALLOWED_PREFIXES
    )


def check_file(path: Path) -> List[str]:
    """Violation messages (``file:line: import``) for one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: List[str] = []

    def offend(node: ast.stmt, module: str) -> None:
        violations.append(
            f"{path}:{node.lineno}: imports {module!r} "
            f"(policy plane may only import {', '.join(ALLOWED_PREFIXES)})"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _allowed(alias.name):
                    offend(node, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                continue  # relative: stays inside the policies package
            module = node.module or ""
            if not _allowed(module):
                offend(node, module)
    return violations


def check_tree(root: Path) -> List[str]:
    """All violations under ``root`` (sorted for stable output)."""
    violations: List[str] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path))
    return violations


def check_registry_coverage(root: Path) -> List[str]:
    """Every declared policy kind must have >= 1 registered built-in.

    Walks ``registry.py`` with :mod:`ast`, reads the ``POLICY_KINDS``
    tuple and all module-level ``register_policy(kind, name, ...)``
    calls, and reports kinds with no built-in.  This pins the plane's
    completeness contract as kinds are added (the autoscale kind joined
    placement/memory/spill/dispatch this way): a new kind without a
    registered default would fail config resolution at runtime, so the
    lint catches it before any test builds a Runtime.
    """
    registry = root / "registry.py"
    if not registry.is_file():
        return [f"{registry}: missing (policy registry moved?)"]
    tree = ast.parse(registry.read_text(), filename=str(registry))
    declared: List[str] = []
    registered: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign):
                targets = [node.target.id] if isinstance(
                    node.target, ast.Name
                ) else []
            else:
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
            if "POLICY_KINDS" in targets and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                declared = [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
            if name == "register_policy" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    registered.append(first.value)
    if not declared:
        return [f"{registry}: POLICY_KINDS tuple not found"]
    return [
        f"{registry}: policy kind {kind!r} has no registered built-in"
        for kind in declared
        if kind not in registered
    ]


def _module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_root``'s parent
    (``src/repro/streaming/job.py`` -> ``repro.streaming.job``)."""
    relative = path.relative_to(src_root.parent)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check_streaming_isolation(src_root: Path) -> List[str]:
    """Core modules that import the optional streaming tier.

    Walks every module under ``src_root`` and flags any import of
    ``repro.streaming`` from a module outside
    :data:`STREAMING_IMPORTERS` -- the reverse direction of the policy
    check: the tier may see the core, the core must never see the tier.
    """
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        if any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in STREAMING_IMPORTERS
        ):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            for target in targets:
                if target == "repro.streaming" or target.startswith(
                    "repro.streaming."
                ):
                    violations.append(
                        f"{path}:{node.lineno}: imports {target!r} "
                        f"(only {', '.join(STREAMING_IMPORTERS)} may import "
                        f"the streaming tier; the core must stay "
                        f"streaming-free)"
                    )
    return violations


def check_live_isolation(src_root: Path) -> List[str]:
    """Data-plane modules that import the live ops plane.

    Walks every module under the :data:`DATA_PLANE_PACKAGES` trees and
    flags any import of ``repro.obs.live`` -- the observer must never
    become a dependency of the observed: the data plane publishes to
    the bus and exposes the duck-typed ``attach_sampler`` hook, nothing
    more.
    """
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in DATA_PLANE_PACKAGES
        ):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            for target in targets:
                if target == "repro.obs.live" or target.startswith(
                    "repro.obs.live."
                ):
                    violations.append(
                        f"{path}:{node.lineno}: imports {target!r} "
                        f"(the data plane -- "
                        f"{', '.join(DATA_PLANE_PACKAGES)} -- must not "
                        f"depend on the live ops plane; use the "
                        f"duck-typed attach_sampler hook)"
                    )
    return violations


def check_profile_isolation(src_root: Path) -> List[str]:
    """Data-plane / cluster modules that import the self-profiling tier.

    Same shape as :func:`check_live_isolation`, for
    ``repro.obs.profile``: the profiler attaches by shadowing instance
    methods from the outside, so nothing it observes may import it --
    profiling must stay bit-for-bit absent when off.
    """
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in PROFILE_FORBIDDEN_PACKAGES
        ):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            for target in targets:
                if target == "repro.obs.profile" or target.startswith(
                    "repro.obs.profile."
                ):
                    violations.append(
                        f"{path}:{node.lineno}: imports {target!r} "
                        f"(the observed planes -- "
                        f"{', '.join(PROFILE_FORBIDDEN_PACKAGES)} -- must "
                        f"not depend on the self-profiler; it attaches by "
                        f"instance shadowing via the duck-typed "
                        f"self_profiler slot)"
                    )
    return violations


def check_plan_isolation(src_root: Path) -> List[str]:
    """Both directions of the planning layer's boundary.

    Forward: modules under ``repro.plan`` may import only the stdlib,
    :data:`PLAN_ALLOWED_PREFIXES`, and themselves -- in particular never
    the futures runtime, the simulator core, or the shuffle variants
    (the planner ranks variants by *name*; executing them is the call
    sites' job).  Reverse: the mechanism layers in
    :data:`PLAN_FORBIDDEN_IMPORTERS` must never import ``repro.plan``.
    """
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        in_plan = module == "repro.plan" or module.startswith("repro.plan.")
        forbidden = any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in PLAN_FORBIDDEN_IMPORTERS
        )
        if not in_plan and not forbidden:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            for target in targets:
                if in_plan:
                    if target.startswith("repro") and not any(
                        target == prefix or target.startswith(prefix + ".")
                        for prefix in PLAN_ALLOWED_PREFIXES
                    ):
                        violations.append(
                            f"{path}:{node.lineno}: imports {target!r} "
                            f"(repro.plan is a pure lowering library and "
                            f"may only import "
                            f"{', '.join(PLAN_ALLOWED_PREFIXES)})"
                        )
                elif target == "repro.plan" or target.startswith(
                    "repro.plan."
                ):
                    violations.append(
                        f"{path}:{node.lineno}: imports {target!r} "
                        f"(mechanism layers -- "
                        f"{', '.join(PLAN_FORBIDDEN_IMPORTERS)} -- must "
                        f"not depend on the planning layer)"
                    )
    return violations


def check_single_accounting_store(src_root: Path) -> List[str]:
    """Modules outside :data:`COUNTERS_OWNERS` that call ``Counters(``."""
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        if any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in COUNTERS_OWNERS
        ):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
            if name == "Counters":
                violations.append(
                    f"{path}:{node.lineno}: constructs a Counters "
                    f"(only {', '.join(COUNTERS_OWNERS)} may; charge "
                    f"runtime.metrics instead of keeping a second store)"
                )
    return violations


def package_lines(root: Path) -> int:
    """Lines of every ``*.py`` under ``root`` (newlines, as ``wc -l``)."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def check_obs_below_futures(src_root: Path) -> List[str]:
    """A violation unless ``obs`` has fewer lines than ``futures``."""
    obs = package_lines(src_root / "obs")
    futures = package_lines(src_root / "futures")
    print(f"size: obs {obs} lines, futures {futures} lines")
    if obs < futures:
        return []
    return [
        f"{src_root / 'obs'}: {obs} lines of *.py, not below the "
        f"{futures} of {src_root / 'futures'} (derive each trace fact "
        f"once instead of growing the observer past the runtime)"
    ]


def main(argv: List[str] = None) -> int:
    """Entry point: check the tree, print violations, exit nonzero."""
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(args[0]) if args else DEFAULT_ROOT
    if not root.exists():
        print(f"layering: no such tree {root}", file=sys.stderr)
        return 2
    violations = check_tree(root)
    # Registry completeness applies to the real policy plane (or any tree
    # that ships a registry.py); ad-hoc trees passed for import linting
    # alone are not required to carry one.
    if root == DEFAULT_ROOT or (root / "registry.py").is_file():
        violations += check_registry_coverage(root)
    # Streaming isolation spans the whole source tree; run it whenever
    # the default tree is being checked (i.e. the full CI invocation).
    if root == DEFAULT_ROOT and SRC_ROOT.exists():
        violations += check_streaming_isolation(SRC_ROOT)
        violations += check_live_isolation(SRC_ROOT)
        violations += check_profile_isolation(SRC_ROOT)
        violations += check_plan_isolation(SRC_ROOT)
        violations += check_single_accounting_store(SRC_ROOT)
        violations += check_obs_below_futures(SRC_ROOT)
    for violation in violations:
        print(violation)
    if violations:
        print(f"layering: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"layering: {root} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
