#!/usr/bin/env python
"""Layering lint: each plane imports only what its role allows, counters
live in one store, one module lowers shuffle variants, and the
observability plane stays smaller than the runtime it observes.

Run as ``python tools/check_layering.py`` (CI does; nonzero exit on any
violation).  With a tree argument it runs the policy-plane import check
on that tree alone; with none it checks ``src/repro/futures/policies``
and then the whole source tree:

- Policy plane.  ``repro.futures.policies`` holds fair-share
  dispatch, a pure rule over task records, and every module under it
  (walked with :mod:`ast`) may import only the standard library,
  ``repro.common``, the task/ref value types (``repro.futures.task`` /
  ``repro.futures.refs``) and the policies package itself.
  ``Runtime``, ``NodeManager``, ``ObjectStore``, ``Scheduler`` and
  ``repro.simcore`` are mechanism layers: the policy sees task records
  and job ids, not live runtime state.
- Optional tiers.  Nothing outside ``repro.streaming``
  (:data:`STREAMING_IMPORTERS`) imports it, the data plane and the
  cluster fabric never import the self-profiler, and ``repro.plan`` imports only value
  helpers and itself.  A core module importing a tier would make it
  load-bearing in runs that do not use it, breaking the
  zero-cost-when-off contract the golden digests pin.
- One accounting store.  The
  :class:`~repro.obs.registry.MetricRegistry` holds every counter, and
  only the modules in :data:`COUNTERS_OWNERS` may build a ``Counters``.
  A second store would need its own proof that it agrees with the
  first.
- One lowering.  A module outside ``repro.shuffle`` that imports two
  or more of :data:`SHUFFLE_LIBRARIES` is choosing among variants
  itself, which is :func:`repro.shuffle.submit`'s job.
- Run-path imports.  What a driver script runs -- import the run
  packages (:data:`RUN_PATH_SCRIPT`), build a virtual sort's config --
  runs in a fresh interpreter and must load no module in
  :data:`RUN_PATH_FORBIDDEN`: numpy, which only real payloads need, or
  an obs reader, which only reads a finished run.
- Size.  ``src/repro/obs`` stays below ``src/repro/futures`` in lines
  of ``*.py`` (as ``cat ... | wc -l`` counts them), and both counts are
  printed.  The observer growing past the runtime it observes is the
  sign that a reader derives a fact some other reader already derives.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

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

#: Packages that must never import the self-profiling tier
#: (``repro.obs.profile``).  The profiler observes the engine by
#: patching hot methods on their *classes* at install time and
#: restoring the originals on uninstall; the data plane has no contact
#: with it at all.  An import in either the data plane or the cluster
#: fabric would make the observer load-bearing and break the
#: zero-cost-when-off contract the golden digests pin.
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
#: callers choose a variant through ``repro.plan`` and pass its name to
#: ``repro.shuffle.submit``.
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

#: The batch shuffle libraries :func:`repro.shuffle.submit` dispatches
#: over; importing two of them outside ``repro.shuffle`` is a second
#: dispatcher.
SHUFFLE_LIBRARIES = (
    "simple_shuffle",
    "riffle_shuffle",
    "magnet_shuffle",
    "push_based_shuffle",
)

#: What a run imports: the run packages, then a virtual sort's config.
RUN_PATH_SCRIPT = """
import repro.sort, repro.futures, repro.cluster, repro.jobs, repro.streaming, repro.chaos
repro.sort.SortJobConfig()
"""

#: Modules the run path must not load: numpy (real payloads load it)
#: and the obs readers (they read a run; the run only publishes).
RUN_PATH_FORBIDDEN = (
    "numpy",
    "repro.obs.perf",
    "repro.obs.profile",
    "repro.obs.report",
    "repro.obs.trace",
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


def check_profile_isolation(src_root: Path) -> List[str]:
    """Data-plane / cluster modules that import the self-profiling tier.

    Walks every module under the :data:`PROFILE_FORBIDDEN_PACKAGES`
    trees and flags any import of ``repro.obs.profile``: the profiler
    patches the classes it observes from the outside, so nothing it
    observes may import it -- profiling must stay bit-for-bit absent
    when off.
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
                        f"not depend on the self-profiler; it patches "
                        f"their classes from outside)"
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


def check_single_lowering(src_root: Path) -> List[str]:
    """Modules outside ``repro.shuffle`` importing two or more of
    :data:`SHUFFLE_LIBRARIES` (one violation per module)."""
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        if module == "repro.shuffle" or module.startswith("repro.shuffle."):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = sorted({
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[:2] == ["repro", "shuffle"]
            for alias in node.names
            if alias.name in SHUFFLE_LIBRARIES
        })
        if len(imported) >= 2:
            violations.append(
                f"{path}: imports {', '.join(imported)} (dispatch through "
                f"repro.shuffle.submit instead of a second variant switch)"
            )
    return violations


def check_run_path_imports(
    src: Path,
    script: str = RUN_PATH_SCRIPT,
    forbidden: Sequence[str] = RUN_PATH_FORBIDDEN,
) -> List[str]:
    """Modules in ``forbidden`` that ``script`` loads.

    ``script`` runs in a fresh interpreter with ``src`` as its only
    ``PYTHONPATH`` entry; a script that fails is a violation too.
    """
    probe = script + "\nimport sys\nprint(*sorted(sys.modules), sep='\\n')\n"
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        return [f"run-path import check: the script failed:\n{result.stderr}"]
    loaded = set(result.stdout.split())
    return [
        f"{src}: the run path imports {module!r} (a virtual run must load "
        f"neither numpy nor an obs reader; import it where it is used)"
        for module in forbidden
        if module in loaded
    ]


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
    # Streaming isolation spans the whole source tree; run it whenever
    # the default tree is being checked (i.e. the full CI invocation).
    if root == DEFAULT_ROOT and SRC_ROOT.exists():
        violations += check_streaming_isolation(SRC_ROOT)
        violations += check_profile_isolation(SRC_ROOT)
        violations += check_plan_isolation(SRC_ROOT)
        violations += check_single_accounting_store(SRC_ROOT)
        violations += check_single_lowering(SRC_ROOT)
        violations += check_run_path_imports(SRC_ROOT.parent)
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
