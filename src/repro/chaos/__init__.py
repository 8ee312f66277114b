"""Chaos engineering for the shuffle data plane.

The paper's fault-tolerance evaluation (§5.1.5) injects exactly one
fault shape: kill a whole worker node, restart it later.  Production
shuffle services (FuxiShuffle) see a much richer fault surface -- slow
disks, degraded links, stragglers, partial data loss -- and credible
evaluation (ShuffleBench) needs those scenarios to be systematic and
repeatable rather than hand-picked.  This package supplies that layer:

- :class:`FaultSpec` / :class:`ChaosPlan` -- a declarative, seeded model
  of faults: node crashes, CPU dilation, disk stalls, NIC degradation,
  dropped links between node pairs, object-store corruption, and
  straggler injection.
- :class:`ChaosInjector` -- schedules a plan against a live
  :class:`~repro.futures.Runtime`, driving the data plane's degradation
  knobs (``Node.degrade_disk``/``degrade_nic``/``set_compute_dilation``,
  ``Cluster.set_link_down``, direct object loss) deterministically.
- :class:`InvariantChecker` -- validates, at simulation quiesce, that
  reference counts balance, store/spill accounting is consistent with
  the directory, every finished task's outputs are live, spilled, or
  intentionally freed, and lineage suffices to reconstruct any live
  object.
- :mod:`repro.chaos.harness` -- a small seeded shuffle workload used by
  the failure-matrix test suite (``tests/test_chaos_matrix.py``).
"""

from repro.chaos.spec import ChaosPlan, FaultKind, FaultSpec, matrix_plan
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.harness import (
    ChaosRunReport,
    SHUFFLE_VARIANTS,
    default_node_spec,
    expected_output,
    make_inputs,
    run_chaos_shuffle,
    submit_variant,
)

__all__ = [
    "ChaosPlan",
    "FaultKind",
    "FaultSpec",
    "matrix_plan",
    "ChaosInjector",
    "InvariantChecker",
    "ChaosRunReport",
    "SHUFFLE_VARIANTS",
    "default_node_spec",
    "expected_output",
    "make_inputs",
    "run_chaos_shuffle",
    "submit_variant",
]
