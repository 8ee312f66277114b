"""Per-node lifecycle state for mid-run cluster elasticity.

The paper's clusters are fixed for the lifetime of a job; real
deployments add capacity under load and retire nodes when idle (or when
the cloud provider reclaims them).  :class:`ClusterMembership` is the
bookkeeping half of that story: a map from node id to lifecycle state

``active``
    A full member: the scheduler may place new work on it.
``draining``
    Leaving gracefully: it keeps running what it already has, but the
    scheduler avoids it while any other node remains.  An explicit
    ``remove_node`` completes the departure.
``removed``
    Departed: no longer schedulable; its local objects are gone and the
    runtime has already arranged reconstruction (or shared-tier reads)
    for anything stranded there.

This class is deliberately *pure state*: no simulation environment, no
event bus, no side effects beyond the dict it owns.  The runtime's
``add_node`` / ``drain_node`` / ``remove_node`` drive the transitions
and own every mechanism consequence (killing managers, cleaning the
directory, emitting ``cluster.membership`` events).  Keeping the record
inert is what makes elasticity zero-cost when unused -- constructing
one for a static cluster touches nothing observable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.common.ids import NodeId

#: The three lifecycle states a member node moves through.
MEMBER_STATES = ("active", "draining", "removed")


class ClusterMembership:
    """Tracks each node's lifecycle state (active / draining / removed)."""

    def __init__(self, node_ids: Iterable[NodeId]) -> None:
        #: Current state per node, insertion-ordered (founding members
        #: first, joiners after), so iteration order is deterministic.
        self._states: Dict[NodeId, str] = {
            node_id: "active" for node_id in node_ids
        }

    # -- transitions --------------------------------------------------------
    def add(self, node_id: NodeId) -> None:
        """A new node joined the cluster as an active member."""
        if node_id in self._states:
            raise ValueError(f"node {node_id} is already a member")
        self._states[node_id] = "active"

    def drain(self, node_id: NodeId) -> None:
        """Begin a graceful departure: stop placing new work on the node."""
        state = self._require(node_id)
        if state != "active":
            raise ValueError(f"cannot drain node {node_id} in state {state!r}")
        self._states[node_id] = "draining"

    def remove(self, node_id: NodeId) -> None:
        """The node has left (from active or draining)."""
        state = self._require(node_id)
        if state == "removed":
            raise ValueError(f"node {node_id} was already removed")
        self._states[node_id] = "removed"

    def _require(self, node_id: NodeId) -> str:
        state = self._states.get(node_id)
        if state is None:
            raise ValueError(f"node {node_id} is not a cluster member")
        return state

    # -- queries ------------------------------------------------------------
    def is_active(self, node_id: NodeId) -> bool:
        """True while the node is a full, schedulable member."""
        return self._states.get(node_id) == "active"

    def is_draining(self, node_id: NodeId) -> bool:
        """True while the node is leaving gracefully."""
        return self._states.get(node_id) == "draining"

    def is_removed(self, node_id: NodeId) -> bool:
        """True once the node has departed."""
        return self._states.get(node_id) == "removed"

    def schedulable(self, node_id: NodeId) -> bool:
        """True if the scheduler may still *run* work here (active or
        draining -- draining nodes finish their queue but are avoided for
        new placements while any other node remains)."""
        return self._states.get(node_id) in ("active", "draining")

    def active_nodes(self) -> List[NodeId]:
        """Ids of all active members, in join order."""
        return [nid for nid, s in self._states.items() if s == "active"]

    def removed_nodes(self) -> List[NodeId]:
        """Ids of all departed members, in join order."""
        return [nid for nid, s in self._states.items() if s == "removed"]

    def active_count(self) -> int:
        """How many members are active."""
        return len(self.active_nodes())

    def snapshot(self) -> Dict[str, str]:
        """State per node id (stringified), for run summaries and tests."""
        return {str(nid): state for nid, state in self._states.items()}

    def __repr__(self) -> str:
        states = list(self._states.values())
        counts = " ".join(f"{s}={states.count(s)}" for s in MEMBER_STATES)
        return f"<ClusterMembership {counts}>"
