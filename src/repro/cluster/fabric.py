"""The cluster object: nodes wired together by a network fabric.

Transfers between nodes occupy the sender's egress NIC and the receiver's
ingress NIC; completion requires both, so whichever side is more contended
becomes the bottleneck.  Same-node "transfers" are free (the object store
provides zero-copy shared-memory reads, §4.2.1).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.common.ids import IdGenerator, NodeId
from repro.cluster.node import Node
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.simcore import Environment, Event


class NodeFailure(Exception):
    """Raised into processes running on (or transferring via) a dead node."""

    def __init__(self, node_id: NodeId) -> None:
        super().__init__(f"node {node_id} failed")
        self.node_id = node_id


class LinkDown(IOError):
    """A transfer was attempted over an administratively-dropped link.

    Subclasses :class:`IOError` so the data plane's fetch-retry paths
    treat a dropped link exactly like any other transient I/O fault:
    back off and try again (possibly from another source).
    """

    def __init__(self, src: NodeId, dst: NodeId) -> None:
        super().__init__(f"link {src} -> {dst} is down")
        self.src = src
        self.dst = dst


class Cluster:
    """All nodes plus the fabric connecting them."""

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        ids: Optional[IdGenerator] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.ids = ids or IdGenerator()
        self._nodes: Dict[NodeId, Node] = {}
        for node_spec in spec.nodes:
            node_id = self.ids.next_node_id()
            self._nodes[node_id] = Node(env, node_id, node_spec)
        # Cumulative fabric statistics.
        self.network_bytes_sent = 0
        # Directed node pairs whose link is administratively down (the
        # chaos layer's LINK_DOWN fault); transfers over them fail with
        # :class:`LinkDown` until restored.
        self._down_links: Set[Tuple[NodeId, NodeId]] = set()

    # -- topology -----------------------------------------------------------
    @property
    def node_ids(self) -> List[NodeId]:
        return list(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node(self, node_id: NodeId) -> Node:
        """Look a node up by id."""
        return self._nodes[node_id]

    def alive_nodes(self) -> List[Node]:
        """The nodes currently up."""
        return [node for node in self._nodes.values() if node.alive]

    def add_node(self, node_spec: NodeSpec) -> Node:
        """Provision a new node mid-run (cluster elasticity).

        Mints a fresh node id from the cluster's id generator, creates
        the node, and registers it in the fabric so transfers to and
        from it work immediately.  The caller (the runtime's
        ``add_node``) is responsible for the control-plane side: a node
        manager, death listeners, and membership state.
        """
        node_id = self.ids.next_node_id()
        node = Node(self.env, node_id, node_spec)
        self._nodes[node_id] = node
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    # -- link administration (chaos hooks) ----------------------------------
    def set_link_down(self, src: NodeId, dst: NodeId) -> None:
        """Drop the directed link ``src -> dst`` (idempotent)."""
        self._down_links.add((src, dst))

    def set_link_up(self, src: NodeId, dst: NodeId) -> None:
        """Restore the directed link ``src -> dst`` (idempotent)."""
        self._down_links.discard((src, dst))

    # -- data movement --------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, nbytes: int) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; completes when both
        NIC directions have carried the payload."""
        if src == dst:
            done = self.env.event()
            done.succeed()
            return done
        src_node, dst_node = self._nodes[src], self._nodes[dst]
        if not src_node.alive:
            return self._failed_event(src)
        if not dst_node.alive:
            return self._failed_event(dst)
        if (src, dst) in self._down_links:
            event = self.env.event()
            event.fail(LinkDown(src, dst))
            return event
        self.network_bytes_sent += nbytes
        egress = src_node.nic_out.transfer(nbytes)
        ingress = dst_node.nic_in.transfer(nbytes)
        return self.env.all_of([egress, ingress])

    def _failed_event(self, node_id: NodeId) -> Event:
        event = self.env.event()
        event.fail(NodeFailure(node_id))
        return event

    # -- construction helpers ---------------------------------------------
    @classmethod
    def homogeneous(
        cls, env: Environment, node_spec: NodeSpec, count: int
    ) -> "Cluster":
        return cls(env, ClusterSpec.homogeneous(node_spec, count))
