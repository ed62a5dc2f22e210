"""Message envelopes and node addressing.

Every exchange in the simulation -- application payloads, checkpoint
two-phase-commit control traffic, acknowledgements, rollback alerts, garbage
collection rounds -- travels as a :class:`Message` through the
:class:`~repro.network.fabric.Fabric`, so network statistics capture the
*protocol overhead* the paper evaluates, not only application traffic.

Both classes here sit on the per-message hot path (one :class:`Message`
per send, whose :class:`NodeId` endpoints the fabric reads), so they are
hand-written ``__slots__`` classes rather than dataclasses: no instance
``__dict__``, no generated-method indirection, and ``NodeId`` caches its
hash at construction for the protocols' per-node dicts and sets.  The
fabric keys its channels by plain ``(cluster, node)`` ints instead, so a
send hashes no ``NodeId`` at all.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

__all__ = ["Message", "MessageKind", "NodeId"]


class NodeId:
    """Address of a node: cluster index + node index within the cluster.

    Value object: equality, ordering and hashing follow the
    ``(cluster, node)`` pair.  Treat instances as immutable -- the hash is
    computed once at construction.
    """

    __slots__ = ("cluster", "node", "_hash")

    def __init__(self, cluster: int, node: int):
        self.cluster = cluster
        self.node = node
        # Cached for __hash__ below; only used for process-local dict/set
        # placement, never ordered or persisted, so PYTHONHASHSEED
        # variance cannot leak out.
        self._hash = hash((cluster, node))  # repro-lint: ignore[DET002] -- __hash__ cache, placement only

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeId):
            return self.cluster == other.cluster and self.node == other.node
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, NodeId):
            return self.cluster != other.cluster or self.node != other.node
        return NotImplemented

    def __lt__(self, other: "NodeId") -> bool:
        if isinstance(other, NodeId):
            return (self.cluster, self.node) < (other.cluster, other.node)
        return NotImplemented

    def __le__(self, other: "NodeId") -> bool:
        if isinstance(other, NodeId):
            return (self.cluster, self.node) <= (other.cluster, other.node)
        return NotImplemented

    def __gt__(self, other: "NodeId") -> bool:
        if isinstance(other, NodeId):
            return (self.cluster, self.node) > (other.cluster, other.node)
        return NotImplemented

    def __ge__(self, other: "NodeId") -> bool:
        if isinstance(other, NodeId):
            return (self.cluster, self.node) >= (other.cluster, other.node)
        return NotImplemented

    def __str__(self) -> str:
        return f"c{self.cluster}n{self.node}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeId(cluster={self.cluster}, node={self.node})"

    def __reduce__(self):
        return (NodeId, (self.cluster, self.node))


class MessageKind(enum.Enum):
    """What a message carries; determines accounting and routing."""

    APP = "app"                    #: application payload
    CLC_REQUEST = "clc_request"    #: 2PC phase 1: checkpoint request broadcast
    CLC_ACK = "clc_ack"            #: 2PC phase 1: participant acknowledgement
    CLC_COMMIT = "clc_commit"      #: 2PC phase 2: commit broadcast
    CLC_INITIATE = "clc_initiate"  #: node asks its cluster coordinator to force a CLC
    REPLICA = "replica"            #: checkpoint state copied to a neighbour (stable storage)
    INTER_ACK = "inter_ack"        #: ack of an inter-cluster app message, carries receiver SN
    ALERT = "alert"                #: rollback alert, carries faulty cluster + new SN
    ALERT_LOCAL = "alert_local"    #: intra-cluster re-broadcast of an alert
    REPLAY = "replay"              #: re-sent logged inter-cluster app message
    GC_REQUEST = "gc_request"      #: GC phase 1: ask a cluster for its DDV lists
    GC_RESPONSE = "gc_response"    #: GC phase 1: the DDV lists
    GC_COLLECT = "gc_collect"      #: GC phase 2: vector of smallest SNs
    GC_LOCAL = "gc_local"          #: intra-cluster broadcast of the GC collect vector
    HEARTBEAT = "heartbeat"        #: liveness probe for the failure detector

    @property
    def is_app(self) -> bool:
        """True for traffic the application generated (incl. replays)."""
        return self in (MessageKind.APP, MessageKind.REPLAY)


_msg_ids = itertools.count(1)


class Message:
    """A message in flight (or logged).

    ``piggyback`` holds the protocol metadata added by HC3I to inter-cluster
    application messages: the sender cluster's SN (or, in transitive mode,
    its whole DDV).  ``payload`` is free-form protocol/application data.
    ``size`` is the on-wire size in bytes used by the delay model (piggyback
    overhead should already be included by the sender).

    Messages compare and hash by *identity* (each in-flight message is one
    object); dedupe against ``msg_id``, never against whole messages.
    """

    __slots__ = ("src", "dst", "kind", "size", "payload", "piggyback",
                 "msg_id", "send_time")

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        kind: MessageKind,
        size: int,
        payload: Optional[dict] = None,
        piggyback: Optional[Any] = None,
        msg_id: Optional[int] = None,
        send_time: float = 0.0,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        self.payload = {} if payload is None else payload
        self.piggyback = piggyback
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        self.send_time = send_time

    @property
    def inter_cluster(self) -> bool:
        return self.src.cluster != self.dst.cluster

    def clone_for_replay(self) -> "Message":
        """Copy of this message for re-sending after a receiver rollback.

        Keeps the original ``msg_id`` so the receiver can deduplicate
        against a still-in-flight original, and the original piggyback so
        the dependency information is preserved.
        """
        return Message(
            src=self.src,
            dst=self.dst,
            kind=MessageKind.REPLAY,
            size=self.size,
            payload=dict(self.payload),
            piggyback=self.piggyback,
            msg_id=self.msg_id,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Msg#{self.msg_id} {self.kind.value} {self.src}->{self.dst} "
            f"size={self.size} piggyback={self.piggyback}>"
        )
