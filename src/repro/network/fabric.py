"""Message transport between nodes.

The fabric is the system-level layer of Figure 2 of the paper: every
inter-process message is *caught* here, which is what lets the protocol
piggyback sequence numbers, queue messages during a checkpoint and count
traffic.  Delivery is reliable ("a sent message will be received in an
arbitrary but finite lapse of time") with per-channel FIFO ordering.

Statistics recorded per message:

* ``net/app/c{i}->c{j}`` -- application message counts per cluster pair
  (Table 1 of the paper),
* ``net/protocol/{kind}`` -- protocol message counts per kind,
* ``net/protocol_inter`` -- protocol messages that crossed clusters,
* ``net/replays`` -- re-sent logged application messages,
* ``net/bytes/app`` / ``net/bytes/protocol`` / ``net/bytes/kind/{kind}``.

:meth:`Fabric.send` runs once per message -- by far the busiest non-kernel
path -- so it works off a *channel table* keyed by the plain int tuple
``(src.cluster, src.node, dst.cluster, dst.node)``.  The first send over a
node pair resolves the destination check, the link's latency and
bandwidth, the channel's FIFO watermark and the bound receiver (handed to
:meth:`Fabric._deliver` as an event argument).  Each channel maps a kind,
through a dict shared by every channel between the same two clusters, to
the accounting record of that (src cluster, dst cluster, kind): direct
references to the live registry counters that kind of send bumps.  A send
then costs one dict hit on an int tuple, one on the kind's value string
and inline ``value +=`` updates, with no ``NodeId`` or ``Enum`` hashing.
Records are built at the first matching send, so metrics spring into
existence exactly when traffic happens: the paper tables (and
``FederationResults.stats``) only contain rows for traffic that did.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import LinkSpec, Topology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import TraceLevel, Tracer

__all__ = ["Fabric"]

Receiver = Callable[[Message], None]

#: enum member reads are slow on the per-message path; read this one once
_MESSAGE_LEVEL = TraceLevel.MESSAGE


class _Channel:
    """Everything a send over one (src, dst) node pair needs, resolved once:
    the link, the FIFO watermark ``last_arrival``, the bound receiver and
    ``records`` (kind value -> accounting record, see :meth:`Fabric._record`),
    one dict shared by every channel between the same two clusters."""

    __slots__ = ("latency", "bandwidth", "last_arrival", "receiver", "records")

    def __init__(self, link: LinkSpec, receiver: Receiver, records: dict):
        self.latency = link.latency
        self.bandwidth = link.bandwidth
        self.last_arrival = -math.inf
        self.receiver = receiver
        self.records = records


class Fabric:
    """Routes messages between registered nodes with modelled delays."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: StatsRegistry,
        tracer: Optional[Tracer] = None,
        fifo: bool = True,
    ):
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.tracer = tracer
        self.fifo = fifo
        self._receivers: dict[NodeId, Receiver] = {}
        self._channels: dict[tuple, _Channel] = {}
        #: (src cluster, dst cluster) -> the records dict its channels share
        self._records: dict[tuple[int, int], dict] = {}

    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, receiver: Receiver) -> None:
        """Attach the receive callback of a node."""
        self.topology.validate_node(node_id)
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} registered twice")
        self._receivers[node_id] = receiver

    def send(self, msg: Message) -> float:
        """Inject a message; returns its scheduled arrival time.

        The arrival time is ``now + latency + size/bandwidth``, pushed later
        if necessary to preserve FIFO order on the (src, dst) channel.
        """
        src = msg.src
        dst = msg.dst
        key = (src.cluster, src.node, dst.cluster, dst.node)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._open(key, src, dst)
        size = msg.size
        if size < 0:
            raise ValueError(f"negative message size {size}")
        sim = self.sim
        now = sim.now
        msg.send_time = now
        # inlined LinkSpec.transfer_delay; the parenthesization must match
        # the original two-step now + transfer_delay(...) computation so
        # arrival times stay bit-identical (float addition isn't associative)
        arrival = now + (chan.latency + (size * 8.0) / chan.bandwidth)
        if self.fifo:
            if arrival < chan.last_arrival:
                arrival = chan.last_arrival
            chan.last_arrival = arrival
        kind = msg.kind
        record = chan.records.get(kind._value_)
        if record is None:
            record = chan.records[kind._value_] = self._record(src.cluster, dst.cluster, kind)
        count, kind_bytes, class_bytes, inter, traced = record
        count.value += 1
        kind_bytes.value += size
        class_bytes.value += size
        if inter is not None:
            inter.value += 1
        tracer = self.tracer
        if traced and tracer is not None and tracer.level >= _MESSAGE_LEVEL:
            tracer.message("send", msg_id=msg.msg_id, src=str(src), dst=str(dst),
                           msg_kind=kind.value, piggyback=msg.piggyback)
        sim.schedule_at(arrival, self._deliver, msg, chan.receiver)
        return arrival

    # ------------------------------------------------------------------
    def _open(self, key: tuple, src: NodeId, dst: NodeId) -> _Channel:
        """First send over a node pair: check it and build its channel."""
        receiver = self._receivers.get(dst)
        if receiver is None:
            raise ValueError(f"message to unregistered node {dst}")
        pair = (src.cluster, dst.cluster)
        records = self._records.get(pair)
        if records is None:
            records = self._records[pair] = {}
        link = self.topology.link_between(*pair)
        chan = self._channels[key] = _Channel(link, receiver, records)
        return chan

    def _record(self, src_cluster: int, dst_cluster: int, kind: MessageKind) -> tuple:
        """The ``(count, kind_bytes, class_bytes, inter, traced)`` record of
        one (src cluster, dst cluster, kind); ``inter`` may be None."""
        counter = self.stats.counter
        kind_bytes = counter(f"net/bytes/kind/{kind.value}")
        inter = None
        if kind is MessageKind.APP:
            count = counter(f"net/app/c{src_cluster}->c{dst_cluster}")
            class_bytes = counter("net/bytes/app")
        elif kind is MessageKind.REPLAY:
            # Replays are re-deliveries of already-counted sends: they are
            # tracked separately so Table-1 style matrices stay clean.
            count = counter("net/replays")
            class_bytes = counter("net/bytes/app")
        else:
            count = counter(f"net/protocol/{kind.value}")
            class_bytes = counter("net/bytes/protocol")
            if src_cluster != dst_cluster:
                inter = counter("net/protocol_inter")
        return (count, kind_bytes, class_bytes, inter, kind.is_app)

    def _deliver(self, msg: Message, receiver: Receiver) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.level >= _MESSAGE_LEVEL and msg.kind.is_app:
            tracer.message("deliver", msg_id=msg.msg_id, src=str(msg.src),
                           dst=str(msg.dst), msg_kind=msg.kind.value)
        receiver(msg)

    # ------------------------------------------------------------------
    def app_message_count(self, src_cluster: int, dst_cluster: int) -> int:
        """Application messages sent from one cluster to another (Table 1)."""
        name = f"net/app/c{src_cluster}->c{dst_cluster}"
        return self.stats.counter(name).value if name in self.stats else 0

    def app_message_matrix(self) -> dict[tuple[int, int], int]:
        """Full cluster-pair application message count matrix."""
        n = self.topology.n_clusters
        return {
            (i, j): self.app_message_count(i, j)
            for i in range(n)
            for j in range(n)
        }

    def protocol_message_count(self, kind: Optional[MessageKind] = None) -> int:
        """Protocol message count, optionally for a single kind."""
        if kind is not None:
            name = f"net/protocol/{kind.value}"
            return self.stats.counter(name).value if name in self.stats else 0
        total = 0
        for k in MessageKind:
            if not k.is_app:
                total += self.protocol_message_count(k)
        return total
