"""The HC3I hierarchical checkpointing protocol (§3 of the paper).

Structure:

* :class:`Hc3iClusterState` -- shared per-cluster protocol state (SN, DDV,
  CLC store, sender log, incarnation bookkeeping),
* :class:`ClcCoordinator` -- the two-phase commit engine of one cluster,
  hosted by the cluster leader's agent (the paper's "initiator node"),
* :class:`Hc3iNodeAgent` -- per-node behaviour: piggybacking SNs on
  inter-cluster sends, sender-side logging, the forced-CLC decision on
  reception, freezing during 2PC windows, delivery-after-commit and
  acknowledgements,
* :class:`Hc3iProtocol` -- glues the above with the rollback manager
  (:mod:`repro.core.rollback`) and the garbage collector
  (:mod:`repro.core.garbage`).

Protocol options (``protocol_options`` in the scenario):

``mode``
    ``"sn"`` (paper default: piggyback the sender SN),
    ``"ddv"`` (§7 extension: piggyback the whole DDV, transitive
    dependency tracking), or ``"always"`` (strawman of Fig. 4: force a CLC
    on *every* inter-cluster message).
``replay_enabled``
    ``True`` (paper): replay logged messages on receiver rollback.
    ``False`` (ablation): the sender's cluster rolls back instead.
``replication_degree``
    number of neighbour copies of each node state (paper: 1).
``gc_mode``
    ``"centralized"`` (paper) or ``"distributed"`` (§7 extension,
    token-ring).

Incarnation numbers: the paper's research report is not public, so one
mechanism is filled in explicitly -- every rollback increments the cluster's
*rollback epoch*, which is piggybacked (with the SN) on inter-cluster
messages and carried on alerts.  A message sent before a rollback that
erased its send (a *ghost*) is recognized and dropped by the receiver by
comparing its epoch and SN against the recorded alerts.  This is the
standard incarnation-number technique from optimistic message logging and is
behaviourally neutral in failure-free runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.clc import CheckpointCause, CheckpointRecord
from repro.core.ddv import DDV
from repro.core.protocol import BaseProtocol, ClusterView, NodeAgent, register_protocol
from repro.network.message import Message, MessageKind, NodeId
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = [
    "Hc3iClusterState",
    "Hc3iNodeAgent",
    "Hc3iOptions",
    "Hc3iProtocol",
    "PendingDelivery",
    "Piggyback",
]

#: base size in bytes of a protocol control message
CONTROL_SIZE = 64
#: extra bytes piggybacked on an inter-cluster app message in "sn" mode
SN_PIGGYBACK_SIZE = 12


@dataclass(frozen=True)
class Piggyback:
    """Metadata added to every inter-cluster application message.

    ``sn`` is the sender cluster's sequence number at send time ("The
    current cluster's sequence number is piggy-backed on each inter-cluster
    application message", §3.2).  In transitive mode ``ddv`` carries the
    whole vector instead.  ``epoch`` is the sender's rollback incarnation.
    """

    sn: int
    epoch: int
    ddv: Optional[tuple] = None

    def entry_for(self, cluster: int) -> int:
        """Effective dependency this message creates on ``cluster``."""
        if self.ddv is not None:
            return self.ddv[cluster]
        return self.sn


@dataclass
class PendingDelivery:
    """An inter-cluster message queued until its forced CLC commits."""

    msg: Message
    updates: dict                 #: DDV entries this message must raise
    ack_sn: int                   #: ack value fixed at arrival: SN + 1
    created_sn: int               #: cluster SN when the message was queued
    force_required: bool = False  #: "always" mode: commit needed even w/o updates


class Hc3iClusterState(ClusterView):
    """Shared HC3I state of one cluster (see ClusterView for the basics)."""

    def __init__(self, index: int, n_clusters: int):
        super().__init__(index, n_clusters)
        #: newest rollback epoch heard from each cluster (own entry = own)
        self.known_epochs = [0] * n_clusters
        #: per source cluster: [(new_epoch, restored_sn)] of its rollbacks,
        #: used to recognize ghost messages from erased epochs
        self.ghost_cuts: list = [[] for _ in range(n_clusters)]
        #: SN of the record being restored while ``recovering``
        self.restore_target_sn: Optional[int] = None

    def record_alert(self, faulty: int, alert_sn: int, new_epoch: int) -> None:
        if new_epoch > self.known_epochs[faulty]:
            self.known_epochs[faulty] = new_epoch
            self.ghost_cuts[faulty].append((new_epoch, alert_sn))

    def is_ghost(self, src_cluster: int, piggy: Piggyback) -> bool:
        """Was this message's send erased by a rollback of its sender?"""
        value = piggy.entry_for(src_cluster)
        for new_epoch, restored_sn in self.ghost_cuts[src_cluster]:
            if new_epoch > piggy.epoch and restored_sn <= value:
                return True
        return False


@dataclass
class Hc3iOptions:
    """Parsed protocol options with defaults matching the paper.

    ``incremental`` enables incremental stable storage: after a node's
    first full replica, subsequent CLCs ship only a delta of
    ``incremental_fraction`` x the state size to the neighbour(s).  A
    cluster rollback invalidates the delta chain (the base state lineage
    changed), so the next replica after a rollback is full again.
    """

    mode: str = "sn"
    replay_enabled: bool = True
    replication_degree: int = 1
    gc_mode: str = "centralized"
    control_size: int = CONTROL_SIZE
    incremental: bool = False
    incremental_fraction: float = 0.2

    @classmethod
    def from_dict(cls, data: dict) -> "Hc3iOptions":
        opts = cls(
            mode=data.get("mode", "sn"),
            replay_enabled=data.get("replay_enabled", True),
            replication_degree=data.get("replication_degree", 1),
            gc_mode=data.get("gc_mode", "centralized"),
            control_size=data.get("control_size", CONTROL_SIZE),
            incremental=data.get("incremental", False),
            incremental_fraction=data.get("incremental_fraction", 0.2),
        )
        if opts.mode not in ("sn", "ddv", "always"):
            raise ValueError(f"unknown HC3I mode {opts.mode!r}")
        if opts.replication_degree < 0:
            raise ValueError("replication_degree must be >= 0")
        if opts.gc_mode not in ("centralized", "distributed"):
            raise ValueError(f"unknown gc_mode {opts.gc_mode!r}")
        if not (0.0 < opts.incremental_fraction <= 1.0):
            raise ValueError("incremental_fraction must be in (0, 1]")
        return opts


class ClcCoordinator:
    """Two-phase commit engine of one cluster (runs at the leader).

    §3.1: "An initiator node broadcasts (in its cluster) a CLC request.
    All the cluster nodes acknowledge the request, then the initiator node
    broadcasts a commit.  Between the request and the commit messages,
    application messages are queued."

    One round at a time; forced-CLC requests arriving during an active
    round are accumulated and served by the immediately following round.
    """

    IDLE = "idle"
    COLLECTING = "collecting"

    def __init__(self, protocol: "Hc3iProtocol", cluster_index: int):
        self.protocol = protocol
        self.cluster = cluster_index
        self.cs = protocol.cluster_states[cluster_index]
        self.phase = self.IDLE
        self.round_updates: dict = {}
        self.round_force = False
        self.round_cause = CheckpointCause.TIMER
        self._acks_pending: set = set()
        self._snapshots: list = []
        self.pending_request = False
        self.pending_updates: dict = {}
        self.pending_force = False
        self.pending_cause = CheckpointCause.TIMER
        period = protocol.federation.timers.clc_period_for(cluster_index)
        self.timer = PeriodicTimer(
            protocol.sim, period, self._timer_fired, name=f"clc-c{cluster_index}"
        )

    # ------------------------------------------------------------------
    @property
    def leader(self) -> "Node":
        return self.protocol.federation.clusters[self.cluster].leader

    def _timer_fired(self) -> None:
        # "timer interruptions" appear at the paper's highest trace level
        tracer = self.protocol.tracer
        if tracer.level >= TraceLevel.DEBUG:  # skip building the record
            tracer.debug("clc_timer_fired", cluster=self.cluster)
        if self.cs.recovering:
            return
        if self.phase != self.IDLE or self.pending_request:
            return  # a CLC is being established right now anyway
        self.initiate(CheckpointCause.TIMER)

    def initiate(
        self,
        cause: CheckpointCause,
        updates: Optional[dict] = None,
        force: bool = False,
    ) -> None:
        """Ask for a CLC; merged with other pending requests."""
        if updates:
            for k, v in updates.items():
                if v > self.pending_updates.get(k, -1):
                    self.pending_updates[k] = v
        self.pending_force = self.pending_force or force or bool(updates)
        if self.pending_force:
            self.pending_cause = CheckpointCause.FORCED
        elif not self.pending_request:
            self.pending_cause = cause
        self.pending_request = True
        if self.phase == self.IDLE and not self.cs.recovering:
            self._begin_round()

    def scrub(self, faulty: int, alert_sn: int) -> None:
        """Drop DDV updates that a rollback of ``faulty`` just erased."""
        for updates in (self.pending_updates, self.round_updates):
            v = updates.get(faulty)
            if v is not None and v >= alert_sn:
                del updates[faulty]

    def abort(self) -> None:
        """A rollback cancels any in-flight round and pending requests."""
        self.phase = self.IDLE
        self.round_updates = {}
        self.round_force = False
        self._acks_pending.clear()
        self._snapshots = []
        self.pending_request = False
        self.pending_updates = {}
        self.pending_force = False

    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        cs = self.cs
        self.phase = self.COLLECTING
        self.round_updates = self.pending_updates
        self.round_force = self.pending_force
        self.round_cause = self.pending_cause
        self.pending_request = False
        self.pending_updates = {}
        self.pending_force = False
        self.pending_cause = CheckpointCause.TIMER
        self._snapshots = []

        cluster = self.protocol.federation.clusters[self.cluster]
        leader = cluster.leader
        leader_agent = leader.agent
        assert isinstance(leader_agent, Hc3iNodeAgent)
        # The leader participates locally: freeze, save state, snapshot.
        leader_agent.in_round = True
        self._snapshots.append((leader.id.node, tuple(leader_agent.pending_force)))
        leader_agent.send_replicas()

        others = [n for n in cluster.nodes if n is not leader]
        self._acks_pending = {n.id.node for n in others}
        size = self.protocol.options.control_size
        send, kind = leader.send_raw, MessageKind.CLC_REQUEST
        for n in others:
            send(n.id, kind, size=size)
        if not self._acks_pending:
            self._commit()

    def on_ack(self, msg: Message) -> None:
        if self.phase != self.COLLECTING:
            return  # stale ack from an aborted round
        node_idx = msg.src.node
        if node_idx not in self._acks_pending:
            return
        self._acks_pending.discard(node_idx)
        self._snapshots.append((node_idx, msg.payload["snapshot"]))
        if not self._acks_pending:
            self._commit()

    def _commit(self) -> None:
        cs = self.cs
        new_sn = cs.sn + 1
        new_ddv = DDV(cs.ddv).merged(self.round_updates).with_entry(cs.index, new_sn)
        queued = tuple(
            (node_idx, entry)
            for node_idx, snapshot in self._snapshots
            for entry in snapshot
        )
        n_nodes = self.protocol.federation.topology.nodes_in(self.cluster)
        state_size = self.protocol.federation.timers.node_state_size
        record = CheckpointRecord(
            sn=new_sn,
            ddv=new_ddv,
            time=self.protocol.sim.now,
            cause=self.round_cause,
            cluster=self.cluster,
            delivered_ids=frozenset(cs.delivered_ids),
            state_bytes=n_nodes * state_size,
            queued=queued,
        )
        cs.store.add(record)
        cs.sn = new_sn
        cs.ddv = list(new_ddv)
        cs.state_dirty = False
        self.phase = self.IDLE
        self.protocol.note_commit(self.cluster, record)

        # Phase 2: commit broadcast; the leader applies locally right away.
        size = self.protocol.options.control_size + 8 * cs.n_clusters
        cluster = self.protocol.federation.clusters[self.cluster]
        leader = cluster.leader
        send, kind = leader.send_raw, MessageKind.CLC_COMMIT
        for n in cluster.nodes:
            if n is not leader:
                send(n.id, kind, size=size, payload={"sn": new_sn})
        leader_agent = leader.agent
        assert isinstance(leader_agent, Hc3iNodeAgent)
        leader_agent.apply_commit()

        self.timer.reset()
        if self.pending_request and not self.cs.recovering:
            # Serve the requests accumulated during this round immediately.
            self.protocol.sim.schedule(0.0, self._begin_if_pending)

    def _begin_if_pending(self) -> None:
        if self.phase == self.IDLE and self.pending_request and not self.cs.recovering:
            self._begin_round()


class Hc3iNodeAgent(NodeAgent):
    """Per-node HC3I endpoint."""

    def __init__(self, protocol: "Hc3iProtocol", node: "Node"):
        super().__init__(protocol, node)
        self.cs: Hc3iClusterState = protocol.cluster_states[node.id.cluster]
        #: this cluster's 2PC engine (agents are built after the coordinators)
        self.coordinator: ClcCoordinator = protocol.coordinators[node.id.cluster]
        #: lazily-resolved hc3i/c{i}/log_entries gauge (hot: every logged send)
        self._log_gauge = None
        #: between CLC request and CLC commit: application messages queued
        self.in_round = False
        #: application sends queued during a freeze window
        self.queued_out: list = []
        #: inter-cluster arrivals deferred (freeze window or recovery)
        self.deferred_in: list = []
        #: messages waiting for their forced CLC to commit
        self.pending_force: list = []
        #: incremental stable storage: True once a full replica was shipped
        self.replicated_full = False

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def app_send(self, dst: NodeId, size: int, payload: Optional[dict] = None) -> None:
        if not self.node.up:
            return  # fail-stop: a failed node sends nothing
        if self.in_round or self.cs.recovering:
            self.queued_out.append((dst, size, payload))
            return
        self._send_app_now(dst, size, payload)

    def _send_app_now(self, dst: NodeId, size: int, payload: Optional[dict]) -> None:
        cs = self.cs
        opts = self.protocol.options
        piggyback = None
        if dst.cluster != cs.index:
            if opts.mode == "ddv":
                piggyback = Piggyback(
                    sn=cs.sn, epoch=cs.rollback_epoch, ddv=cs.ddv_tuple()
                )
                size += 4 + 8 * cs.n_clusters
            else:
                piggyback = Piggyback(sn=cs.sn, epoch=cs.rollback_epoch)
                size += SN_PIGGYBACK_SIZE
        msg = Message(
            src=self.node.id, dst=dst, kind=MessageKind.APP, size=size,
            payload=payload or {}, piggyback=piggyback,
        )
        if piggyback is not None:
            entry = cs.sent_log.add(msg, send_sn=cs.sn)
            entry.epoch = cs.rollback_epoch  # type: ignore[attr-defined]
            cs.state_dirty = True
            gauge = self._log_gauge
            if gauge is None:
                gauge = self._log_gauge = self.protocol.stats.gauge(
                    f"hc3i/c{cs.index}/log_entries"
                )
            gauge.set(len(cs.sent_log))
        self.protocol.federation.fabric.send(msg)

    def send_replicas(self) -> None:
        """Stable storage: copy this node's state to its ring successors.

        With ``incremental`` enabled only the first replica after a
        (re)start or rollback carries the full state; later ones carry a
        delta sized ``incremental_fraction`` x the state.
        """
        opts = self.protocol.options
        degree = opts.replication_degree
        cluster = self.protocol.federation.clusters[self.cs.index]
        n = len(cluster.nodes)
        state_size = self.protocol.federation.timers.node_state_size
        size = state_size
        if opts.incremental and self.replicated_full:
            size = max(1, int(state_size * opts.incremental_fraction))
        for k in range(1, min(degree, n - 1) + 1):
            neighbour = cluster.nodes[(self.node.id.node + k) % n]
            self.node.send_raw(neighbour.id, MessageKind.REPLICA, size=size)
        if degree > 0 and n > 1:
            self.replicated_full = True

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_receive(self, msg: Message) -> None:
        kind = msg.kind
        if kind is MessageKind.APP or kind is MessageKind.REPLAY:
            if msg.src.cluster != msg.dst.cluster:
                self._on_inter_arrival(msg)
            else:
                self.node.deliver_app(msg)
            return
        if kind is MessageKind.CLC_REQUEST:
            self._on_clc_request()
        elif kind is MessageKind.CLC_ACK:
            self.coordinator.on_ack(msg)
        elif kind is MessageKind.CLC_COMMIT:
            self.apply_commit()
        elif kind is MessageKind.CLC_INITIATE:
            self.coordinator.initiate(
                CheckpointCause.FORCED,
                updates=msg.payload.get("updates"),
                force=msg.payload.get("force", False),
            )
        elif kind is MessageKind.INTER_ACK:
            self.cs.sent_log.ack(msg.payload["msg_id"], msg.payload["ack_sn"])
        elif kind is MessageKind.REPLICA:
            pass  # accounted by the fabric; content is abstract state
        elif kind is MessageKind.ALERT:
            self.protocol.on_alert_message(self.node, msg)
        elif kind is MessageKind.ALERT_LOCAL:
            pass  # intra-cluster fan-out of an alert (accounting only)
        elif kind in (
            MessageKind.GC_REQUEST,
            MessageKind.GC_RESPONSE,
            MessageKind.GC_COLLECT,
            MessageKind.GC_LOCAL,
        ):
            self.protocol.garbage_collector.on_message(self.node, msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled message kind {kind}")

    # -- inter-cluster application messages -----------------------------
    def _on_inter_arrival(self, msg: Message) -> None:
        if self.in_round or self.cs.recovering:
            self.deferred_in.append(msg)
            return
        self.handle_inter(msg)

    def handle_inter(self, msg: Message) -> None:
        """The communication-induced checkpointing decision (§3.2)."""
        cs = self.cs
        piggy: Piggyback = msg.piggyback
        src = msg.src.cluster
        if cs.is_ghost(src, piggy):
            self.protocol.stats.counter("hc3i/ghosts_dropped").inc()
            tracer = self.protocol.tracer
            if tracer.level >= TraceLevel.PROTOCOL:
                tracer.protocol(
                    "ghost_dropped", cluster=cs.index, msg_id=msg.msg_id, src=src
                )
            return
        if msg.msg_id in cs.delivered_ids:
            # Duplicate (replay raced an in-flight original). Re-ack
            # conservatively; the delivery is captured by the next CLC at
            # the latest.
            self.protocol.stats.counter("hc3i/duplicates").inc()
            self._send_ack(msg, cs.sn + 1)
            return

        updates = self._required_updates(piggy, src)
        force_required = self.protocol.options.mode == "always"
        ack_sn = cs.sn + 1
        if updates or force_required:
            entry = PendingDelivery(
                msg=msg,
                updates=updates,
                ack_sn=ack_sn,
                created_sn=cs.sn,
                force_required=force_required,
            )
            self.pending_force.append(entry)
            tracer = self.protocol.tracer
            if tracer.level >= TraceLevel.PROTOCOL:
                tracer.protocol(
                    "force_requested",
                    cluster=cs.index,
                    msg_id=msg.msg_id,
                    src=src,
                    updates=dict(updates),
                )
            self._request_force(updates, force_required)
        else:
            self.deliver_now(msg, ack_sn)

    def _required_updates(self, piggy: Piggyback, src: int) -> dict:
        cs = self.cs
        if self.protocol.options.mode == "ddv" and piggy.ddv is not None:
            return {
                i: v
                for i, v in enumerate(piggy.ddv)
                if i != cs.index and v > cs.ddv[i]
            }
        if piggy.sn > cs.ddv[src]:
            return {src: piggy.sn}
        return {}

    def _request_force(self, updates: dict, force: bool) -> None:
        coordinator = self.coordinator
        if self.node.id == coordinator.leader.id:
            coordinator.initiate(CheckpointCause.FORCED, updates=updates, force=force)
        else:
            size = self.protocol.options.control_size + 8 * len(updates)
            self.node.send_raw(
                coordinator.leader.id,
                MessageKind.CLC_INITIATE,
                size=size,
                payload={"updates": dict(updates), "force": force},
            )

    def deliver_now(self, msg: Message, ack_sn: int) -> None:
        cs = self.cs
        cs.delivered_ids.add(msg.msg_id)
        cs.state_dirty = True
        self.node.deliver_app(msg)
        self._send_ack(msg, ack_sn)
        tracer = self.protocol.tracer
        if tracer.level >= TraceLevel.PROTOCOL:
            tracer.protocol(
                "inter_delivered", cluster=cs.index, msg_id=msg.msg_id, ack_sn=ack_sn
            )

    def _send_ack(self, msg: Message, ack_sn: int) -> None:
        self.node.send_raw(
            msg.src,
            MessageKind.INTER_ACK,
            size=self.protocol.options.control_size,
            payload={"msg_id": msg.msg_id, "ack_sn": ack_sn},
        )

    # -- 2PC participant --------------------------------------------------
    def _on_clc_request(self) -> None:
        self.in_round = True
        self.send_replicas()
        coordinator = self.coordinator
        self.node.send_raw(
            coordinator.leader.id,
            MessageKind.CLC_ACK,
            size=self.protocol.options.control_size,
            payload={"snapshot": tuple(self.pending_force)},
        )

    def apply_commit(self) -> None:
        """Unfreeze after a commit; deliver satisfied queued messages."""
        self.in_round = False
        self.flush_queued_out()
        self.evaluate_pending()
        self.process_deferred()

    def flush_queued_out(self) -> None:
        queued, self.queued_out = self.queued_out, []
        for dst, size, payload in queued:
            self._send_app_now(dst, size, payload)

    def evaluate_pending(self) -> None:
        cs = self.cs
        still: list = []
        for entry in self.pending_force:
            residual = {i: v for i, v in entry.updates.items() if v > cs.ddv[i]}
            satisfied = not residual and (
                not entry.force_required or cs.sn > entry.created_sn
            )
            if satisfied:
                if entry.msg.msg_id in cs.delivered_ids:
                    continue  # already delivered (e.g. replay raced requeue)
                self.deliver_now(entry.msg, entry.ack_sn)
            else:
                # entry.updates is never mutated: the same PendingDelivery
                # object may be shared with CLC snapshots, which a rollback
                # can restore verbatim.
                still.append(entry)
        self.pending_force = still

    def process_deferred(self) -> None:
        while self.deferred_in and not self.in_round and not self.cs.recovering:
            self.handle_inter(self.deferred_in.pop(0))

    # -- failure bookkeeping ----------------------------------------------
    def on_node_failed(self) -> None:
        # Volatile state of the crashed node is lost; its queued output
        # and frozen round membership die with it.  The pending_force
        # entries conceptually live in the (stable) CLC snapshots and are
        # restored by the rollback.
        self.queued_out = []
        self.in_round = False

    def drop_ghost_input(self, faulty: int) -> None:
        """Remove queued/deferred messages whose sends were just erased."""
        cs = self.cs
        self.pending_force = [
            e
            for e in self.pending_force
            if not cs.is_ghost(e.msg.src.cluster, e.msg.piggyback)
        ]
        self.deferred_in = [
            m
            for m in self.deferred_in
            if not cs.is_ghost(m.src.cluster, m.piggyback)
        ]


@register_protocol("hc3i")
class Hc3iProtocol(BaseProtocol):
    """The full hierarchical protocol wired to a federation."""

    def __init__(self, federation, options: Optional[dict] = None):
        super().__init__(federation, options)
        self.options: Hc3iOptions = Hc3iOptions.from_dict(self.options)
        n = federation.topology.n_clusters
        self.cluster_states = [Hc3iClusterState(i, n) for i in range(n)]
        self.coordinators = [ClcCoordinator(self, i) for i in range(n)]
        from repro.core.rollback import Hc3iRecoveryManager
        from repro.core.garbage import make_garbage_collector

        self.recovery = Hc3iRecoveryManager(self)
        self.garbage_collector = make_garbage_collector(self)

    # ------------------------------------------------------------------
    def make_agent(self, node: "Node") -> Hc3iNodeAgent:
        return Hc3iNodeAgent(self, node)

    def start(self) -> None:
        """§4: "each cluster stores a first CLC which is the beginning of
        the application"; then the per-cluster unforced-CLC timers run."""
        for coordinator in self.coordinators:
            coordinator.initiate(CheckpointCause.INITIAL)
            coordinator.timer.start()
        self.garbage_collector.start()

    def on_failure_detected(self, node: "Node") -> None:
        self.recovery.on_failure_detected(node)

    def request_checkpoint(self, cluster: int) -> None:
        """Programmatic CLC (examples, tests, memory-pressure handlers)."""
        self.coordinators[cluster].initiate(CheckpointCause.MANUAL)

    def collect_garbage(self) -> None:
        """Run a garbage collection round now ("periodically, or when a
        node memory saturates, a garbage collection is initiated", §3.5)."""
        self.garbage_collector.collect_now()

    def on_alert_message(self, node: "Node", msg: Message) -> None:
        """An ALERT reached this cluster: fan out locally, then handle."""
        cluster = self.federation.clusters[node.id.cluster]
        size = self.options.control_size
        for other in cluster.nodes:
            if other.id != node.id:
                node.send_raw(other.id, MessageKind.ALERT_LOCAL, size=size)
        self.recovery.on_alert(
            node.id.cluster,
            faulty=msg.payload["faulty"],
            alert_sn=msg.payload["sn"],
            faulty_epoch=msg.payload["epoch"],
        )

    # ------------------------------------------------------------------
    def note_commit(self, cluster: int, record: CheckpointRecord) -> None:
        stats = self.stats
        cause = record.cause.value
        stats.counter(f"clc/c{cluster}/{cause}").inc()
        stats.counter(f"clc/c{cluster}/total").inc()
        store = self.cluster_states[cluster].store
        stats.gauge(f"clc/c{cluster}/stored").set(len(store))
        stats.gauge(f"clc/c{cluster}/stored_bytes").set(store.total_state_bytes())
        self.tracer.protocol(
            "clc_commit",
            cluster=cluster,
            sn=record.sn,
            cause=cause,
            ddv=record.ddv.as_tuple(),
        )
        # §3.5: "Periodically, or when a node memory saturates, a garbage
        # collection is initiated."  Per-node occupancy = per-node share of
        # the cluster's checkpoints times (1 + replication degree).
        threshold = self.federation.timers.gc_memory_threshold
        if threshold is not None:
            nodes = self.federation.topology.nodes_in(cluster)
            per_node = (
                store.total_state_bytes()
                * (1 + self.options.replication_degree)
                // max(1, nodes)
            )
            if per_node > threshold:
                self.stats.counter("gc/pressure_triggers").inc()
                self.garbage_collector.collect_now()

    def cluster_summary(self, cluster: int) -> dict:
        cs = self.cluster_states[cluster]
        stats = self.stats
        def count(name: str) -> int:
            full = f"clc/c{cluster}/{name}"
            return stats.counter(full).value if full in stats else 0

        return {
            "sn": cs.sn,
            "ddv": cs.ddv_tuple(),
            "clc_initial": count("initial"),
            "clc_unforced": count("timer"),
            "clc_forced": count("forced"),
            "clc_total": count("total"),
            "clc_stored": len(cs.store),
            "log_entries": len(cs.sent_log),
            "log_bytes": cs.sent_log.bytes,
            "log_max_entries": cs.sent_log.max_entries,
            "rollback_epoch": cs.rollback_epoch,
        }
