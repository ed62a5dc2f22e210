"""Unit tests for messages, topology and the fabric."""

import collections
import random

import pytest

from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import (
    ETHERNET_LIKE,
    MYRINET_LIKE,
    ClusterSpec,
    LinkSpec,
    Topology,
    two_cluster_topology,
)
from repro.network.fabric import Fabric
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry


def make_fabric(topology=None, fifo=True):
    sim = Simulator()
    topo = topology or two_cluster_topology(nodes=3)
    stats = StatsRegistry(lambda: sim.now)
    fabric = Fabric(sim, topo, stats, tracer=None, fifo=fifo)
    return sim, topo, stats, fabric


class TestNodeId:
    def test_ordering_and_equality(self):
        assert NodeId(0, 1) == NodeId(0, 1)
        assert NodeId(0, 1) < NodeId(1, 0)
        assert str(NodeId(2, 5)) == "c2n5"

    def test_hashable(self):
        assert len({NodeId(0, 1), NodeId(0, 1), NodeId(1, 1)}) == 2


class TestMessage:
    def test_unique_increasing_ids(self):
        a = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 10)
        b = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 10)
        assert b.msg_id > a.msg_id

    def test_inter_cluster_flag(self):
        intra = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        inter = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1)
        assert not intra.inter_cluster
        assert inter.inter_cluster

    def test_replay_clone_keeps_identity(self):
        msg = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 9,
                      payload={"k": 1}, piggyback="pb")
        clone = msg.clone_for_replay()
        assert clone.msg_id == msg.msg_id
        assert clone.kind is MessageKind.REPLAY
        assert clone.piggyback == "pb"
        assert clone.payload == {"k": 1}
        assert clone.payload is not msg.payload

    def test_is_app_kinds(self):
        assert MessageKind.APP.is_app
        assert MessageKind.REPLAY.is_app
        assert not MessageKind.CLC_REQUEST.is_app
        assert not MessageKind.ALERT.is_app


class TestLinkSpec:
    def test_transfer_delay(self):
        link = LinkSpec(latency=1e-3, bandwidth=8e6)  # 8 Mb/s = 1 MB/s
        assert link.transfer_delay(1000) == pytest.approx(1e-3 + 1e-3)

    def test_paper_link_constants(self):
        assert MYRINET_LIKE.latency == pytest.approx(10e-6)
        assert MYRINET_LIKE.bandwidth == pytest.approx(80e6)
        assert ETHERNET_LIKE.latency == pytest.approx(150e-6)
        assert ETHERNET_LIKE.bandwidth == pytest.approx(100e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0.0, bandwidth=0.0)


class TestTopology:
    def test_counts(self):
        topo = two_cluster_topology(nodes=100)
        assert topo.n_clusters == 2
        assert topo.total_nodes == 200
        assert topo.nodes_in(1) == 100

    def test_all_nodes(self):
        topo = two_cluster_topology(nodes=2)
        assert list(topo.all_nodes()) == [
            NodeId(0, 0), NodeId(0, 1), NodeId(1, 0), NodeId(1, 1)
        ]

    def test_intra_link_is_cluster_san(self):
        topo = two_cluster_topology()
        assert topo.link_between(0, 0) is topo.clusters[0].link

    def test_inter_link_symmetric(self):
        link = LinkSpec(latency=1.0, bandwidth=1.0)
        topo = Topology(
            clusters=[ClusterSpec("a", 1), ClusterSpec("b", 1)],
            inter_links={(1, 0): link},  # reversed key normalizes
        )
        assert topo.link_between(0, 1) is link
        assert topo.link_between(1, 0) is link

    def test_default_inter_link_fills_missing(self):
        topo = Topology(
            clusters=[ClusterSpec("a", 1), ClusterSpec("b", 1), ClusterSpec("c", 1)],
            inter_links={},
        )
        assert topo.link_between(0, 2) is topo.default_inter_link

    def test_self_link_in_inter_links_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                clusters=[ClusterSpec("a", 1)],
                inter_links={(0, 0): MYRINET_LIKE},
            )

    def test_unknown_cluster_in_links_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                clusters=[ClusterSpec("a", 1)],
                inter_links={(0, 3): MYRINET_LIKE},
            )

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology(clusters=[])

    def test_invalid_mtbf_rejected(self):
        with pytest.raises(ValueError):
            Topology(clusters=[ClusterSpec("a", 1)], mtbf=0.0)

    def test_failures_enabled(self):
        assert not Topology(clusters=[ClusterSpec("a", 1)]).failures_enabled
        assert Topology(clusters=[ClusterSpec("a", 1)], mtbf=10.0).failures_enabled

    def test_delay_uses_right_link(self):
        topo = two_cluster_topology()
        intra = topo.delay(NodeId(0, 0), NodeId(0, 1), 1000)
        inter = topo.delay(NodeId(0, 0), NodeId(1, 0), 1000)
        assert intra == pytest.approx(10e-6 + 8000 / 80e6)
        assert inter == pytest.approx(150e-6 + 8000 / 100e6)

    def test_validate_node(self):
        topo = two_cluster_topology(nodes=2)
        topo.validate_node(NodeId(1, 1))
        with pytest.raises(ValueError):
            topo.validate_node(NodeId(2, 0))
        with pytest.raises(ValueError):
            topo.validate_node(NodeId(0, 5))

    def test_cluster_needs_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec("x", 0)


class TestFabric:
    def test_delivers_to_registered_receiver(self):
        sim, topo, stats, fabric = make_fabric()
        got = []
        fabric.register(NodeId(0, 0), got.append)
        fabric.register(NodeId(0, 1), got.append)
        msg = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 100)
        fabric.send(msg)
        sim.run()
        assert got == [msg]

    def test_delivery_time_matches_link_model(self):
        sim, topo, stats, fabric = make_fabric()
        seen = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(1, 0), lambda m: seen.append(sim.now))
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1000))
        sim.run()
        assert seen == [pytest.approx(150e-6 + 8000 / 100e6)]

    def test_unregistered_destination_rejected(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        with pytest.raises(ValueError):
            fabric.send(Message(NodeId(0, 0), NodeId(1, 2), MessageKind.APP, 1))

    def test_double_registration_rejected(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        with pytest.raises(ValueError):
            fabric.register(NodeId(0, 0), lambda m: None)

    def test_fifo_per_channel(self):
        sim, topo, stats, fabric = make_fabric()
        order = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: order.append(m.payload["n"]))
        # big slow message first, small fast one second: FIFO keeps order
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            10_000_000, payload={"n": 1}))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            1, payload={"n": 2}))
        sim.run()
        assert order == [1, 2]

    def test_non_fifo_allows_overtaking(self):
        sim, topo, stats, fabric = make_fabric(fifo=False)
        order = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: order.append(m.payload["n"]))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            10_000_000, payload={"n": 1}))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            1, payload={"n": 2}))
        sim.run()
        assert order == [2, 1]

    def test_app_message_matrix(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1))
        fabric.send(Message(NodeId(0, 1), NodeId(1, 2), MessageKind.APP, 1))
        fabric.send(Message(NodeId(1, 0), NodeId(1, 1), MessageKind.APP, 1))
        sim.run()
        assert fabric.app_message_count(0, 1) == 2
        assert fabric.app_message_count(1, 1) == 1
        assert fabric.app_message_count(1, 0) == 0
        matrix = fabric.app_message_matrix()
        assert matrix[(0, 1)] == 2

    def test_protocol_messages_counted_separately(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.CLC_REQUEST, 64))
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.ALERT, 64))
        sim.run()
        assert fabric.protocol_message_count() == 2
        assert fabric.protocol_message_count(MessageKind.ALERT) == 1
        assert fabric.app_message_count(0, 1) == 0
        assert stats.counter("net/protocol_inter").value == 1

    def test_replay_not_in_app_matrix(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        original = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 10)
        fabric.send(original)
        fabric.send(original.clone_for_replay())
        sim.run()
        assert fabric.app_message_count(0, 1) == 1
        assert stats.counter("net/replays").value == 1

    def test_send_time_stamped(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: None)
        msg = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        sim.schedule(5.0, fabric.send, msg)
        sim.run()
        assert msg.send_time == 5.0

    def test_byte_accounting(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 500))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.REPLICA, 300))
        sim.run()
        assert stats.counter("net/bytes/app").value == 500
        assert stats.counter("net/bytes/protocol").value == 300


def three_cluster_fabric(fifo=True):
    """Three clusters with distinct SANs and inter links (0-2 uses the default)."""
    topo = Topology(
        clusters=[
            ClusterSpec("a", 3),
            ClusterSpec("b", 2, LinkSpec(latency=5e-6, bandwidth=1e9)),
            ClusterSpec("c", 2, LinkSpec(latency=30e-6, bandwidth=20e6)),
        ],
        inter_links={(0, 1): ETHERNET_LIKE, (1, 2): LinkSpec(latency=2e-3, bandwidth=10e6)},
    )
    return make_fabric(topo, fifo=fifo)


def independent_tally(sent):
    """The ``net/*`` metrics a list of sent messages should produce,
    recomputed from the messages alone (kinds, endpoints, sizes)."""
    tally = collections.Counter()
    for msg in sent:
        kind = msg.kind.value
        tally[f"net/bytes/kind/{kind}"] += msg.size
        if msg.kind is MessageKind.APP:
            tally[f"net/app/c{msg.src.cluster}->c{msg.dst.cluster}"] += 1
            tally["net/bytes/app"] += msg.size
        elif msg.kind is MessageKind.REPLAY:
            tally["net/replays"] += 1
            tally["net/bytes/app"] += msg.size
        else:
            tally[f"net/protocol/{kind}"] += 1
            tally["net/bytes/protocol"] += msg.size
            if msg.src.cluster != msg.dst.cluster:
                tally["net/protocol_inter"] += 1
    return dict(tally)


def net_metrics(stats):
    return {k: v for k, v in stats.snapshot().items() if k.startswith("net/")}


def traffic_plan(topo, seed=3):
    """``(time, src, dst, kind, size)`` sends covering every kind, intra and
    inter, with a big-then-small burst per channel to exercise FIFO.

    No application message ever goes from cluster 2 to cluster 0, so that
    matrix row must never appear."""
    rng = random.Random(seed)
    nodes = list(topo.all_nodes())
    plan = []
    for i, kind in enumerate(MessageKind):
        for j in range(12):
            src, dst = rng.sample(nodes, 2)
            if j == 0:  # every kind crosses clusters at least once ...
                src, dst = NodeId(0, i % 3), NodeId(1, i % 2)
            elif j == 1:  # ... and stays inside one at least once
                src, dst = NodeId(2, 0), NodeId(2, 1)
            if kind is MessageKind.APP and (src.cluster, dst.cluster) == (2, 0):
                continue
            t = round(rng.uniform(0.0, 10.0), 2) + 0.005  # never exactly 5.0
            plan.append((t, src, dst, kind, rng.choice([0, 1, 64, 4096, 250_000])))
            plan.append((t, src, dst, kind, 1))  # same instant, small: FIFO clamp
    return plan


class TestChannelTable:
    """The fabric's per-send accounting, FIFO and delivery, checked against
    an independent model of the link, the FIFO rule and the counters."""

    def _drive(self, fifo, until=None):
        sim, topo, stats, fabric = three_cluster_fabric(fifo=fifo)
        delivered = {}
        for node in topo.all_nodes():
            fabric.register(node, lambda m: delivered.__setitem__(m.msg_id, sim.now))
        sent = []  # (msg, send time, returned arrival)

        def fire(msg):
            sent.append((msg, sim.now, fabric.send(msg)))

        for t, src, dst, kind, size in traffic_plan(topo):
            sim.schedule(t, fire, Message(src, dst, kind, size))
        return sim, topo, stats, sent, delivered

    def test_net_metrics_equal_independent_tally(self):
        sim, topo, stats, sent, _ = self._drive(fifo=True)
        sim.run()
        msgs = [msg for msg, _, _ in sent]
        assert {m.kind for m in msgs} == set(MessageKind)
        assert net_metrics(stats) == independent_tally(msgs)

    def test_no_row_for_traffic_that_never_happened(self):
        sim, topo, stats, sent, _ = self._drive(fifo=True)
        sim.run()
        app_pairs = {(m.src.cluster, m.dst.cluster) for m, _, _ in sent
                     if m.kind is MessageKind.APP}
        assert (2, 0) not in app_pairs and len(app_pairs) > 1
        assert "net/app/c2->c0" not in stats

    def test_only_intra_protocol_traffic_has_no_inter_row(self):
        sim, topo, stats, fabric = three_cluster_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(1, 0), NodeId(1, 1), MessageKind.CLC_REQUEST, 8))
        fabric.send(Message(NodeId(0, 0), NodeId(1, 1), MessageKind.APP, 8))
        assert "net/protocol_inter" not in stats
        assert "net/protocol/clc_ack" not in stats
        assert "net/app/c1->c0" not in stats

    def test_values_are_current_between_runs(self):
        sim, topo, stats, sent, _ = self._drive(fifo=True)
        sim.run(until=5.0)
        first = [msg for msg, _, _ in sent]
        assert 0 < len(first) < len(traffic_plan(topo))
        assert net_metrics(stats) == independent_tally(first)
        sim.run()
        assert len(sent) > len(first)
        assert net_metrics(stats) == independent_tally([msg for msg, _, _ in sent])

    @pytest.mark.parametrize("fifo", [True, False])
    def test_arrival_times_follow_link_model_and_fifo(self, fifo):
        sim, topo, stats, sent, delivered = self._drive(fifo=fifo)
        sim.run()
        watermark = {}
        clamped = 0
        for msg, now, arrival in sent:
            link = topo.link_between(msg.src.cluster, msg.dst.cluster)
            expected = now + link.transfer_delay(msg.size)
            chan = (msg.src, msg.dst)
            if fifo and chan in watermark and expected < watermark[chan]:
                expected = watermark[chan]
                clamped += 1
            watermark[chan] = expected
            assert arrival == expected
            assert msg.send_time == now
            assert delivered[msg.msg_id] == arrival
        assert (clamped > 0) == fifo

    def test_negative_size_rejected_without_touching_counters(self):
        sim, topo, stats, fabric = three_cluster_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 100))
        before = net_metrics(stats)
        for src in (NodeId(0, 0), NodeId(2, 1)):  # known channel, then a new one
            with pytest.raises(ValueError):
                fabric.send(Message(src, NodeId(1, 0), MessageKind.APP, -1))
        assert net_metrics(stats) == before

    def test_unregistered_destination_rejected_every_time(self):
        sim, topo, stats, fabric = three_cluster_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        for kind in (MessageKind.APP, MessageKind.APP, MessageKind.ALERT):
            with pytest.raises(ValueError, match="unregistered"):
                fabric.send(Message(NodeId(0, 0), NodeId(2, 1), kind, 10))
        assert fabric._channels == {}
        assert not [name for name in stats.names() if name.startswith("net/")]
        # registering afterwards opens the channel normally
        got = []
        fabric.register(NodeId(2, 1), got.append)
        fabric.send(Message(NodeId(0, 0), NodeId(2, 1), MessageKind.APP, 10))
        sim.run()
        assert len(got) == 1 and fabric.app_message_count(0, 2) == 1


def test_send_shim_installed_after_construction_sees_every_send():
    """The consistency oracle swaps ``fed.fabric.send`` on a built
    federation; no caller may have cached the original at construction."""
    from tests.conftest import make_federation

    fed = make_federation(n_clusters=3, nodes=3, total_time=600.0, chatty=True,
                          gc_period=150.0, seed=0)
    original = fed.fabric.send
    seen = collections.Counter()

    def shim(msg):
        seen[msg.kind] += 1
        return original(msg)

    fed.fabric.send = shim
    fed.sim.schedule(200.0, fed.inject_failure, NodeId(1, 1))
    fed.run()
    recorded = {
        name: value for name, value in fed.stats.snapshot().items()
        if name.startswith(("net/protocol/", "net/app/")) or name == "net/replays"
    }
    assert seen[MessageKind.APP] > 0 and seen[MessageKind.CLC_COMMIT] > 0
    # the rollback's alerts and replays went through the shim too
    assert seen[MessageKind.ALERT] > 0 and seen[MessageKind.REPLAY] > 0
    assert sum(seen.values()) == sum(recorded.values())
