"""Unit tests for links, the crossbar, and the direct-store network."""

import pytest

from repro.engine.clock import ClockDomain
from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.link import Link
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.interconnect.network import VIRTUAL_NETWORKS, Crossbar


def mem_clock():
    return ClockDomain("mem", 1e9)


class TestMessageClass:
    def test_control_sizes(self):
        assert MessageClass.REQUEST.size_bytes(128) == 8
        assert MessageClass.RESPONSE.size_bytes(128) == 8

    def test_data_sizes(self):
        assert MessageClass.DATA.size_bytes(128) == 136
        assert MessageClass.WRITEBACK.size_bytes(128) == 136

    def test_forward_size(self):
        assert MessageClass.STORE_FORWARD.size_bytes(128) == 16

    def test_virtual_networks(self):
        assert MessageClass.REQUEST.virtual_network == "req"
        assert MessageClass.RESPONSE.virtual_network == "resp"
        assert MessageClass.DATA.virtual_network == "data"
        assert MessageClass.WRITEBACK.virtual_network == "data"
        assert MessageClass.STORE_FORWARD.virtual_network == "data"

    def test_message_ids_unique(self):
        a = NetworkMessage("x", "y", MessageClass.DATA, 0)
        b = NetworkMessage("x", "y", MessageClass.DATA, 0)
        assert a.msg_id != b.msg_id


class TestLink:
    def test_latency_only_when_idle(self):
        link = Link("l", mem_clock(), latency_cycles=8, bytes_per_cycle=64)
        arrival = link.send(64, 0)
        # 1 cycle serialization + 8 cycles latency = 9 ns
        assert arrival == 9_000

    def test_bandwidth_enforced_under_saturation(self):
        link = Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=64)
        arrivals = [link.send(64, 0) for _ in range(100)]
        # 100 messages x 64B at 64B/cycle need >= ~100 cycles of wire time
        assert max(arrivals) >= 99_000

    def test_out_of_order_sends_do_not_block_earlier_ones(self):
        # a message booked far in the future must not delay one sent now
        link = Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=64)
        link.send(64, 1_000_000)
        early = link.send(64, 0)
        assert early <= 2_000

    def test_counters(self):
        link = Link("l", mem_clock(), latency_cycles=1)
        link.send(100, 0)
        link.send(50, 0)
        assert link.stats.counter("messages").value == 2
        assert link.stats.counter("bytes").value == 150

    def test_reset_clears_bookings(self):
        link = Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=64)
        for _ in range(50):
            link.send(64, 0)
        link.reset()
        assert link.send(64, 0) <= 1_000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Link("l", mem_clock(), latency_cycles=-1)
        with pytest.raises(ValueError):
            Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=0)


class TestCrossbar:
    def make(self):
        return Crossbar("x", mem_clock(), ["a", "b", "memctrl"],
                        hop_latency_cycles=8, bytes_per_cycle=64)

    def test_routing(self):
        xbar = self.make()
        arrival = xbar.send(
            NetworkMessage("a", "b", MessageClass.REQUEST, 0), 0)
        assert arrival > 0
        assert xbar.total_messages == 1

    def test_unknown_nodes_rejected(self):
        xbar = self.make()
        with pytest.raises(KeyError):
            xbar.send(NetworkMessage("zz", "b", MessageClass.REQUEST, 0), 0)
        with pytest.raises(KeyError):
            xbar.send(NetworkMessage("a", "zz", MessageClass.REQUEST, 0), 0)

    def test_duplicate_node_rejected(self):
        xbar = self.make()
        with pytest.raises(ValueError):
            xbar.add_node("a")

    def test_vnets_isolated(self):
        """Data traffic must not delay requests (deadlock-freedom rule)."""
        xbar = self.make()
        for _ in range(200):
            xbar.send(NetworkMessage("a", "b", MessageClass.DATA, 0), 0)
        request_arrival = xbar.send(
            NetworkMessage("a", "b", MessageClass.REQUEST, 0), 0)
        assert request_arrival <= 10_000  # one hop, unqueued

    def test_byte_accounting(self):
        xbar = self.make()
        xbar.send(NetworkMessage("a", "b", MessageClass.DATA, 0), 0)
        assert xbar.total_bytes == 136

    def test_all_vnets_exist(self):
        xbar = self.make()
        for node in xbar.nodes:
            for vnet in VIRTUAL_NETWORKS:
                assert vnet in xbar._egress[node]
                assert vnet in xbar._ingress[node]


class TestDirectStoreNetwork:
    def make(self):
        return DirectStoreNetwork("ds", mem_clock(), "cpu",
                                  ["s0", "s1"], latency_cycles=8)

    def test_forward(self):
        net = self.make()
        arrival = net.send(
            NetworkMessage("cpu", "s0", MessageClass.STORE_FORWARD, 0), 0)
        assert arrival > 0
        assert net.forwarded_stores == 1

    def test_only_source_may_send(self):
        net = self.make()
        with pytest.raises(ValueError):
            net.send(NetworkMessage("s0", "s1",
                                    MessageClass.STORE_FORWARD, 0), 0)

    def test_unknown_slice_rejected(self):
        net = self.make()
        with pytest.raises(KeyError):
            net.send(NetworkMessage("cpu", "s9",
                                    MessageClass.STORE_FORWARD, 0), 0)

    def test_slices_have_independent_links(self):
        net = self.make()
        for _ in range(100):
            net.send(NetworkMessage("cpu", "s0", MessageClass.DATA, 0), 0)
        arrival = net.send(
            NetworkMessage("cpu", "s1", MessageClass.DATA, 0), 0)
        # one unqueued transfer: 136B at 32B/cycle + 8 cycles latency
        assert arrival <= 14_000

    def test_full_line_burst_counts_as_forward(self):
        net = self.make()
        net.send(NetworkMessage("cpu", "s0", MessageClass.DATA, 0), 0)
        assert net.forwarded_stores == 1


class TestLinkBookkeeping:
    def test_epoch_state_pruned_on_long_runs(self):
        """Booking state must not grow unboundedly over simulated time."""
        link = Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=64)
        epoch_ticks = link._epoch_ticks
        for index in range(6000):
            link.send(64, index * epoch_ticks)
        assert len(link._epoch_used) <= 4096

    def test_queue_delay_accumulates_only_under_contention(self):
        link = Link("l", mem_clock(), latency_cycles=0, bytes_per_cycle=64)
        link.send(64, 0)
        link.send(64, 10 ** 9)  # far apart: no queueing
        assert link.stats.counter("queue_delay_ticks").value == 0
        for _ in range(100):
            link.send(1024, 10 ** 9)  # pile-up: queueing appears
        assert link.stats.counter("queue_delay_ticks").value > 0
