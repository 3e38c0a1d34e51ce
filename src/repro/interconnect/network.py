"""The coherence interconnect.

:class:`Crossbar` models the conventional network of Fig. 2 (right): each
node (CPU L2, GPU L2 slices, memory controller) owns an ingress and an
egress link into a central switch.  A message pays

    egress serialization + switch hop + ingress serialization

and contends for both endpoints' links, so heavy coherence traffic
(e.g. the GPU's huge request count, paper §II) backs up realistically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.clock import ClockDomain
from repro.interconnect.link import Link
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.telemetry.tracer import TRACER
from repro.utils.statistics import StatsRegistry


class Network:
    """Base class: a named set of nodes that can exchange messages."""

    def __init__(self, name: str, clock: ClockDomain,
                 line_size: int = 128) -> None:
        self.name = name
        self.clock = clock
        self.line_size = line_size
        self.stats = StatsRegistry(name)
        self._messages = self.stats.counter("messages")
        self._bytes = self.stats.counter("bytes")

    def send(self, message: NetworkMessage, now_tick: int) -> int:
        """Deliver *message*; return the arrival tick."""
        raise NotImplementedError

    def send_raw(self, src: str, dst: str, msg_class, line_address: int,
                 now_tick: int) -> int:
        """Deliver a plain-field message; return the arrival tick.

        The allocation-free fast path for senders that carry no payload
        (the protocol engine sends millions of control messages whose
        only content is src/dst/class/line).  The base implementation
        wraps the fields in a :class:`NetworkMessage` so any subclass
        that only implements :meth:`send` still works.
        """
        return self.send(NetworkMessage(src, dst, msg_class, line_address,
                                        created_tick=now_tick), now_tick)

    def _account(self, message: NetworkMessage) -> None:
        self._messages.increment()
        self._bytes.increment(message.size_bytes(self.line_size))

    @property
    def total_messages(self) -> int:
        return self._messages.value

    @property
    def total_bytes(self) -> int:
        return self._bytes.value


#: the virtual networks every node connects to
VIRTUAL_NETWORKS = ("req", "resp", "data")


class Crossbar(Network):
    """Input/output-buffered crossbar with per-node, per-vnet links."""

    def __init__(self, name: str, clock: ClockDomain, node_names: List[str],
                 hop_latency_cycles: int = 8, bytes_per_cycle: int = 32,
                 line_size: int = 128) -> None:
        super().__init__(name, clock, line_size)
        self.hop_latency_cycles = hop_latency_cycles
        #: egress[node][vnet] / ingress[node][vnet]
        self._egress: Dict[str, Dict[str, Link]] = {}
        self._ingress: Dict[str, Dict[str, Link]] = {}
        for node in node_names:
            self.add_node(node, bytes_per_cycle)
        self._bytes_per_cycle = bytes_per_cycle
        #: per-class (wire size, vnet, trace label), computed once —
        #: ``send_raw`` must not re-derive them per message
        self._wire = {
            msg_class: (msg_class.size_bytes(line_size),
                        msg_class.virtual_network,
                        msg_class.name.lower())
            for msg_class in MessageClass}
        #: ``(src, dst, class) -> (egress link, ingress link, size)``
        #: route cache for the coherence walk, which books the
        #: two links directly instead of re-walking the node/vnet dicts
        #: per message.  Links are never replaced, so entries stay valid.
        self._routes: Dict[tuple, tuple] = {}

    def add_node(self, node: str, bytes_per_cycle: int = 32) -> None:
        """Attach *node* to the crossbar (one link pair per vnet)."""
        if node in self._egress:
            raise ValueError(f"{self.name}: duplicate node {node!r}")
        # Hop latency is split across the two links; the switch itself is
        # folded into the egress link's latency.
        half = self.hop_latency_cycles // 2
        self._egress[node] = {
            vnet: Link(f"{self.name}.{node}.{vnet}.out", self.clock,
                       self.hop_latency_cycles - half, bytes_per_cycle)
            for vnet in VIRTUAL_NETWORKS}
        self._ingress[node] = {
            vnet: Link(f"{self.name}.{node}.{vnet}.in", self.clock, half,
                       bytes_per_cycle)
            for vnet in VIRTUAL_NETWORKS}

    @property
    def nodes(self) -> List[str]:
        return list(self._egress)

    def send(self, message: NetworkMessage, now_tick: int) -> int:
        """Route src→dst through the switch; return arrival tick."""
        if message.src not in self._egress:
            raise KeyError(f"{self.name}: unknown source {message.src!r}")
        if message.dst not in self._ingress:
            raise KeyError(f"{self.name}: unknown dest {message.dst!r}")
        self._account(message)
        size = message.size_bytes(self.line_size)
        vnet = message.msg_class.virtual_network
        at_switch = self._egress[message.src][vnet].send(size, now_tick)
        arrival = self._ingress[message.dst][vnet].send(size, at_switch)
        if TRACER.enabled:
            TRACER.span(
                "network", message.msg_class.name.lower(), now_tick,
                arrival, track=self.name,
                args={"src": message.src, "dst": message.dst,
                      "line": message.line_address, "bytes": size})
        return arrival

    def send_raw(self, src: str, dst: str, msg_class, line_address: int,
                 now_tick: int) -> int:
        """Route src→dst with no :class:`NetworkMessage` allocation.

        Identical timing, accounting, and trace stream to :meth:`send`
        for a payload-free message of *msg_class*.
        """
        egress = self._egress.get(src)
        if egress is None:
            raise KeyError(f"{self.name}: unknown source {src!r}")
        ingress = self._ingress.get(dst)
        if ingress is None:
            raise KeyError(f"{self.name}: unknown dest {dst!r}")
        size, vnet, label = self._wire[msg_class]
        self._messages.value += 1
        self._bytes.value += size
        at_switch = egress[vnet].send(size, now_tick)
        arrival = ingress[vnet].send(size, at_switch)
        if TRACER.enabled:
            TRACER.span(
                "network", label, now_tick, arrival, track=self.name,
                args={"src": src, "dst": dst,
                      "line": line_address, "bytes": size})
        return arrival

    def route(self, src: str, dst: str, msg_class: MessageClass) -> tuple:
        """Resolved ``(egress_link, ingress_link, wire_size)`` for a path.

        The coherence walk precomputes routes for the fixed src/dst
        pairs it can touch and books the links itself; it must bump
        :attr:`message_counters` alongside each booking, and record the
        span :meth:`send_raw` would while tracing, so accounting and the
        trace stream match :meth:`send_raw` exactly.
        """
        key = (src, dst, msg_class)
        cached = self._routes.get(key)
        if cached is None:
            egress = self._egress.get(src)
            if egress is None:
                raise KeyError(f"{self.name}: unknown source {src!r}")
            ingress = self._ingress.get(dst)
            if ingress is None:
                raise KeyError(f"{self.name}: unknown dest {dst!r}")
            size, vnet, _label = self._wire[msg_class]
            cached = (egress[vnet], ingress[vnet], size)
            self._routes[key] = cached
        return cached

    @property
    def message_counters(self) -> tuple:
        """The (messages, bytes) counters a direct-booking caller bumps."""
        return self._messages, self._bytes

    def reset(self) -> None:
        """Clear all link occupancy."""
        for links in self._egress.values():
            for link in links.values():
                link.reset()
        for links in self._ingress.values():
            for link in links.values():
                link.reset()
