"""Network messages and virtual-network classes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

_message_ids = itertools.count()


class MessageClass(Enum):
    """Virtual networks, mirroring Ruby's request/response/data split.

    Separating classes prevents protocol deadlock in real hardware; here
    they mainly size messages (control vs data) and label statistics.
    """

    REQUEST = "request"    # GETS/GETX/upgrade — 8-byte control
    RESPONSE = "response"  # ACK/NACK — 8-byte control
    DATA = "data"          # full cache line + header
    WRITEBACK = "writeback"
    #: a direct-store forward: header + one written word, not a full line
    STORE_FORWARD = "store_forward"

    #: identity hash: classes key the per-send wire-size tables
    __hash__ = object.__hash__

    def size_bytes(self, line_size: int) -> int:
        """Wire size of a message of this class."""
        if self in (MessageClass.DATA, MessageClass.WRITEBACK):
            return line_size + 8
        if self is MessageClass.STORE_FORWARD:
            return 16
        return 8

    @property
    def virtual_network(self) -> str:
        """Which virtual network carries this class.

        Separate request/response/data channels, as in Ruby: they
        prevent protocol deadlock in hardware, and in this model they
        keep future-scheduled data transfers (probe responses,
        writebacks) from serialising ahead of present-time requests on
        one shared link timeline.
        """
        if self is MessageClass.REQUEST:
            return "req"
        if self is MessageClass.RESPONSE:
            return "resp"
        return "data"


@dataclass
class NetworkMessage:
    """One message in flight on an interconnect."""

    src: str
    dst: str
    msg_class: MessageClass
    line_address: int
    payload: object = None
    created_tick: int = 0
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def size_bytes(self, line_size: int) -> int:
        return self.msg_class.size_bytes(line_size)

    def __repr__(self) -> str:
        return (f"NetworkMessage(#{self.msg_id} {self.src}->{self.dst} "
                f"{self.msg_class.value} line={self.line_address:#x})")
