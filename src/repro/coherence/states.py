"""Hammer protocol stable states (paper Fig. 3 / gem5 MOESI_hammer)."""

from __future__ import annotations

from enum import Enum


class HammerState(Enum):
    """The five stable states of the Hammer protocol.

    Naming follows the paper (and gem5's MOESI_hammer), where ``MM`` is
    the conventional Modified state and ``M`` is the conventional
    Exclusive-clean state in which *stores are not allowed* until the
    silent upgrade to ``MM``.
    """

    MM = "MM"  # exclusive, potentially locally modified
    M = "M"    # exclusive, clean (conventional E)
    O = "O"    # owned: supplies data; sharers may exist
    S = "S"    # shared, read-only
    I = "I"    # invalid

    #: identity hash: members are singletons compared by identity, and
    #: states key the protocol tables probed on every coherent access,
    #: where ``Enum.__hash__`` (a Python-level call) was measurable
    __hash__ = object.__hash__

    @property
    def is_exclusive(self) -> bool:
        """No other node may hold a valid copy."""
        return self in (HammerState.MM, HammerState.M)

    @property
    def is_owner(self) -> bool:
        """This node responds with data to probes."""
        return self in (HammerState.MM, HammerState.M, HammerState.O)

    def __repr__(self) -> str:
        return f"HammerState.{self.name}"
