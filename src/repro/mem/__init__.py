"""Generic memory-system building blocks.

These structures are protocol-agnostic: the coherence layer
(:mod:`repro.coherence`) stores its MOESI states in the
:class:`~repro.mem.cacheline.CacheLine` objects managed by
:class:`~repro.mem.cache.SetAssociativeCache`.
"""

from repro.mem.address import AddressLayout
from repro.mem.cache import SetAssociativeCache
from repro.mem.cacheline import CacheLine
from repro.mem.dram import DramConfig, DramModel
from repro.mem.mshr import MSHRFile
from repro.mem.replacement import (
    FIFOReplacement,
    LRUReplacement,
    PseudoLRUReplacement,
    RandomReplacement,
    ReplacementPolicy,
    make_replacement_policy,
)

__all__ = [
    "AddressLayout",
    "SetAssociativeCache",
    "CacheLine",
    "DramConfig",
    "DramModel",
    "MSHRFile",
    "ReplacementPolicy",
    "LRUReplacement",
    "PseudoLRUReplacement",
    "FIFOReplacement",
    "RandomReplacement",
    "make_replacement_policy",
]
