"""Address decomposition for set-associative structures.

A physical address is split (low to high) into

    | line offset | set index | tag |

All caches in the system use a 128-byte line (paper Table I).  The GPU L2
is additionally divided into slices; slice selection uses the low bits of
the *line address* so that consecutive lines interleave across slices, the
standard GPU L2 design.
"""

from __future__ import annotations

from repro.utils.bitops import is_power_of_two, log2_exact


class AddressLayout:
    """Maps addresses to (tag, set, offset) for one cache geometry.

    Sliced caches (the GPU L2) interleave consecutive lines across
    slices; within a slice the slice-selection bits carry no information
    and must be stripped before indexing, or only ``1/num_slices`` of
    the sets would ever be used.  ``interleave``/``interleave_offset``
    express that: the slice holding lines with
    ``line_number % interleave == interleave_offset`` divides the line
    number by ``interleave`` before splitting it into index and tag.
    """

    def __init__(self, line_size: int, num_sets: int,
                 interleave: int = 1, interleave_offset: int = 0) -> None:
        if not is_power_of_two(line_size):
            raise ValueError(f"line size must be a power of two: {line_size}")
        if not is_power_of_two(num_sets):
            raise ValueError(f"set count must be a power of two: {num_sets}")
        if not is_power_of_two(interleave):
            raise ValueError(
                f"interleave must be a power of two: {interleave}")
        if not 0 <= interleave_offset < interleave:
            raise ValueError(
                f"interleave offset {interleave_offset} out of range "
                f"for interleave {interleave}")
        self.line_size = line_size
        self.num_sets = num_sets
        self.interleave = interleave
        self.interleave_offset = interleave_offset
        self.offset_bits = log2_exact(line_size)
        self.index_bits = log2_exact(num_sets)
        self._interleave_bits = log2_exact(interleave)
        # precomputed shift/mask forms of the extraction arithmetic;
        # callers on the per-access hot path (the cache array) read these
        # directly instead of calling the methods below
        self.offset_mask = line_size - 1
        self.line_mask = ~self.offset_mask
        self.index_mask = num_sets - 1
        self.line_shift = self.offset_bits + self._interleave_bits
        self.tag_shift = self.line_shift + self.index_bits

    def line_address(self, address: int) -> int:
        """Address of the first byte of the line containing *address*."""
        return address & self.line_mask

    def offset(self, address: int) -> int:
        """Byte offset of *address* within its line."""
        return address & self.offset_mask

    def set_index(self, address: int) -> int:
        """Cache set that *address* maps to."""
        return (address >> self.line_shift) & self.index_mask

    def tag(self, address: int) -> int:
        """Tag bits of *address* (everything above the index)."""
        return address >> self.tag_shift

    def rebuild(self, tag: int, set_index: int) -> int:
        """Inverse of (:meth:`tag`, :meth:`set_index`): the line address."""
        if not 0 <= set_index < self.num_sets:
            raise ValueError(f"set index {set_index} out of range")
        local_line = (tag << self.index_bits) | set_index
        line_number = ((local_line << self._interleave_bits)
                       | self.interleave_offset)
        return line_number << self.offset_bits

    def __repr__(self) -> str:
        return (f"AddressLayout(line={self.line_size}B, "
                f"sets={self.num_sets}, interleave={self.interleave})")
