"""Block-partitioning geometry.

The parallel algorithm block-partitions dimension ``i`` of the initial array
across ``2**k_i`` processors (paper, section 4).  This module holds the pure
geometry: where the split points fall, which block an index belongs to, and
the slices a given processor owns.

Splits are *balanced*: a dimension of size ``s`` split ``m`` ways gives block
``b`` the half-open range ``[floor(b*s/m), floor((b+1)*s/m))``.  When ``m``
divides ``s`` (the common case in the paper, where sizes and processor
counts are powers of two) every block has exactly ``s // m`` elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


def split_points(size: int, parts: int) -> tuple[int, ...]:
    """Return the ``parts + 1`` boundaries of a balanced split of ``size``.

    ``split_points(10, 4) == (0, 2, 5, 7, 10)``.

    Raises ``ValueError`` if ``parts`` exceeds ``size`` (a block would be
    empty) or either argument is non-positive.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if parts > size:
        raise ValueError(f"cannot split size {size} into {parts} non-empty blocks")
    return tuple((b * size) // parts for b in range(parts + 1))


def block_lengths(size: int, parts: int) -> list[int]:
    """Length of every block of a balanced split, indexed by block number.

    ``block_lengths(10, 4) == [2, 3, 2, 3]`` -- the successive differences
    of :func:`split_points`.
    """
    pts = split_points(size, parts)
    return [hi - lo for lo, hi in zip(pts, pts[1:])]


def grid_block_lengths(shape: Sequence[int], parts: Sequence[int]) -> list[list[int]]:
    """Per-dimension block lengths, indexed by the label coordinate.

    ``out[d][c]`` is the length of dimension ``d``'s block ``c`` under the
    balanced split into ``parts[d]`` pieces -- the same boundaries
    :class:`BlockPartition` cuts, so closed forms computed from them (such
    as the shuffle scheduler's declared memory bound) agree exactly with
    the portions the rank programs hold.
    """
    return [
        block_lengths(s, m) for s, m in zip(shape, parts, strict=True)
    ]


def portion_elements(
    dims: Sequence[int], label: Sequence[int], lengths: Sequence[Sequence[int]]
) -> int:
    """Elements of the portion kept along ``dims`` by the rank at ``label``.

    ``lengths`` comes from :func:`grid_block_lengths`; a group-by node that
    keeps dimensions ``dims`` leaves the rank with the product of its block
    lengths along exactly those dimensions.
    """
    size = 1
    for d in dims:
        size *= lengths[d][label[d]]
    return size


def block_bounds(size: int, parts: int, block: int) -> tuple[int, int]:
    """Half-open ``(lo, hi)`` range of ``block`` in a balanced split."""
    if not 0 <= block < parts:
        raise ValueError(f"block {block} out of range for {parts} parts")
    return (block * size) // parts, ((block + 1) * size) // parts


def block_of_index(size: int, parts: int, index: int) -> int:
    """Inverse of :func:`block_bounds`: which block holds ``index``.

    For the balanced split, ``index`` is in block ``b`` iff
    ``floor(b*s/m) <= index < floor((b+1)*s/m)``, which is equivalent to
    ``b = floor(((index + 1) * m - 1) / s)`` -- verified by property test.
    """
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range for size {size}")
    b = ((index + 1) * parts - 1) // size
    lo, hi = block_bounds(size, parts, b)
    # Guard against any rounding subtlety; scan neighbours (at most one off).
    while index < lo:
        b -= 1
        lo, hi = block_bounds(size, parts, b)
    while index >= hi:
        b += 1
        lo, hi = block_bounds(size, parts, b)
    return b


def block_shape(shape: Sequence[int], parts: Sequence[int], blocks: Sequence[int]) -> tuple[int, ...]:
    """Shape of the sub-array owned by ``blocks`` under a per-dim split."""
    out = []
    for s, m, b in zip(shape, parts, blocks, strict=True):
        lo, hi = block_bounds(s, m, b)
        out.append(hi - lo)
    return tuple(out)


def block_slices(shape: Sequence[int], parts: Sequence[int], blocks: Sequence[int]) -> tuple[slice, ...]:
    """Slices (into the global array) owned by ``blocks`` under a split."""
    out = []
    for s, m, b in zip(shape, parts, blocks, strict=True):
        lo, hi = block_bounds(s, m, b)
        out.append(slice(lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class BlockPartition:
    """A balanced block partition of an n-dimensional index space.

    Parameters
    ----------
    shape:
        Global array shape.
    parts:
        Number of blocks per dimension (``2**k_i`` in the paper).
    """

    shape: tuple[int, ...]
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.shape) != len(self.parts):
            raise ValueError("shape and parts must have equal length")
        # Validate every dimension eagerly.
        for s, m in zip(self.shape, self.parts):
            split_points(s, m)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_blocks(self) -> int:
        n = 1
        for m in self.parts:
            n *= m
        return n

    def bounds(self, blocks: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Per-dimension ``(lo, hi)`` ranges of a block tuple."""
        return tuple(
            block_bounds(s, m, b)
            for s, m, b in zip(self.shape, self.parts, blocks, strict=True)
        )

    def slices(self, blocks: Sequence[int]) -> tuple[slice, ...]:
        return block_slices(self.shape, self.parts, blocks)

    def local_shape(self, blocks: Sequence[int]) -> tuple[int, ...]:
        return block_shape(self.shape, self.parts, blocks)

    def owner(self, index: Sequence[int]) -> tuple[int, ...]:
        """Block tuple owning a global index tuple."""
        return tuple(
            block_of_index(s, m, i)
            for s, m, i in zip(self.shape, self.parts, index, strict=True)
        )

    def iter_blocks(self) -> Iterator[tuple[int, ...]]:
        """All block tuples in row-major (last dimension fastest) order."""
        def rec(dim: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if dim == self.ndim:
                yield prefix
                return
            for b in range(self.parts[dim]):
                yield from rec(dim + 1, prefix + (b,))
        yield from rec(0, ())

    def project(self, dims: Sequence[int]) -> "BlockPartition":
        """Partition restricted to a subset of dimensions (sorted order)."""
        dims = tuple(dims)
        return BlockPartition(
            shape=tuple(self.shape[d] for d in dims),
            parts=tuple(self.parts[d] for d in dims),
        )


def linear_offset(coords: Sequence[int], shape: Sequence[int]) -> int:
    """Row-major linear offset of ``coords`` in an array of ``shape``."""
    off = 0
    for c, s in zip(coords, shape, strict=True):
        if not 0 <= c < s:
            raise ValueError(f"coordinate {c} out of range for size {s}")
        off = off * s + c
    return off


def offset_to_coords(offset: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`linear_offset`."""
    coords = []
    for s in reversed(shape):
        coords.append(offset % s)
        offset //= s
    if offset:
        raise ValueError("offset out of range for shape")
    return tuple(reversed(coords))
