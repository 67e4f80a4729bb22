"""Covering multiplicity of a multiset of bitmasks, held in binary bit planes.

Bit j of the count of point x is bit x of planes[j], so k masks need
only bit_length(k) planes.  Both layers use it: a coset system adds one
mask per coset, all at the width of the group; a residue system adds
its batches of classes at a width that grows with them, and walks the
planes once they span the whole period.
"""

from __future__ import annotations

from typing import Iterable


def add(planes: list[int], masks: Iterable[int]) -> list[int]:
    """Add each mask to the counts held in planes, in place, and return them."""
    for carry in masks:
        # a ripple carry, stopping once the carry is empty
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    return planes


def walk(full: int, planes: list[int]) -> tuple[int, int, int]:
    """(min, max, covered) of the counts held in planes over the points of full."""
    # one walk down the planes: keep the points whose count agrees with
    # the max (the min) on every bit read so far
    hi_pts, lo_pts, hi, lo = full, full, 0, 0
    for j in range(len(planes) - 1, -1, -1):
        plane = planes[j]
        pts = hi_pts & plane
        if pts:
            hi_pts = pts
            hi |= 1 << j
        pts = lo_pts & ~plane
        if pts:
            lo_pts = pts
        else:
            lo |= 1 << j
    covered = 0
    for plane in planes:
        covered |= plane
    return lo, hi, covered.bit_count()
