"""Covering multiplicity of a multiset of bitmasks, held in binary bit planes.

Bit j of the count of point x is bit x of planes[j], so k masks need
only bit_length(k) planes.  Both layers use it: a residue system is a
coset cover of Z/L, one mask per batch of classes, and a coset system
one mask per coset.
"""

from __future__ import annotations

from typing import Iterable


def profile(full: int, masks: Iterable[int]) -> tuple[int, int, int, list[int]]:
    """(min, max, covered, planes) of the counts over the points of full."""
    planes: list[int] = []
    for carry in masks:
        # add the mask by a ripple carry, stopping once the carry is empty
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    # one walk down the planes: keep the points whose count agrees with
    # the max (the min) on every bit read so far
    hi_pts, lo_pts, hi, lo = full, full, 0, 0
    for j in range(len(planes) - 1, -1, -1):
        if hi_pts & planes[j]:
            hi_pts &= planes[j]
            hi |= 1 << j
        if lo_pts & ~planes[j]:
            lo_pts &= ~planes[j]
        else:
            lo |= 1 << j
    covered = 0
    for plane in planes:
        covered |= plane
    return lo, hi, covered.bit_count(), planes
