"""Vectorized H3 index bit operations over NumPy int64/uint64 arrays.

The 64-bit H3 cell index layout (reference: src/index/cell.rs:151-178,
src/index/bits.rs):

    bit 63      : reserved (0)
    bits 59-62  : mode (1=cell, 2=directed edge, 4=vertex)
    bits 56-58  : reserved (cell) / edge number / vertex number
    bits 52-55  : resolution (0-15)
    bits 45-51  : base cell (0-121)
    bits 0-44   : 15 x 3-bit direction digits (res 1..15, MSB-first);
                  digits below the resolution are set to 0b111 ("unused")

All functions operate elementwise on arrays. We use *int64* as the working
dtype (bit 63 is always 0 for valid indices, so the sign bit never matters and
int64 avoids NumPy's uint64-with-python-int promotion pitfalls).
"""

from __future__ import annotations

import numpy as np

from .constants import (
    BASE_OFFSET,
    DEFAULT_CELL_INDEX,
    DIRECTIONS_MASK,
    HEXAGON_CHILDREN_COUNTS,
    MAX_RESOLUTION,
    MODE_CELL,
    MODE_OFFSET,
    PENTAGON_CHILDREN_COUNTS,
    RES_OFFSET,
)
from ._tables import BC_IS_PENTAGON

# Direction rotation lookup tables (reference: src/direction.rs:163-190).
# ROTATE60_CCW[d] = d rotated 60° counterclockwise, etc.
ROTATE60_CCW = np.array([0, 5, 3, 1, 6, 4, 2], dtype=np.int64)
ROTATE60_CW = np.array([0, 3, 6, 2, 5, 1, 4], dtype=np.int64)

# Precomputed k-fold rotations: ROTATE60_CCW_N[k][d].
ROTATE60_CCW_N = np.empty((6, 7), dtype=np.int64)
ROTATE60_CW_N = np.empty((6, 7), dtype=np.int64)
ROTATE60_CCW_N[0] = np.arange(7)
ROTATE60_CW_N[0] = np.arange(7)
for _k in range(1, 6):
    ROTATE60_CCW_N[_k] = ROTATE60_CCW[ROTATE60_CCW_N[_k - 1]]
    ROTATE60_CW_N[_k] = ROTATE60_CW[ROTATE60_CW_N[_k - 1]]

# Direction digit -> IJK unit coordinate (src/direction.rs:94-103).
DIGIT_IJK = np.array(
    [[(d >> 2) & 1, (d >> 1) & 1, d & 1] for d in range(7)], dtype=np.int64)


def as_i64(cells) -> np.ndarray:
    """View/convert input (uint64 or int64 array-like) as int64 ndarray."""
    arr = np.asarray(cells)
    if arr.dtype == np.uint64:
        return arr.view(np.int64)
    return arr.astype(np.int64, copy=False)


def as_u64(cells: np.ndarray) -> np.ndarray:
    return np.asarray(cells).astype(np.int64, copy=False).view(np.uint64)


# ---------------------------------------------------------------------------
# Field accessors
# ---------------------------------------------------------------------------

def get_mode(bits):
    return (as_i64(bits) >> MODE_OFFSET) & 0xF


def get_resolution(bits):
    return (as_i64(bits) >> RES_OFFSET) & 0xF


def set_resolution(bits, resolution):
    return (as_i64(bits) & ~(0xF << RES_OFFSET)) | (
        np.asarray(resolution, dtype=np.int64) << RES_OFFSET)


def clr_resolution(bits):
    return as_i64(bits) & ~(0xF << RES_OFFSET)


def get_base_cell(bits):
    return (as_i64(bits) >> BASE_OFFSET) & 0x7F


def set_base_cell(bits, base):
    return (as_i64(bits) & ~(0x7F << BASE_OFFSET)) | (
        np.asarray(base, dtype=np.int64) << BASE_OFFSET)


def direction_offset(resolution):
    """Bit offset of the digit at `resolution` (res 1..15)."""
    return (MAX_RESOLUTION - np.asarray(resolution, dtype=np.int64)) * 3


def get_direction(bits, resolution):
    return (as_i64(bits) >> direction_offset(resolution)) & 0x7


def set_direction(bits, digit, resolution):
    off = direction_offset(resolution)
    return (as_i64(bits) & ~(np.int64(0x7) << off)) | (
        np.asarray(digit, dtype=np.int64) << off)


def set_unused(bits, resolution):
    """Set all digits below `resolution` to 0b111."""
    off = direction_offset(resolution)
    return as_i64(bits) | ((np.int64(1) << off) - 1)


def is_pentagon(cells):
    """True when the cell is a pentagon (pentagon base cell, all-center digits).

    Reference: src/index/cell.rs:392-405.
    """
    bits = as_i64(cells)
    res = get_resolution(bits)
    dirs = bits & DIRECTIONS_MASK
    # All digits above the unused tail must be 0 (center).
    tail = set_unused(np.zeros_like(bits), res) & DIRECTIONS_MASK
    # Clip so unvalidated inputs (validators call this pre-check) don't
    # index out of the 122-entry table; garbage stays non-pentagon=false-y.
    return BC_IS_PENTAGON[np.clip(get_base_cell(bits), 0, 121)] & \
        (dirs == tail)


def first_axe(cells):
    """Value of the first non-center digit (scanning res 1..R); 0 if none.

    Reference: src/index/bits.rs:120-143.
    """
    bits = as_i64(cells)
    res = get_resolution(bits)
    dirs = bits & DIRECTIONS_MASK
    # Highest set bit position via exact float64 exponent (dirs < 2^45 < 2^53).
    _, exp = np.frexp(dirs.astype(np.float64))
    p = exp - 1  # highest set bit; -1 if dirs == 0
    r = np.minimum((44 - p) // 3 + 1, res)
    r = np.maximum(r, 1)
    digit = get_direction(bits, r)
    return np.where((res == 0) | (dirs == 0), 0, digit)


# ---------------------------------------------------------------------------
# Digit-array representation: (n, 15) uint8-ish int64 digit planes
# ---------------------------------------------------------------------------

def unpack_digits(bits) -> np.ndarray:
    """Extract the 15 direction digits as an (n, 15) int64 array.

    Column i holds the digit at resolution i+1 (0b111 below the resolution).
    """
    bits = as_i64(bits)
    shifts = (MAX_RESOLUTION - 1 - np.arange(15, dtype=np.int64)) * 3
    return (bits[..., None] >> shifts) & 0x7


def pack_digits(bits, digits: np.ndarray) -> np.ndarray:
    """Write an (n, 15) digit array back into the index bits."""
    bits = as_i64(bits) & ~np.int64(DIRECTIONS_MASK)
    shifts = (MAX_RESOLUTION - 1 - np.arange(15, dtype=np.int64)) * 3
    return bits | np.bitwise_or.reduce(digits << shifts, axis=-1)


def rotate60(cells, count: int, ccw: bool = True, mask=None):
    """Rotate all digits of each cell by `count` 60° steps.

    Reference: src/index/bits.rs:146-178. Unused (0b111) digits must be left
    intact — the rotation tables only cover 0..6, so we re-apply the unused
    tail afterwards.
    """
    count = int(count) % 6
    if count == 0:
        return as_i64(cells).copy() if mask is None else as_i64(cells)
    bits = as_i64(cells)
    res = get_resolution(bits)
    table = ROTATE60_CCW_N[count] if ccw else ROTATE60_CW_N[count]
    digits = unpack_digits(bits)
    tail = np.arange(15) >= res[..., None]  # positions below resolution
    rotated = table[np.where(tail, 0, digits)]
    rotated = np.where(tail, 7, rotated)
    out = pack_digits(bits, rotated)
    if mask is not None:
        out = np.where(mask, out, bits)
    return out


def pentagon_rotate60(cells, ccw: bool = True, mask=None):
    """Pentagon-aware rotation skipping the deleted K subsequence.

    Reference: src/index/bits.rs:181-218 — if the first axe would rotate onto
    the K axe (JK for CCW, IK for CW), rotate twice, else once.
    """
    bits = as_i64(cells)
    axe = first_axe(bits)
    trigger = 3 if ccw else 5  # JK / IK
    double = axe == trigger
    once = rotate60(bits, 1, ccw=ccw)
    twice = rotate60(bits, 2, ccw=ccw)
    out = np.where(double, twice, once)
    if mask is not None:
        out = np.where(mask, out, bits)
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_LO_MAGIC = np.int64(0o111111111111111)  # 0b001 repeated over 15 triplets
_HI_MAGIC = np.int64(0o444444444444444)  # 0b100 repeated over 15 triplets


def _has_unused_direction_limited(dirs, res):
    """SWAR null-triplet detection limited to `res` digits."""
    width = res * 3
    mask = (np.int64(1) << width) - 1
    inv = (~as_i64(dirs)) & mask
    return ((inv - _LO_MAGIC) & (dirs & _HI_MAGIC) & mask) != 0


def is_valid_cell(values) -> np.ndarray:
    """Vectorized cell-index validation (src/index/cell.rs:1948-2012)."""
    bits = as_i64(np.asarray(values))
    ok = np.asarray(bits >= 0)
    ok &= ((bits >> 56) & 0b1000_0111) == 0
    ok &= get_mode(bits) == MODE_CELL
    base = get_base_cell(bits)
    ok &= base <= 121
    res = get_resolution(bits)
    unused_bits = (MAX_RESOLUTION - res) * 3
    unused_mask = (np.int64(1) << unused_bits) - 1
    ok &= ((~bits) & unused_mask) == 0
    dirs = (bits >> unused_bits) & ((np.int64(1) << (res * 3)) - 1)
    ok &= ~_has_unused_direction_limited(dirs, res)
    is_pent_base = BC_IS_PENTAGON[np.clip(base, 0, 121)]
    leads_k = first_axe(np.where(ok, bits, DEFAULT_CELL_INDEX)) == 1
    ok &= ~(is_pent_base & leads_k & (res > 0))
    return ok


# ---------------------------------------------------------------------------
# Hierarchy (parent / children / counts)
# ---------------------------------------------------------------------------

def cell_to_parent(cells, parent_res):
    """Truncate to `parent_res` (caller must ensure parent_res <= res).

    Reference: src/index/cell.rs:462-467.
    """
    bits = as_i64(cells)
    return set_unused(set_resolution(bits, parent_res), parent_res)


def cell_to_center_child(cells, child_res):
    """Center child at `child_res` (>= res). Reference: cell.rs:484-493."""
    bits = as_i64(cells)
    res = get_resolution(bits)
    start = direction_offset(res)
    stop = direction_offset(child_res)
    mask = (np.int64(1) << (start - stop)) - np.int64(1)
    return set_resolution(bits, child_res) & ~(mask << stop)


def children_count(cells, child_res):
    """Exact number of children at child_res (cell.rs:511-527)."""
    bits = as_i64(cells)
    res = get_resolution(bits)
    n = np.asarray(child_res, dtype=np.int64) - res
    pent = is_pentagon(bits)
    counts = np.where(pent, PENTAGON_CHILDREN_COUNTS[np.clip(n, 0, 15)],
                      HEXAGON_CHILDREN_COUNTS[np.clip(n, 0, 15)])
    counts = np.where(n < 0, 0, counts)
    return counts


# ---------------------------------------------------------------------------
# String form
# ---------------------------------------------------------------------------

def to_strings(cells) -> np.ndarray:
    """Lowercase hex string form (matches H3's h3ToString)."""
    u = as_u64(as_i64(cells))
    return np.array([format(v, "x") for v in u], dtype=object)


def from_strings(strs) -> np.ndarray:
    return np.array([int(s, 16) for s in strs], dtype=np.int64)


def is_res_class3(res) -> np.ndarray:
    """isResClassIII (resolution.rs:63-65): odd resolutions have their unit
    vectors rotated ~19.1 deg (Class III orientation)."""
    return (np.asarray(res, dtype=np.int64) % 2) == 1
