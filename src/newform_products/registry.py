"""Embedded building-block table and its extension.

Each record holds a conductor, the defining curve(s), the block shape
(r_check, t_check), the twelve reference exponents a_1..a_12, and an
optional extension computed from point counting.
"""

from __future__ import annotations

from typing import NamedTuple

from .elliptic import an_expansion, curve_from_quintuple
from .errors import TableMismatch
from .products import block_profile, extract_exponents


class BlockRecord(NamedTuple):
    conductor: int
    curves: tuple[tuple[int, int, int, int, int], ...]
    r_check: int
    t_check: int
    a_printed: tuple[int, ...]
    a_extended: tuple[int, ...] | None = None


# Table of building blocks: conductor, curves, r_check, t_check, a_1..a_12.
# Conductor 53 is sometimes mistakenly listed with the conductor-37
# quintuple; the curve stored here ([1,-1,1,0,0], LMFDB 53.a1) is the one
# whose extracted exponents actually reproduce the row's sequence.
_TABLE1 = [
    (36, [(0, 0, 0, 0, 1)], 4, 6, [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    (37, [(0, 0, 1, -1, 0)], 2, 1,
     [1, 2, 3, 8, 16, 41, 97, 242, 598, 1532, 3898, 10067]),
    (43, [(0, 1, 1, 0, 0)], 1, 1,
     [2, 3, 4, 12, 22, 52, 114, 268, 608, 1448, 3418, 8210]),
    (53, [(1, -1, 1, 0, 0)], 1, 1,
     [1, 3, 4, 7, 13, 31, 57, 123, 259, 559, 1195, 2624]),
    (61, [(1, 0, 0, -2, 1)], 1, 1,
     [1, 2, 3, 7, 10, 20, 38, 77, 149, 314, 626, 1295]),
    (79, [(1, 1, 1, -2, 0)], 1, 1,
     [1, 1, 2, 5, 6, 11, 18, 36, 61, 118, 213, 400]),
    (83, [(1, 1, 1, 1, 0)], 1, 1,
     [1, 1, 2, 4, 5, 11, 16, 31, 53, 97, 174, 330]),
    (88, [(0, 0, 0, -4, 4)], 1, 2,
     [3, 6, 19, 48, 163, 506, 1683, 5618, 19123, 65634, 228102, 797858]),
    (89, [(1, 1, 1, -1, 0)], 1, 1,
     [1, 1, 2, 3, 4, 10, 13, 25, 43, 79, 135, 246]),
    (92, [(0, 0, 0, -1, 1)], 1, 2,
     [3, 5, 18, 43, 138, 426, 1371, 4428, 14683, 48882, 164970, 560368]),
    (101, [(0, 1, 1, -1, -1)], 1, 1,
     [0, 2, 2, 2, 4, 7, 10, 18, 30, 52, 84, 152]),
    (243, [(0, 0, 1, 0, -1), (0, 0, 1, 0, 20)], 1, 3,
     [2, 5, 10, 32, 80, 234, 668, 1988, 5888, 17840, 54284, 166950]),
    (256, [(0, 0, 0, -2, 0), (0, 0, 0, 8, 0)], 1, 4,
     [4, 9, 36, 129, 516, 2041, 8516, 35780, 153252, 663305, 2901860, 12795009]),
    (288, [(0, 0, 0, -12, 0), (0, 0, 0, 3, 0)], 2, 4,
     [2, 3, 13, 46, 166, 593, 2266, 8712, 34147, 135033, 540090, 2176712]),
    (389, [(0, 1, 1, -2, 0)], 1, 1,
     [2, 3, 4, 11, 20, 51, 110, 259, 582, 1395, 3262, 7822]),
    (675, [(0, 0, 1, 0, -169), (0, 0, 1, 0, 6)], 1, 3,
     [2, 5, 10, 20, 56, 129, 362, 945, 2590, 7093, 19772, 55306]),
    (2304, [(0, 0, 0, -72, 0), (0, 0, 0, 18, 0)], 1, 4,
     [4, 6, 16, 42, 132, 381, 1220, 3851, 12532, 40994, 135908, 453455]),
]


def builtin_table1() -> list[BlockRecord]:
    """The 17 embedded building-block records."""
    return [
        BlockRecord(n, tuple(curves), r, t, tuple(a))
        for n, curves, r, t, a in _TABLE1
    ]


def record_for(conductor: int) -> BlockRecord | None:
    for rec in builtin_table1():
        if rec.conductor == conductor:
            return rec
    return None


def extend_block(rec: BlockRecord, upto: int) -> BlockRecord:
    """Recompute the block from the first curve out to a_1..a_upto.

    The first 12 recomputed values must equal the printed row; disagreement
    falsifies the fixture (or the block interpretation) and is fatal.
    """
    if upto < 12:
        raise ValueError("extension target must be >= 12")
    curve = curve_from_quintuple(rec.curves[0])
    f = an_expansion(curve, rec.t_check * upto + 2)
    profile = block_profile(extract_exponents(f), rec.r_check, rec.t_check)
    a = profile.a[:upto]
    if a[:12] != rec.a_printed[:12]:
        raise TableMismatch(
            f"conductor {rec.conductor}: recomputed block {a[:12]} "
            f"contradicts printed {rec.a_printed[:12]}"
        )
    return rec._replace(a_extended=a)

