"""Bounded search for product decompositions of weight-two newforms.

Candidates f = prod_i block_i^{r_i}(q^{t_i}) must satisfy two exact linear
constraints (leading exponent 1 and total weight 2):

    sum r_i t_i / (rc_i tc_i) = 1        sum r_i / rc_i = 1

where (rc, tc) are the block's own shape parameters; enumeration tests them
in integers scaled by the lcm of the blocks' rc * tc.  All "no match"
outcomes are bounded-search facts, never nonexistence claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement

from .arith import divisors
from .elliptic import an_expansion, curve_from_quintuple
from .errors import PrecisionExceeded, UnknownLevel
from .eta import EtaQuotient, eta_quotient_series
from .products import ExponentSequence, _combined_exponents, extract_exponents, unit_product
from .qseries import FracSeries, PowerSeries
from .registry import BlockRecord, record_for

MATCH = "match"
MISMATCH = "mismatch"
UNDECIDED = "undecided"

DEFAULT_OVERLAP_FLOOR = 20
DEFAULT_ETA_EXPONENT_BOUND = 24


@dataclass(frozen=True)
class SearchCandidate:
    """A candidate decomposition: parts are (conductor, r_i, t_i), sorted."""

    parts: tuple[tuple[int, int, int], ...]
    verdict: str | None = None
    match_order: int | None = None
    mismatch_at: Fraction | None = None


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
    removed."""
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
    out = [
        SearchCandidate(parts=tuple(sorted(atom[2] for atom in combo)))
        for combo in combinations_with_replacement(atoms, s)
        if _constraints_hold(combo, scale)
    ]
    out.sort(key=lambda c: c.parts)
    return out


def assemble(
    cand: SearchCandidate, blocks: list[BlockRecord], order: int
) -> FracSeries:
    """Expand the candidate product exactly, as q * prod (1 - q^m)^(G_m).

    The constraints make the leading exponent 1, and the product exponents
    are G_m = sum_{t_i | m} r_i a_{i, m/t_i}.  The expansion is known below
    q^(1 + n), n = min_i t_i (ceil(order / t_i) + 1), as when each part is
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
    n = min(bounds)
    g = ExponentSequence(tuple(_combined_exponents(factors, n)[1:]))
    return FracSeries.make(1, 1, unit_product(g, n))


def match_against(
    cand: SearchCandidate,
    series: FracSeries,
    target: PowerSeries,
    overlap_floor: int = DEFAULT_OVERLAP_FLOOR,
) -> SearchCandidate:
    """Fill the candidate verdict by coefficient comparison against the target.

    target must be monic at q.  A nonzero coefficient at a fractional
    exponent is a mismatch at that exponent.
    """
    if target.coeffs[0] != 0 or target.order < 2 or target.coeffs[1] != 1:
        raise ValueError("target must be monic at q")
    overlap = min(int(series.exponent_bound()), target.order)
    for e, c in series.support():
        if e >= overlap:
            break
        if e.denominator != 1:
            return replace(cand, verdict=MISMATCH, mismatch_at=e)
        n = int(e)
        if target.coeffs[n] != c:
            return replace(cand, verdict=MISMATCH, mismatch_at=e)
    # zero coefficients of the series against nonzero target entries
    for n in range(1, overlap):
        c = series.coeff_at(n) if (n * series.denom - series.offset) >= 0 else 0
        if c != target.coeffs[n]:
            return replace(cand, verdict=MISMATCH, mismatch_at=Fraction(n))
    if overlap - 1 < overlap_floor:
        return replace(cand, verdict=UNDECIDED, match_order=overlap - 1)
    return replace(cand, verdict=MATCH, match_order=overlap - 1)


def eta_quotient_search(
    level: int,
    order: int,
    exponent_bound: int = DEFAULT_ETA_EXPONENT_BOUND,
) -> list[EtaQuotient]:
    """All classical eta quotients with scales t | level, sum r = 4,
    sum t*r = 24, |r| <= exponent_bound, matching the level's registry
    newform to the given order.

    The exponents of a matching quotient are determined triangularly by the
    target's extracted g_n (g_n = sum_{t|n} r_t), so the bounded enumeration
    reduces to solving that system on the divisors of the level and checking
    the remaining coefficients.  The found quotient's series is then
    re-expanded and compared with the target.  That is a round trip through
    the same product kernel that extracted g_n, not an independent check;
    the independent one is the test of the Martin-Ono quotients against
    point counting (tests/test_elliptic.py::TestMartinOnoOracle).
    """
    rec = record_for(level)
    if rec is None:
        raise UnknownLevel(f"no registry record for conductor {level}")
    target = an_expansion(curve_from_quintuple(rec.curves[0]), order)
    g = extract_exponents(target)
    r: dict[int, int] = {}
    for t in divisors(level):
        if t > g.upto:
            break
        r[t] = g.at(t) - sum(r[d] for d in divisors(t) if d != t)
    # consistency of every extracted exponent with the periodic pattern
    for n in range(1, g.upto + 1):
        expected = sum(rt for t, rt in r.items() if n % t == 0)
        if g.at(n) != expected:
            return []
    terms = tuple(sorted((t, rt) for t, rt in r.items() if rt != 0))
    if not terms:
        return []
    if any(abs(rt) > exponent_bound for _, rt in terms):
        return []
    eq = EtaQuotient(terms)
    if eq.weight_numerator != 4 or eq.leading_exponent != 1:
        return []
    # round trip: expand the quotient's product and compare coefficients
    series = eta_quotient_series(eq, order)
    for n in range(1, order):
        if series.coeff_at(n) != target.coeffs[n]:
            return []
    return [eq]
