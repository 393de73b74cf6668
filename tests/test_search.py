"""Constrained decomposition search and the bounded eta-quotient search."""

from fractions import Fraction

import pytest

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import PrecisionExceeded, UnknownLevel
from newform_products.registry import builtin_table1, extend_block, record_for
from newform_products.search import (
    MATCH,
    MISMATCH,
    UNDECIDED,
    SearchCandidate,
    assemble,
    enumerate_candidates,
    eta_quotient_search,
    match_against,
)


class TestConstraints:
    def test_s1_forces_native_shape(self):
        # with one part the two linear constraints force (r, t) = (r_check, t_check)
        for rec in builtin_table1():
            found = enumerate_candidates(
                [rec], 1, max(rec.r_check, 6), max(rec.t_check, 8)
            )
            assert [c.parts for c in found] == [
                ((rec.conductor, rec.r_check, rec.t_check),)
            ], rec.conductor

    def test_r_bound_zero_empty(self):
        with pytest.raises(ValueError):
            enumerate_candidates([record_for(37)], 1, -1, 8)
        assert enumerate_candidates([record_for(37)], 1, 0, 8) == []

    def test_two_block_candidates_satisfy_constraints(self):
        blocks = [record_for(37), record_for(43)]
        by_id = {b.conductor: b for b in blocks}
        found = enumerate_candidates(blocks, 2, 6, 12)
        assert found
        for cand in found:
            s_exp = sum(
                Fraction(r, by_id[c].r_check * by_id[c].t_check) * t
                for c, r, t in cand.parts
            )
            s_r = sum(Fraction(r, by_id[c].r_check) for c, r, t in cand.parts)
            assert s_exp == 1 and s_r == 1, cand.parts

    def test_duplicates_removed(self):
        found = enumerate_candidates([record_for(37), record_for(43)], 2, 6, 12)
        assert len({c.parts for c in found}) == len(found)
        assert all(c.parts == tuple(sorted(c.parts)) for c in found)

    def test_invalid_part_count(self):
        with pytest.raises(ValueError):
            enumerate_candidates([record_for(37)], 4, 6, 12)


class TestAssemble:
    def test_native_assembly_matches_counting(self):
        # each row's forced s=1 candidate re-expands to the row's own newform
        for rec in builtin_table1():
            rec = extend_block(rec, 40)
            cand = SearchCandidate(parts=((rec.conductor, rec.r_check, rec.t_check),))
            series = assemble(cand, [rec], 30)
            target = an_expansion(curve_from_quintuple(rec.curves[0]), 30)
            for n in range(1, int(series.exponent_bound())):
                if n < 30:
                    assert series.coeff_at(Fraction(n)) == target.coeffs[n], (
                        rec.conductor,
                        n,
                    )

    def test_insufficient_block_data_names_block(self):
        rec = record_for(37)  # only 12 printed terms
        cand = SearchCandidate(parts=((37, rec.r_check, rec.t_check),))
        with pytest.raises(PrecisionExceeded, match="block 37"):
            assemble(cand, [rec], 60)

    @pytest.mark.parametrize(
        "parts",
        [
            (),
            ((37, 1, 1),),  # weight 1/2: both sums are 1/2
            ((37, 2, 2),),  # weight right, leading exponent 2
            ((37, 1, 1), (43, 1, 1)),  # leading exponent 1/2 + 1, weight 1/2 + 1
        ],
    )
    def test_assemble_rejects_constraint_violation(self, parts):
        # a ValueError, not an assert, so it also holds under python -O
        blocks = [extend_block(record_for(n), 40) for n in (37, 43)]
        with pytest.raises(ValueError, match="linear constraints"):
            assemble(SearchCandidate(parts=parts), blocks, 30)


class TestVerdicts:
    def _native(self, conductor, order=40):
        rec = extend_block(record_for(conductor), 60)
        cand = SearchCandidate(parts=((conductor, rec.r_check, rec.t_check),))
        series = assemble(cand, [rec], order)
        target = an_expansion(curve_from_quintuple(rec.curves[0]), order)
        return cand, series, target, rec

    def test_match(self):
        cand, series, target, _ = self._native(37)
        got = match_against(cand, series, target)
        assert got.verdict == MATCH and got.match_order >= 20

    def test_mismatch_against_wrong_target(self):
        cand, series, _, _ = self._native(37)
        other = an_expansion(curve_from_quintuple(record_for(43).curves[0]), 40)
        got = match_against(cand, series, other)
        assert got.verdict == MISMATCH
        assert got.mismatch_at is not None

    def test_fractional_support_is_mismatch(self):
        # a series with genuinely fractional support never matches an
        # integer-exponent target
        rec = extend_block(record_for(36), 60)
        from newform_products.search import _block_series
        from newform_products.qseries import frac_pow, frac_subst_scale

        frac = frac_pow(frac_subst_scale(_block_series(rec, 10), 5), 4)
        assert frac.leading_exponent == Fraction(5, 6)
        target = an_expansion(curve_from_quintuple(rec.curves[0]), 40)
        cand = SearchCandidate(parts=((36, 4, 5),))
        got = match_against(cand, frac, target)
        assert got.verdict == MISMATCH
        assert got.mismatch_at is not None and got.mismatch_at.denominator > 1

    def test_undecided_when_overlap_short(self):
        cand, series, target, _ = self._native(37, order=15)
        got = match_against(cand, series, target, overlap_floor=20)
        assert got.verdict == UNDECIDED

    def test_two_block_search_reverifies(self):
        blocks = [extend_block(record_for(n), 40) for n in (37, 43)]
        target = an_expansion(curve_from_quintuple(record_for(37).curves[0]), 30)
        verdicts = {}
        for cand in enumerate_candidates(blocks, 2, 6, 12):
            series = assemble(cand, blocks, 30)
            got = match_against(cand, series, target, overlap_floor=20)
            verdicts[cand.parts] = got.verdict
        assert verdicts  # candidates exist and every one received a verdict
        assert set(verdicts.values()) <= {MATCH, MISMATCH, UNDECIDED}
        # the only matches are degenerate splits of the native conductor-37
        # block: two t=1 parts of block 37 whose exponents sum to r_check = 2
        matched = [p for p, v in verdicts.items() if v == MATCH]
        assert matched
        for parts in matched:
            assert all(c == 37 and t == 1 for c, r, t in parts)
            assert sum(r for _, r, _ in parts) == 2
        # and nothing involving block 43 reproduces the conductor-37 newform
        assert not any(
            any(c == 43 for c, _, _ in parts) for parts in matched
        )


class TestEtaQuotientSearch:
    def test_level_36_unique(self):
        found = eta_quotient_search(36, 30)
        assert [q.terms for q in found] == [((6, 4),)]

    def test_level_37_empty(self):
        assert eta_quotient_search(37, 20) == []

    def test_unknown_level(self):
        with pytest.raises(UnknownLevel):
            eta_quotient_search(1, 20)

    def test_tight_exponent_bound_excludes(self):
        assert eta_quotient_search(36, 30, exponent_bound=3) == []
