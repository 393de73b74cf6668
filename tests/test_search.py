"""Constrained decomposition search and the bounded eta-quotient search."""

import importlib.util
import io
import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from newform_products import cli, search
from newform_products.cli import main
from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import PrecisionExceeded, UnknownLevel
from newform_products.products import ExponentSequence, extract_exponents, unit_product
from newform_products.qseries import PowerSeries, frac_mul
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

from oracles import (
    assemble_series,
    coeff_at,
    eta_quotient_by_divisors,
    exponent_bound,
    frac_pow,
    frac_subst_scale,
    match_series,
)
from test_elliptic import MARTIN_ONO

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _target(quintuple, order):
    """The curve's newform to the given order, and its product exponents."""
    target = an_expansion(curve_from_quintuple(quintuple), order)
    return target, extract_exponents(target)


# Oracles: the constraint filter in Fractions over every atom multiset, and
# the candidate product multiplied out part by part on fractional grids.


def _oracle_constraint_sums(by_id, parts):
    s_exp = Fraction(0)
    s_wt = Fraction(0)
    for conductor, r, t in parts:
        rec = by_id[conductor]
        s_exp += Fraction(r * t, rec.r_check * rec.t_check)
        s_wt += Fraction(r, rec.r_check)
    return s_exp, s_wt


def oracle_enumerate(blocks, s, r_bound, t_bound):
    by_id = {rec.conductor: rec for rec in blocks}
    atoms = [
        (conductor, r, t)
        for conductor in sorted(by_id)
        for t in range(1, t_bound + 1)
        for r in range(-r_bound, r_bound + 1)
        if r != 0
    ]
    found = [
        tuple(sorted(combo))
        for combo in combinations_with_replacement(atoms, s)
        if _oracle_constraint_sums(by_id, combo) == (1, 1)
    ]
    return sorted(found)


def _block_series(rec, order):
    """The block as the pair (1/(rc*tc), prod (1-q^n)^(a_n)), inner order as given."""
    a = (rec.a_extended or rec.a_printed)[: order - 1]
    return Fraction(1, rec.r_check * rec.t_check), unit_product(ExponentSequence(tuple(a)), order)


def oracle_assemble(cand, blocks, order):
    by_id = {rec.conductor: rec for rec in blocks}
    if _oracle_constraint_sums(by_id, cand.parts) != (1, 1):
        raise ValueError(f"candidate {cand.parts} violates the linear constraints")
    result = None
    for conductor, r, t in cand.parts:
        rec = by_id[conductor]
        inner_order = -(-order // t) + 1
        available = len(rec.a_extended or rec.a_printed)
        if available < inner_order - 1:
            raise PrecisionExceeded(
                f"block {conductor} extends to a_{available}, candidate needs "
                f"a_{inner_order - 1} at t={t}; extend the block first"
            )
        part = frac_pow(frac_subst_scale(_block_series(rec, inner_order), t), r)
        result = part if result is None else frac_mul(result, part)
    return result


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
            series = assemble_series(cand, [rec], 30)
            target = an_expansion(curve_from_quintuple(rec.curves[0]), 30)
            for n in range(1, int(exponent_bound(series))):
                if n < 30:
                    assert coeff_at(series, n) == target.coeffs[n], (
                        rec.conductor,
                        n,
                    )

    def test_native_exponents_equal_extracted(self):
        # ... and its exponents are the ones extracted from that newform
        for rec in builtin_table1():
            rec = extend_block(rec, 40)
            cand = SearchCandidate(parts=((rec.conductor, rec.r_check, rec.t_check),))
            got = assemble(cand, [rec], 30)
            _, want = _target(rec.curves[0], 30)
            assert got.upto >= want.upto
            assert got.g[: want.upto] == want.g, rec.conductor

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
        exponents = assemble(cand, [rec], order)
        target, target_exponents = _target(rec.curves[0], order)
        return cand, exponents, target, target_exponents

    def test_match(self):
        cand, exponents, target, target_exponents = self._native(37)
        got = match_against(cand, exponents, target, target_exponents)
        assert got.verdict == MATCH and got.match_order >= 20

    def test_mismatch_against_wrong_target(self):
        cand, exponents, _, _ = self._native(37)
        other, other_exponents = _target(record_for(43).curves[0], 40)
        got = match_against(cand, exponents, other, other_exponents)
        assert got.verdict == MISMATCH
        assert isinstance(got.mismatch_at, int)

    def test_target_must_be_monic(self):
        cand, exponents, _, target_exponents = self._native(37)
        with pytest.raises(ValueError, match="monic"):
            match_against(cand, exponents, PowerSeries.from_terms({2: 1}, 40),
                          target_exponents)

    def test_fractional_support_is_mismatch(self):
        # a series with genuinely fractional support never matches an
        # integer-exponent target
        rec = extend_block(record_for(36), 60)

        frac = frac_pow(frac_subst_scale(_block_series(rec, 10), 5), 4)
        assert frac[0] == Fraction(5, 6)
        target = an_expansion(curve_from_quintuple(rec.curves[0]), 40)
        cand = SearchCandidate(parts=((36, 4, 5),))
        got = match_series(cand, frac, target)
        assert got.verdict == MISMATCH
        assert got.mismatch_at is not None and got.mismatch_at.denominator > 1

    def test_undecided_when_overlap_short(self):
        cand, exponents, target, target_exponents = self._native(37, order=15)
        got = match_against(cand, exponents, target, target_exponents)
        assert got.verdict == UNDECIDED

    def test_two_block_search_reverifies(self):
        blocks = [extend_block(record_for(n), 40) for n in (37, 43)]
        target, target_exponents = _target(record_for(37).curves[0], 30)
        verdicts = {}
        for cand in enumerate_candidates(blocks, 2, 6, 12):
            exponents = assemble(cand, blocks, 30)
            got = match_against(cand, exponents, target, target_exponents)
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


# block sets and bounds for the differential tests: two t_check = 1 blocks,
# three of them, blocks with r_check, t_check > 1 (scale lcm(24, 8) = 24),
# and two whose r_check * t_check (2 and 3) divide neither each other
DIFFERENTIAL_SETS = [
    ((37, 43), 3, 4),
    ((37, 43, 53), 2, 3),
    ((36, 288), 2, 6),
    ((88, 243), 2, 6),
]
DIFFERENTIAL_ORDERS = [2, 3, 15, 40, 80]

# enumeration alone also runs at the bench search size, and on three blocks
# whose r_check * t_check (24, 2 and 4) all exceed 1; the assemble
# differential leaves them out, since its oracle expands series
ENUMERATION_SETS = DIFFERENTIAL_SETS + [
    ((37, 43), 4, 6),
    ((36, 88, 256), 2, 4),
]


@pytest.fixture(scope="module")
def extended_table():
    return {rec.conductor: extend_block(rec, 81) for rec in builtin_table1()}


def _same_outcome(cand, blocks, order):
    """assemble and oracle_assemble agree: the exponents expand to the
    oracle's series, or both raise the same error."""
    try:
        want = oracle_assemble(cand, blocks, order)
    except (ValueError, PrecisionExceeded) as ex:
        with pytest.raises(type(ex)) as got:
            assemble(cand, blocks, order)
        assert str(got.value) == str(ex)
        return
    g = assemble(cand, blocks, order)
    assert (1, unit_product(g, g.upto + 1)) == want, (cand.parts, order)


class TestOracleDifferential:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("conductors,r_bound,t_bound", ENUMERATION_SETS)
    def test_enumeration_equals_oracle(self, conductors, r_bound, t_bound, s):
        blocks = [record_for(n) for n in conductors]
        want = oracle_enumerate(blocks, s, r_bound, t_bound)
        got = [c.parts for c in enumerate_candidates(blocks, s, r_bound, t_bound)]
        assert want and got == want

    @pytest.mark.parametrize("order", DIFFERENTIAL_ORDERS)
    @pytest.mark.parametrize("conductors,r_bound,t_bound", DIFFERENTIAL_SETS)
    def test_assemble_equals_oracle(self, extended_table, conductors, r_bound,
                                    t_bound, order):
        blocks = [extended_table[n] for n in conductors]
        cands = [c for s in (1, 2, 3)
                 for c in enumerate_candidates(blocks, s, r_bound, t_bound)]
        rng = random.Random(order)
        for cand in rng.sample(cands, 24):
            _same_outcome(cand, blocks, order)

    @pytest.mark.parametrize("seed", range(8))
    def test_assemble_equals_oracle_on_random_blocks(self, extended_table, seed):
        rng = random.Random(seed)
        conductors = rng.sample(sorted(extended_table), rng.randint(1, 3))
        blocks = [extended_table[n] for n in conductors]
        order = rng.choice(DIFFERENTIAL_ORDERS)
        cands = [c for s in (1, 2) for c in enumerate_candidates(blocks, s, 4, 6)]
        assert cands
        for cand in rng.sample(cands, min(12, len(cands))):
            _same_outcome(cand, blocks, order)

    @pytest.mark.parametrize(
        "parts",
        [(), ((37, 1, 1),), ((37, 2, 2),), ((37, 1, 1), (43, 1, 1))],
    )
    def test_same_constraint_error(self, extended_table, parts):
        blocks = [extended_table[37], extended_table[43]]
        _same_outcome(SearchCandidate(parts=parts), blocks, 30)

    def test_same_precision_error(self, extended_table):
        # block 43 has only its 12 printed terms; the error names it
        blocks = [extended_table[37], record_for(43)]
        for parts in [((43, 1, 1),), ((37, 1, 1), (37, 1, 1)),
                      ((37, 4, 1), (43, -1, 1))]:
            _same_outcome(SearchCandidate(parts=parts), blocks, 60)
        with pytest.raises(PrecisionExceeded, match="block 43"):
            assemble(SearchCandidate(parts=((37, 4, 1), (43, -1, 1))), blocks, 60)


class TestSearchCommand:
    def test_target_verdicts_equal_oracle(self):
        out = io.StringIO()
        argv = ["search", "--blocks", "37,43", "--s", "3", "--max-r", "2",
                "--max-t", "2", "--order", "30", "--target", "0,0,1,-1,0",
                "--format", "json"]
        assert main(argv, out=out) == 0
        entries = json.loads(out.getvalue())["results"]["candidates"]
        blocks = [extend_block(record_for(n), 30) for n in (37, 43)]
        parts = oracle_enumerate(blocks, 3, 2, 2)
        assert [tuple(map(tuple, e["parts"])) for e in entries] == parts
        target = an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 30)
        verdicts = set()
        for entry, p in zip(entries, parts):
            cand = SearchCandidate(parts=p)
            want = match_series(cand, oracle_assemble(cand, blocks, 30), target)
            mismatch_at = None if want.mismatch_at is None else str(want.mismatch_at)
            assert (entry["verdict"], entry["match_order"], entry["mismatch_at"]) == (
                want.verdict, want.match_order, mismatch_at), p
            verdicts.add(want.verdict)
        assert MATCH in verdicts and MISMATCH in verdicts


# blocks and orders for comparing exponent matching with the coefficient
# route: t_check = 1 blocks, blocks on t = 2 and t = 3 grids (88, 243) and
# the rank-2 curve's block (389); order 2 leaves nothing to compare, order 3
# one exponent, and order 200 reaches past the bench's order 80
MATCH_SETS = [(37, 43), (37, 43, 53), (37, 88, 243), (37, 43, 389)]
MATCH_ORDERS = [2, 3, 5, 20, 80, 200]


@pytest.fixture(scope="module")
def pool_targets():
    """Every bench pool curve (conductor, quintuple)."""
    return [(n, tuple(int(v) for v in q.split(","))) for n, q, *_ in _bench_workloads().POOL]


@pytest.fixture(scope="module")
def wide_table():
    return {n: extend_block(record_for(n), 201) for s in MATCH_SETS for n in s}


class TestExponentMatching:
    """match_against on exponents gives the verdict, match order and
    mismatch position of the coefficient route (assemble_series, match_series)."""

    @pytest.mark.parametrize("order", MATCH_ORDERS)
    @pytest.mark.parametrize("conductors", MATCH_SETS)
    def test_equals_coefficient_route(self, wide_table, pool_targets, conductors, order):
        blocks = [wide_table[n] for n in conductors]
        cands = enumerate_candidates(blocks, 3, 2, 3)
        series = [assemble_series(c, blocks, order) for c in cands]
        verdicts = set()
        for n, quintuple in pool_targets:
            target, target_exponents = _target(quintuple, order)
            for cand, sr in zip(cands, series):
                got = match_against(cand, assemble(cand, blocks, order), target,
                                    target_exponents)
                want = match_series(cand, sr, target)
                assert (got.verdict, got.match_order, got.mismatch_at) == (
                    want.verdict, want.match_order, want.mismatch_at), (n, cand.parts)
                verdicts.add(got.verdict)
        assert verdicts == ({UNDECIDED} if order == 2 else
                            {MISMATCH, UNDECIDED} if order < 21 else {MATCH, MISMATCH})

    @pytest.mark.parametrize("parts,at", [
        # s_2 = 0 and no later coefficient is a nonzero mismatch: reports 2
        (((37, -1, 1), (37, 1, 1), (88, 1, 2)), 2),
        # s_2 = 0, and the nonzero mismatch at 4 shows only after doubling
        (((37, -1, 1), (37, 1, 1), (243, 1, 3)), 4),
    ])
    def test_zero_coefficient_expands_up_to_overlap(self, wide_table, monkeypatch,
                                                    parts, at):
        # at order 5 the overlap is 5: the series is expanded below q^4, then
        # below q^5, and no further
        lengths = []
        expand = search.unit_product
        monkeypatch.setattr(search, "unit_product",
                            lambda g, n: lengths.append(n) or expand(g, n))
        blocks = [wide_table[n] for n in (37, 88, 243)]
        target, target_exponents = _target((0, 0, 1, -1, 0), 5)
        cand = SearchCandidate(parts=parts)
        got = match_against(cand, assemble(cand, blocks, 5), target, target_exponents)
        want = match_series(cand, assemble_series(cand, blocks, 5), target)
        assert lengths == [3, 4]
        assert (got.verdict, got.mismatch_at) == (MISMATCH, at) == (
            want.verdict, want.mismatch_at)

    @pytest.mark.xfail(strict=True, reason=(
        "the benchmark digests pin the coefficient route's late position; "
        "the benchmark refresh of ROADMAP item 1 reports the first mismatch"))
    def test_reports_first_mismatch(self):
        # the series starts q - 2q^2 + 0q^3, the target q - 2q^2 - 3q^3
        out = io.StringIO()
        argv = ["search", "--blocks", "37,43", "--s", "3", "--max-r", "4",
                "--max-t", "6", "--order", "80", "--target", "0,0,1,-1,0",
                "--format", "json"]
        assert main(argv, out=out) == 0
        entry, = [e for e in json.loads(out.getvalue())["results"]["candidates"]
                  if e["parts"] == [[37, -4, 1], [43, -1, 1], [43, 4, 1]]]
        assert (entry["verdict"], entry["mismatch_at"]) == (MISMATCH, "3")


class TestSearchInvariants:
    """The work the bench search does, pinned as exact counts.

    combos counts the calls of _constraints_hold, one per atom multiset that
    enumeration tests: every (s-1)-multiset head paired with each atom whose
    exponent term completes the leading-exponent constraint and whose index
    is no lower than the head's last.  Testing every s-multiset of atoms
    instead would make 816 calls at the smoke size and 152,096 at the full.
    """

    def _run(self, monkeypatch, size):
        counts = {"combos": 0, "assemble": 0}

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(search, "_constraints_hold",
                            counted("combos", search._constraints_hold))
        monkeypatch.setattr(cli, "assemble", counted("assemble", cli.assemble))
        out = io.StringIO()
        assert main(list(_bench_workloads().search_argv(37, size)), out=out) == 0
        candidates = json.loads(out.getvalue())["results"]["candidates"]
        assert counts["assemble"] == len(candidates) > 0
        return counts["combos"], len(candidates)

    def test_smoke_size_counts(self, monkeypatch):
        assert self._run(monkeypatch, "smoke") == (63, 23)

    def test_full_size_counts(self, monkeypatch):
        assert self._run(monkeypatch, "full") == (2_791, 465)

    def test_full_size_expands_little(self, monkeypatch):
        # the coefficient route expands each of the 465 candidates to about
        # 82 terms, 38,162 in all; exponent matching expands only where a
        # zero coefficient needs it (1,767 terms against this target)
        lengths = []
        expand = search.unit_product
        monkeypatch.setattr(search, "unit_product",
                            lambda g, n: lengths.append(n) or expand(g, n))
        out = io.StringIO()
        assert main(list(_bench_workloads().search_argv(37, "full")), out=out) == 0
        assert len(json.loads(out.getvalue())["results"]["candidates"]) == 465
        assert sum(lengths) < 465 * 82 // 10


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

    @pytest.mark.parametrize("n", [5, None])
    def test_exponent_off_the_pattern_excludes(self, monkeypatch, n):
        # g_5 and the last g_n of level 36 lie off every divisor of 36, so
        # they leave the solved r_t alone and only the consistency check sees them
        extract = search.extract_exponents

        def bumped(f):
            g = list(extract(f).g)
            g[(n or len(g)) - 1] += 1
            return ExponentSequence(tuple(g))

        monkeypatch.setattr(search, "extract_exponents", bumped)
        assert eta_quotient_search(36, 30) == []


class TestEtaQuotientDifferential:
    """eta_quotient_search against the divisor-by-divisor solve with a
    re-expansion check (tests/oracles.py), on the same extracted exponents."""

    @staticmethod
    def _agrees(level, order, bound):
        rec = search.record_for(level)
        g = extract_exponents(an_expansion(curve_from_quintuple(rec.curves[0]), order))
        found = eta_quotient_search(level, order, bound)
        assert found == eta_quotient_by_divisors(g, level, bound), (level, order, bound)
        return found

    @pytest.mark.parametrize("order", [3, 4, 7, 13, 30, 60])
    def test_registry_levels(self, order):
        for rec in builtin_table1():
            for bound in (1, 3, 4, 24):
                self._agrees(rec.conductor, order, bound)

    @pytest.mark.parametrize("level", sorted(MARTIN_ONO))
    def test_martin_ono_models(self, monkeypatch, level):
        # each model as the level's record: found at its own level and at
        # 2 * level, whose divisors include every scale, and never at level + 1
        quintuple, terms = MARTIN_ONO[level]
        monkeypatch.setattr(search, "record_for", lambda n: SimpleNamespace(curves=(quintuple,)))
        assert [q.terms for q in self._agrees(level, 200, 24)] == [terms]
        assert [q.terms for q in self._agrees(2 * level, 200, 24)] == [terms]
        assert self._agrees(level + 1, 200, 24) == []
