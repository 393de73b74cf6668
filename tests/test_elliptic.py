"""Point counting, reduction classification, and coefficient expansion."""

import functools
import math
import random

import pytest

from newform_products import arith, elliptic

from newform_products.arith import factor, is_prime
from newform_products.elliptic import (
    ADDITIVE,
    GOOD,
    MULT_NONSPLIT,
    MULT_SPLIT,
    ReductionInfo,
    an_expansion,
    count_points,
    curve_from_quintuple,
    reduction_at,
)
from newform_products.errors import InternalIntegralityFailure, SingularCurve
from newform_products.eta import EtaQuotient, eta_quotient_series
from newform_products.registry import builtin_table1

from oracles import (
    coeff_at,
    count_points_legendre,
    count_points_naive,
    legendre,
    nonminimal_by_substitution,
    primes_upto,
    reject_nonminimal_by_factoring,
    substitute,
)

ALL_CURVES = [c for rec in builtin_table1() for c in rec.curves]

# The weight-two newforms that are eta quotients (Martin & Ono, "Eta-quotients
# and elliptic curves", Proc. AMS 125 (1997)), each with a minimal model of an
# elliptic curve of that conductor: level -> (quintuple, ((t, r_t), ...)).
MARTIN_ONO = {
    11: ((0, -1, 1, -10, -20), ((1, 2), (11, 2))),
    14: ((1, 0, 1, 4, -6), ((1, 1), (2, 1), (7, 1), (14, 1))),
    15: ((1, 1, 1, -10, -10), ((1, 1), (3, 1), (5, 1), (15, 1))),
    20: ((0, 1, 0, 4, 4), ((2, 2), (10, 2))),
    24: ((0, -1, 0, -4, 4), ((2, 1), (4, 1), (6, 1), (12, 1))),
    27: ((0, 0, 1, 0, -7), ((3, 2), (9, 2))),
    32: ((0, 0, 0, 4, 0), ((4, 2), (8, 2))),
    36: ((0, 0, 0, 0, 1), ((6, 4),)),
    48: ((0, 1, 0, -4, -4), ((2, -1), (4, 4), (6, -1), (8, -1), (12, 4), (24, -1))),
    64: ((0, 0, 0, -4, 0), ((4, -2), (8, 8), (16, -2))),
    80: ((0, -1, 0, 4, -4), ((2, -2), (4, 6), (8, -2), (10, -2), (20, 6), (40, -2))),
    144: ((0, 0, 0, 0, -1), ((6, -4), (12, 12), (24, -4))),
}


def _random_quintuples(count, seed=1728):
    """Seeded random small quintuples that define (minimal) curves."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        quint = tuple(rng.randint(-9, 9) for _ in range(5))
        try:
            curve_from_quintuple(quint)
        except SingularCurve:
            continue
        out.append(quint)
    return out


RANDOM_QUINTUPLES = _random_quintuples(40)

# first model of each table row, and the Martin-Ono models not among them
COUNTING_MODELS = list(dict.fromkeys(
    [rec.curves[0] for rec in builtin_table1()] + [q for q, _ in MARTIN_ONO.values()]
))


def _wide_curves(count, seed=4096):
    """Seeded random curves, every other one with |a4|, |a6| ~ 10^12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        quint = [rng.randint(-9, 9) for _ in range(5)]
        if len(out) % 2:
            quint[3:] = (rng.randint(-(10**12), 10**12) for _ in range(2))
        try:
            out.append(curve_from_quintuple(quint))
        except SingularCurve:
            continue
    return out


class TestInvariants:
    def test_known_invariants(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        assert c.disc == 37
        assert c.c4 == 48
        assert c.c6 == -216

    def test_invariant_relation_all_curves(self):
        # a polynomial identity of the b/c formulas, so any quintuple checks it
        for quint in ALL_CURVES + RANDOM_QUINTUPLES:
            c = curve_from_quintuple(quint)
            assert 1728 * c.disc == c.c4**3 - c.c6**2
            assert c.b8 * 4 == c.b2 * c.b6 - c.b4**2

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            curve_from_quintuple((0, 0, 0, 0, 0))
        with pytest.raises(SingularCurve):
            curve_from_quintuple((1, 0, 0, 0, 0))


def _rescaled(quint, u):
    """The model with a_i replaced by u^i a_i (non-minimal at every p | u)."""
    return tuple(a * u ** i for a, i in zip(quint, (1, 2, 3, 4, 6)))


class TestMinimality:
    @pytest.mark.parametrize(
        "quint, p",
        [
            ((0, 0, 125, -625, 0), 5),  # 37a at u = 5
            ((0, 49, 343, 0, 0), 7),  # 43a at u = 7
            (_rescaled((0, 1, 1, 0, 0), 35), 5),  # the smallest p is named
        ],
    )
    def test_rescaled_table_curve_rejected(self, quint, p):
        with pytest.raises(SingularCurve, match=f"not minimal at p={p} "):
            curve_from_quintuple(quint)

    def test_large_prime_discriminant_accepted(self):
        # gcd(c4^3, c6^2) = 27648 < 5^12, so no prime is tried on the
        # ~38-digit disc
        c = curve_from_quintuple((0, 0, 0, 1000000000039, 1000000000061))
        assert math.gcd(c.c4 ** 3, c.c6 ** 2) == 27648

    @pytest.mark.parametrize(
        "quint, p",
        [((0, 0, 0, 0, 2 ** 200), 2), ((0, 0, 0, 2 ** 140, 0), 2), ((0, 0, 0, 0, 3 ** 150), 3)],
    )
    def test_large_2_or_3_part_refused_at_2_or_3(self, quint, p, monkeypatch):
        # none of these models is minimal at p, and it is refused before any
        # trial division, so the size of its 2- or 3-part costs nothing
        def unreachable(c4, c6):
            raise AssertionError("trial division reached")

        monkeypatch.setattr(elliptic, "_reject_nonminimal", unreachable)
        with pytest.raises(SingularCurve, match=f"not minimal at p={p} "):
            curve_from_quintuple(quint)

    def test_2_and_3_agree_with_substitution_search(self, monkeypatch):
        # Kraus's rule against a search for an integral model at u = p, on
        # random models moved by (r, s, t) and rescaled by u in {1, 2, 3, 6}
        rule = elliptic._reject_nonminimal_at_2_and_3
        monkeypatch.setattr(elliptic, "_reject_nonminimal_at_2_and_3", lambda c4, c6: None)
        monkeypatch.setattr(elliptic, "_reject_nonminimal", lambda c4, c6: None)
        rng = random.Random(1989)
        seen = {2: 0, 3: 0, None: 0}
        while sum(seen.values()) < 300:
            r, s, t, *quint = (rng.randint(-9, 9) for _ in range(8))
            moved = [int(a) for a in substitute(quint, 1, r, s, t)]
            quint = _rescaled(moved, rng.choice((1, 1, 2, 3, 6)))
            try:
                c = curve_from_quintuple(quint)
            except SingularCurve:
                continue
            p = next((p for p in (2, 3) if nonminimal_by_substitution(quint, p)), None)
            if p is None:
                rule(c.c4, c.c6)
            else:
                with pytest.raises(SingularCurve, match=f"not minimal at p={p} "):
                    rule(c.c4, c.c6)
            seen[p] += 1
        assert min(seen.values()) >= 50, seen

    def test_large_5_part_rejected_at_5(self):
        with pytest.raises(SingularCurve, match="not minimal at p=5 "):
            curve_from_quintuple((0, 0, 0, 0, 5 ** 120))

    def test_largest_prime_below_trial_bound_decided(self):
        assert elliptic._MINIMALITY_TRIAL_BOUND == 10 ** 6
        with pytest.raises(SingularCurve, match="not minimal at p=999983 "):
            curve_from_quintuple(_rescaled((0, 0, 1, -1, 0), 999983))

    def test_first_prime_past_trial_bound_undecided(self):
        # tests/test_cli.py runs a model whose gcd keeps a 100-digit prime
        with pytest.raises(ValueError, match="trial-division bound 1000000$"):
            curve_from_quintuple(_rescaled((0, 0, 1, -1, 0), 1000003))

    def test_agrees_with_factoring_rule(self, monkeypatch):
        rng = random.Random(2718)
        rules = {"parent": [], "gcd": []}
        while len(rules["parent"]) < 300:
            quint = _rescaled(
                [rng.randint(-9, 9) for _ in range(5)], rng.choice((1, 1, 2, 3, 5, 6, 7, 10))
            )
            with monkeypatch.context() as m:
                m.setattr(elliptic, "_reject_nonminimal", lambda c4, c6: None)
                try:
                    c = curve_from_quintuple(quint)
                except SingularCurve:
                    continue
            for name, rule, args in (
                ("parent", reject_nonminimal_by_factoring, (c.c4, c.disc)),
                ("gcd", elliptic._reject_nonminimal, (c.c4, c.c6)),
            ):
                try:
                    rule(*args)
                    rules[name].append(None)
                except SingularCurve as e:
                    rules[name].append(str(e))
        assert rules["gcd"] == rules["parent"]
        # both branches are compared, at p = 5 and at p = 7
        assert {v for v in rules["parent"] if v} >= {
            "model is not minimal at p=5 (p^4 | c4 and p^12 | disc)",
            "model is not minimal at p=7 (p^4 | c4 and p^12 | disc)",
        }
        assert rules["parent"].count(None) > 100


class TestCounting:
    def test_char_sum_matches_naive(self):
        # exhaustive double loop as independent oracle
        for quint in ALL_CURVES:
            c = curve_from_quintuple(quint)
            for p in primes_upto(50):
                assert count_points(c, p) == count_points_naive(c, p), (quint, p)

    @pytest.mark.parametrize("quint", COUNTING_MODELS, ids=str)
    def test_equals_legendre_sum_below_3000(self, quint):
        # good, split, nonsplit and additive p, and p = 3, on every model
        c = curve_from_quintuple(quint)
        for p in primes_upto(2999)[1:]:
            assert count_points(c, p) == count_points_legendre(c, p), p

    def test_equals_naive_on_wide_coefficients(self):
        # |a4|, |a6| ~ 10^12 exercise the mod-p reduction of the wide cubic
        for c in _wide_curves(40):
            for p in primes_upto(59):
                assert count_points(c, p) == count_points_naive(c, p), (c, p)

    @pytest.mark.parametrize("p", [233, 239, 307, 499, 797, 1201, 2003, 4001])
    def test_equals_legendre_on_wide_coefficients_above_bound(self, p):
        # baby-step/giant-step on the short model, from wide c4 and c6
        for c in _wide_curves(40):
            assert count_points(c, p) == count_points_legendre(c, p), (c, p)

    def test_bad_prime_above_bound(self):
        # 389a: p = 389 > 229 divides disc, so the singular point is counted
        c = curve_from_quintuple((0, 1, 1, -2, 0))
        assert c.disc % 389 == 0
        assert count_points(c, 389) == count_points_legendre(c, 389)
        assert reduction_at(c, 389).kind in (MULT_SPLIT, MULT_NONSPLIT)

    def test_group_operations_bounded(self, monkeypatch):
        # O(p^(1/4)) group operations per count, not a loop over x
        calls = []
        add = elliptic._point_add

        def counted(*args):
            calls.append(1)
            return add(*args)

        monkeypatch.setattr(elliptic, "_point_add", counted)
        p = 1_000_003
        ap = p + 1 - count_points(curve_from_quintuple((0, 0, 1, -1, 0)), p)
        assert 0 < len(calls) <= 1000
        assert ap * ap <= 4 * p

    def test_equals_legendre_at_100003(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        assert count_points(c, 100_003) == count_points_legendre(c, 100_003)

    def test_ambiguous_below_bound_raises(self, monkeypatch):
        # below Mestre's bound the point orders need not pin the count: on
        # 389a at p = 11 both 8 and 16 are left, so the table count is kept
        c = curve_from_quintuple((0, 1, 1, -2, 0))
        assert count_points_legendre(c, 11) in (8, 16)
        monkeypatch.setattr(elliptic, "_MESTRE_BOUND", 3)
        with pytest.raises(InternalIntegralityFailure, match=r"left \[8, 16\]"):
            count_points(c, 11)

    def test_no_legendre_call(self, monkeypatch):
        # the per-x Legendre route must not come back
        def boom(a, p):
            raise AssertionError("count_points called legendre")

        monkeypatch.setattr(arith, "legendre", boom, raising=False)
        monkeypatch.setattr(elliptic, "legendre", boom, raising=False)
        # a fresh reduction cache, so that the points are really counted
        monkeypatch.setattr(elliptic, "_cached_reduction", functools.lru_cache(
            elliptic._cached_reduction.__wrapped__))
        f = an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 500)
        assert f.coeffs[1:11] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)

    def test_hasse_bound(self):
        for quint in ALL_CURVES:
            c = curve_from_quintuple(quint)
            for p in primes_upto(500):
                info = reduction_at(c, p)
                assert info.ap * info.ap <= 4 * p, (quint, p)

    def test_hasse_violation_raises_typed_error(self, monkeypatch):
        # a typed error, not an assert, so it also holds under python -O
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        monkeypatch.setattr(elliptic, "count_points", lambda curve, p: p + 1 + 2 * p)
        with pytest.raises(InternalIntegralityFailure, match="Hasse"):
            reduction_at(c, 5)


class TestReduction:
    def test_good_reduction_values(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        info = reduction_at(c, 2)
        assert info.kind == GOOD and info.ap == -2
        info = reduction_at(c, 3)
        assert info.kind == GOOD and info.ap == -3

    def test_additive(self):
        c = curve_from_quintuple((0, 0, 0, 0, 1))  # disc = -432, c4 = 0
        for p in (2, 3):
            info = reduction_at(c, p)
            assert info.kind == ADDITIVE and info.ap == 0

    def test_multiplicative_split_and_nonsplit(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))  # disc 37
        info = reduction_at(c, 37)
        assert info.kind in (MULT_SPLIT, MULT_NONSPLIT)
        assert info.ap in (1, -1)
        # split iff -c6 is a square mod p; ap from counting must agree
        n = count_points(c, 37)
        assert 37 + 1 - n == info.ap

    @pytest.mark.parametrize(
        "quint, p, kind, ap",
        [
            ((0, -1, 0, 1, 0), 3, MULT_NONSPLIT, -1),  # disc = -48, c4 = -32
            ((1, 0, 1, 4, -6), 2, MULT_NONSPLIT, -1),  # 14a
            ((1, 0, 1, 4, -6), 7, MULT_SPLIT, 1),
            ((1, 1, 1, -10, -10), 3, MULT_NONSPLIT, -1),  # 15a
            ((1, 1, 1, -10, -10), 5, MULT_SPLIT, 1),
        ],
        ids=["disc-48-p3", "14a-p2", "14a-p7", "15a-p3", "15a-p5"],
    )
    def test_multiplicative_at_small_primes(self, quint, p, kind, ap):
        c = curve_from_quintuple(quint)
        assert c.disc % p == 0 and c.c4 % p != 0
        assert reduction_at(c, p) == ReductionInfo(p, kind, ap)

    def test_kind_matches_c4_and_c6_rules(self):
        # node iff p does not divide c4 (any p); at p >= 5, split iff -c6 is a square
        for quint in ALL_CURVES + [q for q, _ in MARTIN_ONO.values()]:
            c = curve_from_quintuple(quint)
            for p, _ in factor(abs(c.disc)).factors:
                kind = reduction_at(c, p).kind
                if c.c4 % p == 0:
                    assert kind == ADDITIVE, (quint, p)
                elif p >= 5:
                    split = legendre(-c.c6, p) == 1
                    assert kind == (MULT_SPLIT if split else MULT_NONSPLIT), (quint, p)
                else:
                    assert kind in (MULT_SPLIT, MULT_NONSPLIT), (quint, p)


class TestExpansion:
    def test_first_coefficients_37(self):
        f = an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 11)
        assert f.coeffs[1:] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)

    def test_multiplicativity(self):
        for quint in [(0, 0, 1, -1, 0), (0, 0, 0, 0, 1), (0, 1, 1, 0, 0)]:
            f = an_expansion(curve_from_quintuple(quint), 201)
            for m in range(2, 200):
                for n in range(2, 200 // m + 1):
                    if math.gcd(m, n) == 1:
                        assert f.coeffs[m * n] == f.coeffs[m] * f.coeffs[n]

    def test_prime_power_recurrence_good(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        f = an_expansion(c, 130)
        for p in (2, 3, 5, 11):
            assert is_prime(p)
            k = 2
            while p**k < 130:
                lhs = f.coeffs[p**k]
                rhs = f.coeffs[p] * f.coeffs[p ** (k - 1)] - p * f.coeffs[p ** (k - 2)]
                assert lhs == rhs, (p, k)
                k += 1

    def test_composite_fill_equals_factorization(self):
        # every f_n from the f_p alone: Hecke recurrence, then trial division
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        f = an_expansion(c, 5000).coeffs
        for n in range(2, 5000):
            v = 1
            for p, e in factor(n).factors:
                prev2, prev = 0, 1
                for _ in range(e):
                    prev2, prev = prev, f[p] * prev - (p if c.disc % p else 0) * prev2
                v *= prev
            assert f[n] == v, n

    def test_curve_validated_once(self, monkeypatch):
        # the reduction cache is keyed on the Curve, so no prime re-runs
        # curve_from_quintuple and its minimality check
        c = curve_from_quintuple((0, 0, 0, 0, 10**30 + 57))
        calls = []
        monkeypatch.setattr(elliptic, "_reject_nonminimal", lambda c4, c6: calls.append(1))
        monkeypatch.setattr(elliptic, "_cached_reduction", functools.lru_cache(
            elliptic._cached_reduction.__wrapped__))
        f = an_expansion(c, 300)
        assert calls == [] and f.coeffs[1] == 1

    @pytest.mark.parametrize("order", [2, 3, 4, 30, 1000])
    def test_each_prime_asked_once_in_order(self, monkeypatch, order):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        cached = elliptic._cached_reduction
        asked = []

        def recorder(curve, p):
            asked.append(p)
            assert curve is c
            return cached(curve, p)

        monkeypatch.setattr(elliptic, "_cached_reduction", recorder)
        f = an_expansion(c, order)
        assert asked == primes_upto(order - 1)
        assert f.coeffs[1:11] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)[: order - 1]

    def test_bad_prime_powers(self):
        c = curve_from_quintuple((0, 0, 1, -1, 0))  # multiplicative at 37
        f = an_expansion(c, 37**2 + 1)
        assert f.coeffs[37**2] == f.coeffs[37] ** 2

    @pytest.mark.xfail(
        strict=True, reason="not minimal at 2; Tate's algorithm is ROADMAP item 3"
    )
    def test_model_not_minimal_at_2(self):
        # [0,0,8,-16,0] is 37a [0,0,1,-1,0] rescaled by u = 2
        rescaled = an_expansion(curve_from_quintuple((0, 0, 8, -16, 0)), 30)
        assert rescaled == an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 30)

    def test_two_curve_rows_agree(self):
        for rec in builtin_table1():
            if len(rec.curves) > 1:
                series = [
                    an_expansion(curve_from_quintuple(c), 101).coeffs
                    for c in rec.curves
                ]
                assert series[0] == series[1], rec.conductor


class TestMartinOnoOracle:
    """f_n from point counts against an expansion that counts no points."""

    ORDER = 201

    @pytest.mark.parametrize("level", sorted(MARTIN_ONO))
    def test_an_expansion_equals_eta_quotient(self, level):
        quint, terms = MARTIN_ONO[level]
        f = an_expansion(curve_from_quintuple(quint), self.ORDER)
        eta = eta_quotient_series(EtaQuotient(terms), self.ORDER)
        assert [coeff_at(eta, n) for n in range(self.ORDER)] == list(f.coeffs)
