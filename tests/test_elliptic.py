"""Point counting, reduction classification, and coefficient expansion."""

import math
import random
import re
from collections import Counter

import pytest

from newform_products import elliptic

from newform_products.arith import is_prime
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
    factor,
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


# every j = 0 and j = 1728 model the tests know: both curves of each such
# table row, the Martin-Ono models with c4*c6 = 0, and four twists from the
# families y^2 = x^3 + A*x and y^2 = x^3 + D
CM_MODELS = [
    c.quintuple
    for c in map(curve_from_quintuple, dict.fromkeys(
        ALL_CURVES + [q for q, _ in MARTIN_ONO.values()]
        + [(0, 0, 0, -7, 0), (0, 0, 0, 13, 0), (0, 0, 0, 0, 9), (0, 0, 0, 0, -11)]
    ))
    if not (c.c4 and c.c6)
]


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


def _refused_at(rule, *args):
    """The prime named by rule's SingularCurve, or None if it accepts."""
    try:
        rule(*args)
    except SingularCurve as e:
        return int(re.match(r"model is not minimal at p=(\d+) ", str(e))[1])
    return None


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
        # none of these models is minimal at p; with the trial bound at 3,
        # reaching d = 5 would raise ValueError, so a refusal at p shows that
        # the pass stopped at p and the size of the 2- or 3-part costs nothing
        monkeypatch.setattr(elliptic, "_MINIMALITY_TRIAL_BOUND", 3)
        with pytest.raises(SingularCurve, match=f"not minimal at p={p} "):
            curve_from_quintuple(quint)

    def test_agrees_with_substitution_search(self):
        # the rule against a search for an integral model at u = p, on random
        # models moved by (r, s, t) and rescaled by u, and on a model with
        # v_3(gcd(c4^3, c6^2)) = 6 whose floor quotients c4 // 3^4, c6 // 3^6
        # meet Kraus's conditions: it is minimal at 3 and refused at 5
        rng = random.Random(1989)
        quints = [(-135, -750, -3750, -13125, 93750)]
        seen = Counter()
        while len(quints) < 400:
            r, s, t, *quint = (rng.randint(-9, 9) for _ in range(8))
            moved = [int(a) for a in substitute(quint, 1, r, s, t)]
            quints.append(_rescaled(moved, rng.choice((1, 1, 2, 3, 5, 6, 7, 10))))
        for quint in quints:
            try:
                curve_from_quintuple(quint)
                refused_at = None
            except SingularCurve as e:
                if "singular curve" in str(e):
                    continue
                refused_at = int(re.match(r"model is not minimal at p=(\d+) ", str(e))[1])
            p = next((p for p in (2, 3, 5, 7) if nonminimal_by_substitution(quint, p)), None)
            assert refused_at == p, quint
            seen[p] += 1
        assert min(seen[p] for p in (2, 3, 5, 7, None)) >= 30, seen

    def test_2_and_3_agree_with_substitution_search(self, monkeypatch):
        # the rule at 2 and 3 against a search for an integral model at u = p,
        # on random models moved by (r, s, t) and rescaled by u in {1, 2, 3, 6}
        rule = elliptic._reject_nonminimal
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
            assert _refused_at(rule, c.c4, c.c6) == p, quint
            seen[p] += 1
        assert min(seen.values()) >= 50, seen

    def test_agrees_with_factoring_rule(self, monkeypatch):
        # the rule against two stages: the substitution search at 2 and 3,
        # then p^4 | c4 and p^12 | disc at p >= 5 read off the factored disc
        rule = elliptic._reject_nonminimal
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
            p = next((p for p in (2, 3) if nonminimal_by_substitution(quint, p)), None)
            if p is None:
                p = _refused_at(reject_nonminimal_by_factoring, c.c4, c.disc)
            rules["parent"].append(p)
            rules["gcd"].append(_refused_at(rule, c.c4, c.c6))
        assert rules["gcd"] == rules["parent"]
        # every stage is compared: at p = 2, 3, 5 and 7, and on minimal models,
        # and more than 100 models get past the stage at p >= 5
        assert set(rules["parent"]) >= {2, 3, 5, 7, None}
        assert sum(p is None or p < 5 for p in rules["parent"]) > 100

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
        # the per-x Legendre route must not come back; `legendre` is a test
        # oracle, and test_no_oracle_shares_a_library_name keeps that name
        # out of the library.  The recorder shows that every prime's
        # reduction is really computed
        asked = []
        reduce = elliptic.reduction_at
        monkeypatch.setattr(elliptic, "reduction_at", lambda c, p: asked.append(p) or reduce(c, p))
        f = an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 500)
        assert asked == primes_upto(499)
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


class TestClosedForm:
    """The Hecke-character a_p on j = 0 and j = 1728 models, against the
    route that every other curve takes."""

    @pytest.mark.parametrize("quint", CM_MODELS, ids=str)
    def test_equals_general_route_below_10000(self, quint):
        c = curve_from_quintuple(quint)
        for p in primes_upto(9999)[2:]:
            if c.disc % p:
                if p > elliptic._MESTRE_BOUND:
                    ref = elliptic._count_bsgs(-27 * c.c4 % p, -54 * c.c6 % p, p)
                else:
                    ref = count_points_legendre(c, p)
                assert count_points(c, p) == ref, p

    @pytest.mark.parametrize(
        "quint, p",
        # at 13 an associate of pi other than the primary one gives a wrong
        # a_p; at 43 and 103 the first quadratic non-residue is a cube
        [((0, 0, 1, 0, -1), p) for p in (13, 43, 103)]
        + [(q, p) for q in ((0, 0, 1, 0, -1), (0, 0, 0, -2, 0)) for p in (99901, 99961, 100057)],
    )
    def test_pinned_primes(self, quint, p):
        c = curve_from_quintuple(quint)
        assert c.disc % p and not (c.c4 and c.c6)
        assert count_points(c, p) == count_points_legendre(c, p)

    def test_no_point_arithmetic(self, monkeypatch):
        calls = []
        add = elliptic._point_add
        monkeypatch.setattr(elliptic, "_point_add", lambda *args: calls.append(1) or add(*args))
        an_expansion(curve_from_quintuple((0, 0, 0, -2, 0)), 3198)  # conductor 256
        assert calls == []
        an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 300)  # 37a
        assert calls


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
        # each prime's reduction_at gets the validated Curve, so no prime
        # re-runs curve_from_quintuple and its minimality check
        c = curve_from_quintuple((0, 0, 0, 0, 10**30 + 57))
        calls, asked = [], []
        reduce = elliptic.reduction_at
        monkeypatch.setattr(elliptic, "_reject_nonminimal", lambda c4, c6: calls.append(1))
        monkeypatch.setattr(elliptic, "reduction_at", lambda c, p: asked.append(p) or reduce(c, p))
        f = an_expansion(c, 300)
        assert calls == [] and f.coeffs[1] == 1
        assert asked == primes_upto(299)

    @pytest.mark.parametrize("order", [2, 3, 4, 30, 1000])
    def test_each_prime_asked_once_in_order(self, monkeypatch, order):
        c = curve_from_quintuple((0, 0, 1, -1, 0))
        reduce = elliptic.reduction_at
        asked = []

        def recorder(curve, p):
            asked.append(p)
            assert curve is c
            return reduce(curve, p)

        monkeypatch.setattr(elliptic, "reduction_at", recorder)
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
