"""The library's value types: immutable, hashable, and checked on construction."""

import pickle

import pytest

from newform_products.elliptic import ReductionInfo, curve_from_quintuple
from newform_products.eta import EtaQuotient
from newform_products.products import BlockProfile, ExponentSequence
from newform_products.qseries import PowerSeries
from newform_products.registry import BlockRecord
from newform_products.search import SearchCandidate
from newform_products.theta import MonomialArg

# Each factory builds a new instance with the same value on every call.
FACTORIES = {
    "Curve": lambda: curve_from_quintuple((0, 0, 1, -1, 0)),
    "ReductionInfo": lambda: ReductionInfo(37, "multiplicative_split", -1),
    "ExponentSequence": lambda: ExponentSequence((2, 4, 6)),
    "BlockProfile": lambda: BlockProfile(2, 1, (1, 2, 3), 2, ()),
    "BlockRecord": lambda: BlockRecord(37, ((0, 0, 1, -1, 0),), 2, 1, (1, 2, 3)),
    "SearchCandidate": lambda: SearchCandidate(((37, 2, 1),), "match", 79),
    "PowerSeries": lambda: PowerSeries((1, -1, -1, 0)),
    "EtaQuotient": lambda: EtaQuotient(((1, 2), (11, 2))),
    "MonomialArg": lambda: MonomialArg(-1, 3, 2),
}
FIRST_FIELD = {
    "Curve": "a1", "ReductionInfo": "prime", "ExponentSequence": "g",
    "BlockProfile": "r_check", "BlockRecord": "conductor", "SearchCandidate": "parts",
    "PowerSeries": "coeffs", "EtaQuotient": "terms", "MonomialArg": "sign",
}


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_assigned(name):
    value = FACTORIES[name]()
    with pytest.raises(AttributeError):
        setattr(value, FIRST_FIELD[name], getattr(value, FIRST_FIELD[name]))


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_values_hash_equal(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", FACTORIES)
def test_pickle_round_trip(name):
    value = FACTORIES[name]()
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("build", [
    lambda: PowerSeries(()),
    lambda: MonomialArg(2, 1),
    lambda: MonomialArg(1, 0),
    lambda: EtaQuotient(((2, 1), (1, 1))),
], ids=["empty series", "sign 2", "exponent 0", "descending t"])
def test_constructors_reject_bad_values(build):
    with pytest.raises(ValueError):
        build()


class TestPowerSeriesIsNoTuple:
    s = PowerSeries((1, 2, 3))

    def test_int_times_series_is_not_repetition(self):
        with pytest.raises(TypeError):
            2 * self.s

    def test_no_length(self):
        with pytest.raises(TypeError):
            len(self.s)

    def test_no_iteration(self):
        with pytest.raises(TypeError):
            list(self.s)

    def test_not_equal_to_its_fields(self):
        assert (self.s == (self.s.coeffs,)) is False
