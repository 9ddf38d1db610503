"""The frozen records: equality, hash, repr, immutability, field order,
constructor signature, copying and pickling."""

import copy
import inspect
import pickle

import pytest

from qgas.errors import TruncationError
from qgas.gas import FugacityPair, MonoEnergeticState, NaturalUnits, NormalizationScenario
from qgas.polylog import SeriesParams, bose_g32
from qgas.regime import RegimeLabel, RegimeReport, SolveOutcome
from qgas.sweep import SweepRow, SweepSpec

EMPTY = inspect.Parameter.empty

# Each record: a builder of one instance, its exact repr, and its constructor
# parameters as (name, default) in order, which are also its fields in order.
RECORDS = {
    "NaturalUnits": (
        lambda: NaturalUnits(2, 3.0, 0.5),
        "NaturalUnits(hbar=2.0, m=3.0, k=0.5)",
        (("hbar", 1.0), ("m", 1.0), ("k", 1.0)),
    ),
    "MonoEnergeticState": (
        lambda: MonoEnergeticState(2.0, 2.0, 1.7724538509055159, 1.0),
        "MonoEnergeticState(momentum=2.0, temperature=2.0, "
        "thermal_wavelength=1.7724538509055159, beta_eps=1.0)",
        (("momentum", EMPTY), ("temperature", EMPTY), ("thermal_wavelength", EMPTY),
         ("beta_eps", EMPTY)),
    ),
    "FugacityPair": (
        lambda: FugacityPair(0.5, 0.75, 1.5),
        "FugacityPair(z=0.5, z_prime=0.75, b=1.5)",
        (("z", EMPTY), ("z_prime", EMPTY), ("b", EMPTY)),
    ),
    "NormalizationScenario": (
        lambda: NormalizationScenario(4, 2.0, 0.5),
        "NormalizationScenario(total_count=4.0, volume=2.0, specific_volume=0.5)",
        (("total_count", EMPTY), ("volume", EMPTY), ("specific_volume", EMPTY)),
    ),
    "SeriesParams": (
        lambda: SeriesParams(1e-10, 50),
        "SeriesParams(tolerance=1e-10, max_terms=50)",
        (("tolerance", 1e-12), ("max_terms", 100_000)),
    ),
    "SolveOutcome": (
        lambda: SolveOutcome(None, "above"),
        "SolveOutcome(z=None, no_root_side='above')",
        (("z", EMPTY), ("no_root_side", EMPTY)),
    ),
    "RegimeReport": (
        lambda: RegimeReport(
            150.0, 2.5, RegimeLabel.CONDENSATION, RegimeLabel.NORMAL_BOSE,
            FugacityPair(0.5, 0.75, 1.5), frozenset({"near_threshold", "no_bose_root"}),
        ),
        "RegimeReport(momentum=150.0, coupling=2.5, "
        "paper_label=<RegimeLabel.CONDENSATION: 'Condensation'>, "
        "selfconsistent_label=<RegimeLabel.NORMAL_BOSE: 'NormalBose'>, "
        "fugacity=FugacityPair(z=0.5, z_prime=0.75, b=1.5), "
        "flags=frozenset({'no_bose_root', 'near_threshold'}))",
        (("momentum", EMPTY), ("coupling", EMPTY), ("paper_label", EMPTY),
         ("selfconsistent_label", EMPTY), ("fugacity", EMPTY), ("flags", EMPTY)),
    ),
    "SweepSpec": (
        lambda: SweepSpec(1, 2.0, 3),
        "SweepSpec(p_min=1.0, p_max=2.0, steps=3, mode='both', series='truncated', "
        "window=0.01, tol=1e-12)",
        (("p_min", EMPTY), ("p_max", EMPTY), ("steps", EMPTY), ("mode", "both"),
         ("series", "truncated"), ("window", 0.01), ("tol", 1e-12)),
    ),
    "SweepRow": (
        lambda: SweepRow(
            150.0, 2.5, "Condensation", None, "bose", 0.5, 0.75, 1.5, ("near_threshold",)
        ),
        "SweepRow(p0=150.0, K=2.5, paper_label='Condensation', selfconsistent_label=None, "
        "branch='bose', z=0.5, z_prime=0.75, b=1.5, flags=('near_threshold',))",
        (("p0", EMPTY), ("K", EMPTY), ("paper_label", EMPTY), ("selfconsistent_label", EMPTY),
         ("branch", EMPTY), ("z", EMPTY), ("z_prime", EMPTY), ("b", EMPTY), ("flags", EMPTY)),
    ),
}

parametrize_records = pytest.mark.parametrize("name", list(RECORDS))


def _build(name):
    return RECORDS[name][0]()


@parametrize_records
def test_equal_records_are_equal_and_hash_alike(name):
    first, second = _build(name), _build(name)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(vars(first).values()))


@parametrize_records
def test_other_types_never_compare_equal(name):
    record = _build(name)
    values = tuple(vars(record).values())
    assert record != values
    other = SolveOutcome(0.5, None) if name != "SolveOutcome" else FugacityPair(0.5, 0.75, 1.5)
    assert record != other and other != record
    subclass = type("Derived", (type(record),), {})
    assert record != subclass(*values)


@parametrize_records
def test_repr(name):
    assert repr(_build(name)) == RECORDS[name][1]


@parametrize_records
def test_fields_cannot_be_assigned_or_deleted(name):
    record = _build(name)
    before = dict(vars(record))
    for field in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
    for field in before:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert vars(record) == before


@parametrize_records
def test_vars_lists_the_fields_in_order(name):
    assert list(vars(_build(name))) == [field for field, _ in RECORDS[name][2]]


@parametrize_records
def test_constructor_parameters(name):
    record_type = type(_build(name))
    parameters = inspect.signature(record_type).parameters.values()
    assert [(p.name, p.default) for p in parameters] == list(RECORDS[name][2])
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    record = _build(name)
    assert record_type(**vars(record)) == record


@parametrize_records
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(name, round_trip):
    record = _build(name)
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)
    if name == "SeriesParams":
        # The bound below which the evaluators skip the term cap is kept outside the fields;
        # a copy rebuilds it, so the cap still trips where the original's does.
        params = SeriesParams(1e-12, 50)
        with pytest.raises(TruncationError) as original:
            bose_g32(0.9, params)
        with pytest.raises(TruncationError) as copied:
            bose_g32(0.9, round_trip(params))
        assert copied.value.partial_sum == original.value.partial_sum


def test_class_level_defaults():
    # The CLI reads these as the defaults of its global settings.
    assert (SeriesParams.tolerance, SeriesParams.max_terms) == (1e-12, 100_000)
    assert (SweepSpec.window, SweepSpec.series) == (0.01, "truncated")
