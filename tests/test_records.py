"""The record types are named tuples that validate like the classes they replaced.

`NecklaceSpec` and `MCConfig` check their arguments on every route that
builds an instance: positional and keyword calls, `_make`, `_replace` and
unpickling.  Every record has a pinned repr and refuses field assignment.
"""

import pickle

import pytest

from dna_necklace.counting import NecklaceSpec
from dna_necklace.montecarlo import ConvergenceRow, MCConfig
from dna_necklace.stats import (
    DiscretePdf,
    GaussianFit,
    RatioSweepResult,
    SweepRow,
    sweep_fixed_at,
    sweep_fixed_ratio,
)

SPEC = NecklaceSpec(3, 5)
FIT = GaussianFit(alpha0=50.5, sigma=5.0, amplitude=0.16, rmse=4.5e-05)
FIT_REPR = "GaussianFit(alpha0=50.5, sigma=5.0, amplitude=0.16, rmse=4.5e-05)"

# Each record next to its repr; the older records print as the earlier
# dataclasses did.
RECORDS = [
    (SPEC, "NecklaceSpec(n_at=3, n_gc=5)"),
    (
        MCConfig(SPEC, 10, 1, 5),
        "MCConfig(spec=NecklaceSpec(n_at=3, n_gc=5), runs=10, seed=1, sets=5)",
    ),
    (
        DiscretePdf({0: 0.25, 2: 0.75}, "theoretical"),
        "DiscretePdf(entries={0: 0.25, 2: 0.75}, provenance='theoretical')",
    ),
    (FIT, FIT_REPR),
    (
        SweepRow(6, 3, 3, None, "support too small"),
        "SweepRow(n=6, n_at=3, n_gc=3, fit=None, error='support too small')",
    ),
    (
        SweepRow(8, 3, 5, FIT, None),
        f"SweepRow(n=8, n_at=3, n_gc=5, fit={FIT_REPR}, error=None)",
    ),
    (
        SweepRow(84, 12, 72, FIT, None),
        f"SweepRow(n=84, n_at=12, n_gc=72, fit={FIT_REPR}, error=None)",
    ),
    (
        RatioSweepResult([SweepRow(8, 4, 4, None, "x")]),
        "RatioSweepResult(rows=[SweepRow(n=8, n_at=4, n_gc=4, fit=None, "
        "error='x')], slope=None, intercept=None)",
    ),
    (ConvergenceRow(100, (0.1,)), "ConvergenceRow(runs=100, d_values=(0.1,))"),
]


@pytest.mark.parametrize("record, text", RECORDS)
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS])
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


# Every way of building a record, applied to arguments that are invalid.
BUILDERS = {
    "positional": lambda cls, valid, bad: cls(*bad.values()),
    "keyword": lambda cls, valid, bad: cls(**bad),
    "make": lambda cls, valid, bad: cls._make(bad.values()),
    "replace": lambda cls, valid, bad: cls(**valid)._replace(**bad),
    # Pickles the fields of an instance built without validation.
    "unpickle": lambda cls, valid, bad: pickle.loads(
        pickle.dumps(tuple.__new__(cls, bad.values()))
    ),
}

SPEC_FIELDS = {"n_at": 3, "n_gc": 5}
CONFIG_FIELDS = {"spec": SPEC, "runs": 10, "seed": 1, "sets": 2}
INVALID = [
    (NecklaceSpec, SPEC_FIELDS, {"n_at": -1}),
    (NecklaceSpec, SPEC_FIELDS, {"n_at": 0, "n_gc": 0}),
    (MCConfig, CONFIG_FIELDS, {"runs": 0}),
    (MCConfig, CONFIG_FIELDS, {"seed": 2**64}),
    (MCConfig, CONFIG_FIELDS, {"sets": 0}),
    (MCConfig, CONFIG_FIELDS, {"seed": -1}),
]


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("cls, valid, change", INVALID)
def test_validation_holds_on_every_route(build, cls, valid, change):
    assert cls(**valid) == cls._make(valid.values())  # the valid form builds
    with pytest.raises(ValueError):
        BUILDERS[build](cls, valid, {**valid, **change})


@pytest.mark.parametrize(
    "record", [SPEC, MCConfig(SPEC, 10, 1, 5), FIT, ConvergenceRow(10, (0.1,))]
)
def test_pickle_and_replace_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(pickle.loads(pickle.dumps(record))) is type(record)
    assert record._replace() == record
    assert record._make(record) == record


def test_equal_specs_are_equal_and_hash_alike():
    same = NecklaceSpec(n_at=3, n_gc=5)
    assert same == SPEC and same is not SPEC
    assert hash(same) == hash(SPEC)
    assert len({SPEC, same, NecklaceSpec(5, 3)}) == 2
    assert MCConfig(SPEC, 10, 1, 5) == MCConfig(spec=same, runs=10, seed=1, sets=5)


def test_defaults_fill_the_trailing_fields():
    assert RatioSweepResult([]).slope is None
    # Every production caller passes every field of the other records.
    for cls in (MCConfig, DiscretePdf, SweepRow, ConvergenceRow):
        assert cls._field_defaults == {}, cls
    with pytest.raises(TypeError):
        MCConfig(SPEC, 10, 1)


def test_sweep_error_rows_keep_fit_none():
    # (3, 3) has a flat pdf, which the fit refuses.
    (row,) = sweep_fixed_at(3, [3])
    assert row.fit is None
    assert "no peak to fit" in row.error
    result = sweep_fixed_ratio((1, 1), [6, 8])
    failed, fitted = result.rows
    assert failed.fit is None and "no peak to fit" in failed.error
    assert isinstance(fitted.fit, GaussianFit) and fitted.error is None
    assert result.slope is None  # one fitted row gives no line
