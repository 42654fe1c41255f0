"""The public surface, and the one field rule every record type follows."""

import numpy as np
import pytest

import margshift
from margshift import (
    AngleDecomposition,
    DiscordanceTerms,
    HazardPair,
    MarginalPair,
    MargshiftError,
    ShapeError,
    errors,
    inference,
    mcor,
    measures,
    simulate,
    tables,
)

MODULES = (tables, measures, mcor, inference, simulate, errors)

PUBLIC_NAMES = {
    "__version__",
    # tables
    "CountTable",
    "ProbTable",
    "MarginalPair",
    "HazardPair",
    "from_counts",
    "marginals",
    "hazards",
    # measures
    "DiscordanceTerms",
    "AngleDecomposition",
    "discordance",
    "phi",
    "psi",
    "angle_decomposition",
    # shift model
    "McorScenario",
    "phi_of_delta",
    "delta_of_phi",
    "scenario_table",
    "curve_grid",
    # inference
    "ConfInterval",
    "EstimateReport",
    "GroupComparison",
    "multinomial_covariance",
    "grad_phi",
    "grad_fd",
    "wald_ci",
    "bootstrap_ci",
    "compare_groups",
    "z_quantile",
    # simulation
    "CoverageStudySpec",
    "CoverageResult",
    "sample_table",
    "coverage_study",
    # errors
    "MargshiftError",
    "ShapeError",
    "ZeroTotalError",
    "TableParseError",
    "DomainError",
    "DegenerateMassError",
    "NonDifferentiableError",
    "MethodMismatchError",
    "TooManyDegenerateReplicatesError",
}


def test_each_public_name_is_declared_in_one_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert len(margshift.__all__) == len(set(margshift.__all__))
    assert set(margshift.__all__) == {"__version__", *declared}


def test_the_public_surface_keeps_its_names():
    assert len(PUBLIC_NAMES) == 42
    assert set(margshift.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_the_object_its_module_defines(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert obj.__module__ == module.__name__, name
        assert getattr(margshift, name) is obj, name


def test_every_error_class_is_public():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, MargshiftError)
    }
    assert defined == set(errors.__all__)


# One valid set of fields, each of length 2, per record type.
RECORDS = {
    MarginalPair: dict(
        row=[0.5, 0.5],
        col=[0.5, 0.5],
        row_cum=[0.5, 1.0],
        col_cum=[0.5, 1.0],
        row_surv=[1.0, 0.5],
        col_surv=[1.0, 0.5],
    ),
    HazardPair: dict(
        omega_x=[0.5, 0.2], omega_y=[0.5, 0.2], exhausted_x=[False] * 2, exhausted_y=[False] * 2
    ),
    DiscordanceTerms: dict(w1=[0.25, 0.5], w2=[0.25, 0.5]),
    AngleDecomposition: dict(theta=[0.5, 0.5], weight=[0.5, 0.5], defined=[True, True]),
}

FIELD_CASES = [(record, name) for record, fields in RECORDS.items() for name in fields]


def case_id(case):
    return f"{case[0].__name__}.{case[1]}"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_freezes_copies_of_its_fields(record):
    given = {name: np.array(value) for name, value in RECORDS[record].items()}
    built = record(**given)
    for name, value in given.items():
        field = getattr(built, name)
        assert field.ndim == 1 and not field.flags.writeable
        assert np.array_equal(field, value)
        assert value.flags.writeable  # the caller's array is neither frozen nor shared
        assert not np.shares_memory(field, value)


@pytest.mark.parametrize("case", FIELD_CASES, ids=case_id)
def test_a_two_dimensional_field_is_a_shape_error(case):
    record, name = case
    fields = dict(RECORDS[record])
    fields[name] = [fields[name], fields[name]]
    with pytest.raises(ShapeError, match=f"{name} \\(2, 2\\)"):
        record(**fields)


@pytest.mark.parametrize("case", FIELD_CASES, ids=case_id)
def test_fields_of_unequal_length_are_a_shape_error(case):
    record, name = case
    fields = dict(RECORDS[record])
    fields[name] = fields[name][:1]
    with pytest.raises(ShapeError, match=f"{name} \\(1,\\)"):
        record(**fields)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_empty_fields_are_a_shape_error(record):
    with pytest.raises(ShapeError, match="one length >= 1"):
        record(**{name: [] for name in RECORDS[record]})
