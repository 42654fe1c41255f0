"""The public surface, the one field rule every record type follows, and the
one rule for every scalar parameter."""

import math
import re

import numpy as np
import pytest

import margshift
from margshift import (
    AngleDecomposition,
    CountTable,
    CoverageStudySpec,
    DiscordanceTerms,
    DomainError,
    HazardPair,
    MarginalPair,
    MargshiftError,
    McorScenario,
    ShapeError,
    bootstrap_ci,
    compare_groups,
    curve_grid,
    delta_of_phi,
    errors,
    from_counts,
    grad_fd,
    inference,
    mcor,
    measures,
    phi_of_delta,
    psi,
    sample_table,
    simulate,
    tables,
    wald_ci,
    z_quantile,
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
    MarginalPair: dict(row=[0.5, 0.5], col=[0.5, 0.5]),
    HazardPair: dict(
        omega_x=[0.5, 0.2], omega_y=[0.5, 0.2], exhausted_x=[False] * 2, exhausted_y=[False] * 2
    ),
    DiscordanceTerms: dict(w1=[0.25, 0.5], w2=[0.25, 0.5]),
    AngleDecomposition: dict(theta=[0.5, 0.5], weight=[0.5, 0.5], defined=[True, True]),
}

# MarginalPair's derived fields, each with the margin it is derived from.  A
# derived field is never supplied, so a malformed one could only come from a
# malformed margin (np.cumsum would flatten a 2-d margin without complaint);
# the record refuses that margin, under the margin's name, before deriving.
DERIVED_FROM = {"row_cum": "row", "col_cum": "col", "row_surv": "row", "col_surv": "col"}

FIELD_CASES = [(record, name) for record, fields in RECORDS.items() for name in fields]
FIELD_CASES += [(MarginalPair, name) for name in DERIVED_FROM]


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
    name = DERIVED_FROM.get(name, name)
    fields = dict(RECORDS[record])
    fields[name] = [fields[name], fields[name]]
    with pytest.raises(ShapeError, match=f"{name} \\(2, 2\\)"):
        record(**fields)


@pytest.mark.parametrize("case", FIELD_CASES, ids=case_id)
def test_fields_of_unequal_length_are_a_shape_error(case):
    record, name = case
    name = DERIVED_FROM.get(name, name)
    fields = dict(RECORDS[record])
    fields[name] = fields[name][:1]
    with pytest.raises(ShapeError, match=f"{name} \\(1,\\)"):
        record(**fields)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_empty_fields_are_a_shape_error(record):
    with pytest.raises(ShapeError, match="one length >= 1"):
        record(**{name: [] for name in RECORDS[record]})


# what MarginalPair(row=[0.25, 0.75], col=[0.5, 0.5]) derives
DERIVED = {
    "row_cum": [0.25, 1.0],
    "col_cum": [0.5, 1.0],
    "row_surv": [1.0, 0.75],
    "col_surv": [1.0, 0.5],
}


@pytest.mark.parametrize("name", DERIVED)
def test_a_marginal_pair_derives_its_other_fields(name):
    built = MarginalPair(row=[0.25, 0.75], col=[0.5, 0.5])
    field = getattr(built, name)
    assert field.ndim == 1 and not field.flags.writeable
    np.testing.assert_array_equal(field, DERIVED[name])
    with pytest.raises(TypeError):  # derived, so not accepted
        MarginalPair(row=[0.25, 0.75], col=[0.5, 0.5], **{name: field})


# The public scalar parameters: (id, name in the message, call, a valid value,
# integer or real).  call(value) passes value to that parameter alone.
TABLE = CountTable([[20, 10, 5], [8, 25, 7], [4, 9, 30]])
SCENARIO = McorScenario(base_haz_x=[0.3, 0.4], delta=0.5)
P = from_counts(TABLE).p.ravel()
DELTA_REPORT = wald_ci(TABLE)

SCALARS = [
    ("wald_ci.level", "confidence level", lambda v: wald_ci(TABLE, level=v), 0.9, float),
    ("wald_ci.lam", "lambda", lambda v: wald_ci(TABLE, measure="psi", lam=v), 0.5, float),
    ("bootstrap_ci.level", "confidence level",
     lambda v: bootstrap_ci(TABLE, level=v, replicates=200), 0.9, float),
    ("bootstrap_ci.replicates", "replicates",
     lambda v: bootstrap_ci(TABLE, replicates=v), 200, int),
    ("bootstrap_ci.seed", "seed", lambda v: bootstrap_ci(TABLE, replicates=200, seed=v), 1, int),
    ("compare_groups.level", "confidence level",
     lambda v: compare_groups(DELTA_REPORT, DELTA_REPORT, level=v), 0.9, float),
    ("grad_fd.h", "step h", lambda v: grad_fd(P, h=v), 1e-6, float),
    ("grad_fd.lam", "lambda", lambda v: grad_fd(P, measure="psi", lam=v), 0.5, float),
    ("z_quantile.q", "quantile level", z_quantile, 0.9, float),
    ("psi.lam", "lambda", lambda v: psi(DiscordanceTerms([0.25], [0.5]), v), 0.5, float),
    ("McorScenario.delta", "delta", lambda v: McorScenario(base_haz_x=[0.5], delta=v), 0.5, float),
    ("phi_of_delta.delta", "delta", phi_of_delta, 0.5, float),
    ("delta_of_phi.phi", "phi", delta_of_phi, 0.5, float),
    ("curve_grid.delta_min", "delta_min", lambda v: curve_grid(v, 1.0, 0.5), -1.0, float),
    ("curve_grid.delta_max", "delta_max", lambda v: curve_grid(-1.0, v, 0.5), 1.0, float),
    ("curve_grid.step", "step", lambda v: curve_grid(-1.0, 1.0, v), 0.5, float),
    ("sample_table.n", "sample size", lambda v: sample_table(from_counts(TABLE), v, 0), 10, int),
    ("sample_table.seed", "seed", lambda v: sample_table(from_counts(TABLE), 10, v), 1, int),
    ("CoverageStudySpec.n", "sample size",
     lambda v: CoverageStudySpec(scenario=SCENARIO, n=v, replicates=100), 10, int),
    ("CoverageStudySpec.replicates", "replicates",
     lambda v: CoverageStudySpec(scenario=SCENARIO, n=10, replicates=v), 100, int),
    ("CoverageStudySpec.level", "confidence level",
     lambda v: CoverageStudySpec(scenario=SCENARIO, n=10, replicates=100, level=v), 0.9, float),
    ("CoverageStudySpec.seed", "seed",
     lambda v: CoverageStudySpec(scenario=SCENARIO, n=10, replicates=100, seed=v), 1, int),
]


def bad_values(valid, kind):
    """Values the parameter must refuse; for an integer also a fraction just
    above the valid value, which truncation would silently accept."""
    bad = [None, "x", math.nan, math.inf, -math.inf]
    if kind is int:
        bad += [1.5, valid + 0.5, True, str(valid)]
    return bad


@pytest.mark.parametrize("case", SCALARS, ids=lambda c: c[0])
def test_a_bad_scalar_parameter_is_a_domain_error_naming_it(case):
    _, name, call, valid, kind = case
    call(valid)
    call(np.float64(valid) if kind is float else np.int64(valid))
    for value in bad_values(valid, kind):
        message = f"^{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            call(value)
