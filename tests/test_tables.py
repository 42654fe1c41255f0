"""Table construction, marginals, survivals and hazards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margshift import (
    CountTable,
    DomainError,
    HazardPair,
    MarginalPair,
    ProbTable,
    ShapeError,
    ZeroTotalError,
    from_counts,
    hazards,
    marginals,
)
from conftest import ACTIVE_COUNTS, LEFT_EXTREME


class TestCountTable:
    def test_shape_and_totals(self, active_table):
        assert active_table.r == 4
        assert active_table.n == 119

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            CountTable([[1, 2, 3], [4, 5, 6]])

    def test_rejects_one_by_one(self):
        with pytest.raises(ShapeError):
            CountTable([[5]])

    def test_rejects_all_zero(self):
        with pytest.raises(ZeroTotalError):
            CountTable([[0, 0], [0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            CountTable([[1, -1], [0, 3]])

    def test_rejects_fractional(self):
        with pytest.raises(DomainError):
            CountTable([[1.5, 0.5], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "counts, message",
        [
            (np.array([[2**63, 1], [1, 1]], dtype=np.uint64), "counts must not exceed"),
            (np.array([[2**64 - 1, 0], [0, 1]], dtype=np.uint64), "counts must not exceed"),
            (np.array([[1e19, 1.0], [1.0, 1.0]]), "counts must not exceed"),
            ([[2**62] * 2] * 2, "totals must not exceed"),  # the int64 sum wraps to 0
            ([[2**62, 2**62], [2**62, 2**62 + 5]], "totals must not exceed"),  # wraps to 5
            (np.array([[2**62, 2**62], [2**62, 2**62]], dtype=np.uint64), "totals must not exceed"),
        ],
    )
    def test_rejects_counts_and_totals_beyond_int64(self, counts, message):
        with pytest.raises(DomainError, match=message):
            CountTable(counts)

    @pytest.mark.parametrize("top", [2**64, 2**70])
    def test_rejects_python_ints_beyond_every_integer_dtype(self, top):
        # numpy holds these in an object array
        with pytest.raises(DomainError, match=f"counts must not exceed 2\\^63 - 1, got {top}"):
            CountTable([[top, 1], [1, 1]])

    def test_rejects_negative_python_ints_beyond_int64(self):
        with pytest.raises(DomainError, match="nonnegative"):
            CountTable([[-(2**70), 1], [1, 1]])

    def test_rejects_object_arrays_of_non_integers(self):
        with pytest.raises(DomainError, match="got dtype object"):
            CountTable(np.array([[1, None], [1, 1]], dtype=object))

    def test_a_callers_array_stays_writeable_and_unshared(self):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        table = CountTable(counts)
        assert counts.flags.writeable
        assert not np.shares_memory(table.counts, counts)
        counts[0, 0] = 99
        assert table.counts[0, 0] == 1

    def test_accepts_the_largest_int64_total(self):
        top = 2**63 - 1
        t = CountTable([[top - 3 * 2**61, 2**61], [2**61, 2**61]])
        assert t.n == top
        assert CountTable([[top, 0], [0, 0]]).n == top

    def test_accepts_integral_floats(self):
        t = CountTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.n == 10

    def test_immutable(self, active_table):
        with pytest.raises(ValueError):
            active_table.counts[0, 0] = 99

    def test_equality_and_transpose(self, active_table):
        assert active_table == CountTable(ACTIVE_COUNTS)
        assert active_table.transposed().counts[0, 1] == 11
        assert active_table.transposed().transposed() == active_table


class TestProbTable:
    def test_renormalizes_near_unit_mass(self):
        p = np.full((2, 2), 0.25)
        p[0, 0] += 5e-10
        t = ProbTable(p)
        assert float(t.p.sum()) == pytest.approx(1.0, abs=1e-15)
        # the caller's array is neither renormalized in place nor shared
        assert p[0, 0] == 0.25 + 5e-10 and p.flags.writeable
        assert not np.shares_memory(t.p, p)

    def test_rejects_off_mass(self):
        with pytest.raises(DomainError):
            ProbTable(np.full((2, 2), 0.25 + 1e-6))

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            ProbTable([[0.5, -0.1], [0.3, 0.3]])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ProbTable([[0.5, np.nan], [0.25, 0.25]])


class TestFromCounts:
    def test_active_drug_cells(self, active_table):
        p = from_counts(active_table)
        assert p.p[0, 0] == pytest.approx(7 / 119, rel=1e-14)
        assert p.p[0, 0] == pytest.approx(0.05882, abs=5e-6)

    def test_identity_like_split(self):
        p = from_counts(CountTable([[1, 0], [0, 1]]))
        assert np.array_equal(p.p, [[0.5, 0.0], [0.0, 0.5]])

    def test_scaling_counts_is_invariant(self, active_table):
        p1 = from_counts(active_table)
        p7 = from_counts(CountTable(np.asarray(ACTIVE_COUNTS) * 7))
        np.testing.assert_allclose(p7.p, p1.p, rtol=1e-15, atol=0)


class TestMarginals:
    def test_active_drug_marginals(self, active_table):
        m = marginals(from_counts(active_table))
        np.testing.assert_allclose(m.row, np.array([12, 20, 40, 47]) / 119, rtol=1e-14)
        np.testing.assert_allclose(m.col, np.array([40, 49, 19, 11]) / 119, rtol=1e-14)

    def test_left_extreme_marginals(self, left_extreme):
        m = marginals(left_extreme)
        np.testing.assert_allclose(m.row, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.col, [0.4, 0.6, 0.0], atol=1e-15)

    def test_symmetric_table_has_equal_marginals(self):
        m = marginals(from_counts(CountTable([[2, 5, 1], [5, 3, 4], [1, 4, 9]])))
        np.testing.assert_array_equal(m.row, m.col)

    def test_survival_identities(self, placebo_table):
        m = marginals(from_counts(placebo_table))
        for cum, surv in ((m.row_cum, m.row_surv), (m.col_cum, m.col_surv)):
            assert surv[0] == pytest.approx(1.0, abs=1e-12)
            prev = np.concatenate(([0.0], cum[:-1]))
            np.testing.assert_allclose(surv, 1.0 - prev, atol=1e-12)
            assert np.all(np.diff(surv) <= 0)

    def test_invalid_marginal_pair_rejected(self):
        with pytest.raises(DomainError, match="sum to 1"):
            MarginalPair(row=[0.5, 0.4], col=[0.5, 0.5])
        # sums to 1, but its survivals would give a hazard of 1.1
        with pytest.raises(DomainError, match="nonnegative"):
            MarginalPair(row=[1.1, -0.1], col=[0.5, 0.5])
        with pytest.raises(DomainError, match="finite"):
            MarginalPair(row=[0.5, 0.5], col=[np.nan, 1.0])


class TestHazards:
    def test_active_drug_hazards(self, active_table):
        h = hazards(marginals(from_counts(active_table)))
        np.testing.assert_allclose(h.omega_x, [12 / 119, 20 / 107, 40 / 87], rtol=1e-12)
        np.testing.assert_allclose(h.omega_y, [40 / 119, 49 / 79, 19 / 30], rtol=1e-12)
        assert not h.exhausted_x.any()
        assert not h.exhausted_y.any()

    def test_mass_only_in_last_category(self, left_extreme):
        h = hazards(marginals(left_extreme))
        np.testing.assert_array_equal(h.omega_x, [0.0, 0.0])
        assert not h.exhausted_x.any()

    def test_exhausted_survival_is_flagged(self):
        # all row mass in the first category: s_2 = 0, hazard 2 undefined
        p = ProbTable([[0.4, 0.3, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = hazards(marginals(p))
        assert h.omega_x[0] == 1.0
        assert h.omega_x[1] == 0.0
        assert list(h.exhausted_x) == [False, True]

    def test_equal_marginals_give_equal_hazards(self):
        t = CountTable([[3, 1, 4], [1, 5, 9], [4, 9, 2]])
        h = hazards(marginals(from_counts(t)))
        np.testing.assert_array_equal(h.omega_x, h.omega_y)

    def test_hazard_pair_validation(self):
        with pytest.raises(DomainError):
            HazardPair(
                omega_x=[0.5, 1.2],  # out of [0, 1]
                omega_y=[0.5, 0.5],
                exhausted_x=[False, False],
                exhausted_y=[False, False],
            )

    def test_nonzero_hazard_at_an_exhausted_index_is_refused(self):
        with pytest.raises(DomainError, match="exhausted omega_y entries must be 0"):
            HazardPair(
                omega_x=[0.5, 0.5],
                omega_y=[1.0, 0.3],  # index 2 is exhausted, so its hazard must be 0
                exhausted_x=[False, False],
                exhausted_y=[False, True],
            )


def test_record_sizes_and_table_equality():
    assert MarginalPair(row=[0.25, 0.75], col=[0.5, 0.5]).r == 2
    h = HazardPair(omega_x=[0.2, 0.5], omega_y=[0.3, 0.5],
                   exhausted_x=[False, False], exhausted_y=[False, False])
    assert h.size == 2
    table = CountTable(ACTIVE_COUNTS)
    # anything that is not a CountTable is unequal, even with the same counts
    assert table.__eq__(ACTIVE_COUNTS) is NotImplemented
    assert table != ACTIVE_COUNTS and table != "table"
    assert table == CountTable(ACTIVE_COUNTS)


@st.composite
def prob_tables_with_positive_survivals(draw):
    r = draw(st.integers(2, 5))
    cells = draw(
        st.lists(st.integers(1, 30), min_size=r * r, max_size=r * r)
    )
    return from_counts(CountTable(np.array(cells).reshape(r, r)))


@given(prob_tables_with_positive_survivals())
@settings(max_examples=100, deadline=None)
def test_survival_reconstructs_from_hazards(pt):
    """s_{i+1} = s_i (1 - omega_i) with s_1 = 1 recovers the survivals."""
    m = marginals(pt)
    h = hazards(m)
    for omega, surv in ((h.omega_x, m.row_surv), (h.omega_y, m.col_surv)):
        s = 1.0
        rebuilt = [s]
        for w in omega:
            s *= 1.0 - w
            rebuilt.append(s)
        np.testing.assert_allclose(rebuilt, surv, atol=1e-12)
