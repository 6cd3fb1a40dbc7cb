"""Tests for the assisted-capacity mixing arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capcont.assisted import (
    MixingGeometry,
    colinear_rescale,
    continuity_delta,
    erasure_q2,
    erasure_qb_bounds,
    mutual_gap_bound,
    simulation_upper_bound,
)
from capcont.errors import ArgumentError
from capcont.sampling import rng_for

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
half = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


class TestSimulationUpperBound:
    def test_no_mixing_returns_simulating_capacity(self):
        assert simulation_upper_bound(0.37, 0.0, 2.0) == 0.37

    def test_full_mixing_returns_ceiling(self):
        assert simulation_upper_bound(0.37, 1.0, 2.0) == 2.0

    def test_capacity_at_ceiling_stays_there(self):
        assert simulation_upper_bound(1.0, 0.1, 1.0) == pytest.approx(1.0)

    def test_interpolates(self):
        # oracle: p1 log d + (1 - p1) q2
        assert simulation_upper_bound(0.5, 0.25, 2.0) == pytest.approx(
            0.25 * 2.0 + 0.75 * 0.5
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_nonpositive_capacity_rejected(self, bad):
        with pytest.raises(ArgumentError):
            simulation_upper_bound(bad, 0.5, 1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_mixing_weight_out_of_range_rejected(self, bad):
        with pytest.raises(ArgumentError):
            simulation_upper_bound(0.5, bad, 1.0)

    @pytest.mark.parametrize("log_d", [0.0, -3.0, math.nan, math.inf])
    def test_ceiling_must_be_positive_and_finite(self, log_d):
        # Every function that takes the ceiling refuses the same values.
        for takes_ceiling in (
            lambda: simulation_upper_bound(0.5, 0.5, log_d),
            lambda: mutual_gap_bound(0.5, 0.5, 0.5, 0.5, log_d),
            lambda: continuity_delta(0.1, 1.0, log_d),
            lambda: MixingGeometry(p1=0.3, p2=0.4, Delta=1.0, delta=0.5, log_d=log_d),
        ):
            with pytest.raises(ArgumentError, match="must be positive and finite"):
                takes_ceiling()

    @pytest.mark.parametrize("q2_n", [1.5, math.nan])
    def test_capacity_above_ceiling_rejected(self, q2_n):
        with pytest.raises(ArgumentError, match="outside"):
            simulation_upper_bound(q2_n, 0.5, 1.0)


class TestMutualGapBound:
    def test_worked_example(self):
        # oracle: min(0.2 * (1 - 0.5), 0.1 * (1 - 0.7)) = min(0.1, 0.03)
        assert mutual_gap_bound(0.5, 0.7, 0.2, 0.1, 1.0) == pytest.approx(0.03)

    def test_zero_when_unmixed(self):
        assert mutual_gap_bound(0.5, 0.7, 0.0, 0.0, 1.0) == 0.0

    def test_zero_at_ceiling(self):
        assert mutual_gap_bound(1.0, 1.0, 0.3, 0.4, 1.0) == 0.0

    def test_symmetric_under_channel_swap(self):
        a = mutual_gap_bound(0.5, 0.7, 0.2, 0.1, 1.0)
        b = mutual_gap_bound(0.7, 0.5, 0.1, 0.2, 1.0)
        assert a == b

    @given(q2_n=unit, q2_m=unit, p1=unit, p2=unit)
    def test_nonnegative(self, q2_n, q2_m, p1, p2):
        assert mutual_gap_bound(q2_n, q2_m, p1, p2, 1.0) >= 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q2_n=1.5),
            dict(q2_n=-0.1),
            dict(q2_m=1.5),
            dict(p1=1.1),
            dict(p2=-0.2),
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        args = dict(q2_n=0.5, q2_m=0.5, p1=0.2, p2=0.2, log_d=1.0)
        args.update(kwargs)
        with pytest.raises(ArgumentError):
            mutual_gap_bound(**args)


class TestMixingGeometry:
    def test_valid_construction(self):
        g = MixingGeometry(p1=0.3, p2=0.4, Delta=1.0, delta=0.5, log_d=1.0)
        assert g.delta == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p1=-0.1),
            dict(p1=1.1),
            dict(p2=0.6),  # p2 capped at 1/2 by construction
            dict(p2=-0.1),
            dict(Delta=0.0),
            dict(Delta=-1.0),
            dict(delta=0.0),
            dict(delta=1.5),  # exceeds Delta
            dict(log_d=0.0),
        ],
    )
    def test_invalid_field_rejected(self, kwargs):
        args = dict(p1=0.3, p2=0.4, Delta=1.0, delta=0.5, log_d=1.0)
        args.update(kwargs)
        with pytest.raises(ArgumentError):
            MixingGeometry(**args)

    def test_fields_hold_the_floats_their_readers_return(self):
        # The fields used to keep the raw inputs, though the checks read copies.
        g = MixingGeometry(p1=np.float32(0.5), p2=0, Delta=np.int64(2), delta=1,
                           log_d=np.float64(1.0))
        fields = (g.p1, g.p2, g.Delta, g.delta, g.log_d)
        assert all(type(x) is float for x in fields) and fields == (0.5, 0.0, 2.0, 1.0, 1.0)
        q1, q2 = colinear_rescale(g)
        assert type(q1) is float and type(q2) is float
        assert (q1, q2) == colinear_rescale(MixingGeometry(0.5, 0.0, 2.0, 1.0, 1.0))

    def test_string_field_rejected_not_stored(self):
        # "0.5" passed the old range check as float("0.5") and was stored as
        # the string, so colinear_rescale failed with a TypeError.
        with pytest.raises(ArgumentError, match="^p1 must be a real number, got '0.5'$"):
            MixingGeometry("0.5", 0.4, 1.0, 0.5, 1.0)


class TestColinearRescale:
    def test_full_separation_is_identity(self):
        g = MixingGeometry(p1=0.3, p2=0.4, Delta=2.0, delta=2.0, log_d=1.0)
        q1, q2 = colinear_rescale(g)
        assert q1 == pytest.approx(0.3)
        assert q2 == pytest.approx(0.4)

    def test_vanishing_separation_vanishes(self):
        g = MixingGeometry(p1=0.3, p2=0.4, Delta=1.0, delta=1e-9, log_d=1.0)
        q1, q2 = colinear_rescale(g)
        assert 0.0 < q1 < 1e-8
        assert 0.0 < q2 < 1e-8

    def test_half_separation_at_extremal_weight(self):
        # oracle: q2 = (1/2)(1/2) / ((1/2)(1/2) + 1/2) = 1/3
        g = MixingGeometry(p1=0.5, p2=0.5, Delta=1.0, delta=0.5, log_d=1.0)
        q1, q2 = colinear_rescale(g)
        assert q1 == pytest.approx(0.25)
        assert q2 == pytest.approx(1.0 / 3.0)
        assert q2 <= 0.5

    def test_rescaled_weights_bounded(self):
        # q1 <= p1 exactly and q2 <= 2 p2 delta/Delta, with no tolerance,
        # across many random geometries.
        rng = rng_for(7)
        for _ in range(10_000):
            p1 = float(rng.random())
            p2 = float(rng.random()) / 2.0
            big = float(rng.random()) * 10.0 + 1e-6
            small = float(rng.random()) * big
            if small == 0.0 or p2 == 0.0:
                continue
            g = MixingGeometry(p1=p1, p2=p2, Delta=big, delta=small, log_d=1.0)
            q1, q2 = colinear_rescale(g)
            assert q1 <= p1
            assert q2 <= 2.0 * p2 * (small / big)

    @given(
        p1=unit,
        p2=half,
        ratio=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    )
    def test_rescaled_weights_bounded_property(self, p1, p2, ratio):
        g = MixingGeometry(p1=p1, p2=p2, Delta=1.0, delta=ratio, log_d=1.0)
        q1, q2 = colinear_rescale(g)
        assert q1 <= p1
        assert q2 <= 2.0 * p2 * ratio + 1e-15


class TestContinuityDelta:
    def test_vacuous_ball(self):
        # eps = 2 log d makes the admissible radius the whole ball
        assert continuity_delta(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_worked_example(self):
        assert continuity_delta(0.01, 0.1, 1.0) == pytest.approx(5e-4)

    @pytest.mark.parametrize(
        "eps, Delta",
        [(-0.5, 1.0), (0.1, -2.0), (0.1, math.inf), (math.nan, 1.0)],
        ids=["negative-eps", "negative-Delta", "infinite-Delta", "nan-eps"],
    )
    def test_gap_and_radius_must_be_positive_and_finite(self, eps, Delta):
        with pytest.raises(ArgumentError, match="must be positive and finite"):
            continuity_delta(eps, Delta, 1.0)

    def test_composition_keeps_gap_within_eps(self):
        # Worst-case mixing weights p1 = p2 = 1/2: the separation radius
        # from continuity_delta must keep min(q1, q2) log d within eps.
        for eps in (1e-3, 0.05, 0.5):
            for log_d in (1.0, 2.0, 3.0):
                delta = continuity_delta(eps, 1.0, log_d)
                g = MixingGeometry(
                    p1=0.5, p2=0.5, Delta=1.0, delta=delta, log_d=log_d
                )
                q1, q2 = colinear_rescale(g)
                assert min(q1, q2) * log_d <= eps + 1e-15

    @given(p1=unit, p2=half)
    def test_composition_over_all_weights(self, p1, p2):
        eps, log_d = 0.1, 2.0
        delta = continuity_delta(eps, 1.0, log_d)
        if p2 == 0.0:
            return
        g = MixingGeometry(p1=max(p1, 1e-9), p2=p2, Delta=1.0, delta=delta, log_d=log_d)
        q1, q2 = colinear_rescale(g)
        assert min(q1, q2) * log_d <= eps + 1e-15


class TestErasureRates:
    def test_two_way_rate(self):
        assert erasure_q2(0.0) == 1.0
        assert erasure_q2(0.25) == 0.75
        assert erasure_q2(1.0) == 0.0

    def test_bracket_endpoints(self):
        lo, hi = erasure_qb_bounds(0.25)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.75)
        lo, hi = erasure_qb_bounds(0.75)
        assert lo == 0.0
        assert hi == pytest.approx(0.25)

    def test_grid_affine_and_ordered(self):
        # 101-point sweep: the two-way rate is affine in p, the bracket is
        # ordered, and its upper edge is the two-way rate.
        grid = np.linspace(0.0, 1.0, 101)
        rates = np.array([erasure_q2(p) for p in grid])
        assert np.allclose(np.diff(rates), -0.01)
        for p, rate in zip(grid, rates):
            lo, hi = erasure_qb_bounds(p)
            assert lo <= hi + 1e-15
            assert hi == rate
            assert lo == max(1.0 - 2.0 * p, 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_erasure_probability_out_of_range_rejected(self, bad):
        with pytest.raises(ArgumentError):
            erasure_q2(bad)
        with pytest.raises(ArgumentError):
            erasure_qb_bounds(bad)
