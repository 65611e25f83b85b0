"""Tests for the wireless channel model."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.net.channel import Channel, Jammer
from repro.util.geometry import Point


def make_channel(**kw):
    defaults = dict(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=1)
    defaults.update(kw)
    return Channel(**defaults)


class TestPathLoss:
    def test_reference_loss_at_reference_distance(self):
        ch = make_channel()
        assert ch.path_loss_db(1.0) == pytest.approx(40.0)

    def test_monotone_in_distance(self):
        ch = make_channel()
        losses = [ch.path_loss_db(d) for d in (1, 10, 100, 1000)]
        assert losses == sorted(losses)

    def test_below_reference_clamped(self):
        ch = make_channel()
        assert ch.path_loss_db(0.001) == ch.path_loss_db(1.0)

    def test_exponent_scaling(self):
        ch2 = make_channel(path_loss_exponent=2.0)
        ch4 = make_channel(path_loss_exponent=4.0)
        # Per decade: 20 dB vs 40 dB.
        assert ch2.path_loss_db(10) - ch2.path_loss_db(1) == pytest.approx(20.0)
        assert ch4.path_loss_db(10) - ch4.path_loss_db(1) == pytest.approx(40.0)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel(path_loss_exponent=0.0)


class TestShadowing:
    def test_symmetric_in_pair(self):
        ch = Channel(shadowing_sigma_db=6.0, seed=3)
        assert ch.shadowing_db(4, 9) == ch.shadowing_db(9, 4)

    def test_deterministic_per_seed(self):
        a = Channel(shadowing_sigma_db=6.0, seed=3).shadowing_db(1, 2)
        b = Channel(shadowing_sigma_db=6.0, seed=3).shadowing_db(1, 2)
        assert a == b

    def test_differs_across_links(self):
        ch = Channel(shadowing_sigma_db=6.0, seed=3)
        values = {ch.shadowing_db(1, k) for k in range(2, 12)}
        assert len(values) > 1

    def test_zero_sigma_is_zero(self):
        assert make_channel().shadowing_db(1, 2) == 0.0


class TestDelivery:
    def test_close_link_near_certain(self):
        ch = make_channel()
        p = ch.delivery_probability(20.0, Point(0, 0), Point(5, 0))
        assert p > 0.99

    def test_far_link_near_zero(self):
        ch = make_channel()
        p = ch.delivery_probability(20.0, Point(0, 0), Point(5000, 0))
        assert p < 0.01

    def test_monotone_decreasing_with_distance(self):
        ch = make_channel()
        ps = [
            ch.delivery_probability(20.0, Point(0, 0), Point(d, 0))
            for d in (10, 50, 100, 200, 400)
        ]
        assert ps == sorted(ps, reverse=True)

    @given(st.floats(min_value=1, max_value=5000))
    def test_probability_in_unit_interval(self, d):
        ch = make_channel()
        p = ch.delivery_probability(20.0, Point(0, 0), Point(d, 0))
        assert 0.0 <= p <= 1.0

    def test_comm_range_consistent_with_delivery(self):
        ch = make_channel()
        r = ch.comm_range_m(20.0)
        # At the range boundary, mean SINR equals threshold -> p = 0.5.
        p = ch.delivery_probability(20.0, Point(0, 0), Point(r, 0))
        assert p == pytest.approx(0.5, abs=0.05)

    def test_comm_range_grows_with_power(self):
        ch = make_channel()
        assert ch.comm_range_m(30.0) > ch.comm_range_m(10.0)


class TestDeliveryVerdicts:
    def test_matches_reference_and_returns_plain_bools(self):
        # Sizes straddle 8, where an earlier numpy branch used to take over.
        ch = make_channel()
        rng = random.Random(99)
        for n in (0, 1, 7, 8, 9, 64):
            probs = [rng.random() for _ in range(n)]
            draws = [rng.random() for _ in range(n)]
            for survival in (1.0, 0.85):
                verdicts = ch.delivery_verdicts(probs, draws, survival=survival)
                assert verdicts == [d < p * survival for p, d in zip(probs, draws)]
                assert all(type(v) is bool for v in verdicts)


class TestJamming:
    def test_jammer_reduces_delivery(self):
        ch = make_channel()
        rx = Point(100, 0)
        p_clear = ch.delivery_probability(20.0, Point(0, 0), rx)
        ch.add_jammer(Jammer(position=Point(110, 0), power_dbm=30.0))
        p_jammed = ch.delivery_probability(20.0, Point(0, 0), rx)
        assert p_jammed < p_clear

    def test_inactive_jammer_no_effect(self):
        ch = make_channel()
        rx = Point(100, 0)
        p_clear = ch.delivery_probability(20.0, Point(0, 0), rx)
        ch.add_jammer(Jammer(position=Point(110, 0), power_dbm=30.0, active=False))
        assert ch.delivery_probability(20.0, Point(0, 0), rx) == pytest.approx(
            p_clear
        )

    def test_jammer_effect_decays_with_distance(self):
        ch = make_channel()
        rx = Point(100, 0)
        near = Jammer(position=Point(105, 0), power_dbm=30.0)
        assert near.interference_mw(ch, rx) > Jammer(
            position=Point(1000, 0), power_dbm=30.0
        ).interference_mw(ch, rx)

    def test_clear_jammers(self):
        ch = make_channel()
        ch.add_jammer(Jammer(position=Point(0, 0)))
        ch.clear_jammers()
        assert ch.jammers == []
