"""Int planes: round trip, masks, multiplexing and per-lane counters."""

import random

import pytest

from repro.fleet import IntBackend, LaneCounter, select


class TestBackends:
    @pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
    def test_int_round_trip(self, n):
        rng = random.Random(n)
        value = rng.getrandbits(n)
        backend = IntBackend(n)
        plane = backend.from_int(value)
        assert backend.to_int(plane) == value
        assert backend.popcount(plane) == bin(value).count("1")
        for lane in (0, n - 1, n // 2):
            assert backend.lane_bit(plane, lane) == (value >> lane) & 1

    @pytest.mark.parametrize("n", [3, 64, 130])
    def test_ones_is_all_lanes(self, n):
        backend = IntBackend(n)
        assert backend.to_int(backend.ones) == (1 << n) - 1
        assert backend.to_int(backend.zero) == 0
        assert backend.is_zero(backend.zero)
        assert not backend.is_zero(backend.ones)

    def test_needs_at_least_one_lane(self):
        with pytest.raises(ValueError):
            IntBackend(0)


class TestSelect:
    def test_select_muxes_per_lane(self):
        backend = IntBackend(8)
        cond = backend.from_int(0b10101010)
        then = backend.from_int(0b11110000)
        other = backend.from_int(0b00111100)
        got = backend.to_int(select(cond, then, other))
        assert got == 0b10110100


class TestLaneCounter:
    def test_counts_per_lane_and_total(self):
        backend = IntBackend(6)
        counter = LaneCounter(backend)
        counter.add(backend.from_int(0b111111))
        counter.add(backend.from_int(0b101010))
        counter.add(backend.from_int(0b100010))
        assert [counter.lane(i) for i in range(6)] == [1, 3, 1, 2, 1, 3]
        assert counter.total() == 11
        # to_ints dumps the raw planes (digest material), LSB first.
        assert len(counter.to_ints()) == 2
