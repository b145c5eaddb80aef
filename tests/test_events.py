import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evseen.bayer import PATTERNS, BayerOrder
from evseen.events import EventStream, position_embedding, simulate_events, voxelize
from evseen.imaging import RadianceField


def single_pixel_field(levels, dt_us: int = 1000) -> RadianceField:
    stack = np.asarray(levels, dtype=np.float64).reshape(-1, 1, 1)
    return RadianceField(stack, np.arange(len(levels), dtype=np.int64) * dt_us)


class TestSimulate:
    def test_constant_radiance_silent(self):
        field = RadianceField(np.full((5, 4, 4), 0.3), np.arange(5, dtype=np.int64))
        assert len(simulate_events(field, 0.2)) == 0

    def test_step_up_one_and_a_half_thresholds(self):
        c = 0.3
        stream = simulate_events(single_pixel_field([0.2, 0.2 * np.exp(1.5 * c)]), c)
        assert len(stream) == 1
        assert stream.ps[0] == 1
        assert stream.ts[0] == 1000

    def test_step_down_two_and_a_half_thresholds(self):
        c = 0.3
        stream = simulate_events(single_pixel_field([0.2, 0.2 * np.exp(-2.5 * c)]), c)
        assert len(stream) == 2
        assert (stream.ps == -1).all()

    def test_reference_stepping_across_frames(self):
        # residual 0.5C carries over: a second 0.6C rise crosses the threshold
        c = 0.5
        levels = [1.0, np.exp(0.75), np.exp(1.05)]
        stream = simulate_events(single_pixel_field(levels), c)
        assert list(stream.ts) == [1000, 2000]
        assert (stream.ps == 1).all()

    def test_event_count_matches_floor_rule(self):
        rng = np.random.default_rng(11)
        c = 0.2
        for _ in range(300):
            lo, hi = rng.uniform(0.01, 1.0, 2)
            stream = simulate_events(single_pixel_field([lo, hi]), c)
            expected = int(np.floor(abs(np.log(hi) - np.log(lo)) / c))
            assert len(stream) == expected

    def test_scale_invariance_bit_identical(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.1, 1.0, (6, 8, 8))
        times = np.arange(6, dtype=np.int64) * 500
        base = simulate_events(RadianceField(values, times), 0.15, floor=1e-6)
        for alpha in (0.125, 3.7):
            scaled = simulate_events(
                RadianceField(values * alpha, times), 0.15, floor=1e-6 * alpha
            )
            assert (base.xs == scaled.xs).all()
            assert (base.ys == scaled.ys).all()
            assert (base.ts == scaled.ts).all()
            assert (base.ps == scaled.ps).all()

    def test_polarity_antisymmetry_on_monotone_fields(self):
        # per-pixel monotone radiance with per-frame excess < 2C: reversing the
        # frames negates the polarity multiset
        rng = np.random.default_rng(3)
        c = 0.25
        steps = rng.uniform(0.05, 2 * c * 0.95, (7, 4, 4))
        signs = np.where(rng.random((1, 4, 4)) < 0.5, -1.0, 1.0)
        logs = np.cumsum(steps * signs, axis=0)
        logs = np.concatenate([np.zeros((1, 4, 4)), logs], axis=0)
        values = np.exp(logs)
        times = np.arange(8, dtype=np.int64) * 100
        fwd = simulate_events(RadianceField(values, times), c)
        rev = simulate_events(RadianceField(values[::-1], times), c)
        assert len(fwd) == len(rev)
        assert sorted(fwd.ps) == sorted(-rev.ps)

    @pytest.mark.parametrize("times", [[0, 2**63], [-(2**63) - 1, 0], [10**20]])
    def test_timestamps_outside_int64_rejected(self, times):
        with pytest.raises(ValueError, match="int64"):
            RadianceField(np.ones((len(times), 1, 1)), times)

    def test_increasing_check_does_not_wrap(self):
        """A difference of int64 stamps can wrap; the field compares them instead."""
        extremes = [-(2**63), 2**63 - 1]
        assert RadianceField(np.ones((2, 1, 1)), extremes).timestamps_us.tolist() == extremes
        with pytest.raises(ValueError, match="strictly increasing"):
            RadianceField(np.ones((2, 1, 1)), extremes[::-1])

    def test_validation(self):
        field = single_pixel_field([0.5, 0.6])
        with pytest.raises(ValueError):
            simulate_events(single_pixel_field([0.5]), 0.2)
        with pytest.raises(ValueError):
            simulate_events(field, 0.0)

    @pytest.mark.parametrize("arg", ["threshold", "floor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_threshold_or_floor_rejected(self, arg, value):
        field = single_pixel_field([0.5, 0.6])
        kwargs = {"threshold": 0.2, "floor": 1e-6, arg: value}
        with pytest.raises(ValueError, match="finite"):
            simulate_events(field, **kwargs)

    def test_tie_order(self):
        # simultaneous events sort by (t, y, x, p)
        c = 0.1
        values = np.ones((2, 3, 3))
        values[1] = np.exp(1.0)
        stream = simulate_events(RadianceField(values, np.array([0, 10])), 1.0)
        coords = list(zip(stream.ts, stream.ys, stream.xs, stream.ps))
        assert coords == sorted(coords)


STORED = (np.uint16, np.uint16, np.int64, np.int8)


def lexsorted(xs, ys, ts, ps):
    """The stored (x, y, t, p) arrays in (t, y, x, p) order by one stable lexsort."""
    xs, ys, ts, ps = (np.asarray(a, dtype=d) for a, d in zip((xs, ys, ts, ps), STORED))
    order = np.lexsort((ps, xs, ys, ts))
    return xs[order], ys[order], ts[order], ps[order]


def stream_arrays(stream):
    return stream.xs, stream.ys, stream.ts, stream.ps


@st.composite
def event_lists(draw):
    """Small sensors and few stamps, so equal stamps, both polarities at one pixel
    and repeated events are common; some lists come sorted, some as the stored
    dtypes (the constructor must then copy rather than take them)."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, width - 1), st.integers(0, height - 1), st.integers(-3, 3), st.sampled_from([-1, 1])),
            max_size=40,
        )
    )
    if draw(st.booleans()):
        rows.sort(key=lambda r: (r[2], r[1], r[0], r[3]))
    columns = [[r[i] for r in rows] for i in range(4)]
    if draw(st.booleans()):
        columns = [np.array(c, dtype=d) for c, d in zip(columns, STORED)]
    return width, height, columns


class TestEventStream:
    @pytest.mark.parametrize(
        "component, values, message",
        [
            ("xs", [65536], "event x coordinate 65536 at index 0 changes when stored as uint16"),
            ("xs", [-65535], "event x coordinate -65535 at index 0 changes when stored as uint16"),
            ("ps", [257], "event polarity 257 at index 0 changes when stored as int8"),
            ("xs", [1.7], "event x coordinate 1.7 at index 0 changes when stored as uint16"),
            ("ts", [0.9], "event timestamp 0.9 at index 0 changes when stored as int64"),
        ],
    )
    def test_a_component_is_checked_before_it_is_narrowed(self, component, values, message):
        """Each of these was once stored as a valid event: x = 65536 as 0, x = -65535
        and x = 1.7 as 1, p = 257 as +1, t = 0.9 as 0."""
        parts = {"xs": [0], "ys": [0], "ts": [0], "ps": [1], component: values}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EventStream(10, 10, **parts)

    def test_stamps_past_int64_are_rejected(self):
        with pytest.raises(ValueError, match="^event timestamps must be int64 values$"):
            EventStream(10, 10, [0], [0], [10**20], [1])

    def test_sensor_past_uint16_sizes_is_rejected(self):
        with pytest.raises(ValueError, match="^sensor 1x65536 is larger than 65535 pixels on a side$"):
            EventStream.empty(1, 65536)
        assert EventStream(65535, 1, [65534], [0], [0], [1]).xs.tolist() == [65534]

    def test_simulated_sensor_past_uint16_coordinates_is_rejected(self):
        """The last column of a 65,537-pixel row would be stored as x = 0."""
        values = np.ones((2, 1, 65537))
        values[1, 0, -1] = 10.0
        with pytest.raises(ValueError, match="^sensor 65537x1 is larger than 65535 pixels on a side$"):
            simulate_events(RadianceField(values, [0, 1]), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(event_lists())
    def test_stream_is_the_lexsorted_input_and_owns_it(self, case):
        width, height, columns = case
        stream = EventStream(width, height, *columns)
        for got, want, given_column in zip(stream_arrays(stream), lexsorted(*columns), columns):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable
            assert not np.shares_memory(got, np.asarray(given_column))

    def test_sorted_input_is_not_resorted(self, monkeypatch):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        rng = np.random.default_rng(5)
        simulate_events(RadianceField(rng.uniform(0.1, 1.0, (6, 8, 8)), np.arange(6) * 100), 0.2)
        assert calls == []
        EventStream(4, 1, [1, 0], [0, 0], [0, 0], [1, 1])
        assert calls == [1]


class TestBayer:
    """The Bayer slot of each pixel, read back from channel 2 of ``position_embedding``."""

    @staticmethod
    def slots(pattern, width=9, height=7):
        return np.rint(position_embedding(width, height, BayerOrder(pattern), 3)[..., 2] * 3).astype(int)

    def test_rggb_origin(self):
        slots = self.slots("RGGB")
        assert slots[0, 0] == 0
        assert slots[0, 1] == 1

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_periodicity(self, pattern):
        slots = self.slots(pattern, 503, 503)
        assert np.array_equal(slots[2:, 2:], slots[:-2, :-2])

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_surjective_on_block(self, pattern):
        slots = self.slots(pattern)
        blocks = np.stack([slots[:-1, :-1], slots[:-1, 1:], slots[1:, :-1], slots[1:, 1:]], axis=-1)
        assert (np.sort(blocks, axis=-1) == [0, 1, 2, 3]).all()


class TestVoxelize:
    def test_event_at_bin_center(self):
        stream = EventStream(4, 4, [1], [2], [300], [1])
        grid = voxelize(stream, 10, 0, 900)
        assert grid.values[2, 1, 3] == 1.0
        assert grid.values.sum() == 1.0

    def test_event_midway_between_centers(self):
        stream = EventStream(4, 4, [1], [2], [350], [1])
        grid = voxelize(stream, 10, 0, 900)
        assert grid.values[2, 1, 3] == pytest.approx(0.5)
        assert grid.values[2, 1, 4] == pytest.approx(0.5)

    def test_clamping_outside_window(self):
        stream = EventStream(2, 2, [0, 1], [0, 1], [-50, 5000], [1, -1])
        grid = voxelize(stream, 4, 0, 1000)
        assert grid.values[0, 0, 0] == 1.0
        assert grid.values[1, 1, 3] == -1.0

    @settings(max_examples=30)
    @given(st.integers(0, 2**31), st.integers(1, 12))
    def test_mass_conservation(self, seed, bins):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        stream = EventStream(
            8,
            8,
            rng.integers(0, 8, n),
            rng.integers(0, 8, n),
            rng.integers(0, 10_000, n),
            rng.choice([-1, 1], n),
        )
        grid = voxelize(stream, bins, 0, 10_000)
        total = stream.ps.sum()
        assert grid.values.sum() == pytest.approx(total, rel=1e-6, abs=1e-9)

    @staticmethod
    def mid_window_stream():
        """74 events stamped 10,000-20,000 us."""
        rng = np.random.default_rng(74)
        n = 74
        return EventStream(8, 8, rng.integers(0, 8, n), rng.integers(0, 8, n), rng.integers(10_000, 20_001, n), rng.choice([-1, 1], n))

    def test_full_int64_window_lands_mid_window(self):
        """Over [-2^63, 2^63 - 1] the stamps sit at the window's middle; their int64
        offsets from -2^63 would wrap and put every event in bin 0."""
        stream = self.mid_window_stream()
        grid = voxelize(stream, 5, -(2**63), 2**63 - 1)
        per_bin = grid.values.sum(axis=(0, 1))
        assert per_bin[[0, 1, 4]].tolist() == [0.0, 0.0, 0.0]
        assert per_bin[2] == pytest.approx(stream.ps.sum(), abs=1e-12)
        assert per_bin.sum() == pytest.approx(stream.ps.sum(), abs=1e-12)

    def test_offset_times_bins_past_int64(self):
        """(t - t_start) * (bins - 1) past 2^63 is binned, not wrapped."""
        stream = EventStream(2, 1, [0, 1], [0, 0], [5 * 10**18, 9 * 10**18], [1, -1])
        grid = voxelize(stream, 10, 0, 9 * 10**18)
        assert grid.values[0, 0, 5] == 1.0 and grid.values[0, 1, 9] == -1.0
        assert np.abs(grid.values).sum() == 2.0

    # the last window's offsets round differently in float64 than in int64
    @pytest.mark.parametrize(
        "bins, t_start, t_end",
        [(5, 0, 30_000), (7, 12_000, 18_000), (3, -(2**61), 2**61), (9, 19_000, 19_001), (4, -123456789012345679, 987654321098765431)],
    )
    def test_in_range_windows_match_the_int64_formula(self, bins, t_start, t_end):
        """A window whose int64 arithmetic cannot wrap bins exactly as
        (t - t_start) * (bins - 1) / (t_end - t_start) in int64, events outside clamped."""
        stream = self.mid_window_stream()
        tau = np.clip((stream.ts - t_start) * (bins - 1) / (t_end - t_start), 0.0, bins - 1)
        lo = np.minimum(np.floor(tau).astype(np.int64), bins - 2)
        expected = np.zeros((8, 8, bins))
        np.add.at(expected, (stream.ys, stream.xs, lo), stream.ps * (1.0 - (tau - lo)))
        np.add.at(expected, (stream.ys, stream.xs, lo + 1), stream.ps * (tau - lo))
        assert voxelize(stream, bins, t_start, t_end).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bins", [1, 16])
    def test_a_128_field_matches_the_add_at_formula(self, bins):
        """The one-bincount scatter gives the bytes of two ``np.add.at`` passes, lower
        bins then upper, on a 128x128, 16-frame field of about 230,000 events."""
        rng = np.random.default_rng(128)
        field = RadianceField(rng.uniform(0.3, 0.6, (16, 128, 128)), np.arange(16) * 10_000)
        stream = simulate_events(field, 0.15)
        t_start, t_end = int(stream.ts[0]), int(stream.ts[-1])
        expected = np.zeros((128, 128, bins))
        if bins == 1:
            np.add.at(expected, (stream.ys, stream.xs, 0), stream.ps)
        else:
            tau = np.clip((stream.ts - t_start) * (bins - 1) / (t_end - t_start), 0.0, bins - 1)
            lo = np.minimum(np.floor(tau).astype(np.int64), bins - 2)
            np.add.at(expected, (stream.ys, stream.xs, lo), stream.ps * (1.0 - (tau - lo)))
            np.add.at(expected, (stream.ys, stream.xs, lo + 1), stream.ps * (tau - lo))
        assert len(stream) > 150_000
        assert voxelize(stream, bins, t_start, t_end).values.tobytes() == expected.tobytes()

    def test_cells_past_uint16_are_not_wrapped(self):
        """Row 299 of a 300-pixel-wide sensor starts at cell 89,700, past uint16."""
        stream = EventStream(300, 300, [299, 5], [299, 250], [0, 10], [1, -1])
        grid = voxelize(stream, 3)
        assert grid.values[299, 299].tolist() == [1.0, 0.0, 0.0]
        assert grid.values[250, 5].tolist() == [0.0, 0.0, -1.0]
        assert np.abs(grid.values).sum() == 2.0

    def test_single_bin(self):
        stream = EventStream(2, 2, [0, 0], [0, 0], [10, 20], [1, 1])
        grid = voxelize(stream, 1, 0, 100)
        assert grid.values[0, 0, 0] == 2.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            voxelize(EventStream.empty(2, 2), 4, 100, 100)

    def test_stream_window_widened_only_when_both_bounds_are_the_streams(self):
        stream = EventStream(2, 2, [0, 1], [1, 0], [500, 500], [1, -1])
        grid = voxelize(stream, 4)
        assert (grid.t_start, grid.t_end) == (500, 501)
        assert voxelize(EventStream.empty(2, 2), 4).t_end == 1
        for t_start, t_end in [(500, None), (None, 500), (600, 400), (500, 500)]:
            with pytest.raises(ValueError, match="empty time window"):
                voxelize(stream, 4, t_start, t_end)
        assert voxelize(stream, 4, 400, None).t_end == 500


class TestPositionEmbedding:
    def test_corner_channels(self):
        pe = position_embedding(8, 6, BayerOrder("RGGB"), 8)
        assert pe.shape == (6, 8, 8)
        assert tuple(pe[0, 0, :3]) == (0.0, 0.0, 0.0)
        assert pe[-1, -1, 0] == 1.0 and pe[-1, -1, 1] == 1.0

    def test_bayer_channel(self):
        pe = position_embedding(4, 4, BayerOrder("BGGR"), 4)
        assert pe[0, 0, 2] == pytest.approx(3 / 3)
        assert pe[1, 1, 2] == pytest.approx(0 / 3)

    def test_deterministic(self):
        a = position_embedding(16, 12, BayerOrder("GRBG"), 11)
        b = position_embedding(16, 12, BayerOrder("GRBG"), 11)
        assert (a == b).all()

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            position_embedding(4, 4, BayerOrder(), 2)
