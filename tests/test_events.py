import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evseen.bayer import PATTERNS, BayerOrder, bayer_index
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


class TestBayer:
    def test_rggb_origin(self):
        assert bayer_index(0, 0, BayerOrder("RGGB")) == 0
        assert bayer_index(1, 0, BayerOrder("RGGB")) == 1

    @given(st.integers(0, 500), st.integers(0, 500), st.sampled_from(PATTERNS))
    def test_periodicity(self, x, y, pattern):
        order = BayerOrder(pattern)
        assert bayer_index(x, y, order) == bayer_index(x + 2, y + 2, order)

    @given(st.sampled_from(PATTERNS))
    def test_surjective_on_block(self, pattern):
        order = BayerOrder(pattern)
        block = {bayer_index(x, y, order) for x in range(2) for y in range(2)}
        assert block == {0, 1, 2, 3}


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

    def test_single_bin(self):
        stream = EventStream(2, 2, [0, 0], [0, 0], [10, 20], [1, 1])
        grid = voxelize(stream, 1, 0, 100)
        assert grid.values[0, 0, 0] == 2.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            voxelize(EventStream.empty(2, 2), 4, 100, 100)


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
