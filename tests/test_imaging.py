import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evseen.bayer import PATTERNS, BayerOrder
from evseen.imaging import (
    NoiseModel,
    RadianceField,
    RawImage,
    RgbImage,
    apply_isp,
    brightness,
    exposure_ok,
    render_raw,
)


def uniform_field(value: float, frames: int = 1, size: int = 8) -> RadianceField:
    return RadianceField(
        np.full((frames, size, size), value), np.arange(frames, dtype=np.int64) * 1000
    )


def uniform_rgb(r: float, g: float = None, b: float = None, size: int = 8) -> RgbImage:
    g = r if g is None else g
    b = r if b is None else b
    img = np.empty((size, size, 3))
    img[..., 0], img[..., 1], img[..., 2] = r, g, b
    return RgbImage(img)


class TestRenderRaw:
    def test_noiseless_quantization(self):
        raw = render_raw(uniform_field(0.5), 0, NoiseModel(), 8)
        assert (raw.values == 128).all()

    def test_zero_radiance(self):
        raw = render_raw(uniform_field(0.0), 0, NoiseModel(), 8)
        assert (raw.values == 0).all()

    def test_gaussian_std_monte_carlo(self):
        # analytic std of the quantized pixel is sigma * 255 (clipping negligible)
        field = uniform_field(0.5, size=256)
        raw = render_raw(field, 0, NoiseModel(gaussian_sigma=0.1, rng_seed=42), 8)
        measured = raw.values.astype(float).std()
        assert abs(measured - 0.1 * 255) / (0.1 * 255) < 0.10

    def test_shot_noise_recentering_keeps_mean_and_std(self):
        field = uniform_field(0.5, size=256)
        raw = render_raw(field, 0, NoiseModel(shot_scale=2000.0, rng_seed=3), 8)
        assert abs(raw.values.mean() - 128) < 0.5
        analytic = np.sqrt(0.5 / 2000.0) * 255
        assert abs(raw.values.astype(float).std() - analytic) / analytic < 0.10

    def test_seeded_determinism(self):
        field = uniform_field(0.4, size=32)
        noise = NoiseModel(gaussian_sigma=0.05, shot_scale=0.01, rng_seed=9)
        a = render_raw(field, 0, noise, 10)
        b = render_raw(field, 0, noise, 10)
        assert (a.values == b.values).all()

    def test_noisy_readout_and_isp_pinned_to_the_byte(self):
        """SHA-256 of three 10-bit frames with Gaussian and shot noise and their GBRG
        demosaics, computed when each call rendered its frame alone."""
        rng = np.random.default_rng(12)
        field = RadianceField(rng.uniform(0.0, 1.0, (3, 6, 8)), [0, 10, 20])
        noise = NoiseModel(gaussian_mu=0.01, gaussian_sigma=0.02, shot_scale=300.0, rng_seed=77)
        h = hashlib.sha256()
        for f in range(3):
            raw = render_raw(field, f, noise, 10)
            h.update(raw.values.tobytes())
            h.update(apply_isp(raw, BayerOrder("GBRG")).values.tobytes())
        assert h.hexdigest() == "a859c7d1d3a1c2a5665edbe5731ff3677d58bd8865a6856d40faea21c552264c"

    def test_zero_noise_idempotent_and_monotone(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, (1, 16, 16))
        field = RadianceField(values, np.array([0]))
        a = render_raw(field, 0, NoiseModel(), 8)
        b = render_raw(field, 0, NoiseModel(), 8)
        assert (a.values == b.values).all()
        bigger = RadianceField(np.clip(values + 0.05, 0, 1), np.array([0]))
        c = render_raw(bigger, 0, NoiseModel(), 8)
        assert (c.values >= a.values).all()

    def test_frame_and_depth_validation(self):
        field = uniform_field(0.5, frames=2)
        with pytest.raises(IndexError):
            render_raw(field, 2, NoiseModel())
        with pytest.raises(ValueError):
            render_raw(field, 0, NoiseModel(), bit_depth=7)


class TestIsp:
    def test_flat_field(self):
        raw = RawImage(np.full((4, 4), 100, dtype=np.uint16), 8)
        rgb = apply_isp(raw)
        assert np.allclose(rgb.values, 100 / 255)

    def test_rggb_block_rule(self):
        block = np.array([[200, 100], [100, 50]], dtype=np.uint16)
        rgb = apply_isp(RawImage(block, 8), BayerOrder("RGGB"))
        expected = np.array([200, 100, 50]) / 255
        assert np.allclose(rgb.values, expected[None, None, :])

    def test_all_zero(self):
        rgb = apply_isp(RawImage(np.zeros((6, 6), dtype=np.uint16), 8))
        assert (rgb.values == 0).all()

    def test_every_pattern_recovers_flat_colors(self):
        # paint the mosaic so R=0.8, G=0.4, B=0.2 regardless of layout
        for pattern in PATTERNS:
            order = BayerOrder(pattern)
            raw = np.zeros((4, 4), dtype=np.uint16)
            lookup = {"R": 204, "G": 102, "B": 51}
            for y in range(4):
                for x in range(4):
                    raw[y, x] = lookup[pattern[2 * (y % 2) + (x % 2)]]
            rgb = apply_isp(RawImage(raw, 8), order)
            assert np.allclose(rgb.values, np.array([204, 102, 51]) / 255)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            apply_isp(RawImage(np.zeros((3, 4), dtype=np.uint16), 8))


class TestPredicates:
    def test_brightness_uniform(self):
        assert brightness(uniform_rgb(0.5)) == pytest.approx(0.5)

    def test_brightness_half_black_half_white(self):
        img = np.zeros((8, 8, 3))
        img[:4] = 1.0
        assert brightness(RgbImage(img)) == pytest.approx(0.5)

    def test_brightness_channel_means(self):
        assert brightness(uniform_rgb(0.2, 0.4, 0.6)) == pytest.approx(0.4)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_brightness_linear(self, value, alpha):
        base = uniform_rgb(value)
        scaled = RgbImage(base.values * alpha)
        assert brightness(scaled) == pytest.approx(alpha * brightness(base), abs=1e-12)

    def test_exposure_band(self):
        assert exposure_ok(uniform_rgb(0.5))
        assert not exposure_ok(uniform_rgb(0.39))
        assert exposure_ok(uniform_rgb(0.7))
        assert exposure_ok(uniform_rgb(0.4))

    def test_exposure_matches_brightness_on_grid(self):
        # nominal grid values sit >= 0.01 away from the band edges except the
        # edges themselves, which are inclusive
        for step in range(101):
            value = step / 100.0
            img = uniform_rgb(value)
            assert exposure_ok(img) == (0.4 <= value <= 0.7), value
